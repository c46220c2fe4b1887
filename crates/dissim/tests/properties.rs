//! Property-based tests for the Canberra dissimilarity and matrices.

use dissim::kernel::{canberra_distance_lut, dissimilarity_kernel, dissimilarity_lut};
use dissim::{
    canberra_distance, dissimilarity, CanberraLut, CondensedMatrix, DissimParams, MatrixProvider,
    NeighborProvider, QueryCounters, QueryDist, StrataIndex, StratifiedProvider,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Asserts one backend's batched answers are bit-identical, in query
/// order, to the scalar calls the defaults are specified against.
fn assert_batch_matches_scalar<P: NeighborProvider + Sync>(
    provider: &P,
    queries: &[usize],
    eps: f64,
    k: usize,
    threads: usize,
) -> Result<(), TestCaseError> {
    let lists = provider.neighbors_within_batch(queries, eps, threads);
    prop_assert_eq!(lists.len(), queries.len());
    let mut want = Vec::new();
    for (&q, got) in queries.iter().zip(&lists) {
        provider.neighbors_within(q, eps, &mut want);
        prop_assert_eq!(got, &want, "range query {} (threads {})", q, threads);
    }
    // The threaded k-NN path: one table row per item, its k-th entry
    // the scalar query's answer (clamped like `knn` to the pair count).
    let k = k.min(provider.len() - 1);
    let table = provider.knn_table(k, threads);
    for q in 0..provider.len() {
        prop_assert_eq!(
            table.kth(q, k).to_bits(),
            provider.knn(q, k).to_bits(),
            "knn query {} (k {}, threads {})",
            q,
            k,
            threads
        );
    }
    Ok(())
}

/// A pair list as `(dissimilarity bits, neighbor)`, sorted: the
/// order-free form regions are compared in.
fn sorted_bits(region: impl Iterator<Item = (f64, u32)>) -> Vec<(u64, u32)> {
    let mut v: Vec<(u64, u32)> = region.map(|(d, j)| (d.to_bits(), j)).collect();
    v.sort_unstable();
    v
}

/// Asserts every row of one backend's region table equals its scalar
/// ε-range query as a set of bit-identical pairs.
fn assert_region_table_matches_scalar<P: NeighborProvider + Sync>(
    provider: &P,
    eps: f64,
    threads: usize,
) -> Result<(), TestCaseError> {
    let table = provider.region_table(eps, threads);
    prop_assert_eq!(table.len(), provider.len());
    let mut want = Vec::new();
    let mut total = 0;
    for i in 0..provider.len() {
        provider.neighbors_within(i, eps, &mut want);
        total += want.len();
        prop_assert_eq!(
            sorted_bits(table.row(i)),
            sorted_bits(want.iter().copied()),
            "row {} (eps {}, threads {})",
            i,
            eps,
            threads
        );
    }
    prop_assert_eq!(table.entries(), total);
    Ok(())
}

fn seg() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..40)
}

/// Segment sets stressing the kernel's bucket paths: lengths collide
/// often, and empty and 1-byte segments occur regularly.
fn seg_set() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..10), 0..24)
}

proptest! {
    #[test]
    fn dissimilarity_is_symmetric(a in seg(), b in seg()) {
        let p = DissimParams::default();
        prop_assert_eq!(dissimilarity(&a, &b, &p), dissimilarity(&b, &a, &p));
    }

    #[test]
    fn kernels_are_bitwise_symmetric(a in seg(), b in seg(), penalty in 0.0f64..1.0) {
        // The stratified region table evaluates a cross-stratum pair
        // from its longer end only and mirrors the value into the
        // shorter end's row, which is sound only if both directions
        // agree bit for bit.
        let p = DissimParams { length_penalty: penalty };
        let lut = CanberraLut::global();
        prop_assert_eq!(
            QueryDist::new(&a, &p).dist(&b).to_bits(),
            QueryDist::new(&b, &p).dist(&a).to_bits()
        );
        prop_assert_eq!(
            dissimilarity_kernel(&a, &b, &p, lut).to_bits(),
            dissimilarity_kernel(&b, &a, &p, lut).to_bits()
        );
    }

    #[test]
    fn dissimilarity_is_bounded(a in seg(), b in seg()) {
        let p = DissimParams::default();
        let d = dissimilarity(&a, &b, &p);
        prop_assert!((0.0..=1.0).contains(&d), "d = {}", d);
    }

    #[test]
    fn self_dissimilarity_is_zero(a in seg()) {
        let p = DissimParams::default();
        prop_assert_eq!(dissimilarity(&a, &a, &p), 0.0);
    }

    #[test]
    fn equal_length_matches_canberra(a in prop::collection::vec(any::<u8>(), 1..30)) {
        let mut b = a.clone();
        b.reverse();
        let p = DissimParams::default();
        prop_assert_eq!(dissimilarity(&a, &b, &p), canberra_distance(&a, &b));
    }

    #[test]
    fn substring_beats_random_window(
        needle in prop::collection::vec(any::<u8>(), 2..10),
        pad in prop::collection::vec(any::<u8>(), 1..10),
    ) {
        // A segment embedded in a longer one can never be more dissimilar
        // than the pure penalty bound.
        let mut hay = pad.clone();
        hay.extend_from_slice(&needle);
        let p = DissimParams::default();
        let d = dissimilarity(&needle, &hay, &p);
        let bound = (pad.len() as f64 * p.length_penalty) / hay.len() as f64;
        prop_assert!(d <= bound + 1e-12, "d = {} > bound {}", d, bound);
    }

    #[test]
    fn zero_penalty_ignores_length_for_embedded(
        needle in prop::collection::vec(any::<u8>(), 2..8),
        pad in prop::collection::vec(any::<u8>(), 1..8),
    ) {
        let mut hay = pad.clone();
        hay.extend_from_slice(&needle);
        let p = DissimParams { length_penalty: 0.0 };
        prop_assert_eq!(dissimilarity(&needle, &hay, &p), 0.0);
    }

    #[test]
    fn matrix_is_consistent_with_function(
        segs in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..12), 2..20),
    ) {
        let p = DissimParams::default();
        let values: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let m = CondensedMatrix::build_segments(&values, &p, 4);
        for i in 0..segs.len() {
            for j in 0..segs.len() {
                let expect = if i == j { 0.0 } else { dissimilarity(&segs[i], &segs[j], &p) };
                prop_assert_eq!(m.get(i, j), expect);
            }
        }
    }

    #[test]
    fn knn_is_monotone_in_k(
        segs in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..10), 4..16),
    ) {
        let p = DissimParams::default();
        let m = CondensedMatrix::build(segs.len(), |i, j| dissimilarity(&segs[i], &segs[j], &p));
        let k1 = m.knn_dissimilarities(1);
        let k2 = m.knn_dissimilarities(2);
        let k3 = m.knn_dissimilarities(3);
        for i in 0..segs.len() {
            prop_assert!(k1[i] <= k2[i]);
            prop_assert!(k2[i] <= k3[i]);
        }
    }

    #[test]
    fn matrix_provider_range_matches_row_scan(
        segs in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..10), 2..24),
        eps in 0.0f64..1.05,
    ) {
        let p = DissimParams::default();
        let m = CondensedMatrix::build(segs.len(), |i, j| dissimilarity(&segs[i], &segs[j], &p));
        let provider = MatrixProvider::new(&m);
        let mut region = Vec::new();
        for i in 0..segs.len() {
            provider.neighbors_within(i, eps, &mut region);
            // Exactly the brute-force row scan, in index order, carrying
            // the true matrix dissimilarities.
            let brute: Vec<(f64, u32)> = (0..segs.len())
                .filter(|&j| j != i && m.get(i, j) <= eps)
                .map(|j| (m.get(i, j), j as u32))
                .collect();
            prop_assert_eq!(&region, &brute, "item {}, eps {}", i, eps);
        }
    }

    #[test]
    fn kernel_pair_functions_are_bit_identical(
        a in seg(),
        b in seg(),
        penalty in 0.0f64..1.0,
    ) {
        let p = DissimParams { length_penalty: penalty };
        let lut = CanberraLut::global();
        let want = dissimilarity(&a, &b, &p).to_bits();
        prop_assert_eq!(dissimilarity_lut(&a, &b, &p, lut).to_bits(), want);
        prop_assert_eq!(dissimilarity_kernel(&a, &b, &p, lut).to_bits(), want);
        if a.len() == b.len() {
            prop_assert_eq!(
                canberra_distance_lut(&a, &b, lut).to_bits(),
                canberra_distance(&a, &b).to_bits()
            );
        }
    }

    #[test]
    fn build_segments_is_bit_identical_to_naive_build(
        segs in seg_set(),
        threads in 1usize..5,
        penalty in 0.0f64..1.0,
    ) {
        let p = DissimParams { length_penalty: penalty };
        let refs: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let naive = CondensedMatrix::build(refs.len(), |i, j| {
            dissimilarity(refs[i], refs[j], &p)
        });
        // `PartialEq` on CondensedMatrix compares every condensed f64;
        // entries are never NaN and never -0.0, so == is bit equality.
        prop_assert_eq!(CondensedMatrix::build_segments(&refs, &p, threads), naive);
    }

    #[test]
    fn build_segments_handles_uniform_length_sets(
        segs in prop::collection::vec(prop::collection::vec(any::<u8>(), 4), 2..16),
        threads in 1usize..4,
    ) {
        // All segments equal-length: every pair takes the direct-Canberra
        // bucket path.
        let p = DissimParams::default();
        let refs: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let naive = CondensedMatrix::build(refs.len(), |i, j| {
            dissimilarity(refs[i], refs[j], &p)
        });
        prop_assert_eq!(CondensedMatrix::build_segments(&refs, &p, threads), naive);
    }

    #[test]
    fn row_into_matches_per_element_scan(
        segs in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..8), 2..20),
    ) {
        let p = DissimParams::default();
        let m = CondensedMatrix::build(segs.len(), |i, j| dissimilarity(&segs[i], &segs[j], &p));
        let mut buf = Vec::new();
        for i in 0..segs.len() {
            m.row_into(i, &mut buf);
            let reference: Vec<f64> =
                (0..segs.len()).filter(|&j| j != i).map(|j| m.get(i, j)).collect();
            prop_assert_eq!(&buf, &reference, "row {}", i);
        }
    }

    #[test]
    fn batch_queries_match_scalar_across_backends(
        segs in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..10), 2..24),
        eps in 0.0f64..1.05,
        k in 1usize..4,
        four_threads in any::<bool>(),
    ) {
        let threads = if four_threads { 4 } else { 1 };
        let p = DissimParams::default();
        let refs: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let m = CondensedMatrix::build_segments(&refs, &p, 1);
        // Small chunk so multi-chunk forests occur even at these sizes.
        let index = StrataIndex::build(&refs, &p, 7);
        // Reversed order plus duplicates: scheduling must not reorder
        // or conflate answers.
        let queries: Vec<usize> = (0..refs.len()).rev().chain([0, 0]).collect();
        assert_batch_matches_scalar(&MatrixProvider::new(&m), &queries, eps, k, threads)?;
        assert_batch_matches_scalar(
            &StratifiedProvider::new(&refs, &p, &index),
            &queries,
            eps,
            k,
            threads,
        )?;
    }

    #[test]
    fn region_tables_match_scalar_queries_across_backends(
        segs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 2..40),
        eps in 0.0f64..1.05,
    ) {
        let p = DissimParams::default();
        let refs: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let m = CondensedMatrix::build_segments(&refs, &p, 1);
        let index = StrataIndex::build(&refs, &p, 7);
        for threads in [1, 2, 4] {
            assert_region_table_matches_scalar(&MatrixProvider::new(&m), eps, threads)?;
            assert_region_table_matches_scalar(
                &StratifiedProvider::new(&refs, &p, &index),
                eps,
                threads,
            )?;
        }
    }

    #[test]
    fn pairs_from_matches_pair_bitwise_across_backends(
        segs in seg_set(),
        picks in prop::collection::vec(any::<u16>(), 0..32),
    ) {
        prop_assume!(!segs.is_empty());
        let p = DissimParams::default();
        let n = segs.len();
        let refs: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let m = CondensedMatrix::build_segments(&refs, &p, 1);
        let index = StrataIndex::build(&refs, &p, 7);
        let counters = Arc::new(QueryCounters::new());
        let stratified =
            StratifiedProvider::new(&refs, &p, &index).with_counters(Arc::clone(&counters));
        let matrix = MatrixProvider::new(&m);
        let mut out = vec![f64::NAN];
        let mut counted = 0u64;
        for i in 0..n {
            // Arbitrary columns: repeats, any order, `i` itself included.
            let js: Vec<usize> = picks.iter().map(|&x| usize::from(x) % n).chain([i]).collect();
            counted += js.iter().filter(|&&j| j != i).count() as u64;
            for provider in [&matrix as &dyn NeighborProvider, &stratified] {
                provider.pairs_from(i, &js, &mut out);
                prop_assert_eq!(out.len(), js.len());
                for (&j, d) in js.iter().zip(&out) {
                    prop_assert_eq!(d.to_bits(), provider.pair(i, j).to_bits(), "({}, {})", i, j);
                }
            }
        }
        // One evaluation per off-diagonal entry; `pair` itself is uncounted.
        prop_assert_eq!(counters.kernel_evals(), counted);
    }

    #[test]
    fn knn_table_matches_matrix_knn(
        segs in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..6), 1..14),
        duplicates in 0usize..4,
        k_max in 1usize..9,
    ) {
        // Copies of the first segment add rows with several zero-distance
        // neighbors; small sets cover u <= k_max + 1, where the table
        // pads past the pair count.
        let mut segs = segs;
        for _ in 0..duplicates {
            segs.push(segs[0].clone());
        }
        let p = DissimParams::default();
        let n = segs.len();
        let m = CondensedMatrix::build(n, |i, j| dissimilarity(&segs[i], &segs[j], &p));
        let table = m.knn_table(k_max);
        prop_assert_eq!(table.len(), n);
        for k in 1..=k_max {
            if k < n {
                let want = m.knn_dissimilarities(k);
                for (i, d) in want.iter().enumerate() {
                    prop_assert_eq!(table.kth(i, k).to_bits(), d.to_bits(), "item {}, k {}", i, k);
                }
            } else {
                for i in 0..n {
                    prop_assert!(table.kth(i, k).is_infinite(), "item {}, k {}", i, k);
                }
            }
        }
    }
}
