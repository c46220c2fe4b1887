//! Property-based tests for the length-stratified neighbor backend:
//! the penalty-derived lower bound never exceeds the true
//! dissimilarity (the soundness condition that makes stratum skipping
//! exact), and stratified range / k-NN answers equal a brute-force
//! linear scan bit for bit on arbitrary mixed-length corpora and
//! arbitrary penalties. The stratified k-NN tables equal the matrix
//! sweep's bit for bit.

use dissim::{
    dissimilarity, length_lower_bound, CondensedMatrix, DissimParams, KnnTable, NeighborProvider,
    StrataIndex, StratifiedProvider,
};
use proptest::prelude::*;

/// A random mixed-length segment set: up to 24 values, lengths 0..12,
/// arbitrary bytes.
fn segment_set() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 4..24)
}

/// A random valid length penalty. The pipeline default is 1.0;
/// anything non-negative and finite is admissible.
fn penalty() -> impl Strategy<Value = f64> {
    (0u8..3, 0.0f64..4.0).prop_map(|(tag, x)| match tag {
        0 => 0.0,
        1 => 1.0,
        _ => x,
    })
}

/// The brute-force range answer: every exact dissimilarity within
/// `eps`, sorted by `(dissimilarity, index)` — the contract every
/// backend is pinned against.
fn linear_range(values: &[Vec<u8>], params: &DissimParams, i: usize, eps: f64) -> Vec<(f64, u32)> {
    let mut out: Vec<(f64, u32)> = values
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(j, v)| (dissimilarity(&values[i], v, params), j as u32))
        .filter(|&(d, _)| d <= eps)
        .collect();
    out.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    out
}

/// The brute-force k-th nearest dissimilarity.
fn linear_knn(values: &[Vec<u8>], params: &DissimParams, i: usize, k: usize) -> f64 {
    let n = values.len();
    if n < 2 {
        return f64::INFINITY;
    }
    let mut ds: Vec<f64> = (0..n)
        .filter(|&j| j != i)
        .map(|j| dissimilarity(&values[i], &values[j], params))
        .collect();
    ds.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    ds[k.clamp(1, n - 1) - 1]
}

/// Every entry of a table, as bits, row by row.
fn table_bits(table: &KnnTable) -> Vec<u64> {
    (0..table.len())
        .flat_map(|i| (1..=table.k_max()).map(move |k| table.kth(i, k).to_bits()))
        .collect()
}

/// Algorithm 1's table depth for `n` items: `round(ln n)`, at least 2,
/// at most `n − 1`.
fn autoconf_depth(n: usize) -> usize {
    ((n as f64).ln().round() as usize)
        .max(2)
        .min(n.saturating_sub(1))
        .max(1)
}

/// Asserts the stratified provider's k-NN tables over `values` equal
/// the matrix sweep's bitwise, for the depths that matter (1, Algorithm
/// 1's, `n − 1`, and one past the pair count) at 1 and 4 threads.
/// Chunks of 8 give multi-chunk forests from `n > 8`.
fn assert_forest_tables_match_matrix(
    values: &[&[u8]],
    params: &DissimParams,
) -> Result<(), TestCaseError> {
    let n = values.len();
    let m = CondensedMatrix::build(n, |i, j| dissimilarity(values[i], values[j], params));
    let index = StrataIndex::build(values, params, 8);
    let strat = StratifiedProvider::new(values, params, &index);
    for k_max in [1, autoconf_depth(n), n - 1, n + 1] {
        let want = table_bits(&m.knn_table(k_max));
        for threads in [1, 4] {
            let got = strat.knn_table(k_max, threads);
            prop_assert_eq!((got.len(), got.k_max()), (n, k_max));
            prop_assert_eq!(
                table_bits(&got),
                want.clone(),
                "stratified, n {} k_max {} threads {}",
                n,
                k_max,
                threads
            );
        }
    }
    Ok(())
}

proptest! {
    /// The stratified k-NN tables equal the matrix sweep's on arbitrary
    /// mixed-length sets, including their 2- and 3-item prefixes.
    #[test]
    fn forest_knn_tables_equal_matrix_table_on_mixed_sets(
        values in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 4..30),
        length_penalty in penalty(),
    ) {
        let params = DissimParams { length_penalty };
        let refs: Vec<&[u8]> = values.iter().map(|v| &v[..]).collect();
        for n in [2, 3, refs.len()] {
            assert_forest_tables_match_matrix(&refs[..n], &params)?;
        }
    }

    /// The same on uniform-length sets, where the stratified index is
    /// one stratum and every query runs the pruned forest search.
    #[test]
    fn forest_knn_tables_equal_matrix_table_on_uniform_sets(
        len in 1usize..8,
        seeds in prop::collection::vec(any::<u64>(), 4..30),
    ) {
        let values: Vec<Vec<u8>> = seeds
            .iter()
            .map(|s| (0..len).map(|b| (s >> (8 * (b % 8))) as u8 & 0x3f).collect())
            .collect();
        let refs: Vec<&[u8]> = values.iter().map(|v| &v[..]).collect();
        let params = DissimParams::default();
        for n in [2, 3, refs.len()] {
            prop_assert_eq!(StrataIndex::build(&refs[..n], &params, 8).strata().len(), 1);
            assert_forest_tables_match_matrix(&refs[..n], &params)?;
        }
    }

    /// Soundness of the cross-stratum bound: for every pair of values
    /// the penalty-derived lower bound on their length gap never
    /// exceeds the exact dissimilarity — bitwise `lb <= d`, no slack
    /// needed, because the bound reuses the kernel's own rounded
    /// penalty sub-expression.
    #[test]
    fn length_bound_is_a_true_lower_bound(
        values in segment_set(),
        length_penalty in penalty(),
    ) {
        let params = DissimParams { length_penalty };
        for a in &values {
            for b in &values {
                let lb = length_lower_bound(a.len(), b.len(), &params);
                let d = dissimilarity(a, b, &params);
                prop_assert!(
                    lb <= d,
                    "lb({}, {}) = {lb} > d = {d} at penalty {length_penalty}",
                    a.len(),
                    b.len(),
                );
            }
        }
    }

    /// Stratified ε-range queries equal the brute-force linear scan
    /// bit for bit — every emitted distance, every index, the order.
    #[test]
    fn stratified_range_equals_linear_scan(
        values in segment_set(),
        length_penalty in penalty(),
        eps in 0.0f64..1.5,
    ) {
        let params = DissimParams { length_penalty };
        let refs: Vec<&[u8]> = values.iter().map(|v| &v[..]).collect();
        let index = StrataIndex::build(&refs, &params, 8);
        let provider = StratifiedProvider::new(&refs, &params, &index);
        let mut out = Vec::new();
        for i in 0..values.len() {
            provider.neighbors_within(i, eps, &mut out);
            let expected = linear_range(&values, &params, i, eps);
            prop_assert_eq!(out.len(), expected.len(), "query {}", i);
            for (got, want) in out.iter().zip(&expected) {
                prop_assert_eq!(got.0.to_bits(), want.0.to_bits(), "query {}", i);
                prop_assert_eq!(got.1, want.1, "query {}", i);
            }
        }
    }

    /// Stratified k-NN queries equal the brute-force k-th order
    /// statistic bit for bit, across every admissible k.
    #[test]
    fn stratified_knn_equals_linear_scan(
        values in segment_set(),
        length_penalty in penalty(),
    ) {
        let params = DissimParams { length_penalty };
        let refs: Vec<&[u8]> = values.iter().map(|v| &v[..]).collect();
        let index = StrataIndex::build(&refs, &params, 8);
        let provider = StratifiedProvider::new(&refs, &params, &index);
        let n = values.len();
        for k in [1, 2, n / 2, n - 1, n + 5] {
            for i in 0..n {
                let got = provider.knn(i, k);
                let want = linear_knn(&values, &params, i, k);
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "query {} k {}: {} vs {}",
                    i, k, got, want
                );
            }
        }
    }
}
