//! Metricity guard for the vantage-point trees inside the stratified
//! index: establishes the triangle inequality for plain Canberra (and
//! for the uniform-length dissimilarity the pruned in-stratum search
//! actually runs on), and pins the exact failure mode of the
//! length-penalized mixed-length variant — the reason strata prune with
//! metric trees only within one segment length.

use dissim::{
    canberra_distance, dissimilarity, DissimParams, NeighborProvider, StrataIndex,
    StratifiedProvider,
};
use proptest::prelude::*;

/// How many length strata the stratified index splits `vals` into: a
/// metric tree only ever spans one of them.
fn strata_count(vals: &[&[u8]], p: &DissimParams) -> usize {
    StrataIndex::build(vals, p, 8).strata().len()
}

/// Slack for accumulated f64 roundoff in the triangle comparison: the
/// real-arithmetic inequality is exact, and per-byte terms are in
/// [0, 1], so rounding across ≤ 40 terms sits orders of magnitude below
/// this. The forest search pads its pruning bounds with the same
/// margin (`dissim::vptree::PRUNE_SLACK`).
const FP_SLACK: f64 = 1e-9;

fn equal_len_triple() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, Vec<u8>)> {
    (1usize..40).prop_flat_map(|len| {
        (
            prop::collection::vec(any::<u8>(), len),
            prop::collection::vec(any::<u8>(), len),
            prop::collection::vec(any::<u8>(), len),
        )
    })
}

fn mixed_triple() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, Vec<u8>)> {
    let seg = || prop::collection::vec(any::<u8>(), 0..16);
    (seg(), seg(), seg())
}

proptest! {
    /// Plain Canberra on equal-length vectors is a metric (Lance &
    /// Williams, 1966): the per-byte term |x−y|/(x+y) satisfies the
    /// triangle inequality pointwise and sums preserve it.
    #[test]
    fn plain_canberra_satisfies_triangle_inequality((a, b, c) in equal_len_triple()) {
        let ab = canberra_distance(&a, &b);
        let bc = canberra_distance(&b, &c);
        let ac = canberra_distance(&a, &c);
        prop_assert!(ac <= ab + bc + FP_SLACK, "ac = {} > ab + bc = {}", ac, ab + bc);
    }

    /// On a uniform-length segment set the pipeline dissimilarity
    /// reduces to the plain Canberra distance, so it inherits the
    /// metric property — this is exactly the configuration one length
    /// stratum holds, the only place the pruned vantage-point search
    /// runs.
    #[test]
    fn uniform_length_dissimilarity_is_metric((a, b, c) in equal_len_triple()) {
        let p = DissimParams::default();
        let vals: Vec<&[u8]> = vec![&a, &b, &c];
        prop_assert_eq!(strata_count(&vals, &p), 1);
        let ab = dissimilarity(&a, &b, &p);
        let bc = dissimilarity(&b, &c, &p);
        let ac = dissimilarity(&a, &c, &p);
        // Reduces to Canberra bit-for-bit…
        prop_assert_eq!(ab.to_bits(), canberra_distance(&a, &b).to_bits());
        // …and therefore satisfies the triangle inequality.
        prop_assert!(ac <= ab + bc + FP_SLACK, "ac = {} > ab + bc = {}", ac, ab + bc);
        // Symmetry and self-identity round out the metric axioms.
        prop_assert_eq!(ab.to_bits(), dissimilarity(&b, &a, &p).to_bits());
        prop_assert_eq!(dissimilarity(&a, &a, &p), 0.0);
    }

    /// Every triangle violation of the mixed-length variant involves
    /// mixed lengths — so stratification by length admits no violating
    /// configuration to the pruned search.
    #[test]
    fn triangle_violations_imply_mixed_lengths((a, b, c) in mixed_triple()) {
        let p = DissimParams::default();
        let ab = dissimilarity(&a, &b, &p);
        let bc = dissimilarity(&b, &c, &p);
        let ac = dissimilarity(&a, &c, &p);
        if ac > ab + bc + FP_SLACK {
            let vals: Vec<&[u8]> = vec![&a, &b, &c];
            prop_assert!(
                strata_count(&vals, &p) > 1,
                "triangle violated on a uniform-length triple: ac = {}, ab + bc = {}",
                ac,
                ab + bc
            );
        }
    }

    /// The failure mechanism, extracted as a family: embed a short
    /// segment `c` in two equal-length segments `a = c‖pad_a` and
    /// `b = pad_b‖c`. Both window distances to `c` are 0, so
    /// D(a,c) + D(c,b) is bounded by the pure penalty term — with
    /// `length_penalty = 0` it is exactly 0, and the triangle
    /// inequality `D(a,b) <= D(a,c) + D(c,b)` is violated **whenever
    /// `a != b`**. For positive penalties the same violation appears as
    /// soon as D(a,b) exceeds the penalty bound.
    #[test]
    fn embedded_segment_family_breaks_the_penalized_triangle(
        c in prop::collection::vec(any::<u8>(), 2..8),
        pad_a in prop::collection::vec(any::<u8>(), 1..8),
    ) {
        let mut pad_b = pad_a.clone();
        pad_b.reverse();
        let mut a = c.clone();
        a.extend_from_slice(&pad_a);
        let mut b = pad_b;
        b.extend_from_slice(&c);
        let p = DissimParams { length_penalty: 0.0 };
        let sum = dissimilarity(&a, &c, &p) + dissimilarity(&c, &b, &p);
        prop_assert_eq!(sum, 0.0, "both embeddings must be free under zero penalty");
        let ab = dissimilarity(&a, &b, &p);
        if ab > 0.0 {
            // A genuine triangle violation: route through c is free while
            // the direct distance is not.
            let vals: Vec<&[u8]> = vec![&a, &b, &c];
            prop_assert!(strata_count(&vals, &p) > 1);
        }
    }
}

/// The pinned minimal counterexample (documented in `vptree`'s module
/// docs): `a = [255, 0]`, `b = [0, 255]` are maximally dissimilar
/// (D = 1), yet `c = [255]` slides to a zero-cost window in both, so
/// D(a,c) = D(c,b) = penalty/2 = 0.295 and the triangle fails by
/// 1 − 0.59 = 0.41. This is why a metric tree never spans two segment
/// lengths.
#[test]
fn pinned_counterexample_breaks_triangle_and_is_gated() {
    let p = DissimParams::default(); // length_penalty = 0.59
    let a: &[u8] = &[255, 0];
    let b: &[u8] = &[0, 255];
    let c: &[u8] = &[255];
    let ab = dissimilarity(a, b, &p);
    let ac = dissimilarity(a, c, &p);
    let cb = dissimilarity(c, b, &p);
    assert_eq!(ab, 1.0);
    assert_eq!(ac, 0.59 / 2.0);
    assert_eq!(cb, 0.59 / 2.0);
    assert!(ab > ac + cb, "triangle must fail: {ab} > {ac} + {cb}");

    // Stratification keeps `c` out of the tree over `a` and `b`…
    let vals: Vec<&[u8]> = vec![a, b, c];
    let index = StrataIndex::build(&vals, &p, 2);
    let lens: Vec<usize> = index.strata().iter().map(|s| s.value_len()).collect();
    assert_eq!(lens, vec![1, 2]);

    // …so the stratified provider answers exactly on the violating
    // triple.
    let provider = StratifiedProvider::new(&vals, &p, &index);
    let mut out = Vec::new();
    provider.neighbors_within(0, 0.3, &mut out);
    assert_eq!(out, vec![(0.295, 2)]);
    assert_eq!(provider.knn(0, 1), 0.295);
    assert_eq!(provider.pair(0, 1), 1.0);
}
