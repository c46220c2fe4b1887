//! Cluster refinement (paper §III-F): merging over-classified clusters
//! and splitting clusters with polarized value occurrences.
//!
//! DBSCAN over-classifies when field-value variability is not uniformly
//! distributed: one data type falls apart into several nearby clusters
//! linked by sparse regions. Two heuristics repair this: Condition 1
//! merges clusters that are *very* close with similar local ε-density at
//! their link segments, Condition 2 merges clusters that are *somewhat*
//! close with similar overall neighbor density. The inverse error —
//! under-classification, e.g. an enumeration value absorbed into a value
//! cluster — is repaired by splitting clusters whose value occurrence
//! counts are extremely polarized.

use crate::dbscan::{Clustering, Label};
use dissim::NeighborProvider;
use mathkit::stats;

/// Thresholds of the refinement heuristics. Defaults are the paper's
/// empirically chosen constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineParams {
    /// Condition 1: maximum allowed difference of the ε-densities around
    /// the two link segments (`ερThreshold`).
    pub eps_rho_threshold: f64,
    /// Condition 2: maximum allowed difference of the clusters' `minmed`
    /// neighbor densities (`neighborDensityThreshold`).
    pub neighbor_density_threshold: f64,
    /// Split: required percent rank of the occurrence frequency pivot.
    pub split_percent_rank: f64,
    /// Safety bound on merge fix-point iterations.
    pub max_merge_rounds: usize,
}

impl Default for RefineParams {
    fn default() -> Self {
        Self {
            eps_rho_threshold: 0.01,
            neighbor_density_threshold: 0.002,
            split_percent_rank: 95.0,
            max_merge_rounds: 16,
        }
    }
}

/// Merges nearby clusters of similar density until a fix point (or the
/// round bound) is reached; noise labels are preserved. Pair lookups
/// and link-density region queries are answered by any
/// [`NeighborProvider`] backend: the ε-region around a link segment
/// holds the same cluster-mates for every backend, and the density is
/// their median dissimilarity, which is order-insensitive.
///
/// Each round's per-cluster statistics and per-pair merge decisions are
/// computed on `threads` workers, each into its own slot
/// ([`parkit::map_indexed`]) and folded in a fixed order, so the result
/// is bit-identical for any thread count.
pub fn merge_clusters<P: NeighborProvider + Sync>(
    clustering: &Clustering,
    provider: &P,
    params: &RefineParams,
    threads: usize,
) -> Clustering {
    let mut labels = clustering.labels().to_vec();
    for _ in 0..params.max_merge_rounds {
        let current = Clustering::from_labels(labels.clone());
        // Work on the compacted labels so cluster ids match the dense
        // indices of `clusters` below.
        labels = current.labels().to_vec();
        let clusters = current.clusters();
        if clusters.len() < 2 {
            return current;
        }
        let stats = compute_stats(&clusters, provider, threads);

        // A round's merge decision for (i, j) depends only on this
        // round's labels, members and statistics — never on earlier
        // unions — so every candidate pair (its cross-cluster link scan
        // and Condition-1 link-density region queries) is decided into
        // its own slot, on `threads` workers, before the unions are
        // applied in pair order. Deciding every pair, including pairs an
        // earlier union already joined, keeps the query sequence — and
        // with it a counting provider's totals — the same at every
        // thread count; a union of already-joined clusters is a no-op.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                pairs.push((i as u32, j as u32));
            }
        }
        let decisions = parkit::map_indexed(
            threads,
            pairs.len(),
            1,
            || (),
            |_, p| {
                let (i, j) = (pairs[p].0 as usize, pairs[p].1 as usize);
                let pair = MergeCandidate {
                    ci: &clusters[i],
                    cj: &clusters[j],
                    si: &stats[i],
                    sj: &stats[j],
                    id_i: i as u32,
                    id_j: j as u32,
                };
                should_merge(&pair, &labels, provider, params)
            },
        );
        let mut merged_into: Vec<usize> = (0..clusters.len()).collect();
        let mut any = false;
        for (&(i, j), &merge) in pairs.iter().zip(&decisions) {
            if merge {
                union(&mut merged_into, i as usize, j as usize);
                any = true;
            }
        }
        if !any {
            return current;
        }
        for l in &mut labels {
            if let Label::Cluster(c) = l {
                *l = Label::Cluster(find(&mut merged_into, *c as usize) as u32);
            }
        }
    }
    Clustering::from_labels(labels)
}

/// Splits clusters whose value occurrence counts are extremely polarized
/// (paper §III-F): with pivot `F = ln |c'|`, a cluster is split when
/// `PR(counts, F) > split_percent_rank` and `σ(counts) > F`. Members with
/// occurrence count above `F` move to a new cluster.
///
/// `occurrences[i]` is the number of duplicate segments the unique
/// segment `i` stands for.
///
/// # Panics
///
/// Panics if `occurrences` is shorter than the clustering.
pub fn split_clusters(
    clustering: &Clustering,
    occurrences: &[usize],
    params: &RefineParams,
) -> Clustering {
    assert!(
        occurrences.len() >= clustering.len(),
        "need an occurrence count per clustered item"
    );
    let mut labels = clustering.labels().to_vec();
    let mut next_id = clustering.n_clusters();
    for members in clustering.clusters() {
        let counts: Vec<f64> = members.iter().map(|&i| occurrences[i] as f64).collect();
        let total: f64 = counts.iter().sum();
        if total < 1.0 || members.len() < 2 {
            continue;
        }
        let pivot = total.ln();
        let Some(pr) = stats::percent_rank(&counts, pivot) else {
            continue;
        };
        let Some(sigma) = stats::std_dev(&counts) else {
            continue;
        };
        if pr > params.split_percent_rank && sigma > pivot {
            for (&idx, &count) in members.iter().zip(&counts) {
                if count > pivot {
                    labels[idx] = Label::Cluster(next_id);
                }
            }
            next_id += 1;
        }
    }
    Clustering::from_labels(labels)
}

/// Computes every cluster's statistics on `threads` workers. Each
/// cluster is folded serially in member order into its own slot, so the
/// result is bit-identical to the serial map.
fn compute_stats<P: NeighborProvider + Sync>(
    clusters: &[Vec<usize>],
    provider: &P,
    threads: usize,
) -> Vec<ClusterStats> {
    parkit::map_indexed(
        threads,
        clusters.len(),
        1,
        || (),
        |_, c| ClusterStats::compute(&clusters[c], provider),
    )
}

/// Per-cluster statistics shared by both merge conditions.
#[derive(Debug)]
struct ClusterStats {
    /// Arithmetic mean of all intra-cluster pairwise dissimilarities.
    mean_dissim: Option<f64>,
    /// Maximum intra-cluster pairwise dissimilarity (cluster extent).
    max_dissim: f64,
    /// Median over members of the distance to their nearest neighbor
    /// within the cluster (`minmed`).
    minmed: Option<f64>,
}

impl ClusterStats {
    fn compute<P: NeighborProvider + ?Sized>(members: &[usize], provider: &P) -> Self {
        if members.len() < 2 {
            return Self {
                mean_dissim: None,
                max_dissim: 0.0,
                minmed: None,
            };
        }
        let mut sum = 0.0;
        let mut count = 0usize;
        let mut max = 0.0f64;
        let mut nearest = vec![f64::INFINITY; members.len()];
        for (ai, &a) in members.iter().enumerate() {
            for (bi, &b) in members.iter().enumerate().skip(ai + 1) {
                let d = provider.pair(a, b);
                sum += d;
                count += 1;
                max = max.max(d);
                nearest[ai] = nearest[ai].min(d);
                nearest[bi] = nearest[bi].min(d);
            }
        }
        Self {
            mean_dissim: Some(sum / count as f64),
            max_dissim: max,
            minmed: stats::median(&nearest),
        }
    }
}

/// One candidate cluster pair for [`should_merge`]: members, shared
/// statistics and the dense cluster ids the current labels carry.
struct MergeCandidate<'a> {
    ci: &'a [usize],
    cj: &'a [usize],
    si: &'a ClusterStats,
    sj: &'a ClusterStats,
    id_i: u32,
    id_j: u32,
}

fn should_merge<P: NeighborProvider + ?Sized>(
    pair: &MergeCandidate<'_>,
    labels: &[Label],
    provider: &P,
    params: &RefineParams,
) -> bool {
    let (ci, cj, si, sj) = (pair.ci, pair.cj, pair.si, pair.sj);
    let (Some(mean_i), Some(mean_j)) = (si.mean_dissim, sj.mean_dissim) else {
        return false;
    };
    // Link segments: the closest pair across the two clusters.
    let mut link = (ci[0], cj[0], f64::INFINITY);
    for &a in ci {
        for &b in cj {
            let d = provider.pair(a, b);
            if d < link.2 {
                link = (a, b, d);
            }
        }
    }
    let (link_i, link_j, d_link) = link;

    // Condition 1: very close by, similar local ε-density at the links.
    if d_link < mean_i.max(mean_j) {
        let smaller_extent = if ci.len() <= cj.len() {
            si.max_dissim
        } else {
            sj.max_dissim
        };
        let eps_local = smaller_extent / 2.0;
        let rho_i = local_density(link_i, pair.id_i, labels, provider, eps_local);
        let rho_j = local_density(link_j, pair.id_j, labels, provider, eps_local);
        if (rho_i - rho_j).abs() < params.eps_rho_threshold {
            return true;
        }
    }

    // Condition 2: somewhat close by, similar overall neighbor density.
    if let (Some(mm_i), Some(mm_j)) = (si.minmed, sj.minmed) {
        if mean_i > 0.0 && mean_j > 0.0 {
            let closeness_bound = (mm_i / mean_i + mm_j / mean_j) / 2.0;
            if d_link < closeness_bound && (mm_i - mm_j).abs() < params.neighbor_density_threshold {
                return true;
            }
        }
    }
    false
}

/// Median dissimilarity from the link segment to its cluster-mates within
/// `eps` (`ρ_ε`); zero when no mate lies that close. Answered by an
/// ε-region query filtered to the items carrying the cluster's label —
/// the same multiset of dissimilarities a member scan yields, whatever
/// order the backend emits it in, hence the same median.
fn local_density<P: NeighborProvider + ?Sized>(
    link: usize,
    cluster: u32,
    labels: &[Label],
    provider: &P,
    eps: f64,
) -> f64 {
    let mut region: Vec<(f64, u32)> = Vec::new();
    provider.neighbors_within(link, eps, &mut region);
    let within: Vec<f64> = region
        .iter()
        .filter(|&&(_, j)| labels[j as usize] == Label::Cluster(cluster))
        .map(|&(d, _)| d)
        .collect();
    stats::median(&within).unwrap_or(0.0)
}

/// Tiny union-find over cluster indices.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra != rb {
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        parent[hi] = lo;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{dbscan_unit as dbscan, line_matrix};
    use dissim::{CondensedMatrix, MatrixProvider};

    /// Merge refinement over a matrix on one thread.
    fn merge_matrix(c: &Clustering, m: &CondensedMatrix, params: &RefineParams) -> Clustering {
        merge_clusters(c, &MatrixProvider::new(m), params, 1)
    }

    /// Two sub-clusters of the same "type" separated by a small gap, plus
    /// one genuinely distant cluster.
    fn overclassified() -> (CondensedMatrix, Clustering) {
        let mut pts: Vec<f64> = (0..12).map(|i| i as f64 * 0.1).collect(); // 0.0..1.1
        pts.extend((0..12).map(|i| 1.35 + i as f64 * 0.1)); // 1.35..2.45 (gap 0.25)
        pts.extend((0..12).map(|i| 50.0 + i as f64 * 0.1)); // far away
        let m = line_matrix(&pts);
        let c = dbscan(&m, 0.15, 3);
        assert_eq!(c.n_clusters(), 3, "precondition: DBSCAN over-classifies");
        (m, c)
    }

    #[test]
    fn merge_joins_linked_equal_density_clusters() {
        let (m, c) = overclassified();
        let merged = merge_matrix(&c, &m, &RefineParams::default());
        // The two near sub-clusters merge; the distant one stays apart.
        assert_eq!(merged.n_clusters(), 2);
    }

    #[test]
    fn merge_keeps_distant_clusters_apart() {
        let pts: Vec<f64> = (0..10)
            .map(|i| i as f64 * 0.1)
            .chain((0..10).map(|i| 100.0 + i as f64 * 0.1))
            .collect();
        let m = line_matrix(&pts);
        let c = dbscan(&m, 0.15, 3);
        assert_eq!(c.n_clusters(), 2);
        let merged = merge_matrix(&c, &m, &RefineParams::default());
        assert_eq!(merged.n_clusters(), 2);
    }

    #[test]
    fn merge_respects_density_mismatch() {
        // A tight cluster (spacing 0.01) right next to a loose one
        // (spacing 0.5): link condition may hold but densities differ by
        // more than both thresholds.
        let mut pts: Vec<f64> = (0..10).map(|i| i as f64 * 0.01).collect();
        pts.extend((0..10).map(|i| 0.3 + i as f64 * 0.5));
        let m = line_matrix(&pts);
        let c = dbscan(&m, 0.09, 3);
        let before = c.n_clusters();
        let merged = merge_matrix(
            &c,
            &m,
            &RefineParams {
                eps_rho_threshold: 0.001,
                neighbor_density_threshold: 0.001,
                ..RefineParams::default()
            },
        );
        assert_eq!(merged.n_clusters(), before);
    }

    #[test]
    fn merge_preserves_noise() {
        let (m, c) = overclassified();
        let noise_before = c.noise();
        let merged = merge_matrix(&c, &m, &RefineParams::default());
        assert_eq!(merged.noise(), noise_before);
    }

    #[test]
    fn emission_order_does_not_change_merges() {
        let (m, c) = overclassified();
        let farthest_first = crate::testkit::FarthestFirst(MatrixProvider::new(&m));
        let strict = RefineParams {
            eps_rho_threshold: 0.0,
            neighbor_density_threshold: 0.0,
            ..RefineParams::default()
        };
        // Also when thresholds forbid any merge.
        for p in [RefineParams::default(), strict] {
            assert_eq!(
                merge_matrix(&c, &m, &p),
                merge_clusters(&c, &farthest_first, &p, 1)
            );
        }
    }

    #[test]
    fn parallel_merge_matches_serial() {
        let (m, c) = overclassified();
        let provider = MatrixProvider::new(&m);
        let p = RefineParams::default();
        let serial = merge_matrix(&c, &m, &p);
        for threads in [1, 2, 4] {
            assert_eq!(
                serial,
                merge_clusters(&c, &provider, &p, threads),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn split_separates_polarized_occurrences() {
        // One cluster of 40 members: 39 unique-ish values (count 1) and a
        // single enumeration-like value occurring 500 times.
        let labels = vec![Label::Cluster(0); 40];
        let c = Clustering::from_labels(labels);
        let mut occ = vec![1usize; 40];
        occ[7] = 500;
        let split = split_clusters(&c, &occ, &RefineParams::default());
        assert_eq!(split.n_clusters(), 2);
        assert_ne!(split.labels()[7], split.labels()[0]);
        assert_eq!(split.labels()[0], split.labels()[39]);
    }

    #[test]
    fn split_leaves_uniform_clusters_alone() {
        let labels = vec![Label::Cluster(0); 30];
        let c = Clustering::from_labels(labels);
        let occ = vec![5usize; 30];
        let split = split_clusters(&c, &occ, &RefineParams::default());
        assert_eq!(split.n_clusters(), 1);
    }

    #[test]
    fn split_ignores_noise_and_small_clusters() {
        let labels = vec![Label::Noise, Label::Cluster(0), Label::Cluster(0)];
        let c = Clustering::from_labels(labels);
        let occ = vec![1000, 1, 1000];
        let split = split_clusters(&c, &occ, &RefineParams::default());
        assert_eq!(split.labels()[0], Label::Noise);
    }

    #[test]
    #[should_panic(expected = "occurrence count")]
    fn split_panics_on_short_occurrences() {
        let c = Clustering::from_labels(vec![Label::Cluster(0); 3]);
        split_clusters(&c, &[1], &RefineParams::default());
    }

    #[test]
    fn merge_handles_empty_and_single_cluster() {
        let m = line_matrix(&[0.0, 0.1, 0.2]);
        let single = dbscan(&m, 0.5, 2);
        assert_eq!(single.n_clusters(), 1);
        let merged = merge_matrix(&single, &m, &RefineParams::default());
        assert_eq!(merged.n_clusters(), 1);

        let empty = Clustering::from_labels(vec![]);
        let m0 = CondensedMatrix::build(0, |_, _| 0.0);
        assert!(merge_matrix(&empty, &m0, &RefineParams::default()).is_empty());
    }
}
