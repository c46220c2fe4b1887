//! HDBSCAN* (Campello, Moulavi & Sander, 2013) over any neighbor
//! provider.
//!
//! The paper's §III-F observes that the over-classification it repairs
//! with merge refinement "is not only a limitation of DBSCAN and we
//! noticed that similar alternatives, e.g., HDBSCAN and OPTICS, suffer
//! from the same effect". Together with [`crate::optics()`], this
//! implementation lets the ablation harness verify that observation.
//!
//! Structure: (1) mutual reachability distances, (2) a single-linkage
//! dendrogram via an MST (Prim) + union-find, (3) top-down condensation
//! by `min_cluster_size`, (4) cluster stabilities, (5) Excess-of-Mass
//! extraction.

use crate::dbscan::{Clustering, Label};
use dissim::NeighborProvider;

/// HDBSCAN* parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HdbscanParams {
    /// Neighborhood size for the core distance (counting the point
    /// itself, like DBSCAN's `min_samples`).
    pub min_samples: usize,
    /// Minimum size for a split to count as a real cluster in the
    /// condensed tree.
    pub min_cluster_size: usize,
}

impl Default for HdbscanParams {
    fn default() -> Self {
        Self {
            min_samples: 5,
            min_cluster_size: 5,
        }
    }
}

/// A node of the single-linkage dendrogram: leaves are items `0..n`,
/// internal nodes `n..2n-1` store their merge distance.
#[derive(Debug, Clone, Copy)]
struct DendroNode {
    left: usize,
    right: usize,
    distance: f64,
    size: usize,
}

fn lambda_of(distance: f64) -> f64 {
    1.0 / distance.max(1e-12)
}

/// Runs HDBSCAN* and returns a flat clustering (EOM extraction), core
/// distances and pair lookups answered by any [`NeighborProvider`]
/// backend.
///
/// The core distance is the `(min_samples − 1)`-th nearest-neighbor
/// order statistic, read off one
/// [`NeighborProvider::knn_table`] built on `threads` workers; the
/// table does not depend on `threads`, so neither does the clustering.
pub fn hdbscan<P: NeighborProvider + Sync>(
    provider: &P,
    params: &HdbscanParams,
    threads: usize,
) -> Clustering {
    let n = provider.len();
    let min_samples = params.min_samples.max(1).min(n.max(1));
    let core = if n > 0 && min_samples > 1 {
        provider
            .knn_table(min_samples - 1, threads)
            .knn_dissimilarities(min_samples - 1)
    } else {
        vec![0.0f64; n]
    };
    hdbscan_from_core(provider, params, &core)
}

/// The serial reference HDBSCAN* the tests pin [`hdbscan`] against:
/// one scalar [`NeighborProvider::knn`] query per core distance.
#[cfg(test)]
fn hdbscan_serial<P: NeighborProvider + ?Sized>(
    provider: &P,
    params: &HdbscanParams,
) -> Clustering {
    let n = provider.len();
    let min_samples = params.min_samples.max(1).min(n.max(1));
    let core: Vec<f64> = (0..n)
        .map(|i| {
            if min_samples == 1 {
                0.0
            } else {
                provider.knn(i, min_samples - 1)
            }
        })
        .collect();
    hdbscan_from_core(provider, params, &core)
}

/// The dendrogram/condensation/extraction pipeline of [`hdbscan`],
/// starting from precomputed core distances; pairwise
/// dissimilarities for the mutual-reachability MST come from the
/// provider's [`NeighborProvider::pair`].
fn hdbscan_from_core<P: NeighborProvider + ?Sized>(
    provider: &P,
    params: &HdbscanParams,
    core: &[f64],
) -> Clustering {
    let n = provider.len();
    if n == 0 {
        return Clustering::from_labels(Vec::new());
    }
    if n < params.min_cluster_size.max(2) {
        return Clustering::from_labels(vec![Label::Noise; n]);
    }
    let min_cluster_size = params.min_cluster_size.max(2);

    let mutual = |i: usize, j: usize| provider.pair(i, j).max(core[i]).max(core[j]);

    // 2a. MST over mutual reachability (Prim, O(n²)).
    let mut in_tree = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    let mut best_from = vec![0usize; n];
    let mut edges: Vec<(f64, usize, usize)> = Vec::with_capacity(n - 1);
    in_tree[0] = true;
    for j in 1..n {
        best[j] = mutual(0, j);
        best_from[j] = 0;
    }
    for _ in 1..n {
        let mut pick = usize::MAX;
        let mut pick_d = f64::INFINITY;
        for j in 0..n {
            if !in_tree[j] && best[j] < pick_d {
                pick = j;
                pick_d = best[j];
            }
        }
        in_tree[pick] = true;
        edges.push((pick_d, best_from[pick], pick));
        for j in 0..n {
            if !in_tree[j] {
                let d = mutual(pick, j);
                if d < best[j] {
                    best[j] = d;
                    best_from[j] = pick;
                }
            }
        }
    }
    edges.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("distances are not NaN"));

    // 2b. Dendrogram from sorted edges via union-find.
    let mut dendro: Vec<DendroNode> = Vec::with_capacity(n - 1);
    let mut parent: Vec<usize> = (0..2 * n - 1).collect();
    // Representative dendrogram node per union-find root.
    let mut rep: Vec<usize> = (0..2 * n - 1).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(d, a, b) in &edges {
        let ra = find(&mut parent, a);
        let rb = find(&mut parent, b);
        debug_assert_ne!(ra, rb, "MST edges never form cycles");
        let left = rep[ra];
        let right = rep[rb];
        let size_left = if left < n { 1 } else { dendro[left - n].size };
        let size_right = if right < n { 1 } else { dendro[right - n].size };
        dendro.push(DendroNode {
            left,
            right,
            distance: d,
            size: size_left + size_right,
        });
        let new_id = n + dendro.len() - 1;
        parent[rb] = ra;
        rep[ra] = new_id;
    }

    // 3. Condense top-down.
    #[derive(Debug)]
    struct Condensed {
        birth_lambda: f64,
        stability: f64,
        children: Vec<usize>,
        members: Vec<usize>,
    }
    let mut condensed: Vec<Condensed> = Vec::new();
    let dendro_root = n + dendro.len() - 1;
    condensed.push(Condensed {
        birth_lambda: 0.0,
        stability: 0.0,
        children: Vec::new(),
        members: Vec::new(),
    });

    // Iterative DFS: (dendrogram node, condensed cluster it belongs to).
    let mut stack: Vec<(usize, usize)> = vec![(dendro_root, 0)];
    while let Some((node, cluster)) = stack.pop() {
        if node < n {
            // A leaf reached without falling out: it leaves its cluster
            // only at infinite lambda; cap at the lambda of its last
            // merge handled by the parent loop — here simply record
            // membership (its departure lambda was already credited when
            // the enclosing split/fall-out was processed).
            condensed[cluster].members.push(node);
            continue;
        }
        let dn = dendro[node - n];
        let lambda = lambda_of(dn.distance);
        let size = |child: usize| if child < n { 1 } else { dendro[child - n].size };
        let (sl, sr) = (size(dn.left), size(dn.right));
        match (sl >= min_cluster_size, sr >= min_cluster_size) {
            (true, true) => {
                // True split: the current cluster dies here; both sides
                // are born as new condensed clusters at this lambda.
                // Credit the parent: every member below persisted from
                // birth to this split.
                let birth = condensed[cluster].birth_lambda;
                condensed[cluster].stability += (sl + sr) as f64 * (lambda - birth).max(0.0);
                for &(child, child_size) in &[(dn.left, sl), (dn.right, sr)] {
                    let _ = child_size;
                    condensed.push(Condensed {
                        birth_lambda: lambda,
                        stability: 0.0,
                        children: Vec::new(),
                        members: Vec::new(),
                    });
                    let new_id = condensed.len() - 1;
                    condensed[cluster].children.push(new_id);
                    stack.push((child, new_id));
                }
            }
            (true, false) | (false, true) => {
                // The small side falls out of the cluster at this lambda.
                let (big, small, small_size) = if sl >= min_cluster_size {
                    (dn.left, dn.right, sr)
                } else {
                    (dn.right, dn.left, sl)
                };
                let birth = condensed[cluster].birth_lambda;
                condensed[cluster].stability += small_size as f64 * (lambda - birth).max(0.0);
                // Fall-out points are noise candidates unless a selected
                // ancestor claims them; collect them as members of the
                // cluster (they belonged to it until this lambda).
                collect_leaves(&dendro, small, n, &mut condensed[cluster].members);
                stack.push((big, cluster));
            }
            (false, false) => {
                // The cluster dissolves below min size: all remaining
                // members leave at this lambda.
                let birth = condensed[cluster].birth_lambda;
                condensed[cluster].stability += (sl + sr) as f64 * (lambda - birth).max(0.0);
                collect_leaves(&dendro, node, n, &mut condensed[cluster].members);
            }
        }
    }

    // 4.+5. EOM selection, bottom-up (children have larger indices, so
    // iterate in reverse).
    let m = condensed.len();
    let mut selected = vec![false; m];
    let mut subtree_stability = vec![0.0f64; m];
    for id in (0..m).rev() {
        let child_sum: f64 = condensed[id]
            .children
            .iter()
            .map(|&c| subtree_stability[c])
            .sum();
        if condensed[id].children.is_empty() || condensed[id].stability >= child_sum {
            selected[id] = true;
            subtree_stability[id] = condensed[id].stability.max(child_sum);
            let mut stack: Vec<usize> = condensed[id].children.clone();
            while let Some(c) = stack.pop() {
                selected[c] = false;
                stack.extend(condensed[c].children.iter().copied());
            }
        } else {
            subtree_stability[id] = child_sum;
        }
    }
    // The root cluster is "all data": only meaningful if it never split.
    if !condensed[0].children.is_empty() {
        selected[0] = false;
    }

    let mut labels = vec![Label::Noise; n];
    let mut next = 0u32;
    for (id, &sel) in selected.iter().enumerate() {
        if sel {
            // A selected cluster owns all members recorded in its subtree.
            let mut stack = vec![id];
            let mut any = false;
            while let Some(cur) = stack.pop() {
                for &p in &condensed[cur].members {
                    labels[p] = Label::Cluster(next);
                    any = true;
                }
                stack.extend(condensed[cur].children.iter().copied());
            }
            if any {
                next += 1;
            }
        }
    }
    Clustering::from_labels(labels)
}

/// Appends all leaf items under `node` to `out`.
fn collect_leaves(dendro: &[DendroNode], node: usize, n: usize, out: &mut Vec<usize>) {
    let mut stack = vec![node];
    while let Some(cur) = stack.pop() {
        if cur < n {
            out.push(cur);
        } else {
            let dn = dendro[cur - n];
            stack.push(dn.left);
            stack.push(dn.right);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::line_matrix;
    use dissim::{CondensedMatrix, MatrixProvider};

    /// HDBSCAN* over a matrix on one thread.
    fn hdbscan_matrix(m: &CondensedMatrix, params: &HdbscanParams) -> Clustering {
        hdbscan(&MatrixProvider::new(m), params, 1)
    }

    fn blob(center: f64, n: usize, spread: f64) -> Vec<f64> {
        (0..n)
            .map(|i| center + spread * i as f64 / n as f64)
            .collect()
    }

    #[test]
    fn separates_two_blobs() {
        let mut pts = blob(0.0, 10, 0.5);
        pts.extend(blob(100.0, 10, 0.5));
        let c = hdbscan_matrix(&line_matrix(&pts), &HdbscanParams::default());
        assert_eq!(c.n_clusters(), 2, "labels: {:?}", c.labels());
        for i in 0..10 {
            assert_eq!(c.labels()[i], c.labels()[0]);
            assert_eq!(c.labels()[10 + i], c.labels()[10]);
        }
        assert_ne!(c.labels()[0], c.labels()[10]);
    }

    #[test]
    fn three_blobs() {
        let mut pts = blob(0.0, 8, 0.4);
        pts.extend(blob(50.0, 8, 0.4));
        pts.extend(blob(200.0, 8, 0.4));
        let c = hdbscan_matrix(
            &line_matrix(&pts),
            &HdbscanParams {
                min_samples: 3,
                min_cluster_size: 4,
            },
        );
        assert_eq!(c.n_clusters(), 3, "labels: {:?}", c.labels());
    }

    #[test]
    fn isolated_points_are_noise() {
        let mut pts = blob(0.0, 12, 0.5);
        pts.extend(blob(40.0, 12, 0.5));
        pts.push(1000.0);
        let c = hdbscan_matrix(
            &line_matrix(&pts),
            &HdbscanParams {
                min_samples: 3,
                min_cluster_size: 4,
            },
        );
        assert_eq!(
            *c.labels().last().unwrap(),
            Label::Noise,
            "labels: {:?}",
            c.labels()
        );
        assert_eq!(c.n_clusters(), 2);
    }

    #[test]
    fn varying_density_blobs_both_found() {
        // HDBSCAN's selling point over plain DBSCAN: one tight and one
        // loose cluster.
        let mut pts = blob(0.0, 12, 0.1); // tight
        pts.extend(blob(100.0, 12, 5.0)); // loose
        let c = hdbscan_matrix(
            &line_matrix(&pts),
            &HdbscanParams {
                min_samples: 3,
                min_cluster_size: 5,
            },
        );
        assert_eq!(c.n_clusters(), 2, "labels: {:?}", c.labels());
    }

    #[test]
    fn degenerate_inputs() {
        assert!(hdbscan_matrix(&line_matrix(&[]), &HdbscanParams::default()).is_empty());
        let one = hdbscan_matrix(&line_matrix(&[1.0]), &HdbscanParams::default());
        assert_eq!(one.labels(), &[Label::Noise]);
        // All identical points: one cluster.
        let same = vec![5.0; 10];
        let c = hdbscan_matrix(
            &line_matrix(&same),
            &HdbscanParams {
                min_samples: 3,
                min_cluster_size: 4,
            },
        );
        assert_eq!(c.n_clusters(), 1);
        assert!(c.noise().is_empty());
    }

    #[test]
    fn parallel_hdbscan_matches_matrix_scan() {
        let mut pts = blob(0.0, 10, 0.5);
        pts.extend(blob(40.0, 10, 3.0));
        pts.push(500.0);
        let m = line_matrix(&pts);
        let provider = MatrixProvider::new(&m);
        for p in [
            HdbscanParams::default(),
            HdbscanParams {
                min_samples: 3,
                min_cluster_size: 4,
            },
            HdbscanParams {
                min_samples: 1,
                min_cluster_size: 3,
            },
        ] {
            for threads in [1, 2, 4] {
                assert_eq!(
                    hdbscan_serial(&provider, &p),
                    hdbscan(&provider, &p, threads),
                    "threads={threads} {p:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let mut pts = blob(0.0, 9, 0.7);
        pts.extend(blob(30.0, 9, 0.7));
        let m = line_matrix(&pts);
        let p = HdbscanParams::default();
        assert_eq!(hdbscan_matrix(&m, &p), hdbscan_matrix(&m, &p));
    }

    #[test]
    fn every_item_labelled_exactly_once() {
        let mut pts = blob(0.0, 7, 0.3);
        pts.extend(blob(20.0, 7, 0.3));
        pts.extend(blob(60.0, 7, 0.3));
        let c = hdbscan_matrix(
            &line_matrix(&pts),
            &HdbscanParams {
                min_samples: 2,
                min_cluster_size: 3,
            },
        );
        assert_eq!(c.len(), pts.len());
        let in_clusters: usize = c.clusters().iter().map(Vec::len).sum();
        assert_eq!(in_clusters + c.noise().len(), pts.len());
    }
}
