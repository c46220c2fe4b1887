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
use crate::exact::ExactSum;
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
/// **Incremental rounds.** Each member pair is evaluated exactly once
/// per call: `N(N−1)/2` pairs for `N` members of clusters of two or
/// more, whatever the number of rounds. Round 1 first folds every
/// cluster's own pairs into its statistics, then scans every pair of
/// clusters (rows through [`NeighborProvider::pairs_from`]) and keeps
/// both orientations of its link: the lexicographically first
/// `(d, a, b)` minimum with `a` in the first cluster, and the one with
/// `a` in the second. A round decides the lower-id cluster's
/// orientation, and ids follow the smallest member, which a merge can
/// move past another cluster's. Later rounds evaluate no pair:
///
/// - a merged cluster's link to another cluster is the minimum of its
///   parts' links in the same orientation (a minimum over a union is
///   the minimum of the minima), so it equals the nested scan's;
/// - a merged cluster's statistics fold from its parts': the exact sum
///   and maximum of its pairs are its parts' own plus the scan's cross
///   sums and maxima between them, and a member's nearest mate is its
///   own part's, lowered by any other part whose nearest member the
///   scan found closer. The mean is the correctly rounded exact sum
///   over the pair count, so it does not depend on the order pairs were
///   summed in; the extent and `minmed` are a maximum and a median of
///   minima, order-free already;
/// - only pairs with a merged side are decided. A pair of unchanged
///   clusters was decided "no merge" last round on the same inputs.
///
/// Clusters of one member have no intra-cluster mean and never merge,
/// so they take no part. The result equals re-deciding every pair each
/// round on freshly compacted labels and freshly computed statistics
/// (pinned against that per-round oracle in the tests below).
///
/// Round 1's statistics and link scan and every round's merge
/// decisions run on `threads` workers, each into its own slot
/// ([`parkit::map_indexed`]) and folded in a fixed order, so the result
/// — and the queries issued, hence a counting provider's totals — is
/// the same for any thread count. For `K` clusters of two or more
/// members the link table takes `K² × 16` bytes of links and
/// `K(K−1)/2` cross sums of 32 bytes; the per-member nearest-mate
/// record takes 12 bytes per item plus 16 bytes per entry of a member
/// whose nearest member in another cluster is closer than its own
/// nearest mate.
pub fn merge_clusters<P: NeighborProvider + Sync>(
    clustering: &Clustering,
    provider: &P,
    params: &RefineParams,
    threads: usize,
) -> Clustering {
    let start = Clustering::from_labels(clustering.labels().to_vec());
    let members: Vec<Vec<usize>> = start
        .clusters()
        .into_iter()
        .filter(|c| c.len() >= 2)
        .collect();
    if params.max_merge_rounds == 0 || members.len() < 2 {
        return start;
    }
    // Each cluster keeps the link-table slot of its lowest-id part;
    // slots, like ids, ascend with the smallest member.
    let mut owner = vec![NO_SLOT; start.len()];
    for (slot, c) in members.iter().enumerate() {
        for &m in c {
            owner[m] = slot as u32;
        }
    }
    let mut links = LinkTable::scan(&members, provider, threads);
    let mut live: Vec<Live> = members
        .into_iter()
        .enumerate()
        .map(|(slot, members)| Live {
            stats: links.stats(slot, &members, &owner),
            slot,
            members,
            fresh: true,
        })
        .collect();

    for _ in 0..params.max_merge_rounds {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for i in 0..live.len() {
            for j in (i + 1)..live.len() {
                if live[i].fresh || live[j].fresh {
                    pairs.push((i as u32, j as u32));
                }
            }
        }
        // A decision depends only on the two clusters, never on this
        // round's earlier unions, so every candidate is decided into
        // its own slot before the unions are applied.
        let decisions = parkit::map_indexed(
            threads,
            pairs.len(),
            1,
            || (),
            |_, p| {
                let (ci, cj) = (&live[pairs[p].0 as usize], &live[pairs[p].1 as usize]);
                let pair = MergeCandidate {
                    si: &ci.stats,
                    sj: &cj.stats,
                    len_i: ci.members.len(),
                    len_j: cj.members.len(),
                    id_i: ci.slot as u32,
                    id_j: cj.slot as u32,
                    link: links.get(ci.slot, cj.slot),
                };
                should_merge(&pair, &owner, provider, params)
            },
        );
        let mut merged_into: Vec<usize> = (0..live.len()).collect();
        let mut any = false;
        for (&(i, j), &merge) in pairs.iter().zip(&decisions) {
            if merge {
                union(&mut merged_into, i as usize, j as usize);
                any = true;
            }
        }
        if !any {
            break;
        }
        live = regroup(live, &mut merged_into, &mut links, &mut owner);
    }

    // Merged clusters carry their slot, everything else its input label
    // (offset past the slots); compaction renumbers by first member.
    let offset = start.n_clusters();
    let labels = start
        .labels()
        .iter()
        .zip(&owner)
        .map(|(&l, &slot)| match l {
            Label::Cluster(_) if slot != NO_SLOT => Label::Cluster(slot),
            Label::Cluster(c) => Label::Cluster(offset + c),
            Label::Noise => Label::Noise,
        })
        .collect();
    Clustering::from_labels(labels)
}

/// The per-round merge refinement [`merge_clusters`] replaces, kept as
/// its test oracle: every round re-compacts the labels, recomputes
/// every cluster's statistics and re-scans every cross-cluster member
/// pair with [`NeighborProvider::pair`].
#[cfg(test)]
fn merge_clusters_rounds<P: NeighborProvider + Sync>(
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
        let owner: Vec<u32> = labels
            .iter()
            .map(|l| match l {
                Label::Cluster(c) => *c,
                Label::Noise => NO_SLOT,
            })
            .collect();
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
                let (ci, cj) = (&clusters[i], &clusters[j]);
                // Link segments: the closest pair across the clusters.
                let mut link = Link::unset(ci[0], cj[0]);
                for &a in ci {
                    for &b in cj {
                        let d = provider.pair(a, b);
                        if d < link.d {
                            link = Link::new(d, a, b);
                        }
                    }
                }
                let pair = MergeCandidate {
                    si: &stats[i],
                    sj: &stats[j],
                    len_i: ci.len(),
                    len_j: cj.len(),
                    id_i: i as u32,
                    id_j: j as u32,
                    link,
                };
                should_merge(&pair, &owner, provider, params)
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

/// Marks an item outside every cluster that takes part in merging.
const NO_SLOT: u32 = u32::MAX;

/// One cluster taking part in merging: its members (ascending), its
/// link-table slot and statistics, and whether it is new this round
/// (`fresh`: every cluster in round 1, then the ones a merge made),
/// which means its pairs with every other cluster are still to be
/// decided.
struct Live {
    slot: usize,
    members: Vec<usize>,
    stats: ClusterStats,
    fresh: bool,
}

/// Applies a round's unions: each component becomes one cluster, in
/// ascending order of its root (the lowest index, hence the smallest
/// member). A component of one keeps its statistics and is no longer
/// fresh; a larger one takes its root's slot, the union of the members,
/// its parts' links and the statistics folded from its parts'.
fn regroup(
    live: Vec<Live>,
    merged_into: &mut [usize],
    links: &mut LinkTable,
    owner: &mut [u32],
) -> Vec<Live> {
    let mut groups: Vec<Vec<Live>> = (0..live.len()).map(|_| Vec::new()).collect();
    for (i, c) in live.into_iter().enumerate() {
        groups[find(merged_into, i)].push(c);
    }
    let mut next = Vec::new();
    for mut group in groups.into_iter().filter(|g| !g.is_empty()) {
        if group.len() == 1 {
            let mut c = group.pop().expect("one part");
            c.fresh = false;
            next.push(c);
            continue;
        }
        let slot = group[0].slot;
        let parts: Vec<usize> = group.iter().map(|c| c.slot).collect();
        links.fold(slot, &parts);
        let mut members: Vec<usize> = group.into_iter().flat_map(|c| c.members).collect();
        members.sort_unstable();
        for &m in &members {
            owner[m] = slot as u32;
        }
        next.push(Live {
            stats: links.stats(slot, &members, owner),
            slot,
            members,
            fresh: true,
        });
    }
    next
}

/// A link candidate: dissimilarity `d` between member `a` of one
/// cluster and member `b` of the other. 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Link {
    d: f64,
    a: u32,
    b: u32,
}

impl Link {
    fn new(d: f64, a: usize, b: usize) -> Self {
        Self {
            d,
            a: a as u32,
            b: b as u32,
        }
    }

    /// What a scan reports when no pair beats infinity: the clusters'
    /// first members.
    fn unset(a: usize, b: usize) -> Self {
        Self::new(f64::INFINITY, a, b)
    }

    /// Whether `self` precedes `other` in `(d, a, b)` order.
    fn precedes(&self, other: &Link) -> bool {
        self.d < other.d || (self.d == other.d && (self.a, self.b) < (other.a, other.b))
    }
}

/// The exact sum and the maximum of a set of member pairs'
/// dissimilarities: a cluster's own pairs, or the pairs between two
/// clusters. Both fold over a union of disjoint sets. The maximum is
/// kept as magnitude bits, which order like the non-negative doubles
/// they encode and compare without a floating-point dependency chain.
#[derive(Debug, Clone, Default)]
struct Dissims {
    sum: ExactSum,
    max_bits: u64,
}

// The link table's cross sums take 32 bytes each, as documented on
// `merge_clusters`.
const _: () = assert!(std::mem::size_of::<Dissims>() == 32);

impl Dissims {
    /// Folds a row of pair dissimilarities: one exact slice add, and
    /// the row's maximum in a fold of its own.
    fn add_row(&mut self, row: &[f64]) {
        self.sum.add_all(row);
        self.max_bits = row
            .iter()
            .fold(self.max_bits, |m, d| m.max(d.to_bits() & (u64::MAX >> 1)));
    }

    fn absorb(&mut self, other: &Dissims) {
        self.sum.merge(&other.sum);
        self.max_bits = self.max_bits.max(other.max_bits);
    }

    fn max(&self) -> f64 {
        f64::from_bits(self.max_bits)
    }

    /// Folds every pair of `members`, one [`NeighborProvider::pairs_from`]
    /// row per member over the earlier members, read into `row`, and
    /// lowers each member's entry of `nearest` (indexed like `members`)
    /// to its nearest mate. A condensed matrix stores each item's row
    /// over the earlier items contiguously, so the rows are read where
    /// they lie; the exact sum, the maximum and the minima do not depend
    /// on the order the pairs arrive in.
    fn within<P: NeighborProvider + ?Sized>(
        members: &[usize],
        provider: &P,
        row: &mut Vec<f64>,
        nearest: &mut [f64],
    ) -> Self {
        let mut pairs = Self::default();
        for bi in 0..members.len() {
            provider.pairs_from(members[bi], &members[..bi], row);
            pairs.add_row(row);
            let (earlier, rest) = nearest.split_at_mut(bi);
            let mine = &mut rest[0];
            for (near, &d) in earlier.iter_mut().zip(row.iter()) {
                if d < *mine {
                    *mine = d;
                }
                if d < *near {
                    *near = d;
                }
            }
        }
        pairs
    }
}

/// What a pair-of-clusters scan found for one member `m`: member `b`
/// of another cluster at distance `d`, the nearest of that cluster to
/// `m`, kept only when it is closer than `m`'s own nearest mate.
#[derive(Debug, Clone, Copy)]
struct Closer {
    m: u32,
    b: u32,
    d: f64,
}

/// The round-1 record a merged cluster's links and statistics fold
/// from. `get(p, q)` is the first `(d, a ∈ p, b ∈ q)` minimum, the link
/// a nested scan of `p`'s members over `q`'s finds; row-major `K × K`,
/// the diagonal unused. Beside the links it keeps each slot's own pairs
/// (`within`), the pairs between each two slots (`across`, a condensed
/// triangle), every item's nearest mate in its current cluster
/// (`nearest`) and, per item, the [`Closer`] entries (`closer`, rows
/// `closer_start[i]..closer_start[i + 1]`).
struct LinkTable {
    k: usize,
    cells: Vec<Link>,
    within: Vec<Dissims>,
    across: Vec<Dissims>,
    nearest: Vec<f64>,
    closer_start: Vec<u32>,
    closer: Vec<(f64, u32)>,
}

/// Index of the unordered slot pair `{p, q}`, `p != q`, in a condensed
/// triangle.
fn tri(p: usize, q: usize) -> usize {
    let (lo, hi) = if p < q { (p, q) } else { (q, p) };
    hi * (hi - 1) / 2 + lo
}

impl LinkTable {
    /// Evaluates every member pair of `clusters` once, on `threads`
    /// workers. First each cluster's own pairs (its statistics and its
    /// members' nearest mates), then every cross-cluster pair, one
    /// [`NeighborProvider::pairs_from`] row per member of the
    /// lower-id cluster: the link in both orientations, the pairs' sum
    /// and maximum, and the [`Closer`] entries of both clusters'
    /// members.
    fn scan<P: NeighborProvider + Sync>(
        clusters: &[Vec<usize>],
        provider: &P,
        threads: usize,
    ) -> Self {
        let k = clusters.len();
        let own = parkit::map_indexed(threads, k, 1, Vec::new, |row, c| {
            let mut mates = vec![f64::INFINITY; clusters[c].len()];
            let pairs = Dissims::within(&clusters[c], provider, row, &mut mates);
            (pairs, mates)
        });
        let mut nearest = vec![f64::INFINITY; provider.len()];
        let mut within = Vec::with_capacity(k);
        for (c, (pairs, mates)) in clusters.iter().zip(own) {
            for (&m, d) in c.iter().zip(mates) {
                nearest[m] = d;
            }
            within.push(pairs);
        }

        // Pairs in condensed-triangle order.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for q in 1..k {
            for p in 0..q {
                pairs.push((p as u32, q as u32));
            }
        }
        let found = parkit::map_indexed(
            threads,
            pairs.len(),
            1,
            || (Vec::new(), Vec::new()),
            |(row, column), i| {
                let (cp, cq) = (
                    &clusters[pairs[i].0 as usize],
                    &clusters[pairs[i].1 as usize],
                );
                let mut pq = Link::unset(cp[0], cq[0]);
                let mut qp = Link::unset(cq[0], cp[0]);
                let mut across = Dissims::default();
                let mut closer = Vec::new();
                // Each member's nearest member of the other cluster, if
                // closer than its nearest mate: it starts at the mate's
                // distance, so it moves only for a pair that makes an
                // entry.
                column.clear();
                column.extend(cq.iter().map(|&b| Link::new(nearest[b], b, b)));
                for &a in cp {
                    provider.pairs_from(a, cq, row);
                    across.add_row(row);
                    let mut near = Link::new(nearest[a], a, a);
                    for ((&b, &d), col) in cq.iter().zip(row.iter()).zip(column.iter_mut()) {
                        // Members ascend, so a strict `<` keeps the first
                        // minimum in (a, b) order; the reverse orientation
                        // needs the full (d, b, a) comparison.
                        if d < pq.d {
                            pq = Link::new(d, a, b);
                        }
                        let rev = Link::new(d, b, a);
                        if rev.precedes(&qp) {
                            qp = rev;
                        }
                        if d < near.d {
                            near = Link::new(d, a, b);
                        }
                        if d < col.d {
                            *col = rev;
                        }
                    }
                    closer.extend(near_if_closer(&near, &nearest));
                }
                closer.extend(
                    column
                        .iter()
                        .filter_map(|col| near_if_closer(col, &nearest)),
                );
                (pq, qp, across, closer)
            },
        );
        let mut cells = vec![Link::unset(0, 0); k * k];
        let mut across = Vec::with_capacity(pairs.len());
        let mut closer = Vec::new();
        for (&(p, q), (pq, qp, pair_sums, pair_closer)) in pairs.iter().zip(found) {
            let (p, q) = (p as usize, q as usize);
            cells[p * k + q] = pq;
            cells[q * k + p] = qp;
            debug_assert_eq!(across.len(), tri(p, q));
            across.push(pair_sums);
            closer.extend(pair_closer);
        }
        // Bucket the entries by member.
        let mut closer_start = vec![0u32; provider.len() + 1];
        for c in &closer {
            closer_start[c.m as usize + 1] += 1;
        }
        for i in 0..provider.len() {
            closer_start[i + 1] += closer_start[i];
        }
        let mut fill = closer_start.clone();
        let mut entries = vec![(0.0, 0u32); closer.len()];
        for c in closer {
            entries[fill[c.m as usize] as usize] = (c.d, c.b);
            fill[c.m as usize] += 1;
        }
        Self {
            k,
            cells,
            within,
            across,
            nearest,
            closer_start,
            closer: entries,
        }
    }

    fn get(&self, p: usize, q: usize) -> Link {
        self.cells[p * self.k + q]
    }

    /// Makes slot `into` the union of `parts` (which include it).
    ///
    /// - For every other slot `y`, `(into, y)` becomes the first of the
    ///   parts' `(part, y)` links and `(y, into)` the first of their
    ///   `(y, part)` links. Exact, since a minimum over a union is the
    ///   minimum of the parts' minima.
    /// - The pairs between `into` and `y` become the parts' pairs with
    ///   `y`, summed exactly.
    /// - `into`'s own pairs become its parts' own pairs plus the pairs
    ///   between each two parts.
    ///
    /// Folding one merged cluster after another also covers two of
    /// them: the second fold reads the first's already-folded row and
    /// column.
    fn fold(&mut self, into: usize, parts: &[usize]) {
        let mut is_part = vec![false; self.k];
        for &p in parts {
            is_part[p] = true;
        }
        let mut own = self.within[into].clone();
        for (i, &p) in parts.iter().enumerate() {
            if p != into {
                own.absorb(&self.within[p]);
            }
            for &q in &parts[i + 1..] {
                own.absorb(&self.across[tri(p, q)]);
            }
        }
        self.within[into] = own;
        for y in (0..self.k).filter(|&y| !is_part[y]) {
            let mut out = self.get(into, y);
            let mut back = self.get(y, into);
            let mut between = self.across[tri(into, y)].clone();
            for &p in parts.iter().filter(|&&p| p != into) {
                let (o, b) = (self.get(p, y), self.get(y, p));
                if o.precedes(&out) {
                    out = o;
                }
                if b.precedes(&back) {
                    back = b;
                }
                between.absorb(&self.across[tri(p, y)]);
            }
            self.cells[into * self.k + y] = out;
            self.cells[y * self.k + into] = back;
            self.across[tri(into, y)] = between;
        }
    }

    /// The statistics of the cluster in `slot`, whose `members` `owner`
    /// marks with it: its own pairs' folded sum and maximum, and the
    /// median of its members' nearest mates. A member's nearest mate
    /// is first lowered to any [`Closer`] entry now inside the cluster.
    fn stats(&mut self, slot: usize, members: &[usize], owner: &[u32]) -> ClusterStats {
        let nearest: Vec<f64> = members
            .iter()
            .map(|&m| {
                let entries = self.closer_start[m] as usize..self.closer_start[m + 1] as usize;
                let lowered = self.closer[entries]
                    .iter()
                    .filter(|&&(_, b)| owner[b as usize] == slot as u32)
                    .fold(self.nearest[m], |near, &(d, _)| near.min(d));
                self.nearest[m] = lowered;
                lowered
            })
            .collect();
        ClusterStats::new(&self.within[slot], &nearest)
    }
}

/// The [`Closer`] entry for the nearest pair `near` from member
/// `near.a` to member `near.b` of another cluster, if it is closer than
/// `near.a`'s nearest mate.
fn near_if_closer(near: &Link, nearest: &[f64]) -> Option<Closer> {
    (near.d < nearest[near.a as usize]).then_some(Closer {
        m: near.a,
        b: near.b,
        d: near.d,
    })
}

/// Computes every cluster's statistics from scratch on `threads`
/// workers, each cluster into its own slot.
#[cfg(test)]
fn compute_stats<P: NeighborProvider + Sync, C: AsRef<[usize]> + Sync>(
    clusters: &[C],
    provider: &P,
    threads: usize,
) -> Vec<ClusterStats> {
    parkit::map_indexed(threads, clusters.len(), 1, Vec::new, |row, c| {
        let members = clusters[c].as_ref();
        let mut nearest = vec![f64::INFINITY; members.len()];
        let pairs = Dissims::within(members, provider, row, &mut nearest);
        ClusterStats::new(&pairs, &nearest)
    })
}

/// Per-cluster statistics shared by both merge conditions.
#[derive(Debug, Default)]
struct ClusterStats {
    /// Arithmetic mean of all intra-cluster pairwise dissimilarities:
    /// their exact sum, correctly rounded, over their count.
    mean_dissim: Option<f64>,
    /// Maximum intra-cluster pairwise dissimilarity (cluster extent).
    max_dissim: f64,
    /// Median over members of the distance to their nearest neighbor
    /// within the cluster (`minmed`).
    minmed: Option<f64>,
}

impl ClusterStats {
    /// The statistics of a cluster whose own pairs are `pairs` and
    /// whose members' nearest mates are `nearest`.
    fn new(pairs: &Dissims, nearest: &[f64]) -> Self {
        let n = nearest.len() as u64;
        if n < 2 {
            return Self::default();
        }
        Self {
            mean_dissim: Some(pairs.sum.value() / (n * (n - 1) / 2) as f64),
            max_dissim: pairs.max(),
            minmed: stats::median(nearest),
        }
    }
}

/// One candidate cluster pair for [`should_merge`]: sizes, statistics,
/// the ids `owner` marks their members with, and the link from the
/// lower-id cluster `i` to `j`.
struct MergeCandidate<'a> {
    si: &'a ClusterStats,
    sj: &'a ClusterStats,
    len_i: usize,
    len_j: usize,
    id_i: u32,
    id_j: u32,
    link: Link,
}

fn should_merge<P: NeighborProvider + ?Sized>(
    pair: &MergeCandidate<'_>,
    owner: &[u32],
    provider: &P,
    params: &RefineParams,
) -> bool {
    let (si, sj) = (pair.si, pair.sj);
    let (Some(mean_i), Some(mean_j)) = (si.mean_dissim, sj.mean_dissim) else {
        return false;
    };
    let (link_i, link_j, d_link) = (pair.link.a as usize, pair.link.b as usize, pair.link.d);

    // Condition 1: very close by, similar local ε-density at the links.
    if d_link < mean_i.max(mean_j) {
        let smaller_extent = if pair.len_i <= pair.len_j {
            si.max_dissim
        } else {
            sj.max_dissim
        };
        let eps_local = smaller_extent / 2.0;
        let rho_i = local_density(link_i, pair.id_i, owner, provider, eps_local);
        let rho_j = local_density(link_j, pair.id_j, owner, provider, eps_local);
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
/// ε-region query filtered to the items `owner` marks with the
/// cluster's id — the same multiset of dissimilarities a member scan
/// yields, whatever order the backend emits it in, hence the same
/// median.
fn local_density<P: NeighborProvider + ?Sized>(
    link: usize,
    cluster: u32,
    owner: &[u32],
    provider: &P,
    eps: f64,
) -> f64 {
    let mut region: Vec<(f64, u32)> = Vec::new();
    provider.neighbors_within(link, eps, &mut region);
    let within: Vec<f64> = region
        .iter()
        .filter(|&&(_, j)| owner[j as usize] == cluster)
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
    use proptest::prelude::*;

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

    /// A refinement input with exact link ties: points on a line at
    /// whole coordinates, labelled so that clusters mostly follow the
    /// line (and so merge over several rounds) but interleave in index
    /// order (so a merge can move a cluster's smallest member past
    /// another's and flip their id order), with noise and singletons.
    #[derive(Debug, Clone)]
    struct TieCase {
        points: Vec<f64>,
        labels: Vec<Label>,
        params: RefineParams,
    }

    fn tie_case() -> impl Strategy<Value = TieCase> {
        (
            prop::collection::vec((0u8..30, 0u8..12), 3..36),
            0usize..4,
            0usize..3,
        )
            .prop_map(|(items, rho, density)| {
                let points = items.iter().map(|&(x, _)| f64::from(x)).collect();
                let labels = items
                    .iter()
                    .map(|&(x, jitter)| match jitter {
                        10 => Label::Noise,
                        11 => Label::Cluster(u32::from(x) % 9),
                        j => Label::Cluster(u32::from(x / 4 + j / 4)),
                    })
                    .collect();
                let params = RefineParams {
                    eps_rho_threshold: [0.0, 0.01, 0.6, 3.0][rho],
                    neighbor_density_threshold: [0.002, 0.6, 3.0][density],
                    ..RefineParams::default()
                };
                TieCase {
                    points,
                    labels,
                    params,
                }
            })
    }

    /// The rounds a merge takes: the smallest round bound whose result
    /// equals the fix point.
    fn rounds_to_fix_point(case: &TieCase, m: &CondensedMatrix) -> usize {
        let c = Clustering::from_labels(case.labels.clone());
        let p = MatrixProvider::new(m);
        let full = merge_clusters_rounds(&c, &p, &case.params, 1);
        (0..)
            .find(|&r| {
                let bounded = RefineParams {
                    max_merge_rounds: r,
                    ..case.params
                };
                merge_clusters_rounds(&c, &p, &bounded, 1) == full
            })
            .expect("the fix point is reached")
    }

    /// Whether round 1 merges some cluster whose lowest-id part and
    /// the merged cluster sit on different sides of another cluster in
    /// id order, so round 2 reads that pair's link flipped.
    fn round_one_flips_an_orientation(case: &TieCase, m: &CondensedMatrix) -> bool {
        let start = Clustering::from_labels(case.labels.clone());
        let once = RefineParams {
            max_merge_rounds: 1,
            ..case.params
        };
        let after = merge_clusters_rounds(&start, &MatrixProvider::new(m), &once, 1).clusters();
        let parts = start.clusters();
        after.iter().any(|merged| {
            let mine: Vec<&Vec<usize>> = parts.iter().filter(|p| merged.contains(&p[0])).collect();
            mine.len() > 1
                && after
                    .iter()
                    .filter(|x| x.len() > 1 && *x != merged)
                    .any(|x| {
                        mine.iter()
                            .any(|p| (p[0] < x[0]) != (merged[0] < x[0]) && p.len() > 1)
                    })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn incremental_merge_matches_per_round_oracle(case in tie_case()) {
            let m = line_matrix(&case.points);
            let p = MatrixProvider::new(&m);
            let c = Clustering::from_labels(case.labels.clone());
            for rounds in [0, 1, 2, 16] {
                let params = RefineParams {
                    max_merge_rounds: rounds,
                    ..case.params
                };
                let want = merge_clusters_rounds(&c, &p, &params, 1);
                for threads in [1, 2, 4] {
                    prop_assert_eq!(
                        &merge_clusters(&c, &p, &params, threads),
                        &want,
                        "rounds {}, threads {}",
                        rounds,
                        threads
                    );
                }
            }
        }
    }

    /// The link a nested scan of `ci`'s members over `cj`'s finds.
    fn nested_link(ci: &[usize], cj: &[usize], m: &CondensedMatrix) -> (u64, u32, u32) {
        let mut link = Link::unset(ci[0], cj[0]);
        for &a in ci {
            for &b in cj {
                if m.get(a, b) < link.d {
                    link = Link::new(m.get(a, b), a, b);
                }
            }
        }
        (link.d.to_bits(), link.a, link.b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn folded_links_match_nested_scans_in_both_orientations(
            cluster_of in prop::collection::vec(0u32..9, 2..40),
            levels in prop::collection::vec(0u8..3, 780),
            script in prop::collection::vec(0u16..64, 64),
            four_threads in any::<bool>(),
        ) {
            // Three distance levels: most cross pairs tie at the minimum,
            // and the two orientations' first minima differ.
            let n = cluster_of.len();
            let mut cells = levels.iter();
            let m = CondensedMatrix::build(n, |_, _| {
                f64::from(*cells.next().expect("enough levels"))
            });
            let labels = cluster_of.iter().map(|&c| Label::Cluster(c)).collect();
            let clusters = Clustering::from_labels(labels).clusters();
            let mut live: Vec<(usize, Vec<usize>)> = clusters.into_iter().enumerate().collect();
            let members: Vec<Vec<usize>> = live.iter().map(|(_, c)| c.clone()).collect();
            let threads = if four_threads { 4 } else { 1 };
            let mut table = LinkTable::scan(&members, &MatrixProvider::new(&m), threads);
            let mut script = script.iter().map(|&x| usize::from(x));
            while live.len() > 1 {
                for x in &live {
                    for y in live.iter().filter(|y| y.0 != x.0) {
                        let got = table.get(x.0, y.0);
                        prop_assert_eq!(
                            (got.d.to_bits(), got.a, got.b),
                            nested_link(&x.1, &y.1, &m),
                            "link {:?} -> {:?}", x.1, y.1
                        );
                    }
                }
                // Join each cluster to a random earlier one, or not;
                // groups fold in root order, as a round's regroup does.
                let mut parent: Vec<usize> = (0..live.len()).collect();
                for i in 1..live.len() {
                    let pick = script.next().unwrap_or(0);
                    if pick % 3 == 0 {
                        union(&mut parent, i, pick % i);
                    }
                }
                if (0..live.len()).all(|i| find(&mut parent, i) == i) {
                    union(&mut parent, live.len() - 1, 0);
                }
                let mut groups: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); live.len()];
                for (i, c) in live.into_iter().enumerate() {
                    groups[find(&mut parent, i)].push(c);
                }
                live = Vec::new();
                for group in groups.into_iter().filter(|g| !g.is_empty()) {
                    let slot = group[0].0;
                    let parts: Vec<usize> = group.iter().map(|c| c.0).collect();
                    if parts.len() > 1 {
                        table.fold(slot, &parts);
                    }
                    let mut all: Vec<usize> = group.into_iter().flat_map(|c| c.1).collect();
                    all.sort_unstable();
                    live.push((slot, all));
                }
            }
        }
    }

    #[test]
    fn oracle_cases_cover_multi_round_merges_and_flips() {
        let mut rng = proptest::test_runner::TestRng::new(7);
        let (mut multi_round, mut flips) = (0, 0);
        for _ in 0..128 {
            let case = tie_case().sample(&mut rng);
            let m = line_matrix(&case.points);
            multi_round += usize::from(rounds_to_fix_point(&case, &m) >= 2);
            flips += usize::from(round_one_flips_an_orientation(&case, &m));
        }
        assert!(
            multi_round >= 10,
            "{multi_round} cases merge over 2+ rounds"
        );
        assert!(flips >= 20, "{flips} cases flip an orientation in round 1");
    }

    /// Counts [`NeighborProvider::pair`] calls; `pairs_from` is the
    /// trait default, a loop over `pair`, so row reads count too.
    struct CountingPairs<'a> {
        inner: MatrixProvider<'a>,
        pairs: std::sync::atomic::AtomicUsize,
    }

    impl NeighborProvider for CountingPairs<'_> {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn neighbors_within(&self, i: usize, eps: f64, out: &mut Vec<(f64, u32)>) {
            self.inner.neighbors_within(i, eps, out);
        }

        fn knn(&self, i: usize, k: usize) -> f64 {
            self.inner.knn(i, k)
        }

        fn pair(&self, i: usize, j: usize) -> f64 {
            self.pairs
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.pair(i, j)
        }

        fn knn_table(&self, k_max: usize, threads: usize) -> dissim::KnnTable {
            self.inner.knn_table(k_max, threads)
        }
    }

    #[test]
    fn merge_reads_each_member_pair_once() {
        let mut rng = proptest::test_runner::TestRng::new(11);
        let mut pinned = 0;
        for _ in 0..1024 {
            let case = tie_case().sample(&mut rng);
            let m = line_matrix(&case.points);
            if rounds_to_fix_point(&case, &m) < 3 {
                continue;
            }
            pinned += 1;
            let c = Clustering::from_labels(case.labels.clone());
            let n: usize = c
                .clusters()
                .iter()
                .map(Vec::len)
                .filter(|&len| len >= 2)
                .sum();
            for rounds in [1, 2, 16] {
                let params = RefineParams {
                    max_merge_rounds: rounds,
                    ..case.params
                };
                for threads in [1, 2, 4] {
                    let counting = CountingPairs {
                        inner: MatrixProvider::new(&m),
                        pairs: Default::default(),
                    };
                    merge_clusters(&c, &counting, &params, threads);
                    assert_eq!(
                        counting.pairs.into_inner(),
                        n * (n - 1) / 2,
                        "{n} members, rounds {rounds}, threads {threads}"
                    );
                }
            }
        }
        assert!(pinned >= 8, "{pinned} cases merge over 3+ rounds");
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
