//! Neighbor-backend scaling ladder: where does the stratified index
//! beat the matrix?
//!
//! For each rung `u` of a segment-count ladder the harness answers the
//! same sampled ε-range and k-NN queries through every
//! [`NeighborProvider`] backend that fits in memory:
//!
//! - `stratified` — [`StrataIndex`] + [`StratifiedProvider`], never
//!   materializing the O(u²) condensed triangle (peak memory is O(u)
//!   nodes). The classic ladder's corpus is uniform-length (8-byte
//!   segments), so the index is a single stratum: one vantage-point
//!   forest searched with full metric pruning;
//! - `stratified+batch` — the identical workload through the batched
//!   parallel query path ([`NeighborProvider::neighbors_within_batch`]
//!   plus k-NN queries fanned out by [`parkit::map_indexed`]);
//! - `matrix` — [`CondensedMatrix`] + [`MatrixProvider`] row scans, the
//!   exact oracle, capped at `MATRIX_CAP` segments (the 50k triangle
//!   alone would be ~10 GB).
//!
//! Query checksums are order-normalized and asserted bit-identical
//! across backends wherever more than one ran, and every rung appends a
//! `neighbor_ladder_u{u}_{backend}` record (wall time + peak RSS) to
//! `BENCH_trajectory.json`. The matrix/stratified crossover is read off
//! the wall-time columns, and the top rungs' RSS documents that u=1M
//! completes without the triangle.
//!
//! A second, *mixed-length* ladder ([`MIXED_LADDER`]) covers NEMESYS-like
//! segment sets whose lengths differ, where the length penalty breaks
//! the triangle inequality and no single metric tree can prune. There
//! the contenders are
//!
//! - `stratified` — per-length strata searched through in-stratum
//!   vp-trees, whole strata skipped through the penalty-aware length
//!   lower bound, LAESA pivots across strata;
//! - `stratified+batch` — the same index through the batched query path;
//! - `linear` — an exact O(u)-per-query scan ([`LinearScan`]), the
//!   baseline the stratified index replaces;
//! - `matrix` — the condensed-triangle oracle, under [`MATRIX_CAP`].
//!
//! All are pinned bit-identical per rung; the printed
//! `stratified_speedup_vs_linear` is the headline number, and the
//! stratified prune counters (kernel evaluations, pruned candidates,
//! skipped strata) are printed so the mechanism — not just the wall
//! time — is visible. Three real NEMESYS-segmented protocol corpora
//! (ntp/nbns/smb, deduplicated segment values) run the same
//! stratified-vs-linear comparison.
//!
//! Every mixed and protocol corpus also times Algorithm 1's k-dist
//! input on the stratified backend both ways: one full k-NN sweep per
//! candidate `k` against one `k_max`-deep k-NN table, asserted
//! bit-identical, with both kernel-evaluation counts printed and a
//! `…_stratified_kdist_sweeps` / `…_stratified_knn_table` record pair
//! appended.
//!
//! A refinement rung ([`REFINE_LADDER`]) clusters the mixed-length
//! corpus the way a session does — a k-NN table, Algorithm 1's ε, then
//! DBSCAN — and times DBSCAN (its region table included) and merge
//! refinement (paper §III-F) on the stratified provider. It prints the
//! DBSCAN wall and kernel evaluations (counted through a provider
//! wrapped with query counters, in a second, untimed run), the refine
//! wall, the merge rounds, the pair evaluations (counted by a wrapping
//! provider in a second, untimed run; merge refinement reads each of
//! the `N(N−1)/2` member pairs once), the number `K` of clusters and
//! `N` of members entering refinement and the size of its link table
//! (`K² × 16` bytes of links, `K(K−1)/2 × 32` of cross sums), and appends
//! `neighbor_ladder_mixed_u{u}_dbscan` / `…_refine` records.
//!
//! Run with:
//! `cargo run --release -p bench --bin neighbor_ladder -- [max_u] [samples] [budget_bytes]
//!  [--cache-dir D] [--max-memory BYTES]`
//!
//! With a `budget_bytes` argument the harness becomes the stratified
//! RSS smoke check (`scripts/check.sh`): the matrix oracle rungs are
//! skipped so the process footprint is the matrix-free path alone, and
//! the run exits nonzero if peak RSS (`VmHWM`) exceeds the budget.
//!
//! `--cache-dir D` persists each rung's stratified index to an on-disk
//! [`ArtifactStore`] and faults it back in on re-runs — the big rungs
//! (u ≥ 100k) then pay their index build once, not per invocation.
//! `--max-memory BYTES` guards the matrix oracle by *projection*: a
//! rung whose condensed triangle would exceed the cap is
//! skipped (and logged) before a byte of it is allocated, instead of
//! blowing past the budget mid-build.

use cluster::autoconf::{auto_configure, required_k_max, AutoConfig};
use cluster::dbscan::dbscan;
use cluster::refine::{merge_clusters, RefineParams};
use dissim::kernel::dissimilarity_kernel;
use dissim::vptree::DEFAULT_CHUNK;
use dissim::{
    CanberraLut, CondensedMatrix, DissimParams, KnnAccumulator, KnnTable, MatrixProvider,
    NeighborProvider, QueryCounters, QueryDist, StrataIndex, StratifiedProvider,
};
use protocols::{corpus, Protocol};
use rand::{Rng, SeedableRng, StdRng};
use segment::nemesys::Nemesys;
use segment::Segmenter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use store::{ArtifactStore, Key, KeyDigest, Kind};

/// Largest rung that still builds the condensed triangle + sorted
/// index (~100 MB + ~400 MB at this cap).
const MATRIX_CAP: usize = 5_000;

/// The rungs; trimmed by the `max_u` argument. The default `max_u` of
/// 50k keeps the classic ladder; the u ≥ 100k rungs are opt-in (pass a
/// larger `max_u`) and are meant to run in budget mode with a
/// `--cache-dir` so the indexes persist across invocations.
const LADDER: [usize; 9] = [
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// Corpus seed shared by every rung (the corpus is a pure function of
/// `(u, CORPUS_SEED)`, which is what makes the on-disk index keys
/// sound).
const CORPUS_SEED: u64 = 11;

/// The mixed-length rungs; trimmed by `max_u` like the classic ladder.
/// The 2k rung exists so the budget-mode RSS smoke exercises the
/// mixed-length stratified path too; 250k is opt-in (pass a larger
/// `max_u`) because its linear baseline alone is tens of seconds.
const MIXED_LADDER: [usize; 4] = [2_000, 5_000, 50_000, 250_000];

/// Seed for the mixed-length corpus — distinct from [`CORPUS_SEED`] so
/// the two generators can never be confused in cache keys.
const MIXED_SEED: u64 = 12;

/// The refinement rungs on the mixed-length corpus; trimmed by `max_u`.
const REFINE_LADDER: [usize; 2] = [2_000, 10_000];

/// Uniform-length corpus (8-byte segments) drawn from a few field-type
/// templates, so dense ε-neighborhoods exist and the dissimilarity is a
/// true metric (all lengths equal ⇒ no length penalty).
fn uniform_segments(u: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..u)
        .map(|_| {
            let mut seg = vec![0u8; 8];
            match rng.gen_range(0usize..4) {
                // Little-endian counter-ish: tiny leading values.
                0 => {
                    seg[0] = rng.gen_range(0u8..4);
                    for b in &mut seg[1..] {
                        *b = rng.gen_range(0u8..16);
                    }
                }
                // Timestamp-ish: shared epoch prefix, random low bytes.
                1 => {
                    seg[..3].copy_from_slice(&[0xD2, 0x3D, 0x19]);
                    for b in &mut seg[3..] {
                        *b = rng.gen();
                    }
                }
                // ASCII text.
                2 => {
                    for b in &mut seg {
                        *b = rng.gen_range(b'a'..=b'z');
                    }
                }
                // Opaque payload bytes.
                _ => {
                    for b in &mut seg {
                        *b = rng.gen();
                    }
                }
            }
            seg
        })
        .collect()
}

/// Mixed-length corpus shaped like a NEMESYS segmentation of a real
/// binary protocol: one-byte flags, two-byte type/length words,
/// four-byte timestamps and addresses, variable-length text, and
/// eight-byte opaque payload — so segment lengths differ, the length
/// penalty is live, and the dissimilarity is provably non-metric.
fn mixed_segments(u: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..u)
        .map(|_| match rng.gen_range(0usize..6) {
            // Flags byte: a handful of hot values.
            0 => vec![rng.gen_range(0u8..4)],
            // Big-endian type/length word: small values.
            1 => vec![0, rng.gen_range(0u8..64)],
            // Timestamp: shared epoch prefix, random low bytes.
            2 => vec![0xD2, 0x3D, rng.gen(), rng.gen()],
            // Address-ish: 10.x.y.z.
            3 => vec![10, rng.gen_range(0u8..4), rng.gen(), rng.gen()],
            // ASCII text, 6..=11 bytes.
            4 => {
                let len = rng.gen_range(6usize..12);
                (0..len).map(|_| rng.gen_range(b'a'..=b'z')).collect()
            }
            // Opaque payload bytes.
            _ => (0..8).map(|_| rng.gen()).collect(),
        })
        .collect()
}

/// Evenly-strided sample of query items.
fn sample_indices(u: usize, samples: usize) -> Vec<usize> {
    let samples = samples.clamp(1, u);
    (0..samples).map(|q| q * u / samples).collect()
}

/// Runs the sampled k-NN + ε-range workload against one backend.
///
/// Returns `(eps, checksum, neighbor_count)`. When `eps` is `None` it
/// is derived as the median sampled k-NN dissimilarity (so later
/// backends replay the exact same queries). The checksum folds every
/// k-NN value and every order-normalized `(dissimilarity, index)` pair,
/// so two backends agree iff their answers are bit-identical.
fn run_queries<P: NeighborProvider>(
    provider: &P,
    sample: &[usize],
    k: usize,
    eps: Option<f64>,
) -> (f64, f64, usize) {
    let knns: Vec<f64> = sample.iter().map(|&i| provider.knn(i, k)).collect();
    let eps = eps.unwrap_or_else(|| {
        let mut finite: Vec<f64> = knns.iter().copied().filter(|d| d.is_finite()).collect();
        finite.sort_by(f64::total_cmp);
        finite.get(finite.len() / 2).copied().unwrap_or(0.1)
    });
    let mut out = Vec::new();
    let mut checksum = 0.0f64;
    let mut count = 0usize;
    for (&i, &dk) in sample.iter().zip(&knns) {
        if dk.is_finite() {
            checksum += dk;
        }
        provider.neighbors_within(i, eps, &mut out);
        // Backends emit in different deterministic orders (index order
        // vs. tree traversal order); normalize before checksumming.
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        count += out.len();
        for &(d, j) in &out {
            checksum += d + f64::from(j);
        }
    }
    (eps, checksum, count)
}

/// Replays the exact workload of [`run_queries`] through the batched
/// parallel query path: the sampled k-NN queries fanned out by
/// [`parkit::map_indexed`], the ε-ranges through
/// [`NeighborProvider::neighbors_within_batch`]. The fold order is
/// identical — sample order, k-NN value first, then the
/// order-normalized range pairs — so the checksum is bit-comparable
/// against the scalar pass regardless of how the batch was scheduled.
fn run_queries_batch<P: NeighborProvider + Sync>(
    provider: &P,
    sample: &[usize],
    k: usize,
    eps: f64,
    threads: usize,
) -> (f64, usize) {
    let knns = parkit::map_indexed(
        threads,
        sample.len(),
        8,
        || (),
        |_, qi| provider.knn(sample[qi], k),
    );
    let mut lists = provider.neighbors_within_batch(sample, eps, threads);
    let mut checksum = 0.0f64;
    let mut count = 0usize;
    for (&dk, out) in knns.iter().zip(&mut lists) {
        if dk.is_finite() {
            checksum += dk;
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        count += out.len();
        for &(d, j) in out.iter() {
            checksum += d + f64::from(j);
        }
    }
    (checksum, count)
}

/// The exact linear-scan baseline: every query evaluates the kernel
/// against every other item (O(u) per query, O(u) memory, no pruning).
struct LinearScan<'a> {
    values: &'a [&'a [u8]],
    params: DissimParams,
}

impl LinearScan<'_> {
    /// Item `i`'s dissimilarity to every other item, in index order.
    fn scan(&self, i: usize) -> Vec<f64> {
        let qd = QueryDist::new(self.values[i], &self.params);
        (0..self.values.len())
            .filter(|&j| j != i)
            .map(|j| qd.dist(self.values[j]))
            .collect()
    }
}

impl NeighborProvider for LinearScan<'_> {
    fn len(&self) -> usize {
        self.values.len()
    }

    fn neighbors_within(&self, i: usize, eps: f64, out: &mut Vec<(f64, u32)>) {
        out.clear();
        let qd = QueryDist::new(self.values[i], &self.params);
        for (j, v) in self.values.iter().enumerate() {
            let d = qd.dist(v);
            if j != i && d <= eps {
                out.push((d, j as u32));
            }
        }
    }

    fn knn(&self, i: usize, k: usize) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return f64::INFINITY;
        }
        let mut dists = self.scan(i);
        let (_, kth, _) = dists.select_nth_unstable_by(k.clamp(1, n - 1) - 1, f64::total_cmp);
        *kth
    }

    fn pair(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        dissimilarity_kernel(
            self.values[i],
            self.values[j],
            &self.params,
            CanberraLut::global(),
        )
    }

    fn knn_table(&self, k_max: usize, _threads: usize) -> KnnTable {
        let mut acc = KnnAccumulator::new(self.values.len(), k_max);
        for i in 0..self.values.len() {
            for d in self.scan(i) {
                acc.push(i, d);
            }
        }
        acc.finish()
    }
}

/// Counts the [`NeighborProvider::pair`] evaluations made through it;
/// every other query goes straight to the wrapped provider. Its
/// `pairs_from` is the trait default, a loop over `pair`, so the count
/// covers row reads too and means the same for any mix of pair and
/// row calls a refinement makes.
struct CountingPairs<'a, P> {
    inner: &'a P,
    pairs: AtomicU64,
}

impl<P: NeighborProvider + Sync> NeighborProvider for CountingPairs<'_, P> {
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
        self.pairs.fetch_add(1, Ordering::Relaxed);
        self.inner.pair(i, j)
    }

    fn knn_table(&self, k_max: usize, threads: usize) -> KnnTable {
        self.inner.knn_table(k_max, threads)
    }
}

/// The refinement rung: ε from the k-NN table (Algorithm 1), unit-weight
/// DBSCAN, then timed merge refinement, all on the stratified provider.
/// A second merge through [`CountingPairs`] counts the pair
/// evaluations, and re-runs under growing round bounds find the rounds
/// that merged something.
fn run_refine_rung(
    u: usize,
    values: &[&[u8]],
    params: &DissimParams,
    index: &StrataIndex,
    threads: usize,
) {
    let provider = StratifiedProvider::new(values, params, index);
    let table = provider.knn_table(required_k_max(u), threads);
    let eps = match auto_configure(&table, &AutoConfig::default()) {
        Ok(selected) => selected.epsilon,
        Err(e) => {
            println!("neighbor_ladder: corpus=mixed u={u} refine skipped (autoconf: {e})");
            return;
        }
    };
    let min_samples = ((u as f64).ln().round() as usize).max(2);
    let start = Instant::now();
    let regions = provider.region_table(eps, threads);
    let clustering = dbscan(&regions, eps, min_samples, &vec![1; u]);
    let dbscan_wall = start.elapsed();
    drop(regions);
    // DBSCAN's kernel evaluations: the same table built again, untimed,
    // through a provider wrapped with query counters.
    let counters = Arc::new(QueryCounters::new());
    let counted =
        StratifiedProvider::new(values, params, index).with_counters(Arc::clone(&counters));
    assert_eq!(
        dbscan(
            &counted.region_table(eps, threads),
            eps,
            min_samples,
            &vec![1; u]
        ),
        clustering,
        "counted DBSCAN diverged at mixed u={u}"
    );
    let dbscan_evals = counters.kernel_evals();
    let entering: Vec<usize> = clustering
        .clusters()
        .iter()
        .map(Vec::len)
        .filter(|&len| len >= 2)
        .collect();
    let k = entering.len();
    let members: usize = entering.iter().sum();
    bench::append_trajectory(&format!("neighbor_ladder_mixed_u{u}_dbscan"), dbscan_wall);

    let refine = RefineParams::default();
    let start = Instant::now();
    let merged = merge_clusters(&clustering, &provider, &refine, threads);
    let refine_wall = start.elapsed();
    bench::append_trajectory(&format!("neighbor_ladder_mixed_u{u}_refine"), refine_wall);

    let counting = CountingPairs {
        inner: &provider,
        pairs: AtomicU64::new(0),
    };
    assert_eq!(
        merge_clusters(&clustering, &counting, &refine, threads),
        merged,
        "counted refinement diverged at mixed u={u}"
    );
    let merge_rounds = (0..refine.max_merge_rounds)
        .find(|&r| {
            let bounded = RefineParams {
                max_merge_rounds: r,
                ..refine
            };
            merge_clusters(&clustering, &provider, &bounded, threads) == merged
        })
        .unwrap_or(refine.max_merge_rounds);
    println!(
        "neighbor_ladder: corpus=mixed u={u} refine dbscan_wall_ms={:.1} \
         dbscan_kernel_evals={dbscan_evals} refine_wall_ms={:.1} \
         eps={eps:.6} clusters_in={k} members={members} clusters_out={} \
         merge_rounds={merge_rounds} pair_evals={} link_table_bytes={} peak_rss_bytes={}",
        dbscan_wall.as_secs_f64() * 1e3,
        refine_wall.as_secs_f64() * 1e3,
        merged.n_clusters(),
        counting.pairs.load(Ordering::Relaxed),
        k * k * 16 + k * k.saturating_sub(1) / 2 * 32,
        bench::peak_rss_bytes()
    );
}

/// Content key for one rung's persisted [`StrataIndex`] — a single
/// whole-index artifact, keyed by the generator inputs (`tag`, `seed`,
/// `u`) rather than the segment bytes: each corpus is a pure function
/// of them, so digesting them is sound and costs O(1).
fn ladder_strata_key(tag: &[u8], seed: u64, u: usize, chunk: usize) -> Key {
    let mut digest = KeyDigest::new(Kind::STRATA);
    digest.frame(tag);
    digest.u64(seed);
    digest.usize(u);
    digest.usize(chunk);
    digest.finish()
}

/// Builds a rung's stratified index, faulting it in from (and
/// persisting it to) the on-disk store when one is attached. A stale or
/// damaged artifact fails the `matches` check and degrades to a plain
/// build.
fn build_strata(
    values: &[&[u8]],
    params: &DissimParams,
    store: Option<(&ArtifactStore, Key)>,
) -> StrataIndex {
    let Some((store, key)) = store else {
        return StrataIndex::build(values, params, DEFAULT_CHUNK);
    };
    if let Some(index) = store.get::<StrataIndex>(&key) {
        if index.chunk() == DEFAULT_CHUNK && index.matches(values) {
            return index;
        }
    }
    let index = StrataIndex::build(values, params, DEFAULT_CHUNK);
    store.put(&key, &index);
    index
}

/// Projected footprint of the matrix oracle at `u` segments: the
/// condensed triangle (`u(u-1)/2` f64s).
fn projected_matrix_bytes(u: usize) -> u64 {
    let u = u as u64;
    u * (u - 1) / 2 * 8
}

fn rung_line(u: usize, backend: &str, wall: std::time::Duration, eps: f64, count: usize) {
    println!(
        "neighbor_ladder: u={u} backend={backend} wall_ms={:.1} eps={eps:.6} neighbors={count} \
         peak_rss_bytes={}",
        wall.as_secs_f64() * 1e3,
        bench::peak_rss_bytes()
    );
}

/// Like [`rung_line`], for the mixed-length and protocol rungs: tagged
/// with the corpus name so the two ladders never collide in greps.
fn corpus_line(
    name: &str,
    u: usize,
    backend: &str,
    wall: std::time::Duration,
    eps: f64,
    count: usize,
) {
    println!(
        "neighbor_ladder: corpus={name} u={u} backend={backend} wall_ms={:.1} eps={eps:.6} \
         neighbors={count} peak_rss_bytes={}",
        wall.as_secs_f64() * 1e3,
        bench::peak_rss_bytes()
    );
}

/// Runs the full stratified-vs-linear comparison (plus the batched
/// stratified pass) on one mixed-length corpus, pinning every
/// backend bit-identical and reporting the prune counters and the
/// speedup. Returns `(eps, checksum, count)` so callers can extend the
/// comparison (e.g. with the matrix oracle).
fn run_mixed_corpus(
    name: &str,
    trajectory: &str,
    values: &[&[u8]],
    params: &DissimParams,
    samples: usize,
    threads: usize,
    store: Option<(&ArtifactStore, Key)>,
) -> (f64, f64, usize) {
    let u = values.len();
    let k_max = required_k_max(u);
    let sample = sample_indices(u, samples);

    // stratified: per-length strata + penalty-aware lower bound. This
    // pass defines ε for the others.
    let counters = Arc::new(QueryCounters::default());
    let start = Instant::now();
    let index = build_strata(values, params, store);
    let strat =
        StratifiedProvider::new(values, params, &index).with_counters(Arc::clone(&counters));
    let (eps, s_sum, s_count) = run_queries(&strat, &sample, k_max, None);
    let strat_wall = start.elapsed();
    corpus_line(name, u, "stratified", strat_wall, eps, s_count);
    let (kernel_evals, pruned, skipped) = counters.snapshot();
    println!(
        "neighbor_ladder: corpus={name} u={u} stratified_counters kernel_evals={kernel_evals} \
         pruned={pruned} strata_skipped={skipped}"
    );
    assert!(
        pruned > 0,
        "stratified backend must prune on the mixed corpus {name} (u={u})"
    );
    bench::append_trajectory(&format!("{trajectory}_stratified"), strat_wall);

    // stratified + batched parallel queries: identical workload through
    // the batch API, pinned bit-identical regardless of worker count.
    let start = Instant::now();
    let (b_sum, b_count) = run_queries_batch(&strat, &sample, k_max, eps, threads);
    let wall = start.elapsed();
    assert_eq!(
        (s_sum.to_bits(), s_count),
        (b_sum.to_bits(), b_count),
        "batched stratified queries diverged from scalar on {name} (u={u})"
    );
    corpus_line(name, u, "stratified+batch", wall, eps, b_count);
    bench::append_trajectory(&format!("{trajectory}_stratified_batch"), wall);

    run_kdist_comparison(name, trajectory, values, params, &index, threads);

    // linear: the exact O(u)-per-query scan with no pruning at all —
    // the status quo the stratified backend replaces.
    let start = Instant::now();
    let linear = LinearScan {
        values,
        params: *params,
    };
    let (_, l_sum, l_count) = run_queries(&linear, &sample, k_max, Some(eps));
    let linear_wall = start.elapsed();
    assert_eq!(
        (s_sum.to_bits(), s_count),
        (l_sum.to_bits(), l_count),
        "stratified diverged from the linear scan on {name} (u={u})"
    );
    corpus_line(name, u, "linear", linear_wall, eps, l_count);
    bench::append_trajectory(&format!("{trajectory}_linear"), linear_wall);
    println!(
        "neighbor_ladder: corpus={name} u={u} stratified_speedup_vs_linear={:.1}x",
        linear_wall.as_secs_f64() / strat_wall.as_secs_f64().max(1e-9)
    );

    (eps, s_sum, s_count)
}

/// Times Algorithm 1's k-dist input on the stratified backend both
/// ways, each on fresh counters: one full k-NN sweep per candidate
/// `k = 2..=k_max` (what auto-configuration used to issue), and one
/// `k_max`-deep [`NeighborProvider::knn_table`]. Asserts the table's
/// columns equal the sweeps bit for bit and prints both walls and
/// kernel-evaluation counts.
fn run_kdist_comparison(
    name: &str,
    trajectory: &str,
    values: &[&[u8]],
    params: &DissimParams,
    index: &StrataIndex,
    threads: usize,
) {
    let u = values.len();
    let k_max = required_k_max(u);
    let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();

    let sweep_counters = Arc::new(QueryCounters::default());
    let provider =
        StratifiedProvider::new(values, params, index).with_counters(Arc::clone(&sweep_counters));
    let start = Instant::now();
    let sweeps: Vec<Vec<f64>> = (2..=k_max)
        .map(|k| parkit::map_indexed(threads, u, 8, || (), |_, i| provider.knn(i, k)))
        .collect();
    let sweeps_wall = start.elapsed();

    let table_counters = Arc::new(QueryCounters::default());
    let provider =
        StratifiedProvider::new(values, params, index).with_counters(Arc::clone(&table_counters));
    let start = Instant::now();
    let table = provider.knn_table(k_max, threads);
    let table_wall = start.elapsed();

    for (k, sweep) in (2..).zip(&sweeps) {
        assert_eq!(
            bits(sweep),
            bits(&table.knn_dissimilarities(k)),
            "k-NN table column {k} diverged from its sweep on {name} (u={u})"
        );
    }
    println!(
        "neighbor_ladder: corpus={name} u={u} kdist k_max={k_max} \
         sweeps_wall_ms={:.1} sweeps_kernel_evals={} table_wall_ms={:.1} \
         table_kernel_evals={} table_speedup={:.1}x",
        sweeps_wall.as_secs_f64() * 1e3,
        sweep_counters.kernel_evals(),
        table_wall.as_secs_f64() * 1e3,
        table_counters.kernel_evals(),
        sweeps_wall.as_secs_f64() / table_wall.as_secs_f64().max(1e-9)
    );
    bench::append_trajectory(
        &format!("{trajectory}_stratified_kdist_sweeps"),
        sweeps_wall,
    );
    bench::append_trajectory(&format!("{trajectory}_stratified_knn_table"), table_wall);
}

fn fail_usage(message: &str) -> ! {
    eprintln!("error: neighbor_ladder: {message}");
    eprintln!(
        "usage: neighbor_ladder [max_u] [samples] [budget_bytes] [--cache-dir D] \
         [--max-memory BYTES]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut cache_dir: Option<String> = None;
    let mut max_memory: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => match it.next() {
                Some(v) => cache_dir = Some(v.clone()),
                None => fail_usage("--cache-dir needs a directory"),
            },
            "--max-memory" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_memory = Some(v),
                None => fail_usage("--max-memory needs a byte count"),
            },
            _ => positional.push(arg.clone()),
        }
    }
    let max_u: usize = positional
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(50_000);
    let samples: usize = positional
        .get(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(256);
    let budget: Option<u64> = positional.get(2).and_then(|a| a.parse().ok());
    let store = cache_dir.map(|dir| match ArtifactStore::open(&dir) {
        Ok(store) => store,
        Err(e) => fail_usage(&format!("--cache-dir {dir}: {e}")),
    });

    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let params = DissimParams::default();

    for &u in LADDER.iter().filter(|&&u| u <= max_u) {
        let segments = uniform_segments(u, CORPUS_SEED);
        let values: Vec<&[u8]> = segments.iter().map(|s| &s[..]).collect();
        let k_max = required_k_max(u);
        let sample = sample_indices(u, samples);

        // stratified: build the index (one stratum: all lengths are
        // equal), then the sampled workload. This rung defines ε for the
        // others.
        let start = Instant::now();
        let key = ladder_strata_key(b"neighbor_ladder", CORPUS_SEED, u, DEFAULT_CHUNK);
        let index = build_strata(&values, &params, store.as_ref().map(|s| (s, key)));
        assert_eq!(
            index.strata().len(),
            1,
            "uniform corpus must be one stratum"
        );
        let strat = StratifiedProvider::new(&values, &params, &index);
        let (eps, s_sum, s_count) = run_queries(&strat, &sample, k_max, None);
        let wall = start.elapsed();
        rung_line(u, "stratified", wall, eps, s_count);
        bench::append_trajectory(&format!("neighbor_ladder_u{u}_stratified"), wall);

        // stratified + batched parallel queries: the identical workload
        // answered through the batch path, pinned bit-identical to the
        // scalar pass above regardless of worker count.
        let start = Instant::now();
        let (batch_sum, batch_count) = run_queries_batch(&strat, &sample, k_max, eps, threads);
        let wall = start.elapsed();
        assert_eq!(
            (s_sum.to_bits(), s_count),
            (batch_sum.to_bits(), batch_count),
            "batched queries diverged from scalar at u={u}"
        );
        rung_line(u, "stratified+batch", wall, eps, batch_count);
        bench::append_trajectory(&format!("neighbor_ladder_u{u}_stratified_batch"), wall);

        // matrix oracle: only where the triangle fits comfortably,
        // never in budget mode (the budget pins the matrix-free path),
        // and never when its *projected* footprint would blow a
        // `--max-memory` cap — the guard fires before a byte of the
        // triangle is allocated.
        let projected = projected_matrix_bytes(u);
        let over_cap = max_memory.is_some_and(|cap| projected > cap);
        if over_cap {
            println!(
                "neighbor_ladder: u={u} backend=matrix skipped (projected {projected} bytes \
                 exceeds --max-memory {})",
                max_memory.unwrap_or(0)
            );
        } else if u <= MATRIX_CAP && budget.is_none() {
            let start = Instant::now();
            let matrix = CondensedMatrix::build_segments(&values, &params, threads);
            let provider = MatrixProvider::new(&matrix);
            let (_, m_sum, m_count) = run_queries(&provider, &sample, k_max, Some(eps));
            let wall = start.elapsed();
            assert_eq!(
                (s_sum.to_bits(), s_count),
                (m_sum.to_bits(), m_count),
                "stratified diverged from the matrix oracle at u={u}"
            );
            rung_line(u, "matrix", wall, eps, m_count);
            bench::append_trajectory(&format!("neighbor_ladder_u{u}_matrix"), wall);
        } else {
            println!("neighbor_ladder: u={u} backend=matrix skipped (cap {MATRIX_CAP})");
        }
    }

    // Mixed-length ladder: the corpora where the penalized dissimilarity
    // is non-metric, so pruning has to respect the length strata.
    for &u in MIXED_LADDER.iter().filter(|&&u| u <= max_u) {
        let segments = mixed_segments(u, MIXED_SEED);
        let values: Vec<&[u8]> = segments.iter().map(|s| &s[..]).collect();
        let (eps, s_sum, s_count) = run_mixed_corpus(
            "mixed",
            &format!("neighbor_ladder_mixed_u{u}"),
            &values,
            &params,
            samples,
            threads,
            store.as_ref().map(|s| {
                let key = ladder_strata_key(b"neighbor_ladder_mixed", MIXED_SEED, u, DEFAULT_CHUNK);
                (s, key)
            }),
        );

        // matrix oracle: same guards as the classic ladder — never in
        // budget mode, never past the cap or a projected-memory limit.
        let projected = projected_matrix_bytes(u);
        if max_memory.is_some_and(|cap| projected > cap) {
            println!(
                "neighbor_ladder: corpus=mixed u={u} backend=matrix skipped (projected \
                 {projected} bytes exceeds --max-memory {})",
                max_memory.unwrap_or(0)
            );
        } else if u <= MATRIX_CAP && budget.is_none() {
            let k_max = required_k_max(u);
            let sample = sample_indices(u, samples);
            let start = Instant::now();
            let matrix = CondensedMatrix::build_segments(&values, &params, threads);
            let provider = MatrixProvider::new(&matrix);
            let (_, m_sum, m_count) = run_queries(&provider, &sample, k_max, Some(eps));
            let wall = start.elapsed();
            assert_eq!(
                (s_sum.to_bits(), s_count),
                (m_sum.to_bits(), m_count),
                "stratified diverged from the matrix oracle at mixed u={u}"
            );
            corpus_line("mixed", u, "matrix", wall, eps, m_count);
            bench::append_trajectory(&format!("neighbor_ladder_mixed_u{u}_matrix"), wall);
        } else {
            println!(
                "neighbor_ladder: corpus=mixed u={u} backend=matrix skipped (cap {MATRIX_CAP})"
            );
        }
    }

    // Refinement rungs: DBSCAN and merge refinement on the mixed corpus.
    for &u in REFINE_LADDER.iter().filter(|&&u| u <= max_u) {
        let segments = mixed_segments(u, MIXED_SEED);
        let values: Vec<&[u8]> = segments.iter().map(|s| &s[..]).collect();
        let key = ladder_strata_key(b"neighbor_ladder_mixed", MIXED_SEED, u, DEFAULT_CHUNK);
        let index = build_strata(&values, &params, store.as_ref().map(|s| (s, key)));
        run_refine_rung(u, &values, &params, &index, threads);
    }

    // Real NEMESYS-segmented protocol corpora: the deduplicated segment
    // values of three generated traces, run through the same
    // stratified-vs-linear comparison. Skipped in budget mode — the
    // budget pins the synthetic ladder's footprint, not trace
    // generation and segmentation.
    if budget.is_none() {
        for proto in [Protocol::Ntp, Protocol::Nbns, Protocol::Smb] {
            let name = proto.to_string();
            let trace = corpus::build_trace(proto, 400, MIXED_SEED);
            let segmentation = match Nemesys::default().segment_trace(&trace) {
                Ok(s) => s,
                Err(e) => {
                    println!("neighbor_ladder: corpus={name} skipped ({e})");
                    continue;
                }
            };
            // First-occurrence dedup, mirroring the pipeline's global
            // segment de-duplication.
            let mut seen = std::collections::HashSet::new();
            let mut segments: Vec<Vec<u8>> = Vec::new();
            for (msg, segs) in trace.messages().iter().zip(&segmentation.messages) {
                for r in segs.ranges() {
                    let v = msg.payload()[r.clone()].to_vec();
                    if seen.insert(v.clone()) {
                        segments.push(v);
                    }
                }
            }
            let values: Vec<&[u8]> = segments.iter().map(|s| &s[..]).collect();
            if values.len() < 2 {
                println!("neighbor_ladder: corpus={name} skipped (too few unique segments)");
                continue;
            }
            run_mixed_corpus(
                &name,
                &format!("neighbor_ladder_{name}"),
                &values,
                &params,
                samples,
                threads,
                None,
            );
        }
    }

    if let Some(store) = &store {
        println!("neighbor_ladder: cache {}", store.stats());
    }
    let rss = bench::peak_rss_bytes();
    println!("neighbor_ladder: done peak_rss_bytes={rss}");
    if let Some(budget) = budget {
        if rss > budget {
            eprintln!("neighbor_ladder: peak RSS {rss} exceeds budget {budget}");
            std::process::exit(1);
        }
        println!("neighbor_ladder: peak RSS within budget ({rss} <= {budget})");
    }
}
