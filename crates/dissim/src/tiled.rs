//! Tiled representation of the condensed dissimilarity matrix: fixed
//! row-block tiles that are computed, checksummed, persisted, and
//! faulted in independently, so a build's peak working set is O(tile)
//! instead of O(n²) and a grown trace reuses every complete tile
//! verbatim.
//!
//! # Tile geometry
//!
//! Tiles block the **lower triangle** by row: tile `t` of a build with
//! `tile_rows = R` owns rows `t·R .. min((t+1)·R, n)`, where
//! lower-triangle row `j` holds the `j` entries `D(i, j)` for `i < j`.
//! That is the layout of [`CondensedMatrix`] itself, so a tile is a
//! contiguous run of the condensed cells. A lower-triangle row depends
//! only on items `0 ..= j`, so a tile's content is a pure function of
//! the *item prefix* `segments[..rows.end]` — it does not depend on `n`
//! at all. That is what makes extension a **pure tile append**: growing
//! the item set leaves every complete tile's content (and therefore its
//! cache key) unchanged; only the boundary tile (whose row range was
//! clamped by the old `n`) is recomputed and wholly-new tiles are
//! appended — [`CondensedMatrix::extend_segments`]'s row append,
//! expressed per tile.
//!
//! # Bit-identity
//!
//! Tile entries are produced by the same bucketed kernel as
//! [`CondensedMatrix::build_segments`] (see
//! [`crate::kernel`]): every entry equals the scalar
//! [`crate::dissimilarity`] of its pair bit-for-bit, so
//! [`TiledMatrix::assemble`] reproduces the monolithic build exactly,
//! regardless of tile geometry, thread count, or which tiles were
//! faulted in from a store.
//!
//! # Integrity
//!
//! Every tile carries an FNV-64 checksum over its entry bits, verified
//! on fault-in (`crates/store` additionally frames persisted tiles with
//! a whole-file checksum). A tile that fails verification degrades to a
//! recompute — a damaged cache is a slow run, never a wrong one.

use std::ops::Range;

use crate::canberra::DissimParams;
use crate::cells::Cells;
use crate::kernel::{fill_lower_rows, PairContext};
use crate::knn::{KnnAccumulator, KnnTable};
use crate::matrix::{tri, CondensedMatrix};

/// FNV-1a 64 over the little-endian bits of the entries — the same
/// checksum primitive the artifact store uses for file framing, applied
/// per tile so fault-in can verify without the store.
fn fnv64_entries(data: &[f64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    for v in data {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// One row-block tile: lower-triangle rows `rows.start .. rows.end`,
/// concatenated in row order, with a checksum over the entry bits.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixTile {
    rows: Range<usize>,
    data: Vec<f64>,
    checksum: u64,
}

impl MatrixTile {
    /// Number of entries a tile spanning `rows` holds
    /// (`Σ_{j ∈ rows} j`).
    pub fn entries_for(rows: &Range<usize>) -> usize {
        tri(rows.end) - tri(rows.start)
    }

    /// Computes the tile for `rows` through the row filler every matrix
    /// build shares, so the result is bit-identical regardless of
    /// scheduling.
    pub(crate) fn compute(ctx: &PairContext<'_>, rows: Range<usize>, threads: usize) -> Self {
        let mut data = vec![0.0f64; Self::entries_for(&rows)];
        fill_lower_rows(ctx, rows.clone(), &mut data, threads);
        let checksum = fnv64_entries(&data);
        Self {
            rows,
            data,
            checksum,
        }
    }

    /// Reassembles a tile from persisted parts: `None` unless the entry
    /// count matches the row span and the checksum verifies. Used by the
    /// artifact store's decoder, where a damaged tile must degrade to a
    /// cache miss.
    pub fn from_parts(rows: Range<usize>, data: Vec<f64>, checksum: u64) -> Option<Self> {
        if rows.start > rows.end || data.len() != Self::entries_for(&rows) {
            return None;
        }
        let tile = Self {
            rows,
            data,
            checksum,
        };
        tile.verify().then_some(tile)
    }

    /// The lower-triangle row span this tile covers.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// All entries, rows concatenated in row order.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// FNV-64 checksum over the entry bits.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recomputes the checksum and compares it to the stored one.
    pub fn verify(&self) -> bool {
        fnv64_entries(&self.data) == self.checksum
    }

    /// Lower-triangle row `j` of this tile: `row(j)[i] = D(i, j)` for
    /// every `i < j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is outside this tile's row span.
    pub fn row(&self, j: usize) -> &[f64] {
        assert!(self.rows.contains(&j), "row outside tile span");
        let off = tri(j) - tri(self.rows.start);
        &self.data[off..off + j]
    }

    /// Folds the tile into a k-NN accumulator: every pair `(i, j)` in
    /// the tile updates both endpoints' lists.
    pub fn feed(&self, acc: &mut KnnAccumulator) {
        for j in self.rows() {
            for (i, &d) in self.row(j).iter().enumerate() {
                acc.push(i, d);
                acc.push(j, d);
            }
        }
    }
}

/// The condensed matrix as a sequence of row-block tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledMatrix {
    n: usize,
    tile_rows: usize,
    tiles: Vec<MatrixTile>,
}

impl TiledMatrix {
    /// Number of tiles covering `n` items at `tile_rows` rows per tile.
    pub fn tile_count(n: usize, tile_rows: usize) -> usize {
        n.div_ceil(tile_rows.max(1))
    }

    /// Row span of tile `t`.
    pub fn tile_span(n: usize, tile_rows: usize, t: usize) -> Range<usize> {
        let tile_rows = tile_rows.max(1);
        (t * tile_rows).min(n)..((t + 1) * tile_rows).min(n)
    }

    /// Builds all tiles in memory (no store interaction).
    pub fn build_segments(
        segments: &[&[u8]],
        params: &DissimParams,
        tile_rows: usize,
        threads: usize,
    ) -> Self {
        Self::build_with(
            segments,
            params,
            tile_rows,
            threads,
            |_, _| None,
            |_, _, _| {},
        )
    }

    /// Builds the tiled matrix, probing `fault_in` before computing each
    /// tile and reporting every finished tile to `persist`.
    ///
    /// `fault_in(t, rows)` may return a previously persisted tile; it is
    /// used only if its row span matches and its checksum verifies, so a
    /// stale or damaged store degrades to a recompute. `persist(t, tile,
    /// computed)` sees every tile in order with `computed` telling a
    /// fresh computation apart from a cache hit (callers typically write
    /// only computed tiles back to the store).
    pub fn build_with(
        segments: &[&[u8]],
        params: &DissimParams,
        tile_rows: usize,
        threads: usize,
        fault_in: impl FnMut(usize, &Range<usize>) -> Option<MatrixTile>,
        mut persist: impl FnMut(usize, &MatrixTile, bool),
    ) -> Self {
        let n = segments.len();
        let tile_rows = tile_rows.max(1);
        let mut tiles = Vec::with_capacity(Self::tile_count(n, tile_rows));
        Self::stream_segments(
            segments,
            params,
            tile_rows,
            threads,
            fault_in,
            |t, tile, computed| {
                persist(t, &tile, computed);
                tiles.push(tile);
            },
        );
        Self {
            n,
            tile_rows,
            tiles,
        }
    }

    /// Streams tiles in order without retaining them: the peak working
    /// set is one tile (plus the shared kernel context), which is the
    /// O(tile) build the RSS smoke test pins. `consume(t, tile,
    /// computed)` takes ownership of each tile — persist it, fold it
    /// into an accumulator (e.g. [`KnnAccumulator`]), or drop it.
    pub fn stream_segments(
        segments: &[&[u8]],
        params: &DissimParams,
        tile_rows: usize,
        threads: usize,
        mut fault_in: impl FnMut(usize, &Range<usize>) -> Option<MatrixTile>,
        mut consume: impl FnMut(usize, MatrixTile, bool),
    ) {
        let n = segments.len();
        let tile_rows = tile_rows.max(1);
        let ctx = PairContext::new(segments, params);
        for t in 0..Self::tile_count(n, tile_rows) {
            let span = Self::tile_span(n, tile_rows, t);
            let (tile, computed) = match fault_in(t, &span) {
                Some(tile) if tile.rows() == span && tile.verify() => (tile, false),
                _ => (MatrixTile::compute(&ctx, span, threads), true),
            };
            consume(t, tile, computed);
        }
    }

    /// Reassembles a tiled matrix from previously persisted tiles:
    /// `None` unless the tiles exactly cover `n` rows in order at the
    /// given geometry (each tile's checksum was already verified by
    /// [`MatrixTile::from_parts`]).
    pub fn from_tiles(n: usize, tile_rows: usize, tiles: Vec<MatrixTile>) -> Option<Self> {
        let tile_rows = tile_rows.max(1);
        if tiles.len() != Self::tile_count(n, tile_rows) {
            return None;
        }
        for (t, tile) in tiles.iter().enumerate() {
            if tile.rows() != Self::tile_span(n, tile_rows, t) {
                return None;
            }
        }
        Some(Self {
            n,
            tile_rows,
            tiles,
        })
    }

    /// Number of items covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers zero items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Rows per tile.
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// The tiles, in row order.
    pub fn tiles(&self) -> &[MatrixTile] {
        &self.tiles
    }

    /// The dissimilarity between items `i` and `j` (0 on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        if i == j {
            return 0.0;
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        self.tiles[hi / self.tile_rows].row(hi)[lo]
    }

    /// Concatenates the tiles into a [`CondensedMatrix`]: tiles are
    /// runs of lower-triangle rows in row order, which is the condensed
    /// layout. Bit-identical to [`CondensedMatrix::build_segments`] over
    /// the same segments, since every tile entry is the exact kernel
    /// value of its pair.
    pub fn assemble(&self) -> CondensedMatrix {
        let mut data = Cells::zeroed(tri(self.n));
        for tile in &self.tiles {
            let rows = tile.rows();
            data[tri(rows.start)..tri(rows.end)].copy_from_slice(tile.data());
        }
        CondensedMatrix::from_raw(self.n, data)
    }

    /// Builds the per-item k-nearest-neighbor table by folding per-tile
    /// partial accumulators over the `parkit` scheduler and merging them
    /// at the barrier. The k-smallest multiset union is partition- and
    /// order-independent, so the table is bit-identical to a serial fold
    /// — and to [`CondensedMatrix::knn_dissimilarities`] for every
    /// `k <= k_max`.
    ///
    /// # Panics
    ///
    /// Panics if `k_max` is 0.
    pub fn knn_table(&self, k_max: usize, threads: usize) -> KnnTable {
        assert!(k_max >= 1, "k_max must be at least 1");
        let n = self.n;
        let parts = parkit::map_parts(
            threads,
            self.tiles.len(),
            1,
            || KnnAccumulator::new(n, k_max),
            |acc, chunk| {
                for t in chunk {
                    self.tiles[t].feed(acc);
                }
            },
        );
        let mut parts = parts.into_iter();
        let mut acc = parts
            .next()
            .unwrap_or_else(|| KnnAccumulator::new(n, k_max));
        for part in parts {
            acc.merge(&part);
        }
        acc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: DissimParams = DissimParams {
        length_penalty: 0.59,
    };

    /// Deterministic mixed-length corpus: many distinct lengths,
    /// repeated values, empties.
    fn corpus(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let len = [0usize, 1, 2, 3, 4, 4, 7, 8, 12][i % 9];
                (0..len)
                    .map(|k| ((i * 31 + k * 17 + i * k) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn values(segs: &[Vec<u8>]) -> Vec<&[u8]> {
        segs.iter().map(|s| &s[..]).collect()
    }

    #[test]
    fn assembled_tiles_match_monolithic_build() {
        let segs = corpus(53);
        let vals = values(&segs);
        let mono = CondensedMatrix::build_segments(&vals, &P, 2);
        for tile_rows in [1usize, 3, 8, 53, 100] {
            for threads in [1usize, 4] {
                let tiled = TiledMatrix::build_segments(&vals, &P, tile_rows, threads);
                let assembled = tiled.assemble();
                assert_eq!(assembled.len(), mono.len());
                for (k, (a, b)) in assembled.values().iter().zip(mono.values()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "tile_rows = {tile_rows}, threads = {threads}, entry {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn get_matches_monolithic() {
        let segs = corpus(20);
        let vals = values(&segs);
        let mono = CondensedMatrix::build_segments(&vals, &P, 1);
        let tiled = TiledMatrix::build_segments(&vals, &P, 6, 2);
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(tiled.get(i, j).to_bits(), mono.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn tile_geometry_is_exhaustive_and_disjoint() {
        for n in [0usize, 1, 2, 7, 20] {
            for tile_rows in [1usize, 3, 7, 25] {
                let count = TiledMatrix::tile_count(n, tile_rows);
                let mut next = 0;
                for t in 0..count {
                    let span = TiledMatrix::tile_span(n, tile_rows, t);
                    assert_eq!(span.start, next, "n = {n}, tile_rows = {tile_rows}");
                    assert!(!span.is_empty());
                    next = span.end;
                }
                assert_eq!(next, n, "n = {n}, tile_rows = {tile_rows}");
            }
        }
    }

    #[test]
    fn extension_reuses_complete_tiles_and_appends() {
        let segs = corpus(41);
        let vals = values(&segs);
        let tile_rows = 6;
        let old_n = 27; // boundary inside tile 4 (rows 24..27 clamped)
        let old = TiledMatrix::build_segments(&vals[..old_n], &P, tile_rows, 2);

        // Warm build over the grown set, faulting in the old build's
        // tiles by span: complete tiles (span.end <= old_n) must be
        // reused; the clamped boundary tile and the new tiles computed.
        let mut computed = Vec::new();
        let grown = TiledMatrix::build_with(
            &vals,
            &P,
            tile_rows,
            2,
            |t, span| {
                old.tiles()
                    .get(t)
                    .filter(|tile| tile.rows() == *span)
                    .cloned()
            },
            |t, _tile, was_computed| {
                if was_computed {
                    computed.push(t);
                }
            },
        );
        // Tiles 0..4 (rows < 24) are complete at old_n = 27 and reused;
        // tile 4 (24..30 vs clamped 24..27) and tiles 5, 6 are computed.
        assert_eq!(computed, vec![4, 5, 6]);

        let cold = TiledMatrix::build_segments(&vals, &P, tile_rows, 1);
        assert_eq!(grown, cold, "pure tile append must be bit-identical");
    }

    #[test]
    fn damaged_fault_in_degrades_to_recompute() {
        let segs = corpus(19);
        let vals = values(&segs);
        let good = TiledMatrix::build_segments(&vals, &P, 5, 1);
        let mut recomputed = 0;
        let warm = TiledMatrix::build_with(
            &vals,
            &P,
            5,
            1,
            |t, _span| {
                let tile = &good.tiles()[t];
                let mut data = tile.data().to_vec();
                if t == 1 {
                    data[0] += 1.0; // corrupt one entry; checksum now stale
                }
                Some(MatrixTile {
                    rows: tile.rows(),
                    data,
                    checksum: tile.checksum(),
                })
            },
            |_, _, computed| {
                if computed {
                    recomputed += 1;
                }
            },
        );
        assert_eq!(recomputed, 1, "only the damaged tile is recomputed");
        assert_eq!(warm, good);
    }

    #[test]
    fn from_parts_validates_shape_and_checksum() {
        let segs = corpus(12);
        let vals = values(&segs);
        let tiled = TiledMatrix::build_segments(&vals, &P, 4, 1);
        let tile = &tiled.tiles()[1];
        let ok = MatrixTile::from_parts(tile.rows(), tile.data().to_vec(), tile.checksum());
        assert_eq!(ok.as_ref(), Some(tile));
        // Wrong length.
        assert!(MatrixTile::from_parts(tile.rows(), vec![0.0; 3], tile.checksum()).is_none());
        // Wrong checksum.
        assert!(
            MatrixTile::from_parts(tile.rows(), tile.data().to_vec(), tile.checksum() ^ 1)
                .is_none()
        );
    }

    #[test]
    fn from_tiles_validates_coverage() {
        let segs = corpus(10);
        let vals = values(&segs);
        let tiled = TiledMatrix::build_segments(&vals, &P, 4, 1);
        let tiles = tiled.tiles().to_vec();
        assert!(TiledMatrix::from_tiles(10, 4, tiles.clone()).is_some());
        assert!(TiledMatrix::from_tiles(10, 3, tiles.clone()).is_none());
        assert!(TiledMatrix::from_tiles(11, 4, tiles.clone()).is_none());
        let mut missing = tiles;
        missing.pop();
        assert!(TiledMatrix::from_tiles(10, 4, missing).is_none());
    }

    #[test]
    fn knn_table_matches_matrix_knn() {
        let segs = corpus(37);
        let vals = values(&segs);
        let mono = CondensedMatrix::build_segments(&vals, &P, 1);
        let tiled = TiledMatrix::build_segments(&vals, &P, 5, 2);
        for threads in [1usize, 4] {
            let table = tiled.knn_table(6, threads);
            for k in 1..=6usize {
                let want = mono.knn_dissimilarities(k);
                let got = table.knn_dissimilarities(k);
                assert_eq!(want.len(), got.len());
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "threads = {threads}, k = {k}, item {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn knn_accumulator_order_independent() {
        // Pushing in any order and merging partials yields the same
        // k-smallest lists.
        let ds = [0.9, 0.1, 0.5, 0.5, 0.2, 0.8, 0.0, 0.3];
        let mut serial = KnnAccumulator::new(1, 3);
        for &d in &ds {
            serial.push(0, d);
        }
        let mut a = KnnAccumulator::new(1, 3);
        let mut b = KnnAccumulator::new(1, 3);
        for (t, &d) in ds.iter().rev().enumerate() {
            if t % 2 == 0 {
                a.push(0, d);
            } else {
                b.push(0, d);
            }
        }
        a.merge(&b);
        let sa = serial.finish();
        let sb = a.finish();
        for k in 1..=3 {
            assert_eq!(sa.kth(0, k).to_bits(), sb.kth(0, k).to_bits(), "k = {k}");
        }
    }

    #[test]
    fn knn_table_pads_with_infinity() {
        // 3 items, k_max = 5 > n - 1: entries beyond the pair count stay
        // infinite.
        let segs = corpus(3);
        let vals = values(&segs);
        let tiled = TiledMatrix::build_segments(&vals, &P, 2, 1);
        let table = tiled.knn_table(5, 1);
        for i in 0..3 {
            assert!(table.kth(i, 3).is_finite() || table.kth(i, 3).is_infinite());
            assert!(table.kth(i, 4).is_infinite());
            assert!(table.kth(i, 5).is_infinite());
        }
    }

    #[test]
    fn streaming_build_sees_every_tile_once() {
        let segs = corpus(23);
        let vals = values(&segs);
        let mut seen = Vec::new();
        TiledMatrix::stream_segments(
            &vals,
            &P,
            4,
            1,
            |_, _| None,
            |t, tile, computed| {
                assert!(computed);
                seen.push((t, tile.rows()));
            },
        );
        assert_eq!(seen.len(), TiledMatrix::tile_count(23, 4));
        for (t, span) in &seen {
            assert_eq!(*span, TiledMatrix::tile_span(23, 4, *t));
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty = TiledMatrix::build_segments(&[], &P, 4, 2);
        assert!(empty.is_empty());
        assert!(empty.tiles().is_empty());
        assert_eq!(empty.assemble().len(), 0);
        let one = TiledMatrix::build_segments(&[b"ab".as_slice()], &P, 4, 2);
        assert_eq!(one.len(), 1);
        assert_eq!(one.assemble().len(), 1);
    }
}
