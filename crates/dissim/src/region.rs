//! ε-region tables: every item's neighbors within one radius, stored
//! flat, for the density-based clusterers.
//!
//! DBSCAN reads each item's ε-region once for its core test and again,
//! for core items, while it grows a cluster; §III-E's trimmed rerun
//! reads the same regions cut at a smaller ε′; OPTICS reads every
//! region at its generating distance. A [`RegionTable`] answers all of
//! that from one pass of region queries
//! ([`NeighborProvider::region_table`](crate::NeighborProvider::region_table)):
//! an entry with `d <= ε′` of a table built at radius `ε >= ε′` is
//! exactly an entry of the ε′-region, so a smaller radius is answered
//! by filtering rows, with no kernel call.
//!
//! **Layout.** Entries are struct-of-arrays — a `f64` dissimilarity and
//! a `u32` neighbor id, 12 bytes per entry — in two parts per row:
//!
//! - the row's *query entries*, written by whichever worker answered
//!   the item's query into that worker's own flat buffer
//!   ([`parkit::map_parts`]), located through a per-item span; the
//!   buffers are kept as written, so no block is ever copied into a
//!   second table;
//! - the row's *mirrored entries*, a CSR (`offsets`, `dists`, `ids`) of
//!   pairs another item's query found, for backends that read a pair
//!   from one end only and emit it into both rows: the matrix backend's
//!   every pair, read from the later item's stored row, and the
//!   stratified index's cross-stratum pairs.
//!
//! Which buffer holds a row depends on the schedule; a row's content,
//! and its emission order, do not. Emission order carries no meaning:
//! every consumer depends only on a row's set of pairs.

use std::ops::Range;

use crate::provider::NeighborProvider;

/// Minimum rows per stolen work chunk when a table is filled.
const MIN_CHUNK: usize = crate::provider::BATCH_MIN_CHUNK;

/// Struct-of-arrays entries: `dists[t]` is the dissimilarity to
/// neighbor `ids[t]`.
#[derive(Debug, Default)]
struct Entries {
    dists: Vec<f64>,
    ids: Vec<u32>,
}

/// Where one row's query entries live: `parts[part]`, `start..start + len`.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    part: u32,
    len: u32,
    start: usize,
}

/// One worker's output while a table fills: its entries, the rows it
/// answered with their entry counts in answer order, and its scratch.
struct Part<S> {
    scratch: S,
    entries: Entries,
    rows: Vec<(u32, u32)>,
}

/// Every item's neighbors within one radius, self excluded. See the
/// module docs for the layout.
#[derive(Debug)]
pub struct RegionTable {
    radius: f64,
    spans: Vec<Span>,
    parts: Vec<Entries>,
    /// `n + 1` offsets into `mirror`, or empty when no row has mirrored
    /// entries.
    mirror_offsets: Vec<usize>,
    mirror: Entries,
}

/// A sink for one row's query entries.
pub(crate) struct RowSink<'a> {
    entries: &'a mut Entries,
}

impl RowSink<'_> {
    /// Appends neighbor `id` at dissimilarity `d`.
    #[inline]
    pub(crate) fn push(&mut self, d: f64, id: u32) {
        self.entries.dists.push(d);
        self.entries.ids.push(id);
    }
}

impl RegionTable {
    /// Builds a table over `n` items at `radius` on `threads` workers:
    /// `fill(item, scratch, sink)` writes the item's query entries. Each
    /// worker slot gets one `scratch()`, reused across its rows, and
    /// appends every row it answers to its own buffer.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` (ids are `u32`) or a row holds
    /// more than `u32::MAX` entries.
    pub(crate) fn from_rows<S, F>(
        n: usize,
        radius: f64,
        threads: usize,
        scratch: impl Fn() -> S,
        fill: F,
    ) -> Self
    where
        S: Send,
        F: Fn(usize, &mut S, &mut RowSink<'_>) + Sync,
    {
        assert!(u32::try_from(n).is_ok(), "too many items for u32 ids");
        let filled = parkit::map_parts(
            threads,
            n,
            MIN_CHUNK,
            || Part {
                scratch: scratch(),
                entries: Entries::default(),
                rows: Vec::new(),
            },
            |part: &mut Part<S>, items: Range<usize>| {
                for item in items {
                    let before = part.entries.ids.len();
                    fill(
                        item,
                        &mut part.scratch,
                        &mut RowSink {
                            entries: &mut part.entries,
                        },
                    );
                    let len = u32::try_from(part.entries.ids.len() - before)
                        .expect("a region holds at most u32::MAX entries");
                    part.rows.push((item as u32, len));
                }
            },
        );
        let mut spans = vec![Span::default(); n];
        let mut parts = Vec::with_capacity(filled.len());
        for (p, part) in filled.into_iter().enumerate() {
            let mut start = 0;
            for (item, len) in part.rows {
                spans[item as usize] = Span {
                    part: p as u32,
                    len,
                    start,
                };
                start += len as usize;
            }
            parts.push(part.entries);
        }
        Self {
            radius,
            spans,
            parts,
            mirror_offsets: Vec::new(),
            mirror: Entries::default(),
        }
    }

    /// Builds `provider`'s table at radius `eps` from one
    /// [`neighbors_within`](NeighborProvider::neighbors_within) scan per
    /// item, on `threads` workers.
    pub fn from_scans<P: NeighborProvider + Sync + ?Sized>(
        provider: &P,
        eps: f64,
        threads: usize,
    ) -> Self {
        Self::from_rows(provider.len(), eps, threads, Vec::new, |i, buf, sink| {
            provider.neighbors_within(i, eps, buf);
            for &(d, j) in buf.iter() {
                sink.push(d, j);
            }
        })
    }

    /// Completes a table whose queries evaluated some pairs from one end
    /// only: every query entry `(d, j)` of row `i` with `one_sided(i, j)`
    /// is also an entry `(d, i)` of row `j`. The mirrored entries are
    /// placed by a counting-sort transpose, rows visited in index order,
    /// so each mirrored row is deterministic.
    pub(crate) fn mirror_from_one_side(&mut self, one_sided: impl Fn(usize, usize) -> bool) {
        let n = self.spans.len();
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            for &j in self.query_entries(i).1 {
                if one_sided(i, j as usize) {
                    offsets[j as usize + 1] += 1;
                }
            }
        }
        for j in 0..n {
            offsets[j + 1] += offsets[j];
        }
        let total = offsets[n];
        if total == 0 {
            return;
        }
        let mut dists = vec![0.0; total];
        let mut ids = vec![0u32; total];
        let mut next = offsets.clone();
        for i in 0..n {
            let (ds, js) = self.query_entries(i);
            for (&d, &j) in ds.iter().zip(js) {
                if one_sided(i, j as usize) {
                    let slot = &mut next[j as usize];
                    dists[*slot] = d;
                    ids[*slot] = i as u32;
                    *slot += 1;
                }
            }
        }
        self.mirror_offsets = offsets;
        self.mirror = Entries { dists, ids };
    }

    /// Number of items covered.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the table covers zero items.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The radius the table was built at: every pair within it is an
    /// entry, in both rows.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Total entries over all rows.
    pub fn entries(&self) -> usize {
        self.parts.iter().map(|p| p.ids.len()).sum::<usize>() + self.mirror.ids.len()
    }

    fn query_entries(&self, i: usize) -> (&[f64], &[u32]) {
        let s = self.spans[i];
        let part = &self.parts[s.part as usize];
        let r = s.start..s.start + s.len as usize;
        (&part.dists[r.clone()], &part.ids[r])
    }

    fn mirrored_entries(&self, i: usize) -> (&[f64], &[u32]) {
        if self.mirror_offsets.is_empty() {
            return (&[], &[]);
        }
        let r = self.mirror_offsets[i]..self.mirror_offsets[i + 1];
        (&self.mirror.dists[r.clone()], &self.mirror.ids[r])
    }

    /// Item `i`'s neighbors within the table's radius as
    /// `(dissimilarity, neighbor)` pairs, self excluded. The order is
    /// deterministic and carries no meaning.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (f64, u32)> + '_ {
        let (qd, qi) = self.query_entries(i);
        let (md, mi) = self.mirrored_entries(i);
        qd.iter()
            .copied()
            .zip(qi.iter().copied())
            .chain(md.iter().copied().zip(mi.iter().copied()))
    }

    /// Item `i`'s neighbors within `eps` (at most the table's radius):
    /// the row filtered to `d <= eps`.
    pub fn within(&self, i: usize, eps: f64) -> impl Iterator<Item = (f64, u32)> + '_ {
        self.row(i).filter(move |&(d, _)| d <= eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points on a line; row `i` lists every `j` within `radius`.
    fn line_table(points: &[f64], radius: f64, threads: usize) -> RegionTable {
        RegionTable::from_rows(
            points.len(),
            radius,
            threads,
            || (),
            |i, _, sink| {
                for (j, &p) in points.iter().enumerate() {
                    let d = (points[i] - p).abs();
                    if j != i && d <= radius {
                        sink.push(d, j as u32);
                    }
                }
            },
        )
    }

    fn sorted_row(t: &RegionTable, i: usize) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = t.row(i).map(|(d, j)| (d.to_bits(), j)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn rows_do_not_depend_on_threads() {
        let points: Vec<f64> = (0..100).map(|i| ((i * 37) % 101) as f64 / 10.0).collect();
        let one = line_table(&points, 1.5, 1);
        let four = line_table(&points, 1.5, 4);
        assert_eq!(one.len(), 100);
        assert_eq!(one.entries(), four.entries());
        for i in 0..points.len() {
            // Rows are the same sequence, not just the same set.
            assert!(one.row(i).eq(four.row(i)), "row {i}");
            assert!(one.within(i, 0.5).all(|(d, _)| d <= 0.5));
        }
    }

    #[test]
    fn mirroring_completes_one_sided_rows() {
        let points: Vec<f64> = (0..60).map(|i| ((i * 13) % 61) as f64 / 7.0).collect();
        let full = line_table(&points, 2.0, 1);
        for threads in [1, 2, 4] {
            // Each pair emitted only from its higher-indexed end.
            let mut half = RegionTable::from_rows(
                points.len(),
                2.0,
                threads,
                || (),
                |i, _, sink| {
                    for (j, &p) in points.iter().enumerate().take(i) {
                        let d = (points[i] - p).abs();
                        if d <= 2.0 {
                            sink.push(d, j as u32);
                        }
                    }
                },
            );
            half.mirror_from_one_side(|i, j| j < i);
            assert_eq!(half.entries(), full.entries());
            for i in 0..points.len() {
                assert_eq!(sorted_row(&half, i), sorted_row(&full, i), "row {i}");
            }
        }
    }

    #[test]
    fn empty_table() {
        let t = line_table(&[], 1.0, 4);
        assert!(t.is_empty());
        assert_eq!(t.entries(), 0);
    }
}
