//! A minimal scoped work-stealing scheduler for disjoint-output data
//! parallelism.
//!
//! Every parallel stage of the pipeline has the same shape: an index
//! space `0..items` whose elements are processed by a pure function
//! writing to pre-allocated, per-index disjoint output slots. The ad-hoc
//! `thread::scope` + `AtomicUsize` blocks that used to be copy-pasted
//! across `dissim::matrix`, `dissim::kernel`, and `dissim::neighbor`
//! shared that shape but not their load-balancing logic; this crate
//! centralizes it behind these entry points:
//!
//! - [`for_each_chunk`]: covers `0..items` with disjoint, non-empty
//!   chunks, each handed to the callback exactly once.
//! - [`map_parts`]: like [`for_each_chunk`] but each worker folds the
//!   chunks it processes into its own accumulator; the per-worker
//!   accumulators are returned for the caller to merge.
//! - [`map_blocks`]: the disjoint-slot write — each chunk's output
//!   block placed by its first index, concatenated in index order — as
//!   a safe map over [`map_parts`]; [`map_indexed`] is its one result
//!   per index form.
//!
//! # Scheduling
//!
//! The index space is split evenly into one contiguous range per
//! worker. Each worker owns a *range deque* — a single packed
//! `AtomicU64` holding its `(lo, hi)` bounds:
//!
//! - the **owner** claims adaptively sized chunks from the *front*
//!   (`max(min_chunk, remaining / 8)`, so chunks shrink as the range
//!   drains and stragglers stay small);
//! - **thieves** claim roughly half the range from the *back* once
//!   their own deque is empty, install the loot as their new range, and
//!   go back to owner mode.
//!
//! All transitions go through compare-exchange on the packed word, so
//! any interleaving of pops and steals yields disjoint ranges. The
//! packed value fully encodes the work, which makes the classic ABA
//! hazard harmless: a stale compare-exchange can only succeed if the
//! deque again holds exactly the range the thief saw, in which case the
//! steal is valid for the current content.
//!
//! # Determinism
//!
//! The scheduler guarantees *exactly-once coverage*, not a reproducible
//! chunk order. Callers obtain deterministic (bit-identical) results by
//! construction instead: workers write only to disjoint output slots
//! indexed by item, or fold into per-worker accumulators whose merge is
//! order-independent (minima, k-smallest multisets, integer sums).

#![forbid(unsafe_code)]

pub mod pool;

pub use pool::Pool;

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Largest supported index space: bounds are packed as two `u32`s.
pub const MAX_ITEMS: usize = u32::MAX as usize;

#[inline]
fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

#[inline]
fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// One worker's range deque: a packed `(lo, hi)` pair. The owner pops
/// chunks from the front, thieves halve it from the back.
struct RangeDeque {
    range: AtomicU64,
}

impl RangeDeque {
    fn new(r: Range<usize>) -> Self {
        Self {
            range: AtomicU64::new(pack(r.start as u32, r.end as u32)),
        }
    }

    /// Owner side: claim up to `max(min_chunk, remaining / 8)` items
    /// from the front.
    fn pop_front(&self, min_chunk: usize) -> Option<Range<usize>> {
        let mut cur = self.range.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let remaining = (hi - lo) as usize;
            let take = remaining.min((remaining / 8).max(min_chunk)) as u32;
            match self.range.compare_exchange_weak(
                cur,
                pack(lo + take, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo as usize..(lo + take) as usize),
                Err(v) => cur = v,
            }
        }
    }

    /// Thief side: claim the back half (rounded up) of the range.
    fn steal_back(&self) -> Option<Range<usize>> {
        let mut cur = self.range.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let steal = (hi - lo).div_ceil(2);
            match self.range.compare_exchange_weak(
                cur,
                pack(lo, hi - steal),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((hi - steal) as usize..hi as usize),
                Err(v) => cur = v,
            }
        }
    }

    /// Owner side: install stolen loot into this (empty) deque. Only
    /// the owner ever grows its deque, so a plain store is safe: any
    /// concurrent thief either saw the old (empty) value and fails its
    /// compare-exchange, or sees the new range and steals from it.
    fn install(&self, r: &Range<usize>) {
        self.range
            .store(pack(r.start as u32, r.end as u32), Ordering::Release);
    }
}

/// Sets the abort flag if the worker unwinds, so sibling workers spin-
/// waiting for `remaining == 0` exit instead of deadlocking the scope.
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Splits `0..items` into `parts` contiguous ranges differing in length
/// by at most one.
fn even_split(items: usize, parts: usize) -> Vec<Range<usize>> {
    let base = items / parts;
    let extra = items % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for w in 0..parts {
        let len = base + usize::from(w < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

struct Shared<'a, F> {
    deques: Vec<RangeDeque>,
    remaining: AtomicUsize,
    abort: AtomicBool,
    min_chunk: usize,
    f: &'a F,
}

fn worker<F: Fn(Range<usize>) + Sync>(w: usize, shared: &Shared<'_, F>) {
    let _guard = AbortOnPanic(&shared.abort);
    let me = &shared.deques[w];
    let n_workers = shared.deques.len();
    loop {
        while let Some(chunk) = me.pop_front(shared.min_chunk) {
            let len = chunk.len();
            (shared.f)(chunk);
            shared.remaining.fetch_sub(len, Ordering::AcqRel);
        }
        if shared.abort.load(Ordering::Acquire) {
            return;
        }
        // Own deque drained: go stealing, round-robin from the right.
        let mut stole = false;
        for off in 1..n_workers {
            if let Some(loot) = shared.deques[(w + off) % n_workers].steal_back() {
                me.install(&loot);
                stole = true;
                break;
            }
        }
        if !stole {
            if shared.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            // Other workers still hold in-flight chunks (or loot not yet
            // installed); yield until work reappears or everything is done.
            std::thread::yield_now();
        }
    }
}

/// Covers `0..items` with disjoint, non-empty chunks, invoking `f` on
/// each chunk exactly once across `threads` workers (the calling thread
/// is one of them).
///
/// `min_chunk` bounds the scheduling granularity from below: owners
/// claim `max(min_chunk, remaining / 8)` items at a time, so per-chunk
/// costs (claiming, cache effects of `f`'s writes) amortize while the
/// tail still splits finely enough to balance irregular item costs.
///
/// With `threads <= 1`, `items == 0`, or fewer than two chunks of work,
/// `f` runs inline on the calling thread — no threads are spawned.
///
/// # Panics
///
/// Panics if `items` exceeds [`MAX_ITEMS`], or propagates the first
/// panic raised by `f` (remaining chunks may be skipped, but all
/// workers terminate).
pub fn for_each_chunk<F>(threads: usize, items: usize, min_chunk: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    assert!(items <= MAX_ITEMS, "index space exceeds MAX_ITEMS");
    if items == 0 {
        return;
    }
    let min_chunk = min_chunk.max(1);
    // No point in more workers than minimum-size chunks.
    let threads = threads.clamp(1, items.div_ceil(min_chunk));
    if threads == 1 {
        f(0..items);
        return;
    }
    let shared = Shared {
        deques: even_split(items, threads)
            .into_iter()
            .map(RangeDeque::new)
            .collect(),
        remaining: AtomicUsize::new(items),
        abort: AtomicBool::new(false),
        min_chunk,
        f: &f,
    };
    std::thread::scope(|scope| {
        for w in 1..threads {
            let shared = &shared;
            scope.spawn(move || worker(w, shared));
        }
        worker(0, &shared);
    });
}

/// Like [`for_each_chunk`], but each worker threads a private
/// accumulator (seeded by `init`) through the chunks it processes; the
/// per-worker accumulators are returned for the caller to merge.
///
/// Which chunks land in which accumulator is **not** deterministic —
/// use this only for reductions whose merge is order- and
/// partition-independent (minima, k-smallest multisets, integer sums),
/// which is exactly what makes the final result bit-identical to a
/// serial fold.
pub fn map_parts<T, F>(
    threads: usize,
    items: usize,
    min_chunk: usize,
    init: impl Fn() -> T,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(&mut T, Range<usize>) + Sync,
{
    if items == 0 {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    let threads = threads.clamp(1, items.div_ceil(min_chunk));
    if threads == 1 {
        let mut acc = init();
        f(&mut acc, 0..items);
        return vec![acc];
    }
    let mut accs: Vec<T> = (0..threads).map(|_| init()).collect();
    {
        let slots: Vec<std::sync::Mutex<&mut T>> =
            accs.iter_mut().map(std::sync::Mutex::new).collect();
        let next = AtomicUsize::new(0);
        for_each_chunk(threads, items, min_chunk, |chunk| {
            // Each worker processes many chunks; grabbing the first free
            // slot per chunk keeps accumulators exclusive without tying
            // them to worker identity. Contention is rare (slot count ==
            // worker count) and the merge is partition-independent anyway.
            let start = next.fetch_add(1, Ordering::Relaxed);
            loop {
                for off in 0..slots.len() {
                    if let Ok(mut guard) = slots[(start + off) % slots.len()].try_lock() {
                        f(&mut guard, chunk);
                        return;
                    }
                }
                std::thread::yield_now();
            }
        });
    }
    accs
}

/// Maps `0..items` chunk by chunk on `threads` workers and returns the
/// chunks' outputs concatenated in index order: `f(scratch, chunk, out)`
/// appends the results for `chunk` to `out`, which is empty for every
/// chunk. When `f`'s output for a range is the concatenation of its
/// outputs for the range's pieces (a row per index, a block of rows per
/// range), the result equals the serial `f(scratch, 0..items, out)`
/// whatever the schedule.
///
/// Built on [`map_parts`]: every chunk's output is one block tagged
/// with the chunk's first index, and the disjoint blocks are
/// concatenated in index order, so no two workers ever write the same
/// slot. Each worker slot gets one `scratch()`, reused across the
/// chunks it maps (traversal stacks, heaps, alignment buffers); `f`
/// must not let its output depend on what earlier calls left there.
pub fn map_blocks<S, T, F>(
    threads: usize,
    items: usize,
    min_chunk: usize,
    scratch: impl Fn() -> S,
    f: F,
) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, Range<usize>, &mut Vec<T>) + Sync,
{
    let mut blocks: Vec<(usize, Vec<T>)> = map_parts(
        threads,
        items,
        min_chunk,
        || (scratch(), Vec::new()),
        |(s, blocks): &mut (S, Vec<(usize, Vec<T>)>), chunk| {
            let start = chunk.start;
            let mut block = Vec::new();
            f(s, chunk, &mut block);
            blocks.push((start, block));
        },
    )
    .into_iter()
    .flat_map(|(_, blocks)| blocks)
    .collect();
    blocks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(blocks.iter().map(|(_, b)| b.len()).sum());
    for (_, block) in blocks {
        out.extend(block);
    }
    out
}

/// Maps every index of `0..items` to its own result on `threads`
/// workers and returns the results in index order: slot `i` holds
/// `f(scratch, i)`, so the output equals a serial map whatever the
/// schedule. The [`map_blocks`] of one result per index; `scratch` is
/// reused as there.
pub fn map_indexed<S, T, F>(
    threads: usize,
    items: usize,
    min_chunk: usize,
    scratch: impl Fn() -> S,
    f: F,
) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    map_blocks(threads, items, min_chunk, scratch, |s, chunk, out| {
        out.extend(chunk.map(|i| f(s, i)));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU32;

    fn coverage(threads: usize, items: usize, min_chunk: usize) {
        let hits: Vec<AtomicU32> = (0..items).map(|_| AtomicU32::new(0)).collect();
        for_each_chunk(threads, items, min_chunk, |chunk| {
            assert!(!chunk.is_empty(), "empty chunk handed out");
            assert!(chunk.end <= items, "chunk out of bounds");
            for i in chunk {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "index {i} covered {} times",
                h.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn covers_every_index_exactly_once() {
        for threads in [1, 2, 3, 4, 8] {
            for items in [0, 1, 2, 3, 7, 64, 1000, 4097] {
                for min_chunk in [1, 3, 16, 1024] {
                    coverage(threads, items, min_chunk);
                }
            }
        }
    }

    #[test]
    fn disjoint_slot_writes_are_deterministic() {
        let n = 2000;
        let mut out = vec![0u64; n];
        {
            let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            for_each_chunk(5, n, 4, |chunk| {
                for i in chunk {
                    slots[i].store((i as u64) * 3 + 1, Ordering::Relaxed);
                }
            });
            for (o, s) in out.iter_mut().zip(&slots) {
                *o = s.load(Ordering::Relaxed);
            }
        }
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64) * 3 + 1);
        }
    }

    #[test]
    fn skewed_workloads_complete() {
        // Front-loaded costs force stealing: the first indices spin.
        let items = 800;
        let done = AtomicUsize::new(0);
        for_each_chunk(4, items, 1, |chunk| {
            for i in chunk {
                if i < 8 {
                    for _ in 0..50_000 {
                        std::hint::black_box(i);
                    }
                }
                done.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), items);
    }

    #[test]
    fn serial_path_runs_inline() {
        let mut called = 0;
        let calls = AtomicUsize::new(0);
        for_each_chunk(1, 10, 1, |chunk| {
            assert_eq!(chunk, 0..10);
            calls.fetch_add(1, Ordering::Relaxed);
        });
        called += calls.load(Ordering::Relaxed);
        assert_eq!(called, 1);
    }

    #[test]
    fn map_parts_reduces_to_serial_fold() {
        for threads in [1, 2, 4] {
            let parts = map_parts(
                threads,
                1000,
                8,
                || 0u64,
                |acc, chunk| {
                    for i in chunk {
                        *acc += i as u64;
                    }
                },
            );
            let total: u64 = parts.into_iter().sum();
            assert_eq!(total, (0..1000u64).sum::<u64>(), "threads = {threads}");
        }
    }

    proptest! {
        #[test]
        fn map_indexed_equals_serial_map(items in 0usize..300, min_chunk in 1usize..64) {
            let serial: Vec<u64> = (0..items).map(|i| (i as u64) * 7 + 3).collect();
            for threads in [1usize, 2, 4] {
                let got = map_indexed(
                    threads,
                    items,
                    min_chunk,
                    || 0u64,
                    |calls, i| {
                        *calls += 1;
                        (i as u64) * 7 + 3
                    },
                );
                prop_assert_eq!(&got, &serial, "threads = {}", threads);
            }
        }
    }

    proptest! {
        #[test]
        fn map_blocks_equals_serial_concatenation(items in 0usize..300, min_chunk in 1usize..64) {
            // Index i contributes i % 3 entries: blocks of uneven and
            // zero length must still land in index order.
            let emit = |chunk: Range<usize>, out: &mut Vec<usize>| {
                for i in chunk {
                    out.extend(std::iter::repeat_n(i, i % 3));
                }
            };
            let mut serial = Vec::new();
            emit(0..items, &mut serial);
            for threads in [1usize, 2, 4] {
                let got = map_blocks(threads, items, min_chunk, || (), |_, chunk, out| emit(chunk, out));
                prop_assert_eq!(&got, &serial, "threads = {}", threads);
            }
        }
    }

    #[test]
    fn map_indexed_covers_tiny_inputs() {
        for threads in [1usize, 2, 4] {
            let empty: Vec<usize> = map_indexed(threads, 0, 8, || (), |_, i| i);
            assert!(empty.is_empty());
            // Fewer items than one minimum chunk: a single inline chunk.
            let few = map_indexed(
                threads,
                3,
                8,
                || 0usize,
                |seen, i| {
                    *seen += 1;
                    (i, *seen)
                },
            );
            assert_eq!(few, vec![(0, 1), (1, 2), (2, 3)], "threads = {threads}");
        }
    }

    #[test]
    fn map_parts_empty_input() {
        let parts = map_parts(4, 0, 1, || 0u32, |_, _| panic!("no work expected"));
        assert!(parts.is_empty());
    }

    #[test]
    fn panics_propagate_without_hanging() {
        // A panic on any worker must unwind out of the scope (possibly
        // re-raised as "a scoped thread panicked") instead of leaving
        // sibling workers spinning on `remaining > 0` forever.
        let result = std::panic::catch_unwind(|| {
            for_each_chunk(4, 100, 1, |chunk| {
                if chunk.contains(&17) {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err(), "worker panic must propagate");
    }

    #[test]
    fn deque_pop_and_steal_are_disjoint() {
        let d = RangeDeque::new(0..100);
        let a = d.pop_front(10).unwrap();
        let b = d.steal_back().unwrap();
        let c = d.pop_front(10).unwrap();
        assert!(a.end <= b.start || b.end <= a.start);
        assert!(c.end <= b.start || b.end <= c.start);
        assert!(a.end <= c.start || c.end <= a.start);
    }

    #[test]
    fn adaptive_chunks_shrink_toward_the_tail() {
        let d = RangeDeque::new(0..1024);
        let first = d.pop_front(1).unwrap().len();
        let mut last = first;
        while let Some(c) = d.pop_front(1) {
            last = c.len();
        }
        assert!(first >= last, "chunks should not grow as the range drains");
        assert_eq!(last, 1, "the tail degrades to single items");
    }
}
