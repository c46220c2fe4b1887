//! Condensed matrices stored as chains of tail links.
//!
//! A condensed matrix is the lower triangle, row-major, so the matrix
//! over the first `n_old` items of a growing item sequence is the
//! leading `n_old(n_old−1)/2` cells of the grown one, and growth
//! appends rows. The store persists a grown matrix the same way: a
//! **tail link** holds its parent's key, `n_old`, `n` and the cells of
//! rows `n_old..n` only, so an append round writes what it adds, not
//! the whole O(n²) triangle again.
//!
//! [`ArtifactStore::get_matrix`] walks a chain from its tip back to the
//! whole matrix at its root, checking every file's frame and head
//! before any cell is read, then decodes each file straight into its
//! range of one buffer of the final size. Every parent must be of the
//! same kind (the frame checks it) and must hold exactly the rows
//! before its child's (`n` of the parent equals `n_old` of the child,
//! and `n_old < n` within every link), so the walk can neither loop nor
//! allocate beyond what the files hold. A chain is at most
//! [`MAX_TAIL_LINKS`] links long: a matrix grown from a tip that deep is
//! written whole, and a walk that meets more links is a miss. A
//! missing, damaged or inconsistent file anywhere on the chain makes
//! the whole read a miss — the caller recomputes, bit-identically.

use crate::artifacts::{encode_link, link_payload_len, MatrixHead};
use crate::codec::{Reader, Writer};
use crate::{ArtifactStore, Encode, Key, Kind};
use dissim::{CondensedMatrix, MatrixView};
use std::sync::atomic::Ordering;

/// The most tail links one stored matrix may be assembled from. A
/// longer chain would make a read open more files for less data each;
/// past it the grown matrix is written whole, which starts a new chain.
pub const MAX_TAIL_LINKS: usize = 4;

/// The tip of a stored chain: what a tail link onto the matrix names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainTip {
    /// The key the matrix is stored under.
    pub key: Key,
    /// Its item count.
    pub len: usize,
    /// The tail links it was assembled from (0 for a whole matrix).
    pub links: usize,
}

/// A matrix read from the store, with the tip of the chain it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredMatrix {
    /// The assembled matrix.
    pub matrix: CondensedMatrix,
    /// Where it is stored.
    pub tip: ChainTip,
}

/// A tail link: the rows `view` holds past its parent's.
struct TailLink<'a> {
    parent: Key,
    n_old: usize,
    view: MatrixView<'a>,
}

impl Encode for TailLink<'_> {
    const STORED_AS: Kind = Kind::DISSIM;

    fn encode_payload(&self, w: &mut Writer) {
        encode_link(self.view, &self.parent, self.n_old, w);
    }

    fn encoded_len_hint(&self) -> usize {
        link_payload_len(self.view.len(), self.n_old)
    }
}

impl ArtifactStore {
    /// Reads the matrix stored under `key`, whole or as a chain of tail
    /// links, counting one hit or miss for the whole read.
    pub fn get_matrix(&self, key: &Key) -> Option<StoredMatrix> {
        match self.read_chain(key) {
            Some((stored, keys)) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                for k in &keys {
                    self.touch_lru(&self.file_name(Kind::DISSIM, k));
                }
                Some(stored)
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// [`get_matrix`](Self::get_matrix) without touching the hit/miss
    /// counters, for speculative prefix probes.
    pub fn get_matrix_quiet(&self, key: &Key) -> Option<StoredMatrix> {
        self.read_chain(key).map(|(stored, _)| stored)
    }

    /// Stores `view` under `key`: as a tail link onto `parent` when the
    /// view grows it (`view` over more items, its leading cells the
    /// parent's matrix) and the parent's chain is shorter than
    /// [`MAX_TAIL_LINKS`], else whole. See [`put`](Self::put) for
    /// failures.
    pub fn put_matrix(&self, key: &Key, view: MatrixView<'_>, parent: Option<&ChainTip>) -> bool {
        match parent.filter(|p| p.links < MAX_TAIL_LINKS && p.len < view.len()) {
            Some(p) => self.put(
                key,
                &TailLink {
                    parent: p.key,
                    n_old: p.len,
                    view,
                },
            ),
            None => self.put(key, &view),
        }
    }

    /// The chain walk: every file from the tip to the root is loaded and
    /// its head checked first, then the cells are decoded into one
    /// buffer. Returns the keys read, tip first.
    fn read_chain(&self, key: &Key) -> Option<(StoredMatrix, Vec<Key>)> {
        let mut files = Vec::new();
        let mut keys = Vec::new();
        let mut next = Some(*key);
        let mut want_n = None;
        while let Some(k) = next {
            if files.len() > MAX_TAIL_LINKS {
                return None;
            }
            let file = self.load(Kind::DISSIM, &k)?;
            let (head, _) = MatrixHead::parse(file.payload())?;
            if want_n.is_some_and(|n| n != head.n) {
                return None;
            }
            want_n = Some(head.n_old);
            next = head.parent;
            files.push(file);
            keys.push(k);
        }
        let n = MatrixHead::parse(files.first()?.payload())?.0.n;
        let matrix = CondensedMatrix::try_filled(n, |out| {
            for file in &files {
                let (head, cells) = MatrixHead::parse(file.payload())?;
                Reader::new(cells).f64s_into(&mut out[head.cells()])?;
            }
            Some(())
        })?;
        let tip = ChainTip {
            key: *key,
            len: n,
            links: files.len() - 1,
        };
        Some((StoredMatrix { matrix, tip }, keys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir = std::env::temp_dir().join(format!("store-chain-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).expect("open temp store")
    }

    fn full(n: usize) -> CondensedMatrix {
        CondensedMatrix::build(n, |i, j| (i * 31 + j * 7) as f64 / 17.0)
    }

    fn bits(m: &CondensedMatrix) -> Vec<u64> {
        m.values().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn links_grow_a_chain_up_to_the_cap_then_restart_whole() {
        let store = temp_store("cap");
        let m = full(40);
        let mut parent: Option<ChainTip> = None;
        for (step, n) in [10usize, 14, 19, 25, 30, 36, 40].into_iter().enumerate() {
            let key = Key([step as u8 + 1; 16]);
            assert!(store.put_matrix(&key, m.prefix(n), parent.as_ref()));
            let stored = store.get_matrix(&key).expect("chain reads back");
            assert_eq!(
                bits(&stored.matrix),
                bits(&m.prefix(n).to_matrix()),
                "n = {n}"
            );
            // Whole at 10, links at 14..30, whole again at 36 (the tip at
            // 30 is four links deep), a link at 40.
            let want_links = [0, 1, 2, 3, 4, 0, 1][step];
            assert_eq!(
                stored.tip,
                ChainTip {
                    key,
                    len: n,
                    links: want_links
                }
            );
            // Only the whole roots decode as a plain matrix.
            assert_eq!(
                store.get_quiet::<CondensedMatrix>(&key).is_some(),
                want_links == 0
            );
            parent = Some(stored.tip);
        }
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes), (7, 0, 7));
    }

    #[test]
    fn a_link_writes_only_the_rows_it_adds() {
        let store = temp_store("size");
        let m = full(300);
        assert!(store.put_matrix(&Key([1; 16]), m.prefix(290), None));
        let root = store.get_matrix(&Key([1; 16])).expect("root").tip;
        assert!(store.put_matrix(&Key([2; 16]), m.view(), Some(&root)));
        let size = |k: u8| {
            std::fs::metadata(store.file_path(Kind::DISSIM, &Key([k; 16])))
                .unwrap()
                .len()
        };
        let added = (300 * 299 / 2 - 290 * 289 / 2) * 8;
        assert!(size(2) < added as u64 + 100, "link is {} bytes", size(2));
        assert!(size(1) > 10 * size(2));
    }

    #[test]
    fn a_link_that_does_not_grow_its_parent_is_written_whole() {
        let store = temp_store("nogrow");
        let m = full(12);
        assert!(store.put_matrix(&Key([1; 16]), m.view(), None));
        let tip = store.get_matrix(&Key([1; 16])).expect("whole").tip;
        assert!(store.put_matrix(&Key([2; 16]), m.view(), Some(&tip)));
        assert_eq!(store.get_matrix(&Key([2; 16])).expect("whole").tip.links, 0);
    }
}
