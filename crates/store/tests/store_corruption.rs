//! Golden-file round-trips and corruption behaviour through the real
//! on-disk store: for every artifact type, a stored file reads back
//! bit-identically, and a damaged file — truncated, header bit flipped,
//! body bit flipped, or re-framed under a different format version —
//! reads as a clean cache miss, never a panic or an error. A matrix
//! stored as a chain of tail links reads as a miss when any link is
//! damaged, missing or inconsistent with its parent, or when the chain
//! is longer than the cap.

use cluster::{Clustering, Label, SelectedParams};
use dissim::{CondensedMatrix, DissimArtifact};
use segment::{MessageSegments, TraceSegmentation};
use store::{ArtifactStore, Key, Kind, Persist, Writer};

fn temp_store(tag: &str) -> ArtifactStore {
    let dir = std::env::temp_dir().join(format!("store-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ArtifactStore::open(dir).expect("open temp store")
}

fn key(b: u8) -> Key {
    Key([b; 16])
}

fn sample_matrix() -> CondensedMatrix {
    CondensedMatrix::build(9, |i, j| ((i * 13 + j * 7) as f64).sqrt() / 3.0)
}

/// Stores `value`, then damages the file four ways; each damaged file
/// must read as `None` while the intact file round-trips.
fn assert_roundtrip_and_corruption<T>(tag: &str, value: T, check: impl Fn(&T, &T))
where
    T: Persist,
{
    let store = temp_store(tag);
    let k = key(42);
    assert!(store.get::<T>(&k).is_none(), "empty store must miss");
    assert!(store.put(&k, &value));
    let back = store.get::<T>(&k).expect("intact file must hit");
    check(&value, &back);

    let path = store.file_path(T::KIND, &k);
    let golden = std::fs::read(&path).expect("read golden file");
    assert!(golden.len() > 17, "frame is 17+8 bytes minimum");

    // Truncation, at several depths including mid-header and mid-body.
    for cut in [0, 3, 8, golden.len() / 2, golden.len() - 1] {
        std::fs::write(&path, &golden[..cut]).unwrap();
        assert!(
            store.get::<T>(&k).is_none(),
            "{tag}: truncation to {cut} bytes must miss"
        );
    }

    // A flipped bit in the header (magic/version/kind/length region).
    let mut bad = golden.clone();
    bad[5] ^= 0x10;
    std::fs::write(&path, &bad).unwrap();
    assert!(store.get::<T>(&k).is_none(), "{tag}: header flip must miss");

    // A flipped bit in the payload body.
    let mut bad = golden.clone();
    let mid = golden.len() / 2;
    bad[mid] ^= 0x01;
    std::fs::write(&path, &bad).unwrap();
    assert!(store.get::<T>(&k).is_none(), "{tag}: body flip must miss");

    // A consistent file written under a different format version: bump
    // the version field and re-stamp the checksum so only the version
    // check can reject it.
    let mut other_version = golden.clone();
    other_version[4] = other_version[4].wrapping_add(1);
    let body_end = other_version.len() - 8;
    let sum = store::checksum(&other_version[..body_end]);
    other_version[body_end..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &other_version).unwrap();
    assert!(
        store.get::<T>(&k).is_none(),
        "{tag}: version mismatch must miss"
    );

    // Restoring the golden bytes hits again — the store held no state.
    std::fs::write(&path, &golden).unwrap();
    let back = store.get::<T>(&k).expect("restored file must hit");
    check(&value, &back);
}

#[test]
fn segmentation_corruption_is_a_miss() {
    let seg = TraceSegmentation {
        messages: vec![
            MessageSegments::from_cuts(12, &[4, 6, 11]),
            MessageSegments::from_cuts(3, &[]),
            MessageSegments::from_cuts(0, &[]),
        ],
    };
    assert_roundtrip_and_corruption("seg", seg, |a, b| assert_eq!(a, b));
}

#[test]
fn matrix_corruption_is_a_miss_and_roundtrip_is_bitwise() {
    assert_roundtrip_and_corruption("matrix", sample_matrix(), |a, b| {
        assert_eq!(a.len(), b.len());
        let bits = |m: &CondensedMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "matrix round-trip must be bitwise");
    });
}

#[test]
fn legacy_indexed_dissim_artifact_is_a_miss_then_overwritten() {
    // A cache file from before the presorted neighbor index was retired:
    // the matrix, tag byte 1, then the index — n and one
    // `(dissimilarity, neighbor)` entry per ordered pair, rows sorted.
    let m = sample_matrix();
    let n = m.len();
    let mut w = Writer::new();
    w.usize(n);
    for &v in m.values() {
        w.f64(v);
    }
    w.u8(1);
    w.usize(n);
    for i in 0..n {
        let mut row: Vec<(f64, u32)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| (m.get(i, j), j as u32))
            .collect();
        row.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (d, j) in row {
            w.f64(d);
            w.u32(j);
        }
    }
    let store = temp_store("legacy-index");
    let k = key(11);
    let path = store.file_path(Kind::DISSIM, &k);
    std::fs::write(&path, store::encode_file(Kind::DISSIM, &w.into_inner())).unwrap();

    // A clean miss, never a panic.
    assert!(store.get::<DissimArtifact>(&k).is_none());
    assert_eq!(store.stats().misses, 1);

    // The rebuilt artifact overwrites the legacy file under the same key
    // and reads back as a hit.
    let rebuilt = DissimArtifact::from_matrix(m);
    assert!(store.put(&k, &rebuilt));
    assert_eq!(store.get::<DissimArtifact>(&k), Some(rebuilt));
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.writes), (1, 1, 1));
}

#[test]
fn dissim_artifact_corruption_is_a_miss() {
    let artifact = DissimArtifact::from_matrix(sample_matrix());
    assert_roundtrip_and_corruption("artifact", artifact, |a, b| assert_eq!(a, b));
}

#[test]
fn selection_corruption_is_a_miss() {
    let params = SelectedParams {
        epsilon: 0.031_25,
        min_samples: 3,
        k: 2,
        ecdf_values: vec![0.01, 0.02, 0.5, 0.9],
        smoothed_curve: vec![(0.0, 0.0), (0.25, 0.4), (1.0, 1.0)],
    };
    assert_roundtrip_and_corruption("selection", params, |a, b| {
        assert_eq!(a.epsilon.to_bits(), b.epsilon.to_bits());
        assert_eq!(a, b);
    });
}

#[test]
fn clustering_corruption_is_a_miss() {
    let clustering = Clustering::from_labels(vec![
        Label::Cluster(0),
        Label::Cluster(0),
        Label::Noise,
        Label::Cluster(1),
        Label::Cluster(0),
        Label::Noise,
    ]);
    assert_roundtrip_and_corruption("clustering", clustering, |a, b| assert_eq!(a, b));
}

#[test]
fn wrong_kind_on_disk_is_a_miss() {
    // A valid clustering file renamed to where a matrix should live:
    // the kind tag in the frame rejects it.
    let store = temp_store("crosskind");
    let k = key(7);
    let clustering = Clustering::from_labels(vec![Label::Noise]);
    assert!(store.put(&k, &clustering));
    let from = store.file_path(<Clustering as Persist>::KIND, &k);
    let to = store.file_path(<CondensedMatrix as Persist>::KIND, &k);
    std::fs::copy(&from, &to).unwrap();
    assert!(store.get::<CondensedMatrix>(&k).is_none());
}

#[test]
fn stats_track_the_degraded_path() {
    let store = temp_store("stats");
    let k = key(9);
    let m = sample_matrix();
    let _ = store.get::<CondensedMatrix>(&k); // miss
    store.put(&k, &m); // write
    let _ = store.get::<CondensedMatrix>(&k); // hit
    std::fs::write(
        store.file_path(<CondensedMatrix as Persist>::KIND, &k),
        b"x",
    )
    .unwrap();
    let _ = store.get::<CondensedMatrix>(&k); // corrupt -> miss
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.writes), (1, 2, 1));
}

/// A whole matrix over the first 10 items of `m`, then tail links at 14
/// and 19 items: keys 1, 2 and 3.
fn chain_of_three(store: &ArtifactStore, m: &CondensedMatrix) -> [Key; 3] {
    let keys = [key(1), key(2), key(3)];
    let mut tip = None;
    for (k, n) in keys.iter().zip([10, 14, 19]) {
        assert!(store.put_matrix(k, m.prefix(n), tip.as_ref()));
        tip = Some(store.get_matrix_quiet(k).expect("chain reads back").tip);
    }
    assert_eq!(tip.map(|t| t.links), Some(2));
    keys
}

fn chain_matrix() -> CondensedMatrix {
    CondensedMatrix::build(30, |i, j| ((i * 13 + j * 7) as f64).sqrt() / 9.0)
}

fn matrix_bits(m: &CondensedMatrix) -> Vec<u64> {
    m.values().iter().map(|v| v.to_bits()).collect()
}

/// The tip at 19 items reads as one miss; recomputing it (written whole)
/// reads back bit for bit.
fn assert_tip_misses_then_recomputes(store: &ArtifactStore, m: &CondensedMatrix, what: &str) {
    let misses = store.stats().misses;
    assert!(store.get_matrix(&key(3)).is_none(), "{what}: must miss");
    assert_eq!(store.stats().misses, misses + 1, "{what}: one miss");
    assert!(store.put_matrix(&key(3), m.prefix(19), None));
    let back = store.get_matrix(&key(3)).expect("recomputed matrix hits");
    assert_eq!(back.tip.links, 0, "{what}: recomputed whole");
    assert_eq!(
        matrix_bits(&back.matrix),
        matrix_bits(&m.prefix(19).to_matrix()),
        "{what}"
    );
}

#[test]
fn damaged_links_read_as_misses_and_recompute_identically() {
    let m = chain_matrix();
    type Damage = fn(&mut Vec<u8>);
    let damages: [(&str, Damage); 3] = [
        ("flipped bit", |b| {
            let mid = b.len() / 2;
            b[mid] ^= 0x08;
        }),
        ("truncated", |b| b.truncate(b.len() - 9)),
        ("emptied", |b| b.clear()),
    ];
    for (what, damage) in damages {
        // Damage the mid-chain link and, separately, the tip itself.
        for damaged in [key(2), key(3)] {
            let store = temp_store(&format!(
                "chain-{}-{}",
                what.replace(' ', "-"),
                damaged.0[0]
            ));
            chain_of_three(&store, &m);
            let path = store.file_path(Kind::DISSIM, &damaged);
            let mut bytes = std::fs::read(&path).unwrap();
            damage(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            assert_tip_misses_then_recomputes(&store, &m, what);
        }
    }
}

#[test]
fn a_missing_or_evicted_parent_is_a_miss() {
    let m = chain_matrix();
    let store = temp_store("chain-missing");
    chain_of_three(&store, &m);
    std::fs::remove_file(store.file_path(Kind::DISSIM, &key(2))).unwrap();
    assert_tip_misses_then_recomputes(&store, &m, "missing parent");

    // Under a byte budget the root is the least recently used file, so
    // the next write evicts it.
    let sized = temp_store("chain-sized");
    chain_of_three(&sized, &m);
    let budget = sized.total_bytes() + 64;
    let store = temp_store("chain-evicted").with_budget(store::StoreBudget { max_bytes: budget });
    chain_of_three(&store, &m);
    let filler = Clustering::from_labels(vec![Label::Noise; 40]);
    assert!(store.put(&key(9), &filler));
    assert!(!store.contains::<CondensedMatrix>(&key(1)), "root evicted");
    assert!(store.contains::<CondensedMatrix>(&key(3)), "tip kept");
    assert_tip_misses_then_recomputes(&store, &m, "evicted root");
}

#[test]
fn inconsistent_parents_are_misses() {
    let m = chain_matrix();
    let forged = |parent: Key, len: usize| store::ChainTip {
        key: parent,
        len,
        links: 0,
    };
    let cases = [
        // The root holds 10 items, not the 14 the link grows.
        ("parent of the wrong length", forged(key(1), 14)),
        // The link names itself: its own 19 items are not 14.
        ("link naming itself", forged(key(3), 14)),
        // A parent over more items than the link.
        ("larger parent", forged(key(7), 14)),
    ];
    for (what, tip) in cases {
        let store = temp_store(&format!("chain-{}", what.replace(' ', "-")));
        chain_of_three(&store, &m);
        assert!(store.put_matrix(&key(7), m.prefix(25), None));
        assert!(store.put_matrix(&key(3), m.prefix(19), Some(&tip)));
        assert_tip_misses_then_recomputes(&store, &m, what);
    }
}

#[test]
fn a_chain_longer_than_the_cap_is_a_miss() {
    let m = chain_matrix();
    let store = temp_store("chain-overlong");
    // Tips that understate their depth let the writer chain past the
    // cap: a whole root and then one link more than a read may follow.
    assert!(store.put_matrix(&key(10), m.prefix(8), None));
    let mut n_old = 8;
    for (i, n) in (9..).take(store::MAX_TAIL_LINKS + 1).enumerate() {
        let parent = store::ChainTip {
            key: key(10 + i as u8),
            len: n_old,
            links: 0,
        };
        assert!(store.put_matrix(&key(11 + i as u8), m.prefix(n), Some(&parent)));
        n_old = n;
    }
    let deepest = key(10 + store::MAX_TAIL_LINKS as u8);
    assert_eq!(
        store.get_matrix(&deepest).map(|s| s.tip.links),
        Some(store::MAX_TAIL_LINKS),
        "a chain at the cap reads"
    );
    let over = key(11 + store::MAX_TAIL_LINKS as u8);
    assert!(
        store.get_matrix(&over).is_none(),
        "one link past the cap misses"
    );
}
