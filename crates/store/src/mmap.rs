//! Zero-copy artifact reads through a memory mapping.
//!
//! A warm cache hit used to cost a whole-file `std::fs::read` — one
//! heap allocation plus one full copy of the artifact bytes — before
//! the decoder even started. For the large artifacts (condensed
//! matrices, neighbor indices, matrix tiles, vantage-point trees) that
//! copy dominates the warm path. This module maps the file read-only
//! instead: [`MappedArtifact::open`] validates the `FTCA` frame —
//! magic, version, kind, length, and the whole-file checksum trailer —
//! exactly once against the mapped pages, and the payload decoder then
//! reads straight from the mapping. No artifact-sized heap buffer is
//! ever allocated; the kernel pages the file in on demand and drops
//! clean pages under memory pressure.
//!
//! # Why the payload is still *decoded*, not borrowed
//!
//! The frame header is 17 bytes (`magic(4) | version(4) | kind(1) |
//! len(8)`), so the payload starts at an unaligned offset: handing out
//! typed `&[f64]`/`&[u32]` borrows of the mapping would be unsound.
//! The decoders therefore still build owned artifacts value-by-value —
//! the win is eliminating the redundant whole-file heap copy (and its
//! transient 2× peak while both buffer and artifact are live), not
//! eliminating the decode.
//!
//! # Safety
//!
//! The crate is std-only, so the mapping goes through a minimal raw
//! `mmap`/`munmap` shim (no libc crate). It is confined to this module
//! and gated behind the default-on `mmap` cargo feature (plus a
//! runtime switch, [`set_enabled`] / `FTC_STORE_NO_MMAP=1`); with the
//! feature off or the switch thrown, every read falls back to the
//! heap-read path, which is pinned byte-identical by the store's
//! equivalence tests.
//!
//! Mapping a file another process truncates would turn later reads
//! into `SIGBUS`. The store's write discipline rules that out: artifact
//! files are immutable once written, replaced only via atomic rename
//! (the mapping keeps the old inode alive), and evicted via unlink
//! (likewise). A file that shrinks anyway — an outside actor editing
//! the cache directory in place — is outside the store's crash model,
//! which already treats a tampered cache as undefined for liveness and
//! guarantees correctness only through the checksum.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::artifacts::Kind;
use crate::format;

/// Runtime kill switch, flipped by [`set_enabled`]. Distinct from the
/// `FTC_STORE_NO_MMAP` environment variable so an embedding process
/// (e.g. the `ftcd` daemon's `--no-mmap` flag) can opt out without
/// mutating its own environment.
static MMAP_DISABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables the mmap read path process-wide at runtime.
/// Disabled, every artifact read uses the heap-read fallback —
/// byte-identical results, one extra copy.
pub fn set_enabled(enabled: bool) {
    MMAP_DISABLED.store(!enabled, Ordering::Relaxed);
}

/// Whether artifact reads currently go through the mapping: the `mmap`
/// cargo feature is on, the platform shim exists (unix), the runtime
/// switch has not been thrown, and `FTC_STORE_NO_MMAP` is unset/`0`.
pub fn enabled() -> bool {
    if !cfg!(all(feature = "mmap", unix)) {
        return false;
    }
    if MMAP_DISABLED.load(Ordering::Relaxed) {
        return false;
    }
    match std::env::var_os("FTC_STORE_NO_MMAP") {
        None => true,
        Some(v) => v.is_empty() || v == *"0",
    }
}

/// A read-only memory mapping of one whole file, unmapped on drop.
#[cfg(all(feature = "mmap", unix))]
#[derive(Debug)]
pub struct Region {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is read-only and `Region` owns it exclusively;
// sharing immutable views across threads is safe.
#[cfg(all(feature = "mmap", unix))]
unsafe impl Send for Region {}
#[cfg(all(feature = "mmap", unix))]
unsafe impl Sync for Region {}

#[cfg(all(feature = "mmap", unix))]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

#[cfg(all(feature = "mmap", unix))]
impl Region {
    /// Maps the file at `path` read-only in its entirety.
    ///
    /// # Errors
    ///
    /// Any I/O error opening or statting the file, `InvalidInput` for
    /// an empty file (zero-length mappings are an `EINVAL`), and the
    /// OS error if the `mmap` call itself fails — callers fall back to
    /// the heap read on every one of these.
    pub fn map_path(path: &Path) -> std::io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len == 0 || len > usize::MAX as u64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "unmappable file length",
            ));
        }
        // SAFETY: fd is valid for the duration of the call; a private
        // read-only mapping of a regular file has no aliasing
        // obligations on our side. POSIX keeps the mapping alive after
        // the fd closes.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len as usize,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Self {
            ptr: ptr.cast(),
            len: len as usize,
        })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
        // bytes, valid until `munmap` in Drop; the file is never
        // truncated in place (see module docs).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(all(feature = "mmap", unix))]
impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly what mmap returned.
        unsafe {
            sys::munmap(self.ptr.cast(), self.len);
        }
    }
}

/// A mapped artifact file whose `FTCA` frame — header fields and
/// trailer — has been validated once against the mapping. The payload
/// is served as a borrow of the mapped pages.
#[cfg(all(feature = "mmap", unix))]
#[derive(Debug)]
pub struct MappedArtifact {
    region: Region,
    payload: std::ops::Range<usize>,
}

#[cfg(all(feature = "mmap", unix))]
impl MappedArtifact {
    /// Maps the file and validates its frame.
    ///
    /// Returns `Ok(Some(_))` for a valid artifact of `kind`,
    /// `Ok(None)` for a file that mapped fine but fails any frame
    /// check — a definitive cache miss; re-reading it onto the heap
    /// could not change the verdict — and `Err` when the mapping
    /// itself failed, which callers treat as "fall back to the heap
    /// read".
    pub fn open(path: &Path, kind: Kind) -> std::io::Result<Option<Self>> {
        let region = Region::map_path(path)?;
        let payload = match format::decode_file(kind, region.bytes()) {
            Some(p) => {
                let base = region.bytes().as_ptr() as usize;
                let start = p.as_ptr() as usize - base;
                start..start + p.len()
            }
            None => return Ok(None),
        };
        Ok(Some(Self { region, payload }))
    }

    /// The validated payload, borrowed from the mapping.
    pub fn payload(&self) -> &[u8] {
        &self.region.bytes()[self.payload.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(all(feature = "mmap", unix))]
    mod mapped {
        use super::super::*;

        fn temp_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
            let path =
                std::env::temp_dir().join(format!("store-mmap-{}-{tag}.bin", std::process::id()));
            std::fs::write(&path, bytes).expect("write temp artifact");
            path
        }

        #[test]
        fn mapped_payload_matches_heap_read() {
            let payload: Vec<u8> = (0u16..600).map(|i| (i % 251) as u8).collect();
            let file = format::encode_file(Kind::DISSIM, &payload);
            let path = temp_file("eq", &file);
            let mapped = MappedArtifact::open(&path, Kind::DISSIM)
                .expect("map")
                .expect("valid frame");
            let heap = std::fs::read(&path).expect("read");
            let heap_payload = format::decode_file(Kind::DISSIM, &heap).expect("valid frame");
            assert_eq!(mapped.payload(), heap_payload);
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn every_flipped_byte_is_a_definitive_miss() {
            let file = format::encode_file(Kind::VPTREE, b"tree bytes under test");
            for at in 0..file.len() {
                let mut bad = file.clone();
                bad[at] ^= 0x40;
                let path = temp_file(&format!("flip{at}"), &bad);
                let verdict = MappedArtifact::open(&path, Kind::VPTREE).expect("map");
                assert!(verdict.is_none(), "flip at byte {at} must miss");
                let _ = std::fs::remove_file(&path);
            }
        }

        #[test]
        fn wrong_kind_and_truncation_miss_through_the_mapping() {
            let file = format::encode_file(Kind::TILE, b"tile payload");
            let path = temp_file("kind", &file);
            assert!(MappedArtifact::open(&path, Kind::DISSIM)
                .expect("map")
                .is_none());
            std::fs::write(&path, &file[..file.len() - 3]).expect("truncate");
            assert!(MappedArtifact::open(&path, Kind::TILE)
                .expect("map")
                .is_none());
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn missing_and_empty_files_are_map_errors_not_misses() {
            let gone =
                std::env::temp_dir().join(format!("store-mmap-{}-absent.bin", std::process::id()));
            let _ = std::fs::remove_file(&gone);
            assert!(MappedArtifact::open(&gone, Kind::DISSIM).is_err());
            let path = temp_file("empty", b"");
            assert!(MappedArtifact::open(&path, Kind::DISSIM).is_err());
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn runtime_switch_gates_enabled() {
        // Other tests in this crate do not toggle the switch, so the
        // sequence below is race-free in practice.
        set_enabled(true);
        let baseline = enabled();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert_eq!(enabled(), baseline);
    }
}
