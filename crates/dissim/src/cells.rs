//! The cell buffer behind a [`CondensedMatrix`](crate::CondensedMatrix).
//!
//! A condensed matrix is the one O(u²) buffer of an analysis: 10–11 MB
//! at u ≈ 1.7k unique segments. On the heap, a dropped matrix leaves a
//! hole the allocator keeps for reuse instead of returning it to the
//! OS. The next analysis in the same process — a daemon job, a stream
//! batch, the next capture of a batch run — builds a matrix of a
//! slightly different size. When a small allocation that outlived the
//! last analysis sits between the hole and the top of the heap, the new
//! matrix does not fit the hole and is allocated beside it, and the
//! process holds two matrices' worth of pages instead of one. Whether
//! that happens depends on where earlier small allocations landed, so
//! the same run read a peak RSS of 21 MB or 31 MB from one start to the
//! next (fixed-width NTP reports, 400 messages per capture, six
//! captures in turn, one thread).
//!
//! A buffer of [`MAP_MIN_BYTES`] or more therefore lives in its own
//! anonymous mapping, outside the heap. Mapping fresh pages costs over
//! three times what reusing a zeroed buffer does (8.7 ms against 2.6 ms
//! to get, fill and drop 11 MB on a 2-vCPU VM), so the most recently
//! dropped mapping is kept as a spare and reused, zeroed, by the next
//! buffer it can hold at no more than twice the size; a buffer it
//! cannot hold unmaps the spare before mapping its own pages. The
//! process thus holds its live matrices plus at most one idle one, and
//! never a new matrix beside a hole it could not reuse, whatever ran
//! earlier. Smaller buffers, and every buffer on targets without the
//! mapping shim, are a plain `Vec<f64>`; a failed mapping falls back to
//! the heap as well. Both are held as one pointer and length, so a read
//! is a plain slice access whichever way the cells were placed: refine
//! reads matrix entries millions of times per run.

use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Buffers of at least this many bytes are mapped rather than
/// heap-allocated: a condensed matrix over about 1 450 items. Smaller
/// matrices are a few MB at most, a small share of a process holding
/// one, and stay on the heap.
pub const MAP_MIN_BYTES: usize = 8 << 20;

/// A fixed-length buffer of `f64` cells, zero-initialised by
/// [`Cells::zeroed`]: `len` initialised cells at `ptr`, in an
/// allocation of `cap` cells that is a `Vec`'s or, when `mapped`, an
/// anonymous mapping's.
pub struct Cells {
    ptr: NonNull<f64>,
    len: usize,
    cap: usize,
    mapped: bool,
}

// SAFETY: `Cells` owns its allocation exclusively, like the `Vec<f64>`
// it stands for; shared access only reads through `&self`.
unsafe impl Send for Cells {}
unsafe impl Sync for Cells {}

impl Cells {
    /// `len` cells of `0.0`, mapped when they span at least
    /// [`MAP_MIN_BYTES`].
    pub fn zeroed(len: usize) -> Self {
        if len.saturating_mul(std::mem::size_of::<f64>()) >= MAP_MIN_BYTES {
            if let Some(cells) = sys::zeroed(len) {
                return cells;
            }
        }
        Self::from(vec![0.0; len])
    }

    /// A copy of `values` in a buffer placed as [`Cells::zeroed`] would
    /// place it.
    pub fn copy_of(values: &[f64]) -> Self {
        let mut cells = Self::zeroed(values.len());
        cells.copy_from_slice(values);
        cells
    }

    /// Whether the cells live in their own mapping.
    #[cfg(test)]
    fn is_mapped(&self) -> bool {
        self.mapped
    }
}

impl From<Vec<f64>> for Cells {
    /// Adopts an already-filled heap buffer as is, without a copy.
    fn from(values: Vec<f64>) -> Self {
        let mut values = ManuallyDrop::new(values);
        Self {
            ptr: NonNull::new(values.as_mut_ptr()).expect("a Vec's pointer is never null"),
            len: values.len(),
            cap: values.capacity(),
            mapped: false,
        }
    }
}

impl Drop for Cells {
    fn drop(&mut self) {
        if self.mapped {
            sys::release(self.ptr, self.cap);
        } else {
            // SAFETY: the parts are those of the `Vec` adopted in `from`,
            // which nothing else owns.
            drop(unsafe { Vec::from_raw_parts(self.ptr.as_ptr(), self.len, self.cap) });
        }
    }
}

impl Deref for Cells {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        // SAFETY: `ptr` holds `len` initialised cells until drop.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for Cells {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        // SAFETY: as in `deref`, and `&mut self` is exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Clone for Cells {
    fn clone(&self) -> Self {
        Self::copy_of(self)
    }
}

impl PartialEq for Cells {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Cells {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The raw `mmap`/`munmap` shim (std-only, no libc crate) and the
/// spare, for the targets whose mapping flags it spells out: Linux on
/// x86-64 and AArch64 (`MAP_ANONYMOUS` is `0x20` and `MAP_POPULATE`
/// `0x8000` there).
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use super::Cells;
    use std::ffi::c_void;
    use std::ptr::NonNull;
    use std::sync::{Mutex, PoisonError};

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 2;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_POPULATE: i32 = 0x8000;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// An idle mapping of `cap` cells, unmapped on drop.
    struct Spare {
        ptr: NonNull<f64>,
        cap: usize,
    }

    // SAFETY: an idle mapping is owned by whoever holds it, and nobody
    // reads or writes its pages until it is handed out again.
    unsafe impl Send for Spare {}

    impl Drop for Spare {
        fn drop(&mut self) {
            // SAFETY: `ptr` and the byte length are exactly what `mmap`
            // returned, and no slice of the pages is left.
            unsafe {
                munmap(
                    self.ptr.as_ptr().cast(),
                    self.cap * std::mem::size_of::<f64>(),
                );
            }
        }
    }

    /// The most recently dropped mapping, kept for the next buffer it
    /// can hold.
    static SPARE: Mutex<Option<Spare>> = Mutex::new(None);

    /// `len` zero cells in a mapping: the spare, zeroed, when it holds
    /// `len` at no more than twice the size, else fresh pages. `None`
    /// if `len` is 0 or the kernel refuses the mapping.
    pub(super) fn zeroed(len: usize) -> Option<Cells> {
        let spare = SPARE.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(spare) = spare.filter(|s| s.cap >= len && s.cap / 2 <= len) {
            let spare = std::mem::ManuallyDrop::new(spare);
            let mut cells = Cells {
                ptr: spare.ptr,
                len,
                cap: spare.cap,
                mapped: true,
            };
            cells.fill(0.0);
            return Some(cells);
        }
        // A spare too small or too large was dropped (unmapped) by the
        // filter above, before the new pages are mapped.
        let bytes = len.checked_mul(std::mem::size_of::<f64>())?;
        if bytes == 0 {
            return None;
        }
        // Every cell is written right after (a matrix build fills the
        // triangle), so the pages are faulted in by this one call
        // rather than one fault per page.
        // SAFETY: a fresh private anonymous mapping aliases nothing; the
        // kernel picks the address.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                bytes,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE,
                -1,
                0,
            )
        };
        if ptr == MAP_FAILED {
            return None;
        }
        // Page-aligned, so aligned for f64; anonymous pages read as zero
        // bytes, which is 0.0.
        NonNull::new(ptr.cast()).map(|ptr| Cells {
            ptr,
            len,
            cap: len,
            mapped: true,
        })
    }

    /// Keeps the dropped mapping at `ptr` as the spare; the spare it
    /// replaces is unmapped.
    pub(super) fn release(ptr: NonNull<f64>, cap: usize) {
        let old = SPARE
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .replace(Spare { ptr, cap });
        drop(old);
    }
}

/// Targets without the shim never map: every buffer is a `Vec`.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use super::Cells;
    use std::ptr::NonNull;

    pub(super) fn zeroed(_len: usize) -> Option<Cells> {
        None
    }

    pub(super) fn release(_ptr: NonNull<f64>, _cap: usize) {
        unreachable!("no cells are mapped on this target");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAPPED: bool = cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ));

    #[test]
    fn small_buffers_stay_on_the_heap() {
        let cells = Cells::zeroed(10);
        assert!(!cells.is_mapped());
        assert_eq!(&cells[..], &[0.0; 10]);
        assert!(!Cells::zeroed(0).is_mapped());
    }

    #[test]
    fn large_buffers_read_write_and_copy_like_a_vec() {
        let len = MAP_MIN_BYTES / std::mem::size_of::<f64>() + 3;
        let mut cells = Cells::zeroed(len);
        assert_eq!(cells.is_mapped(), MAPPED);
        assert!(cells.iter().all(|&v| v == 0.0));
        for (i, c) in cells.iter_mut().enumerate() {
            *c = i as f64 * 0.5;
        }
        let copy = cells.clone();
        assert_eq!(copy.is_mapped(), cells.is_mapped());
        assert_eq!(copy, cells);
        let vec: Vec<f64> = (0..len).map(|i| i as f64 * 0.5).collect();
        assert_eq!(&copy[..], &vec[..]);
        assert_eq!(Cells::from(vec), copy);
        cells[len - 1] = -1.0;
        assert_ne!(copy, cells);
    }

    #[test]
    fn reused_spares_read_as_zero_at_the_asked_length() {
        // Other tests share the spare, so each round only asserts what
        // holds whichever mapping it gets: the asked length, all zero.
        let len = MAP_MIN_BYTES / std::mem::size_of::<f64>() + 100;
        for (round, len) in [len, len - 50, len + 50, len - 99].into_iter().enumerate() {
            let mut cells = Cells::zeroed(len);
            assert_eq!(cells.len(), len);
            assert_eq!(cells.is_mapped(), MAPPED);
            assert!(cells.iter().all(|&v| v == 0.0), "round {round}");
            cells.fill(f64::from(round as u32) + 1.0);
        }
    }
}
