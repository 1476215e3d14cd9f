//! Anonymous shared mappings inherited across `fork`.

use kacc_comm::{CommError, Result};
use std::ptr::NonNull;

/// A `MAP_SHARED | MAP_ANONYMOUS` region. Created before `fork`, the
/// same physical pages are visible to parent and children at the same
/// virtual address, which makes it the natural home for control-plane
/// state (pid tables, rings, barriers).
pub struct ShmRegion {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: the region is plain shared bytes that the mapping owns; all
// access goes through atomics or is externally synchronized by the
// ring/barrier protocols, whichever thread holds the handle.
unsafe impl Send for ShmRegion {}
// SAFETY: `&ShmRegion` only hands out raw pointers into the mapping;
// the same protocols order every access made through them.
unsafe impl Sync for ShmRegion {}

impl ShmRegion {
    /// Map `len` bytes of zeroed shared memory.
    pub fn new(len: usize) -> Result<ShmRegion> {
        let len = len.max(1);
        // SAFETY: standard anonymous mapping; we check the result.
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED | libc::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if ptr == libc::MAP_FAILED {
            return Err(CommError::Os(
                std::io::Error::last_os_error().raw_os_error().unwrap_or(0),
            ));
        }
        Ok(ShmRegion {
            ptr: NonNull::new(ptr as *mut u8).expect("mmap success implies non-null"),
            len,
        })
    }

    /// Length of the mapping.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mapping is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base pointer of the mapping.
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// Pointer to offset `off`, bounds-checked, with room for `need`
    /// bytes.
    pub fn at(&self, off: usize, need: usize) -> *mut u8 {
        assert!(
            off.checked_add(need).is_some_and(|end| end <= self.len),
            "shm access [{off}, {off}+{need}) outside region of {} bytes",
            self.len
        );
        // SAFETY: bounds just checked.
        unsafe { self.ptr.as_ptr().add(off) }
    }
}

impl Drop for ShmRegion {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from mmap above.
        unsafe {
            libc::munmap(self.ptr.as_ptr() as *mut libc::c_void, self.len);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_zeroed_and_writable() {
        let shm = ShmRegion::new(8192).unwrap();
        assert_eq!(shm.len(), 8192);
        assert!(!shm.is_empty());
        // SAFETY: in-bounds, exclusive access in this test.
        unsafe {
            assert_eq!(*shm.at(0, 1), 0);
            assert_eq!(*shm.at(8191, 1), 0);
            *shm.at(100, 1) = 42;
            assert_eq!(*shm.at(100, 1), 42);
        }
    }

    #[test]
    fn survives_fork_and_shares_pages() {
        let shm = ShmRegion::new(4096).unwrap();
        let flag = shm.at(0, 8) as *mut std::sync::atomic::AtomicU64;
        // SAFETY: AtomicU64 is valid on zeroed aligned memory.
        let flag = unsafe { &*flag };
        // SAFETY: the child only stores to the flag and leaves via _exit.
        match unsafe { libc::fork() } {
            0 => {
                // Child: set and exit without running destructors.
                flag.store(7, std::sync::atomic::Ordering::SeqCst);
                // SAFETY: terminate without unwinding into the test harness.
                unsafe { libc::_exit(0) };
            }
            pid if pid > 0 => {
                let mut status = 0;
                // SAFETY: reaping our own child.
                unsafe { libc::waitpid(pid, &mut status, 0) };
                assert_eq!(flag.load(std::sync::atomic::Ordering::SeqCst), 7);
            }
            _ => panic!("fork failed"),
        }
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn out_of_bounds_access_panics() {
        let shm = ShmRegion::new(64).unwrap();
        let _ = shm.at(60, 8);
    }
}
