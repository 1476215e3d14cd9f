//! Offline stand-in for the `libc` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the *tiny* slice of libc that `kacc-native` actually uses: process
//! control (`fork`/`waitpid`/`kill`), anonymous shared mappings
//! (`mmap`/`munmap`), `sysconf`, and CPU affinity
//! (`sched_{get,set}affinity` over a `cpu_set_t`). Constants are the Linux ABI values;
//! this crate is gated to Linux by `kacc-native` itself.

#![allow(non_camel_case_types)]

use core::ffi::c_void as core_c_void;

/// Opaque C `void`.
pub type c_void = core_c_void;
/// C `int`.
pub type c_int = i32;
/// C `unsigned int`.
pub type c_uint = u32;
/// C `long`.
pub type c_long = i64;
/// POSIX process id.
pub type pid_t = i32;
/// POSIX offset type.
pub type off_t = i64;
/// C `size_t`.
pub type size_t = usize;
/// C `ssize_t`.
pub type ssize_t = isize;

/// `PROT_READ` — pages may be read.
pub const PROT_READ: c_int = 1;
/// `PROT_WRITE` — pages may be written.
pub const PROT_WRITE: c_int = 2;
/// `MAP_SHARED` — updates are visible to other mappings.
pub const MAP_SHARED: c_int = 0x0001;
/// `MAP_ANONYMOUS` — not backed by a file.
pub const MAP_ANONYMOUS: c_int = 0x0020;
/// `mmap` failure sentinel.
pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
/// `SIGKILL`.
pub const SIGKILL: c_int = 9;
/// `sysconf` name for the page size.
pub const _SC_PAGESIZE: c_int = 30;
/// CPUs a [`cpu_set_t`] can name.
pub const CPU_SETSIZE: c_int = 1024;

/// A set of CPUs, the glibc `cpu_set_t` (1024 bits).
#[repr(C)]
#[derive(Clone, Copy, Debug, Default)]
pub struct cpu_set_t {
    bits: [u64; 16],
}

/// Add `cpu` to `set`.
#[allow(non_snake_case)]
pub fn CPU_SET(cpu: usize, set: &mut cpu_set_t) {
    set.bits[cpu / 64] |= 1 << (cpu % 64);
}

/// Is `cpu` in `set`?
#[allow(non_snake_case)]
pub fn CPU_ISSET(cpu: usize, set: &cpu_set_t) -> bool {
    set.bits[cpu / 64] & (1 << (cpu % 64)) != 0
}

extern "C" {
    /// `fork(2)`.
    pub fn fork() -> pid_t;
    /// `_exit(2)`.
    pub fn _exit(status: c_int) -> !;
    /// `kill(2)`.
    pub fn kill(pid: pid_t, sig: c_int) -> c_int;
    /// `waitpid(2)`.
    pub fn waitpid(pid: pid_t, status: *mut c_int, options: c_int) -> pid_t;
    /// `mmap(2)`.
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    /// `munmap(2)`.
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    /// `sysconf(3)`.
    pub fn sysconf(name: c_int) -> c_long;
    /// `sched_getaffinity(2)`.
    pub fn sched_getaffinity(pid: pid_t, cpusetsize: size_t, cpuset: *mut cpu_set_t) -> c_int;
    /// `sched_setaffinity(2)`.
    pub fn sched_setaffinity(pid: pid_t, cpusetsize: size_t, cpuset: *const cpu_set_t) -> c_int;
}

/// Did the child exit normally? (Linux `WIFEXITED`.)
#[allow(non_snake_case)]
pub fn WIFEXITED(status: c_int) -> bool {
    (status & 0x7f) == 0
}

/// Exit code of a normally exited child. (Linux `WEXITSTATUS`.)
#[allow(non_snake_case)]
pub fn WEXITSTATUS(status: c_int) -> c_int {
    (status >> 8) & 0xff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_macros_match_linux_encoding() {
        // Normal exit with code 3 is encoded as 3 << 8.
        assert!(WIFEXITED(3 << 8));
        assert_eq!(WEXITSTATUS(3 << 8), 3);
        // Killed by SIGKILL (low 7 bits nonzero) is not a normal exit.
        assert!(!WIFEXITED(SIGKILL));
    }

    #[test]
    fn cpu_set_marks_only_the_cpus_set() {
        let mut set = cpu_set_t::default();
        CPU_SET(0, &mut set);
        CPU_SET(70, &mut set);
        assert!(CPU_ISSET(0, &set) && CPU_ISSET(70, &set));
        assert!(!CPU_ISSET(1, &set) && !CPU_ISSET(69, &set));
    }

    #[test]
    fn sysconf_page_size_is_sane() {
        let sz = unsafe { sysconf(_SC_PAGESIZE) };
        assert!(sz >= 4096, "page size {sz}");
    }
}
