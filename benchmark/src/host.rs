//! What the benchmark asks of the host: CPU pinning and peak memory.

use std::os::raw::{c_int, c_ulong};

/// CPUs addressable through one `c_ulong`-array mask of this size.
const MASK_WORDS: usize = 16;
const WORD_BITS: usize = c_ulong::BITS as usize;

// glibc; the repository's libc/nix stand-ins do not declare these.
extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// The CPUs this process may run on, ascending (empty if the call fails).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0 as c_ulong; MASK_WORDS];
    // SAFETY: `mask` is a live, writable array of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * WORD_BITS)
        .filter(|cpu| mask[cpu / WORD_BITS] >> (cpu % WORD_BITS) & 1 == 1)
        .collect()
}

/// Restrict the calling thread (and the threads and processes it creates
/// from now on) to `cpus`. Returns whether the kernel accepted it.
pub fn allow(cpus: &[usize]) -> bool {
    let mut mask = [0 as c_ulong; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < MASK_WORDS * WORD_BITS) {
        mask[cpu / WORD_BITS] |= 1 << (cpu % WORD_BITS);
    }
    // SAFETY: `mask` is a live array of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pin to one CPU.
pub fn pin_to(cpu: usize) -> bool {
    allow(&[cpu])
}

/// Keep freed memory in the process: serve every request below 32 MiB
/// from the heap and never trim the heap. By default glibc maps large
/// requests afresh (page faults, zeroing, unmapping on free), moves that
/// threshold with the sizes that happen to be freed first, and returns
/// the top of the heap to the kernel when enough of it is free. The
/// simulator's rank buffers then cost page faults that depend on the
/// order the points run in: on `survivable` one seed took 99 k minor
/// faults and another 641 k for the same events, and `pass_s` differed
/// by 20 %. With both thresholds fixed, memory is faulted in once, during
/// set-up, as in a process that has been running for a while.
pub fn settle_allocator() -> bool {
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only stores tuning values in the allocator; it is
    // called once, before any other thread exists.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 }
}

/// `VmHWM` of the calling process in MiB (0 if /proc is unreadable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_affinity_and_rss() {
        assert!(!allowed_cpus().is_empty());
        assert!(peak_rss_mb() > 0.0);
    }
}
