//! Spin-then-yield waiting: every idle poll of the native transport
//! (ring full or empty, keyed receive, barrier, pid table) goes through
//! one [`Backoff`].
//!
//! A wait that ends within a few microseconds — a peer on another core
//! answering a small message — should cost PAUSEs, not system calls: a
//! `sched_yield` costs far more than the handoff it waits for. A wait
//! that lasts longer yields once per check, so a peer sharing the CPU
//! (an oversubscribed team) gets to run.

/// PAUSE-spins a wait may make before every further check yields: with
/// the checks between them, one to two microseconds on a host where a
/// PAUSE takes ~22 ns. Chosen by a sweep of 0, 64, 256 and 1024 spins
/// (EXPERIMENTS.md, "Per-thread metric shards and spin-then-yield
/// waits"): 64 and 256 are equally fast for a two-rank team, and only 64
/// leaves an oversubscribed team as fast as yielding at once.
const SPIN_LIMIT: u32 = 64;

#[cfg(test)]
thread_local! {
    /// Yields this thread's waits have made, for tests that check a wait
    /// gives the CPU up.
    pub(crate) static YIELDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One wait's backoff state: create it (`Backoff::default()`) when the
/// wait starts and call [`Backoff::snooze`] after every check that found
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct Backoff {
    spins: u32,
}

impl Backoff {
    /// Pause between two checks: a spin-loop hint while the budget lasts,
    /// then one `yield_now` per call.
    #[inline]
    pub(crate) fn snooze(&mut self) {
        if self.spins < SPIN_LIMIT {
            self.spins += 1;
            std::hint::spin_loop();
        } else {
            #[cfg(test)]
            YIELDS.with(|y| y.set(y.get() + 1));
            std::thread::yield_now();
        }
    }
}
