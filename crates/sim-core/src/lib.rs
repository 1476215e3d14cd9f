#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![deny(unsafe_op_in_unsafe_fn)]

//! Deterministic discrete-event simulation kernel.
//!
//! Simulated processes are rank bodies — futures, written as `async`
//! blocks — that one driver, [`PolledSim`], polls on the calling thread
//! whenever the virtual-time event queue dispatches to them. The queue
//! breaks time ties with a global sequence number, so every run over the
//! same program is bit-for-bit deterministic.
//!
//! The kernel is generic over a user state type `S` (the simulated
//! machine). Tasks interact with `S` and with virtual time through
//! [`polled::sim_poll`]: a closure that atomically inspects/mutates the
//! shared state and either completes or blocks with an optional timer. On
//! every wake-up — timer expiry or an explicit [`Waker::wake_at`] from
//! another task — the closure re-evaluates, which makes stale-event races
//! impossible by construction: a wake that arrives too early simply
//! re-blocks.
//!
//! This "re-check on wake" protocol is what lets `kacc-machine` implement
//! fluid processor-sharing servers (the page-lock server, the memory
//! system) whose completion times shift whenever flows join or leave.
//!
//! ## Hot-path engineering (see DESIGN.md §11)
//!
//! Two mechanisms keep per-event cost low without touching virtual-time
//! semantics:
//!
//! * **Direct-handoff fast path** — when a blocking task's own timer is
//!   strictly the earliest pending event (the common case in lock-stepped
//!   collectives), the driver advances the clock in place and polls the
//!   task again at once: no queue traffic. Sequence numbers and epochs are
//!   bumped exactly as the queue route would, so the dispatch order — and
//!   therefore every virtual timestamp — is bit-identical
//!   ([`PolledSim::set_fast_path`] turns it off; the queue route is the
//!   reference the fast path is tested against).
//! * **Index-aware event queue** — at most one pending wake per task,
//!   with decrease-key on earlier re-wakes and in-place replacement when
//!   a task's epoch advances. Stale entries never accumulate and
//!   duplicate wakes coalesce to the earliest time before they ever reach
//!   the queue. The queue is an [`heap::IndexedHeap`] — the simulator's
//!   one priority queue, which `kacc-machine`'s fluid servers share —
//!   keyed by `(time << 64) | seq`, so a comparison is one integer
//!   compare.

pub mod heap;
pub mod mailbox;
pub mod polled;
#[cfg(test)]
mod queue_reference;

pub use mailbox::Mailboxes;
pub use polled::PolledSim;

// Scheduler dispatches are emitted as `kacc_trace` instant events to the
// tracer installed with `PolledSim::set_tracer`.
pub use kacc_trace::Tracer;

use heap::IndexedHeap;
use kacc_trace::Track;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Virtual time in nanoseconds.
pub type SimTime = u64;

/// Process-wide count of dispatched simulation events, accumulated when
/// each [`PolledSim::run`] completes. The delta across a sweep divided by
/// its wall-clock gives events/sec — the kernel throughput metric
/// `repro --bench-out` reports.
static TOTAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Of [`total_events`], how many took the direct-handoff fast path
/// (no queue traffic).
static TOTAL_FAST: AtomicU64 = AtomicU64::new(0);

/// Total simulated events dispatched by completed runs in this process.
pub fn total_events() -> u64 {
    TOTAL_EVENTS.load(Ordering::Relaxed)
}

/// Total events that took the direct-handoff fast path (subset of
/// [`total_events`]) — observability for the events/sec reports.
pub fn total_fast_handoffs() -> u64 {
    TOTAL_FAST.load(Ordering::Relaxed)
}

/// Per-run kernel metrics, carried in [`RunReport::metrics`] and flushed
/// into the `kacc-metrics` global registry when a run completes.
///
/// All fields are deterministic functions of the simulated program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimRunMetrics {
    /// Event-queue insert calls (wake pushes, including seeds).
    pub queue_inserts: u64,
    /// Inserts dropped by same-epoch later-time coalescing before they
    /// ever reached the heap.
    pub queue_coalesce_drops: u64,
    /// Events popped off the queue (dispatched or discarded as stale).
    pub queue_pops: u64,
    /// Peak event-queue length (high-water mark).
    pub queue_len_hwm: u64,
    /// `Waker::wake_at` calls that created a pending wake.
    pub wakes_raw: u64,
    /// `Waker::wake_at` calls coalesced into an existing same-evaluation
    /// wake for the same thread (the O(storm²) traffic the indexed queue
    /// eliminated; still counted to size the storms).
    pub wakes_coalesced: u64,
    /// Wake fan-out distribution: one sample per poll evaluation that
    /// flushed at least one wake (sample = wakes flushed). The fluid
    /// servers' O(p) re-wake storms live in this histogram's tail.
    pub wake_fanout: kacc_metrics::LocalHist,
    /// Events that took the direct-handoff fast path.
    pub fast_handoffs: u64,
}

/// Registry handles for the kernel's always-on metrics, created once.
struct SimHandles {
    runs: kacc_metrics::Counter,
    events: kacc_metrics::Counter,
    fast_handoffs: kacc_metrics::Counter,
    queue_inserts: kacc_metrics::Counter,
    queue_coalesce_drops: kacc_metrics::Counter,
    queue_pops: kacc_metrics::Counter,
    queue_len_hwm: kacc_metrics::Gauge,
    wakes_raw: kacc_metrics::Counter,
    wakes_coalesced: kacc_metrics::Counter,
    wake_fanout: kacc_metrics::Hist,
}

fn sim_handles() -> &'static SimHandles {
    static H: OnceLock<SimHandles> = OnceLock::new();
    H.get_or_init(|| SimHandles {
        runs: kacc_metrics::counter("sim.runs"),
        events: kacc_metrics::counter("sim.events"),
        fast_handoffs: kacc_metrics::counter("sim.fast_handoffs"),
        queue_inserts: kacc_metrics::counter("sim.queue.inserts"),
        queue_coalesce_drops: kacc_metrics::counter("sim.queue.coalesce_drops"),
        queue_pops: kacc_metrics::counter("sim.queue.pops"),
        queue_len_hwm: kacc_metrics::gauge("sim.queue.len.hwm"),
        wakes_raw: kacc_metrics::counter("sim.wakes.raw"),
        wakes_coalesced: kacc_metrics::counter("sim.wakes.coalesced"),
        wake_fanout: kacc_metrics::hist("sim.wake.fanout"),
    })
}

/// Flush one completed run's kernel metrics into the global registry.
pub(crate) fn flush_run_metrics(m: &SimRunMetrics, events: u64) {
    let h = sim_handles();
    h.runs.inc();
    h.events.add(events);
    h.fast_handoffs.add(m.fast_handoffs);
    h.queue_inserts.add(m.queue_inserts);
    h.queue_coalesce_drops.add(m.queue_coalesce_drops);
    h.queue_pops.add(m.queue_pops);
    h.queue_len_hwm.observe(m.queue_len_hwm);
    h.wakes_raw.add(m.wakes_raw);
    h.wakes_coalesced.add(m.wakes_coalesced);
    h.wake_fanout.merge_local(&m.wake_fanout);
}

/// Result of one evaluation of a [`polled::sim_poll`] closure.
pub enum Poll<T> {
    /// The operation completed with this value.
    Ready(T),
    /// Block. If `wake_at` is `Some(t)`, schedule a self-wake at virtual
    /// time `t` (must not be in the past; debug builds assert); otherwise
    /// wait for an external [`Waker::wake_at`].
    Wait {
        /// Optional timer for the blocking task.
        wake_at: Option<SimTime>,
    },
}

/// Handle other tasks' wake-ups from inside a poll closure.
///
/// Any state change that can move another task's completion time
/// *earlier* must push a fresh wake for it; wakes that turn out premature
/// are harmless (the woken closure re-blocks).
pub struct Waker {
    pending: Vec<(usize, SimTime)>,
    /// `slots[tid] = (generation, index into pending)` — O(1) duplicate
    /// coalescing. The kernel recycles this across evaluations and bumps
    /// `gen` instead of clearing, so a fluid-server wake storm costs
    /// O(storm) per evaluation where the old linear scan cost O(storm²).
    slots: Vec<(u64, u32)>,
    gen: u64,
    /// Wakes that created a pending entry, over the whole run.
    raw: u64,
    /// Wakes coalesced into an existing entry, over the whole run.
    coalesced: u64,
}

impl Waker {
    /// A waker with nothing pending, as a run starts with.
    fn new() -> Waker {
        Waker {
            pending: Vec::new(),
            slots: Vec::new(),
            gen: 0,
            raw: 0,
            coalesced: 0,
        }
    }

    /// Schedule task `tid` to re-evaluate its poll closure at virtual
    /// time `at` (clamped to the current time if in the past; debug
    /// builds assert against past times so scheduling bugs can't hide
    /// behind the clamp).
    ///
    /// Duplicate wakes for the same task within one poll evaluation
    /// coalesce to the earliest time here, before they ever reach the
    /// event queue.
    pub fn wake_at(&mut self, tid: usize, at: SimTime) {
        if tid >= self.slots.len() {
            self.slots.resize(tid + 1, (0, 0));
        }
        let (g, i) = self.slots[tid];
        if g == self.gen {
            let slot = &mut self.pending[i as usize].1;
            *slot = (*slot).min(at);
            self.coalesced += 1;
        } else {
            self.slots[tid] = (self.gen, self.pending.len() as u32);
            self.pending.push((tid, at));
            self.raw += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------

/// Index-aware min-queue over thread wakes, ordered by `(time, seq)`.
///
/// Invariant: at most one entry per thread. An insert for a thread that
/// already has an entry either coalesces (same epoch, later-or-equal
/// time: the earliest wake wins, so the duplicate is dropped), performs
/// a decrease-key (same epoch, earlier time), or replaces the entry
/// outright (newer epoch — the old entry is stale by construction and
/// would only be popped and discarded). This keeps the queue at ≤ one
/// entry per live thread, even under fluid-server wake storms.
///
/// The entries live in an [`IndexedHeap`] keyed by `(time << 64) | seq`.
/// `seq` is unique per insert, so the order is total and the pop
/// sequence does not depend on the heap's shape (the binary heap of tids
/// this replaced is the test oracle in `queue_reference.rs`).
#[derive(Default)]
struct EventQueue {
    /// Pending wakes, one per thread at most, by thread id.
    heap: IndexedHeap,
    /// Epoch each thread's entry was issued for; valid while it has one.
    epochs: Vec<u64>,
    /// Insert calls (metrics).
    inserts: u64,
    /// Inserts dropped by same-epoch later-time coalescing (metrics).
    coalesce_drops: u64,
    /// Pop calls that returned an event (metrics).
    pops: u64,
    /// Peak heap length (metrics).
    len_hwm: usize,
}

impl EventQueue {
    fn new(nthreads: usize) -> EventQueue {
        let epochs = vec![0; nthreads];
        EventQueue {
            epochs,
            ..EventQueue::default()
        }
    }

    /// Insert or update thread `tid`'s wake. See the type docs for the
    /// coalesce/decrease-key/replace rules; all three preserve the exact
    /// dispatch order the duplicate-tolerant heap produced.
    #[inline]
    fn insert(&mut self, tid: usize, t: SimTime, seq: u64, epoch: u64) {
        self.inserts += 1;
        let key = (u128::from(t) << 64) | u128::from(seq);
        if let Some(pending) = self.heap.key(tid) {
            if self.epochs[tid] == epoch && t >= (pending >> 64) as SimTime {
                // Same-epoch duplicate at a later (or equal) time: the
                // existing earlier wake dispatches first and the thread
                // re-parks with a new epoch, so this one could only ever
                // be popped as stale. Drop it now.
                self.coalesce_drops += 1;
                return;
            }
            self.heap.update(tid, key);
        } else {
            self.heap.push(tid, key);
            self.len_hwm = self.len_hwm.max(self.heap.len());
        }
        self.epochs[tid] = epoch;
    }

    /// Earliest pending wake as `(time, seq, tid, epoch)`.
    #[inline]
    fn peek(&self) -> Option<(SimTime, u64, usize, u64)> {
        let (key, tid) = self.heap.peek()?;
        Some(((key >> 64) as SimTime, key as u64, tid, self.epochs[tid]))
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, u64, usize, u64)> {
        let top = self.peek()?;
        self.heap.pop();
        self.pops += 1;
        Some(top)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadPhase {
    /// Not yet dispatched for the first time.
    Starting,
    /// Being polled.
    Running,
    /// Blocked on a wake.
    Parked,
    /// Rank body returned.
    Finished,
}

struct ThreadSlot {
    phase: ThreadPhase,
    /// Wake-token epoch; events carry the epoch they were issued for and
    /// are discarded if the task has re-parked since.
    epoch: u64,
    /// What the task is blocked on (for deadlock dumps).
    label: &'static str,
    finish_time: Option<SimTime>,
}

struct KernelState<S> {
    now: SimTime,
    seq: u64,
    /// Pending wakes, one per task at most.
    queue: EventQueue,
    threads: Vec<ThreadSlot>,
    live: usize,
    user: S,
    panic_msg: Option<String>,
    /// Events dispatched this run (includes fast-path hand-offs).
    dispatches: u64,
    /// Subset of `dispatches` that took the direct-handoff fast path.
    fast_handoffs: u64,
    /// The waker every poll evaluation of the run is handed: its buffers
    /// are reused (wake delivery allocates nothing) and its generation
    /// invalidates the coalescing slots wholesale between evaluations.
    waker: Waker,
    /// Direct-handoff fast path enabled (default); disable via
    /// [`PolledSim::set_fast_path`] to force every wake through the queue.
    fast_path: bool,
    /// Wake-side metrics (raw/coalesced wakes, fan-out); queue-side
    /// counters live inside `queue` and are folded in at run end by
    /// [`KernelState::run_metrics`].
    metrics: SimRunMetrics,
    /// Destination for scheduler-dispatch instant events; `Tracer::off()`
    /// unless tracing was requested.
    tracer: Tracer,
}

impl<S> KernelState<S> {
    /// Assemble the completed run's metrics from the wake-side
    /// accumulator and the queue's own counters.
    fn run_metrics(&self) -> SimRunMetrics {
        let mut m = self.metrics.clone();
        m.wakes_raw = self.waker.raw;
        m.wakes_coalesced = self.waker.coalesced;
        m.queue_inserts = self.queue.inserts;
        m.queue_coalesce_drops = self.queue.coalesce_drops;
        m.queue_pops = self.queue.pops;
        m.queue_len_hwm = self.queue.len_hwm as u64;
        m.fast_handoffs = self.fast_handoffs;
        m
    }

    /// One evaluation of a poll closure: run it against the user state
    /// with a fresh waker generation, then push the wakes it requested
    /// against each target's *current* epoch. The flush is a function of
    /// its own so that this stays small enough to inline into every leaf,
    /// where the closure's result is returned in registers.
    fn evaluate<R>(&mut self, f: impl FnOnce(&mut S, &mut Waker, SimTime) -> R) -> R {
        self.waker.gen += 1;
        let outcome = f(&mut self.user, &mut self.waker, self.now);
        if !self.waker.pending.is_empty() {
            self.flush_wakes();
        }
        outcome
    }

    /// Push the wakes the last evaluation requested and record its
    /// fan-out.
    fn flush_wakes(&mut self) {
        let mut pending = std::mem::take(&mut self.waker.pending);
        for &(tid, at) in &pending {
            let epoch = self.threads[tid].epoch;
            self.push_event(at, tid, epoch);
        }
        self.metrics.wake_fanout.record(pending.len() as u64);
        pending.clear();
        self.waker.pending = pending;
    }

    /// Push an event, bumping the global sequence counter. Past times
    /// are clamped to `now` (and assert in debug builds — a wake in the
    /// past is a modeling bug that the clamp would otherwise hide; the
    /// clamp additionally leaves a `wake:past-clamped` instant in traced
    /// release runs).
    fn push_event(&mut self, at: SimTime, tid: usize, epoch: u64) {
        debug_assert!(
            at >= self.now,
            "scheduling in the past: wake for thread {tid} at t={at}ns but now={}ns",
            self.now
        );
        if at < self.now {
            self.tracer
                .instant(Track::Rank(tid), "wake:past-clamped", self.now);
        }
        let t = at.max(self.now);
        self.seq += 1;
        let seq = self.seq;
        self.queue.insert(tid, t, seq, epoch);
    }
}

/// Outcome of a completed simulation.
pub struct RunReport<S> {
    /// Final shared state.
    pub state: S,
    /// Virtual time when the last task finished.
    pub end_time: SimTime,
    /// Per-task finish times, indexed by tid.
    pub finish_times: Vec<SimTime>,
    /// Simulated events dispatched over the whole run.
    pub events: u64,
    /// Kernel metrics for this run (queue traffic, wake fan-out, …) —
    /// deterministic; also flushed into the `kacc-metrics` global
    /// registry.
    pub metrics: SimRunMetrics,
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    //! The kernel's behaviours on the queue route: every sim here runs
    //! with the direct hand-off off, so each dispatch is a queue pop —
    //! the reference the fast path is checked against. `polled::tests`
    //! runs the driver on its default route.

    use super::*;
    use crate::polled::{sim_advance, sim_now, sim_poll, sim_with_state};
    use kacc_trace::chrome_trace_json;

    /// A sim whose every wake goes through the event queue.
    fn queued<S: 'static>(state: S) -> PolledSim<S> {
        let mut sim = PolledSim::new(state);
        sim.set_fast_path(false);
        sim
    }

    #[test]
    fn single_thread_advances_time() {
        let mut sim = queued(());
        sim.spawn(|_| async {
            assert_eq!(sim_now::<()>(), 0);
            sim_advance::<()>(100).await;
            assert_eq!(sim_now::<()>(), 100);
            sim_advance::<()>(0).await;
            assert_eq!(sim_now::<()>(), 100);
        });
        let r = sim.run();
        assert_eq!(r.end_time, 100);
        assert_eq!(r.finish_times, vec![100]);
        assert!(r.events > 0);
        assert_eq!(r.metrics.fast_handoffs, 0);
    }

    #[test]
    fn threads_interleave_deterministically() {
        type Log = Vec<(usize, SimTime)>;
        let go = || {
            let mut sim = queued(Log::new());
            for tid in 0..4 {
                sim.spawn(move |_| async move {
                    for _ in 0..3 {
                        sim_advance::<Log>(10 + tid as u64).await;
                        sim_with_state(|log: &mut Log, now| log.push((tid, now)));
                    }
                });
            }
            sim.run().state
        };
        let a = go();
        assert_eq!(a, go());
        // Events at equal times resolve in seq order: task 0's first
        // advance (t=10) precedes task 1's (t=11), etc.
        assert_eq!(a[0], (0, 10));
    }

    #[test]
    fn poll_sees_external_wakes() {
        // Task 1 waits on a flag; task 0 sets it at t=50.
        type Flag = (bool, usize);
        let mut sim = queued((false, 0usize));
        let waiter = 1usize;
        sim.spawn(move |_| async move {
            sim_advance::<Flag>(50).await;
            sim_with_state(|s: &mut Flag, _| s.0 = true);
            // Wake the waiter "now".
            sim_poll("signal", move |_: &mut Flag, w, now| {
                w.wake_at(waiter, now);
                Poll::Ready(())
            })
            .await;
        });
        sim.spawn(|_| async {
            sim_poll("wait flag", |s: &mut Flag, _w, _now| {
                if s.0 {
                    Poll::Ready(())
                } else {
                    s.1 += 1;
                    Poll::Wait { wake_at: None }
                }
            })
            .await;
            assert_eq!(sim_now::<Flag>(), 50);
        });
        let r = sim.run();
        assert_eq!(r.end_time, 50);
        // The waiter's closure ran once to block and once to complete.
        assert_eq!(r.state.1, 1);
    }

    #[test]
    fn premature_wakes_reblock() {
        let mut sim = queued(());
        let sleeper = 0usize;
        sim.spawn(|_| async {
            sim_advance::<()>(1000).await;
            assert_eq!(sim_now::<()>(), 1000);
        });
        sim.spawn(move |_| async move {
            // Fire spurious wakes at the sleeper long before its deadline.
            for t in [10u64, 20, 30] {
                sim_poll("spur", move |_: &mut (), w, now| {
                    w.wake_at(sleeper, now.max(t));
                    Poll::Ready(())
                })
                .await;
                sim_advance::<()>(5).await;
            }
        });
        let r = sim.run();
        assert_eq!(r.finish_times[0], 1000);
    }

    #[test]
    fn duplicate_wakes_coalesce_to_earliest() {
        // Several wakes for the same sleeper in one poll cycle: only the
        // earliest matters, and the sleeper still re-blocks safely.
        let mut sim = queued(0u64);
        let sleeper = 0usize;
        sim.spawn(|_| async {
            sim_poll("wait", |hits: &mut u64, _w, _now| {
                *hits += 1;
                if *hits >= 2 {
                    Poll::Ready(())
                } else {
                    Poll::Wait { wake_at: None }
                }
            })
            .await;
        });
        sim.spawn(move |_| async move {
            sim_advance::<u64>(5).await;
            sim_poll("burst", move |_: &mut u64, w, now| {
                // Duplicates at later times must not shadow the early one.
                w.wake_at(sleeper, now + 100);
                w.wake_at(sleeper, now + 10);
                w.wake_at(sleeper, now + 40);
                Poll::Ready(())
            })
            .await;
        });
        let r = sim.run();
        assert_eq!(r.finish_times[0], 15, "earliest wake (5+10) wins");
        assert_eq!((r.metrics.wakes_raw, r.metrics.wakes_coalesced), (1, 2));
    }

    /// Six tasks advancing `7 + 3·tid` four times, logging each wake-up:
    /// `(log, end, finish times, events, Chrome trace)` on either route.
    pub(crate) fn staggered(
        fast: bool,
    ) -> (Vec<(usize, SimTime)>, SimTime, Vec<SimTime>, u64, String) {
        type Log = Vec<(usize, SimTime)>;
        let (tracer, buf) = Tracer::buffered();
        let mut sim = PolledSim::new(Log::new());
        sim.set_tracer(tracer);
        sim.set_fast_path(fast);
        for tid in 0..6 {
            sim.spawn(move |_| async move {
                for _ in 0..4 {
                    sim_advance::<Log>(7 + tid as u64 * 3).await;
                    sim_with_state(|log: &mut Log, now| log.push((tid, now)));
                }
            });
        }
        let r = sim.run();
        let trace = chrome_trace_json(&buf.take());
        (r.state, r.end_time, r.finish_times, r.events, trace)
    }

    #[test]
    fn slow_path_matches_fast_path_exactly() {
        let (fast, slow) = (staggered(true), staggered(false));
        assert_eq!(fast.0, slow.0);
        assert_eq!((fast.1, &fast.2, fast.3), (slow.1, &slow.2, slow.3));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling in the past")]
    fn past_wakes_assert_in_debug() {
        let mut sim = queued(());
        let sleeper = 0usize;
        sim.spawn(|_| async {
            sim_advance::<()>(1000).await;
        });
        sim.spawn(move |_| async move {
            sim_advance::<()>(500).await;
            // A wake far in the past: the clamp used to hide this.
            sim_poll("bad", move |_: &mut (), w, _now| {
                w.wake_at(sleeper, 3);
                Poll::Ready(())
            })
            .await;
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let mut sim = queued(());
        sim.spawn(|_| async {
            sim_poll::<(), (), _>("forever", |_, _, _| Poll::Wait { wake_at: None }).await;
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "thread 0 panicked: boom")]
    fn thread_panics_propagate() {
        let mut sim = queued(());
        sim.spawn(|_| async { panic!("boom") });
        sim.spawn(|_| async {
            sim_advance::<()>(10).await;
        });
        sim.run();
    }

    #[test]
    fn trace_records_dispatches_in_time_order() {
        let (tracer, buf) = Tracer::buffered();
        let mut sim = queued(());
        sim.set_tracer(tracer);
        sim.spawn(|_| async {
            sim_advance::<()>(10).await;
            sim_advance::<()>(20).await;
        });
        sim.spawn(|_| async {
            sim_advance::<()>(15).await;
        });
        sim.run();
        let trace = buf.take();
        assert!(!trace.is_empty());
        assert!(trace.windows(2).all(|w| w[0].ts() <= w[1].ts()));
        // Both tasks appear, with the advance label.
        assert!(trace
            .iter()
            .any(|e| e.track == Track::Rank(0) && e.name == "advance"));
        assert!(trace.iter().any(|e| e.track == Track::Rank(1)));
    }

    #[test]
    fn trace_is_identical_with_fast_path_off() {
        assert_eq!(
            staggered(true).4,
            staggered(false).4,
            "fast path altered the dispatch trace"
        );
    }

    #[test]
    fn external_tracer_receives_dispatches() {
        let (tracer, buf) = Tracer::buffered();
        let mut sim = queued(());
        sim.set_tracer(tracer);
        sim.spawn(|_| async {
            sim_advance::<()>(10).await;
        });
        sim.run();
        let evs = buf.take();
        assert!(evs
            .iter()
            .any(|e| e.track == Track::Rank(0) && e.name == "advance" && e.ts() == 10));
    }

    #[test]
    fn chrome_export_is_wellformed() {
        use kacc_trace::{Event, EventKind};
        let trace = vec![
            Event {
                track: Track::Rank(0),
                name: "advance",
                kind: EventKind::Instant { ts: 1000 },
                bytes: 0,
                class: None,
            },
            Event {
                track: Track::Rank(3),
                name: "pin:wait",
                kind: EventKind::Instant { ts: 2500 },
                bytes: 0,
                class: None,
            },
        ];
        let json = chrome_trace_json(&trace);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"ts\":1"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("pin:wait"));
        kacc_trace::validate::validate_chrome_json(&json).expect("export validates");
        assert_eq!(chrome_trace_json(&[]), "[]");
    }

    #[test]
    fn many_threads_scale() {
        let mut sim = queued(0u64);
        for _ in 0..128 {
            sim.spawn(|_| async {
                for _ in 0..10 {
                    sim_advance::<u64>(7).await;
                }
                sim_with_state(|count: &mut u64, _| *count += 1);
            });
        }
        let r = sim.run();
        assert_eq!(r.state, 128);
        assert_eq!(r.end_time, 70);
    }

    #[test]
    fn event_queue_orders_and_dedups() {
        let mut q = EventQueue::new(4);
        q.insert(0, 50, 1, 0);
        q.insert(1, 50, 2, 0);
        q.insert(2, 10, 3, 0);
        // Same-epoch duplicate at a later time: dropped.
        q.insert(2, 60, 4, 0);
        assert_eq!(q.peek(), Some((10, 3, 2, 0)));
        // Decrease-key: same epoch, earlier time.
        q.insert(1, 5, 5, 0);
        assert_eq!(q.pop(), Some((5, 5, 1, 0)));
        // Epoch replacement: later time but newer epoch wins the slot.
        q.insert(2, 90, 6, 1);
        assert_eq!(q.pop(), Some((50, 1, 0, 0)));
        assert_eq!(q.pop(), Some((90, 6, 2, 1)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn event_queue_never_exceeds_one_entry_per_thread() {
        let mut q = EventQueue::new(3);
        for i in 0..100u64 {
            q.insert((i % 3) as usize, 1000 - i, i, i / 10);
        }
        assert!(q.heap.len() <= 3, "queue grew: {}", q.heap.len());
    }
}
