#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![deny(unsafe_op_in_unsafe_fn)]

//! Deterministic discrete-event simulation kernel with cooperative rank
//! threads.
//!
//! Simulated processes are ordinary blocking Rust closures, each running on
//! its own OS thread. The kernel enforces that **exactly one thread runs at
//! a time** and hands control between threads according to a virtual-time
//! event queue with a global sequence-number tie-break, so every run over
//! the same program is bit-for-bit deterministic regardless of host
//! scheduling.
//!
//! The kernel is generic over a user state type `S` (the simulated
//! machine). Threads interact with `S` and with virtual time through
//! [`Ctx::poll`]: a closure that atomically inspects/mutates the shared
//! state and either completes or blocks with an optional timer. On every
//! wake-up — timer expiry or an explicit [`Waker::wake_at`] from another
//! thread — the closure re-evaluates, which makes stale-event races
//! impossible by construction: a wake that arrives too early simply
//! re-blocks.
//!
//! This "re-check on wake" protocol is what lets `kacc-machine` implement
//! fluid processor-sharing servers (the page-lock server, the memory
//! system) whose completion times shift whenever flows join or leave.
//!
//! ## Hot-path engineering (see DESIGN.md §11)
//!
//! Three mechanisms keep per-event cost low without touching virtual-time
//! semantics:
//!
//! * **Direct-handoff fast path** — when a blocking thread's own timer is
//!   strictly the earliest pending event (the common case in lock-stepped
//!   collectives), [`Ctx::poll`] advances the clock in place and
//!   re-evaluates the closure immediately: no queue traffic, no condvar
//!   round-trip, no floor transfer. Sequence numbers and epochs are
//!   bumped exactly as the slow path would, so the dispatch order — and
//!   therefore every virtual timestamp — is bit-identical
//!   ([`Sim::set_fast_path`] disables it for equivalence testing).
//! * **Index-aware event queue** — at most one pending wake per thread,
//!   with decrease-key on earlier re-wakes and in-place replacement when
//!   a thread's epoch advances. Stale entries stop accumulating (the old
//!   binary heap grew O(waker-storm²) garbage under fluid-server
//!   contention) and duplicate wakes coalesce to the earliest time
//!   before they ever reach the queue. The heap is 4-ary with the
//!   `(time, seq)` key inline in each node.
//! * **Persistent worker pool** — rank bodies run on [`SimPool`] threads
//!   that persist for the process lifetime, so a sweep of thousands of
//!   `Sim::run` points stops paying `nranks` OS thread spawns + joins
//!   per point.

pub mod mailbox;
pub mod polled;
#[cfg(test)]
mod queue_reference;

pub use mailbox::Mailboxes;
pub use polled::{PolledSim, RankTask, TaskCtx, TaskPoll};

// Scheduler dispatches are emitted as `kacc_trace` instant events; re-export
// the pieces callers need to consume a captured dispatch trace.
pub use kacc_trace::{chrome_trace_json, Event as TraceEvent, SharedBuffer, Tracer};

use kacc_trace::Track;
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};

/// Virtual time in nanoseconds.
pub type SimTime = u64;

/// Process-wide count of dispatched simulation events, accumulated when
/// each [`Sim::run`] completes. The delta across a sweep divided by its
/// wall-clock gives events/sec — the kernel throughput metric the
/// `des_kernel` bench and `repro --bench-out` report.
static TOTAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Of [`total_events`], how many took the direct-handoff fast path
/// (no queue traffic, no condvar round-trip).
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
/// All fields are deterministic functions of the simulated program:
/// both engines (threads and polled) count the same sites in the shared
/// kernel code, so the engine-equivalence suites pin them bitwise-equal.
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
/// Shared by both engines so they publish identically by construction.
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

/// Result of one evaluation of a [`Ctx::poll`] closure.
pub enum Poll<T> {
    /// The operation completed with this value.
    Ready(T),
    /// Block. If `wake_at` is `Some(t)`, schedule a self-wake at virtual
    /// time `t` (must not be in the past; debug builds assert); otherwise
    /// wait for an external [`Waker::wake_at`].
    Wait {
        /// Optional timer for the blocking thread.
        wake_at: Option<SimTime>,
    },
}

/// Handle other threads' wake-ups from inside a poll closure.
///
/// Any state change that can move another thread's completion time
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

    /// Schedule thread `tid` to re-evaluate its poll closure at virtual
    /// time `at` (clamped to the current time if in the past; debug
    /// builds assert against past times so scheduling bugs can't hide
    /// behind the clamp).
    ///
    /// Duplicate wakes for the same thread within one poll evaluation
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
/// entry per live thread where the old `BinaryHeap` accumulated a stale
/// entry per wake under fluid-server waker storms.
///
/// The heap is 4-ary and its nodes carry their own `(time, seq)`, so a
/// sift compares neighbouring nodes without chasing a per-thread key
/// table. `seq` is unique per insert, so the order is total and the pop
/// sequence does not depend on the heap's shape (the binary heap of tids
/// this replaced is the test oracle in `queue_reference.rs`).
struct EventQueue {
    /// 4-ary min-heap of pending wakes.
    heap: Vec<QueueNode>,
    /// Per-thread side of the index: where the thread's node sits and
    /// which epoch it was issued for.
    slots: Vec<QueueSlot>,
    /// Insert calls (metrics).
    inserts: u64,
    /// Inserts dropped by same-epoch later-time coalescing (metrics).
    coalesce_drops: u64,
    /// Pop calls that returned an event (metrics).
    pops: u64,
    /// Peak heap length (metrics).
    len_hwm: usize,
}

#[derive(Clone, Copy)]
struct QueueNode {
    t: SimTime,
    seq: u64,
    tid: u32,
}

impl QueueNode {
    fn before(&self, other: &QueueNode) -> bool {
        (self.t, self.seq) < (other.t, other.seq)
    }
}

#[derive(Clone, Copy, Default)]
struct QueueSlot {
    /// Epoch of the thread's node; valid while `pos != 0`.
    epoch: u64,
    /// Heap index + 1, or 0 when the thread has no node.
    pos: u32,
}

impl EventQueue {
    const ARITY: usize = 4;

    fn new(nthreads: usize) -> EventQueue {
        assert!(
            u32::try_from(nthreads).is_ok(),
            "thread ids must fit the queue's 32-bit index"
        );
        EventQueue {
            heap: Vec::with_capacity(nthreads),
            slots: vec![QueueSlot::default(); nthreads],
            inserts: 0,
            coalesce_drops: 0,
            pops: 0,
            len_hwm: 0,
        }
    }

    fn place(&mut self, i: usize, node: QueueNode) {
        self.heap[i] = node;
        self.slots[node.tid as usize].pos = i as u32 + 1;
    }

    /// Settle `node` at or above the hole `i`.
    fn sift_up(&mut self, mut i: usize, node: QueueNode) {
        while i > 0 {
            let p = (i - 1) / Self::ARITY;
            let parent = self.heap[p];
            if !node.before(&parent) {
                break;
            }
            self.place(i, parent);
            i = p;
        }
        self.place(i, node);
    }

    /// Settle `node` at or below the hole `i`.
    fn sift_down(&mut self, mut i: usize, node: QueueNode) {
        loop {
            let first = Self::ARITY * i + 1;
            if first >= self.heap.len() {
                break;
            }
            let end = (first + Self::ARITY).min(self.heap.len());
            let mut least = first;
            for c in first + 1..end {
                if self.heap[c].before(&self.heap[least]) {
                    least = c;
                }
            }
            let child = self.heap[least];
            if !child.before(&node) {
                break;
            }
            self.place(i, child);
            i = least;
        }
        self.place(i, node);
    }

    /// Insert or update thread `tid`'s wake. See the type docs for the
    /// coalesce/decrease-key/replace rules; all three preserve the exact
    /// dispatch order the duplicate-tolerant heap produced.
    fn insert(&mut self, tid: usize, t: SimTime, seq: u64, epoch: u64) {
        self.inserts += 1;
        let node = QueueNode {
            t,
            seq,
            tid: tid as u32,
        };
        let slot = &mut self.slots[tid];
        if slot.pos != 0 {
            let i = slot.pos as usize - 1;
            if slot.epoch == epoch && t >= self.heap[i].t {
                // Same-epoch duplicate at a later (or equal) time: the
                // existing earlier wake dispatches first and the thread
                // re-parks with a new epoch, so this one could only ever
                // be popped as stale. Drop it now.
                self.coalesce_drops += 1;
                return;
            }
            slot.epoch = epoch;
            if i > 0 && node.before(&self.heap[(i - 1) / Self::ARITY]) {
                self.sift_up(i, node);
            } else {
                self.sift_down(i, node);
            }
        } else {
            slot.epoch = epoch;
            self.heap.push(node);
            self.len_hwm = self.len_hwm.max(self.heap.len());
            self.sift_up(self.heap.len() - 1, node);
        }
    }

    /// Earliest pending wake as `(time, seq, tid, epoch)`.
    fn peek(&self) -> Option<(SimTime, u64, usize, u64)> {
        self.heap.first().map(|n| {
            let tid = n.tid as usize;
            (n.t, n.seq, tid, self.slots[tid].epoch)
        })
    }

    fn pop(&mut self) -> Option<(SimTime, u64, usize, u64)> {
        let top = self.peek()?;
        self.pops += 1;
        let last = self.heap.pop().expect("nonempty");
        self.slots[top.2].pos = 0;
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
        Some(top)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadPhase {
    /// Not yet given the floor for the first time.
    Starting,
    /// Currently holds the floor.
    Running,
    /// Parked inside a poll.
    Parked,
    /// User closure returned.
    Finished,
}

struct ThreadSlot {
    phase: ThreadPhase,
    /// Wake-token epoch; events carry the epoch they were issued for and
    /// are discarded if the thread has re-parked since.
    epoch: u64,
    /// Floor-transfer flag, protected by the kernel mutex.
    go: bool,
    /// What the thread is blocked on (for deadlock dumps).
    label: &'static str,
    finish_time: Option<SimTime>,
}

struct KernelState<S> {
    now: SimTime,
    seq: u64,
    /// Pending wakes, one per thread at most.
    queue: EventQueue,
    threads: Vec<ThreadSlot>,
    live: usize,
    user: S,
    panic_msg: Option<String>,
    all_done: bool,
    /// Events dispatched this run (includes fast-path hand-offs).
    dispatches: u64,
    /// Subset of `dispatches` that took the direct-handoff fast path.
    fast_handoffs: u64,
    /// The waker every poll evaluation of the run is handed: its buffers
    /// are reused (wake delivery allocates nothing) and its generation
    /// invalidates the coalescing slots wholesale between evaluations.
    waker: Waker,
    /// Direct-handoff fast path enabled (default); disable via
    /// [`Sim::set_fast_path`] to force every wake through the queue.
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

    /// One evaluation of a poll closure, on either engine: run it against
    /// the user state with a fresh waker generation, then push the wakes
    /// it requested against each target's *current* epoch.
    fn evaluate<R>(&mut self, f: impl FnOnce(&mut S, &mut Waker, SimTime) -> R) -> R {
        self.waker.gen += 1;
        let outcome = f(&mut self.user, &mut self.waker, self.now);
        if !self.waker.pending.is_empty() {
            let mut pending = std::mem::take(&mut self.waker.pending);
            for &(tid, at) in &pending {
                let epoch = self.threads[tid].epoch;
                Kernel::push_event(self, at, tid, epoch);
            }
            self.metrics.wake_fanout.record(pending.len() as u64);
            pending.clear();
            self.waker.pending = pending;
        }
        outcome
    }
}

struct Kernel<S> {
    state: Mutex<KernelState<S>>,
    /// One condvar per thread plus one (last) for `run()`.
    cvs: Vec<Condvar>,
}

impl<S> Kernel<S> {
    /// Push an event, bumping the global sequence counter. Past times
    /// are clamped to `now` (and assert in debug builds — a wake in the
    /// past is a modeling bug that the clamp would otherwise hide; the
    /// clamp additionally leaves a `wake:past-clamped` instant in traced
    /// release runs).
    fn push_event(st: &mut KernelState<S>, at: SimTime, tid: usize, epoch: u64) {
        debug_assert!(
            at >= st.now,
            "scheduling in the past: wake for thread {tid} at t={at}ns but now={}ns",
            st.now
        );
        if at < st.now {
            st.tracer
                .instant(Track::Rank(tid), "wake:past-clamped", st.now);
        }
        let t = at.max(st.now);
        st.seq += 1;
        let seq = st.seq;
        st.queue.insert(tid, t, seq, epoch);
    }

    /// Pick the next runnable thread, advance the clock, and transfer the
    /// floor. Must be called by a thread that no longer holds the floor.
    fn dispatch(&self, st: &mut KernelState<S>) {
        loop {
            let Some((t, _seq, tid, epoch)) = st.queue.peek() else {
                // No events: either everything finished, or deadlock.
                if st.live == 0 {
                    st.all_done = true;
                    self.cvs[st.threads.len()].notify_all();
                    return;
                }
                let dump: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.phase != ThreadPhase::Finished)
                    .map(|(i, s)| format!("  thread {i}: {:?} on '{}'", s.phase, s.label))
                    .collect();
                st.panic_msg = Some(format!(
                    "simulation deadlock at t={}ns: {} live thread(s) blocked with no pending events\n{}",
                    st.now,
                    st.live,
                    dump.join("\n")
                ));
                st.all_done = true;
                self.cvs[st.threads.len()].notify_all();
                // Wake everyone so parked threads can observe the abort.
                for cv in &self.cvs {
                    cv.notify_all();
                }
                return;
            };
            st.queue.pop();
            let slot = &mut st.threads[tid];
            // Discard stale wakes (thread re-parked or finished since).
            if slot.phase == ThreadPhase::Finished || slot.epoch != epoch {
                continue;
            }
            debug_assert!(t >= st.now, "event queue went backwards");
            st.now = t;
            st.dispatches += 1;
            slot.go = true;
            // The tracer's sink lock is a leaf lock taken strictly under the
            // kernel mutex, so this cannot deadlock; disabled tracing is a
            // single branch.
            st.tracer.instant(Track::Rank(tid), slot.label, t);
            self.cvs[tid].notify_one();
            return;
        }
    }
}

/// Per-thread context handed to simulated-process closures.
pub struct Ctx<S: Send + 'static> {
    kernel: Arc<Kernel<S>>,
    tid: usize,
}

impl<S: Send + 'static> Clone for Ctx<S> {
    fn clone(&self) -> Self {
        Ctx {
            kernel: Arc::clone(&self.kernel),
            tid: self.tid,
        }
    }
}

impl<S: Send + 'static> Ctx<S> {
    /// Index of this simulated thread (spawn order).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.state.lock().now
    }

    /// Charge `dt` nanoseconds of virtual time to this thread.
    pub fn advance(&self, dt: SimTime) {
        let mut deadline = None;
        self.poll("advance", move |_s, _w, now| {
            let d = *deadline.get_or_insert(now + dt);
            if now >= d {
                Poll::Ready(())
            } else {
                Poll::Wait { wake_at: Some(d) }
            }
        })
    }

    /// Run `f` atomically against the shared state. Non-blocking: `f`
    /// executes exactly once while this thread holds the floor.
    pub fn with_state<T>(&self, f: impl FnOnce(&mut S, SimTime) -> T) -> T {
        let mut guard = self.kernel.state.lock();
        let st = &mut *guard;
        f(&mut st.user, st.now)
    }

    /// The core blocking primitive; see the module docs. `label` appears
    /// in deadlock dumps.
    pub fn poll<T>(
        &self,
        label: &'static str,
        mut f: impl FnMut(&mut S, &mut Waker, SimTime) -> Poll<T>,
    ) -> T {
        let kernel = &*self.kernel;
        let mut guard = kernel.state.lock();
        loop {
            if let Some(msg) = guard.panic_msg.clone() {
                drop(guard);
                panic!("simulation aborted: {msg}");
            }
            let now = guard.now;
            let st = &mut *guard;
            let outcome = st.evaluate(&mut f);
            match outcome {
                Poll::Ready(v) => return v,
                Poll::Wait { wake_at } => {
                    let tid = self.tid;
                    if let Some(at) = wake_at {
                        debug_assert!(
                            at >= now,
                            "poll('{label}') timer in the past: t={at}ns but now={now}ns"
                        );
                        let t = at.max(now);
                        // Purge stale heads (finished threads, or our own
                        // superseded self-wakes) so they can't force a
                        // needless slow handoff; dispatch would discard
                        // them on pop anyway.
                        if st.fast_path {
                            while let Some((_, _, qtid, qe)) = st.queue.peek() {
                                let s = &st.threads[qtid];
                                if s.phase == ThreadPhase::Finished || s.epoch != qe {
                                    st.queue.pop();
                                } else {
                                    break;
                                }
                            }
                        }
                        // Direct-handoff fast path: our own timer is
                        // strictly the earliest pending event, so the
                        // slow path would park, pop this very wake, and
                        // hand the floor straight back. Advance the
                        // clock in place instead — same epoch/seq
                        // bookkeeping, same dispatch instant, no queue
                        // traffic or condvar round-trip.
                        if st.fast_path && st.queue.peek().is_none_or(|(qt, ..)| qt > t) {
                            st.threads[tid].epoch += 1;
                            st.threads[tid].label = label;
                            st.seq += 1;
                            st.now = t;
                            st.dispatches += 1;
                            st.fast_handoffs += 1;
                            st.tracer.instant(Track::Rank(tid), label, t);
                            continue;
                        }
                    }
                    st.threads[tid].epoch += 1;
                    st.threads[tid].phase = ThreadPhase::Parked;
                    st.threads[tid].label = label;
                    let epoch = st.threads[tid].epoch;
                    if let Some(at) = wake_at {
                        Kernel::push_event(st, at, tid, epoch);
                    }
                    kernel.dispatch(st);
                    // Park until handed the floor again.
                    while !guard.threads[self.tid].go {
                        if let Some(msg) = guard.panic_msg.clone() {
                            drop(guard);
                            panic!("simulation aborted: {msg}");
                        }
                        kernel.cvs[self.tid].wait(&mut guard);
                    }
                    guard.threads[self.tid].go = false;
                    guard.threads[self.tid].phase = ThreadPhase::Running;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Process-wide pool of persistent OS threads hosting simulated-rank
/// bodies.
///
/// Every [`Sim::run`] leases one worker per simulated thread and returns
/// them when the run completes, so a sweep of thousands of simulation
/// points pays thread-spawn cost only for the high-water mark of
/// concurrent ranks instead of `nranks` spawns + joins per point.
/// Workers are plain threads parked on a channel; they persist for the
/// process lifetime. Panics inside a body are contained (the kernel
/// already converts simulated-thread panics into a run-level abort), so
/// a worker survives any job it hosts.
pub struct SimPool {
    idle: Mutex<Vec<mpsc::Sender<Job>>>,
    spawned: AtomicUsize,
}

impl SimPool {
    /// The process-wide pool.
    pub fn global() -> &'static SimPool {
        static POOL: OnceLock<SimPool> = OnceLock::new();
        POOL.get_or_init(|| SimPool {
            idle: Mutex::new(Vec::new()),
            spawned: AtomicUsize::new(0),
        })
    }

    /// Workers ever spawned — the high-water mark of concurrent leases
    /// (observability: a sweep reusing the pool keeps this flat).
    pub fn workers_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    fn execute(&'static self, job: Job) {
        let mut job = job;
        loop {
            let Some(tx) = self.idle.lock().pop() else {
                break;
            };
            match tx.send(job) {
                Ok(()) => return,
                // Worker died (only possible if the host tore threads
                // down); fall through and spawn a replacement.
                Err(e) => job = e.0,
            }
        }
        let n = self.spawned.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel::<Job>();
        std::thread::Builder::new()
            .name(format!("sim-worker-{n}"))
            .spawn(move || {
                let mut next = Some(job);
                loop {
                    let j = match next.take() {
                        Some(j) => j,
                        None => match rx.recv() {
                            Ok(j) => j,
                            Err(_) => return,
                        },
                    };
                    let _ = catch_unwind(AssertUnwindSafe(j));
                    // Only re-register once the job has fully released
                    // its simulation (the lease discipline).
                    SimPool::global().idle.lock().push(tx.clone());
                }
            })
            .expect("spawn sim worker");
    }
}

/// Completion latch for one run's leased workers.
struct JobDone {
    left: Mutex<usize>,
    cv: Condvar,
}

impl JobDone {
    fn new(n: usize) -> JobDone {
        JobDone {
            left: Mutex::new(n),
            cv: Condvar::new(),
        }
    }

    fn finish(&self) {
        let mut left = self.left.lock();
        *left -= 1;
        if *left == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.left.lock();
        while *left > 0 {
            self.cv.wait(&mut left);
        }
    }
}

/// Outcome of a completed simulation.
pub struct RunReport<S> {
    /// Final shared state.
    pub state: S,
    /// Virtual time when the last thread finished.
    pub end_time: SimTime,
    /// Per-thread finish times, indexed by tid.
    pub finish_times: Vec<SimTime>,
    /// Simulated events dispatched over the whole run.
    pub events: u64,
    /// Kernel metrics for this run (queue traffic, wake fan-out, …) —
    /// deterministic and engine-independent; also flushed into the
    /// `kacc-metrics` global registry.
    pub metrics: SimRunMetrics,
    /// Dispatch trace, when enabled with [`Sim::enable_trace`]. Empty when
    /// an external tracer was installed with [`Sim::set_tracer`] instead
    /// (events flow to that tracer's sink).
    pub trace: Vec<TraceEvent>,
}

/// A simulation under construction: create, spawn threads, run.
pub struct Sim<S: Send + 'static> {
    state: Option<S>,
    pending: Vec<Box<dyn FnOnce(Ctx<S>) + Send + 'static>>,
    tracer: Tracer,
    capture: Option<SharedBuffer>,
    fast_path: bool,
}

impl<S: Send + 'static> Sim<S> {
    /// Create a simulation owning the shared machine state.
    pub fn new(state: S) -> Sim<S> {
        Sim {
            state: Some(state),
            pending: Vec::new(),
            tracer: Tracer::off(),
            capture: None,
            fast_path: true,
        }
    }

    /// Record every scheduler dispatch into [`RunReport::trace`]
    /// (observability/debugging; costs memory proportional to events).
    pub fn enable_trace(&mut self) {
        let (tracer, buf) = Tracer::buffered();
        self.tracer = tracer;
        self.capture = Some(buf);
    }

    /// Send scheduler-dispatch events to an external [`Tracer`] (shared
    /// with other layers, e.g. the machine model). [`RunReport::trace`]
    /// stays empty; the caller owns the sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        self.capture = None;
    }

    /// Enable or disable the direct-handoff fast path (default: on).
    ///
    /// Disabling forces every wake through the event queue and condvar
    /// floor transfer — virtual-time behavior is identical by
    /// construction, which the fast-path equivalence suite pins; the
    /// switch exists exactly for that comparison.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
    }

    /// Register a simulated thread. Threads receive the floor in spawn
    /// order at t=0. Returns the thread's tid.
    pub fn spawn(&mut self, f: impl FnOnce(Ctx<S>) + Send + 'static) -> usize {
        let tid = self.pending.len();
        self.pending.push(Box::new(f));
        tid
    }

    /// Run the simulation to completion, returning the final state and
    /// timing report. Panics (with the failing thread's message) if any
    /// simulated thread panicked or the simulation deadlocked.
    ///
    /// Rank bodies execute on leased [`SimPool`] workers, so repeated
    /// runs (parameter sweeps) reuse OS threads instead of spawning
    /// `nranks` fresh ones per run.
    pub fn run(mut self) -> RunReport<S> {
        let n = self.pending.len();
        let kernel = Arc::new(Kernel {
            state: Mutex::new(KernelState {
                now: 0,
                seq: 0,
                queue: EventQueue::new(n),
                threads: (0..n)
                    .map(|_| ThreadSlot {
                        phase: ThreadPhase::Starting,
                        epoch: 0,
                        go: false,
                        label: "start",
                        finish_time: None,
                    })
                    .collect(),
                live: n,
                user: self.state.take().expect("run called once"),
                panic_msg: None,
                all_done: false,
                dispatches: 0,
                fast_handoffs: 0,
                waker: Waker::new(),
                fast_path: self.fast_path,
                metrics: SimRunMetrics::default(),
                tracer: self.tracer.clone(),
            }),
            cvs: (0..=n).map(|_| Condvar::new()).collect(),
        });

        // Seed start events in spawn order and hand the floor to the
        // first thread (it will pick up the go-flag when it parks).
        {
            let mut st = kernel.state.lock();
            for tid in 0..n {
                let st = &mut *st;
                Kernel::push_event(st, 0, tid, 0);
            }
            let st = &mut *st;
            kernel.dispatch(st);
        }

        let done = Arc::new(JobDone::new(n));
        let pool = SimPool::global();
        for (tid, f) in self.pending.drain(..).enumerate() {
            let kernel = Arc::clone(&kernel);
            let done = Arc::clone(&done);
            pool.execute(Box::new(move || {
                // The body owns the kernel Arc; catching here keeps the
                // pool worker alive and the latch exact even if kernel
                // bookkeeping itself panicked.
                let _ = catch_unwind(AssertUnwindSafe(move || thread_body(kernel, tid, f)));
                done.finish();
            }));
        }

        // Wait until every leased worker has finished its body (which
        // implies `all_done`: the last finishing thread's dispatch set
        // it, or a panic/deadlock path did).
        done.wait();

        let k = Arc::try_unwrap(kernel)
            .ok()
            .expect("all ctxs dropped at join");
        let st = k.state.into_inner();
        if let Some(msg) = st.panic_msg {
            panic!("{msg}");
        }
        TOTAL_EVENTS.fetch_add(st.dispatches, Ordering::Relaxed);
        TOTAL_FAST.fetch_add(st.fast_handoffs, Ordering::Relaxed);
        let metrics = st.run_metrics();
        flush_run_metrics(&metrics, st.dispatches);
        RunReport {
            end_time: st.now,
            events: st.dispatches,
            metrics,
            finish_times: st
                .threads
                .iter()
                .map(|t| t.finish_time.expect("finished thread has time"))
                .collect(),
            trace: self.capture.map(|b| b.take()).unwrap_or_default(),
            state: st.user,
        }
    }
}

/// One simulated thread's life: acquire the floor, run the user closure,
/// record the finish, and hand the floor onwards.
fn thread_body<S: Send + 'static>(
    kernel: Arc<Kernel<S>>,
    tid: usize,
    f: Box<dyn FnOnce(Ctx<S>) + Send + 'static>,
) {
    // Acquire the floor for the first time.
    {
        let mut guard = kernel.state.lock();
        while !guard.threads[tid].go {
            if guard.panic_msg.is_some() {
                return;
            }
            kernel.cvs[tid].wait(&mut guard);
        }
        guard.threads[tid].go = false;
        guard.threads[tid].phase = ThreadPhase::Running;
    }
    let ctx = Ctx {
        kernel: Arc::clone(&kernel),
        tid,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(ctx)));
    let mut guard = kernel.state.lock();
    let st = &mut *guard;
    st.threads[tid].phase = ThreadPhase::Finished;
    st.threads[tid].finish_time = Some(st.now);
    st.live -= 1;
    if let Err(p) = result {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string());
        if st.panic_msg.is_none() {
            st.panic_msg = Some(format!("simulated thread {tid} panicked: {msg}"));
        }
        st.all_done = true;
        kernel.cvs[st.threads.len()].notify_all();
        for cv in kernel.cvs.iter() {
            cv.notify_all();
        }
        return;
    }
    kernel.dispatch(st);
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_advances_time() {
        let mut sim = Sim::new(());
        sim.spawn(|ctx| {
            assert_eq!(ctx.now(), 0);
            ctx.advance(100);
            assert_eq!(ctx.now(), 100);
            ctx.advance(0);
            assert_eq!(ctx.now(), 100);
        });
        let r = sim.run();
        assert_eq!(r.end_time, 100);
        assert_eq!(r.finish_times, vec![100]);
        assert!(r.events > 0);
    }

    #[test]
    fn threads_interleave_deterministically() {
        let mut sim = Sim::new(Vec::<(usize, SimTime)>::new());
        for tid in 0..4 {
            sim.spawn(move |ctx| {
                for step in 0..3u64 {
                    ctx.advance(10 + tid as u64);
                    ctx.with_state(|log, now| log.push((tid, now)));
                    let _ = step;
                }
            });
        }
        let a = sim.run().state;
        // Re-run: identical log.
        let mut sim = Sim::new(Vec::new());
        for tid in 0..4 {
            sim.spawn(move |ctx| {
                for _ in 0..3 {
                    ctx.advance(10 + tid as u64);
                    ctx.with_state(|log, now| log.push((tid, now)));
                }
            });
        }
        let b = sim.run().state;
        assert_eq!(a, b);
        // Events at equal times resolve in seq order: thread 0's first
        // advance (t=10) precedes thread 1's (t=11), etc.
        assert_eq!(a[0], (0, 10));
    }

    #[test]
    fn poll_sees_external_wakes() {
        // Thread 1 waits on a flag; thread 0 sets it at t=50.
        let mut sim = Sim::new((false, 0usize));
        let waiter = 1usize;
        sim.spawn(move |ctx| {
            ctx.advance(50);
            ctx.with_state(|s, _| s.0 = true);
            // Wake the waiter "now".
            ctx.poll("signal", move |_, w, now| {
                w.wake_at(waiter, now);
                Poll::Ready(())
            });
        });
        sim.spawn(|ctx| {
            ctx.poll("wait flag", |s: &mut (bool, usize), _w, _now| {
                if s.0 {
                    Poll::Ready(())
                } else {
                    s.1 += 1;
                    Poll::Wait { wake_at: None }
                }
            });
            assert_eq!(ctx.now(), 50);
        });
        let r = sim.run();
        assert_eq!(r.end_time, 50);
        // The waiter's closure ran once to block and once to complete.
        assert_eq!(r.state.1, 1);
    }

    #[test]
    fn premature_wakes_reblock() {
        let mut sim = Sim::new(());
        let sleeper = 0usize;
        sim.spawn(|ctx| {
            ctx.advance(1000);
            assert_eq!(ctx.now(), 1000);
        });
        sim.spawn(move |ctx| {
            // Fire spurious wakes at the sleeper long before its deadline.
            for t in [10u64, 20, 30] {
                ctx.poll("spur", move |_, w, now| {
                    w.wake_at(sleeper, now.max(t));
                    Poll::Ready(())
                });
                ctx.advance(5);
            }
        });
        let r = sim.run();
        assert_eq!(r.finish_times[0], 1000);
    }

    #[test]
    fn duplicate_wakes_coalesce_to_earliest() {
        // Several wakes for the same sleeper in one poll cycle: only the
        // earliest matters, and the sleeper still re-blocks safely.
        let mut sim = Sim::new(0u64);
        let sleeper = 0usize;
        sim.spawn(|ctx| {
            ctx.poll("wait", |hits: &mut u64, _w, _now| {
                *hits += 1;
                if *hits >= 2 {
                    Poll::Ready(())
                } else {
                    Poll::Wait { wake_at: None }
                }
            });
        });
        sim.spawn(move |ctx| {
            ctx.advance(5);
            ctx.poll("burst", move |_, w, now| {
                // Duplicates at later times must not shadow the early one.
                w.wake_at(sleeper, now + 100);
                w.wake_at(sleeper, now + 10);
                w.wake_at(sleeper, now + 40);
                Poll::Ready(())
            });
        });
        let r = sim.run();
        assert_eq!(r.finish_times[0], 15, "earliest wake (5+10) wins");
    }

    #[test]
    fn slow_path_matches_fast_path_exactly() {
        let go = |fast: bool| {
            let mut sim = Sim::new(Vec::<(usize, SimTime)>::new());
            sim.set_fast_path(fast);
            for tid in 0..6 {
                sim.spawn(move |ctx| {
                    for _ in 0..4 {
                        ctx.advance(7 + tid as u64 * 3);
                        ctx.with_state(|log, now| log.push((tid, now)));
                    }
                });
            }
            let r = sim.run();
            (r.state, r.end_time, r.finish_times, r.events)
        };
        assert_eq!(go(true), go(false));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling in the past")]
    fn past_wakes_assert_in_debug() {
        let mut sim = Sim::new(());
        let sleeper = 0usize;
        sim.spawn(|ctx| {
            ctx.advance(1000);
        });
        sim.spawn(move |ctx| {
            ctx.advance(500);
            // A wake far in the past: the clamp used to hide this.
            ctx.poll("bad", move |_, w, _now| {
                w.wake_at(sleeper, 3);
                Poll::Ready(())
            });
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let mut sim = Sim::new(());
        sim.spawn(|ctx| {
            ctx.poll::<()>("forever", |_, _, _| Poll::Wait { wake_at: None });
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "thread 0 panicked: boom")]
    fn thread_panics_propagate() {
        let mut sim = Sim::new(());
        sim.spawn(|_ctx| panic!("boom"));
        sim.spawn(|ctx| ctx.advance(10));
        sim.run();
    }

    #[test]
    fn pool_reuses_workers_across_runs() {
        // Warm the pool, note the high-water mark, then run many more
        // same-width sims: no new workers may spawn.
        let width = 8;
        let once = || {
            let mut sim = Sim::new(());
            for _ in 0..width {
                sim.spawn(|ctx| ctx.advance(10));
            }
            sim.run();
        };
        once();
        let mark = SimPool::global().workers_spawned();
        for _ in 0..20 {
            once();
        }
        // Other tests run concurrently and may lease workers, so allow
        // their growth — but 20 sequential runs of our own must not add
        // 20×width fresh threads.
        let grown = SimPool::global().workers_spawned() - mark;
        assert!(grown < 20 * width, "pool did not reuse workers: +{grown}");
    }

    #[test]
    fn trace_records_dispatches_in_time_order() {
        let mut sim = Sim::new(());
        sim.enable_trace();
        sim.spawn(|ctx| {
            ctx.advance(10);
            ctx.advance(20);
        });
        sim.spawn(|ctx| ctx.advance(15));
        let r = sim.run();
        assert!(!r.trace.is_empty());
        assert!(r.trace.windows(2).all(|w| w[0].ts() <= w[1].ts()));
        // Both threads appear, with the advance label.
        assert!(r
            .trace
            .iter()
            .any(|e| e.track == Track::Rank(0) && e.name == "advance"));
        assert!(r.trace.iter().any(|e| e.track == Track::Rank(1)));
        // Untraced runs stay empty.
        let mut sim = Sim::new(());
        sim.spawn(|ctx| ctx.advance(1));
        assert!(sim.run().trace.is_empty());
    }

    #[test]
    fn trace_is_identical_with_fast_path_off() {
        let go = |fast: bool| {
            let mut sim = Sim::new(());
            sim.enable_trace();
            sim.set_fast_path(fast);
            sim.spawn(|ctx| {
                ctx.advance(10);
                ctx.advance(20);
            });
            sim.spawn(|ctx| ctx.advance(15));
            sim.run().trace
        };
        assert_eq!(
            chrome_trace_json(&go(true)),
            chrome_trace_json(&go(false)),
            "fast path altered the dispatch trace"
        );
    }

    #[test]
    fn external_tracer_receives_dispatches() {
        let (tracer, buf) = Tracer::buffered();
        let mut sim = Sim::new(());
        sim.set_tracer(tracer);
        sim.spawn(|ctx| ctx.advance(10));
        let r = sim.run();
        // Events went to the external sink, not the report.
        assert!(r.trace.is_empty());
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
        let mut sim = Sim::new(0u64);
        for _ in 0..128 {
            sim.spawn(|ctx| {
                for _ in 0..10 {
                    ctx.advance(7);
                }
                ctx.with_state(|count, _| *count += 1);
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
