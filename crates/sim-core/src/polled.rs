//! The discrete-event driver: rank bodies as polled futures.
//!
//! Every rank body is a future — an `async` block awaiting the leaf
//! futures in this module ([`sim_poll`], [`sim_steps`], [`sim_advance`]),
//! whose state machine the compiler derives. The single-threaded driver
//! polls a body whenever the event queue dispatches to it. A leaf that
//! cannot go on records a [`Park`] (label and optional timer) and the
//! body returns `Pending`; the driver parks the task under a fresh epoch
//! and moves on to the next event. When the task's own timer is strictly
//! the earliest pending event, the driver instead advances the clock in
//! place and polls the task again (the direct-handoff fast path), with
//! the same epoch and sequence-number bookkeeping, so dispatch order and
//! every virtual timestamp are the same with the fast path on or off.
//!
//! An operation that waits only on timers and on the shared state need
//! not live in the body at all. It keeps its progress in `S`, reports
//! through the three-valued [`Step`], and is started by the body with
//! [`sim_steps`]; if the same function is installed with
//! [`PolledSim::set_step_hook`], the driver evaluates it on every
//! dispatch *before* polling the body and re-parks the task on
//! [`Step::Wait`] without entering its future — the body is polled again
//! only when the operation has completed. Epochs, sequence numbers, the
//! fast path, labels and dispatch instants are those of a [`sim_poll`]
//! leaf returning the same waits.
//!
//! ```
//! use kacc_sim_core::polled::{sim_advance, sim_with_state, PolledSim};
//!
//! let mut sim = PolledSim::new(0u64);
//! for _ in 0..4 {
//!     sim.spawn(|_tid| async {
//!         sim_advance::<u64>(10).await;
//!         sim_with_state(|count: &mut u64, _now| *count += 1);
//!     });
//! }
//! let r = sim.run();
//! assert_eq!(r.state, 4);
//! assert_eq!(r.end_time, 10);
//! ```

use crate::{
    flush_run_metrics, EventQueue, KernelState, Poll, RunReport, SimRunMetrics, SimTime,
    ThreadPhase, ThreadSlot, Tracer, Waker, TOTAL_EVENTS, TOTAL_FAST,
};
use kacc_trace::Track;
use std::any::TypeId;
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::task;

/// Why a task parks: the operation's name, for deadlock dumps and
/// dispatch traces, and an optional self-wake timer (external
/// [`Waker::wake_at`] calls can always wake the task earlier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Park {
    /// Operation name.
    pub label: &'static str,
    /// Optional self-wake timer (must not be in the past).
    pub wake_at: Option<SimTime>,
}

/// Result of one evaluation of a stepped operation ([`sim_steps`], or
/// the kernel-side hook of [`PolledSim::set_step_hook`]): [`Poll`] with
/// the park label carried by the wait, plus a way to end an evaluation
/// without parking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<T> {
    /// The operation completed with this value.
    Ready(T),
    /// End this evaluation — the wakes it requested are applied, exactly
    /// as at the end of a [`sim_poll`] evaluation — and evaluate again at
    /// once, at the same virtual time. An operation made of several
    /// evaluations returns this at each boundary between them, so wake
    /// coalescing and the fan-out histogram see the same evaluations a
    /// chain of [`sim_poll`] leaves would produce.
    Again,
    /// Park the task.
    Wait(Park),
}

impl<T> Step<T> {
    /// Transform the completion value, leaving `Again` and `Wait` as
    /// they are.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Step<U> {
        match self {
            Step::Ready(v) => Step::Ready(f(v)),
            Step::Again => Step::Again,
            Step::Wait(park) => Step::Wait(park),
        }
    }
}

/// Kernel-side step function: evaluated with the dispatched task's tid
/// before the task itself is polled. See [`PolledSim::set_step_hook`].
pub type StepHook<S> = fn(&mut S, usize, &mut Waker, SimTime) -> Step<()>;

/// Kernel state shared between the driver and the leaf futures of the
/// tasks it polls. Single-threaded by design: a `RefCell` on the driver's
/// stack.
struct PolledShared<S> {
    st: RefCell<KernelState<S>>,
    /// Set by the innermost leaf future that returned `Pending`; taken
    /// by the driver to park the task.
    pending: Cell<Option<Park>>,
}

impl<S: 'static> PolledShared<S> {
    /// Evaluate a step function for `tid` until it completes or parks,
    /// one wake-flushing evaluation per [`Step`].
    fn steps<T>(
        &self,
        tid: usize,
        mut f: impl FnMut(&mut S, usize, &mut Waker, SimTime) -> Step<T>,
    ) -> Result<T, Park> {
        loop {
            let step = self.st.borrow_mut().evaluate(|s, w, now| f(s, tid, w, now));
            match step {
                Step::Ready(v) => return Ok(v),
                Step::Again => {}
                Step::Wait(park) => return Err(park),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Task-local scope: lets leaf futures find the kernel without threading
// a handle through every async call.
// ---------------------------------------------------------------------

/// The kernel a task poll is running under: a type-erased pointer to its
/// `PolledShared<S>`, the `TypeId` of that `S`, and the polled tid.
#[derive(Clone, Copy)]
struct Scope {
    shared: *const (),
    state: TypeId,
    tid: usize,
}

thread_local! {
    /// Scope of the innermost task poll on this thread, if any. One cell
    /// rather than a stack: a sim run inside another sim's task (tests do
    /// this) saves the outer scope in its [`ScopeGuard`] and restores it.
    static SCOPE: Cell<Option<Scope>> = const { Cell::new(None) };
}

/// Installs a scope for one task poll and restores the previous one on
/// drop (unwind-safe). Borrows the kernel for as long as leaves can see
/// it, which is what makes the pointer in [`Scope`] valid.
struct ScopeGuard<'a, S> {
    outer: Option<Scope>,
    _kernel: PhantomData<&'a PolledShared<S>>,
}

impl<'a, S: 'static> ScopeGuard<'a, S> {
    fn enter(shared: &'a PolledShared<S>, tid: usize) -> ScopeGuard<'a, S> {
        let outer = SCOPE.replace(Some(Scope {
            shared: std::ptr::from_ref(shared).cast(),
            state: TypeId::of::<S>(),
            tid,
        }));
        ScopeGuard {
            outer,
            _kernel: PhantomData,
        }
    }
}

impl<S> Drop for ScopeGuard<'_, S> {
    fn drop(&mut self) {
        SCOPE.set(self.outer);
    }
}

/// Run `f` against the kernel of the task poll in progress.
fn with_current<S: 'static, T>(f: impl FnOnce(&PolledShared<S>, usize) -> T) -> T {
    let scope = SCOPE
        .get()
        .expect("sim leaf used outside a PolledSim task poll");
    assert!(
        scope.state == TypeId::of::<S>(),
        "sim leaf state type does not match the running PolledSim"
    );
    // SAFETY: `scope.shared` was taken from a `&PolledShared<S>` by the
    // `ScopeGuard` that is still alive further up this thread's stack —
    // it removes the scope from `SCOPE` before that borrow ends, and the
    // guard is private to this module and never leaked — so the pointee
    // is live and only shared references to it exist. The `TypeId` check
    // above proves the pointee's type is `PolledShared<S>` for this `S`.
    // `SCOPE` is thread-local, so the reference stays on the thread that
    // owns the kernel, and it cannot outlive this call.
    let shared = unsafe { &*scope.shared.cast::<PolledShared<S>>() };
    f(shared, scope.tid)
}

/// Index of the task currently being polled (spawn order). Callable from
/// inside a task body.
pub fn sim_tid() -> usize {
    SCOPE
        .get()
        .expect("sim_tid used outside a PolledSim task poll")
        .tid
}

/// Current virtual time.
pub fn sim_now<S: 'static>() -> SimTime {
    with_current::<S, _>(|shared, _| shared.st.borrow().now)
}

/// Run `f` atomically against the shared state. Non-blocking, evaluates
/// exactly once.
pub fn sim_with_state<S: 'static, T>(f: impl FnOnce(&mut S, SimTime) -> T) -> T {
    with_current::<S, _>(|shared, _| {
        let mut guard = shared.st.borrow_mut();
        let st = &mut *guard;
        f(&mut st.user, st.now)
    })
}

/// The core blocking leaf: evaluates `f` once per driver dispatch until
/// it returns [`Poll::Ready`]. On [`Poll::Wait`] the future returns
/// `Pending` and the driver parks the task with this leaf's
/// `(label, wake_at)`; `label` appears in deadlock dumps and dispatch
/// traces. A [`sim_steps`] leaf whose every wait carries `label`.
pub fn sim_poll<S, T, F>(label: &'static str, mut f: F) -> impl Future<Output = T>
where
    S: 'static,
    F: FnMut(&mut S, &mut Waker, SimTime) -> Poll<T> + Unpin,
{
    sim_steps(move |s: &mut S, _tid, w, now| match f(s, w, now) {
        Poll::Ready(v) => Step::Ready(v),
        Poll::Wait { wake_at } => Step::Wait(Park { label, wake_at }),
    })
}

/// Charge `dt` nanoseconds of virtual time to this task (label
/// `advance`; the deadline is taken at the first evaluation).
pub async fn sim_advance<S: 'static>(dt: SimTime) {
    let mut deadline = None;
    sim_poll("advance", move |_s: &mut S, _w, now| {
        let d = *deadline.get_or_insert(now + dt);
        if now >= d {
            Poll::Ready(())
        } else {
            Poll::Wait { wake_at: Some(d) }
        }
    })
    .await
}

/// The leaf future: evaluates `f` (with the task's tid) until it returns
/// [`Step::Ready`], parking the task on [`Step::Wait`]. An operation
/// whose progress lives in the shared state rather than in the awaiting
/// task pairs it with [`PolledSim::set_step_hook`]: the kernel advances
/// the operation on every later dispatch and this future is polled again
/// only to collect the result.
pub fn sim_steps<S, T, F>(f: F) -> SimStepsFuture<S, T, F>
where
    S: 'static,
    F: FnMut(&mut S, usize, &mut Waker, SimTime) -> Step<T>,
{
    SimStepsFuture {
        f,
        _types: PhantomData,
    }
}

/// Future returned by [`sim_steps`].
pub struct SimStepsFuture<S, T, F> {
    f: F,
    _types: PhantomData<fn(&mut S) -> T>,
}

impl<S, T, F> Future for SimStepsFuture<S, T, F>
where
    S: 'static,
    F: FnMut(&mut S, usize, &mut Waker, SimTime) -> Step<T> + Unpin,
{
    type Output = T;

    fn poll(self: Pin<&mut Self>, _cx: &mut task::Context<'_>) -> task::Poll<T> {
        let this = self.get_mut();
        with_current::<S, _>(|shared, tid| match shared.steps(tid, &mut this.f) {
            Ok(v) => task::Poll::Ready(v),
            Err(park) => {
                shared.pending.set(Some(park));
                task::Poll::Pending
            }
        })
    }
}

/// A rank body as the driver owns it.
type Body = Pin<Box<dyn Future<Output = ()>>>;

/// A simulation under construction: create, spawn tasks, run.
pub struct PolledSim<S: 'static> {
    state: Option<S>,
    bodies: Vec<Body>,
    tracer: Tracer,
    fast_path: bool,
    hook: Option<StepHook<S>>,
}

impl<S: 'static> PolledSim<S> {
    /// Create a simulation owning the shared machine state.
    pub fn new(state: S) -> PolledSim<S> {
        PolledSim {
            state: Some(state),
            bodies: Vec::new(),
            tracer: Tracer::off(),
            fast_path: true,
            hook: None,
        }
    }

    /// Send every scheduler dispatch, as an instant event on the task's
    /// rank track, to `tracer` (shared with other layers, e.g. the
    /// machine model); `Tracer::buffered()` captures them in memory.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Enable or disable the direct-handoff fast path (default: on).
    ///
    /// Disabling forces every wake through the event queue. Epochs and
    /// sequence numbers advance identically on both routes, so virtual
    /// time, dispatch order and traces are the same by construction; the
    /// queue route is the reference the fast path is tested against.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
    }

    /// Install a kernel-side step function: on every dispatch (queue pop
    /// or direct hand-off) it is evaluated for the dispatched tid *before*
    /// the task is polled — through the same wake-flushing evaluation as
    /// a [`sim_poll`] closure, again on [`Step::Again`]. On
    /// [`Step::Wait`] the task parks with that label and timer without
    /// being polled at all; on [`Step::Ready`] the task is polled as
    /// usual. An operation whose state is resident in `S` (started by the
    /// task through [`sim_steps`] with the same function) thus advances
    /// without re-entering the task's future until it completes. The
    /// function must return `Ready(())` when `tid` has nothing resident.
    pub fn set_step_hook(&mut self, hook: StepHook<S>) {
        self.hook = Some(hook);
    }

    /// Register a rank body as an `async` block. `f` receives the tid
    /// (spawn order) and returns the future to drive; bodies run their
    /// first steps at t=0 in spawn order.
    pub fn spawn<Fut>(&mut self, f: impl FnOnce(usize) -> Fut) -> usize
    where
        Fut: Future<Output = ()> + 'static,
    {
        let tid = self.bodies.len();
        self.bodies.push(Box::pin(f(tid)));
        tid
    }

    /// Run the simulation to completion on the calling thread, one task
    /// poll per dispatched event. Panics (with the failing task's
    /// message) if any task panicked or the simulation deadlocked.
    pub fn run(mut self) -> RunReport<S> {
        let n = self.bodies.len();
        let shared = PolledShared {
            st: RefCell::new(KernelState {
                now: 0,
                seq: 0,
                queue: EventQueue::new(n),
                threads: (0..n)
                    .map(|_| ThreadSlot {
                        phase: ThreadPhase::Starting,
                        epoch: 0,
                        label: "start",
                        finish_time: None,
                    })
                    .collect(),
                live: n,
                user: self.state.take().expect("run called once"),
                panic_msg: None,
                dispatches: 0,
                fast_handoffs: 0,
                waker: Waker::new(),
                fast_path: self.fast_path,
                metrics: SimRunMetrics::default(),
                tracer: self.tracer.clone(),
            }),
            pending: Cell::new(None),
        };

        // Seed start events in spawn order.
        {
            let mut st = shared.st.borrow_mut();
            for tid in 0..n {
                st.push_event(0, tid, 0);
            }
        }

        let mut bodies: Vec<Option<Body>> = self.bodies.drain(..).map(Some).collect();
        let hook = self.hook;
        let mut fcx = task::Context::from_waker(task::Waker::noop());

        'outer: loop {
            // Dispatch: pick the next runnable task and advance the
            // clock, discarding stale wakes; an empty queue with live
            // tasks is a deadlock.
            let tid = {
                let mut guard = shared.st.borrow_mut();
                let st = &mut *guard;
                loop {
                    let Some((t, _seq, tid, epoch)) = st.queue.pop() else {
                        if st.live == 0 {
                            break 'outer;
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
                        break 'outer;
                    };
                    let slot = &mut st.threads[tid];
                    // Discard stale wakes (task re-parked or finished since).
                    if slot.phase == ThreadPhase::Finished || slot.epoch != epoch {
                        continue;
                    }
                    // Virtual time is monotone.
                    debug_assert!(t >= st.now, "event queue went backwards");
                    st.now = t;
                    st.dispatches += 1;
                    slot.phase = ThreadPhase::Running;
                    st.tracer.instant(Track::Rank(tid), slot.label, t);
                    break tid;
                }
            };

            // Poll: drive the dispatched task, absorbing direct-handoff
            // re-polls inline.
            loop {
                shared.pending.set(None);
                let body = bodies[tid].as_mut().expect("dispatched task is live");
                let polled = catch_unwind(AssertUnwindSafe(|| {
                    // The resident operation first: while it waits, the
                    // task's own future has nothing to do.
                    if let Some(park) = hook.and_then(|hook| shared.steps(tid, hook).err()) {
                        return Some(park);
                    }
                    let _scope = ScopeGuard::enter(&shared, tid);
                    match body.as_mut().poll(&mut fcx) {
                        task::Poll::Ready(()) => None,
                        task::Poll::Pending => Some(shared.pending.take().expect(
                            "task returned Pending without blocking on a sim leaf \
                             (await sim_poll/sim_advance, not foreign futures)",
                        )),
                    }
                }));
                match polled {
                    Err(p) => {
                        let msg = p
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "non-string panic".to_string());
                        let mut guard = shared.st.borrow_mut();
                        let st = &mut *guard;
                        st.threads[tid].phase = ThreadPhase::Finished;
                        st.threads[tid].finish_time = Some(st.now);
                        st.live -= 1;
                        if st.panic_msg.is_none() {
                            st.panic_msg = Some(format!("simulated thread {tid} panicked: {msg}"));
                        }
                        break 'outer;
                    }
                    Ok(None) => {
                        let mut guard = shared.st.borrow_mut();
                        let st = &mut *guard;
                        st.threads[tid].phase = ThreadPhase::Finished;
                        st.threads[tid].finish_time = Some(st.now);
                        st.live -= 1;
                        bodies[tid] = None;
                        continue 'outer;
                    }
                    Ok(Some(Park { label, wake_at })) => {
                        let mut guard = shared.st.borrow_mut();
                        let st = &mut *guard;
                        let now = st.now;
                        if let Some(at) = wake_at {
                            debug_assert!(
                                at >= now,
                                "poll('{label}') timer in the past: t={at}ns but now={now}ns"
                            );
                            let t = at.max(now);
                            // Purge stale heads (finished tasks, or our own
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
                            // strictly earliest, so the queue route would
                            // park, pop this very wake and poll us again.
                            // Advance the clock in place instead — same
                            // epoch/seq bookkeeping, same dispatch instant.
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
                            st.push_event(at, tid, epoch);
                        }
                        continue 'outer;
                    }
                }
            }
        }

        // Run the bodies' destructors now, not while a panic raised below
        // unwinds.
        drop(bodies);
        let st = shared.st.into_inner();
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
                .map(|t| t.finish_time.expect("finished task has time"))
                .collect(),
            state: st.user,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn single_task_advances_time() {
        let mut sim = PolledSim::new(());
        sim.spawn(|_tid| async {
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
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let go = || {
            let mut sim = PolledSim::new(Vec::<(usize, SimTime)>::new());
            for tid in 0..4 {
                sim.spawn(move |_| async move {
                    for _ in 0..3 {
                        sim_advance::<Vec<(usize, SimTime)>>(10 + tid as u64).await;
                        sim_with_state(|log: &mut Vec<(usize, SimTime)>, now| log.push((tid, now)));
                    }
                });
            }
            sim.run().state
        };
        let a = go();
        let b = go();
        assert_eq!(a, b);
        assert_eq!(a[0], (0, 10));
    }

    #[test]
    fn poll_sees_external_wakes() {
        let mut sim = PolledSim::new((false, 0usize));
        let waiter = 1usize;
        sim.spawn(move |_| async move {
            sim_advance::<(bool, usize)>(50).await;
            sim_with_state(|s: &mut (bool, usize), _| s.0 = true);
            sim_poll("signal", move |_: &mut (bool, usize), w, now| {
                w.wake_at(waiter, now);
                Poll::Ready(())
            })
            .await;
        });
        sim.spawn(|_| async {
            sim_poll("wait flag", |s: &mut (bool, usize), _w, _now| {
                if s.0 {
                    Poll::Ready(())
                } else {
                    s.1 += 1;
                    Poll::Wait { wake_at: None }
                }
            })
            .await;
            assert_eq!(sim_now::<(bool, usize)>(), 50);
        });
        let r = sim.run();
        assert_eq!(r.end_time, 50);
        // The waiter's closure ran once to block and once to complete.
        assert_eq!(r.state.1, 1);
    }

    #[test]
    fn premature_wakes_reblock() {
        let mut sim = PolledSim::new(());
        let sleeper = 0usize;
        sim.spawn(|_| async {
            sim_advance::<()>(1000).await;
            assert_eq!(sim_now::<()>(), 1000);
        });
        sim.spawn(move |_| async move {
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
    #[should_panic(
        expected = "deadlock at t=0ns: 1 live thread(s) blocked with no pending events\n  thread 0: Parked on 'forever'"
    )]
    fn deadlock_is_detected() {
        let mut sim = PolledSim::new(());
        sim.spawn(|_| async {
            sim_poll::<(), (), _>("forever", |_, _, _| Poll::Wait { wake_at: None }).await;
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "thread 0 panicked: boom")]
    fn task_panics_propagate() {
        let mut sim = PolledSim::new(());
        sim.spawn(|_| async { panic!("boom") });
        sim.spawn(|_| async {
            sim_advance::<()>(10).await;
        });
        sim.run();
    }

    /// The staggered-advance program on both routes, against the log,
    /// clocks and event count the thread kernel produced for it.
    #[test]
    fn matches_threads_engine_bitwise() {
        #[rustfmt::skip]
        let log = vec![
            (0, 7), (1, 10), (2, 13), (0, 14), (3, 16), (4, 19), (1, 20), (0, 21),
            (5, 22), (2, 26), (0, 28), (1, 30), (3, 32), (4, 38), (2, 39), (1, 40),
            (5, 44), (3, 48), (2, 52), (4, 57), (3, 64), (5, 66), (4, 76), (5, 88),
        ];
        let finish = vec![28, 40, 52, 64, 76, 88];
        let (fast, slow) = (
            crate::tests::staggered(true),
            crate::tests::staggered(false),
        );
        for (got, route) in [(&fast, "fast"), (&slow, "queue")] {
            assert_eq!(got.0, log, "{route} route log");
            assert_eq!(
                (got.1, &got.2, got.3),
                (88, &finish, 30),
                "{route} route clocks"
            );
        }
        assert_eq!(fast.4, slow.4, "the routes' dispatch traces differ");
    }

    /// A deposit and its take, at the times and event count the thread
    /// kernel produced.
    #[test]
    fn mailboxes_work_identically() {
        use crate::Mailboxes;
        let mut sim = PolledSim::new(Mailboxes::new());
        sim.spawn(|_| async {
            sim_advance::<Mailboxes>(10).await;
            sim_poll("send", |m: &mut Mailboxes, w, now| {
                m.deposit(w, 1, 0, 7, now + 25, b"hi".to_vec());
                Poll::Ready(())
            })
            .await;
        });
        sim.spawn(|tid| async move {
            let msg = sim_poll("recv", move |m: &mut Mailboxes, _w, now| {
                m.take(tid, 1, 0, 7, now)
            })
            .await;
            assert_eq!(msg, b"hi");
        });
        let r = sim.run();
        assert_eq!(
            (r.end_time, r.finish_times, r.events),
            (35, vec![10, 35], 4)
        );
    }

    /// An inner sim of another state type, run to completion from inside a
    /// task of the outer one, then `leaf` back in the outer task.
    fn nested(leaf: impl FnOnce() + 'static) -> u64 {
        let mut outer = PolledSim::new(0u64);
        outer.spawn(|_| async move {
            sim_advance::<u64>(5).await;
            let mut inner = PolledSim::new(String::new());
            inner.spawn(|tid| async move {
                sim_advance::<String>(7).await;
                assert_eq!(sim_tid(), tid);
                sim_with_state(|s: &mut String, now| *s = format!("inner@{now}"));
            });
            let r = inner.run();
            assert_eq!((r.state.as_str(), r.end_time), ("inner@7", 7));
            // The outer scope is back: right tid, right clock, right type.
            assert_eq!((sim_tid(), sim_now::<u64>()), (0, 5));
            sim_advance::<u64>(1).await;
            leaf();
        });
        outer.run().state
    }

    #[test]
    fn a_sim_inside_a_task_restores_the_outer_scope() {
        assert_eq!(nested(|| sim_with_state(|n: &mut u64, now| *n = now)), 6);
    }

    #[test]
    #[should_panic(expected = "sim leaf state type does not match the running PolledSim")]
    fn wrong_typed_leaf_after_a_nested_sim_is_caught() {
        nested(|| {
            sim_now::<String>();
        });
    }

    #[test]
    #[should_panic(expected = "outside a PolledSim task poll")]
    fn leaves_outside_a_task_poll_are_caught() {
        sim_now::<()>();
    }

    /// State for the stepped-operation tests: task 0's resident "sleep
    /// until", advanced by [`resident_hook`], plus evaluation counters.
    #[derive(Default)]
    struct Resident {
        until: Option<SimTime>,
        hook_evals: Vec<SimTime>,
        leaf_evals: u32,
    }

    fn resident_hook(s: &mut Resident, tid: usize, _w: &mut Waker, now: SimTime) -> Step<()> {
        match s.until {
            Some(u) if tid == 0 => {
                s.hook_evals.push(now);
                if now < u {
                    Step::Wait(Park {
                        label: "resident",
                        wake_at: Some(u),
                    })
                } else {
                    s.until = None;
                    Step::Ready(())
                }
            }
            _ => Step::Ready(()),
        }
    }

    /// A rank body that starts a resident sleep of `dt` through
    /// `sim_steps` and collects it.
    async fn resident_sleep(dt: SimTime) {
        let mut started = false;
        sim_steps(move |s: &mut Resident, tid, w, now| {
            s.leaf_evals += 1;
            if !std::mem::replace(&mut started, true) {
                s.until = Some(now + dt);
            }
            resident_hook(s, tid, w, now)
        })
        .await
    }

    #[test]
    fn again_flushes_wakes_once_per_evaluation() {
        // Two wakes from two evaluations of one stepped operation are two
        // fan-out samples of 1; the same two wakes from one `sim_poll`
        // evaluation are one sample of 2.
        let run = |split: bool| {
            let mut sim = PolledSim::new(());
            sim.spawn(move |_| async move {
                if split {
                    let mut evals = 0;
                    sim_steps(move |_: &mut (), _tid, w, now| {
                        evals += 1;
                        w.wake_at(evals, now + 5);
                        if evals == 1 {
                            Step::Again
                        } else {
                            Step::Ready(())
                        }
                    })
                    .await;
                } else {
                    sim_poll("both", |_: &mut (), w, now| {
                        w.wake_at(1, now + 5);
                        w.wake_at(2, now + 5);
                        Poll::Ready(())
                    })
                    .await;
                }
            });
            for _ in 0..2 {
                sim.spawn(|_| async {
                    sim_advance::<()>(9).await;
                });
            }
            let m = sim.run().metrics;
            (m.wakes_raw, m.wake_fanout.count(), m.wake_fanout.max())
        };
        assert_eq!(run(true), (2, 2, 1));
        assert_eq!(run(false), (2, 1, 2));
    }

    #[test]
    fn hook_steps_the_operation_and_the_future_is_polled_twice() {
        // Another task's wake at t=4 dispatches the sleeper early: the
        // hook re-parks it without touching its future. The sleeper's
        // leaf runs once to start the operation and once to collect it.
        let (tracer, buf) = Tracer::buffered();
        let mut sim = PolledSim::new(Resident::default());
        sim.set_tracer(tracer);
        sim.set_step_hook(resident_hook);
        sim.spawn(|_| resident_sleep(10));
        sim.spawn(|_| async {
            sim_advance::<Resident>(4).await;
            sim_poll("poke", |_: &mut Resident, w, now| {
                w.wake_at(0, now);
                Poll::Ready(())
            })
            .await;
            sim_advance::<Resident>(20).await;
        });
        let r = sim.run();
        assert_eq!(r.finish_times, vec![10, 24]);
        assert_eq!(r.state.leaf_evals, 2);
        // Evaluated while resident: by the leaf at 0 (starts it), by the
        // hook at 4 (premature) and 10 (completes it).
        assert_eq!(r.state.hook_evals, vec![0, 4, 10]);
        let dispatched: Vec<SimTime> = buf
            .take()
            .iter()
            .filter(|e| e.track == Track::Rank(0) && e.name == "resident")
            .map(|e| e.ts())
            .collect();
        assert_eq!(
            dispatched,
            vec![4, 10],
            "the hook's label names the dispatches"
        );
    }

    #[test]
    fn own_timer_wait_from_the_hook_takes_the_fast_path() {
        // Alone in the sim, the sleeper's timer is strictly earliest when
        // its leaf parks: it hands off in place and the dispatch at t=10
        // goes through the hook, which completes the operation.
        let mut sim = PolledSim::new(Resident::default());
        sim.set_step_hook(resident_hook);
        sim.spawn(|_| resident_sleep(10));
        let r = sim.run();
        assert_eq!(r.end_time, 10);
        assert_eq!(r.metrics.fast_handoffs, 1);
        assert_eq!((r.state.leaf_evals, r.state.hook_evals), (2, vec![0, 10]));

        // Woken early at t=3 by a task that then finishes, the sleeper is
        // re-parked by the hook with the queue empty: the hook's own wait
        // hands off in place too (the other hand-off is the waker's
        // `advance`), and comes back through the hook at t=10.
        let mut sim = PolledSim::new(Resident::default());
        sim.set_step_hook(resident_hook);
        sim.spawn(|_| resident_sleep(10));
        sim.spawn(|_| async {
            sim_advance::<Resident>(3).await;
            sim_poll("poke", |_: &mut Resident, w, now| {
                w.wake_at(0, now);
                Poll::Ready(())
            })
            .await;
        });
        let r = sim.run();
        assert_eq!(r.finish_times, vec![10, 3]);
        assert_eq!(r.metrics.fast_handoffs, 2);
        assert_eq!(
            (r.state.leaf_evals, r.state.hook_evals),
            (2, vec![0, 3, 10])
        );
    }

    #[test]
    #[should_panic(expected = "Parked on 'resident'")]
    fn a_hook_wait_without_a_timer_is_named_in_the_deadlock_dump() {
        fn stuck(_: &mut (), _tid: usize, _w: &mut Waker, now: SimTime) -> Step<()> {
            if now == 0 {
                Step::Ready(())
            } else {
                Step::Wait(Park {
                    label: "resident",
                    wake_at: None,
                })
            }
        }
        let mut sim = PolledSim::new(());
        sim.set_step_hook(stuck);
        sim.spawn(|_| async {
            sim_advance::<()>(5).await;
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "simulated thread 1 panicked: hook boom")]
    fn hook_panics_are_reported_as_the_dispatched_task() {
        fn boom(_: &mut (), tid: usize, _w: &mut Waker, now: SimTime) -> Step<()> {
            assert!(!(tid == 1 && now == 7), "hook boom");
            Step::Ready(())
        }
        let mut sim = PolledSim::new(());
        sim.set_step_hook(boom);
        for dt in [3, 7] {
            sim.spawn(move |_| async move {
                sim_advance::<()>(dt).await;
            });
        }
        sim.run();
    }

    #[test]
    fn external_tracer_receives_dispatches() {
        let (tracer, buf) = Tracer::buffered();
        let mut sim = PolledSim::new(());
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
    fn many_tasks_scale_without_threads() {
        let mut sim = PolledSim::new(0u64);
        for _ in 0..512 {
            sim.spawn(|_| async {
                for _ in 0..10 {
                    sim_advance::<u64>(7).await;
                }
                sim_with_state(|count: &mut u64, _| *count += 1);
            });
        }
        let r = sim.run();
        assert_eq!(r.state, 512);
        assert_eq!(r.end_time, 70);
    }
}
