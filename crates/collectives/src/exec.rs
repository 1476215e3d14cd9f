//! Execution policy, accounting and the blocking entry points of the
//! schedule executor.
//!
//! The executor itself — step loop and recovery ladder — lives in
//! [`crate::polled`] and is written once against
//! [`kacc_comm::AsyncComm`]. This module holds what every execution
//! shares regardless of transport: the [`RecoveryPolicy`] /
//! [`MembershipPolicy`] knobs, the [`ScheduleReport`] /
//! [`RecoveryReport`] accounting with its single [`Recorder`] write
//! path, the slot/register context a plan executes in, and
//! [`execute`] / [`execute_traced`], which run that executor on a
//! blocking [`Comm`] through [`Blocking`] + [`block_on`]. A recovery
//! policy other than the default is set on the async entry,
//! [`crate::polled::execute_polled_with_policy`].
//!
//! On the simulator the timings are deterministic virtual nanoseconds;
//! on the native transports they are monotonic wall-clock nanoseconds —
//! both come from the endpoint's `time_ns`, so the report means "time
//! this rank spent inside each primitive" on every transport.

use std::sync::OnceLock;

use kacc_comm::{
    block_on, smcoll, AsyncComm, Blocking, BufId, Comm, CommError, RemoteToken, Result,
};
use kacc_metrics::{bucket_index, bucket_quantile_bound, BUCKETS};
use kacc_trace::{Event, EventKind, Tracer, Track};

use crate::polled::{execute_polled, execute_polled_with_policy};
use crate::schedule::{Payload, RecvInto, Schedule, Slot, Step};

/// Liveness-watchdog and shrink parameters of the membership layer:
/// turns silent peer death into the typed [`CommError::PeerDead`] and
/// governs the shrink-and-re-execute loop in [`crate::membership`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipPolicy {
    /// Arm the liveness watchdog: blocking receives are bounded by
    /// `liveness_timeout_ns` (unless `step_timeout_ns` already bounds
    /// them), and an expired wait or transport `ESRCH` on a step with an
    /// identifiable peer becomes [`CommError::PeerDead`] naming that
    /// peer.
    pub watch: bool,
    /// Per-attempt liveness deadline for blocking receives, in
    /// nanoseconds (virtual under simulation). Ignored while `watch` is
    /// off or `step_timeout_ns` sets a deadline of its own.
    pub liveness_timeout_ns: u64,
}

impl MembershipPolicy {
    /// Watchdog off — executions behave exactly as they did before the
    /// membership layer existed. This is the `Default`, so existing
    /// policies are unchanged.
    pub fn disabled() -> MembershipPolicy {
        MembershipPolicy {
            watch: false,
            liveness_timeout_ns: 0,
        }
    }

    /// Watchdog armed with the defaults the survivable drivers use.
    pub fn survivable() -> MembershipPolicy {
        MembershipPolicy {
            watch: true,
            liveness_timeout_ns: 200_000,
        }
    }
}

impl Default for MembershipPolicy {
    fn default() -> MembershipPolicy {
        MembershipPolicy::disabled()
    }
}

/// How the executor reacts to faults surfaced by the transport.
///
/// The default policy retries transient errors a few times with
/// exponential backoff and degrades persistently-failing CMA steps to
/// the two-copy shared-memory fallback; it never bounds blocking waits
/// (`step_timeout_ns: None`), so a fault-free execution is identical to
/// the policy-free path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Consecutive failed attempts tolerated per step before giving up
    /// (or falling back). Progress — a short read that moved bytes —
    /// resets the budget.
    pub max_retries: u32,
    /// Base backoff between retries, doubled per consecutive failure
    /// (capped at `base << 5`); charged through [`Comm::sleep_ns`] so it
    /// is virtual time under simulation. `0` disables backoff.
    pub backoff_ns: u64,
    /// Degrade a persistently failing CMA step to the two-copy
    /// [`Comm::shm_fallback_read`]/`write` path instead of failing.
    pub cma_fallback: bool,
    /// Bound every blocking step (control receives, notification waits,
    /// bulk receives) to this many nanoseconds per attempt, turning a
    /// silent hang into a typed [`CommError::Timeout`]. `None` blocks
    /// forever, exactly as the transports do natively.
    pub step_timeout_ns: Option<u64>,
    /// Liveness watchdog and shrink parameters (off by default).
    pub membership: MembershipPolicy,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 3,
            backoff_ns: 1_000,
            cma_fallback: true,
            step_timeout_ns: None,
            membership: MembershipPolicy::disabled(),
        }
    }
}

impl RecoveryPolicy {
    /// The default recovery ladder with the liveness watchdog armed
    /// ([`MembershipPolicy::survivable`]).
    pub fn survivable() -> RecoveryPolicy {
        RecoveryPolicy {
            membership: MembershipPolicy::survivable(),
            ..RecoveryPolicy::default()
        }
    }
}

/// What recovery did during one schedule execution. All-zero (its
/// `Default`) on a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transient failures (EAGAIN-class) that were retried.
    pub transient_retries: u64,
    /// Time spent inside attempts that failed transiently.
    pub transient_ns: u64,
    /// Short CMA transfers resumed from a partial offset.
    pub short_resumes: u64,
    /// Bytes salvaged by those partial transfers.
    pub short_bytes: u64,
    /// Permission-denied faults routed to the fallback path.
    pub denied: u64,
    /// Time spent inside the denied attempts.
    pub denied_ns: u64,
    /// Bounded waits that expired ([`CommError::Timeout`]).
    pub timeouts: u64,
    /// Time spent waiting in those expired attempts.
    pub timeout_ns: u64,
    /// Backoff sleeps taken between retries.
    pub backoffs: u64,
    /// Total backoff time.
    pub backoff_ns: u64,
    /// CMA steps completed via the two-copy shared-memory fallback.
    pub fallbacks: u64,
    /// Bytes moved by the fallback path.
    pub fallback_bytes: u64,
    /// Time spent inside the fallback transfers.
    pub fallback_ns: u64,
    /// Peers the liveness watchdog suspected dead.
    pub suspects: u64,
    /// Time spent inside the attempts that raised those suspicions.
    pub suspect_ns: u64,
    /// Bitmask of suspected ranks, bit `rank & 63` per suspicion (ranks
    /// are parent-communicator numbers; the executor enforces `p <= 64`
    /// only in the membership driver, so the mask wraps above 64).
    pub suspect_mask: u64,
}

impl RecoveryReport {
    /// True when no recovery action fired (the execution was fault-free).
    pub fn is_clean(&self) -> bool {
        *self == RecoveryReport::default()
    }

    /// Fold one recovery span into the counters; returns false for span
    /// names that are not recovery spans. Shared by the live recorder
    /// and [`ScheduleReport::from_events`] so the two cannot drift.
    fn add_span(&mut self, name: &str, bytes: u64, dt: u64) -> bool {
        match name {
            "fault:transient" => {
                self.transient_retries += 1;
                self.transient_ns += dt;
            }
            "fault:short" => {
                self.short_resumes += 1;
                self.short_bytes += bytes;
            }
            "fault:denied" => {
                self.denied += 1;
                self.denied_ns += dt;
            }
            "fault:timeout" => {
                self.timeouts += 1;
                self.timeout_ns += dt;
            }
            "retry:backoff" => {
                self.backoffs += 1;
                self.backoff_ns += dt;
            }
            "fallback:read" | "fallback:write" => {
                self.fallbacks += 1;
                self.fallback_bytes += bytes;
                self.fallback_ns += dt;
            }
            // The suspected rank travels in the span's bytes field.
            "membership:suspect" => {
                self.suspects += 1;
                self.suspect_ns += dt;
                self.suspect_mask |= 1u64 << (bytes & 63);
            }
            _ => return false,
        }
        true
    }
}

/// Caller buffers a schedule's symbolic slots resolve to.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bindings {
    /// Buffer behind [`Slot::Send`], if the plan references it.
    pub send: Option<BufId>,
    /// Buffer behind [`Slot::Recv`], if the plan references it.
    pub recv: Option<BufId>,
}

/// Accumulated count / bytes / time for one step kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Steps of this kind executed.
    pub count: u64,
    /// Payload bytes they moved (0 for pure synchronization).
    pub bytes: u64,
    /// Time spent inside them, in `Comm::time_ns` units (virtual under
    /// simulation, wall-clock on native transports).
    pub time_ns: u64,
}

impl StepStats {
    fn add(&mut self, bytes: usize, dt: u64) {
        self.count += 1;
        self.bytes += bytes as u64;
        self.time_ns += dt;
    }
}

/// Step kinds the executor records — one per [`ScheduleReport`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepKind {
    Expose,
    CmaRead,
    CmaWrite,
    CopyLocal,
    CtrlSend,
    CtrlRecv,
    Notify,
    WaitNotify,
    ShmSend,
    ShmRecv,
    Reduce,
}

impl StepKind {
    /// Span name in the trace; the `step:` prefix keeps executor spans
    /// distinct from the machine layer's transport spans of similar names.
    pub(crate) fn span_name(self) -> &'static str {
        match self {
            StepKind::Expose => "step:expose",
            StepKind::CmaRead => "step:cma_read",
            StepKind::CmaWrite => "step:cma_write",
            StepKind::CopyLocal => "step:copy_local",
            StepKind::CtrlSend => "step:ctrl_send",
            StepKind::CtrlRecv => "step:ctrl_recv",
            StepKind::Notify => "step:notify",
            StepKind::WaitNotify => "step:wait_notify",
            StepKind::ShmSend => "step:shm_send",
            StepKind::ShmRecv => "step:shm_recv",
            StepKind::Reduce => "step:reduce",
        }
    }

    fn from_span_name(name: &str) -> Option<StepKind> {
        Some(match name {
            "step:expose" => StepKind::Expose,
            "step:cma_read" => StepKind::CmaRead,
            "step:cma_write" => StepKind::CmaWrite,
            "step:copy_local" => StepKind::CopyLocal,
            "step:ctrl_send" => StepKind::CtrlSend,
            "step:ctrl_recv" => StepKind::CtrlRecv,
            "step:notify" => StepKind::Notify,
            "step:wait_notify" => StepKind::WaitNotify,
            "step:shm_send" => StepKind::ShmSend,
            "step:shm_recv" => StepKind::ShmRecv,
            "step:reduce" => StepKind::Reduce,
            _ => return None,
        })
    }

    /// Every kind, in discriminant order — `kind as usize` indexes
    /// tables built from this array (the metrics handle table relies
    /// on that alignment).
    pub(crate) const ALL: [StepKind; 11] = [
        StepKind::Expose,
        StepKind::CmaRead,
        StepKind::CmaWrite,
        StepKind::CopyLocal,
        StepKind::CtrlSend,
        StepKind::CtrlRecv,
        StepKind::Notify,
        StepKind::WaitNotify,
        StepKind::ShmSend,
        StepKind::ShmRecv,
        StepKind::Reduce,
    ];
}

/// Pre-resolved `kacc-metrics` handles for the executor. Registered
/// once per process; recording through a cached handle writes the
/// calling thread's shard (relaxed loads and stores), so the always-on
/// path stays off the lock in the metric registry.
struct CollHandles {
    /// Per-step-kind latency histograms, indexed by `StepKind as usize`.
    steps: [kacc_metrics::Hist; 11],
    /// End-to-end schedule latency across all collective classes.
    exec_ns: kacc_metrics::Hist,
    /// Per-collective-class latency histograms (`coll.bcast.ns`, ...).
    class_ns: Vec<(u32, kacc_metrics::Hist)>,
    transient_retries: kacc_metrics::Counter,
    short_resumes: kacc_metrics::Counter,
    short_bytes: kacc_metrics::Counter,
    denied: kacc_metrics::Counter,
    timeouts: kacc_metrics::Counter,
    backoffs: kacc_metrics::Counter,
    fallbacks: kacc_metrics::Counter,
    fallback_bytes: kacc_metrics::Counter,
    suspects: kacc_metrics::Counter,
}

fn coll_handles() -> &'static CollHandles {
    static HANDLES: OnceLock<CollHandles> = OnceLock::new();
    HANDLES.get_or_init(|| CollHandles {
        steps: StepKind::ALL.map(|k| {
            let short = k.span_name().trim_start_matches("step:");
            kacc_metrics::hist(&format!("coll.step.{short}.ns"))
        }),
        exec_ns: kacc_metrics::hist("coll.exec.ns"),
        class_ns: kacc_comm::tagclass::PLANS
            .iter()
            .map(|&(class, name)| {
                let short = name.rsplit("::").next().unwrap_or(name);
                (class, kacc_metrics::hist(&format!("coll.{short}.ns")))
            })
            .collect(),
        transient_retries: kacc_metrics::counter("coll.recovery.transient_retries"),
        short_resumes: kacc_metrics::counter("coll.recovery.short_resumes"),
        short_bytes: kacc_metrics::counter("coll.recovery.short_bytes"),
        denied: kacc_metrics::counter("coll.recovery.denied"),
        timeouts: kacc_metrics::counter("coll.recovery.timeouts"),
        backoffs: kacc_metrics::counter("coll.recovery.backoffs"),
        fallbacks: kacc_metrics::counter("coll.recovery.fallbacks"),
        fallback_bytes: kacc_metrics::counter("coll.recovery.fallback_bytes"),
        suspects: kacc_metrics::counter("coll.recovery.suspects"),
    })
}

/// Quantile (parts-per-million) of the per-step latency distribution
/// reported as [`ScheduleReport::step_p99_ns`].
pub(crate) const P99_PPM: u64 = 990_000;

/// One execution's per-step latency tally: a count per log₂ bucket and
/// the largest sample, which is all [`ScheduleReport::step_p99_ns`]
/// needs. The samples themselves go straight into the global per-kind
/// histograms.
struct StepTally {
    buckets: [u32; BUCKETS],
    max: u64,
}

impl StepTally {
    fn new() -> StepTally {
        StepTally {
            buckets: [0; BUCKETS],
            max: 0,
        }
    }

    fn record(&mut self, dt: u64) {
        self.buckets[bucket_index(dt)] += 1;
        self.max = self.max.max(dt);
    }

    /// The p99 bound of the `steps` tallied samples, equal to
    /// [`kacc_metrics::LocalHist::quantile_bound`] over the same samples.
    fn p99(&self, steps: u64) -> u64 {
        let counts = self.buckets.iter().map(|&n| u64::from(n));
        bucket_quantile_bound(counts, steps, self.max, P99_PPM)
    }
}

/// The single recording path: every executed step flows through
/// [`Recorder::add`], which updates the [`ScheduleReport`] *and* emits the
/// trace span from the same measurements — counts and bytes can never
/// drift between the two.
///
/// The recorder also carries the execution's clock cursor: `now` is the
/// last `time_ns` read, the end of the last recorded interval, and so the
/// start of the next one. A step starts where the previous one ended, so
/// a clean execution reads the clock once per step plus once at the
/// start (DESIGN.md §8).
pub(crate) struct Recorder<'t> {
    pub(crate) report: ScheduleReport,
    pub(crate) tracer: &'t Tracer,
    pub(crate) track: Track,
    pub(crate) class: Option<u32>,
    /// Clock read taken before the first step.
    start: u64,
    /// The last clock read: the start of the next interval.
    pub(crate) now: u64,
    /// This execution's step latencies, for its p99.
    tally: StepTally,
}

impl<'t> Recorder<'t> {
    /// A recorder whose first interval starts at `start`.
    pub(crate) fn new(
        tracer: &'t Tracer,
        track: Track,
        class: Option<u32>,
        start: u64,
    ) -> Recorder<'t> {
        Recorder {
            report: ScheduleReport::default(),
            tracer,
            track,
            class,
            start,
            now: start,
            tally: StepTally::new(),
        }
    }

    /// Record one completed step spanning `t0..t1`; `t1` becomes the
    /// start of the next interval.
    pub(crate) fn add(&mut self, kind: StepKind, bytes: usize, t0: u64, t1: u64) {
        let dt = t1.saturating_sub(t0);
        self.now = t1;
        self.report.stat_mut(kind).add(bytes, dt);
        self.report.steps += 1;
        self.tally.record(dt);
        coll_handles().steps[kind as usize].record(dt);
        self.tracer.span(
            self.track,
            kind.span_name(),
            t0,
            dt as f64,
            bytes as u64,
            self.class,
        );
    }

    /// Record one recovery action (`fault:*` / `retry:*` / `fallback:*`)
    /// spanning `t0..t1`; `t1` becomes the start of the next interval.
    /// Recovery spans do not count as steps and never extend `total_ns`
    /// computation in [`ScheduleReport::from_events`] — they nest inside
    /// the step span that eventually succeeds or fails.
    pub(crate) fn recovery(&mut self, name: &'static str, bytes: usize, t0: u64, t1: u64) {
        let dt = t1.saturating_sub(t0);
        self.now = t1;
        self.report.recovery.add_span(name, bytes as u64, dt);
        self.tracer
            .span(self.track, name, t0, dt as f64, bytes as u64, self.class);
    }

    /// Close out one schedule execution: stamp `total_ns` (start to the
    /// last clock read) and the observed per-step p99, record the
    /// end-to-end latency into the global and per-class histograms, and
    /// fold the recovery counters into the metric registry.
    pub(crate) fn finish(&mut self) {
        let total_ns = self.now.saturating_sub(self.start);
        self.report.total_ns = total_ns;
        self.report.step_p99_ns = self.tally.p99(self.report.steps);
        let h = coll_handles();
        h.exec_ns.record(total_ns);
        if let Some(class) = self.class {
            if let Some((_, hist)) = h.class_ns.iter().find(|(c, _)| *c == class) {
                hist.record(total_ns);
            }
        }
        let r = &self.report.recovery;
        if r.is_clean() {
            return;
        }
        h.transient_retries.add(r.transient_retries);
        h.short_resumes.add(r.short_resumes);
        h.short_bytes.add(r.short_bytes);
        h.denied.add(r.denied);
        h.timeouts.add(r.timeouts);
        h.backoffs.add(r.backoffs);
        h.fallbacks.add(r.fallbacks);
        h.fallback_bytes.add(r.fallback_bytes);
        h.suspects.add(r.suspects);
    }
}

/// Per-step-kind accounting for one schedule execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleReport {
    /// `expose` calls.
    pub expose: StepStats,
    /// Single-copy reads (bytes = payload read).
    pub cma_read: StepStats,
    /// Single-copy writes (bytes = payload written).
    pub cma_write: StepStats,
    /// Local charged copies.
    pub copy_local: StepStats,
    /// Control-plane sends (bytes = wire bytes).
    pub ctrl_send: StepStats,
    /// Control-plane receives (bytes = wire bytes).
    pub ctrl_recv: StepStats,
    /// 0-byte notification sends.
    pub notify: StepStats,
    /// 0-byte notification waits.
    pub wait_notify: StepStats,
    /// Two-copy shared-memory sends.
    pub shm_send: StepStats,
    /// Two-copy shared-memory receives.
    pub shm_recv: StepStats,
    /// Element-wise reductions (bytes = reduced region size).
    pub reduce: StepStats,
    /// Steps executed in total.
    pub steps: u64,
    /// Watermark: index of the first IR step this execution did *not*
    /// complete — equal to the schedule length on success. A torn
    /// execution's watermark tells the membership layer where a resume
    /// attempt may pick up instead of re-running completed exchanges.
    pub completed_steps: u64,
    /// Conservative p99 bound of this execution's per-step latencies
    /// (0 when no step completed). This is the *observed* half of the
    /// membership layer's adaptive liveness deadline; the other half is
    /// the analytic plan-cost estimate.
    pub step_p99_ns: u64,
    /// End-to-end time from first step to last, in `time_ns` units.
    pub total_ns: u64,
    /// What the recovery machinery did (all-zero on a fault-free run).
    pub recovery: RecoveryReport,
}

impl ScheduleReport {
    /// Total bytes moved by kernel-assisted reads.
    pub fn bytes_read(&self) -> u64 {
        self.cma_read.bytes
    }

    /// Total bytes moved by kernel-assisted writes.
    pub fn bytes_written(&self) -> u64 {
        self.cma_write.bytes
    }

    fn stat_mut(&mut self, kind: StepKind) -> &mut StepStats {
        match kind {
            StepKind::Expose => &mut self.expose,
            StepKind::CmaRead => &mut self.cma_read,
            StepKind::CmaWrite => &mut self.cma_write,
            StepKind::CopyLocal => &mut self.copy_local,
            StepKind::CtrlSend => &mut self.ctrl_send,
            StepKind::CtrlRecv => &mut self.ctrl_recv,
            StepKind::Notify => &mut self.notify,
            StepKind::WaitNotify => &mut self.wait_notify,
            StepKind::ShmSend => &mut self.shm_send,
            StepKind::ShmRecv => &mut self.shm_recv,
            StepKind::Reduce => &mut self.reduce,
        }
    }

    /// Rebuild a report from the executor's `step:*` spans (other events
    /// are ignored). Because [`execute_traced`] records report and spans
    /// through one path, `from_events` over one execution's events equals
    /// the returned report exactly. Pass events from a single rank's
    /// execution (filter by [`Track`] first when a trace holds several).
    pub fn from_events(events: &[Event]) -> ScheduleReport {
        let mut report = ScheduleReport::default();
        let mut first_start: Option<u64> = None;
        let mut last_end: u64 = 0;
        let mut lats = kacc_metrics::LocalHist::default();
        for ev in events {
            let EventKind::Span { ts, dur } = ev.kind else {
                continue;
            };
            // Executor spans carry whole-nanosecond durations, so the f64
            // round-trips exactly.
            let dt = dur as u64;
            let Some(kind) = StepKind::from_span_name(ev.name) else {
                // Recovery spans rebuild the RecoveryReport but are not
                // steps and do not bound total_ns (they nest inside their
                // step's span).
                report.recovery.add_span(ev.name, ev.bytes, dt);
                continue;
            };
            report.stat_mut(kind).add(ev.bytes as usize, dt);
            report.steps += 1;
            lats.record(dt);
            first_start = Some(first_start.map_or(ts, |f| f.min(ts)));
            last_end = last_end.max(ts + dt);
        }
        // A span exists exactly for each completed step, so the rebuilt
        // watermark and latency quantile mirror the live recorder's
        // (resume attempts and tolerant skips are internal to the
        // membership layer and never round-trip through events).
        report.completed_steps = report.steps;
        report.step_p99_ns = lats.quantile_bound(P99_PPM);
        report.total_ns = first_start.map_or(0, |f| last_end.saturating_sub(f));
        report
    }
}

pub(crate) fn proto(msg: String) -> CommError {
    CommError::Protocol(msg)
}

pub(crate) struct Ctx<'a> {
    pub(crate) bind: &'a Bindings,
    pub(crate) temps: Vec<BufId>,
    pub(crate) regs: Vec<Option<RemoteToken>>,
}

impl Ctx<'_> {
    pub(crate) fn slot(&self, s: Slot) -> Result<BufId> {
        match s {
            Slot::Send => self.bind.send.ok_or_else(|| {
                proto("schedule references Send but no send buffer is bound".into())
            }),
            Slot::Recv => self.bind.recv.ok_or_else(|| {
                proto("schedule references Recv but no recv buffer is bound".into())
            }),
            Slot::Temp(i) => self
                .temps
                .get(i as usize)
                .copied()
                .ok_or_else(|| proto(format!("schedule references undeclared temp {i}"))),
        }
    }

    pub(crate) fn token(&self, reg: crate::schedule::TokenReg) -> Result<RemoteToken> {
        self.regs
            .get(reg.0 as usize)
            .copied()
            .flatten()
            .ok_or_else(|| {
                proto(format!(
                    "token register {} used before it was filled",
                    reg.0
                ))
            })
    }

    pub(crate) fn set_token(
        &mut self,
        reg: crate::schedule::TokenReg,
        t: RemoteToken,
    ) -> Result<()> {
        let slot = self
            .regs
            .get_mut(reg.0 as usize)
            .ok_or_else(|| proto(format!("token register {} out of range", reg.0)))?;
        *slot = Some(t);
        Ok(())
    }

    /// The wire body of a control send; a region is read from `comm`.
    pub(crate) fn render_payload<C: AsyncComm>(&self, comm: &C, p: &Payload) -> Result<Vec<u8>> {
        match p {
            Payload::Bytes(b) => Ok(b.clone()),
            Payload::Region { slot, off, len } => {
                let mut body = vec![0u8; *len];
                comm.read_local(self.slot(*slot)?, *off, &mut body)?;
                Ok(body)
            }
            Payload::Rts { token, off, len } => {
                let mut out = Vec::with_capacity(p.wire_len());
                if let Some(reg) = token {
                    out.extend_from_slice(&self.token(*reg)?.to_bytes());
                    out.extend_from_slice(&(*off as u64).to_le_bytes());
                }
                out.extend_from_slice(&(*len as u64).to_le_bytes());
                Ok(out)
            }
            Payload::Token(reg) => Ok(self.token(*reg)?.to_bytes().to_vec()),
            Payload::Pack(entries) => {
                let mut out = Vec::with_capacity(entries.len() * (8 + RemoteToken::WIRE_LEN));
                for &(rank, reg) in entries {
                    match reg {
                        Some(r) => smcoll::encode_entry(&mut out, rank, &self.token(r)?.to_bytes()),
                        None => smcoll::encode_entry(&mut out, rank, &[]),
                    }
                }
                Ok(out)
            }
        }
    }

    /// Act on a control receive's body; a region is written through
    /// `comm`.
    pub(crate) fn apply_recv<C: AsyncComm>(
        &mut self,
        comm: &mut C,
        into: &RecvInto,
        body: Vec<u8>,
    ) -> Result<()> {
        match into {
            RecvInto::Discard => Ok(()),
            RecvInto::Region { slot, off, len } => {
                if body.len() != *len {
                    return Err(CommError::Truncated {
                        wanted: *len,
                        got: body.len(),
                    });
                }
                comm.write_local(self.slot(*slot)?, *off, &body)
            }
            RecvInto::Rts { token, off, len } => {
                if body.len() != into.wire_len() {
                    return Err(proto(format!("bad RTS length {}", body.len())));
                }
                let word = |at: usize| {
                    let bytes = body[at..at + 8].try_into().expect("length checked above");
                    u64::from_le_bytes(bytes) as usize
                };
                let announced = word(body.len() - 8);
                if announced != *len {
                    return Err(CommError::Truncated {
                        wanted: *len,
                        got: announced,
                    });
                }
                let Some(reg) = token else {
                    return Ok(());
                };
                let at = word(RemoteToken::WIRE_LEN);
                if at != *off {
                    return Err(proto(format!(
                        "RTS announces offset {at}, plan reads {off}"
                    )));
                }
                let t =
                    RemoteToken::from_bytes(&body).ok_or_else(|| proto("bad RTS token".into()))?;
                self.set_token(*reg, t)
            }
            RecvInto::Verify(expected) => {
                if &body == expected {
                    Ok(())
                } else {
                    Err(proto(format!(
                        "control message mismatch: expected {} bytes, got {}",
                        expected.len(),
                        body.len()
                    )))
                }
            }
            RecvInto::Token(reg) => {
                let t = RemoteToken::from_bytes(&body)
                    .ok_or_else(|| proto("control message is not a remote token".into()))?;
                self.set_token(*reg, t)
            }
            RecvInto::Pack(entries) => {
                // Two walks over the borrowed entries, so a truncated or
                // miscounted pack is refused before any register is set.
                let mut count = 0usize;
                for entry in smcoll::entries(&body) {
                    entry?;
                    count += 1;
                }
                if count != entries.len() {
                    return Err(proto(format!(
                        "entry pack has {} entries, schedule expected {}",
                        count,
                        entries.len()
                    )));
                }
                for (&(want_rank, reg), entry) in entries.iter().zip(smcoll::entries(&body)) {
                    let (got_rank, payload) = entry?;
                    if want_rank != got_rank {
                        return Err(proto(format!(
                            "entry pack rank mismatch: expected {want_rank}, got {got_rank}"
                        )));
                    }
                    match reg {
                        Some(r) => {
                            let t = RemoteToken::from_bytes(payload).ok_or_else(|| {
                                proto(format!("entry for rank {got_rank} is not a token"))
                            })?;
                            self.set_token(r, t)?;
                        }
                        None => {
                            if !payload.is_empty() {
                                return Err(proto(format!(
                                    "entry for rank {got_rank} should be empty, got {} bytes",
                                    payload.len()
                                )));
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

/// Execute a compiled schedule on a blocking transport — see
/// [`execute_polled`], which this drives through [`Blocking`].
pub fn execute<C: Comm + ?Sized>(
    comm: &mut C,
    sched: &Schedule,
    bind: &Bindings,
) -> Result<ScheduleReport> {
    block_on(execute_polled(&mut Blocking(comm), sched, bind))
}

/// [`execute`] with an explicit tracer: every IR step emits one
/// `step:<kind>` span on this rank's track, through the same recording
/// path that feeds the returned [`ScheduleReport`] — see
/// [`execute_polled_with_policy`], which this drives under
/// [`RecoveryPolicy::default`].
pub fn execute_traced<C: Comm + ?Sized>(
    comm: &mut C,
    sched: &Schedule,
    bind: &Bindings,
    tracer: &Tracer,
) -> Result<ScheduleReport> {
    block_on(execute_polled_with_policy(
        &mut Blocking(comm),
        sched,
        bind,
        tracer,
        &RecoveryPolicy::default(),
    ))
}

/// Execution state that survives a torn schedule run so a later attempt
/// can resume from the watermark instead of starting over: scratch
/// buffers hold staged data (e.g. Bruck rotations), token registers hold
/// the peers' exposures already collected by completed control steps.
pub(crate) struct ResumeState {
    temps: Vec<BufId>,
    regs: Vec<Option<RemoteToken>>,
    /// Index of the first IR step the next attempt must run.
    next_step: usize,
}

impl ResumeState {
    pub(crate) fn new(
        temps: Vec<BufId>,
        regs: Vec<Option<RemoteToken>>,
        next_step: usize,
    ) -> ResumeState {
        ResumeState {
            temps,
            regs,
            next_step,
        }
    }

    /// Index of the first IR step the next attempt must run.
    pub(crate) fn next_step(&self) -> usize {
        self.next_step
    }

    /// Whether this state's shape matches `sched` — the guard against
    /// resuming into a different plan.
    pub(crate) fn matches(&self, sched: &Schedule) -> bool {
        self.temps.len() == sched.temps.len() && self.regs.len() == sched.token_regs
    }

    /// Tear the state apart for reuse by the next attempt.
    pub(crate) fn into_parts(self) -> (Vec<BufId>, Vec<Option<RemoteToken>>) {
        (self.temps, self.regs)
    }

    /// Give up on resuming: free the preserved scratch buffers.
    pub(crate) fn abandon<C: AsyncComm>(self, comm: &mut C) {
        for t in self.temps {
            let _ = comm.free(t);
        }
    }
}

/// `errno` for "no such process": the peer died. Named locally to keep
/// this crate libc-free.
pub(crate) const ESRCH: i32 = 3;

/// True for errors worth retrying in place: the operation may succeed on
/// a later attempt with no change of data path. `Os(ESRCH)` — peer died —
/// is permanent; so is `PermissionDenied`, which recovery routes to the
/// fallback path instead of the retry loop.
pub(crate) fn is_transient(e: &CommError) -> bool {
    match e {
        CommError::Os(code) => *code != ESRCH,
        CommError::Timeout { .. } => true,
        _ => false,
    }
}

/// True for errors the liveness watchdog attributes to peer death: an
/// expired bounded wait, the transport's `ESRCH`, or an already-typed
/// peer-death report.
pub(crate) fn is_suspect_error(e: &CommError) -> bool {
    matches!(
        e,
        CommError::Timeout { .. } | CommError::Os(ESRCH) | CommError::PeerDead(_)
    )
}

/// The deadline a blocking receive runs under: the explicit step timeout
/// when set, else the membership liveness deadline when the watchdog is
/// armed, else unbounded.
pub(crate) fn recv_deadline_ns(policy: &RecoveryPolicy) -> Option<u64> {
    policy.step_timeout_ns.or_else(|| {
        policy
            .membership
            .watch
            .then_some(policy.membership.liveness_timeout_ns)
    })
}

/// The remote rank a step communicates with, when one is identifiable —
/// the suspect the watchdog charges a failure of this step to. CMA
/// transfers resolve their peer through the token register, which is
/// filled by the time the transfer can fail; steps with no peer (local
/// copies, reductions, exposes) return `None`.
pub(crate) fn step_peer(step: &Step, ctx: &Ctx<'_>) -> Option<usize> {
    match step {
        Step::CtrlSend { to, .. } | Step::Notify { to, .. } | Step::ShmSend { to, .. } => Some(*to),
        Step::CtrlRecv { from, .. }
        | Step::WaitNotify { from, .. }
        | Step::ShmRecv { from, .. } => Some(*from),
        Step::CmaRead { token, .. } | Step::CmaWrite { token, .. } => {
            ctx.token(*token).ok().map(|t| t.rank as usize)
        }
        Step::Expose { .. } | Step::CopyLocal { .. } | Step::Reduce { .. } => None,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::schedule::TokenReg;
    use kacc_comm::stub::StubComm;

    fn token(rank: u64) -> RemoteToken {
        RemoteToken {
            rank,
            token: 100 + rank,
        }
    }

    /// A do-nothing endpoint: packs never touch a buffer.
    fn stub() -> StubComm {
        StubComm { rank: 0, size: 1 }
    }

    fn ctx(bind: &Bindings, regs: usize) -> Ctx<'_> {
        Ctx {
            bind,
            temps: Vec::new(),
            regs: vec![None; regs],
        }
    }

    #[test]
    fn a_rendered_pack_is_the_sm_wire_format_and_applies_back() {
        let bind = Bindings::default();
        let mut sender = ctx(&bind, 2);
        sender.set_token(TokenReg(0), token(3)).unwrap();
        sender.set_token(TokenReg(1), token(5)).unwrap();
        let shape = vec![(3, Some(TokenReg(0))), (4, None), (5, Some(TokenReg(1)))];
        let body = sender
            .render_payload(&Blocking(&mut stub()), &Payload::Pack(shape.clone()))
            .unwrap();
        let owned = [
            (3, token(3).to_bytes().to_vec()),
            (4, Vec::new()),
            (5, token(5).to_bytes().to_vec()),
        ];
        assert_eq!(body, smcoll::encode_entries(&owned));

        let mut receiver = ctx(&bind, 2);
        receiver
            .apply_recv(&mut Blocking(&mut stub()), &RecvInto::Pack(shape), body)
            .unwrap();
        assert_eq!(receiver.regs, vec![Some(token(3)), Some(token(5))]);

        let unfilled = ctx(&bind, 1);
        let err = unfilled
            .render_payload(
                &Blocking(&mut stub()),
                &Payload::Pack(vec![(0, Some(TokenReg(0)))]),
            )
            .unwrap_err();
        assert_eq!(
            err,
            proto("token register 0 used before it was filled".into())
        );
    }

    #[test]
    fn an_rts_is_token_offset_length_and_checks_what_it_announces() {
        let bind = Bindings::default();
        let rts =
            |token: Option<TokenReg>, off: usize, len: usize| Payload::Rts { token, off, len };
        let into =
            |token: Option<TokenReg>, off: usize, len: usize| RecvInto::Rts { token, off, len };
        let mut sender = ctx(&bind, 1);
        sender.set_token(TokenReg(0), token(2)).unwrap();
        let render = |p: &Payload| sender.render_payload(&Blocking(&mut stub()), p).unwrap();
        let cma = render(&rts(Some(TokenReg(0)), 48, 16));
        let mut want = token(2).to_bytes().to_vec();
        want.extend_from_slice(&48u64.to_le_bytes());
        want.extend_from_slice(&16u64.to_le_bytes());
        assert_eq!(cma, want);
        let net = render(&rts(None, 48, 16));
        assert_eq!(net, 16u64.to_le_bytes());

        let apply = |into: &RecvInto, body: &[u8]| {
            let mut c = ctx(&bind, 1);
            let r = c.apply_recv(&mut Blocking(&mut stub()), into, body.to_vec());
            (r, c.regs[0])
        };
        assert_eq!(
            apply(&into(Some(TokenReg(0)), 48, 16), &cma),
            (Ok(()), Some(token(2)))
        );
        assert_eq!(apply(&into(None, 0, 16), &net), (Ok(()), None));
        let short = Err(CommError::Truncated {
            wanted: 32,
            got: 16,
        });
        assert_eq!(
            apply(&into(Some(TokenReg(0)), 48, 32), &cma),
            (short.clone(), None)
        );
        assert_eq!(apply(&into(None, 0, 32), &net), (short, None));
        let moved = Err(proto("RTS announces offset 48, plan reads 0".into()));
        assert_eq!(apply(&into(Some(TokenReg(0)), 0, 16), &cma), (moved, None));
        let bad = Err(proto("bad RTS length 8".into()));
        assert_eq!(apply(&into(Some(TokenReg(0)), 48, 16), &net), (bad, None));
    }

    #[test]
    fn a_bad_pack_is_refused_with_the_entry_it_fails_on() {
        let bind = Bindings::default();
        let shape = RecvInto::Pack(vec![(1, Some(TokenReg(0))), (2, None)]);
        let good = [(1, token(1).to_bytes().to_vec()), (2, Vec::new())];
        let apply = |body: Vec<u8>| {
            let mut c = ctx(&bind, 1);
            let r = c.apply_recv(&mut Blocking(&mut stub()), &shape, body);
            (r, c.regs[0])
        };
        let refused = |body: Vec<u8>, msg: &str, reg: Option<RemoteToken>| {
            assert_eq!(apply(body), (Err(proto(msg.into())), reg), "{msg}");
        };
        assert_eq!(
            apply(smcoll::encode_entries(&good)),
            (Ok(()), Some(token(1)))
        );

        // Refused whole, before any register is written.
        let mut cut = smcoll::encode_entries(&good);
        cut.truncate(cut.len() - 3);
        refused(cut, "truncated sm entry header", None);
        let mut long_body = smcoll::encode_entries(&good);
        let at = long_body.len() - 4;
        long_body[at] = 1;
        refused(long_body, "truncated sm entry body", None);
        refused(
            smcoll::encode_entries(&good[..1]),
            "entry pack has 1 entries, schedule expected 2",
            None,
        );
        let wrong_rank = [good[0].clone(), (9, Vec::new())];
        refused(
            smcoll::encode_entries(&[(7, good[0].1.clone()), good[1].clone()]),
            "entry pack rank mismatch: expected 1, got 7",
            None,
        );
        refused(
            smcoll::encode_entries(&[(1, vec![0; 15]), good[1].clone()]),
            "entry for rank 1 is not a token",
            None,
        );

        // Refused at the second entry: the first one's token has landed.
        refused(
            smcoll::encode_entries(&wrong_rank),
            "entry pack rank mismatch: expected 2, got 9",
            Some(token(1)),
        );
        refused(
            smcoll::encode_entries(&[good[0].clone(), (2, vec![0; 3])]),
            "entry for rank 2 should be empty, got 3 bytes",
            Some(token(1)),
        );
    }
}
