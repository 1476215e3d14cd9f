//! Survivable collectives: deterministic failure detection, agreement,
//! and shrink-and-re-execute recovery (ULFM-inspired membership layer).
//!
//! [`run_survivable_polled`] (async over any [`AsyncComm`]) wraps any of
//! the six bulk collectives in a membership loop:
//!
//! 1. **Detect (adaptive)** — the data plan executes with the liveness
//!    watchdog armed ([`MembershipPolicy`]), so a silent peer death
//!    surfaces as the typed [`CommError::PeerDead`] instead of a hang.
//!    The deadline is no longer a fixed constant: it is derived per
//!    epoch from the analytic plan-cost estimate
//!    ([`Tuner::cost_schedule`] over the endpoint's topology) and the
//!    step-latency p99 observed by earlier attempts of the same call,
//!    clamped to a window whose floor is the policy constant.
//! 2. **Agree** — all members of the current epoch run a two-round
//!    agreement collective ([`crate::schedule::compile_agree`]) that
//!    unions everyone's suspected-dead [`MemberMask`]s — multi-word
//!    wire payloads, so the membership is unbounded (p = 128, 256, …
//!    all work; the old single-`u64` scheme capped at 63 ranks). The
//!    rounds execute under a *tolerant* watchdog with adaptive
//!    deadlines, so the agreement itself completes over the survivors
//!    no matter who died; non-responders are detected *by content* (a
//!    well-formed mask has a nonzero magic header, so an all-zero slot
//!    means "never wrote"). Two refinements keep it honest: a member
//!    that responds within a round is *refuted* from the mask (a rank
//!    that abandoned its data plan behind a dead peer looks dead to its
//!    own waiters, but it is not — this stops timeout cascades from
//!    exiling live ranks), and a failed data plan raises the
//!    [`FLAG_REDO`] header flag so the whole membership re-executes
//!    together even when the suspicion that caused the failure was
//!    refuted. A peer dying *inside* an agreement folds into the
//!    suspect set and restarts the agreement under fresh tags
//!    (kill-anywhere recovery), bounded by `MAX_AGREE_ATTEMPTS`.
//! 3. **Resume or shrink-and-re-execute** — when the agreed mask names
//!    no new dead rank but carries [`FLAG_REDO`] (somebody's plan tore
//!    on a refuted suspicion), survivors *resume*: ranks that completed
//!    keep their result and skip the transport entirely (mailbox
//!    deposits persist and CMA is one-sided, so their outbound work is
//!    already visible), while torn ranks re-enter their plan at the
//!    per-rank watermark ([`ScheduleReport::completed_steps`]) under
//!    the same epoch and tags. When the membership *did* change,
//!    survivors advance the epoch, recompile the collective for the
//!    survivor subgroup (remapped onto parent ranks and re-tagged into
//!    the epoch's namespace by
//!    [`crate::schedule::remap_for_members`]), invalidate stale-epoch
//!    plans from the [`PlanCache`], back off briefly, and re-execute.
//!    Survivor `i` of the sorted member list contributes and receives
//!    block `i`, so parent-sized buffers always suffice.
//!
//! A call is checked before anything runs: [`run_survivable_polled`]
//! keeps its own rules (p ≥ 2, a nonzero count, an alltoall binds both
//! buffers) and runs the plain entries' one argument check on its
//! epoch-0 plan key, so a bad parameter or an undersized buffer fails
//! typed on every rank at virtual time 0, with no transport traffic.
//! Building a shrunken epoch's key checks the ring stride again (one
//! coprime with p can share a factor with the survivor count).
//!
//! Everything is deterministic under simulation: the same seed produces
//! the same suspicions, the same agreed masks, the same shrink sequence,
//! and bitwise-identical reports on every run. A fault-free run
//! executes exactly one data plan plus one (clean) agreement and reports
//! an empty [`RecoveryReport`](crate::RecoveryReport).
//!
//! The membership protocol never blocks forever: every wait is bounded
//! by the watchdog, disagreement only ever causes further shrinks, and
//! the loop is capped by `MAX_SHRINKS` and the quorum rule (survivors
//! must outnumber half the parent communicator).

use std::sync::{Arc, OnceLock};

use kacc_comm::mask::{FLAG_NORESUME, FLAG_REDO};
use kacc_comm::{AsyncComm, BufId, CommError, MemberMask, Result, Topology};
use kacc_model::ArchProfile;
use kacc_trace::{Tracer, Track};

use crate::allgather::ring_stride;
use crate::exec::{proto, Bindings, MembershipPolicy, RecoveryPolicy, ResumeState, ScheduleReport};
use crate::polled::{execute_once, execute_resumable_polled};
use crate::schedule::{compile_agree, PlanCache, PlanKey, Schedule};
use crate::tuner::Tuner;
use crate::{
    check_call, class, AllgatherAlgo, AlltoallAlgo, BcastAlgo, Dtype, GatherAlgo, ReduceAlgo,
    ReduceOp, ScatterAlgo,
};

/// One survivable collective operation: the algorithm plus the shape
/// parameters that stay fixed across shrinks (counts are per-member, so
/// a shrunken execution simply uses fewer blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurvivableOp {
    /// Scatter `count` bytes from `root` to every survivor.
    Scatter {
        /// Algorithm variant.
        algo: ScatterAlgo,
        /// Bytes per member.
        count: usize,
        /// Root rank (parent numbering; must survive).
        root: usize,
    },
    /// Gather `count` bytes from every survivor at `root`.
    Gather {
        /// Algorithm variant.
        algo: GatherAlgo,
        /// Bytes per member.
        count: usize,
        /// Root rank (parent numbering; must survive).
        root: usize,
    },
    /// Broadcast `count` bytes from `root` to every survivor.
    Bcast {
        /// Algorithm variant.
        algo: BcastAlgo,
        /// Message bytes.
        count: usize,
        /// Root rank (parent numbering; must survive).
        root: usize,
    },
    /// Allgather `count` bytes per survivor.
    Allgather {
        /// Algorithm variant.
        algo: AllgatherAlgo,
        /// Bytes per member.
        count: usize,
    },
    /// Alltoall `count` bytes per survivor pair.
    Alltoall {
        /// Algorithm variant.
        algo: AlltoallAlgo,
        /// Bytes per member pair.
        count: usize,
    },
    /// Reduce every survivor's `count`-byte contribution at `root`.
    Reduce {
        /// Algorithm variant.
        algo: ReduceAlgo,
        /// Contribution bytes.
        count: usize,
        /// Element type.
        dtype: Dtype,
        /// Combining operator.
        op: ReduceOp,
        /// Root rank (parent numbering; must survive).
        root: usize,
    },
}

impl SurvivableOp {
    /// The root rank in parent numbering, for rooted shapes.
    pub fn root(&self) -> Option<usize> {
        match *self {
            SurvivableOp::Scatter { root, .. }
            | SurvivableOp::Gather { root, .. }
            | SurvivableOp::Bcast { root, .. }
            | SurvivableOp::Reduce { root, .. } => Some(root),
            SurvivableOp::Allgather { .. } | SurvivableOp::Alltoall { .. } => None,
        }
    }

    /// The per-member byte count.
    pub fn count(&self) -> usize {
        match *self {
            SurvivableOp::Scatter { count, .. }
            | SurvivableOp::Gather { count, .. }
            | SurvivableOp::Bcast { count, .. }
            | SurvivableOp::Allgather { count, .. }
            | SurvivableOp::Alltoall { count, .. }
            | SurvivableOp::Reduce { count, .. } => count,
        }
    }
}

/// What the membership loop did during one survivable call. All-zero on
/// a fault-free run (one clean execution, one clean agreement).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MembershipReport {
    /// Final membership epoch (= number of shrinks taken).
    pub epochs: u32,
    /// Agreement collectives executed.
    pub agreements: u32,
    /// Data-plan re-executions after a shrink.
    pub reexecs: u32,
    /// Partial-progress resumes taken instead of full re-executions.
    pub resumes: u32,
    /// Low 64 bits of the agreed dead set (bit `rank`; diagnostic —
    /// ranks ≥ 64 are reported via [`SurvivableOutcome::members`]).
    pub dead_mask: u64,
    /// Virtual time spent in torn data-plan executions before the
    /// failure surfaced (the *detect* phase of each recovery).
    pub detect_ns: u64,
    /// Virtual time spent in agreement collectives (including the final
    /// clean rendezvous).
    pub agree_ns: u64,
    /// Virtual time spent re-executing (or resuming) the data plan
    /// after the first attempt.
    pub reexec_ns: u64,
}

impl MembershipReport {
    /// True when no failure was detected anywhere: no shrink, no
    /// re-execution, no resume, nobody dead.
    pub fn is_clean(&self) -> bool {
        // One agreement always runs (the epilogue rendezvous), so it
        // does not count against cleanliness.
        self.epochs == 0 && self.reexecs == 0 && self.resumes == 0 && self.dead_mask == 0
    }
}

/// Result of a survivable collective on one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurvivableOutcome {
    /// Report of the final (successful) data-plan execution.
    pub report: ScheduleReport,
    /// What the membership loop did to get there.
    pub membership: MembershipReport,
    /// The sorted surviving parent ranks the result is defined over.
    pub members: Vec<usize>,
}

/// Pre-resolved `kacc-metrics` handles for the membership driver.
struct MemberHandles {
    agreements: kacc_metrics::Counter,
    shrinks: kacc_metrics::Counter,
    reexecs: kacc_metrics::Counter,
    resumes: kacc_metrics::Counter,
    detect_ns: kacc_metrics::Hist,
    agree_ns: kacc_metrics::Hist,
    reexec_ns: kacc_metrics::Hist,
}

fn member_handles() -> &'static MemberHandles {
    static HANDLES: OnceLock<MemberHandles> = OnceLock::new();
    HANDLES.get_or_init(|| MemberHandles {
        agreements: kacc_metrics::counter("coll.membership.agreements"),
        shrinks: kacc_metrics::counter("coll.membership.shrinks"),
        reexecs: kacc_metrics::counter("coll.membership.reexecs"),
        resumes: kacc_metrics::counter("coll.membership.resumes"),
        detect_ns: kacc_metrics::hist("coll.membership.detect_ns"),
        agree_ns: kacc_metrics::hist("coll.membership.agree_ns"),
        reexec_ns: kacc_metrics::hist("coll.membership.reexec_ns"),
    })
}

/// Agreement restarts tolerated per membership iteration before the
/// call gives up with a typed error. A peer dying *inside* an agreement
/// round folds into the suspect set and restarts the agreement under
/// fresh tags; four attempts bound the tag namespace while covering
/// every kill the chaos corpus can schedule into one iteration.
const MAX_AGREE_ATTEMPTS: u32 = 4;

/// Most shrink-and-re-execute rounds the survivable driver attempts
/// before surfacing the last typed error, and most agreements it resumes
/// within one epoch.
const MAX_SHRINKS: u32 = 8;

// Each shrink epoch re-tags its plans with one hex nibble of the sub-tag.
const _: () = assert!(
    MAX_SHRINKS <= 0xF,
    "shrink epochs must fit the tag's epoch nibble"
);

/// Pause between agreeing on a shrink and re-executing over the
/// survivors, charged through [`AsyncComm::sleep_ns`] so it is virtual
/// time under simulation.
const RESTART_BACKOFF_NS: u64 = 10_000;

/// The sorted list of parent ranks not marked dead.
fn survivor_list(dead: &MemberMask, p: usize) -> Vec<usize> {
    (0..p).filter(|&r| !dead.get(r)).collect()
}

/// Map the endpoint's [`Topology`] onto the closest known
/// [`ArchProfile`] so the membership layer can price plans with
/// [`Tuner::cost_schedule`]. An exact preset match (KNL, Broadwell,
/// POWER8) uses that preset's calibrated constants; anything else takes
/// the Broadwell constants with the topology's shape substituted in.
/// Purely a function of the topology, so deterministic per simulation.
fn arch_for(topo: &Topology) -> ArchProfile {
    for preset in [
        ArchProfile::knl(),
        ArchProfile::broadwell(),
        ArchProfile::power8(),
    ] {
        if preset.sockets == topo.sockets
            && preset.cores_per_socket == topo.cores_per_socket
            && preset.page_size == topo.page_size
        {
            return preset;
        }
    }
    let mut arch = ArchProfile::broadwell();
    arch.sockets = topo.sockets;
    arch.cores_per_socket = topo.cores_per_socket;
    arch.threads_per_core = topo.threads_per_core;
    arch.page_size = topo.page_size;
    arch
}

/// The adaptive liveness deadline for one data-plan execution: four
/// times the larger of the analytic whole-plan cost estimate and twice
/// the observed per-step p99 from earlier attempts of this same call,
/// clamped to `[policy floor, 64 × policy floor]`. The policy constant
/// ([`MembershipPolicy::survivable`]'s 200 µs) is no longer the
/// deadline itself — it is the floor of a window that scales with the
/// plan, so big communicators and big payloads stop tripping false
/// suspicions while small plans keep PR 8's exact detection latency.
fn adaptive_liveness(floor: u64, plan_cost_ns: u64, obs_p99_ns: u64) -> u64 {
    let predicted = plan_cost_ns.max(obs_p99_ns.saturating_mul(2));
    predicted
        .saturating_mul(4)
        .clamp(floor, floor.saturating_mul(64))
}

/// The rules of a survivable call itself. Everything else a call must
/// satisfy is the plain entries' one check, run on the epoch-0 key.
fn validate(op: &SurvivableOp, p: usize, send: Option<BufId>, recv: Option<BufId>) -> Result<()> {
    if p < 2 {
        return Err(proto(
            "survivable collectives require at least 2 ranks".into(),
        ));
    }
    if op.count() == 0 {
        return Err(proto(
            "survivable collectives require a nonzero count".into(),
        ));
    }
    if matches!(op, SurvivableOp::Alltoall { .. }) && (send.is_none() || recv.is_none()) {
        return Err(proto(
            "survivable alltoall needs distinct send and recv buffers".into(),
        ));
    }
    Ok(())
}

impl SurvivableOp {
    /// The plan key of this op for member `rank` of a `p`-member team
    /// whose root is member `root` (ignored by unrooted ops). Counts are
    /// per member, so a shrunken team's key simply has fewer blocks.
    fn key(&self, p: usize, rank: usize, root: usize, bind: &Bindings) -> Result<PlanKey> {
        let (has_send, has_recv) = (bind.send.is_some(), bind.recv.is_some());
        Ok(match *self {
            SurvivableOp::Scatter { algo, count, .. } => PlanKey::Scatter {
                algo,
                p,
                rank,
                counts: vec![count; p],
                displs: None,
                root,
                has_recvbuf: has_recv,
            },
            SurvivableOp::Gather { algo, count, .. } => PlanKey::Gather {
                algo,
                p,
                rank,
                counts: vec![count; p],
                displs: None,
                root,
                has_sendbuf: has_send,
            },
            SurvivableOp::Bcast { algo, count, .. } => PlanKey::Bcast {
                algo,
                p,
                rank,
                count,
                root,
            },
            SurvivableOp::Allgather { algo, count } => PlanKey::Allgather {
                algo: ring_stride(algo, p, || format!("the {p} survivors"))?,
                p,
                rank,
                count,
                has_sendbuf: has_send,
            },
            SurvivableOp::Alltoall { algo, count } => PlanKey::Alltoall {
                algo,
                p,
                rank,
                count,
            },
            SurvivableOp::Reduce {
                algo,
                count,
                dtype,
                op,
                ..
            } => PlanKey::Reduce {
                algo,
                p,
                rank,
                count,
                dtype,
                op,
                root,
            },
        })
    }
}

/// Fetch (or compile) the plan for the current membership epoch.
///
/// Epoch 0 runs over the full communicator and uses exactly the same
/// [`PlanKey`] shapes as the plain entry points, so fault-free
/// survivable calls share cached plans with them. Later epochs compile
/// for the survivor subgroup (`p' = |members|`, `rank' = my position`,
/// `root' = root's position`) and remap onto parent ranks under a
/// [`PlanKey::Member`] key whose embedded epoch makes stale-membership
/// plans unreachable after the next shrink. Building their key checks
/// the ring stride again: one coprime with p can share a factor with the
/// survivor count. The call's other rules only loosen as the team
/// shrinks.
fn member_plan<C: AsyncComm>(
    comm: &C,
    op: &SurvivableOp,
    members: &[usize],
    epoch: u32,
    bind: &Bindings,
) -> Result<Arc<Schedule>> {
    let position = |r: usize| members.iter().position(|&m| m == r);
    let my_idx =
        position(comm.rank()).ok_or_else(|| proto("caller is not a surviving member".into()))?;
    let root_idx = match op.root() {
        Some(r) => position(r).ok_or(CommError::PeerDead(r))?,
        None => 0,
    };
    let inner = op.key(members.len(), my_idx, root_idx, bind)?;
    if epoch == 0 {
        return Ok(PlanCache::global().plan(inner));
    }
    Ok(PlanCache::global().plan(PlanKey::Member {
        epoch,
        members: members.to_vec(),
        parent_p: comm.size(),
        inner: Box::new(inner),
    }))
}

/// The bindings every epoch's execution uses (fixed across shrinks).
fn bindings_for(op: &SurvivableOp, send: Option<BufId>, recv: Option<BufId>) -> Bindings {
    match op {
        // Bcast binds its single data buffer as the send slot.
        SurvivableOp::Bcast { .. } => Bindings { send, recv: None },
        _ => Bindings { send, recv },
    }
}

/// The effective liveness floor: the caller's watchdog deadline, or the
/// survivable default when the caller leaves the watchdog off or its
/// deadline zero. The watchdog is always on in a survivable call.
fn effective_membership(policy: &RecoveryPolicy) -> u64 {
    match policy.membership.liveness_ns {
        Some(ns) if ns > 0 => ns,
        _ => MembershipPolicy::survivable()
            .liveness_ns
            .expect("the survivable policy arms the watchdog"),
    }
}

/// The policy one agreement round runs under: no retries, no fallback,
/// every wait bounded by `timeout`, and the watchdog armed so that a
/// tolerant run ([`execute_once`]) skips failing steps after recording
/// the suspicion.
fn agree_policy(timeout: u64) -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: 0,
        backoff_ns: 0,
        cma_fallback: false,
        step_timeout_ns: Some(timeout),
        membership: MembershipPolicy {
            liveness_ns: Some(timeout),
        },
    }
}

/// Fold one agreement round's results into the suspected mask.
///
/// Non-responders are detected *by content*: every well-formed
/// [`MemberMask`] wire image carries a nonzero magic header, and each
/// receive slot is zeroed before the round, so a slot that still fails
/// to decode after the round's deadline means that member never wrote —
/// no side-channel suspect bookkeeping (which used to wrap ranks at
/// `& 63`) is involved, and the scheme works at any communicator size.
///
/// Members who responded have their masks unioned in and are then
/// *refuted* — a responsive member is alive by construction, so any
/// suspicion of it (including one we carried in) is dropped. This is
/// what stops timeout cascades from exiling live ranks: a rank that
/// abandoned its data plan because a *dead* peer timed out looks dead
/// to its own waiters, but it shows up here and is cleared. The
/// genuinely dead never deposit, so true suspicions always survive.
/// Header flags ([`FLAG_REDO`], [`FLAG_NORESUME`]) ride above the rank
/// bits and are never refuted — [`MemberMask::subtract`] leaves them
/// alone.
fn fold_round(
    cur: &MemberMask,
    members: &[usize],
    me: usize,
    recv_bytes: &[u8],
    width: usize,
    p: usize,
) -> MemberMask {
    let mut union = cur.clone();
    let mut responders = MemberMask::new(p);
    responders.set(me);
    for (i, &peer) in members.iter().enumerate() {
        if peer == me {
            continue;
        }
        match MemberMask::from_bytes(p, &recv_bytes[width * i..width * (i + 1)]) {
            Some(mask) => {
                union.union(&mask);
                responders.set(peer);
            }
            None => union.set(peer),
        }
    }
    union.subtract(&responders);
    union
}

/// Fold the final *ballot* round: a pure union of every mask that
/// arrived, with **no** new suspicion and **no** refutation.
///
/// This asymmetry is what makes the agreement partition-proof against a
/// member dying *mid-round-1 sweep*. Round-1 delivery of a dying rank
/// is inherently partial — some members get its deposit, some do not —
/// so any per-recipient bookkeeping (suspecting its silence, or
/// refuting suspicions because it responded) would hand different
/// members different answers: the group would split-brain and the
/// partitions would exile each other. A union of ballots cannot split
/// that way:
///
/// - a rank alive at the *start* of round 1 finished its round-0 sweep,
///   so everything it uniquely knew is already in every live member's
///   round-0 fold, and its partial round-1 deposits add nothing new;
/// - a rank that died *before* round 1 is suspected in someone's
///   round-0 fold (a partial round-0 sweep reaches some members, whose
///   ballots spread the bit; an empty one reaches none, and everyone
///   suspects it by content), so its bit rides the ballots regardless
///   of who hears from it in round 1.
///
/// Hence the agreed mask equals the union of live members' ballots —
/// identical everywhere as long as live round-1 deposits all land
/// (which the measured round-1 deadline is sized for).
fn fold_ballots(
    cur: &MemberMask,
    members: &[usize],
    me: usize,
    recv_bytes: &[u8],
    width: usize,
    p: usize,
) -> MemberMask {
    let mut union = cur.clone();
    for (i, &peer) in members.iter().enumerate() {
        if peer == me {
            continue;
        }
        if let Some(mask) = MemberMask::from_bytes(p, &recv_bytes[width * i..width * (i + 1)]) {
            union.union(&mask);
        }
    }
    union
}

/// Three-round suspected-dead agreement over `members`: two
/// gossip-and-refute rounds ([`fold_round`]) followed by a
/// pure ballot round ([`fold_ballots`]). Returns the union of every
/// member's final ballot. Never blocks forever: every receive is
/// bounded and failures are tolerated.
///
/// Why three rounds: round 0 collects suspicions across detection skew;
/// round 1 lets a member that entered late (and was therefore suspected
/// by content in someone's round 0) refute that suspicion with its own
/// deposit before anything is final; round 2 freezes the answer as a
/// union of ballots, which no mid-death partial delivery can split (see
/// [`fold_ballots`]). Dropping either middle-round refutation or the
/// final pure round reintroduces a real failure: the former exiles
/// slow-but-live ranks, the latter lets a rank dying mid-final-sweep
/// partition the group into halves that exile each other.
///
/// Waits are *adaptive*, which is where gen 2 recovers its ~4×
/// per-failure cost over the fixed formula this replaced. The binding
/// quantity is the per-slot wait `a0 = (retries + 3) × liveness`:
/// timers at every stalled rank run concurrently (an aborting rank
/// never *resets* its waiters' timers, it merely stops feeding them),
/// so a live member reaches the agreement at most one
/// `(1 + retries) × liveness` retry chain past the plan's natural end —
/// entry skew does not multiply with `p` the way the old `(2p + 4)`
/// worst case assumed, and `liveness` is already cost-scaled to the
/// wider of the data plan and the agreement sweep. Only *dead* slots
/// ever pay `a0`; live deposits resolve at their arrival time, so the
/// per-failure price is `O(rounds × dead × a0)` instead of the old
/// `× (l + 1)` deadline blow-up that charged every failure over a
/// hundred milliseconds at p = 16.
///
/// `base_round` namespaces this attempt's tags (three rounds per
/// attempt), letting a restarted agreement never collide with deposits
/// from the attempt a peer death tore down.
///
/// `w0_floor` widens round 0's live window beyond `a0`: a peer dying
/// *mid-agreement* after a partial fan-out leaves the un-served ranks
/// burning the full grown window of that round, so they exit the
/// agreement up to one final-window late — and enter the *next*
/// epoch's agreement with the same skew. The caller threads the exit
/// deadline returned by one agreement (capped at `16·a0` to stop
/// cross-epoch compounding) into the next one's floor, so round 0
/// still hears those stragglers instead of exiling them into quorum
/// loss. The floor only burns time when a slot is genuinely silent
/// that long, so the steady-state failure cost is unchanged.
#[allow(clippy::too_many_arguments)]
async fn agree<C: AsyncComm>(
    comm: &mut C,
    members: &[usize],
    epoch: u32,
    base_round: u32,
    suspected: &MemberMask,
    retries: u32,
    liveness: u64,
    w0_floor: u64,
    tracer: &Tracer,
) -> Result<(MemberMask, u64)> {
    let p = comm.size();
    let me = comm.rank();
    let l = members.len();
    let my_idx = members
        .iter()
        .position(|&x| x == me)
        .ok_or_else(|| proto("caller is not a surviving member".into()))?;
    let width = MemberMask::wire_len(p);
    let send = comm.alloc(width);
    let recv = comm.alloc(width * l);
    let mut cur = suspected.clone();
    let mut out: Result<MemberMask> = Ok(cur.clone());
    // `a0` bounds how late a *live* member can be at round 0: up to
    // `(1 + retries)` liveness-timeout chains in its data plan plus
    // slack, with `liveness` itself already cost-scaled to the wider
    // of the data plan and the agreement's own all-to-all sweep. Each
    // round runs in two parts: live slots wait the wide adaptive
    // window, while already-suspected slots are polled afterwards
    // under a flat cap — a queued refutation is still taken
    // instantly, so the cap only bounds how long a genuinely dead slot
    // can burn. The cap is `2·a0` in the gossip and refute rounds,
    // where a live straggler's deposit can still clear it, and `a0`
    // in the ballot round, where refutation is impossible and a dead
    // slot is pure burn. The wide window for the next round is the measured
    // round time plus the current window plus `2·a0`: a peer dying
    // *mid-round* splits the group into ranks that decoded it and
    // ranks that burned the full window, so next-round skew can reach
    // one whole window — and since only not-yet-suspected slots ever
    // pay it, growing the window is free once the suspect is known.
    let a0 = liveness.saturating_mul(u64::from(retries) + 3);
    let mut deadline = a0.max(w0_floor);
    for r in 0..3u32 {
        let t_round = comm.time_ns();
        let step: Result<MemberMask> = async {
            let wire = cur.to_bytes();
            comm.write_local(send, 0, &wire)?;
            comm.write_local(recv, 0, &vec![0u8; width * l])?;
            comm.write_local(recv, width * my_idx, &wire)?;
            let (live_plan, susp_plan) =
                compile_agree(p, me, members, epoch, base_round + r, width, &cur);
            let bind = Bindings {
                send: Some(send),
                recv: Some(recv),
            };
            let live = agree_policy(deadline);
            execute_once(comm, &live_plan, &bind, tracer, &live, true)
                .await
                .0?;
            if !susp_plan.steps.is_empty() {
                let cap = agree_policy(if r < 2 { a0.saturating_mul(2) } else { a0 });
                execute_once(comm, &susp_plan, &bind, tracer, &cap, true)
                    .await
                    .0?;
            }
            let mut bytes = vec![0u8; width * l];
            comm.read_local(recv, 0, &mut bytes)?;
            Ok(if r < 2 {
                fold_round(&cur, members, me, &bytes, width, p)
            } else {
                fold_ballots(&cur, members, me, &bytes, width, p)
            })
        }
        .await;
        match step {
            Ok(next) => {
                deadline = comm
                    .time_ns()
                    .saturating_sub(t_round)
                    .saturating_add(deadline)
                    .saturating_add(a0.saturating_mul(2));
                cur = next;
                out = Ok(cur.clone());
            }
            Err(e) => {
                out = Err(e);
                break;
            }
        }
    }
    let _ = comm.free(send);
    let _ = comm.free(recv);
    out.map(|mask| (mask, deadline.min(a0.saturating_mul(16))))
}

/// Run `op` survivably on any [`AsyncComm`] endpoint: detect peer
/// death, agree on the survivors, then either *resume* the torn plan
/// from each rank's watermark (membership unchanged) or shrink and
/// re-execute, until the collective completes over a stable membership
/// or a typed error (exile, dead root, quorum loss, shrink budget)
/// surfaces. Never hangs: every wait the loop takes is
/// deadline-bounded, and a peer dying *inside* the agreement folds into
/// the suspect set and restarts the agreement under fresh tags.
pub async fn run_survivable_polled<C: AsyncComm>(
    comm: &mut C,
    op: &SurvivableOp,
    send: Option<BufId>,
    recv: Option<BufId>,
    policy: &RecoveryPolicy,
) -> Result<SurvivableOutcome> {
    let p = comm.size();
    let me = comm.rank();
    validate(op, p, send, recv)?;
    let bind = bindings_for(op, send, recv);
    check_call(comm, &op.key(p, me, op.root().unwrap_or(0), &bind)?, &bind)?;
    let floor = effective_membership(policy);
    let tracer = comm.tracer();
    let tuner = Tuner::new(&arch_for(&comm.topology()));
    let mut dead = MemberMask::new(p);
    let mut epoch = 0u32;
    // `iter` counts loop iterations (for cost attribution); `aiter`
    // counts agreement iterations *within the current epoch* and
    // namespaces agreement tags together with the epoch nibble: it
    // advances on resume (same epoch, new agreement) and resets on
    // shrink (the epoch bump re-namespaces). Bounded by MAX_SHRINKS
    // (≤ 15), so `aiter*12 + attempt*3 + round` stays inside the tag's
    // 8-bit round field: ≤ 15·12 + 3·3 + 2 = 191.
    let mut iter = 0u32;
    let mut aiter = 0u32;
    let mut resumes = 0u32;
    let mut obs_p99 = 0u64;
    // Exit-skew hint threaded between successive agreements: a rank can
    // leave an agreement up to one final window late when a peer died
    // mid-fan-out, and the next agreement's round 0 must still hear it.
    let mut skew_hint = 0u64;
    let mut resume_state: Option<ResumeState> = None;
    // A rank whose execution already succeeded carries its report here
    // across resume iterations and skips re-execution entirely — its
    // deposits persist and its inbound needs were already met, so only
    // the torn ranks touch the transport again.
    let mut done: Option<ScheduleReport> = None;
    let mut mrep = MembershipReport::default();
    macro_rules! bail {
        ($e:expr) => {{
            if let Some(st) = resume_state.take() {
                st.abandon(comm);
            }
            return Err($e);
        }};
    }
    loop {
        if dead.get(me) {
            // Exile: the membership agreed *we* are dead (false
            // suspicion). Diverging silently would wedge the others.
            bail!(CommError::PeerDead(me));
        }
        if let Some(r) = op.root() {
            if dead.get(r) {
                bail!(CommError::PeerDead(r));
            }
        }
        let members = survivor_list(&dead, p);
        if members.len() * 2 <= p {
            bail!(proto(format!(
                "membership lost quorum: {}/{p} survivors",
                members.len()
            )));
        }
        let l = members.len();
        let plan = match member_plan(comm, op, &members, epoch, &bind) {
            Ok(plan) => plan,
            Err(e) => bail!(e),
        };
        // Adaptive detection: deadline from the analytic plan cost and
        // the step latencies this call has already observed.
        let liveness = adaptive_liveness(floor, tuner.cost_schedule(&plan, l) as u64, obs_p99);
        // The agreement's own all-to-all fan-out grows with l even when
        // the data plan's cost does not, so its deadlines are derived
        // from the agreement plan's modeled cost (identical on every
        // member: the schedule is symmetric). With nobody suspected the
        // live plan is the whole round.
        let (agree_plan, _) = compile_agree(
            p,
            me,
            &members,
            epoch,
            0,
            MemberMask::wire_len(p),
            &MemberMask::new(p),
        );
        let agree_liveness =
            adaptive_liveness(floor, tuner.cost_schedule(&agree_plan, l) as u64, obs_p99)
                .max(liveness);
        let mut pol = *policy;
        pol.membership = MembershipPolicy {
            liveness_ns: Some(liveness),
        };
        let t_exec = comm.time_ns();
        let exec: Result<ScheduleReport> = if let Some(report) = done {
            Ok(report)
        } else {
            let (res, report) = execute_resumable_polled(
                comm,
                &plan,
                &bind,
                &tracer,
                &pol,
                false,
                &mut resume_state,
            )
            .await;
            obs_p99 = obs_p99.max(report.step_p99_ns);
            res.map(|()| report)
        };
        let exec_ns = comm.time_ns().saturating_sub(t_exec);
        let mut own = dead.clone();
        match &exec {
            Ok(_) => {
                if iter > 0 {
                    mrep.reexec_ns += exec_ns;
                }
            }
            Err(CommError::PeerDead(q)) => {
                mrep.detect_ns += exec_ns;
                if *q < p {
                    own.set(*q);
                }
                own.set_flag(FLAG_REDO);
                if resumes >= MAX_SHRINKS {
                    own.set_flag(FLAG_NORESUME);
                }
            }
            Err(e) => bail!(e.clone()),
        }
        // Rendezvous: union everyone's suspicions so all survivors see
        // the same dead set — even ranks whose own execution was clean.
        // A failed execution raises FLAG_REDO so the whole membership
        // re-executes together even if the suspicion itself is refuted.
        // A peer dying mid-agreement folds in and restarts the
        // agreement (kill-anywhere recovery), bounded by the attempt
        // budget.
        let t0 = comm.time_ns();
        let mut agreed: Option<MemberMask> = None;
        for attempt in 0..MAX_AGREE_ATTEMPTS {
            let base_round = aiter * 12 + attempt * 3;
            match agree(
                comm,
                &members,
                epoch,
                base_round,
                &own,
                policy.max_retries,
                agree_liveness,
                skew_hint,
                &tracer,
            )
            .await
            {
                Ok((mask, hint)) => {
                    skew_hint = hint;
                    agreed = Some(mask);
                    break;
                }
                Err(CommError::PeerDead(q)) => {
                    if q < p {
                        own.set(q);
                    }
                    own.set_flag(FLAG_REDO);
                }
                Err(e) => bail!(e),
            }
        }
        let Some(agreed) = agreed else {
            bail!(proto(format!(
                "membership agreement failed after {MAX_AGREE_ATTEMPTS} attempts"
            )));
        };
        let agree_ns = comm.time_ns().saturating_sub(t0);
        mrep.agreements += 1;
        mrep.agree_ns += agree_ns;
        member_handles().agreements.add(1);
        tracer.span(
            Track::Rank(me),
            "membership:agree",
            t0,
            agree_ns as f64,
            agreed.low64(),
            Some(class::MEMBERSHIP),
        );
        let mut newly = agreed.clone();
        newly.subtract(&dead);
        if newly.is_empty() && !agreed.has_flag(FLAG_REDO) {
            let report = match exec {
                Ok(report) => report,
                Err(_) => unreachable!("a failed execution always raises the redo flag"),
            };
            mrep.dead_mask = dead.low64();
            let h = member_handles();
            h.detect_ns.record(mrep.detect_ns);
            h.agree_ns.record(mrep.agree_ns);
            h.reexec_ns.record(mrep.reexec_ns);
            return Ok(SurvivableOutcome {
                report,
                membership: mrep,
                members,
            });
        }
        if newly.is_empty() && !agreed.has_flag(FLAG_NORESUME) && resumes < MAX_SHRINKS {
            // Partial-progress resume: somebody's plan tore but the
            // membership did not change, so every remaining step still
            // touches only survivors. Completed ranks skip re-execution
            // (their deposits persist); torn ranks pick up at their
            // watermark under the same epoch, plan, and data tags.
            resumes += 1;
            mrep.resumes += 1;
            member_handles().resumes.add(1);
            done = exec.ok();
            tracer.span(
                Track::Rank(me),
                "membership:resume",
                comm.time_ns(),
                0.0,
                u64::from(resumes),
                Some(class::MEMBERSHIP),
            );
            iter += 1;
            aiter += 1;
            continue;
        }
        // Shrink: adopt the agreed dead set, advance the epoch (even
        // when only FLAG_REDO fired — full re-execution needs fresh
        // tags), drop stale-membership plans, back off, and go around.
        dead = agreed.clone();
        dead.clear_flag(FLAG_REDO);
        dead.clear_flag(FLAG_NORESUME);
        epoch += 1;
        mrep.epochs = epoch;
        mrep.dead_mask = dead.low64();
        if epoch > MAX_SHRINKS {
            bail!(proto(format!("membership exceeded {MAX_SHRINKS} shrinks")));
        }
        member_handles().shrinks.add(1);
        let t0 = comm.time_ns();
        comm.sleep_ns(RESTART_BACKOFF_NS).await;
        PlanCache::global().invalidate_members_before(epoch);
        tracer.span(
            Track::Rank(me),
            "membership:shrink",
            t0,
            comm.time_ns().saturating_sub(t0) as f64,
            dead.low64(),
            Some(class::MEMBERSHIP),
        );
        mrep.reexecs += 1;
        member_handles().reexecs.add(1);
        tracer.span(
            Track::Rank(me),
            "membership:reexec",
            comm.time_ns(),
            0.0,
            u64::from(epoch),
            Some(class::MEMBERSHIP),
        );
        // The shrunken plan is a different schedule: the old watermark
        // is meaningless, and completed ranks must re-execute too.
        if let Some(st) = resume_state.take() {
            st.abandon(comm);
        }
        done = None;
        iter += 1;
        aiter = 0;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn survivor_list_skips_dead_bits() {
        assert_eq!(survivor_list(&MemberMask::new(4), 4), vec![0, 1, 2, 3]);
        let mut dead = MemberMask::new(4);
        dead.set(0);
        dead.set(2);
        assert_eq!(survivor_list(&dead, 4), vec![1, 3]);
    }

    #[test]
    fn fold_round_unions_suspects_and_refutes_responders() {
        let p = 8;
        let width = MemberMask::wire_len(p);
        let members = [0usize, 2, 5, 7];
        // We are rank 2. Rank 5 never wrote (its slot is still zero —
        // content-based detection); rank 0 responded accusing {7}; rank
        // 7 responded clean. Rank 7 answered this very round, so rank
        // 0's accusation is refuted; the silent rank 5 stays suspected.
        let mut recv = vec![0u8; width * members.len()];
        let mut accuse7 = MemberMask::new(p);
        accuse7.set(7);
        recv[..width].copy_from_slice(&accuse7.to_bytes());
        recv[width * 3..width * 4].copy_from_slice(&MemberMask::new(p).to_bytes());
        let got = fold_round(&MemberMask::new(p), &members, 2, &recv, width, p);
        assert_eq!(got.iter().collect::<Vec<_>>(), vec![5]);
        assert_eq!(got.flags(), 0);
    }

    #[test]
    fn fold_round_preserves_flags_and_own_observations_of_the_dead() {
        let p = 8;
        let width = MemberMask::wire_len(p);
        let members = [0usize, 1, 2, 3];
        // We are rank 1, carrying FLAG_REDO (our data plan failed) and a
        // suspicion of rank 3, who also fails to respond this round;
        // ranks 0 and 2 respond clean.
        let mut cur = MemberMask::new(p);
        cur.set(3);
        cur.set_flag(FLAG_REDO);
        let clean = MemberMask::new(p).to_bytes();
        let mut recv = vec![0u8; width * members.len()];
        recv[..width].copy_from_slice(&clean);
        recv[width * 2..width * 3].copy_from_slice(&clean);
        let got = fold_round(&cur, &members, 1, &recv, width, p);
        assert!(got.has_flag(FLAG_REDO));
        assert_eq!(got.iter().collect::<Vec<_>>(), vec![3]);
        // A responsive accused rank is cleared, but flags never are:
        // rank 3 answers this round (carrying REDO itself).
        let mut redo = MemberMask::new(p);
        redo.set_flag(FLAG_REDO);
        recv[width * 3..width * 4].copy_from_slice(&redo.to_bytes());
        let got = fold_round(&cur, &members, 1, &recv, width, p);
        assert!(got.has_flag(FLAG_REDO));
        assert!(got.is_empty());
    }

    #[test]
    fn fold_round_handles_domains_past_64_ranks() {
        let p = 128;
        let width = MemberMask::wire_len(p);
        let members: Vec<usize> = (0..p).collect();
        // We are rank 0; rank 100 stays silent, everyone else responds.
        let clean = MemberMask::new(p).to_bytes();
        let mut recv = vec![0u8; width * p];
        for (i, &peer) in members.iter().enumerate() {
            if peer != 0 && peer != 100 {
                recv[width * i..width * (i + 1)].copy_from_slice(&clean);
            }
        }
        let got = fold_round(&MemberMask::new(p), &members, 0, &recv, width, p);
        assert_eq!(got.iter().collect::<Vec<_>>(), vec![100]);
    }

    #[test]
    fn fold_ballots_unions_without_suspecting_or_refuting() {
        let p = 8;
        let width = MemberMask::wire_len(p);
        let members: Vec<usize> = (0..p).collect();
        // Rank 6 dies mid-round-1 sweep: its ballot reached us but not
        // others, and rank 7's ballot names 6 dead. Rank 3's slot is
        // empty (it never wrote). The final fold must union 7's ballot
        // (6 dead) without refuting 6 for having responded and without
        // suspecting 3 for staying silent — either would give different
        // members different answers.
        let mut carried = MemberMask::new(p);
        carried.set_flag(FLAG_REDO);
        let mut from7 = MemberMask::new(p);
        from7.set(6);
        let mut recv = vec![0u8; width * p];
        recv[width * 6..width * 7].copy_from_slice(&MemberMask::new(p).to_bytes());
        recv[width * 7..width * 8].copy_from_slice(&from7.to_bytes());
        let got = fold_ballots(&carried, &members, 0, &recv, width, p);
        assert_eq!(got.iter().collect::<Vec<_>>(), vec![6]);
        assert!(got.has_flag(FLAG_REDO), "carried flags must survive");
    }

    #[test]
    fn arch_for_matches_presets_and_falls_back_on_shape() {
        let knl = Topology {
            sockets: 1,
            cores_per_socket: 68,
            threads_per_core: 4,
            page_size: 4096,
        };
        assert_eq!(arch_for(&knl).name, ArchProfile::knl().name);
        let other = Topology {
            sockets: 2,
            cores_per_socket: 8,
            threads_per_core: 1,
            page_size: 4096,
        };
        let arch = arch_for(&other);
        assert_eq!(arch.name, ArchProfile::broadwell().name);
        assert_eq!(arch.sockets, 2);
        assert_eq!(arch.cores_per_socket, 8);
    }

    #[test]
    fn adaptive_liveness_clamps_to_policy_window() {
        let floor = effective_membership(&RecoveryPolicy::survivable());
        // Tiny plans stay at the policy floor (PR 8's exact behavior).
        assert_eq!(adaptive_liveness(floor, 0, 0), floor);
        assert_eq!(adaptive_liveness(floor, floor / 8, 0), floor);
        // Bigger plans scale the deadline; observations can widen it.
        assert_eq!(adaptive_liveness(floor, floor, 0), 4 * floor);
        assert_eq!(adaptive_liveness(floor, floor, floor), 8 * floor);
        // And the ceiling caps runaway estimates.
        assert_eq!(adaptive_liveness(floor, u64::MAX / 2, 0), 64 * floor);
    }

    #[test]
    fn effective_membership_fills_zeroed_fields() {
        let survivable = MembershipPolicy::survivable().liveness_ns;
        assert_eq!(
            Some(effective_membership(&RecoveryPolicy::default())),
            survivable
        );
        let zero = RecoveryPolicy {
            membership: MembershipPolicy {
                liveness_ns: Some(0),
            },
            ..RecoveryPolicy::default()
        };
        assert_eq!(Some(effective_membership(&zero)), survivable);
        let custom = RecoveryPolicy {
            membership: MembershipPolicy {
                liveness_ns: Some(77),
            },
            ..RecoveryPolicy::default()
        };
        assert_eq!(effective_membership(&custom), 77);
    }

    #[test]
    fn validate_rejects_degenerate_shapes() {
        let op = SurvivableOp::Bcast {
            algo: BcastAlgo::DirectRead,
            count: 8,
            root: 0,
        };
        assert!(validate(&op, 1, Some(BufId(1)), None).is_err());
        // Gen-2 membership has no rank cap: 65, 128, 256 all validate.
        assert!(validate(&op, 65, Some(BufId(1)), None).is_ok());
        assert!(validate(&op, 256, Some(BufId(1)), None).is_ok());
        assert!(validate(&op, 4, Some(BufId(1)), None).is_ok());
        let zero = SurvivableOp::Bcast {
            algo: BcastAlgo::DirectRead,
            count: 0,
            root: 0,
        };
        assert!(validate(&zero, 4, Some(BufId(1)), None).is_err());
        // An in-place survivable alltoall has nothing to re-execute from.
        let a2a = SurvivableOp::Alltoall {
            algo: AlltoallAlgo::Pairwise,
            count: 8,
        };
        assert!(validate(&a2a, 4, None, Some(BufId(2))).is_err());
        assert!(validate(&a2a, 4, Some(BufId(1)), Some(BufId(2))).is_ok());
    }
}
