//! Deterministic, seeded fault injection for kacc transports.
//!
//! The paper's premise is that the kernel-assisted (CMA) copy path is the
//! *fragile* fast path: real `process_vm_readv`/`writev` calls can return
//! short counts, `EAGAIN`, `EPERM` (ptrace scope), or `ESRCH` (peer death),
//! and production MPI stacks survive by degrading to the two-copy
//! shared-memory path. This crate injects exactly those failure modes into
//! every kacc transport so the executor's recovery machinery
//! (`kacc-collectives::exec::RecoveryPolicy`) can be exercised
//! deterministically in CI.
//!
//! # Architecture
//!
//! - [`FaultSite`] describes one transport operation about to happen
//!   (initiating rank, peer, operation kind, byte length).
//! - A [`FaultInjector`] maps each site to a [`FaultDecision`]: let it
//!   proceed, truncate it, fail it with a typed [`CommError`], or delay it.
//! - [`FaultHook`] is the transport-side handle, a newtype over
//!   `Option<Arc<dyn FaultInjector>>` mirroring `kacc_trace::Tracer`: the
//!   disabled state costs a single branch per call site and allocates
//!   nothing, which is what keeps the fault-free path bitwise-identical to
//!   a build without the hook (the chaos suite pins it).
//! - [`FaultPlan`] is the built-in injector: a seed plus an ordered list of
//!   declarative [`FaultRule`]s. Decisions are a pure function of
//!   `(seed, rule index, rank, per-rank op counter)` via a splitmix64 hash,
//!   so a plan replays identically regardless of thread interleaving —
//!   each rank sees its own deterministic fault stream.
//!
//! # Reproducibility
//!
//! `max_triggers` budgets are tracked **per (rule, initiating rank)**. On a
//! nondeterministically-interleaved transport (`ThreadComm`, `NativeComm`) a
//! shared global budget would make *which* rank eats the fault depend on
//! scheduling; per-rank budgets keep every rank's stream independent of the
//! others, so chaos failures reproduce from the printed seed alone.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use kacc_comm::{CommError, ESRCH};

/// Transport operation kinds a fault can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Kernel-assisted read from a peer (`process_vm_readv` analogue).
    CmaRead,
    /// Kernel-assisted write to a peer (`process_vm_writev` analogue).
    CmaWrite,
    /// Control-message send.
    CtrlSend,
    /// Control-message receive.
    CtrlRecv,
    /// Two-copy shared-memory data send.
    ShmSend,
    /// Two-copy shared-memory data receive.
    ShmRecv,
    /// Buffer exposure (registration for kernel-assisted access).
    Expose,
    /// Two-copy fallback read used when CMA degrades.
    FallbackRead,
    /// Two-copy fallback write used when CMA degrades.
    FallbackWrite,
}

impl FaultOp {
    /// Every operation kind, in a fixed order (used by `ops=*`).
    pub const ALL: [FaultOp; 9] = [
        FaultOp::CmaRead,
        FaultOp::CmaWrite,
        FaultOp::CtrlSend,
        FaultOp::CtrlRecv,
        FaultOp::ShmSend,
        FaultOp::ShmRecv,
        FaultOp::Expose,
        FaultOp::FallbackRead,
        FaultOp::FallbackWrite,
    ];

    /// Stable lowercase name used by the plan-file format.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::CmaRead => "cma_read",
            FaultOp::CmaWrite => "cma_write",
            FaultOp::CtrlSend => "ctrl_send",
            FaultOp::CtrlRecv => "ctrl_recv",
            FaultOp::ShmSend => "shm_send",
            FaultOp::ShmRecv => "shm_recv",
            FaultOp::Expose => "expose",
            FaultOp::FallbackRead => "fallback_read",
            FaultOp::FallbackWrite => "fallback_write",
        }
    }

    /// Inverse of [`FaultOp::name`].
    pub fn parse(s: &str) -> Option<FaultOp> {
        FaultOp::ALL.into_iter().find(|op| op.name() == s)
    }

    /// True for the kernel-assisted single-copy operations, the only sites
    /// where a partial (resumable) transfer is meaningful.
    pub fn is_cma(self) -> bool {
        matches!(self, FaultOp::CmaRead | FaultOp::CmaWrite)
    }
}

/// One transport operation about to be attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Rank initiating the operation.
    pub rank: usize,
    /// Remote rank involved, if any (the CMA target, message peer, …).
    pub peer: Option<usize>,
    /// Operation kind.
    pub op: FaultOp,
    /// Payload length in bytes (0 for length-less operations).
    pub len: usize,
}

/// What the injector wants done with an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultDecision {
    /// Proceed normally.
    Allow,
    /// Move only `got` bytes (strictly fewer than requested), then report
    /// `CommError::Truncated`. Only meaningful on resumable CMA sites.
    Truncate {
        /// Bytes actually moved before the cut.
        got: usize,
    },
    /// Fail the operation outright with this typed error.
    Fail(CommError),
    /// Delay the operation by `ns` nanoseconds, then proceed normally.
    Delay {
        /// Injected latency in nanoseconds (virtual ns on the simulator).
        ns: u64,
    },
}

impl FaultDecision {
    /// Coerce a partial-transfer decision into a transient failure for
    /// sites that cannot resume mid-operation (control messages, exposure,
    /// shared-memory path). `Allow`/`Fail`/`Delay` pass through.
    pub fn no_partial(self) -> FaultDecision {
        match self {
            FaultDecision::Truncate { .. } => {
                FaultDecision::Fail(CommError::Os(11 /* EAGAIN */))
            }
            other => other,
        }
    }
}

/// Maps transport operations to fault decisions. Implementations must be
/// deterministic per rank to keep chaos runs reproducible.
pub trait FaultInjector: Send + Sync {
    /// Decide the fate of one operation. Called once per transport attempt
    /// (retries of a failed operation are new attempts and new sites).
    fn decide(&self, site: &FaultSite) -> FaultDecision;
}

/// Transport-side handle to an optional injector.
///
/// Mirrors `kacc_trace::Tracer`: the disabled state ([`FaultHook::off`],
/// also the `Default`) is a `None`, so every injection site costs one
/// branch and no allocation when faults are off.
#[derive(Clone, Default)]
pub struct FaultHook(Option<Arc<dyn FaultInjector>>);

impl std::fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "FaultHook(on)"
        } else {
            "FaultHook(off)"
        })
    }
}

impl FaultHook {
    /// A disabled hook: every [`FaultHook::decide`] is a single branch.
    pub fn off() -> Self {
        FaultHook(None)
    }

    /// A hook consulting the given injector.
    pub fn new(injector: Arc<dyn FaultInjector>) -> Self {
        FaultHook(Some(injector))
    }

    /// True when an injector is installed. Use to skip *building* a
    /// `FaultSite` when the construction itself is costly.
    #[inline]
    pub fn on(&self) -> bool {
        self.0.is_some()
    }

    /// Consult the injector; [`FaultDecision::Allow`] when disabled.
    #[inline]
    pub fn decide(&self, site: &FaultSite) -> FaultDecision {
        match &self.0 {
            Some(inj) => inj.decide(site),
            None => FaultDecision::Allow,
        }
    }
}

/// The failure mode a [`FaultRule`] injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Cut a CMA transfer short: move `len * numer / denom` bytes (clamped
    /// to `len - 1`) and report `Truncated`. On non-CMA sites this is
    /// coerced to a transient `EAGAIN` by the transport.
    Truncate {
        /// Fraction numerator.
        numer: usize,
        /// Fraction denominator (must be nonzero).
        denom: usize,
    },
    /// Fail with `CommError::Os(errno)` — transient, retryable.
    Transient {
        /// The errno to surface (11 = EAGAIN is the classic).
        errno: i32,
    },
    /// Fail with `CommError::PermissionDenied` (exposure revoked / ptrace
    /// scope). Persistent from the executor's point of view: triggers the
    /// CMA→SHM fallback rather than retries.
    PermDenied,
    /// Rank `rank` is dead: every operation initiated by it or targeting
    /// it fails with `CommError::Os(ESRCH)`. Fires unconditionally
    /// on match — death is not probabilistic.
    PeerDead {
        /// The dead rank.
        rank: usize,
    },
    /// Delay the operation by `ns` nanoseconds, then let it proceed.
    Delay {
        /// Injected latency in nanoseconds.
        ns: u64,
    },
}

/// One declarative injection rule. Empty `ops`/`ranks`/`peers` vectors are
/// wildcards. Rules are evaluated in plan order; the first rule that both
/// matches and fires decides the operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Operation kinds this rule applies to (empty = all).
    pub ops: Vec<FaultOp>,
    /// Initiating ranks this rule applies to (empty = all).
    pub ranks: Vec<usize>,
    /// Peer ranks this rule applies to (empty = all, including no peer).
    pub peers: Vec<usize>,
    /// Firing probability in parts-per-million (1_000_000 = always).
    /// Ignored by [`FaultKind::PeerDead`], which always fires on match.
    pub prob_ppm: u32,
    /// What to inject when the rule fires.
    pub kind: FaultKind,
    /// Cap on firings per initiating rank (`None` = unlimited). Per-rank,
    /// not global, so budgets are schedule-interleaving independent.
    pub max_triggers: Option<u32>,
    /// Activation threshold on the initiating rank's op index: the rule
    /// is inert for a rank's first `after` operations and eligible from
    /// op `after` on. Because each rank has its own deterministic op
    /// stream, this kills (or degrades) a rank *at a seeded virtual
    /// time* — each rank crosses its own threshold independently of the
    /// interleaving. `0` (the default) means active from the start.
    pub after: u64,
}

impl FaultRule {
    /// A rule injecting `kind` with probability `prob` (0.0–1.0) on every
    /// site. Restrict with [`ops`](Self::ops_mask) /
    /// [`ranks`](Self::ranks_mask) / [`peers`](Self::peers_mask) and bound
    /// with [`max`](Self::max).
    pub fn new(kind: FaultKind, prob: f64) -> Self {
        FaultRule {
            ops: Vec::new(),
            ranks: Vec::new(),
            peers: Vec::new(),
            prob_ppm: (prob.clamp(0.0, 1.0) * 1_000_000.0).round() as u32,
            kind,
            max_triggers: None,
            after: 0,
        }
    }

    /// Restrict the rule to these operation kinds.
    pub fn ops_mask(mut self, ops: &[FaultOp]) -> Self {
        self.ops = ops.to_vec();
        self
    }

    /// Restrict the rule to these initiating ranks.
    pub fn ranks_mask(mut self, ranks: &[usize]) -> Self {
        self.ranks = ranks.to_vec();
        self
    }

    /// Restrict the rule to these peer ranks.
    pub fn peers_mask(mut self, peers: &[usize]) -> Self {
        self.peers = peers.to_vec();
        self
    }

    /// Cap firings at `n` per initiating rank.
    pub fn max(mut self, n: u32) -> Self {
        self.max_triggers = Some(n);
        self
    }

    /// Keep the rule inert until the initiating rank's `n`-th operation.
    pub fn after(mut self, n: u64) -> Self {
        self.after = n;
        self
    }

    fn matches(&self, site: &FaultSite) -> bool {
        if !self.ops.is_empty() && !self.ops.contains(&site.op) {
            return false;
        }
        // PeerDead matches by involvement, not by the ranks/peers masks:
        // a dead rank poisons both directions.
        if let FaultKind::PeerDead { rank } = self.kind {
            return site.rank == rank || site.peer == Some(rank);
        }
        if !self.ranks.is_empty() && !self.ranks.contains(&site.rank) {
            return false;
        }
        if !self.peers.is_empty() {
            match site.peer {
                Some(p) => {
                    if !self.peers.contains(&p) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        true
    }

    fn decision(&self, site: &FaultSite) -> FaultDecision {
        match self.kind {
            FaultKind::Truncate { numer, denom } => {
                if site.len == 0 || denom == 0 {
                    return FaultDecision::Allow;
                }
                let got = (site.len * numer / denom).min(site.len - 1);
                FaultDecision::Truncate { got }
            }
            FaultKind::Transient { errno } => FaultDecision::Fail(CommError::Os(errno)),
            FaultKind::PermDenied => FaultDecision::Fail(CommError::PermissionDenied),
            FaultKind::PeerDead { .. } => FaultDecision::Fail(CommError::Os(ESRCH)),
            FaultKind::Delay { ns } => FaultDecision::Delay { ns },
        }
    }
}

/// One initiating rank's position in the plan.
#[derive(Default, Clone)]
struct RankCounters {
    /// Position of the next op in this rank's deterministic stream.
    op_idx: u64,
    /// Firings so far per rule index, grown when a capped rule first
    /// fires for this rank.
    triggers: Vec<u32>,
}

/// Counters by initiating rank, grown when a rank issues its first op.
#[derive(Default)]
struct PlanCounters {
    ranks: Vec<RankCounters>,
}

/// A seeded, declarative fault plan: the built-in [`FaultInjector`].
///
/// Decisions are a pure function of `(seed, rule index, rank, that rank's
/// op counter)`, so two runs over the same per-rank operation sequences
/// fault identically even when ranks interleave differently.
pub struct FaultPlan {
    /// RNG seed; printed by chaos harnesses for reproduction.
    pub seed: u64,
    /// Ordered rules; first match that fires wins.
    pub rules: Vec<FaultRule>,
    counters: Mutex<PlanCounters>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rules", &self.rules)
            .finish_non_exhaustive()
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn draw_ppm(seed: u64, rule_idx: usize, rank: usize, op_idx: u64) -> u32 {
    let mut h = splitmix64(seed);
    h = splitmix64(h ^ rule_idx as u64);
    h = splitmix64(h ^ rank as u64);
    h = splitmix64(h ^ op_idx);
    (h % 1_000_000) as u32
}

impl FaultPlan {
    /// An empty plan (no rules — every decision is `Allow`, but the hook
    /// still goes through the full bookkeeping; useful as a zero-cost
    /// control in end-to-end determinism tests).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            counters: Mutex::new(PlanCounters::default()),
        }
    }

    /// Append a rule (builder style).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Append a *silent kill* of `rank` at op index `after` (builder
    /// style): every transport operation the rank initiates from its
    /// `after`-th onward fails with `ESRCH`, which is exactly what a
    /// peer observes of a process that died without a goodbye. Because
    /// `after` counts the victim's own operations, the kill can be
    /// scheduled into any phase of a survivable collective — the data
    /// plan, the membership agreement, or a shrink re-execution — which
    /// is what the kill-anywhere chaos corpus uses it for.
    pub fn silent_kill(self, rank: usize, after: u64) -> Self {
        self.rule(
            FaultRule::new(FaultKind::Transient { errno: 3 }, 1.0)
                .ranks_mask(&[rank])
                .after(after),
        )
    }

    /// Wrap this plan in a transport hook.
    pub fn hook(self) -> FaultHook {
        FaultHook::new(Arc::new(self))
    }

    /// Reset op counters and trigger budgets, so the same plan value can
    /// drive a second identical run.
    pub fn reset(&self) {
        self.lock().ranks.clear();
    }

    fn lock(&self) -> MutexGuard<'_, PlanCounters> {
        self.counters.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Serialize to the line-based plan-file format accepted by
    /// [`FaultPlan::parse`].
    pub fn format(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "seed {}", self.seed);
        for r in &self.rules {
            let _ = write!(out, "rule ops=");
            if r.ops.is_empty() {
                out.push('*');
            } else {
                let names: Vec<&str> = r.ops.iter().map(|o| o.name()).collect();
                out.push_str(&names.join(","));
            }
            let _ = write!(out, " ranks={}", fmt_list(&r.ranks));
            let _ = write!(out, " peers={}", fmt_list(&r.peers));
            let _ = write!(out, " prob={}", r.prob_ppm as f64 / 1_000_000.0);
            if let Some(m) = r.max_triggers {
                let _ = write!(out, " max={m}");
            }
            if r.after > 0 {
                let _ = write!(out, " after={}", r.after);
            }
            match r.kind {
                FaultKind::Truncate { numer, denom } => {
                    let _ = write!(out, " kind=truncate frac={numer}/{denom}");
                }
                FaultKind::Transient { errno } => {
                    let _ = write!(out, " kind=transient errno={errno}");
                }
                FaultKind::PermDenied => {
                    let _ = write!(out, " kind=perm_denied");
                }
                FaultKind::PeerDead { rank } => {
                    let _ = write!(out, " kind=peer_dead rank={rank}");
                }
                FaultKind::Delay { ns } => {
                    let _ = write!(out, " kind=delay ns={ns}");
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parse the line-based plan-file format:
    ///
    /// ```text
    /// # comment
    /// seed 42
    /// rule ops=cma_read,cma_write ranks=* peers=* prob=0.05 max=2 kind=transient errno=11
    /// rule ops=cma_read ranks=1,3 peers=* prob=1 kind=truncate frac=1/2
    /// rule ops=* ranks=* peers=* prob=0 kind=peer_dead rank=3
    /// ```
    ///
    /// `ops`/`ranks`/`peers` accept `*` or comma lists; `prob` is 0.0–1.0;
    /// `max` (optional) caps firings per initiating rank; `after`
    /// (optional) keeps the rule inert until the initiating rank's N-th
    /// operation — a seeded kill-at-virtual-time switch; `kind` selects
    /// the failure mode with its own parameters (`frac=N/D`, `errno=E`,
    /// `rank=R`, `ns=N`).
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut seed: Option<u64> = None;
        let mut rules = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: String| format!("fault plan line {}: {msg}", lineno + 1);
            if let Some(rest) = line.strip_prefix("seed ") {
                seed = Some(
                    rest.trim()
                        .parse::<u64>()
                        .map_err(|e| err(format!("bad seed: {e}")))?,
                );
            } else if let Some(rest) = line.strip_prefix("rule ") {
                rules.push(parse_rule(rest).map_err(err)?);
            } else {
                return Err(err(format!("unrecognized directive: {line:?}")));
            }
        }
        Ok(FaultPlan {
            seed: seed.ok_or_else(|| "fault plan: missing `seed <n>` line".to_string())?,
            rules,
            counters: Mutex::new(PlanCounters::default()),
        })
    }
}

fn fmt_list(xs: &[usize]) -> String {
    if xs.is_empty() {
        "*".to_string()
    } else {
        xs.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn parse_usize_list(v: &str, what: &str) -> Result<Vec<usize>, String> {
    if v == "*" {
        return Ok(Vec::new());
    }
    v.split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|e| format!("bad {what} entry {s:?}: {e}"))
        })
        .collect()
}

fn parse_rule(rest: &str) -> Result<FaultRule, String> {
    let mut kv: HashMap<&str, &str> = HashMap::new();
    for tok in rest.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {tok:?}"))?;
        if kv.insert(k, v).is_some() {
            return Err(format!("duplicate key {k:?}"));
        }
    }
    let take = |k: &str| kv.get(k).copied();

    let ops = match take("ops") {
        None | Some("*") => Vec::new(),
        Some(list) => list
            .split(',')
            .map(|s| FaultOp::parse(s.trim()).ok_or_else(|| format!("unknown op {:?}", s.trim())))
            .collect::<Result<Vec<_>, _>>()?,
    };
    let ranks = parse_usize_list(take("ranks").unwrap_or("*"), "rank")?;
    let peers = parse_usize_list(take("peers").unwrap_or("*"), "peer")?;
    let prob: f64 = take("prob")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("bad prob: {e}"))?;
    if !(0.0..=1.0).contains(&prob) {
        return Err(format!("prob {prob} outside [0, 1]"));
    }
    let max_triggers = match take("max") {
        None => None,
        Some(v) => Some(v.parse::<u32>().map_err(|e| format!("bad max: {e}"))?),
    };
    let after = match take("after") {
        None => 0,
        Some(v) => v.parse::<u64>().map_err(|e| format!("bad after: {e}"))?,
    };
    let kind = match take("kind").ok_or("missing kind=")? {
        "truncate" => {
            let frac = take("frac").ok_or("truncate needs frac=N/D")?;
            let (n, d) = frac.split_once('/').ok_or("frac must be N/D")?;
            let numer = n.parse::<usize>().map_err(|e| format!("bad frac: {e}"))?;
            let denom = d.parse::<usize>().map_err(|e| format!("bad frac: {e}"))?;
            if denom == 0 {
                return Err("frac denominator must be nonzero".to_string());
            }
            FaultKind::Truncate { numer, denom }
        }
        "transient" => FaultKind::Transient {
            errno: take("errno")
                .unwrap_or("11")
                .parse()
                .map_err(|e| format!("bad errno: {e}"))?,
        },
        "perm_denied" => FaultKind::PermDenied,
        "peer_dead" => FaultKind::PeerDead {
            rank: take("rank")
                .ok_or("peer_dead needs rank=R")?
                .parse()
                .map_err(|e| format!("bad rank: {e}"))?,
        },
        "delay" => FaultKind::Delay {
            ns: take("ns")
                .ok_or("delay needs ns=N")?
                .parse()
                .map_err(|e| format!("bad ns: {e}"))?,
        },
        other => return Err(format!("unknown kind {other:?}")),
    };
    Ok(FaultRule {
        ops,
        ranks,
        peers,
        prob_ppm: (prob * 1_000_000.0).round() as u32,
        kind,
        max_triggers,
        after,
    })
}

impl FaultInjector for FaultPlan {
    fn decide(&self, site: &FaultSite) -> FaultDecision {
        let mut c = self.lock();
        if c.ranks.len() <= site.rank {
            c.ranks.resize(site.rank + 1, RankCounters::default());
        }
        let rank = &mut c.ranks[site.rank];
        let op_idx = rank.op_idx;
        rank.op_idx += 1;
        for (rule_idx, rule) in self.rules.iter().enumerate() {
            if op_idx < rule.after {
                continue;
            }
            if !rule.matches(site) {
                continue;
            }
            // Death is unconditional; everything else rolls the seeded die.
            let fires = matches!(rule.kind, FaultKind::PeerDead { .. })
                || draw_ppm(self.seed, rule_idx, site.rank, op_idx) < rule.prob_ppm;
            if !fires {
                continue;
            }
            if let Some(cap) = rule.max_triggers {
                if rank.triggers.len() <= rule_idx {
                    rank.triggers.resize(rule_idx + 1, 0);
                }
                let n = &mut rank.triggers[rule_idx];
                if *n >= cap {
                    continue;
                }
                *n += 1;
            }
            return rule.decision(site);
        }
        FaultDecision::Allow
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn site(rank: usize, peer: usize, op: FaultOp, len: usize) -> FaultSite {
        FaultSite {
            rank,
            peer: Some(peer),
            op,
            len,
        }
    }

    #[test]
    fn off_hook_always_allows() {
        let h = FaultHook::off();
        assert!(!h.on());
        assert_eq!(
            h.decide(&site(0, 1, FaultOp::CmaRead, 4096)),
            FaultDecision::Allow
        );
        assert_eq!(format!("{h:?}"), "FaultHook(off)");
    }

    #[test]
    fn empty_plan_allows_everything() {
        let h = FaultPlan::new(7).hook();
        assert!(h.on());
        for op in FaultOp::ALL {
            assert_eq!(h.decide(&site(0, 1, op, 64)), FaultDecision::Allow);
        }
    }

    #[test]
    fn per_rank_streams_are_interleaving_independent() {
        // Decisions for rank 0's k-th op must not depend on how many ops
        // other ranks issued in between.
        let mk =
            || FaultPlan::new(42).rule(FaultRule::new(FaultKind::Transient { errno: 11 }, 0.3));
        let a = mk();
        let b = mk();
        let s0 = site(0, 1, FaultOp::CmaRead, 128);
        let s9 = site(9, 0, FaultOp::CmaWrite, 128);
        // Plan a: rank 0 ops back to back. Plan b: rank 9 noise interleaved.
        let seq_a: Vec<_> = (0..32).map(|_| a.decide(&s0)).collect();
        let mut seq_b = Vec::new();
        for _ in 0..32 {
            for _ in 0..3 {
                let _ = b.decide(&s9);
            }
            seq_b.push(b.decide(&s0));
        }
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn seeds_change_the_stream() {
        let p1 = FaultPlan::new(1).rule(FaultRule::new(FaultKind::Transient { errno: 11 }, 0.5));
        let p2 = FaultPlan::new(2).rule(FaultRule::new(FaultKind::Transient { errno: 11 }, 0.5));
        let s = site(0, 1, FaultOp::CmaRead, 128);
        let a: Vec<_> = (0..64).map(|_| p1.decide(&s)).collect();
        let b: Vec<_> = (0..64).map(|_| p2.decide(&s)).collect();
        assert_ne!(a, b);
        // And probability is roughly honored.
        let hits = a.iter().filter(|d| **d != FaultDecision::Allow).count();
        assert!((10..=54).contains(&hits), "hits={hits}");
    }

    #[test]
    fn max_triggers_is_per_rank() {
        let p =
            FaultPlan::new(3).rule(FaultRule::new(FaultKind::Transient { errno: 11 }, 1.0).max(2));
        for rank in 0..3 {
            let s = site(rank, (rank + 1) % 3, FaultOp::CtrlSend, 8);
            let fails = (0..10)
                .map(|_| p.decide(&s))
                .filter(|d| *d != FaultDecision::Allow)
                .count();
            assert_eq!(fails, 2, "rank {rank} budget");
        }
    }

    #[test]
    fn truncate_moves_strictly_fewer_bytes() {
        let p = FaultPlan::new(4).rule(
            FaultRule::new(FaultKind::Truncate { numer: 1, denom: 2 }, 1.0)
                .ops_mask(&[FaultOp::CmaRead]),
        );
        assert_eq!(
            p.decide(&site(0, 1, FaultOp::CmaRead, 100)),
            FaultDecision::Truncate { got: 50 }
        );
        // len=1 clamps to got=0; len=0 is a no-op.
        assert_eq!(
            p.decide(&site(0, 1, FaultOp::CmaRead, 1)),
            FaultDecision::Truncate { got: 0 }
        );
        assert_eq!(
            p.decide(&site(0, 1, FaultOp::CmaRead, 0)),
            FaultDecision::Allow
        );
        // Non-matching op untouched.
        assert_eq!(
            p.decide(&site(0, 1, FaultOp::CtrlSend, 100)),
            FaultDecision::Allow
        );
        // no_partial coerces for non-resumable sites.
        assert_eq!(
            FaultDecision::Truncate { got: 5 }.no_partial(),
            FaultDecision::Fail(CommError::Os(11))
        );
    }

    #[test]
    fn peer_dead_fires_on_both_directions_unconditionally() {
        let p = FaultPlan::new(5).rule(FaultRule::new(FaultKind::PeerDead { rank: 2 }, 0.0));
        let dead = FaultDecision::Fail(CommError::Os(ESRCH));
        assert_eq!(p.decide(&site(2, 0, FaultOp::CtrlSend, 8)), dead);
        assert_eq!(p.decide(&site(0, 2, FaultOp::CmaRead, 64)), dead);
        assert_eq!(
            p.decide(&site(0, 1, FaultOp::CmaRead, 64)),
            FaultDecision::Allow
        );
        // Initiator with no peer at all survives.
        let nop = FaultSite {
            rank: 1,
            peer: None,
            op: FaultOp::Expose,
            len: 0,
        };
        assert_eq!(p.decide(&nop), FaultDecision::Allow);
    }

    #[test]
    fn first_matching_firing_rule_wins() {
        let p = FaultPlan::new(6)
            .rule(FaultRule::new(FaultKind::PermDenied, 1.0).ops_mask(&[FaultOp::CmaRead]))
            .rule(FaultRule::new(FaultKind::Transient { errno: 11 }, 1.0));
        assert_eq!(
            p.decide(&site(0, 1, FaultOp::CmaRead, 8)),
            FaultDecision::Fail(CommError::PermissionDenied)
        );
        assert_eq!(
            p.decide(&site(0, 1, FaultOp::CtrlSend, 8)),
            FaultDecision::Fail(CommError::Os(11))
        );
    }

    #[test]
    fn reset_replays_identically() {
        let p =
            FaultPlan::new(11).rule(FaultRule::new(FaultKind::Transient { errno: 11 }, 0.4).max(5));
        let s = site(0, 1, FaultOp::ShmSend, 256);
        let a: Vec<_> = (0..40).map(|_| p.decide(&s)).collect();
        p.reset();
        let b: Vec<_> = (0..40).map(|_| p.decide(&s)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn after_threshold_activates_per_rank_streams() {
        let p =
            FaultPlan::new(8).rule(FaultRule::new(FaultKind::Transient { errno: 3 }, 1.0).after(3));
        // Each rank's first three ops pass; from the fourth on, the rule
        // fires unconditionally — independently per rank.
        for rank in 0..2 {
            let s = site(rank, (rank + 1) % 2, FaultOp::CtrlSend, 8);
            for i in 0..6 {
                let d = p.decide(&s);
                if i < 3 {
                    assert_eq!(d, FaultDecision::Allow, "rank {rank} op {i}");
                } else {
                    assert_eq!(
                        d,
                        FaultDecision::Fail(CommError::Os(ESRCH)),
                        "rank {rank} op {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn after_round_trips_through_plan_files() {
        let plan = FaultPlan::new(77)
            .rule(FaultRule::new(FaultKind::Transient { errno: 3 }, 1.0).after(12))
            .rule(FaultRule::new(FaultKind::PeerDead { rank: 1 }, 0.0).after(40));
        let text = plan.format();
        assert!(text.contains("after=12"), "missing after in {text}");
        let parsed = FaultPlan::parse(&text).unwrap();
        assert_eq!(plan.rules, parsed.rules);
        assert_eq!(parsed.rules[1].after, 40);
        // Absent `after` defaults to 0 (always active).
        let old = FaultPlan::parse("seed 1\nrule kind=transient errno=11").unwrap();
        assert_eq!(old.rules[0].after, 0);
        assert!(FaultPlan::parse("seed 1\nrule after=x kind=perm_denied").is_err());
    }

    #[test]
    fn parse_format_round_trip() {
        let text = "\
# chaos corpus entry 0
seed 1234

rule ops=cma_read,cma_write ranks=* peers=* prob=0.05 max=2 kind=transient errno=11
rule ops=cma_read ranks=1,3 peers=0 prob=1 kind=truncate frac=1/2
rule ops=* ranks=* peers=* prob=0 kind=peer_dead rank=3
rule ops=ctrl_send ranks=* peers=* prob=0.25 kind=delay ns=5000
rule ops=expose ranks=2 peers=* prob=0.5 kind=perm_denied
";
        let p = FaultPlan::parse(text).unwrap();
        assert_eq!(p.seed, 1234);
        assert_eq!(p.rules.len(), 5);
        assert_eq!(p.rules[0].kind, FaultKind::Transient { errno: 11 });
        assert_eq!(p.rules[0].max_triggers, Some(2));
        assert_eq!(p.rules[0].prob_ppm, 50_000);
        assert_eq!(p.rules[1].ranks, vec![1, 3]);
        assert_eq!(p.rules[1].peers, vec![0]);
        assert_eq!(p.rules[3].kind, FaultKind::Delay { ns: 5000 });
        // format -> parse -> same rules.
        let p2 = FaultPlan::parse(&p.format()).unwrap();
        assert_eq!(p.seed, p2.seed);
        assert_eq!(p.rules, p2.rules);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("rule kind=transient").is_err()); // no seed
        assert!(FaultPlan::parse("seed 1\nrule kind=nonsense").is_err());
        assert!(FaultPlan::parse("seed 1\nrule ops=warp_drive kind=transient").is_err());
        assert!(FaultPlan::parse("seed 1\nrule prob=2 kind=transient").is_err());
        assert!(FaultPlan::parse("seed 1\nrule kind=truncate frac=1/0").is_err());
        assert!(FaultPlan::parse("seed 1\nbogus line").is_err());
        assert!(FaultPlan::parse("seed 1\nrule kind=peer_dead").is_err());
        assert!(FaultPlan::parse("seed x").is_err());
    }

    #[test]
    fn op_names_round_trip() {
        for op in FaultOp::ALL {
            assert_eq!(FaultOp::parse(op.name()), Some(op));
        }
        assert_eq!(FaultOp::parse("nope"), None);
        assert!(FaultOp::CmaRead.is_cma());
        assert!(FaultOp::CmaWrite.is_cma());
        assert!(!FaultOp::ShmSend.is_cma());
    }
}
