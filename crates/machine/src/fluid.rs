//! Fluid-flow servers: the page-lock server and the memory system.
//!
//! Both model shared resources as *fluid* processor sharing: while the
//! active set is constant, every flow makes continuous progress at a rate
//! determined by the whole set; rates are re-evaluated exactly at
//! add/remove boundaries, which in our cooperative simulator always
//! happen in thread context under the kernel lock.
//!
//! ## Service clocks
//!
//! Flows that share a rate need no per-flow integration. A server keeps
//! one cumulative *service clock* per rate class: the work delivered to
//! every flow of the class since the class was last idle. A flow stores
//! the clock value at which it drains (its *finish tag* = clock at
//! arrival + size) and never changes again. The clock is *folded*
//! (advanced to the current time at the current rate) only when the
//! active set changes, inside `add`/`remove_with`; in between,
//! `update(now)` merely records `now` and readers evaluate
//! `clock(t_fold) + (now − t_fold)·rate`. Server state is therefore a
//! function of the add/remove history alone: extra `update`/`is_done`/
//! `eta` calls, i.e. extra dispatches, cannot move a completion time.
//! Each class keeps its flows in a [`IndexedHeap`] keyed by finish tag
//! (ties by arrival), which gives the next flow to drain, so every
//! operation is O(log c) in the number of live flows c. Clocks
//! restart at zero whenever their class goes idle, which keeps
//! magnitudes small and makes an isolated flow exact.
//!
//! ## Completion ownership
//!
//! The server owns its next completion: exactly one flow, the *head*
//! (earliest to drain under the current set), has an owner holding a
//! timer. `remove_with` re-wakes only the new head's owner (removals
//! speed flows up, so its timer must move earlier); an `add` slows flows
//! down, so the head's existing timer merely fires early and re-parks —
//! unless the add promoted a flow of another rate class to head, whose
//! owner [`MemSys::arm_head`] then wakes. Every other owner parks
//! without a timer ([`PageLockServer::park`], [`MemSys::park`]) and is
//! woken when a removal makes its flow the head.
//!
//! ## Page-lock server (one per simulated process)
//!
//! Models the per-process `mmap_sem`/page-table lock inside
//! `get_user_pages` that the paper identifies as the contention source
//! (Fig 4). Page grants are served round-robin across the `c` active
//! pinning requests, one page per grant, and each grant's service time is
//! inflated by a cache-line-bounce term that grows with the number of
//! waiters — and grows faster when the waiters span sockets:
//!
//! ```text
//! s(c) = l_lock·(1 + k_bounce·(c−1)·xs) + l_pin,   xs = x_socket if cross-socket
//! ```
//!
//! Each request therefore progresses at `1/(c·s(c))` pages/ns, which
//! makes the *effective* per-page time `c·s(c)` — super-linear in `c`.
//! The paper's γ factor is an emergent property of this mechanism; the
//! Fig 5 pipeline fits it from simulated measurements. All requests
//! share one rate, so the server runs on a single page clock (plus two
//! attribution clocks splitting wall time into lock and pin shares).
//!
//! ## Memory system (one per node)
//!
//! Copies are flows with per-flow ceiling `bw_core` (optionally derated
//! for inter-socket transfers) sharing an aggregate `bw_total`:
//! `rate_i = min(peak_i, bw_total / Σw)`. The rate is uniform among
//! flows with the same `peak`, so there is one byte clock per distinct
//! peak — two in the machine model (intra- and inter-socket copies).

use kacc_sim_core::heap::IndexedHeap;

/// Numerical slack for "flow is drained" checks (work units).
const EPS: f64 = 1e-6;

/// Drain times beyond this many ns past a fold are not refined to the
/// exact whole nanosecond: `u64 → f64` stops being exact at 2⁵³, and 52
/// days of virtual time is no simulation's horizon.
const EXACT_NS: f64 = (1u64 << 52) as f64;

/// Handle to a flow inside a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowId(usize);

/// Cumulative work delivered to each flow of one rate class.
#[derive(Debug, Clone, Copy, Default)]
struct Clock {
    /// Clock value at the server's last fold.
    at_fold: f64,
    /// Work per ns per flow under the current active set.
    rate: f64,
}

impl Clock {
    /// Clock value `dt` ns after the fold.
    fn read(&self, dt: u64) -> f64 {
        self.at_fold + dt as f64 * self.rate
    }

    /// Has a flow with finish tag `tag` drained `dt` ns after the fold?
    fn done(&self, tag: f64, dt: u64) -> bool {
        tag - self.read(dt) <= EPS
    }

    /// First whole ns after the fold at which [`Self::done`] holds — by
    /// the same arithmetic, so a timer set from it never finds the flow
    /// one rounding error short of drained.
    fn drains_after(&self, tag: f64) -> u64 {
        let guess = (tag - EPS - self.at_fold) / self.rate;
        if guess.is_nan() || guess >= EXACT_NS {
            return guess as u64;
        }
        // The division lands within a step of the answer; `done` decides.
        let mut dt = guess as u64;
        if self.done(tag, dt) {
            while dt > 0 && self.done(tag, dt - 1) {
                dt -= 1;
            }
        } else {
            dt += 1;
            while !self.done(tag, dt) {
                dt += 1;
            }
        }
        dt
    }
}

/// Slot table with a free list: O(1) insert and remove, ids reused.
#[derive(Debug)]
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Slab<T> {
    fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn insert(&mut self, v: T) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(v);
                i
            }
            None => {
                self.slots.push(Some(v));
                self.slots.len() - 1
            }
        }
    }

    fn remove(&mut self, i: usize) -> T {
        let v = self.slots[i].take().expect("live flow");
        self.free.push(i);
        v
    }

    fn get(&self, i: usize) -> &T {
        self.slots[i].as_ref().expect("live flow")
    }

    /// The live values, O(slots): for invariant checks.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

/// Heap key of a flow: its finish tag, ties broken by arrival order
/// `seq`. For finite tags ≥ 0 the IEEE bit pattern orders as the number
/// does; `+ 0.0` folds −0.0 into +0.0, whose bits would sort last.
fn tag_key(tag: f64, seq: u64) -> u128 {
    let tag = tag + 0.0;
    debug_assert!(
        tag.is_finite() && tag >= 0.0,
        "finish tag {tag} cannot be packed"
    );
    (u128::from(tag.to_bits()) << 64) | u128::from(seq)
}

/// The finish tag and arrival order [`tag_key`] packed.
fn tag_of(key: u128) -> (f64, u64) {
    (f64::from_bits((key >> 64) as u64), key as u64)
}

/// The flow that drains first under the current active set.
#[derive(Debug, Clone, Copy)]
struct Head {
    slot: usize,
    /// Absolute drain time, ns.
    at: u64,
}

/// A server's single outstanding completion: which flow drains next, and
/// whether its owner has been told.
#[derive(Debug, Default)]
struct Completion {
    head: Option<Head>,
    /// Slot of the flow whose owner holds the completion timer.
    armed: Option<usize>,
}

impl Completion {
    /// A newcomer that is the head holds the timer without being woken:
    /// its owner evaluates its wait before anyone else runs.
    fn admit(&mut self, slot: usize) {
        if self.head.is_some_and(|h| h.slot == slot) {
            self.armed = Some(slot);
        }
    }

    /// Give the head the timer; returns it if its owner must be woken —
    /// after a removal always (`sped_up`: its timer must move earlier),
    /// otherwise only if it did not hold the timer already.
    fn arm(&mut self, sped_up: bool) -> Option<Head> {
        let was = std::mem::replace(&mut self.armed, self.head.map(|h| h.slot));
        self.head.filter(|_| sped_up || was != self.armed)
    }

    /// Only the head parks with a timer, and whenever anyone parks the
    /// head must already hold it — otherwise a flow would drain with
    /// nobody scheduled to notice.
    fn park(&self, id: FlowId, now: u64) -> Option<u64> {
        debug_assert_eq!(
            self.armed,
            self.head.map(|h| h.slot),
            "a busy server's head flow must hold its completion timer"
        );
        let at = self.head.filter(|h| h.slot == id.0)?.at;
        debug_assert!(at > now, "a parking flow's timer must lie ahead");
        Some(at)
    }
}

/// A pinning request in the page-lock server.
#[derive(Debug)]
struct LockFlow {
    owner_tid: usize,
    /// Socket of the requesting rank, for the cross-socket test.
    socket: usize,
    /// Page-clock value at which the request is fully granted.
    tag: f64,
    /// Attribution clocks when the request arrived.
    lock0: f64,
    pin0: f64,
}

/// Per-process page-lock server.
#[derive(Debug)]
pub struct PageLockServer {
    l_lock_ns: f64,
    l_pin_ns: f64,
    k_bounce: f64,
    x_socket: f64,
    flows: Slab<LockFlow>,
    /// Live requests by slot, keyed by [`tag_key`].
    heap: IndexedHeap,
    seq: u64,
    /// Live requests per requester socket; the set spans sockets when
    /// more than one count is nonzero.
    per_socket: Vec<u32>,
    /// Pages granted to every live request since the server was idle.
    pages: Clock,
    /// Wall time every live request has spent acquiring the lock / pinning
    /// since the server was idle, ns (as of the last fold).
    lock_clock: f64,
    pin_clock: f64,
    /// Per-grant service time for the current active set.
    grant: f64,
    /// Time of the last fold, and the latest time seen by `update`.
    t_fold: u64,
    now: u64,
    next: Completion,
    /// Peak concurrency ever observed (observability).
    pub peak_concurrency: usize,
    /// Queue-depth histogram: one sample per arriving pinning request,
    /// recording the active-set size it joined (observability).
    pub depth: kacc_metrics::LocalHist,
    /// Rate recomputations performed (observability): each add/remove
    /// re-evaluates the shared grant time for the whole active set.
    pub recaches: u64,
}

impl PageLockServer {
    /// Create a server with the given mechanistic constants.
    pub fn new(l_lock_ns: f64, l_pin_ns: f64, k_bounce: f64, x_socket: f64) -> PageLockServer {
        PageLockServer {
            l_lock_ns,
            l_pin_ns,
            k_bounce,
            x_socket,
            flows: Slab::new(),
            heap: IndexedHeap::default(),
            seq: 0,
            per_socket: Vec::new(),
            pages: Clock::default(),
            lock_clock: 0.0,
            pin_clock: 0.0,
            grant: l_lock_ns + l_pin_ns,
            t_fold: 0,
            now: 0,
            next: Completion::default(),
            peak_concurrency: 0,
            depth: kacc_metrics::LocalHist::default(),
            recaches: 0,
        }
    }

    /// Number of currently active pinning flows — the queue depth the
    /// trace's lock-server counter track samples.
    pub fn concurrency(&self) -> usize {
        self.flows.live()
    }

    /// Does `tid` own a live request here? (Invariant checks only: O(c).)
    pub fn owns_flow(&self, tid: usize) -> bool {
        self.flows.iter().any(|f| f.owner_tid == tid)
    }

    /// Record the current time. Progress is read off the clocks on
    /// demand, so nothing is integrated here.
    pub fn update(&mut self, now: u64) {
        self.now = now;
    }

    /// Advance the clocks to `self.now` at the outgoing set's rates, or
    /// restart them if the server was idle.
    fn fold(&mut self) {
        let dt = self.now.saturating_sub(self.t_fold);
        self.t_fold = self.now;
        if self.flows.live() == 0 {
            self.pages.at_fold = 0.0;
            self.lock_clock = 0.0;
            self.pin_clock = 0.0;
        } else {
            // Each page a request is granted costs it one grant from each
            // of the c live requests: s − l_pin of it locking, l_pin pinning.
            let pages = dt as f64 * self.pages.rate;
            let per_page = self.flows.live() as f64 * pages;
            self.pages.at_fold += pages;
            self.lock_clock += per_page * (self.grant - self.l_pin_ns);
            self.pin_clock += per_page * self.l_pin_ns;
        }
    }

    /// Re-evaluate grant time, rate and head after a set mutation.
    fn recache(&mut self) {
        self.recaches += 1;
        let c = self.flows.live() as f64;
        let spans = self.per_socket.iter().filter(|&&n| n > 0).count() > 1;
        let xs = if spans { self.x_socket } else { 1.0 };
        self.grant =
            self.l_lock_ns * (1.0 + self.k_bounce * (c - 1.0).max(0.0) * xs) + self.l_pin_ns;
        self.next.head = None;
        if let Some((key, slot)) = self.heap.peek() {
            // Pages per ns, per flow. Work conservation: every request in
            // the heap gets this share, and together they take one grant
            // per grant time.
            self.pages.rate = 1.0 / (c * self.grant);
            debug_assert!(
                (self.heap.len() as f64 * self.pages.rate * self.grant - 1.0).abs() <= 1e-9,
                "lock server idle or over-committed while requests wait"
            );
            let tag = tag_of(key).0;
            let at = self.t_fold.saturating_add(self.pages.drains_after(tag));
            self.next.head = Some(Head { slot, at });
        }
    }

    /// Add a pinning request. Call `update(now)` first. Every request
    /// slows equally, so the head is the old head (still armed) or the
    /// newcomer, whose owner evaluates its wait before anyone else runs.
    pub fn add(&mut self, owner_tid: usize, socket: usize, pages: usize) -> FlowId {
        self.fold();
        let tag = self.pages.at_fold + pages as f64;
        let slot = self.flows.insert(LockFlow {
            owner_tid,
            socket,
            tag,
            lock0: self.lock_clock,
            pin0: self.pin_clock,
        });
        self.seq += 1;
        self.heap.push(slot, tag_key(tag, self.seq));
        if socket >= self.per_socket.len() {
            self.per_socket.resize(socket + 1, 0);
        }
        self.per_socket[socket] += 1;
        self.recache();
        self.next.admit(slot);
        let c = self.flows.live();
        self.peak_concurrency = self.peak_concurrency.max(c);
        self.depth.record(c as u64);
        FlowId(slot)
    }

    /// Is a flow drained? Call `update(now)` first.
    pub fn is_done(&self, id: FlowId) -> bool {
        let dt = self.now.saturating_sub(self.t_fold);
        self.pages.done(self.flows.get(id.0).tag, dt)
    }

    /// Completion time of a flow under the current set: the first whole
    /// ns at which [`Self::is_done`] holds, but not before `now`.
    pub fn eta(&self, id: FlowId, now: u64) -> u64 {
        let at = match self.next.head {
            Some(h) if h.slot == id.0 => h.at,
            _ => {
                let tag = self.flows.get(id.0).tag;
                self.t_fold.saturating_add(self.pages.drains_after(tag))
            }
        };
        at.max(now)
    }

    /// Timer for the owner of an undrained flow to park with: its
    /// completion time if the flow is the head, none otherwise (the
    /// removal that makes it the head wakes it).
    pub fn park(&self, id: FlowId, now: u64) -> Option<u64> {
        self.next.park(id, now)
    }

    /// Remove a flow (call `update(now)` first), passing the new head's
    /// `(owner_tid, completion time)` to `wake` — it just sped up, so its
    /// timer must move; returns the `(lock_ns, pin_ns)` attribution.
    pub fn remove_with(
        &mut self,
        id: FlowId,
        now: u64,
        wake: impl FnOnce(usize, u64),
    ) -> (f64, f64) {
        self.fold();
        let f = self.flows.remove(id.0);
        self.heap.remove(id.0);
        self.per_socket[f.socket] -= 1;
        self.recache();
        if let Some(h) = self.next.arm(true) {
            wake(self.flows.get(h.slot).owner_tid, h.at.max(now));
        }
        (self.lock_clock - f.lock0, self.pin_clock - f.pin0)
    }
}

/// Flows sharing one bandwidth ceiling, hence one rate and one clock.
#[derive(Debug)]
struct PeakClass {
    /// Per-flow bandwidth ceiling (bytes/ns), inter-socket-adjusted.
    peak: f64,
    /// Bytes delivered to every live flow of the class since it was idle.
    bytes: Clock,
    /// The class's live flows by slot, keyed by [`tag_key`].
    heap: IndexedHeap,
}

/// A copy flow in the memory system.
#[derive(Debug)]
struct MemFlow {
    owner_tid: usize,
    /// Index into `MemSys::classes`.
    class: usize,
    /// Byte-clock value at which the copy completes.
    tag: f64,
    /// Index into `MemSys::weights`.
    weight: usize,
}

/// Node-wide shared memory system.
#[derive(Debug)]
pub struct MemSys {
    bw_total: f64,
    flows: Slab<MemFlow>,
    /// One entry per distinct `peak` ever added (two in the machine
    /// model: intra- and inter-socket copies).
    classes: Vec<PeakClass>,
    /// Live flows per distinct capacity weight (≥ 1: cross-socket flows
    /// burn DRAM *and* interconnect bandwidth, so they weigh more); two
    /// entries in the machine model. Σ weight·count is exact in any
    /// arrival order.
    weights: Vec<(f64, u32)>,
    seq: u64,
    /// Time of the last fold, and the latest time seen by `update`.
    t_fold: u64,
    now: u64,
    next: Completion,
    /// Peak concurrent flows (observability).
    pub peak_concurrency: usize,
    /// Rate recomputations performed (observability): each add/remove
    /// re-evaluates the shared bandwidth split for the active set.
    pub recaches: u64,
}

impl MemSys {
    /// Create a memory system with aggregate bandwidth `bw_total`
    /// bytes/ns.
    pub fn new(bw_total: f64) -> MemSys {
        MemSys {
            bw_total,
            flows: Slab::new(),
            classes: Vec::new(),
            weights: Vec::new(),
            seq: 0,
            t_fold: 0,
            now: 0,
            next: Completion::default(),
            peak_concurrency: 0,
            recaches: 0,
        }
    }

    /// Does `tid` own a live flow here? (Invariant checks only: O(c).)
    pub fn owns_flow(&self, tid: usize) -> bool {
        self.flows.iter().any(|f| f.owner_tid == tid)
    }

    /// Record the current time. Progress is read off the clocks on
    /// demand, so nothing is integrated here.
    pub fn update(&mut self, now: u64) {
        self.now = now;
    }

    /// Advance every busy class's clock to `self.now` at the outgoing
    /// set's rates; restart the clocks of idle classes.
    fn fold(&mut self) {
        let dt = self.now.saturating_sub(self.t_fold);
        self.t_fold = self.now;
        for k in &mut self.classes {
            k.bytes.at_fold = if k.heap.is_empty() {
                0.0
            } else {
                k.bytes.read(dt)
            };
        }
    }

    /// Re-evaluate the bandwidth split and the head after a set mutation.
    fn recache(&mut self) {
        self.recaches += 1;
        self.next.head = None;
        if self.flows.live() == 0 {
            return;
        }
        // Equal-rate weighted processor sharing: Σ wᵢ·rᵢ ≤ bw_total.
        let w: f64 = self.weights.iter().map(|&(w, n)| w * n as f64).sum();
        let share = self.bw_total / w.max(1.0);
        let mut head_seq = 0;
        for k in &mut self.classes {
            let Some((key, slot)) = k.heap.peek() else {
                continue;
            };
            let (tag, seq) = tag_of(key);
            k.bytes.rate = k.peak.min(share);
            let at = self.t_fold.saturating_add(k.bytes.drains_after(tag));
            if self.next.head.is_none_or(|h| (at, seq) < (h.at, head_seq)) {
                self.next.head = Some(Head { slot, at });
                head_seq = seq;
            }
        }
        debug_assert!(
            self.conserves_work(share),
            "memory system over- or under-committed"
        );
    }

    /// Work conservation of the equal-rate split: Σ wᵢ·rᵢ ≤ `bw_total`
    /// over the live flows, with equality unless a class is held below
    /// the share by its peak.
    fn conserves_work(&self, share: f64) -> bool {
        let rate = |f: &MemFlow| self.weights[f.weight].0 * self.classes[f.class].bytes.rate;
        let used: f64 = self.flows.iter().map(rate).sum();
        let capped = self
            .classes
            .iter()
            .any(|k| !k.heap.is_empty() && k.peak < share);
        let tol = 1e-9 * self.bw_total;
        used <= self.bw_total + tol && (capped || used >= self.bw_total - tol)
    }

    /// Add a copy flow of unit weight. Call `update(now)` first.
    pub fn add(&mut self, owner_tid: usize, bytes: usize, peak: f64) -> FlowId {
        self.add_weighted(owner_tid, bytes, peak, 1.0)
    }

    /// Add a copy flow with an explicit capacity weight. Call
    /// `update(now)` first and [`Self::arm_head`] after.
    pub fn add_weighted(
        &mut self,
        owner_tid: usize,
        bytes: usize,
        peak: f64,
        weight: f64,
    ) -> FlowId {
        assert!(weight >= 1.0, "weights below 1 would create capacity");
        self.fold();
        let class = match self.classes.iter().position(|k| k.peak == peak) {
            Some(k) => k,
            None => {
                self.classes.push(PeakClass {
                    peak,
                    bytes: Clock::default(),
                    heap: IndexedHeap::default(),
                });
                self.classes.len() - 1
            }
        };
        let weight = match self.weights.iter().position(|&(w, _)| w == weight) {
            Some(i) => i,
            None => {
                self.weights.push((weight, 0));
                self.weights.len() - 1
            }
        };
        self.weights[weight].1 += 1;
        let tag = self.classes[class].bytes.at_fold + bytes as f64;
        let slot = self.flows.insert(MemFlow {
            owner_tid,
            class,
            tag,
            weight,
        });
        self.seq += 1;
        self.classes[class].heap.push(slot, tag_key(tag, self.seq));
        self.recache();
        self.next.admit(slot);
        self.peak_concurrency = self.peak_concurrency.max(self.flows.live());
        FlowId(slot)
    }

    /// Hand the completion timer to the head's owner if it does not hold
    /// it: an add slows only the share-limited classes, so a peak-limited
    /// flow parked without a timer can overtake the armed head. At most
    /// one `wake(owner_tid, completion time)`.
    pub fn arm_head(&mut self, now: u64, wake: impl FnOnce(usize, u64)) {
        if let Some(h) = self.next.arm(false) {
            wake(self.flows.get(h.slot).owner_tid, h.at.max(now));
        }
    }

    /// Is a flow drained? Call `update(now)` first.
    pub fn is_done(&self, id: FlowId) -> bool {
        let f = self.flows.get(id.0);
        let dt = self.now.saturating_sub(self.t_fold);
        self.classes[f.class].bytes.done(f.tag, dt)
    }

    /// Completion time of a flow under the current set: the first whole
    /// ns at which [`Self::is_done`] holds, but not before `now`.
    pub fn eta(&self, id: FlowId, now: u64) -> u64 {
        let at = match self.next.head {
            Some(h) if h.slot == id.0 => h.at,
            _ => {
                let f = self.flows.get(id.0);
                let dt = self.classes[f.class].bytes.drains_after(f.tag);
                self.t_fold.saturating_add(dt)
            }
        };
        at.max(now)
    }

    /// Timer for the owner of an undrained flow to park with: its
    /// completion time if the flow is the head, none otherwise (the
    /// add or removal that makes it the head wakes it).
    pub fn park(&self, id: FlowId, now: u64) -> Option<u64> {
        self.next.park(id, now)
    }

    /// Remove a flow (call `update(now)` first), passing the new head's
    /// `(owner_tid, completion time)` to `wake` — the survivors just sped
    /// up, so its timer must move.
    pub fn remove_with(&mut self, id: FlowId, now: u64, wake: impl FnOnce(usize, u64)) {
        self.fold();
        let f = self.flows.remove(id.0);
        self.classes[f.class].heap.remove(id.0);
        self.weights[f.weight].1 -= 1;
        self.recache();
        if let Some(h) = self.next.arm(true) {
            wake(self.flows.get(h.slot).owner_tid, h.at.max(now));
        }
    }
}

#[cfg(test)]
mod props;
#[cfg(test)]
mod reference;

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    // Vec-returning removal, as the unit tests below were written against.
    impl PageLockServer {
        fn remove(&mut self, id: FlowId, now: u64) -> ((f64, f64), Vec<(usize, u64)>) {
            let mut wakes = Vec::new();
            let attribution = self.remove_with(id, now, |t, at| wakes.push((t, at)));
            (attribution, wakes)
        }
    }

    impl MemSys {
        fn remove(&mut self, id: FlowId, now: u64) -> Vec<(usize, u64)> {
            let mut wakes = Vec::new();
            self.remove_with(id, now, |t, at| wakes.push((t, at)));
            wakes
        }
    }

    #[test]
    fn single_lock_flow_takes_l_per_page() {
        let mut srv = PageLockServer::new(150.0, 100.0, 0.2, 1.0);
        srv.update(0);
        let id = srv.add(0, 0, 10);
        // 10 pages at 250ns each = 2500ns.
        assert_eq!(srv.eta(id, 0), 2500);
        srv.update(2500);
        assert!(srv.is_done(id));
        let ((lock, pin), wakes) = srv.remove(id, 2500);
        assert!(wakes.is_empty());
        assert!((lock - 1500.0).abs() < 1.0);
        assert!((pin - 1000.0).abs() < 1.0);
    }

    #[test]
    fn two_symmetric_flows_halve_rate_and_bounce() {
        let mut srv = PageLockServer::new(100.0, 0.0, 0.5, 1.0);
        srv.update(0);
        let a = srv.add(0, 0, 10);
        let b = srv.add(1, 0, 10);
        // c=2: s = 100·(1+0.5·1) = 150; per-flow rate = 1/300 pages/ns;
        // 10 pages → 3000ns each.
        assert_eq!(srv.eta(a, 0), 3000);
        assert_eq!(srv.eta(b, 0), 3000);
        srv.update(3000);
        assert!(srv.is_done(a) && srv.is_done(b));
    }

    #[test]
    fn cross_socket_flows_contend_harder() {
        let mut same = PageLockServer::new(100.0, 0.0, 0.5, 4.0);
        same.update(0);
        let s1 = same.add(0, 0, 10);
        let _s2 = same.add(1, 0, 10);
        let eta_same = same.eta(s1, 0);

        let mut cross = PageLockServer::new(100.0, 0.0, 0.5, 4.0);
        cross.update(0);
        let c1 = cross.add(0, 0, 10);
        let _c2 = cross.add(1, 1, 10);
        let eta_cross = cross.eta(c1, 0);
        assert!(eta_cross > eta_same, "{eta_cross} vs {eta_same}");
    }

    #[test]
    fn emergent_gamma_is_superlinear() {
        // Effective per-page time with c readers ≈ c·s(c): measure via
        // completion time of 100-page requests and form the γ ratio.
        let total_time = |c: usize| {
            let mut srv = PageLockServer::new(150.0, 100.0, 0.17, 1.0);
            srv.update(0);
            let ids: Vec<FlowId> = (0..c).map(|i| srv.add(i, 0, 100)).collect();
            let t = srv.eta(ids[0], 0);
            srv.update(t);
            assert!(ids.iter().all(|&id| srv.is_done(id)));
            t as f64
        };
        let t1 = total_time(1);
        let gamma = |c: usize| {
            // Remove the pin-only floor? γ is defined on the whole l.
            total_time(c) / t1
        };
        let g2 = gamma(2);
        let g8 = gamma(8);
        let g32 = gamma(32);
        assert!(g2 > 2.0, "even 2 readers more than halve throughput: {g2}");
        assert!(g8 > 4.0 * g2 * 0.8, "superlinear growth: g8={g8}");
        assert!(g32 > 2.5 * g8, "superlinear growth: g32={g32} g8={g8}");
    }

    #[test]
    fn late_joiner_slows_existing_flow() {
        let mut srv = PageLockServer::new(100.0, 0.0, 0.0, 1.0);
        srv.update(0);
        let a = srv.add(0, 0, 10); // alone: 1000ns
        srv.update(500); // half done
        let _b = srv.add(1, 0, 10);
        // Remaining 5 pages now at c=2 → 2·100ns per page → 1000 more ns.
        assert_eq!(srv.eta(a, 500), 1500);
    }

    #[test]
    fn memsys_processor_shares() {
        let mut m = MemSys::new(10.0);
        m.update(0);
        // Two flows with high peaks share 5 B/ns each.
        let a = m.add(0, 1000, 100.0);
        let b = m.add(1, 1000, 100.0);
        assert_eq!(m.eta(a, 0), 200);
        assert_eq!(m.eta(b, 0), 200);
        m.update(200);
        assert!(m.is_done(a) && m.is_done(b));
    }

    #[test]
    fn memsys_respects_per_flow_peak() {
        let mut m = MemSys::new(100.0);
        m.update(0);
        let a = m.add(0, 1000, 2.0); // peak-limited: 500ns
        assert_eq!(m.eta(a, 0), 500);
    }

    #[test]
    fn memsys_removal_speeds_survivors() {
        let mut m = MemSys::new(10.0);
        m.update(0);
        let a = m.add(0, 1000, 100.0);
        let b = m.add(1, 2000, 100.0);
        m.update(200); // a done (1000 bytes at 5 B/ns)
        assert!(m.is_done(a));
        assert!(!m.is_done(b));
        let wakes = m.remove(a, 200);
        // b has 1000 bytes left, now at full 10 B/ns → eta 300.
        assert_eq!(wakes, vec![(1, 300)]);
    }

    #[test]
    fn weighted_flows_consume_more_capacity() {
        // One unit flow and one weight-3 flow: Σw = 4, so each runs at
        // bw/4 — the heavy flow delivers the same rate but burns 3
        // shares (cross-socket DRAM + interconnect).
        let mut m = MemSys::new(8.0);
        m.update(0);
        let light = m.add(0, 1000, 100.0);
        let heavy = m.add_weighted(1, 1000, 100.0, 3.0);
        assert_eq!(m.eta(light, 0), 500); // 2 B/ns each
        assert_eq!(m.eta(heavy, 0), 500);
        m.update(500);
        assert!(m.is_done(light) && m.is_done(heavy));
    }

    #[test]
    #[should_panic(expected = "weights below 1")]
    fn sub_unit_weights_are_rejected() {
        let mut m = MemSys::new(8.0);
        m.update(0);
        let _ = m.add_weighted(0, 10, 1.0, 0.5);
    }

    #[test]
    fn flow_slots_are_reused() {
        let mut m = MemSys::new(10.0);
        m.update(0);
        let a = m.add(0, 10, 100.0);
        m.update(1);
        assert!(m.is_done(a));
        m.remove(a, 1);
        let b = m.add(1, 10, 100.0);
        assert_eq!(a.0, b.0, "slot reused");
    }

    /// X (share-limited) heads the queue, Y (peak-limited) trails it; a
    /// third flow slows X alone, so Y overtakes without ever having held
    /// a timer.
    fn overtaken_head() -> (MemSys, [FlowId; 3]) {
        let mut m = MemSys::new(10.0);
        m.update(0);
        let x = m.add(0, 1000, 100.0); // 10 B/ns → 100
        m.arm_head(0, |_, _| unreachable!("the newcomer is the head"));
        let y = m.add(1, 500, 2.0); // X at 5 B/ns → 200, Y at 2 B/ns → 250
        m.arm_head(0, |_, _| unreachable!("X is still the head"));
        let z = m.add(2, 5000, 100.0); // X at 10/3 B/ns → 300, Y still 250
        (m, [x, y, z])
    }

    #[test]
    fn add_hands_the_timer_to_an_overtaking_flow() {
        let (mut m, [x, y, z]) = overtaken_head();
        let mut woken = Vec::new();
        m.arm_head(0, |t, at| woken.push((t, at)));
        assert_eq!(woken, vec![(1, 250)]);
        m.arm_head(0, |_, _| unreachable!("armed once"));
        // Only the head parks with a timer.
        assert_eq!(m.park(y, 0), Some(250));
        assert_eq!(m.park(x, 0), None);
        assert_eq!(m.park(z, 0), None);
        // Y drains; the removal re-arms X, the next to drain.
        m.update(250);
        assert!(m.is_done(y) && !m.is_done(x));
        assert_eq!(m.remove(y, 250), vec![(0, 284)]); // 166.7 B left at 5 B/ns
        assert_eq!(m.park(x, 250), Some(284));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must hold its completion timer")]
    fn parking_behind_an_unarmed_head_is_caught() {
        let (m, [.., z]) = overtaken_head();
        // `arm_head` skipped: Y would drain with nobody scheduled to notice.
        m.park(z, 0);
    }

    #[test]
    fn negative_zero_tags_pack_like_zero() {
        assert_eq!(tag_key(-0.0, 7), tag_key(0.0, 7));
        assert!(tag_key(-0.0, 7) < tag_key(0.0, 8));
        assert!(tag_key(-0.0, 9) < tag_key(f64::MIN_POSITIVE, 0));
        assert_eq!(tag_of(tag_key(-0.0, 7)), (0.0, 7));
    }

    #[test]
    fn equal_tags_drain_in_arrival_order_not_slot_order() {
        // b and c finish at the same tag; c arrives later into a's freed,
        // lower slot, yet b stays the head.
        let mut srv = PageLockServer::new(100.0, 0.0, 0.0, 1.0);
        srv.update(0);
        let a = srv.add(0, 0, 5);
        let b = srv.add(1, 0, 10);
        let _ = srv.remove(a, 0);
        let c = srv.add(2, 0, 10);
        assert_eq!(c.0, a.0, "slot reused");
        assert_eq!((srv.park(b, 0), srv.park(c, 0)), (Some(2000), None));
        srv.update(2000);
        assert_eq!(srv.remove(b, 2000).1, vec![(2, 2000)]);

        let mut m = MemSys::new(10.0);
        m.update(0);
        let a = m.add(0, 50, 100.0);
        let b = m.add(1, 100, 100.0);
        m.remove(a, 0);
        let c = m.add(2, 100, 100.0);
        m.arm_head(0, |_, _| unreachable!("b is still the head"));
        assert_eq!(c.0, a.0, "slot reused");
        assert_eq!((m.park(b, 0), m.park(c, 0)), (Some(20), None));
        m.update(20);
        assert_eq!(m.remove(b, 20), vec![(2, 20)]);
    }

    #[test]
    fn equal_tags_leave_in_any_order() {
        let mut srv = PageLockServer::new(100.0, 0.0, 0.0, 1.0);
        srv.update(0);
        let ids: Vec<FlowId> = (0..5).map(|i| srv.add(i, 0, 10)).collect();
        srv.update(5000);
        // The head is the first arrival, but any drained flow may go first.
        for (&id, next_head) in [ids[3], ids[0], ids[4], ids[1]].iter().zip([0, 1, 1, 2]) {
            assert!(srv.is_done(id));
            let (_, wakes) = srv.remove(id, 5000);
            assert_eq!(wakes, vec![(next_head, 5000)]);
        }
        assert!(srv.remove(ids[2], 5000).1.is_empty());
        assert_eq!(srv.concurrency(), 0);
    }
}
