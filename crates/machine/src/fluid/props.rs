//! Property tests of the service-clock servers: agreement with the
//! per-flow integration they replaced, and independence of completion
//! times from how often the servers are polled in between.

use super::reference::{RefLock, RefMem};
use super::{FlowId, MemSys, PageLockServer};
use proptest::prelude::*;

/// Two peak classes around the fair share (8 B/ns at Σw = 2), so adds
/// and removals flip which class is share-limited.
const BW_TOTAL: f64 = 16.0;
const PEAKS: [f64; 2] = [3.0, 12.0];
/// Capacity weight of a cross-socket copy on Broadwell (bw_total/bw_qpi).
const QPI: f64 = 2.5;

/// One arriving flow: size, which peak class / socket, unit or qpi weight.
type Spec = (usize, bool, bool);

/// The surface both generations of both servers share.
trait Model {
    type Id: Copy;
    fn update(&mut self, now: u64);
    fn add(&mut self, owner: usize, spec: Spec) -> Self::Id;
    fn is_done(&self, id: Self::Id) -> bool;
    fn eta(&self, id: Self::Id, now: u64) -> u64;
    /// Returns the attribution (zeros where the model has none).
    fn remove(&mut self, id: Self::Id, now: u64) -> (f64, f64);
}

impl Model for PageLockServer {
    type Id = FlowId;
    fn update(&mut self, now: u64) {
        self.update(now)
    }
    fn add(&mut self, owner: usize, (pages, socket, _): Spec) -> FlowId {
        self.add(owner, socket as usize, 1 + pages % 64)
    }
    fn is_done(&self, id: FlowId) -> bool {
        self.is_done(id)
    }
    fn eta(&self, id: FlowId, now: u64) -> u64 {
        self.eta(id, now)
    }
    fn remove(&mut self, id: FlowId, now: u64) -> (f64, f64) {
        self.remove_with(id, now, |_, _| {})
    }
}

impl Model for RefLock {
    type Id = usize;
    fn update(&mut self, now: u64) {
        self.update(now)
    }
    fn add(&mut self, _owner: usize, (pages, socket, _): Spec) -> usize {
        self.add(socket as usize, 1 + pages % 64)
    }
    fn is_done(&self, id: usize) -> bool {
        self.is_done(id)
    }
    fn eta(&self, id: usize, now: u64) -> u64 {
        self.eta(id, now)
    }
    fn remove(&mut self, id: usize, _now: u64) -> (f64, f64) {
        self.remove(id);
        (0.0, 0.0)
    }
}

impl Model for MemSys {
    type Id = FlowId;
    fn update(&mut self, now: u64) {
        self.update(now)
    }
    fn add(&mut self, owner: usize, (bytes, hi, heavy): Spec) -> FlowId {
        let weight = if heavy { QPI } else { 1.0 };
        let id = self.add_weighted(owner, bytes, PEAKS[hi as usize], weight);
        self.arm_head(0, |_, _| {});
        id
    }
    fn is_done(&self, id: FlowId) -> bool {
        self.is_done(id)
    }
    fn eta(&self, id: FlowId, now: u64) -> u64 {
        self.eta(id, now)
    }
    fn remove(&mut self, id: FlowId, now: u64) -> (f64, f64) {
        self.remove_with(id, now, |_, _| {});
        (0.0, 0.0)
    }
}

impl Model for RefMem {
    type Id = usize;
    fn update(&mut self, now: u64) {
        self.update(now)
    }
    fn add(&mut self, _owner: usize, (bytes, hi, heavy): Spec) -> usize {
        self.add(bytes, PEAKS[hi as usize], if heavy { QPI } else { 1.0 })
    }
    fn is_done(&self, id: usize) -> bool {
        self.is_done(id)
    }
    fn eta(&self, id: usize, now: u64) -> u64 {
        self.eta(id, now)
    }
    fn remove(&mut self, id: usize, _now: u64) -> (f64, f64) {
        self.remove(id);
        (0.0, 0.0)
    }
}

fn lock() -> PageLockServer {
    PageLockServer::new(150.0, 100.0, 0.17, 1.7)
}

fn ref_lock() -> RefLock {
    RefLock::new(150.0, 100.0, 0.17, 1.7)
}

#[derive(Debug, Clone)]
enum Op {
    Add(Spec),
    Advance(u64),
    /// Jump to the completion time of the k-th live flow.
    ToEta(usize),
    /// Remove the k-th live flow, drained or not.
    Cancel(usize),
}

fn spec() -> impl Strategy<Value = Spec> {
    (1usize..1 << 20, any::<bool>(), any::<bool>())
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        spec().prop_map(Op::Add),
        spec().prop_map(Op::Add),
        (0u64..50_000).prop_map(Op::Advance),
        (0usize..64).prop_map(Op::ToEta),
        (0usize..64).prop_map(Op::ToEta),
        (0usize..64).prop_map(Op::Cancel),
    ];
    proptest::collection::vec(op, 1..120)
}

/// Drive both models through `ops`, removing every flow as soon as it is
/// drained: at every step they agree on which flows are drained and, to
/// the nanosecond the old `ceil` could be late by, on when the rest will be.
fn differential<N: Model, R: Model>(mut new: N, mut old: R, ops: &[Op]) -> TestCaseResult {
    let mut now = 0u64;
    let mut live: Vec<(N::Id, R::Id)> = Vec::new();
    for (owner, op) in ops.iter().enumerate() {
        new.update(now);
        old.update(now);
        match *op {
            Op::Add(spec) => live.push((new.add(owner, spec), old.add(owner, spec))),
            Op::Advance(dt) => now += dt,
            Op::ToEta(k) if !live.is_empty() => now = new.eta(live[k % live.len()].0, now),
            Op::Cancel(k) if !live.is_empty() => {
                let (a, b) = live.swap_remove(k % live.len());
                new.remove(a, now);
                old.remove(b, now);
            }
            Op::ToEta(_) | Op::Cancel(_) => {}
        }
        new.update(now);
        old.update(now);
        let mut i = 0;
        while i < live.len() {
            let (a, b) = live[i];
            prop_assert_eq!(new.is_done(a), old.is_done(b), "is_done at t={}", now);
            let (ea, eb) = (new.eta(a, now), old.eta(b, now));
            prop_assert!(ea.abs_diff(eb) <= 1, "eta {} vs {} at t={}", ea, eb, now);
            if new.is_done(a) {
                new.remove(a, now);
                old.remove(b, now);
                live.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
    Ok(())
}

/// Run arrivals (`gap` ns after the previous one) to quiescence, removing
/// flows when they drain; returns `(owner, completion time, attribution
/// bits)` in completion order. With `noise`, the server is additionally
/// polled (`update` + `is_done` + `eta` of every live flow) at extra
/// times between the real events.
fn completions<M: Model>(
    mut srv: M,
    arrivals: &[(u64, Spec)],
    noise: Option<&[u64]>,
) -> Vec<(usize, u64, u64, u64)> {
    let mut out = Vec::new();
    let mut live: Vec<(usize, M::Id)> = Vec::new();
    let mut now = 0u64;
    let mut next_arrival = 0usize;
    let mut arrives_at = arrivals.first().map(|a| a.0);
    let mut noise = noise.into_iter().flatten().cycle();
    loop {
        srv.update(now);
        let drains_at = live.iter().map(|&(_, id)| srv.eta(id, now)).min();
        let Some(next) = [arrives_at, drains_at].into_iter().flatten().min() else {
            return out;
        };
        if next > now {
            for _ in 0..3 {
                let Some(&n) = noise.next() else { break };
                let t = now + n % (next - now);
                srv.update(t);
                for &(_, id) in &live {
                    std::hint::black_box((srv.is_done(id), srv.eta(id, t)));
                }
            }
        }
        now = next;
        srv.update(now);
        if arrives_at == Some(now) {
            live.push((
                next_arrival,
                srv.add(next_arrival, arrivals[next_arrival].1),
            ));
            next_arrival += 1;
            arrives_at = arrivals.get(next_arrival).map(|a| now + a.0);
        }
        let mut i = 0;
        while i < live.len() {
            let (owner, id) = live[i];
            if srv.is_done(id) {
                let (lock, pin) = srv.remove(id, now);
                out.push((owner, now, lock.to_bits(), pin.to_bits()));
                live.remove(i);
            } else {
                i += 1;
            }
        }
    }
}

proptest! {
    #[test]
    fn lock_server_matches_per_flow_integration(ops in ops()) {
        differential(lock(), ref_lock(), &ops)?;
    }

    #[test]
    fn memsys_matches_per_flow_integration(ops in ops()) {
        differential(MemSys::new(BW_TOTAL), RefMem::new(BW_TOTAL), &ops)?;
    }

    #[test]
    fn completion_times_ignore_polling_pattern(
        arrivals in proptest::collection::vec((0u64..30_000, spec()), 1..40),
        noise in proptest::collection::vec(0u64..1 << 40, 1..16),
    ) {
        prop_assert_eq!(
            completions(lock(), &arrivals, None),
            completions(lock(), &arrivals, Some(&noise))
        );
        prop_assert_eq!(
            completions(MemSys::new(BW_TOTAL), &arrivals, None),
            completions(MemSys::new(BW_TOTAL), &arrivals, Some(&noise))
        );
    }
}

/// Why the last property needed the rewrite. 28 symmetric 65 088 B copies
/// on Broadwell (9 B/ns shared, 3.1 B/ns per core) take exactly
/// 65 088·28/9 = 202 496 ns. Polled on the way — as every premature
/// dispatch does — the per-flow integration carries its rounding error
/// into `ceil` and ends a nanosecond late; the clock reads the same
/// whenever and however often it is asked.
#[test]
fn polling_moves_the_integration_but_not_the_clock() {
    let eta_after_polls = |polls: u64| {
        let mut old = RefMem::new(9.0);
        let mut new = MemSys::new(9.0);
        let mut ids = (0, FlowId(0));
        for owner in 0..28 {
            ids = (old.add(65_088, 3.1, 1.0), new.add(owner, 65_088, 3.1));
        }
        for t in (1..=polls).map(|i| 100 * i) {
            old.update(t);
            new.update(t);
        }
        (old.eta(ids.0, 100 * polls), new.eta(ids.1, 100 * polls))
    };
    assert_eq!(eta_after_polls(0), (202_496, 202_496));
    assert_eq!(eta_after_polls(5), (202_497, 202_496));
    assert!((0..200).all(|n| eta_after_polls(n).1 == 202_496));
}
