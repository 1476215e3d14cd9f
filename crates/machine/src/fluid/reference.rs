//! The per-flow O(c) integration the service-clock servers replaced,
//! kept verbatim in its arithmetic as the oracle of the differential
//! tests in [`super::props`]: every `update` subtracts `dt·rate` from
//! every live flow, `eta` divides the remainder by the current rate.
//!
//! Both models conserve work, and the servers assert it after every
//! rate recomputation in debug builds: the lock serves one grant per
//! grant time while any request waits (`c · rate · grant = 1`), and
//! the memory system's flows use `Σ wᵢ·rᵢ ≤ bw_total`, with equality
//! unless some flow is held below the share by its peak.

use super::EPS;

struct RefLockFlow {
    socket: usize,
    remaining_pages: f64,
}

pub struct RefLock {
    l_lock_ns: f64,
    l_pin_ns: f64,
    k_bounce: f64,
    x_socket: f64,
    flows: Vec<Option<RefLockFlow>>,
    last_update: u64,
}

impl RefLock {
    pub fn new(l_lock_ns: f64, l_pin_ns: f64, k_bounce: f64, x_socket: f64) -> RefLock {
        RefLock {
            l_lock_ns,
            l_pin_ns,
            k_bounce,
            x_socket,
            flows: Vec::new(),
            last_update: 0,
        }
    }

    fn active(&self) -> usize {
        self.flows.iter().flatten().count()
    }

    fn grant_ns(&self) -> f64 {
        let c = self.active() as f64;
        let mut sockets = self.flows.iter().flatten().map(|f| f.socket);
        let first = sockets.next();
        let spans = first.is_some_and(|f| sockets.any(|s| s != f));
        let xs = if spans { self.x_socket } else { 1.0 };
        self.l_lock_ns * (1.0 + self.k_bounce * (c - 1.0).max(0.0) * xs) + self.l_pin_ns
    }

    fn rate(&self) -> f64 {
        1.0 / (self.active() as f64 * self.grant_ns())
    }

    pub fn update(&mut self, now: u64) {
        let dt = now.saturating_sub(self.last_update) as f64;
        self.last_update = now;
        if dt == 0.0 || self.active() == 0 {
            return;
        }
        let rate = self.rate();
        for f in self.flows.iter_mut().flatten() {
            f.remaining_pages -= dt * rate;
        }
    }

    pub fn add(&mut self, socket: usize, pages: usize) -> usize {
        self.flows.push(Some(RefLockFlow {
            socket,
            remaining_pages: pages as f64,
        }));
        self.flows.len() - 1
    }

    pub fn is_done(&self, id: usize) -> bool {
        self.flows[id].as_ref().expect("live flow").remaining_pages <= EPS
    }

    pub fn eta(&self, id: usize, now: u64) -> u64 {
        let f = self.flows[id].as_ref().expect("live flow");
        now + (f.remaining_pages.max(0.0) / self.rate()).ceil() as u64
    }

    pub fn remove(&mut self, id: usize) {
        self.flows[id].take().expect("live flow");
    }
}

struct RefMemFlow {
    remaining_bytes: f64,
    peak: f64,
    weight: f64,
}

pub struct RefMem {
    bw_total: f64,
    flows: Vec<Option<RefMemFlow>>,
    last_update: u64,
}

impl RefMem {
    pub fn new(bw_total: f64) -> RefMem {
        RefMem {
            bw_total,
            flows: Vec::new(),
            last_update: 0,
        }
    }

    fn share(&self) -> f64 {
        let w: f64 = self.flows.iter().flatten().map(|f| f.weight).sum();
        self.bw_total / w.max(1.0)
    }

    pub fn update(&mut self, now: u64) {
        let dt = now.saturating_sub(self.last_update) as f64;
        self.last_update = now;
        let share = self.share();
        for f in self.flows.iter_mut().flatten() {
            f.remaining_bytes -= dt * f.peak.min(share);
        }
    }

    pub fn add(&mut self, bytes: usize, peak: f64, weight: f64) -> usize {
        self.flows.push(Some(RefMemFlow {
            remaining_bytes: bytes as f64,
            peak,
            weight,
        }));
        self.flows.len() - 1
    }

    pub fn is_done(&self, id: usize) -> bool {
        self.flows[id].as_ref().expect("live flow").remaining_bytes <= EPS
    }

    pub fn eta(&self, id: usize, now: u64) -> u64 {
        let f = self.flows[id].as_ref().expect("live flow");
        let rate = f.peak.min(self.share());
        now + (f.remaining_bytes.max(0.0) / rate).ceil() as u64
    }

    pub fn remove(&mut self, id: usize) {
        self.flows[id].take().expect("live flow");
    }
}
