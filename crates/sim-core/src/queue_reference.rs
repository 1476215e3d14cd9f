//! The event queue this crate shipped before its nodes carried their own
//! keys: a binary heap of tids ordered through a per-thread key table.
//! Kept verbatim as the oracle for [`EventQueue`]: `(time, seq)` is a
//! total order, so both must pop the same sequence and count the same
//! inserts, coalesce drops, pops and high-water mark for any input.

use crate::{EventQueue, SimTime};
use proptest::prelude::*;

/// Index-aware min-queue over thread wakes, ordered by `(time, seq)`;
/// same coalesce / decrease-key / replace rules as [`EventQueue`].
struct RefQueue {
    /// Heap of tids ordered by `key`.
    heap: Vec<usize>,
    /// `pos[tid]` = heap index + 1, or 0 when the thread has no entry.
    pos: Vec<usize>,
    /// `key[tid]` = (time, seq, epoch); valid while `pos[tid] != 0`.
    key: Vec<(SimTime, u64, u64)>,
    /// Insert calls (metrics).
    inserts: u64,
    /// Inserts dropped by same-epoch later-time coalescing (metrics).
    coalesce_drops: u64,
    /// Pop calls that returned an event (metrics).
    pops: u64,
    /// Peak heap length (metrics).
    len_hwm: usize,
}

impl RefQueue {
    fn new(nthreads: usize) -> RefQueue {
        RefQueue {
            heap: Vec::with_capacity(nthreads),
            pos: vec![0; nthreads],
            key: vec![(0, 0, 0); nthreads],
            inserts: 0,
            coalesce_drops: 0,
            pops: 0,
            len_hwm: 0,
        }
    }

    fn less(&self, a: usize, b: usize) -> bool {
        let (ta, sa, _) = self.key[a];
        let (tb, sb, _) = self.key[b];
        (ta, sa) < (tb, sb)
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a]] = a + 1;
        self.pos[self.heap[b]] = b + 1;
    }

    /// Returns true when the entry moved.
    fn sift_up(&mut self, mut i: usize) -> bool {
        let mut moved = false;
        while i > 0 {
            let p = (i - 1) / 2;
            if self.less(self.heap[i], self.heap[p]) {
                self.swap(i, p);
                i = p;
                moved = true;
            } else {
                break;
            }
        }
        moved
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut m = i;
            if l < self.heap.len() && self.less(self.heap[l], self.heap[m]) {
                m = l;
            }
            if r < self.heap.len() && self.less(self.heap[r], self.heap[m]) {
                m = r;
            }
            if m == i {
                return;
            }
            self.swap(i, m);
            i = m;
        }
    }

    /// Insert or update thread `tid`'s wake. See the type docs for the
    /// coalesce/decrease-key/replace rules; all three preserve the exact
    /// dispatch order the duplicate-tolerant heap produced.
    fn insert(&mut self, tid: usize, t: SimTime, seq: u64, epoch: u64) {
        self.inserts += 1;
        if self.pos[tid] != 0 {
            let (ct, _cs, ce) = self.key[tid];
            if ce == epoch && t >= ct {
                // Same-epoch duplicate at a later (or equal) time: the
                // existing earlier wake dispatches first and the thread
                // re-parks with a new epoch, so this one could only ever
                // be popped as stale. Drop it now.
                self.coalesce_drops += 1;
                return;
            }
            self.key[tid] = (t, seq, epoch);
            let i = self.pos[tid] - 1;
            if !self.sift_up(i) {
                self.sift_down(i);
            }
        } else {
            self.key[tid] = (t, seq, epoch);
            self.heap.push(tid);
            self.pos[tid] = self.heap.len();
            self.len_hwm = self.len_hwm.max(self.heap.len());
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Earliest pending wake as `(time, seq, tid, epoch)`.
    fn peek(&self) -> Option<(SimTime, u64, usize, u64)> {
        self.heap.first().map(|&tid| {
            let (t, s, e) = self.key[tid];
            (t, s, tid, e)
        })
    }

    fn pop(&mut self) -> Option<(SimTime, u64, usize, u64)> {
        let &tid = self.heap.first()?;
        self.pops += 1;
        let (t, s, e) = self.key[tid];
        let last = self.heap.pop().expect("nonempty");
        self.pos[tid] = 0;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last] = 1;
            self.sift_down(0);
        }
        Some((t, s, tid, e))
    }
}

/// What the kernel can do to the queue, in terms of the thread's pending
/// entry: a wake at an arbitrary time, a same-epoch wake later or earlier
/// than the pending one (coalesce / decrease-key), a wake after the
/// thread re-parked (newer epoch replaces), or a dispatch.
#[derive(Debug, Clone, Copy)]
enum Op {
    Wake,
    Later,
    Earlier,
    Reparked,
    Pop,
}

fn ops() -> impl Strategy<Value = Vec<(Op, usize, SimTime)>> {
    let op = prop_oneof![
        Just(Op::Wake),
        Just(Op::Later),
        Just(Op::Earlier),
        Just(Op::Reparked),
        Just(Op::Pop),
    ];
    proptest::collection::vec((op, 0usize..24, 0u64..50), 1..400)
}

fn counters(q: &EventQueue) -> (u64, u64, u64, usize) {
    (q.inserts, q.coalesce_drops, q.pops, q.len_hwm)
}

proptest! {
    #[test]
    fn pops_and_counters_match_the_keyed_binary_heap(nthreads in 1usize..24, ops in ops()) {
        let mut new = EventQueue::new(nthreads);
        let mut old = RefQueue::new(nthreads);
        let mut epochs = vec![0u64; nthreads];
        for (seq, (op, tid, dt)) in ops.into_iter().enumerate() {
            let tid = tid % nthreads;
            let pending = (old.pos[tid] != 0).then(|| old.key[tid].0);
            let t = match (op, pending) {
                (Op::Pop, _) => {
                    prop_assert_eq!(new.pop(), old.pop());
                    continue;
                }
                (Op::Later, Some(at)) => at + dt,
                (Op::Earlier, Some(at)) => at.saturating_sub(dt),
                _ => 100 + dt,
            };
            if matches!(op, Op::Reparked) {
                epochs[tid] += 1;
            }
            new.insert(tid, t, seq as u64, epochs[tid]);
            old.insert(tid, t, seq as u64, epochs[tid]);
            prop_assert_eq!(new.peek(), old.peek());
            prop_assert_eq!(new.heap.len(), old.heap.len());
        }
        while let Some(ev) = old.pop() {
            prop_assert_eq!(new.pop(), Some(ev));
        }
        prop_assert_eq!(new.pop(), None);
        prop_assert_eq!(
            counters(&new),
            (old.inserts, old.coalesce_drops, old.pops, old.len_hwm)
        );
    }
}
