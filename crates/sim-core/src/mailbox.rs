//! Reusable virtual-time mailboxes for simulated machines.
//!
//! A [`Mailboxes`] value lives inside the simulation's shared state `S`.
//! Senders deposit messages with an *arrival time* (send time + modeled
//! latency); receivers block until a matching message has arrived in
//! virtual time. Matching is FIFO per `(to, from, tag)` key, mirroring
//! MPI-style ordered channels.
//!
//! The mailbox never looks inside a message, so the payload type `M` is
//! the owner's choice: byte vectors by default (`Mailboxes::new()`), or
//! whatever a model moves instead of bytes — `kacc-machine` keeps a second
//! instance whose messages are heap buffers that may be length-only.
//! Channels, FIFO order, waiter, wake and counter rules are the same for
//! every `M`.
//!
//! Use from a [`crate::polled::sim_poll`] closure:
//!
//! ```ignore
//! // send (non-blocking):
//! sim_poll("send", |s, w, now| {
//!     s.mail.deposit(w, to, from, tag, now + latency, payload.clone());
//!     Poll::Ready(())
//! })
//! .await;
//! // receive (blocking):
//! let msg = sim_poll("recv", |s, _w, now| s.mail.take(sim_tid(), to, from, tag, now)).await;
//! ```

use crate::{Poll, SimTime, Waker};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

type Key = (usize, usize, u64); // (to, from, tag)

/// Multiply-rotate hash over the key's three words. Keys are rank
/// indices and tags the simulator itself builds, so there is no
/// adversary to defend the table against and SipHash is pure overhead
/// on a path every control message crosses twice.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type Message<M> = (SimTime, M);

/// One `(to, from, tag)` channel: messages in flight and the receiver
/// parked on them. A channel exists only while it has either.
#[derive(Debug)]
struct Channel<M> {
    /// Oldest undelivered message. Kept out of `backlog` because nearly
    /// every channel holds at most one, and a channel that lives for one
    /// message should not allocate and free a queue buffer for it.
    head: Option<Message<M>>,
    /// Messages behind `head`, oldest first; empty while `head` is `None`.
    backlog: VecDeque<Message<M>>,
    waiter: Option<usize>,
}

// Not derived: an empty channel needs no `M: Default`.
impl<M> Default for Channel<M> {
    fn default() -> Self {
        Channel {
            head: None,
            backlog: VecDeque::new(),
            waiter: None,
        }
    }
}

impl<M> Channel<M> {
    fn push(&mut self, msg: Message<M>) {
        match self.head {
            None => self.head = Some(msg),
            Some(_) => self.backlog.push_back(msg),
        }
    }

    fn pop(&mut self) -> Option<Message<M>> {
        std::mem::replace(&mut self.head, self.backlog.pop_front())
    }

    fn len(&self) -> usize {
        usize::from(self.head.is_some()) + self.backlog.len()
    }
}

/// FIFO virtual-time mailboxes keyed by `(to, from, tag)`, carrying
/// messages of type `M`.
#[derive(Debug)]
pub struct Mailboxes<M = Vec<u8>> {
    channels: HashMap<Key, Channel<M>, BuildHasherDefault<WordHasher>>,
    /// Total messages ever deposited (observability/testing).
    pub deposited: u64,
    /// Total messages ever delivered.
    pub delivered: u64,
}

// Not derived: an empty mailbox set needs no `M: Default`.
impl<M> Default for Mailboxes<M> {
    fn default() -> Self {
        Mailboxes {
            channels: HashMap::default(),
            deposited: 0,
            delivered: 0,
        }
    }
}

impl Mailboxes {
    /// Create an empty set of byte-vector mailboxes. Defined on the
    /// default instantiation only, so a bare `Mailboxes::new()` names a
    /// type; other payloads start from `Mailboxes::<M>::default()`.
    pub fn new() -> Mailboxes {
        Mailboxes::default()
    }
}

impl<M> Mailboxes<M> {
    /// Deposit a message arriving at `arrival`. If a receiver is already
    /// parked on the key, schedule its wake at the arrival time.
    pub fn deposit(
        &mut self,
        waker: &mut Waker,
        to: usize,
        from: usize,
        tag: u64,
        arrival: SimTime,
        payload: M,
    ) {
        let channel = self.channels.entry((to, from, tag)).or_default();
        channel.push((arrival, payload));
        self.deposited += 1;
        if let Some(tid) = channel.waiter {
            waker.wake_at(tid, arrival);
        }
    }

    /// Poll-step for a receiver thread `tid`: returns `Ready(payload)`
    /// once the head message for the key has arrived, otherwise blocks
    /// (with a timer if the head message is in flight).
    ///
    /// Panics if two threads wait on the same key simultaneously — that
    /// would make matching nondeterministic, and no kacc protocol does it.
    pub fn take(&mut self, tid: usize, to: usize, from: usize, tag: u64, now: SimTime) -> Poll<M> {
        let key = (to, from, tag);
        let mut slot = match self.channels.entry(key) {
            Entry::Occupied(slot) => slot,
            Entry::Vacant(slot) => {
                slot.insert(Channel {
                    waiter: Some(tid),
                    ..Channel::default()
                });
                return Poll::Wait { wake_at: None };
            }
        };
        let channel = slot.get_mut();
        // Look at the head's arrival before moving the payload out (bulk
        // messages can be megabytes).
        let head = channel.head.as_ref().map(|(arrival, _)| *arrival);
        if head.is_some_and(|arrival| arrival <= now) {
            let (_, payload) = channel.pop().expect("peeked head exists");
            channel.waiter = None;
            if channel.head.is_none() {
                slot.remove();
            }
            self.delivered += 1;
            return Poll::Ready(payload);
        }
        match channel.waiter {
            Some(prev) => assert_eq!(
                prev, tid,
                "two threads ({prev} and {tid}) waiting on mailbox {key:?}"
            ),
            None => channel.waiter = Some(tid),
        }
        Poll::Wait { wake_at: head }
    }

    /// Withdraw `tid`'s wait registration on a key without consuming a
    /// message. Deadline receives use this when they give up: leaving the
    /// registration behind would make a later deposit wake (or a future
    /// `take` assert against) a thread that is no longer waiting.
    pub fn unregister(&mut self, to: usize, from: usize, tag: u64, tid: usize) {
        if let Entry::Occupied(mut slot) = self.channels.entry((to, from, tag)) {
            let channel = slot.get_mut();
            if channel.waiter == Some(tid) {
                channel.waiter = None;
                if channel.head.is_none() {
                    slot.remove();
                }
            }
        }
    }

    /// Number of undelivered messages across all queues (leak checking).
    pub fn pending(&self) -> usize {
        self.channels.values().map(Channel::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polled::{sim_advance, sim_now, sim_poll};
    use crate::PolledSim;

    /// A waker outside any kernel, to see which wakes a deposit requests.
    fn waker() -> Waker {
        // Generation 0 is what never-written coalescing slots hold.
        Waker {
            gen: 1,
            ..Waker::new()
        }
    }

    fn ready(p: Poll<Vec<u8>>) -> Vec<u8> {
        match p {
            Poll::Ready(v) => v,
            Poll::Wait { wake_at } => panic!("expected a message, would wait until {wake_at:?}"),
        }
    }

    fn wait(p: Poll<Vec<u8>>) -> Option<SimTime> {
        match p {
            Poll::Ready(v) => panic!("expected to wait, got {v:?}"),
            Poll::Wait { wake_at } => wake_at,
        }
    }

    #[test]
    fn fifo_holds_per_key_across_interleaved_keys() {
        let mut m = Mailboxes::new();
        let mut w = waker();
        // Three channels into rank 1 — two senders, and a second tag from
        // sender 0 — fed round-robin.
        let keys = [(1, 0, 7u64), (1, 2, 7), (1, 0, (1 << 32) | 7)];
        for i in 0..4u8 {
            for (k, &(to, from, tag)) in keys.iter().enumerate() {
                m.deposit(&mut w, to, from, tag, 10, vec![k as u8, i]);
            }
        }
        assert_eq!(m.pending(), 12);
        assert!(w.pending.is_empty(), "nobody was parked");
        // Drained in another interleaving, each still in its own order.
        for i in 0..4u8 {
            for (k, &(to, from, tag)) in keys.iter().enumerate().rev() {
                assert_eq!(ready(m.take(9, to, from, tag, 10)), vec![k as u8, i]);
            }
        }
        assert_eq!((m.deposited, m.delivered), (12, 12));
    }

    #[test]
    fn deposit_wakes_the_parked_receiver_at_the_arrival_time() {
        let mut m = Mailboxes::new();
        let mut w = waker();
        assert_eq!(wait(m.take(3, 1, 0, 7, 100)), None);
        m.deposit(&mut w, 1, 0, 7, 140, vec![1]);
        assert_eq!(w.pending, vec![(3, 140)]);
        // Woken early: re-parks with the head's arrival as its timer.
        assert_eq!(wait(m.take(3, 1, 0, 7, 120)), Some(140));
        assert_eq!(ready(m.take(3, 1, 0, 7, 140)), vec![1]);
        // Delivery withdrew the registration: the next deposit wakes nobody.
        let mut w = waker();
        m.deposit(&mut w, 1, 0, 7, 150, vec![2]);
        assert!(w.pending.is_empty());
    }

    #[test]
    #[should_panic(expected = "two threads (3 and 4) waiting on mailbox (1, 0, 7)")]
    fn two_receivers_on_one_key_are_rejected() {
        let mut m = Mailboxes::new();
        let _ = m.take(3, 1, 0, 7, 0);
        let _ = m.take(4, 1, 0, 7, 0);
    }

    #[test]
    fn unregister_hands_the_key_to_another_receiver() {
        let mut m = Mailboxes::new();
        let mut w = waker();
        assert_eq!(wait(m.take(3, 1, 0, 7, 0)), None);
        // Not the registered waiter: no effect, 3 stays parked.
        m.unregister(1, 0, 7, 4);
        m.unregister(1, 0, 7, 3);
        assert_eq!(wait(m.take(4, 1, 0, 7, 5)), None);
        m.deposit(&mut w, 1, 0, 7, 20, vec![9]);
        assert_eq!(w.pending, vec![(4, 20)], "only the new receiver is woken");
        // Giving up with a message in flight leaves the message.
        m.unregister(1, 0, 7, 4);
        assert_eq!(m.pending(), 1);
        assert_eq!(ready(m.take(3, 1, 0, 7, 20)), vec![9]);
    }

    #[test]
    fn drained_and_unwatched_channels_leave_nothing_behind() {
        let mut m = Mailboxes::new();
        let mut w = waker();
        for from in 0..64 {
            m.deposit(&mut w, 1, from, 7, 0, vec![0; 32]);
            let _ = m.take(2, 2, from, 7, 0);
        }
        assert_eq!((m.pending(), m.channels.len()), (64, 128));
        for from in 0..64 {
            ready(m.take(1, 1, from, 7, 0));
            m.unregister(2, from, 7, 2);
        }
        assert_eq!(m.pending(), 0);
        assert!(m.channels.is_empty(), "no record outlives its last use");
    }

    /// The mailbox never looks inside a message: a payload that is neither
    /// `Clone`, `Default` nor `Debug` goes through the same channel,
    /// waiter, wake and counter rules.
    #[test]
    fn a_non_vec_payload_follows_the_same_rules() {
        struct Parcel(usize);
        let mut m = Mailboxes::<Parcel>::default();
        let mut w = waker();
        assert!(matches!(
            m.take(3, 1, 0, 7, 0),
            Poll::Wait { wake_at: None }
        ));
        m.deposit(&mut w, 1, 0, 7, 40, Parcel(1 << 20));
        m.deposit(&mut w, 1, 0, 7, 50, Parcel(2));
        assert_eq!(
            w.pending,
            vec![(3, 40)],
            "both wakes, coalesced to the earliest"
        );
        assert!(matches!(
            m.take(3, 1, 0, 7, 10),
            Poll::Wait { wake_at: Some(40) }
        ));
        assert!(matches!(m.take(3, 1, 0, 7, 40), Poll::Ready(Parcel(n)) if n == 1 << 20));
        // Giving up on the second message leaves it for the next receiver.
        assert!(matches!(
            m.take(3, 1, 0, 7, 40),
            Poll::Wait { wake_at: Some(50) }
        ));
        m.unregister(1, 0, 7, 3);
        assert_eq!(m.pending(), 1);
        assert!(matches!(m.take(4, 1, 0, 7, 50), Poll::Ready(Parcel(2))));
        assert_eq!((m.deposited, m.delivered, m.pending()), (2, 2, 0));
        assert!(m.channels.is_empty());
    }

    #[test]
    fn message_latency_is_respected() {
        let mut sim = PolledSim::new(Mailboxes::new());
        // Sender: deposits at t=10 with 25ns latency.
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
            assert_eq!(sim_now::<Mailboxes>(), 35);
        });
        let r = sim.run();
        assert_eq!(r.state.pending(), 0);
        assert_eq!(r.state.delivered, 1);
    }

    #[test]
    fn late_receiver_gets_message_immediately() {
        let mut sim = PolledSim::new(Mailboxes::new());
        sim.spawn(|_| async {
            sim_poll("send", |m: &mut Mailboxes, w, now| {
                m.deposit(w, 1, 0, 0, now + 5, vec![42]);
                Poll::Ready(())
            })
            .await;
        });
        sim.spawn(|tid| async move {
            sim_advance::<Mailboxes>(1000).await;
            let msg = sim_poll("recv", move |m: &mut Mailboxes, _w, now| {
                m.take(tid, 1, 0, 0, now)
            })
            .await;
            assert_eq!(msg, vec![42]);
            assert_eq!(
                sim_now::<Mailboxes>(),
                1000,
                "no extra wait when message already arrived"
            );
        });
        sim.run();
    }

    #[test]
    fn fifo_order_per_key() {
        let mut sim = PolledSim::new(Mailboxes::new());
        sim.spawn(|_| async {
            for i in 0..5u8 {
                sim_poll("send", move |m: &mut Mailboxes, w, now| {
                    m.deposit(w, 1, 0, 3, now + 10, vec![i]);
                    Poll::Ready(())
                })
                .await;
                sim_advance::<Mailboxes>(1).await;
            }
        });
        sim.spawn(|tid| async move {
            for i in 0..5u8 {
                let msg = sim_poll("recv", move |m: &mut Mailboxes, _w, now| {
                    m.take(tid, 1, 0, 3, now)
                })
                .await;
                assert_eq!(msg, vec![i]);
            }
        });
        sim.run();
    }
}
