//! Lock-free single-producer/single-consumer byte rings over raw shared
//! memory — the native control plane.
//!
//! Each directed rank pair owns one ring. Frames are `[len: u32][tag:
//! u32][payload]`, 8-byte aligned. The producer waits (spin, then yield)
//! when the ring is full; the consumer when it is empty. Head/tail are
//! `AtomicU64` with acquire/release ordering, the textbook SPSC design
//! (Rust Atomics and Locks, ch. 5).

use crate::backoff::Backoff;
use std::sync::atomic::{AtomicU64, Ordering};

/// Frame header size: u32 payload length + u32 tag.
const HDR: usize = 8;

/// Offsets of the control words within a ring's memory.
const HEAD_OFF: usize = 0;
const TAIL_OFF: usize = 8;
/// First payload byte.
pub const DATA_OFF: usize = 64; // keep producer/consumer words on separate cache lines

/// Bytes of shared memory a ring with `capacity` payload bytes needs.
pub const fn ring_bytes(capacity: usize) -> usize {
    DATA_OFF + capacity
}

/// One endpoint's view of an SPSC ring at a fixed shared-memory address.
///
/// Safety contract: exactly one producer process/thread calls `push`,
/// exactly one consumer calls `pop`, and the underlying memory outlives
/// the ring and is at least [`ring_bytes`] long.
pub struct SpscRing {
    base: *mut u8,
    capacity: usize,
}

unsafe impl Send for SpscRing {}

impl SpscRing {
    /// Wrap ring memory at `base` with `capacity` payload bytes.
    /// `capacity` must be a power of two.
    ///
    /// # Safety
    /// `base` must point to at least [`ring_bytes`]`(capacity)` bytes of
    /// zero-initialized memory shared between producer and consumer.
    pub unsafe fn attach(base: *mut u8, capacity: usize) -> SpscRing {
        assert!(
            capacity.is_power_of_two(),
            "ring capacity must be a power of two"
        );
        SpscRing { base, capacity }
    }

    fn head(&self) -> &AtomicU64 {
        // SAFETY: within the region per the attach contract; aligned.
        unsafe { &*(self.base.add(HEAD_OFF) as *const AtomicU64) }
    }

    fn tail(&self) -> &AtomicU64 {
        // SAFETY: as above.
        unsafe { &*(self.base.add(TAIL_OFF) as *const AtomicU64) }
    }

    fn slot(&self, pos: u64) -> *mut u8 {
        // SAFETY: pos is reduced modulo capacity.
        unsafe {
            self.base
                .add(DATA_OFF + (pos as usize & (self.capacity - 1)))
        }
    }

    /// Copy `bytes` into the ring starting at logical position `pos`,
    /// wrapping as needed.
    fn write_wrapped(&self, pos: u64, bytes: &[u8]) {
        let first = bytes
            .len()
            .min(self.capacity - (pos as usize & (self.capacity - 1)));
        // SAFETY: both pieces are in-bounds of the data area.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.slot(pos), first);
            if first < bytes.len() {
                std::ptr::copy_nonoverlapping(
                    bytes.as_ptr().add(first),
                    self.slot(pos + first as u64),
                    bytes.len() - first,
                );
            }
        }
    }

    fn read_wrapped(&self, pos: u64, out: &mut [u8]) {
        let first = out
            .len()
            .min(self.capacity - (pos as usize & (self.capacity - 1)));
        // SAFETY: in-bounds as above.
        unsafe {
            std::ptr::copy_nonoverlapping(self.slot(pos), out.as_mut_ptr(), first);
            if first < out.len() {
                std::ptr::copy_nonoverlapping(
                    self.slot(pos + first as u64),
                    out.as_mut_ptr().add(first),
                    out.len() - first,
                );
            }
        }
    }

    /// Push one frame, waiting while the ring lacks space. The frame
    /// (header + padded payload) must fit the ring at all.
    pub fn push(&self, tag: u32, payload: &[u8]) {
        let frame = HDR + pad8(payload.len());
        assert!(
            frame <= self.capacity,
            "frame of {frame} bytes exceeds ring capacity {}",
            self.capacity
        );
        let mut backoff = Backoff::default();
        loop {
            let head = self.head().load(Ordering::Acquire);
            let tail = self.tail().load(Ordering::Relaxed);
            let used = (tail - head) as usize;
            if self.capacity - used >= frame {
                let mut hdr = [0u8; HDR];
                hdr[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
                hdr[4..].copy_from_slice(&tag.to_le_bytes());
                self.write_wrapped(tail, &hdr);
                self.write_wrapped(tail + HDR as u64, payload);
                self.tail().store(tail + frame as u64, Ordering::Release);
                return;
            }
            backoff.snooze();
        }
    }

    /// Pop the next frame if one is ready.
    pub fn try_pop(&self) -> Option<(u32, Vec<u8>)> {
        let head = self.head().load(Ordering::Relaxed);
        let tail = self.tail().load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let mut hdr = [0u8; HDR];
        self.read_wrapped(head, &mut hdr);
        let len = u32::from_le_bytes(hdr[..4].try_into().expect("slice length fixed")) as usize;
        let tag = u32::from_le_bytes(hdr[4..].try_into().expect("slice length fixed"));
        let mut payload = vec![0u8; len];
        self.read_wrapped(head + HDR as u64, &mut payload);
        self.head()
            .store(head + (HDR + pad8(len)) as u64, Ordering::Release);
        Some((tag, payload))
    }

    /// Pop, waiting until a frame arrives.
    pub fn pop(&self) -> (u32, Vec<u8>) {
        let mut backoff = Backoff::default();
        loop {
            if let Some(frame) = self.try_pop() {
                return frame;
            }
            backoff.snooze();
        }
    }
}

fn pad8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::shm::ShmRegion;

    fn ring_pair(cap: usize) -> (ShmRegion, SpscRing, SpscRing) {
        let shm = ShmRegion::new(ring_bytes(cap)).unwrap();
        // SAFETY: fresh zeroed region of the right size.
        let a = unsafe { SpscRing::attach(shm.as_ptr(), cap) };
        let b = unsafe { SpscRing::attach(shm.as_ptr(), cap) };
        (shm, a, b)
    }

    #[test]
    fn frames_roundtrip_in_order() {
        let (_shm, tx, rx) = ring_pair(1024);
        tx.push(7, b"hello");
        tx.push(9, b"");
        tx.push(1, &[0xAB; 100]);
        assert_eq!(rx.pop(), (7, b"hello".to_vec()));
        assert_eq!(rx.pop(), (9, Vec::new()));
        assert_eq!(rx.pop(), (1, vec![0xAB; 100]));
        assert!(rx.try_pop().is_none());
    }

    #[test]
    fn wraps_around_many_times() {
        let (_shm, tx, rx) = ring_pair(256);
        for round in 0..1000u32 {
            let payload: Vec<u8> = (0..(round % 90) as u8).collect();
            tx.push(round, &payload);
            let (tag, got) = rx.pop();
            assert_eq!(tag, round);
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn producer_blocks_until_consumer_drains() {
        let (_shm, tx, rx) = ring_pair(256);
        let rx = std::sync::Arc::new(std::sync::Mutex::new(rx));
        let rx2 = std::sync::Arc::clone(&rx);
        let consumer = std::thread::spawn(move || {
            let mut total = 0usize;
            while total < 50 {
                if let Some((_, p)) = rx2.lock().unwrap().try_pop() {
                    assert_eq!(p.len(), 64);
                    total += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            total
        });
        // 50 frames of 72 bytes vastly exceed a 256-byte ring: pushes
        // must block and resume as the consumer drains.
        for i in 0..50u32 {
            tx.push(i, &[i as u8; 64]);
        }
        assert_eq!(consumer.join().unwrap(), 50);
    }

    /// Pin the calling thread to `cpu`; false if the kernel refuses.
    fn pin_to(cpu: usize) -> bool {
        let mut set = libc::cpu_set_t::default();
        libc::CPU_SET(cpu, &mut set);
        // SAFETY: `set` is a valid cpu set of the size passed.
        unsafe { libc::sched_setaffinity(0, std::mem::size_of_val(&set), &set) == 0 }
    }

    /// The lowest CPU this thread may run on.
    fn first_allowed_cpu() -> Option<usize> {
        let mut set = libc::cpu_set_t::default();
        // SAFETY: the kernel writes at most `size` bytes into `set`.
        let rc = unsafe { libc::sched_getaffinity(0, std::mem::size_of_val(&set), &mut set) };
        if rc < 0 {
            return None;
        }
        (0..libc::CPU_SETSIZE as usize).find(|&c| libc::CPU_ISSET(c, &set))
    }

    /// Producer and consumer share one CPU, so neither can make progress
    /// while the other spins: the waits must give the CPU up. A wait that
    /// only spun would still finish, one scheduler tick per handoff, but
    /// would count no yields; the count, unlike the wall time, does not
    /// depend on what else the host is running.
    #[test]
    fn producer_and_consumer_on_one_cpu_finish() {
        use crate::backoff::YIELDS;
        let Some(cpu) = first_allowed_cpu() else {
            return;
        };
        let (_shm, tx, rx) = ring_pair(256);
        let frames = 3000u32;
        let consumer = std::thread::spawn(move || {
            let pinned = pin_to(cpu);
            let before = YIELDS.with(|y| y.get());
            for i in 0..frames {
                assert_eq!(rx.pop(), (i, vec![i as u8; 64]));
            }
            (pinned, YIELDS.with(|y| y.get()) - before)
        });
        let pinned = pin_to(cpu);
        let before = YIELDS.with(|y| y.get());
        for i in 0..frames {
            tx.push(i, &[i as u8; 64]);
        }
        let producer_yields = YIELDS.with(|y| y.get()) - before;
        let (consumer_pinned, consumer_yields) = consumer.join().unwrap();
        if pinned && consumer_pinned {
            assert!(
                producer_yields + consumer_yields > 0,
                "{frames} one-CPU handoffs made no yield"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds ring capacity")]
    fn oversized_frame_is_rejected() {
        let (_shm, tx, _rx) = ring_pair(64);
        tx.push(0, &[0u8; 128]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_rejected() {
        let shm = ShmRegion::new(ring_bytes(100)).unwrap();
        let _ = unsafe { SpscRing::attach(shm.as_ptr(), 100) };
    }
}
