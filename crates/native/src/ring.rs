//! Lock-free single-producer/single-consumer byte rings over raw shared
//! memory — the native control plane.
//!
//! Each directed rank pair owns one ring. Its wire format is built so
//! that a control message crosses cores as one cache line:
//!
//! ```text
//! line 0    head                 written by the consumer; read by the
//!                                producer only when the ring looks full
//! line 1    tail, head seen      the producer's own words
//! line 2..  data                 frames, each starting on a line
//!
//! frame     [stamp: u64][len: u32][tag: u32][payload][pad to a line]
//! ```
//!
//! * **Stamp.** A frame's first word is its absolute ring position (bytes
//!   since the ring was made) + 1, never 0. The producer writes `len`,
//!   `tag` and the payload, then stores the stamp with `Release`: the
//!   stamp commits the frame. Up to [`LINE`] − 16 = 48 payload bytes
//!   share the stamp's line, so a buffer token or a notification is one
//!   line.
//! * **Consumer.** It polls the word at `head` with `Acquire` until it
//!   reads `head + 1`. The miss that brings the stamp in brings the frame
//!   with it; polling a separate `tail` would cost one more cross-core
//!   miss before the data. After copying the frame out it clears the first
//!   word of every line the frame covered, then publishes the new `head`
//!   with `Release`.
//! * **Why the clear.** A frame longer than a line leaves payload bytes at
//!   the start of later lines. When a later lap's `head` lands on such a
//!   line, a payload word equal to `head + 1` would read as a committed
//!   frame. A cleared word is 0, which no stamp is. The clear happens
//!   before the `head` release, so the producer, which acquires `head`
//!   before it reuses the space, never writes over a line still being
//!   cleared.
//! * **Producer.** It keeps `tail` and the last `head` it read on its own
//!   line, and re-reads the shared `head` only when that copy says the
//!   frame does not fit. A push touches the consumer's line only when the
//!   ring looks full.
//!
//! A full or an empty ring is waited on by spinning, then yielding.

use crate::backoff::Backoff;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cache-line size: every frame starts on a line, and the consumer's and
/// the producer's words sit on lines of their own.
pub const LINE: usize = 64;
/// Frame header: stamp u64 + payload length u32 + tag u32.
const HDR: usize = 16;

/// The consumer's word: the ring position of the next frame to pop.
const HEAD_OFF: usize = 0;
/// The producer's words: the ring position of the next frame to push,
/// and the last `head` the producer read. Only the producer touches them,
/// so they are `Relaxed`; the space `head` frees is acquired when `head`
/// is read.
const TAIL_OFF: usize = LINE;
const SEEN_OFF: usize = LINE + 8;
/// First data byte.
const DATA_OFF: usize = 2 * LINE;

/// Bytes of shared memory a ring with `capacity` data bytes needs.
pub const fn ring_bytes(capacity: usize) -> usize {
    DATA_OFF + capacity
}

/// Ring bytes a frame carrying `payload` bytes takes: the header and the
/// payload, rounded up to whole lines. A frame can be pushed only if this
/// is at most the ring's capacity.
pub const fn frame_bytes(payload: usize) -> usize {
    (HDR + payload).div_ceil(LINE) * LINE
}

/// One endpoint's view of an SPSC ring at a fixed shared-memory address.
/// The ring's state lives in the shared memory, so any number of views
/// agree; one view may both push and pop.
///
/// Safety contract: exactly one producer process/thread calls `push`,
/// exactly one consumer calls `pop`, and the underlying memory outlives
/// the ring and is at least [`ring_bytes`] long.
pub struct SpscRing {
    base: *mut u8,
    capacity: usize,
}

// SAFETY: the view holds only a pointer into shared memory and the
// capacity; every access through it is an atomic or is ordered by the
// stamp / `head` release-acquire pairs, whichever thread or process the
// view is on.
unsafe impl Send for SpscRing {}

impl SpscRing {
    /// Wrap ring memory at `base` with `capacity` data bytes. `capacity`
    /// must be a power of two from [`LINE`] bytes to 2 GiB (a frame's
    /// length is a u32), and `base` must be [`LINE`]-aligned.
    ///
    /// # Safety
    /// `base` must point to at least [`ring_bytes`]`(capacity)` bytes of
    /// zero-initialized memory shared between producer and consumer.
    pub unsafe fn attach(base: *mut u8, capacity: usize) -> SpscRing {
        assert!(
            capacity.is_power_of_two() && (LINE..=1 << 31).contains(&capacity),
            "ring capacity must be a power of two from {LINE} B to 2 GiB"
        );
        assert!(
            (base as usize).is_multiple_of(LINE),
            "ring memory must start on a cache line"
        );
        SpscRing { base, capacity }
    }

    fn control(&self, off: usize) -> &AtomicU64 {
        // SAFETY: the control words lie within the region per the attach
        // contract and are 8-aligned.
        unsafe { &*(self.base.add(off) as *const AtomicU64) }
    }

    fn head(&self) -> &AtomicU64 {
        self.control(HEAD_OFF)
    }

    fn tail(&self) -> &AtomicU64 {
        self.control(TAIL_OFF)
    }

    fn seen(&self) -> &AtomicU64 {
        self.control(SEEN_OFF)
    }

    fn slot(&self, pos: u64) -> *mut u8 {
        // SAFETY: pos is reduced modulo capacity.
        unsafe {
            self.base
                .add(DATA_OFF + (pos as usize & (self.capacity - 1)))
        }
    }

    /// The first word of the line at ring position `pos` (a multiple of
    /// [`LINE`]): a frame's stamp, or a cleared or payload word.
    fn stamp(&self, pos: u64) -> &AtomicU64 {
        // SAFETY: `slot` is in bounds; a line start is 8-aligned.
        unsafe { &*(self.slot(pos) as *const AtomicU64) }
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
    /// ([`frame_bytes`] of the payload) must fit the ring at all.
    pub fn push(&self, tag: u32, payload: &[u8]) {
        let frame = frame_bytes(payload.len());
        assert!(
            frame <= self.capacity,
            "frame of {frame} bytes exceeds ring capacity {}",
            self.capacity
        );
        let tail = self.tail().load(Ordering::Relaxed);
        // The frame fits once the consumer's head has reached `need`.
        let need = (tail + frame as u64).saturating_sub(self.capacity as u64);
        if self.seen().load(Ordering::Relaxed) < need {
            let mut backoff = Backoff::default();
            loop {
                let head = self.head().load(Ordering::Acquire);
                if head >= need {
                    self.seen().store(head, Ordering::Relaxed);
                    break;
                }
                backoff.snooze();
            }
        }
        // SAFETY: the frame's lines are free (the consumer's head passed
        // them) and the header line is contiguous inside the data area.
        unsafe {
            let line = self.slot(tail);
            (line.add(8) as *mut u32).write(payload.len() as u32);
            (line.add(12) as *mut u32).write(tag);
        }
        self.write_wrapped(tail + HDR as u64, payload);
        self.stamp(tail).store(tail + 1, Ordering::Release);
        self.tail().store(tail + frame as u64, Ordering::Relaxed);
    }

    /// Pop the next frame if one is ready.
    pub fn try_pop(&self) -> Option<(u32, Vec<u8>)> {
        let head = self.head().load(Ordering::Relaxed);
        if self.stamp(head).load(Ordering::Acquire) != head + 1 {
            return None;
        }
        // SAFETY: the stamp's acquire makes the producer's header visible;
        // the header line is contiguous inside the data area.
        let (len, tag) = unsafe {
            let line = self.slot(head);
            (
                (line.add(8) as *const u32).read() as usize,
                (line.add(12) as *const u32).read(),
            )
        };
        let frame = frame_bytes(len);
        assert!(
            frame <= self.capacity,
            "corrupt frame of {len} bytes at ring position {head}"
        );
        let mut payload = vec![0u8; len];
        self.read_wrapped(head + HDR as u64, &mut payload);
        for line in (head..head + frame as u64).step_by(LINE) {
            self.stamp(line).store(0, Ordering::Relaxed);
        }
        self.head().store(head + frame as u64, Ordering::Release);
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::shm::ShmRegion;

    fn ring_pair(cap: usize) -> (ShmRegion, SpscRing, SpscRing) {
        let shm = ShmRegion::new(ring_bytes(cap)).unwrap();
        // SAFETY: fresh zeroed region of the right size.
        let a = unsafe { SpscRing::attach(shm.as_ptr(), cap) };
        // SAFETY: the same ring; `a` only produces and `b` only consumes.
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

    /// A frame longer than a line leaves payload words at the start of
    /// later lines. Here each such word holds the stamp its line would
    /// carry one lap later, and frames of one to three lines move `head`
    /// across every line phase. The ring is empty after every pop, so any
    /// frame `try_pop` then returns is a phantom; `traps` counts the polls
    /// that land on a line whose stale word is exactly the stamp expected
    /// there, and must be non-zero for the test to mean anything.
    #[test]
    fn stale_payload_words_never_read_as_stamps() {
        const CAP: usize = 256;
        let (_shm, tx, rx) = ring_pair(CAP);
        // The first word of each physical line as the producer last wrote
        // it, clearing aside.
        let mut stale = [0u64; CAP / LINE];
        let mut pos = 0u64;
        let mut traps = 0;
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..2000u32 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let lines = 1 + (rng % 3) as usize;
            let mut payload = vec![0u8; lines * LINE - HDR];
            stale[(pos as usize % CAP) / LINE] = pos + 1;
            for k in 1..lines {
                let line = pos + (k * LINE) as u64;
                let next_lap = line + CAP as u64 + 1;
                let at = k * LINE - HDR;
                payload[at..at + 8].copy_from_slice(&next_lap.to_le_bytes());
                stale[(line as usize % CAP) / LINE] = next_lap;
            }
            tx.push(i, &payload);
            assert_eq!(rx.pop(), (i, payload));
            pos += (lines * LINE) as u64;
            if stale[(pos as usize % CAP) / LINE] == pos + 1 {
                traps += 1;
            }
            assert_eq!(rx.try_pop(), None, "phantom frame at ring position {pos}");
        }
        assert!(traps > 0, "no poll landed on a stale stamp");
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
        // SAFETY: a fresh zeroed region; `attach` panics on the capacity
        // before it touches the memory.
        let _ = unsafe { SpscRing::attach(shm.as_ptr(), 100) };
    }
}
