//! Property-based tests for the SPSC shared-memory ring: arbitrary frame
//! sequences survive unchanged, in order, across thread boundaries.

use kacc_native::ring::{frame_bytes, ring_bytes, SpscRing, LINE};
use kacc_native::shm::ShmRegion;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn frames_never_lost_or_reordered(
        frames in proptest::collection::vec(
            (0u32..1000, proptest::collection::vec(any::<u8>(), 0..200)),
            0..64,
        ),
        cap_pow in 8u32..12,
    ) {
        let cap = 1usize << cap_pow;
        // Skip frame sets containing oversized frames for this capacity.
        prop_assume!(frames.iter().all(|(_, p)| p.len() + 16 <= cap));
        let shm = ShmRegion::new(ring_bytes(cap)).unwrap();
        // SAFETY: fresh zeroed region; single producer and single
        // consumer below.
        let tx = unsafe { SpscRing::attach(shm.as_ptr(), cap) };
        let rx = unsafe { SpscRing::attach(shm.as_ptr(), cap) };

        let expected = frames.clone();
        std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                for (tag, payload) in &frames {
                    tx.push(*tag, payload);
                }
            });
            for (tag, payload) in &expected {
                let (got_tag, got_payload) = rx.pop();
                assert_eq!(got_tag, *tag);
                assert_eq!(&got_payload, payload);
            }
            producer.join().unwrap();
        });
        prop_assert!(rx.try_pop().is_none(), "ring must drain completely");
    }

    #[test]
    fn frames_ending_at_the_ring_end_and_empty_frames(
        ops in proptest::collection::vec((0u8..4, any::<u16>()), 1..120),
        cap_pow in 7u32..11,
    ) {
        // Kind 0 is a 0-byte frame, 1 a frame of arbitrary length, 2 one
        // whose payload fills the space to the ring's end exactly, and 3
        // one whose padded frame ends there, 1..47 bytes short. Positions
        // depend only on frame sizes, so the frames are laid out up front.
        let cap = 1usize << cap_pow;
        let mut pos = 0usize;
        let mut ends_at_ring_end = 0;
        let frames: Vec<(u32, Vec<u8>)> = ops
            .iter()
            .enumerate()
            .map(|(i, &(kind, r))| {
                let room = cap - pos % cap;
                let len = match kind {
                    0 => 0,
                    1 => r as usize % (cap - 15),
                    2 => room - 16,
                    _ => room - 16 - (1 + r as usize % (LINE - 17)),
                };
                pos += frame_bytes(len);
                if pos.is_multiple_of(cap) {
                    ends_at_ring_end += 1;
                }
                let payload = (0..len).map(|b| (b * 31 + i) as u8).collect();
                (i as u32, payload)
            })
            .collect();
        prop_assert!(frames.iter().all(|(_, p)| frame_bytes(p.len()) <= cap));
        let shm = ShmRegion::new(ring_bytes(cap)).unwrap();
        // SAFETY: fresh zeroed region; one producer and one consumer.
        let tx = unsafe { SpscRing::attach(shm.as_ptr(), cap) };
        let rx = unsafe { SpscRing::attach(shm.as_ptr(), cap) };
        std::thread::scope(|scope| {
            let sent = &frames;
            scope.spawn(move || {
                for (tag, payload) in sent {
                    tx.push(*tag, payload);
                }
            });
            for want in &frames {
                assert_eq!(&rx.pop(), want);
            }
        });
        prop_assert!(rx.try_pop().is_none(), "ring must drain completely");
        let fills = ops.iter().filter(|(kind, _)| *kind >= 2).count();
        prop_assert!(ends_at_ring_end >= fills);
    }

    #[test]
    fn interleaved_push_pop_preserves_fifo(
        payload_lens in proptest::collection::vec(0usize..100, 1..200),
    ) {
        // Single-threaded interleaving with a tiny ring: every push is
        // followed by a pop, so wrap-around happens constantly.
        let cap = 256;
        prop_assume!(payload_lens.iter().all(|&l| l + 16 <= cap));
        let shm = ShmRegion::new(ring_bytes(cap)).unwrap();
        let ring = unsafe { SpscRing::attach(shm.as_ptr(), cap) };
        for (i, &len) in payload_lens.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|b| (b ^ i) as u8).collect();
            ring.push(i as u32, &payload);
            let (tag, got) = ring.pop();
            prop_assert_eq!(tag, i as u32);
            prop_assert_eq!(got, payload);
        }
    }
}
