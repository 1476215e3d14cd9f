//! Small-message collectives over the shared-memory control plane.
//!
//! The paper's native CMA collectives bootstrap themselves with tiny
//! shared-memory transfers: buffer addresses are broadcast, gathered or
//! allgathered (one pointer per process) and completion is signalled
//! with 0-byte messages (§III). The collective compiler emits those
//! `T^sm_<coll>` primitives as schedule steps over the tag classes and
//! the entry-pack wire format defined here. [`sm_barrier`] is the one
//! primitive also written out as code, over [`AsyncComm::notify`] /
//! [`AsyncComm::wait_notify`] in ⌈log₂ p⌉ rounds, for layers below the
//! compiler (the simulator's timed barrier); a blocking [`crate::Comm`]
//! runs it through [`crate::Blocking`] and [`crate::block_on`].
//!
//! Each primitive owns a tag class, so concurrent algorithm phases use
//! disjoint tag spaces.

use crate::{AsyncComm, Result, Tag};

/// Tag classes used by the helpers in this module. Public so higher
/// layers can avoid collisions when they hand-roll protocols. These are
/// re-exports from the central [`crate::tagclass`] registry, which owns
/// the uniqueness audit.
pub mod class {
    /// Binomial broadcast.
    pub const BCAST: u32 = crate::tagclass::SM_BCAST;
    /// Binomial gather.
    pub const GATHER: u32 = crate::tagclass::SM_GATHER;
    /// Bruck allgather.
    pub const ALLGATHER: u32 = crate::tagclass::SM_ALLGATHER;
    /// Dissemination barrier.
    pub const BARRIER: u32 = crate::tagclass::SM_BARRIER;
}

/// Dissemination barrier: ⌈log2 p⌉ rounds of 0-byte notifications.
pub async fn sm_barrier<C: AsyncComm>(comm: &mut C) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    let mut round = 0u32;
    let mut dist = 1usize;
    while dist < p {
        let tag = Tag::internal(class::BARRIER, round);
        comm.notify((me + dist) % p, tag).await?;
        comm.wait_notify((me + p - dist) % p, tag).await?;
        dist <<= 1;
        round += 1;
    }
    Ok(())
}

/// Encode `(rank, payload)` entries in the sm wire format: per entry a
/// `u32` rank (LE), `u32` length (LE), then the payload bytes — the body
/// of every compiled token pack (binomial gather, Bruck allgather).
pub fn encode_entries(entries: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.iter().map(|(_, d)| d.len() + 8).sum());
    for (rank, data) in entries {
        encode_entry(&mut out, *rank, data);
    }
    out
}

/// Append one entry of the [`encode_entries`] wire format to `out`.
pub fn encode_entry(out: &mut Vec<u8>, rank: u32, data: &[u8]) {
    out.extend_from_slice(&rank.to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(data);
}

/// Decode the [`encode_entries`] wire format back into `(rank, payload)`
/// entries, rejecting truncated blobs.
pub fn decode_entries(blob: &[u8]) -> Result<Vec<(u32, Vec<u8>)>> {
    entries(blob)
        .map(|entry| entry.map(|(rank, data)| (rank, data.to_vec())))
        .collect()
}

/// Walk the [`encode_entries`] wire format in place: one `(rank, payload)`
/// per entry, the payload borrowed from `blob`. A truncated header or
/// body is the walk's last item, an error.
pub fn entries(blob: &[u8]) -> Entries<'_> {
    Entries { rest: blob }
}

/// Iterator returned by [`entries`].
#[derive(Debug, Clone)]
pub struct Entries<'a> {
    /// Undecoded tail of the blob; emptied by an error.
    rest: &'a [u8],
}

impl<'a> Iterator for Entries<'a> {
    type Item = Result<(u32, &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let blob = std::mem::take(&mut self.rest);
        let Some((header, body)) = blob.split_first_chunk::<8>() else {
            return Some(Err(crate::CommError::Protocol(
                "truncated sm entry header".into(),
            )));
        };
        let rank = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
        let Some((data, rest)) = body.split_at_checked(len) else {
            return Some(Err(crate::CommError::Protocol(
                "truncated sm entry body".into(),
            )));
        };
        self.rest = rest;
        Some(Ok((rank, data)))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn entry_codec_roundtrips() {
        let entries = vec![
            (0u32, b"hello".to_vec()),
            (7u32, Vec::new()),
            (3u32, vec![9u8; 100]),
        ];
        assert_eq!(decode_entries(&encode_entries(&entries)).unwrap(), entries);
    }

    #[test]
    fn entry_codec_rejects_truncation() {
        let blob = encode_entries(&[(1, vec![1, 2, 3, 4])]);
        assert!(decode_entries(&blob[..blob.len() - 1]).is_err());
        assert!(decode_entries(&blob[..5]).is_err());
    }

    #[test]
    fn encode_entry_appends_one_wire_entry() {
        let mut out = vec![0xEE];
        encode_entry(&mut out, 0x0102_0304, b"ab");
        encode_entry(&mut out, 7, &[]);
        assert_eq!(
            out,
            [0xEE, 4, 3, 2, 1, 2, 0, 0, 0, b'a', b'b', 7, 0, 0, 0, 0, 0, 0, 0]
        );
        let all = [(0x0102_0304, b"ab".to_vec()), (7, Vec::new())];
        assert_eq!(out[1..], encode_entries(&all));
    }

    fn protocol(msg: &str) -> crate::CommError {
        crate::CommError::Protocol(msg.into())
    }

    #[test]
    fn borrowed_walk_ends_at_a_truncated_header() {
        let mut blob = encode_entries(&[(1, vec![1, 2, 3, 4]), (2, vec![5])]);
        blob.extend_from_slice(&[9, 0, 0]);
        let mut walk = entries(&blob);
        assert_eq!(walk.next(), Some(Ok((1, &[1u8, 2, 3, 4][..]))));
        assert_eq!(walk.next(), Some(Ok((2, &[5u8][..]))));
        assert_eq!(
            walk.next(),
            Some(Err(protocol("truncated sm entry header")))
        );
        assert_eq!(walk.next(), None, "the error is the last item");
        assert_eq!(
            decode_entries(&blob),
            Err(protocol("truncated sm entry header"))
        );
    }

    #[test]
    fn borrowed_walk_ends_at_a_truncated_body() {
        let blob = encode_entries(&[(1, Vec::new()), (2, vec![5, 6, 7])]);
        let short = &blob[..blob.len() - 1];
        let mut walk = entries(short);
        assert_eq!(walk.next(), Some(Ok((1, &[][..]))));
        assert_eq!(walk.next(), Some(Err(protocol("truncated sm entry body"))));
        assert_eq!(walk.next(), None, "the error is the last item");
        assert_eq!(
            decode_entries(short),
            Err(protocol("truncated sm entry body"))
        );
        // A header alone is complete when it announces no body.
        assert_eq!(decode_entries(&blob[..8]), Ok(vec![(1, Vec::new())]));
    }

    /// The decoder as it was before the borrowed walk existed.
    fn decode_reference(blob: &[u8]) -> Result<Vec<(u32, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut at = 0usize;
        while at < blob.len() {
            if at + 8 > blob.len() {
                return Err(protocol("truncated sm entry header"));
            }
            let rank = u32::from_le_bytes(blob[at..at + 4].try_into().unwrap());
            let len = u32::from_le_bytes(blob[at + 4..at + 8].try_into().unwrap()) as usize;
            at += 8;
            if at + len > blob.len() {
                return Err(protocol("truncated sm entry body"));
            }
            out.push((rank, blob[at..at + len].to_vec()));
            at += len;
        }
        Ok(out)
    }

    proptest::proptest! {
        /// Well-formed packs cut at a random point, and raw bytes with
        /// small length fields: owned decoding, the borrowed walk and the
        /// old decoder agree on entries and on the error.
        #[test]
        fn decoders_agree_on_random_blobs(
            packs in proptest::collection::vec(
                (proptest::prelude::any::<u32>(), proptest::collection::vec(proptest::prelude::any::<u8>(), 0..20)),
                0..6,
            ),
            cut in 0usize..200,
            noise in proptest::collection::vec(0u8..3, 0..40),
        ) {
            let whole = encode_entries(&packs);
            proptest::prop_assert_eq!(decode_entries(&whole), Ok(packs));
            for blob in [&whole[..cut.min(whole.len())], &noise[..]] {
                let want = decode_reference(blob);
                proptest::prop_assert_eq!(&decode_entries(blob), &want);
                let walked: Result<Vec<(u32, Vec<u8>)>> = entries(blob)
                    .map(|e| e.map(|(rank, data)| (rank, data.to_vec())))
                    .collect();
                proptest::prop_assert_eq!(&walked, &want);
            }
        }
    }
}
