//! Multi-word membership bitset with an out-of-band header word.
//!
//! PR 8's membership agreement packed the dead set into a single `u64`
//! with the `REDO` flag stealing bit 63, which capped survivable
//! collectives at 63 ranks. [`MemberMask`] removes the cap: rank bits
//! live in a `Vec<u64>` sized to the communicator, and the out-of-band
//! flags (`REDO`, `NORESUME`) ride a separate *header* word that also
//! carries a nonzero magic constant.
//!
//! The nonzero magic matters for the wire format: the agreement
//! protocol deposits each member's mask into a zero-initialized receive
//! slot, so a slot that still decodes to "no magic" after the liveness
//! deadline identifies a non-responder *by content* — no side-channel
//! suspect bookkeeping (which wrapped ranks at `& 63`) is needed.
//!
//! Wire format, little-endian u64 words:
//!
//! ```text
//! word 0            header: MAGIC (high 48 bits) | flags (low 16 bits)
//! word 1..=ceil(p/64)  rank bits, bit r of word (r / 64) = rank r
//! ```
//!
//! Total `8 * (1 + ceil(p/64))` bytes per member.

/// Nonzero magic stamped into the high 48 bits of the header word.
/// ASCII "KACCMM" — any well-formed mask has a nonzero header, so an
/// all-zero wire slot is unambiguously "peer never wrote".
const MAGIC: u64 = 0x4B41_4343_4D4D_0000;
const MAGIC_MASK: u64 = !0xFFFF;
const FLAG_MASK: u64 = 0xFFFF;

/// Header flag: the collective must be re-executed (the epoch's data
/// phase was torn by a failure).
pub const FLAG_REDO: u64 = 1 << 0;

/// Header flag: at least one member cannot resume the torn plan from
/// its watermark (a completed or remaining step touched a dead rank),
/// so the epoch must fall back to full re-execution.
pub const FLAG_NORESUME: u64 = 1 << 1;

/// Growable membership bitset over ranks `0..p` plus out-of-band flags.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemberMask {
    p: usize,
    flags: u64,
    words: Vec<u64>,
}

impl MemberMask {
    /// An empty mask (no ranks set, no flags) over a domain of `p` ranks.
    pub fn new(p: usize) -> MemberMask {
        MemberMask {
            p,
            flags: 0,
            words: vec![0; p.div_ceil(64).max(1)],
        }
    }

    /// Domain size this mask was built for.
    pub fn domain(&self) -> usize {
        self.p
    }

    /// Wire length in bytes of a mask over `p` ranks: header word plus
    /// one word per 64 ranks.
    pub fn wire_len(p: usize) -> usize {
        8 * (1 + p.div_ceil(64).max(1))
    }

    /// Set rank `r`'s bit. Panics if `r` is outside the domain.
    pub fn set(&mut self, r: usize) {
        assert!(r < self.p, "rank {r} outside mask domain {}", self.p);
        self.words[r / 64] |= 1u64 << (r % 64);
    }

    /// Clear rank `r`'s bit (no-op outside the domain).
    pub fn clear(&mut self, r: usize) {
        if r < self.p {
            self.words[r / 64] &= !(1u64 << (r % 64));
        }
    }

    /// Whether rank `r`'s bit is set (false outside the domain).
    pub fn get(&self, r: usize) -> bool {
        r < self.p && self.words[r / 64] & (1u64 << (r % 64)) != 0
    }

    /// Union the other mask's rank bits and flags into this one.
    /// Domains must match.
    pub fn union(&mut self, other: &MemberMask) {
        assert_eq!(self.p, other.p, "mask domain mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        self.flags |= other.flags;
    }

    /// Remove the other mask's rank bits from this one (flags untouched).
    pub fn subtract(&mut self, other: &MemberMask) {
        assert_eq!(self.p, other.p, "mask domain mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Number of rank bits set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no rank bits are set (flags may still be).
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Ranks whose bits are set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.p).filter(move |&r| self.get(r))
    }

    /// Raw flag bits (low 16 bits of the header word).
    pub fn flags(&self) -> u64 {
        self.flags
    }

    /// Set a header flag ([`FLAG_REDO`], [`FLAG_NORESUME`]).
    pub fn set_flag(&mut self, f: u64) {
        self.flags |= f & FLAG_MASK;
    }

    /// Clear a header flag.
    pub fn clear_flag(&mut self, f: u64) {
        self.flags &= !f;
    }

    /// Whether a header flag is set.
    pub fn has_flag(&self, f: u64) -> bool {
        self.flags & f != 0
    }

    /// The low 64 rank bits, for diagnostics that predate multi-word
    /// masks (e.g. `MembershipReport::dead_mask`). Ranks >= 64 are not
    /// representable here; callers needing the full set use [`Self::iter`].
    pub fn low64(&self) -> u64 {
        self.words[0]
    }

    /// Serialize to the wire format described in the module docs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * (1 + self.words.len()));
        out.extend_from_slice(&(MAGIC | self.flags).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialize a mask over `p` ranks from a wire slot. Returns
    /// `None` when the header word carries no magic — in the agreement
    /// protocol that means the slot was never written (non-responder).
    pub fn from_bytes(p: usize, bytes: &[u8]) -> Option<MemberMask> {
        let want = Self::wire_len(p);
        if bytes.len() < want {
            return None;
        }
        let word = |i: usize| -> u64 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[8 * i..8 * i + 8]);
            u64::from_le_bytes(b)
        };
        let header = word(0);
        if header & MAGIC_MASK != MAGIC {
            return None;
        }
        let mut m = MemberMask::new(p);
        m.flags = header & FLAG_MASK;
        for (i, w) in m.words.iter_mut().enumerate() {
            *w = word(1 + i);
        }
        // Bits above the domain are wire noise, never membership.
        let spare = m.words.len() * 64 - p;
        if spare > 0 && spare < 64 {
            let last = m.words.len() - 1;
            m.words[last] &= u64::MAX >> spare;
        }
        Some(m)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count_across_word_boundary() {
        let mut m = MemberMask::new(130);
        for r in [0, 63, 64, 127, 129] {
            assert!(!m.get(r));
            m.set(r);
            assert!(m.get(r));
        }
        assert_eq!(m.count(), 5);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 129]);
        m.clear(64);
        assert_eq!(m.count(), 4);
        assert!(!m.get(64));
    }

    #[test]
    fn wire_round_trip_preserves_bits_and_flags() {
        let mut m = MemberMask::new(200);
        m.set(5);
        m.set(77);
        m.set(199);
        m.set_flag(FLAG_REDO);
        m.set_flag(FLAG_NORESUME);
        let b = m.to_bytes();
        assert_eq!(b.len(), MemberMask::wire_len(200));
        let back = MemberMask::from_bytes(200, &b).unwrap();
        assert_eq!(back, m);
        assert!(back.has_flag(FLAG_REDO));
        assert!(back.has_flag(FLAG_NORESUME));
    }

    #[test]
    fn zero_filled_slot_decodes_as_non_responder() {
        let zeros = vec![0u8; MemberMask::wire_len(128)];
        assert!(MemberMask::from_bytes(128, &zeros).is_none());
        // Even an empty mask with no flags has a nonzero header.
        let empty = MemberMask::new(128);
        assert!(MemberMask::from_bytes(128, &empty.to_bytes()).is_some());
    }

    #[test]
    fn from_bytes_masks_out_of_domain_bits() {
        let mut wide = MemberMask::new(128);
        wide.set(100);
        let bytes = wide.to_bytes();
        // Reinterpret over a 70-rank domain: bit 100 is wire noise.
        let narrow = MemberMask::from_bytes(70, &bytes).unwrap();
        assert!(narrow.is_empty());
        assert_eq!(narrow.words.len(), 2);
    }

    #[test]
    fn union_subtract_and_low64() {
        let mut a = MemberMask::new(128);
        a.set(3);
        let mut b = MemberMask::new(128);
        b.set(100);
        b.set_flag(FLAG_REDO);
        a.union(&b);
        assert!(a.get(3) && a.get(100));
        assert!(a.has_flag(FLAG_REDO));
        assert_eq!(a.low64(), 1 << 3);
        let mut only3 = MemberMask::new(128);
        only3.set(3);
        a.subtract(&only3);
        assert!(!a.get(3) && a.get(100));
        // Flags survive subtraction.
        assert!(a.has_flag(FLAG_REDO));
    }

    #[test]
    fn wire_len_matches_formula() {
        assert_eq!(MemberMask::wire_len(1), 16);
        assert_eq!(MemberMask::wire_len(64), 16);
        assert_eq!(MemberMask::wire_len(65), 24);
        assert_eq!(MemberMask::wire_len(128), 24);
        assert_eq!(MemberMask::wire_len(129), 32);
    }
}
