//! Central registry of internal [`Tag`](crate::Tag) classes.
//!
//! Every protocol family that puts messages on the control plane owns one
//! class (the `class` argument of [`Tag::internal`](crate::Tag::internal)),
//! so concurrent phases of different collectives can never steal each
//! other's messages. Historically these constants were scattered across
//! `smcoll` and `kacc-collectives`; they live here so a single unit test
//! can prove they are pairwise distinct.
//!
//! Classes 1–15 are reserved for the small-message bootstrap primitives
//! (`smcoll`), 16+ for the bulk-data collective protocols.

/// Small-message binomial broadcast (compiled `sm_bcast` steps).
pub const SM_BCAST: u32 = 1;
/// Small-message binomial gather (compiled `sm_gather` steps).
pub const SM_GATHER: u32 = 2;
/// Small-message Bruck allgather (`smcoll::sm_allgather`).
pub const SM_ALLGATHER: u32 = 3;
/// Small-message dissemination barrier (`smcoll::sm_barrier`).
pub const SM_BARRIER: u32 = 4;

/// Bulk Scatter protocols (§IV-A).
pub const SCATTER: u32 = 16;
/// Bulk Gather protocols (§IV-B).
pub const GATHER: u32 = 17;
/// Bulk Alltoall protocols (§IV-C).
pub const ALLTOALL: u32 = 18;
/// Bulk Allgather protocols (§V-A).
pub const ALLGATHER: u32 = 19;
/// Bulk Broadcast protocols (§V-B).
pub const BCAST: u32 = 20;
/// Two-level hierarchical collectives (§VII-G).
pub const HIER: u32 = 21;
/// Reduction collectives.
pub const REDUCE: u32 = 22;
/// Membership agreement rounds (survivable collectives).
pub const MEMBERSHIP: u32 = 23;

/// Every registered class with its owner, for the uniqueness audit.
pub const ALL: &[(u32, &str)] = &[
    (SM_BCAST, "schedule::sm_bcast"),
    (SM_GATHER, "schedule::sm_gather"),
    (SM_ALLGATHER, "smcoll::sm_allgather"),
    (SM_BARRIER, "smcoll::sm_barrier"),
    (SCATTER, "collectives::scatter"),
    (GATHER, "collectives::gather"),
    (ALLTOALL, "collectives::alltoall"),
    (ALLGATHER, "collectives::allgather"),
    (BCAST, "collectives::bcast"),
    (HIER, "collectives::hierarchical"),
    (REDUCE, "collectives::reduce"),
    (MEMBERSHIP, "collectives::membership"),
];

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::ALL;

    #[test]
    fn no_two_protocols_share_a_class() {
        for (i, &(ca, na)) in ALL.iter().enumerate() {
            for &(cb, nb) in &ALL[i + 1..] {
                assert_ne!(ca, cb, "{na} and {nb} share tag class {ca}");
            }
        }
    }

    #[test]
    fn classes_fit_the_internal_tag_encoding() {
        // Tag::internal packs `class * 0x1_0000 + sub` above USER_MAX;
        // sub-tags go up to 0xFFFF, so classes must stay distinct at
        // the 16-bit boundary (trivially true while they are small).
        for &(c, _) in ALL {
            assert!(c > 0 && c < 0x1000, "class {c} out of sane range");
        }
    }
}
