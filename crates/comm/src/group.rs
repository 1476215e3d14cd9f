//! Member subsets of a communication domain.
//!
//! The membership layer's shrink-and-re-execute path runs a collective
//! over the survivors of a failure by remapping the compiled plan onto
//! their parent ranks; [`validate_members`] is the rule it applies to a
//! survivor list first.

use crate::{CommError, Result};

/// Validate a member list against a parent domain of `p` ranks: the list
/// must be non-empty, in-range, duplicate-free, and contain the calling
/// endpoint `me`. Returns `me`'s index within the list (its subgroup
/// rank).
pub fn validate_members(p: usize, me: usize, members: &[usize]) -> Result<usize> {
    if members.is_empty() {
        return Err(CommError::Protocol("empty subgroup".into()));
    }
    if members.iter().any(|&m| m >= p) {
        return Err(CommError::Protocol("subgroup member outside parent".into()));
    }
    let mut seen = members.to_vec();
    seen.sort_unstable();
    if seen.windows(2).any(|w| w[0] == w[1]) {
        return Err(CommError::Protocol("duplicate subgroup member".into()));
    }
    members
        .iter()
        .position(|&m| m == me)
        .ok_or(CommError::Protocol(
            "caller is not a subgroup member".into(),
        ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn validate_members_returns_subgroup_rank() {
        assert_eq!(validate_members(8, 2, &[4, 2, 7]), Ok(1));
        assert_eq!(validate_members(8, 7, &[4, 2, 7]), Ok(2));
        assert!(validate_members(8, 0, &[]).is_err());
        assert!(validate_members(8, 0, &[0, 8]).is_err());
        assert!(validate_members(8, 0, &[0, 1, 1]).is_err());
        assert!(validate_members(8, 3, &[0, 1]).is_err());
    }
}
