//! Error type shared by all kacc transports.

use std::fmt;

/// `errno` of a call on a process that no longer exists (`ESRCH`): what
/// [`CommError::Os`] carries when a peer has died. Every transport and
/// the recovery code that tells peer death from other errors use this
/// one value.
pub const ESRCH: i32 = 3;

/// Errors surfaced by [`crate::Comm`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A buffer handle was invalid (never allocated or already freed).
    InvalidBuffer(u64),
    /// An offset/length pair fell outside a buffer.
    OutOfRange {
        /// Buffer the access targeted.
        buf: u64,
        /// Requested offset.
        off: usize,
        /// Requested length.
        len: usize,
        /// Actual buffer capacity.
        cap: usize,
    },
    /// A remote token referenced a rank outside the domain.
    BadRank(usize),
    /// The kernel-assisted permission check failed (e.g. the target
    /// process revoked the exposure, or ptrace scope forbids the attach).
    PermissionDenied,
    /// A kernel-assisted transfer moved fewer bytes than requested.
    Truncated {
        /// Bytes requested.
        wanted: usize,
        /// Bytes actually moved.
        got: usize,
    },
    /// A bounded wait (e.g. a control-message receive with a deadline)
    /// expired before the operation completed.
    Timeout {
        /// How long the caller waited, in nanoseconds (virtual ns on the
        /// simulated transports).
        waited_ns: u64,
    },
    /// Internal protocol violation (malformed control message, tag misuse).
    Protocol(String),
    /// Operating-system error (errno) from the real transport.
    Os(i32),
    /// The membership layer declared this peer dead: either the transport
    /// reported `ESRCH` for an operation involving it, or a liveness
    /// deadline expired while waiting on it. Carries the suspected rank
    /// (in the *parent* communicator's numbering).
    PeerDead(usize),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::InvalidBuffer(b) => write!(f, "invalid buffer handle {b}"),
            CommError::OutOfRange { buf, off, len, cap } => write!(
                f,
                "access [{off}, {off}+{len}) out of range for buffer {buf} of {cap} bytes"
            ),
            CommError::BadRank(r) => write!(f, "rank {r} outside communication domain"),
            CommError::PermissionDenied => write!(f, "kernel-assisted access permission denied"),
            CommError::Truncated { wanted, got } => {
                write!(f, "transfer truncated: wanted {wanted} bytes, moved {got}")
            }
            CommError::Timeout { waited_ns } => {
                write!(f, "operation timed out after {waited_ns} ns")
            }
            CommError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            CommError::Os(errno) => write!(f, "os error (errno {errno})"),
            CommError::PeerDead(r) => write!(f, "peer rank {r} suspected dead"),
        }
    }
}

impl std::error::Error for CommError {}

/// Result alias for [`crate::Comm`] operations.
pub type Result<T> = std::result::Result<T, CommError>;

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CommError::OutOfRange {
            buf: 3,
            off: 10,
            len: 20,
            cap: 16,
        };
        let s = e.to_string();
        assert!(s.contains("buffer 3"));
        assert!(s.contains("16 bytes"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(CommError::PermissionDenied, CommError::PermissionDenied);
        assert_ne!(CommError::BadRank(1), CommError::BadRank(2));
    }
}
