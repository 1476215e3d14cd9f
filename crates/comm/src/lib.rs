#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Foundation types for kacc: the [`Comm`] / [`AsyncComm`] endpoint
//! traits, buffer handles, node topology, and small-message
//! shared-memory collectives.
//!
//! A [`Comm`] is one rank's blocking endpoint into an intra-node
//! communication domain; [`AsyncComm`] is the same surface with `async`
//! operations. The schedule executor, the membership loop and the
//! library personas are written once against [`AsyncComm`] and run
//! unchanged on:
//!
//! * the deterministic machine simulator (`kacc-machine::PolledComm`, a
//!   native [`AsyncComm`]), which charges virtual time according to a
//!   mechanistic contention model,
//! * the real Linux transport (`kacc-native::NativeComm`), which issues
//!   actual `process_vm_readv`/`process_vm_writev` syscalls between forked
//!   processes, and
//! * an in-process thread transport (`kacc-native::ThreadComm`) for
//!   portable functional tests,
//!
//! the blocking ones through the [`Blocking`] adapter and [`block_on`].
//!
//! The data plane mirrors what a native CMA collective needs: processes
//! allocate buffers, *expose* them to peers as [`RemoteToken`]s (the
//! moral equivalent of a `(pid, address)` pair), exchange those tokens
//! over the small-message control plane, and then move bulk data with
//! single-copy [`Comm::cma_read`] / [`Comm::cma_write`] operations or
//! two-copy [`Comm::shm_send_data`] / [`Comm::shm_recv_deadline`] transfers.

pub mod asynccomm;
pub mod buffer;
pub mod error;
pub mod mask;
pub mod smcoll;
pub mod stub;
pub mod tagclass;
pub mod topology;

pub use asynccomm::{block_on, AsyncComm, Blocking};
pub use buffer::{BufId, RemoteToken};
pub use error::{CommError, Result, ESRCH};
pub use mask::MemberMask;
pub use topology::Topology;

/// Message tag for control-plane matching. Matching is FIFO per
/// `(source, tag)` pair, like MPI with a fixed communicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u32);

impl Tag {
    /// Tags below this value are free for application use; the collective
    /// implementations use tags at or above it.
    pub const USER_MAX: u32 = 0x1000_0000;

    /// An application-level tag (asserts it stays out of the reserved range).
    pub fn user(t: u32) -> Tag {
        assert!(
            t < Self::USER_MAX,
            "tag {t:#x} collides with reserved range"
        );
        Tag(t)
    }

    /// A tag reserved for internal protocol use. `class` selects a protocol
    /// family (each collective algorithm uses its own class).
    pub const fn internal(class: u32, sub: u32) -> Tag {
        Tag(Self::USER_MAX + class * 0x1_0000 + sub)
    }

    /// Protocol class of an internal tag (inverse of [`Tag::internal`]), or
    /// `None` for application tags. Drives per-collective attribution in
    /// trace events.
    pub const fn class(self) -> Option<u32> {
        if self.0 >= Self::USER_MAX {
            Some((self.0 - Self::USER_MAX) >> 16)
        } else {
            None
        }
    }
}

/// One rank's endpoint into an intra-node communication domain.
///
/// All operations are blocking. Control-plane sends (`ctrl_send`) are
/// buffered and never block, which keeps arbitrary collective exchange
/// patterns deadlock-free; everything else blocks until the data movement
/// it represents has completed.
pub trait Comm {
    /// This endpoint's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the domain.
    fn size(&self) -> usize;

    /// Topology of the node this domain lives on.
    fn topology(&self) -> Topology;

    /// Which node hosts `rank`. Intra-node domains return 0 for everyone;
    /// cluster domains (kacc-netsim) partition ranks across nodes.
    /// Kernel-assisted ops only work between ranks on the same node.
    fn node_of(&self, rank: usize) -> usize {
        let _ = rank;
        0
    }

    /// Allocate a data buffer of `len` bytes, zero-initialized.
    fn alloc(&mut self, len: usize) -> BufId;

    /// Release a buffer. Outstanding remote tokens for it become invalid.
    fn free(&mut self, buf: BufId) -> Result<()>;

    /// Length of a buffer.
    fn buf_len(&self, buf: BufId) -> Result<usize>;

    /// Store bytes into a local buffer. This is a test/setup convenience
    /// and is *not* charged as communication time.
    fn write_local(&mut self, buf: BufId, off: usize, data: &[u8]) -> Result<()>;

    /// Load bytes from a local buffer. Not charged as communication time.
    fn read_local(&self, buf: BufId, off: usize, out: &mut [u8]) -> Result<()>;

    /// `memcpy` between two local buffers, charged at local copy cost.
    /// Used for `MPI_IN_PLACE`-style root copies and Bruck shifts.
    fn copy_local(
        &mut self,
        src: BufId,
        src_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()>;

    /// Expose a buffer for single-copy access by peers. The returned token
    /// can be serialized into a control message with
    /// [`RemoteToken::to_bytes`].
    fn expose(&mut self, buf: BufId) -> Result<RemoteToken>;

    /// Single-copy read from a peer's exposed buffer into a local buffer
    /// (the moral equivalent of `process_vm_readv`). Blocks for the full
    /// syscall + permission check + page lock/pin + copy cost.
    fn cma_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()>;

    /// Single-copy write into a peer's exposed buffer from a local buffer
    /// (the moral equivalent of `process_vm_writev`).
    fn cma_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()>;

    /// Buffered small-message send on the shared-memory control plane.
    /// Never blocks. Intended for addresses, notifications and
    /// synchronization (RTS/CTS, 0-byte messages).
    fn ctrl_send(&mut self, to: usize, tag: Tag, data: &[u8]) -> Result<()>;

    /// Receive the next control message from `(from, tag)`, waiting at
    /// most `timeout_ns` nanoseconds on this transport's clock; `None`
    /// waits for as long as it takes. On expiry the transport returns
    /// [`CommError::Timeout`] carrying `timeout_ns`, and the message, if
    /// it arrives later, stays claimable by the next receive. The
    /// executor's step-timeout recovery bounds every receive this way,
    /// turning a silent hang (lost control message, dead peer) into a
    /// typed error.
    fn ctrl_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        timeout_ns: Option<u64>,
    ) -> Result<Vec<u8>>;

    /// Blocking receive of the next control message from `(from, tag)`.
    fn ctrl_recv(&mut self, from: usize, tag: Tag) -> Result<Vec<u8>> {
        self.ctrl_recv_deadline(from, tag, None)
    }

    /// Sleep for `ns` nanoseconds on this transport's clock: virtual time
    /// under simulation, wall-clock on real transports. Used for retry
    /// backoff so recovery charges time the same way the transport does.
    fn sleep_ns(&mut self, ns: u64) {
        std::thread::sleep(std::time::Duration::from_nanos(ns));
    }

    /// Two-copy shared-memory bulk send: copies `len` bytes from the local
    /// buffer into a shared staging area (first copy) and posts a
    /// descriptor. Blocks only for the sender-side copy.
    fn shm_send_data(
        &mut self,
        to: usize,
        tag: Tag,
        src: BufId,
        off: usize,
        len: usize,
    ) -> Result<()>;

    /// Two-copy shared-memory bulk receive: waits for the matching
    /// descriptor, then copies out of staging into the local buffer
    /// (second copy). The wait is bounded like
    /// [`Comm::ctrl_recv_deadline`]'s: on [`CommError::Timeout`] nothing
    /// has landed in `dst` and the message stays claimable.
    fn shm_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
        timeout_ns: Option<u64>,
    ) -> Result<()>;

    /// Blocking two-copy bulk receive: [`Comm::shm_recv_deadline`]
    /// without a deadline.
    fn shm_recv_data(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
    ) -> Result<()> {
        self.shm_recv_deadline(from, tag, dst, off, len, None)
    }

    /// Two-copy fallback read from a peer's exposed buffer, used when the
    /// single-copy CMA path persistently fails (permission revoked, ptrace
    /// scope). Same addressing as [`Comm::cma_read`] but staged through
    /// shared memory, so it works without kernel-assisted access. Costs
    /// two copies instead of one.
    ///
    /// The default reports the fallback as unsupported; transports that
    /// can stage through shared memory override it.
    fn shm_fallback_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        let _ = (token, remote_off, dst, dst_off, len);
        Err(CommError::Protocol(
            "two-copy fallback not supported by this transport".to_string(),
        ))
    }

    /// Two-copy fallback write into a peer's exposed buffer; the write
    /// counterpart of [`Comm::shm_fallback_read`].
    fn shm_fallback_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        let _ = (token, remote_off, src, src_off, len);
        Err(CommError::Protocol(
            "two-copy fallback not supported by this transport".to_string(),
        ))
    }

    /// Monotone time in nanoseconds: virtual time under simulation, a
    /// monotonic clock on real transports.
    fn time_ns(&self) -> u64;

    /// The tracer receiving this transport's structured events. Layers
    /// above the transport (e.g. the schedule executor) emit their spans
    /// here so one traced run carries every layer's events. Defaults to
    /// the disabled tracer; transports with a live sink override it.
    fn tracer(&self) -> kacc_trace::Tracer {
        kacc_trace::Tracer::off()
    }
}

/// Convenience extension methods shared by every [`Comm`] implementation.
pub trait CommExt: Comm {
    /// Allocate a buffer holding `data`.
    fn alloc_with(&mut self, data: &[u8]) -> BufId {
        let b = self.alloc(data.len());
        self.write_local(b, 0, data)
            .expect("fresh buffer accepts write");
        b
    }

    /// Read an entire buffer out as a vector (test convenience).
    fn read_all(&self, buf: BufId) -> Result<Vec<u8>> {
        let len = self.buf_len(buf)?;
        let mut out = vec![0u8; len];
        self.read_local(buf, 0, &mut out)?;
        Ok(out)
    }

    /// Send a 0-byte notification.
    fn notify(&mut self, to: usize, tag: Tag) -> Result<()> {
        self.ctrl_send(to, tag, &[])
    }

    /// Wait for a 0-byte notification.
    fn wait_notify(&mut self, from: usize, tag: Tag) -> Result<()> {
        let msg = self.ctrl_recv(from, tag)?;
        if msg.is_empty() {
            Ok(())
        } else {
            Err(CommError::Protocol(format!(
                "expected 0-byte notification from rank {from}, got {} bytes",
                msg.len()
            )))
        }
    }

    /// True if `self.rank()` and `other` share a CPU socket under the
    /// domain's process-to-core mapping.
    fn same_socket(&self, other: usize) -> bool {
        let t = self.topology();
        t.socket_of(self.rank()) == t.socket_of(other)
    }
}

impl<C: Comm + ?Sized> CommExt for C {}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn tag_user_range_is_disjoint_from_internal() {
        let u = Tag::user(Tag::USER_MAX - 1);
        let i = Tag::internal(0, 0);
        assert!(u.0 < i.0);
    }

    #[test]
    fn tag_internal_classes_do_not_collide() {
        let a = Tag::internal(1, 0xFFFF);
        let b = Tag::internal(2, 0);
        assert!(a.0 < b.0);
    }

    #[test]
    fn tag_class_round_trips() {
        assert_eq!(Tag::internal(17, 2).class(), Some(17));
        assert_eq!(Tag::internal(0, 0xFFFF).class(), Some(0));
        assert_eq!(Tag::user(5).class(), None);
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn tag_user_rejects_reserved_range() {
        let _ = Tag::user(Tag::USER_MAX);
    }
}
