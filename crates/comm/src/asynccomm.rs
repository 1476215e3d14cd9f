//! The async endpoint interface: one surface for the polled simulator
//! and the blocking transports.
//!
//! [`AsyncComm`] is the [`Comm`] surface with `async fn` on every
//! operation that can charge time. Everything above the transport — the
//! schedule executor, the membership loop, the library personas — is
//! written once against it:
//!
//! * the polled simulator's endpoint implements it natively (its
//!   operations suspend the rank task and the single-threaded kernel
//!   resumes it at the right virtual time);
//! * every blocking transport ([`Comm`]: the thread and forked-process
//!   transports, the null transport, the threads simulator) implements it
//!   through the [`Blocking`] adapter, whose futures do the work inside
//!   their first poll and are never pending. [`block_on`] drives such a
//!   future to completion with exactly one poll.
//!
//! Dispatch is static and nothing is boxed: a generic body instantiated
//! over `Blocking<C>` compiles down to the straight-line blocking calls.

use crate::{BufId, Comm, CommError, RemoteToken, Result, Tag, Topology};
use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

/// One rank's endpoint, async flavor. Method for method the contract of
/// [`Comm`]; see there for what each operation means and costs.
///
/// Futures are not required to be `Send`: a rank's body runs on one
/// thread from start to finish on every transport.
#[allow(async_fn_in_trait)]
pub trait AsyncComm {
    /// This endpoint's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the domain.
    fn size(&self) -> usize;

    /// Topology of the node this domain lives on.
    fn topology(&self) -> Topology;

    /// Which node hosts `rank` (see [`Comm::node_of`]).
    fn node_of(&self, rank: usize) -> usize;

    /// Allocate a zero-initialized data buffer of `len` bytes.
    fn alloc(&mut self, len: usize) -> BufId;

    /// Release a buffer.
    fn free(&mut self, buf: BufId) -> Result<()>;

    /// Length of a buffer.
    fn buf_len(&self, buf: BufId) -> Result<usize>;

    /// Store bytes into a local buffer (not charged).
    fn write_local(&mut self, buf: BufId, off: usize, data: &[u8]) -> Result<()>;

    /// Load bytes from a local buffer (not charged).
    fn read_local(&self, buf: BufId, off: usize, out: &mut [u8]) -> Result<()>;

    /// Monotone time in nanoseconds on this transport's clock.
    fn time_ns(&self) -> u64;

    /// The tracer receiving this transport's structured events.
    fn tracer(&self) -> kacc_trace::Tracer;

    /// `memcpy` between two local buffers, charged at local copy cost.
    async fn copy_local(
        &mut self,
        src: BufId,
        src_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()>;

    /// Expose a buffer for single-copy access by peers.
    async fn expose(&mut self, buf: BufId) -> Result<RemoteToken>;

    /// Single-copy read from a peer's exposed buffer.
    async fn cma_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()>;

    /// Single-copy write into a peer's exposed buffer.
    async fn cma_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()>;

    /// Buffered small-message send on the control plane.
    async fn ctrl_send(&mut self, to: usize, tag: Tag, data: &[u8]) -> Result<()>;

    /// Receive the next control message from `(from, tag)` within
    /// `timeout_ns` (`None` waits indefinitely); expiry is
    /// [`CommError::Timeout`] and leaves the message claimable.
    async fn ctrl_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        timeout_ns: Option<u64>,
    ) -> Result<Vec<u8>>;

    /// Receive the next control message from `(from, tag)`.
    async fn ctrl_recv(&mut self, from: usize, tag: Tag) -> Result<Vec<u8>> {
        self.ctrl_recv_deadline(from, tag, None).await
    }

    /// Sleep for `ns` nanoseconds on this transport's clock.
    async fn sleep_ns(&mut self, ns: u64);

    /// Two-copy shared-memory bulk send.
    async fn shm_send_data(
        &mut self,
        to: usize,
        tag: Tag,
        src: BufId,
        off: usize,
        len: usize,
    ) -> Result<()>;

    /// Two-copy shared-memory bulk receive within `timeout_ns` (`None`
    /// waits indefinitely); expiry is [`CommError::Timeout`] with nothing
    /// landed in `dst`.
    async fn shm_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
        timeout_ns: Option<u64>,
    ) -> Result<()>;

    /// Two-copy shared-memory bulk receive.
    async fn shm_recv_data(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
    ) -> Result<()> {
        self.shm_recv_deadline(from, tag, dst, off, len, None).await
    }

    /// Two-copy fallback read from a peer's exposed buffer.
    async fn shm_fallback_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()>;

    /// Two-copy fallback write into a peer's exposed buffer.
    async fn shm_fallback_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()>;

    /// Send a 0-byte notification.
    async fn notify(&mut self, to: usize, tag: Tag) -> Result<()> {
        self.ctrl_send(to, tag, &[]).await
    }

    /// Wait for a 0-byte notification.
    async fn wait_notify(&mut self, from: usize, tag: Tag) -> Result<()> {
        let msg = self.ctrl_recv(from, tag).await?;
        if msg.is_empty() {
            Ok(())
        } else {
            Err(CommError::Protocol(format!(
                "expected 0-byte notification from rank {from}, got {} bytes",
                msg.len()
            )))
        }
    }
}

/// Adapter that presents a blocking [`Comm`] as an [`AsyncComm`]: every
/// operation runs to completion inside the first poll of its future, so
/// the futures are never pending and [`block_on`] can drive them.
pub struct Blocking<'a, C: Comm + ?Sized>(pub &'a mut C);

impl<C: Comm + ?Sized> AsyncComm for Blocking<'_, C> {
    fn rank(&self) -> usize {
        self.0.rank()
    }

    fn size(&self) -> usize {
        self.0.size()
    }

    fn topology(&self) -> Topology {
        self.0.topology()
    }

    fn node_of(&self, rank: usize) -> usize {
        self.0.node_of(rank)
    }

    fn alloc(&mut self, len: usize) -> BufId {
        self.0.alloc(len)
    }

    fn free(&mut self, buf: BufId) -> Result<()> {
        self.0.free(buf)
    }

    fn buf_len(&self, buf: BufId) -> Result<usize> {
        self.0.buf_len(buf)
    }

    fn write_local(&mut self, buf: BufId, off: usize, data: &[u8]) -> Result<()> {
        self.0.write_local(buf, off, data)
    }

    fn read_local(&self, buf: BufId, off: usize, out: &mut [u8]) -> Result<()> {
        self.0.read_local(buf, off, out)
    }

    fn time_ns(&self) -> u64 {
        self.0.time_ns()
    }

    fn tracer(&self) -> kacc_trace::Tracer {
        self.0.tracer()
    }

    async fn copy_local(
        &mut self,
        src: BufId,
        src_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.0.copy_local(src, src_off, dst, dst_off, len)
    }

    async fn expose(&mut self, buf: BufId) -> Result<RemoteToken> {
        self.0.expose(buf)
    }

    async fn cma_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.0.cma_read(token, remote_off, dst, dst_off, len)
    }

    async fn cma_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        self.0.cma_write(token, remote_off, src, src_off, len)
    }

    async fn ctrl_send(&mut self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        self.0.ctrl_send(to, tag, data)
    }

    async fn ctrl_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        timeout_ns: Option<u64>,
    ) -> Result<Vec<u8>> {
        self.0.ctrl_recv_deadline(from, tag, timeout_ns)
    }

    async fn sleep_ns(&mut self, ns: u64) {
        self.0.sleep_ns(ns);
    }

    async fn shm_send_data(
        &mut self,
        to: usize,
        tag: Tag,
        src: BufId,
        off: usize,
        len: usize,
    ) -> Result<()> {
        self.0.shm_send_data(to, tag, src, off, len)
    }

    async fn shm_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
        timeout_ns: Option<u64>,
    ) -> Result<()> {
        self.0
            .shm_recv_deadline(from, tag, dst, off, len, timeout_ns)
    }

    async fn shm_fallback_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.0
            .shm_fallback_read(token, remote_off, dst, dst_off, len)
    }

    async fn shm_fallback_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        self.0
            .shm_fallback_write(token, remote_off, src, src_off, len)
    }
}

/// Drive a future over a [`Blocking`] endpoint to completion with a
/// single poll.
///
/// # Panics
///
/// Panics if the future is pending: that means it awaited something
/// other than a blocking transport (a polled-simulator endpoint, a
/// timer, a channel), which only the polled kernel can resume.
// Inlined so the (multi-KB) executor future is built and polled in the
// caller's frame instead of being copied into this one: the copy was
// +70 ns per collective call on the real transports.
#[inline]
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut cx = Context::from_waker(Waker::noop());
    match pin!(fut).poll(&mut cx) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!(
            "block_on: future is pending — the blocking-transport contract is that every \
             `Blocking` operation completes inside its first poll; run suspending endpoints \
             on the polled kernel instead"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stub::StubComm;

    #[test]
    fn blocking_drives_a_dyn_comm_through_the_async_surface() {
        let mut stub = StubComm { rank: 2, size: 8 };
        let comm: &mut dyn Comm = &mut stub;
        let mut b = Blocking(comm);
        assert_eq!((b.rank(), b.size()), (2, 8));
        let token = block_on(async {
            b.notify(1, Tag::user(0)).await?;
            b.wait_notify(1, Tag::user(0)).await?;
            let buf = b.alloc(8);
            b.expose(buf).await
        });
        assert_eq!(token.map(|t| t.rank), Ok(2));
    }

    #[test]
    fn block_on_returns_a_ready_future() {
        assert_eq!(block_on(async { 6 * 7 }), 42);
        // Nested awaits of ready futures still finish in one poll.
        let nested = async {
            let a = std::future::ready(40).await;
            a + async { 2 }.await
        };
        assert_eq!(block_on(nested), 42);
    }

    #[test]
    #[should_panic(expected = "blocking-transport contract")]
    fn block_on_panics_on_a_pending_future() {
        block_on(std::future::pending::<()>());
    }
}
