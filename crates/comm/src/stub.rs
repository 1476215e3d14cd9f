//! A do-nothing endpoint for tests of the layers above the transport.

use crate::{BufId, Comm, RemoteToken, Result, Tag, Topology};

/// A minimal in-memory [`Comm`]: every operation succeeds and moves
/// nothing, receives return empty messages, and the clock stands at 0
/// (the full transports exercise the real data plane in integration
/// tests).
pub struct StubComm {
    /// This endpoint's rank.
    pub rank: usize,
    /// Number of ranks it claims.
    pub size: usize,
}

impl Comm for StubComm {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.size
    }
    fn topology(&self) -> Topology {
        Topology::flat(self.size)
    }
    fn alloc(&mut self, _len: usize) -> BufId {
        BufId(0)
    }
    fn free(&mut self, _buf: BufId) -> Result<()> {
        Ok(())
    }
    fn buf_len(&self, _buf: BufId) -> Result<usize> {
        Ok(0)
    }
    fn write_local(&mut self, _b: BufId, _o: usize, _d: &[u8]) -> Result<()> {
        Ok(())
    }
    fn read_local(&self, _b: BufId, _o: usize, _out: &mut [u8]) -> Result<()> {
        Ok(())
    }
    fn copy_local(
        &mut self,
        _s: BufId,
        _so: usize,
        _d: BufId,
        _do: usize,
        _l: usize,
    ) -> Result<()> {
        Ok(())
    }
    fn expose(&mut self, buf: BufId) -> Result<RemoteToken> {
        Ok(RemoteToken {
            rank: self.rank as u64,
            token: buf.0,
        })
    }
    fn cma_read(
        &mut self,
        _t: RemoteToken,
        _ro: usize,
        _d: BufId,
        _do: usize,
        _l: usize,
    ) -> Result<()> {
        Ok(())
    }
    fn cma_write(
        &mut self,
        _t: RemoteToken,
        _ro: usize,
        _s: BufId,
        _so: usize,
        _l: usize,
    ) -> Result<()> {
        Ok(())
    }
    fn ctrl_send(&mut self, _to: usize, _tag: Tag, _d: &[u8]) -> Result<()> {
        Ok(())
    }
    fn ctrl_recv_deadline(&mut self, _from: usize, _tag: Tag, _t: Option<u64>) -> Result<Vec<u8>> {
        Ok(Vec::new())
    }
    fn shm_send_data(
        &mut self,
        _to: usize,
        _tag: Tag,
        _s: BufId,
        _o: usize,
        _l: usize,
    ) -> Result<()> {
        Ok(())
    }
    fn shm_recv_deadline(
        &mut self,
        _f: usize,
        _tag: Tag,
        _d: BufId,
        _o: usize,
        _l: usize,
        _t: Option<u64>,
    ) -> Result<()> {
        Ok(())
    }
    fn time_ns(&self) -> u64 {
        0
    }
}

/// A [`StubComm`] with a clock: every operation behaves as the stub's,
/// and `time_ns` returns `clock()` — a real `Instant` to time the layers
/// above the transport alone, or a scripted sequence to pin what they
/// measure.
pub struct Clocked<F: Fn() -> u64> {
    /// The endpoint every operation goes to.
    pub stub: StubComm,
    /// The clock `time_ns` reads.
    pub clock: F,
}

impl<F: Fn() -> u64> Comm for Clocked<F> {
    fn rank(&self) -> usize {
        self.stub.rank()
    }
    fn size(&self) -> usize {
        self.stub.size()
    }
    fn topology(&self) -> Topology {
        self.stub.topology()
    }
    fn alloc(&mut self, len: usize) -> BufId {
        self.stub.alloc(len)
    }
    fn free(&mut self, buf: BufId) -> Result<()> {
        self.stub.free(buf)
    }
    fn buf_len(&self, buf: BufId) -> Result<usize> {
        self.stub.buf_len(buf)
    }
    fn write_local(&mut self, b: BufId, o: usize, d: &[u8]) -> Result<()> {
        self.stub.write_local(b, o, d)
    }
    fn read_local(&self, b: BufId, o: usize, out: &mut [u8]) -> Result<()> {
        self.stub.read_local(b, o, out)
    }
    fn copy_local(&mut self, s: BufId, so: usize, d: BufId, doff: usize, l: usize) -> Result<()> {
        self.stub.copy_local(s, so, d, doff, l)
    }
    fn expose(&mut self, buf: BufId) -> Result<RemoteToken> {
        self.stub.expose(buf)
    }
    fn cma_read(
        &mut self,
        t: RemoteToken,
        ro: usize,
        d: BufId,
        doff: usize,
        l: usize,
    ) -> Result<()> {
        self.stub.cma_read(t, ro, d, doff, l)
    }
    fn cma_write(
        &mut self,
        t: RemoteToken,
        ro: usize,
        s: BufId,
        so: usize,
        l: usize,
    ) -> Result<()> {
        self.stub.cma_write(t, ro, s, so, l)
    }
    fn ctrl_send(&mut self, to: usize, tag: Tag, d: &[u8]) -> Result<()> {
        self.stub.ctrl_send(to, tag, d)
    }
    fn ctrl_recv_deadline(&mut self, from: usize, tag: Tag, t: Option<u64>) -> Result<Vec<u8>> {
        self.stub.ctrl_recv_deadline(from, tag, t)
    }
    fn shm_send_data(&mut self, to: usize, tag: Tag, s: BufId, o: usize, l: usize) -> Result<()> {
        self.stub.shm_send_data(to, tag, s, o, l)
    }
    fn shm_recv_deadline(
        &mut self,
        f: usize,
        tag: Tag,
        d: BufId,
        o: usize,
        l: usize,
        t: Option<u64>,
    ) -> Result<()> {
        self.stub.shm_recv_deadline(f, tag, d, o, l, t)
    }
    fn time_ns(&self) -> u64 {
        (self.clock)()
    }
}
