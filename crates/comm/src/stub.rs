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
    fn ctrl_recv(&mut self, _from: usize, _tag: Tag) -> Result<Vec<u8>> {
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
    fn shm_recv_data(
        &mut self,
        _f: usize,
        _tag: Tag,
        _d: BufId,
        _o: usize,
        _l: usize,
    ) -> Result<()> {
        Ok(())
    }
    fn time_ns(&self) -> u64 {
        0
    }
}
