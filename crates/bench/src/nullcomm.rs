//! A single-rank, instant-cost transport for executor probes.
//!
//! Every operation completes immediately and `time_ns` never advances,
//! so replaying a schedule on [`NullComm`] measures executor dispatch
//! and recording overhead, not data movement. The benchmark's
//! `collectives.exec_step_ns` and `trace.buffered_step_ns` probes replay
//! their 513-step schedule on it.

use kacc_comm::{BufId, Comm, CommError, RemoteToken, Result, Tag, Topology};
use std::collections::HashMap;

/// Single-rank in-memory transport with zero-cost operations.
pub struct NullComm {
    bufs: HashMap<u64, Vec<u8>>,
    next: u64,
}

impl NullComm {
    /// A fresh endpoint with no buffers.
    pub fn new() -> NullComm {
        NullComm {
            bufs: HashMap::new(),
            next: 0,
        }
    }

    fn buf(&self, b: BufId) -> Result<&Vec<u8>> {
        self.bufs.get(&b.0).ok_or(CommError::InvalidBuffer(b.0))
    }
}

impl Default for NullComm {
    fn default() -> Self {
        NullComm::new()
    }
}

impl Comm for NullComm {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn topology(&self) -> Topology {
        Topology {
            sockets: 1,
            cores_per_socket: 1,
            threads_per_core: 1,
            page_size: 4096,
        }
    }

    fn alloc(&mut self, len: usize) -> BufId {
        let id = self.next;
        self.next += 1;
        self.bufs.insert(id, vec![0u8; len]);
        BufId(id)
    }

    fn free(&mut self, buf: BufId) -> Result<()> {
        self.bufs
            .remove(&buf.0)
            .map(|_| ())
            .ok_or(CommError::InvalidBuffer(buf.0))
    }

    fn buf_len(&self, buf: BufId) -> Result<usize> {
        Ok(self.buf(buf)?.len())
    }

    fn write_local(&mut self, buf: BufId, off: usize, data: &[u8]) -> Result<()> {
        self.buf(buf)?;
        self.bufs.get_mut(&buf.0).expect("buffer checked above")[off..off + data.len()]
            .copy_from_slice(data);
        Ok(())
    }

    fn read_local(&self, buf: BufId, off: usize, out: &mut [u8]) -> Result<()> {
        out.copy_from_slice(&self.buf(buf)?[off..off + out.len()]);
        Ok(())
    }

    fn copy_local(
        &mut self,
        src: BufId,
        src_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        let chunk = self.buf(src)?[src_off..src_off + len].to_vec();
        self.write_local(dst, dst_off, &chunk)
    }

    fn expose(&mut self, buf: BufId) -> Result<RemoteToken> {
        self.buf(buf)?;
        Ok(RemoteToken {
            rank: 0,
            token: buf.0,
        })
    }

    fn cma_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.copy_local(BufId(token.token), remote_off, dst, dst_off, len)
    }

    fn cma_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        self.copy_local(src, src_off, BufId(token.token), remote_off, len)
    }

    fn ctrl_send(&mut self, _to: usize, _tag: Tag, _data: &[u8]) -> Result<()> {
        unimplemented!("single-rank demo schedule has no control traffic")
    }

    fn ctrl_recv_deadline(
        &mut self,
        _from: usize,
        _tag: Tag,
        _timeout_ns: Option<u64>,
    ) -> Result<Vec<u8>> {
        unimplemented!("single-rank demo schedule has no control traffic")
    }

    fn shm_send_data(
        &mut self,
        _to: usize,
        _tag: Tag,
        _src: BufId,
        _off: usize,
        _len: usize,
    ) -> Result<()> {
        unimplemented!("single-rank demo schedule has no shm traffic")
    }

    fn shm_recv_deadline(
        &mut self,
        _from: usize,
        _tag: Tag,
        _dst: BufId,
        _off: usize,
        _len: usize,
        _timeout_ns: Option<u64>,
    ) -> Result<()> {
        unimplemented!("single-rank demo schedule has no shm traffic")
    }

    fn time_ns(&self) -> u64 {
        0
    }

    fn sleep_ns(&mut self, _ns: u64) {
        // Instant-cost transport: backoff is free, like everything else.
    }
}
