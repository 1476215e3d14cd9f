//! In-process thread transport: the same [`Comm`] semantics as the
//! forked transport, with threads instead of processes and memcpy
//! instead of syscalls. Portable reference implementation used by
//! integration tests and cross-transport differential checks.

use kacc_comm::{BufId, Comm, CommError, RemoteToken, Result, Tag, Topology};
use kacc_fault::{FaultDecision, FaultHook, FaultOp, FaultSite};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// (owner rank, buffer id) → shared contents.
type BufMap = HashMap<(usize, u64), Arc<Mutex<Vec<u8>>>>;
/// (to, from, tag) → FIFO of undelivered messages.
type MailMap = HashMap<(usize, usize, u32), VecDeque<Vec<u8>>>;

struct Hub {
    p: usize,
    bufs: Mutex<BufMap>,
    exposed: Mutex<HashSet<(usize, u64)>>,
    /// A single condvar fans out mail wake-ups (simple, correct, fine at
    /// test scale).
    mail: Mutex<MailMap>,
    mail_cv: Condvar,
    start: Instant,
    /// Fault injector shared by all ranks; off unless installed by
    /// [`run_threads_faulty`].
    fault: FaultHook,
}

/// Thread-backed endpoint.
pub struct ThreadComm {
    hub: Arc<Hub>,
    rank: usize,
    next_buf: u64,
}

impl ThreadComm {
    fn check(&self, buf: BufId, off: usize, len: usize) -> Result<usize> {
        let cap = self.buf_len(buf)?;
        if off.checked_add(len).is_none_or(|end| end > cap) {
            return Err(CommError::OutOfRange {
                buf: buf.0,
                off,
                len,
                cap,
            });
        }
        Ok(cap)
    }

    fn buf_arc(&self, owner: usize, id: u64) -> Result<Arc<Mutex<Vec<u8>>>> {
        self.hub
            .bufs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(owner, id))
            .cloned()
            .ok_or(CommError::InvalidBuffer(id))
    }

    /// Consult the fault hook for one site; injected delays sleep in
    /// place (wall clock — this transport's notion of time).
    fn fault_gate(&self, peer: Option<usize>, op: FaultOp, len: usize) -> FaultDecision {
        if !self.hub.fault.on() {
            return FaultDecision::Allow;
        }
        let d = self.hub.fault.decide(&FaultSite {
            rank: self.rank,
            peer,
            op,
            len,
        });
        let d = if op.is_cma() { d } else { d.no_partial() };
        if let FaultDecision::Delay { ns } = d {
            std::thread::sleep(Duration::from_nanos(ns));
            return FaultDecision::Allow;
        }
        d
    }

    /// Two-copy degradation path shared by `shm_fallback_read`/`write`:
    /// same addressing and exposure rules as the CMA ops, staged through
    /// an intermediate vector (the "shared staging" copy).
    fn fallback_transfer(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        local: BufId,
        local_off: usize,
        len: usize,
        write: bool,
    ) -> Result<()> {
        let peer = token.rank as usize;
        if peer >= self.hub.p {
            return Err(CommError::BadRank(peer));
        }
        let op = if write {
            FaultOp::FallbackWrite
        } else {
            FaultOp::FallbackRead
        };
        if let FaultDecision::Fail(e) = self.fault_gate(Some(peer), op, len) {
            return Err(e);
        }
        if !self
            .hub
            .exposed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&(peer, token.token))
        {
            return Err(CommError::PermissionDenied);
        }
        self.check(local, local_off, len)?;
        let remote = self.buf_arc(peer, token.token)?;
        {
            let guard = remote.lock().unwrap_or_else(PoisonError::into_inner);
            if remote_off + len > guard.len() {
                return Err(CommError::OutOfRange {
                    buf: token.token,
                    off: remote_off,
                    len,
                    cap: guard.len(),
                });
            }
        }
        if write {
            let staging = {
                let arc = self.buf_arc(self.rank, local.0)?;
                let guard = arc.lock().unwrap_or_else(PoisonError::into_inner);
                guard[local_off..local_off + len].to_vec()
            };
            remote.lock().unwrap_or_else(PoisonError::into_inner)[remote_off..remote_off + len]
                .copy_from_slice(&staging);
        } else {
            let staging = {
                let guard = remote.lock().unwrap_or_else(PoisonError::into_inner);
                guard[remote_off..remote_off + len].to_vec()
            };
            let arc = self.buf_arc(self.rank, local.0)?;
            arc.lock().unwrap_or_else(PoisonError::into_inner)[local_off..local_off + len]
                .copy_from_slice(&staging);
        }
        Ok(())
    }
}

/// Run `f` on `p` threads sharing one hub; returns per-rank results.
pub fn run_threads<R, F>(p: usize, f: F) -> Vec<R>
where
    F: Fn(&mut ThreadComm) -> R + Send + Sync,
    R: Send,
{
    run_threads_faulty(p, FaultHook::off(), f)
}

/// [`run_threads`] with a fault injector installed: every transport
/// operation consults `hook` before executing.
pub fn run_threads_faulty<R, F>(p: usize, hook: FaultHook, f: F) -> Vec<R>
where
    F: Fn(&mut ThreadComm) -> R + Send + Sync,
    R: Send,
{
    assert!(p >= 1);
    let hub = Arc::new(Hub {
        p,
        bufs: Mutex::new(HashMap::new()),
        exposed: Mutex::new(HashSet::new()),
        mail: Mutex::new(HashMap::new()),
        mail_cv: Condvar::new(),
        start: Instant::now(),
        fault: hook,
    });
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..p)
            .map(|rank| {
                let hub = Arc::clone(&hub);
                let f = &f;
                scope.spawn(move || {
                    let mut comm = ThreadComm {
                        hub,
                        rank,
                        next_buf: 1,
                    };
                    f(&mut comm)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

impl Comm for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.hub.p
    }

    fn topology(&self) -> Topology {
        Topology::flat(self.hub.p)
    }

    fn alloc(&mut self, len: usize) -> BufId {
        let id = self.next_buf;
        self.next_buf += 1;
        self.hub
            .bufs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((self.rank, id), Arc::new(Mutex::new(vec![0u8; len])));
        BufId(id)
    }

    fn free(&mut self, buf: BufId) -> Result<()> {
        self.hub
            .exposed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&(self.rank, buf.0));
        self.hub
            .bufs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&(self.rank, buf.0))
            .map(|_| ())
            .ok_or(CommError::InvalidBuffer(buf.0))
    }

    fn buf_len(&self, buf: BufId) -> Result<usize> {
        Ok(self
            .buf_arc(self.rank, buf.0)?
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len())
    }

    fn write_local(&mut self, buf: BufId, off: usize, data: &[u8]) -> Result<()> {
        self.check(buf, off, data.len())?;
        let arc = self.buf_arc(self.rank, buf.0)?;
        let mut guard = arc.lock().unwrap_or_else(PoisonError::into_inner);
        guard[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn read_local(&self, buf: BufId, off: usize, out: &mut [u8]) -> Result<()> {
        self.check(buf, off, out.len())?;
        let arc = self.buf_arc(self.rank, buf.0)?;
        let guard = arc.lock().unwrap_or_else(PoisonError::into_inner);
        out.copy_from_slice(&guard[off..off + out.len()]);
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
        self.check(src, src_off, len)?;
        self.check(dst, dst_off, len)?;
        // Stage through a temporary so src == dst works and lock order
        // is trivially safe.
        let data = {
            let arc = self.buf_arc(self.rank, src.0)?;
            let guard = arc.lock().unwrap_or_else(PoisonError::into_inner);
            guard[src_off..src_off + len].to_vec()
        };
        let arc = self.buf_arc(self.rank, dst.0)?;
        arc.lock().unwrap_or_else(PoisonError::into_inner)[dst_off..dst_off + len]
            .copy_from_slice(&data);
        Ok(())
    }

    fn expose(&mut self, buf: BufId) -> Result<RemoteToken> {
        if let FaultDecision::Fail(e) = self.fault_gate(None, FaultOp::Expose, 0) {
            return Err(e);
        }
        if !self
            .hub
            .bufs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&(self.rank, buf.0))
        {
            return Err(CommError::InvalidBuffer(buf.0));
        }
        self.hub
            .exposed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((self.rank, buf.0));
        Ok(RemoteToken {
            rank: self.rank as u64,
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
        let peer = token.rank as usize;
        if peer >= self.hub.p {
            return Err(CommError::BadRank(peer));
        }
        // A Truncate decision genuinely moves the first `got` bytes and
        // then reports the short count, mirroring process_vm_readv.
        let (len, trunc) = match self.fault_gate(Some(peer), FaultOp::CmaRead, len) {
            FaultDecision::Fail(e) => return Err(e),
            FaultDecision::Truncate { got } => (got.min(len), Some(len)),
            _ => (len, None),
        };
        if !self
            .hub
            .exposed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&(peer, token.token))
        {
            return Err(CommError::PermissionDenied);
        }
        self.check(dst, dst_off, len)?;
        // Single-copy semantics; staged to keep lock ordering acyclic.
        let data = {
            let arc = self.buf_arc(peer, token.token)?;
            let guard = arc.lock().unwrap_or_else(PoisonError::into_inner);
            if remote_off + len > guard.len() {
                return Err(CommError::OutOfRange {
                    buf: token.token,
                    off: remote_off,
                    len,
                    cap: guard.len(),
                });
            }
            guard[remote_off..remote_off + len].to_vec()
        };
        let arc = self.buf_arc(self.rank, dst.0)?;
        arc.lock().unwrap_or_else(PoisonError::into_inner)[dst_off..dst_off + len]
            .copy_from_slice(&data);
        match trunc {
            Some(wanted) => Err(CommError::Truncated { wanted, got: len }),
            None => Ok(()),
        }
    }

    fn cma_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        let peer = token.rank as usize;
        if peer >= self.hub.p {
            return Err(CommError::BadRank(peer));
        }
        let (len, trunc) = match self.fault_gate(Some(peer), FaultOp::CmaWrite, len) {
            FaultDecision::Fail(e) => return Err(e),
            FaultDecision::Truncate { got } => (got.min(len), Some(len)),
            _ => (len, None),
        };
        if !self
            .hub
            .exposed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&(peer, token.token))
        {
            return Err(CommError::PermissionDenied);
        }
        self.check(src, src_off, len)?;
        let data = {
            let arc = self.buf_arc(self.rank, src.0)?;
            let guard = arc.lock().unwrap_or_else(PoisonError::into_inner);
            guard[src_off..src_off + len].to_vec()
        };
        let arc = self.buf_arc(peer, token.token)?;
        let mut guard = arc.lock().unwrap_or_else(PoisonError::into_inner);
        if remote_off + len > guard.len() {
            return Err(CommError::OutOfRange {
                buf: token.token,
                off: remote_off,
                len,
                cap: guard.len(),
            });
        }
        guard[remote_off..remote_off + len].copy_from_slice(&data);
        drop(guard);
        match trunc {
            Some(wanted) => Err(CommError::Truncated { wanted, got: len }),
            None => Ok(()),
        }
    }

    fn ctrl_send(&mut self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        if to >= self.hub.p {
            return Err(CommError::BadRank(to));
        }
        // Drops surface as typed send failures, never silent losses.
        if let FaultDecision::Fail(e) = self.fault_gate(Some(to), FaultOp::CtrlSend, data.len()) {
            return Err(e);
        }
        let mut mail = self.hub.mail.lock().unwrap_or_else(PoisonError::into_inner);
        mail.entry((to, self.rank, tag.0))
            .or_default()
            .push_back(data.to_vec());
        self.hub.mail_cv.notify_all();
        Ok(())
    }

    fn ctrl_recv(&mut self, from: usize, tag: Tag) -> Result<Vec<u8>> {
        if from >= self.hub.p {
            return Err(CommError::BadRank(from));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(from), FaultOp::CtrlRecv, 0) {
            return Err(e);
        }
        let key = (self.rank, from, tag.0);
        let mut mail = self.hub.mail.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(msg) = mail.get_mut(&key).and_then(|q| q.pop_front()) {
                return Ok(msg);
            }
            mail = self
                .hub
                .mail_cv
                .wait(mail)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn ctrl_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        timeout_ns: u64,
    ) -> Result<Option<Vec<u8>>> {
        if from >= self.hub.p {
            return Err(CommError::BadRank(from));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(from), FaultOp::CtrlRecv, 0) {
            return Err(e);
        }
        let key = (self.rank, from, tag.0);
        let deadline = Instant::now() + Duration::from_nanos(timeout_ns);
        let mut mail = self.hub.mail.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(msg) = mail.get_mut(&key).and_then(|q| q.pop_front()) {
                return Ok(Some(msg));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let (guard, _timed_out) = self
                .hub
                .mail_cv
                .wait_timeout(mail, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            mail = guard;
        }
    }

    fn shm_send_data(
        &mut self,
        to: usize,
        tag: Tag,
        src: BufId,
        off: usize,
        len: usize,
    ) -> Result<()> {
        if to >= self.hub.p {
            return Err(CommError::BadRank(to));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(to), FaultOp::ShmSend, len) {
            return Err(e);
        }
        self.check(src, off, len)?;
        let mut payload = vec![0u8; len];
        self.read_local(src, off, &mut payload)?;
        // Distinct channel from ctrl traffic; posted directly so the
        // bulk path is one fault site, not a nested ctrl_send one.
        let mut mail = self.hub.mail.lock().unwrap_or_else(PoisonError::into_inner);
        mail.entry((to, self.rank, tag.0 | 0x8000_0000))
            .or_default()
            .push_back(payload);
        self.hub.mail_cv.notify_all();
        Ok(())
    }

    fn shm_recv_data(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
    ) -> Result<()> {
        if from >= self.hub.p {
            return Err(CommError::BadRank(from));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(from), FaultOp::ShmRecv, len) {
            return Err(e);
        }
        let key = (self.rank, from, tag.0 | 0x8000_0000);
        let payload = {
            let mut mail = self.hub.mail.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(msg) = mail.get_mut(&key).and_then(|q| q.pop_front()) {
                    break msg;
                }
                mail = self
                    .hub
                    .mail_cv
                    .wait(mail)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if payload.len() != len {
            return Err(CommError::Truncated {
                wanted: len,
                got: payload.len(),
            });
        }
        self.write_local(dst, off, &payload)
    }

    fn shm_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
        timeout_ns: u64,
    ) -> Result<bool> {
        if from >= self.hub.p {
            return Err(CommError::BadRank(from));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(from), FaultOp::ShmRecv, len) {
            return Err(e);
        }
        let key = (self.rank, from, tag.0 | 0x8000_0000);
        let deadline = Instant::now() + Duration::from_nanos(timeout_ns);
        let payload = {
            let mut mail = self.hub.mail.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(msg) = mail.get_mut(&key).and_then(|q| q.pop_front()) {
                    break msg;
                }
                let now = Instant::now();
                if now >= deadline {
                    return Ok(false);
                }
                let (guard, _timed_out) = self
                    .hub
                    .mail_cv
                    .wait_timeout(mail, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                mail = guard;
            }
        };
        if payload.len() != len {
            return Err(CommError::Truncated {
                wanted: len,
                got: payload.len(),
            });
        }
        self.write_local(dst, off, &payload)?;
        Ok(true)
    }

    fn shm_fallback_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.fallback_transfer(token, remote_off, dst, dst_off, len, false)
    }

    fn shm_fallback_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        self.fallback_transfer(token, remote_off, src, src_off, len, true)
    }

    fn time_ns(&self) -> u64 {
        self.hub.start.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use kacc_comm::{block_on, smcoll, Blocking, CommExt};

    #[test]
    fn threads_exchange_via_cma_semantics() {
        let results = run_threads(4, |comm| {
            let me = comm.rank();
            let p = comm.size();
            let src = comm.alloc_with(&[me as u8; 1000]);
            let tok = comm.expose(src).unwrap();
            let toks =
                block_on(smcoll::sm_allgather(&mut Blocking(comm), &tok.to_bytes())).unwrap();
            let dst = comm.alloc(1000);
            let peer = (me + 1) % p;
            let t = RemoteToken::from_bytes(&toks[peer]).unwrap();
            comm.cma_read(t, 0, dst, 0, 1000).unwrap();
            block_on(smcoll::sm_barrier(&mut Blocking(comm))).unwrap();
            comm.read_all(dst).unwrap()
        });
        for (me, got) in results.iter().enumerate() {
            assert_eq!(got[0] as usize, (me + 1) % 4);
        }
    }

    #[test]
    fn unexposed_buffer_is_protected() {
        let results = run_threads(2, |comm| {
            if comm.rank() == 0 {
                let b = comm.alloc(64);
                // Leak the id without exposing.
                comm.ctrl_send(1, Tag::user(1), &b.0.to_le_bytes()).unwrap();
                comm.wait_notify(1, Tag::user(2)).unwrap();
                true
            } else {
                let raw = comm.ctrl_recv(0, Tag::user(1)).unwrap();
                let id = u64::from_le_bytes(raw.try_into().unwrap());
                let dst = comm.alloc(64);
                let err = comm.cma_read(RemoteToken { rank: 0, token: id }, 0, dst, 0, 64);
                comm.notify(0, Tag::user(2)).unwrap();
                err == Err(CommError::PermissionDenied)
            }
        });
        assert!(results.iter().all(|&b| b));
    }

    #[test]
    fn bulk_data_path_roundtrips() {
        let results = run_threads(2, |comm| {
            if comm.rank() == 0 {
                let data: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
                let b = comm.alloc_with(&data);
                comm.shm_send_data(1, Tag::user(3), b, 0, data.len())
                    .unwrap();
                Vec::new()
            } else {
                let b = comm.alloc(100_000);
                comm.shm_recv_data(0, Tag::user(3), b, 0, 100_000).unwrap();
                comm.read_all(b).unwrap()
            }
        });
        let expect: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
        assert_eq!(results[1], expect);
    }
}
