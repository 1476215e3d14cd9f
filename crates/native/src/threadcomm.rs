//! In-process thread transport: the same [`Comm`] semantics as the
//! forked transport, with threads instead of processes and memcpy
//! instead of syscalls. Portable reference implementation used by
//! integration tests and cross-transport differential checks.

use crate::BULK_BIT;
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

    /// One copy of `len` bytes between the local buffer at `local_off`
    /// and a peer's exposed buffer at `remote_off`: into the peer for
    /// [`FaultOp::CmaWrite`] and [`FaultOp::FallbackWrite`], out of it for
    /// the reads. Single-copy and two-copy fallback share it: both are a
    /// staged copy here (the stage keeps lock ordering acyclic), with the
    /// same addressing and exposure rules. A `Truncate` decision (CMA
    /// sites only) genuinely moves the first `got` bytes and then reports
    /// the short count, mirroring `process_vm_readv`.
    fn transfer(
        &mut self,
        op: FaultOp,
        token: RemoteToken,
        remote_off: usize,
        local: BufId,
        local_off: usize,
        len: usize,
    ) -> Result<()> {
        let peer = token.rank as usize;
        if peer >= self.hub.p {
            return Err(CommError::BadRank(peer));
        }
        let (len, trunc) = match self.fault_gate(Some(peer), op, len) {
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
        self.check(local, local_off, len)?;
        let remote = self.buf_arc(peer, token.token)?;
        let cap = remote.lock().unwrap_or_else(PoisonError::into_inner).len();
        if remote_off + len > cap {
            return Err(CommError::OutOfRange {
                buf: token.token,
                off: remote_off,
                len,
                cap,
            });
        }
        let mine = self.buf_arc(self.rank, local.0)?;
        let ((from, from_off), (to, to_off)) =
            if matches!(op, FaultOp::CmaWrite | FaultOp::FallbackWrite) {
                ((mine, local_off), (remote, remote_off))
            } else {
                ((remote, remote_off), (mine, local_off))
            };
        let staged =
            from.lock().unwrap_or_else(PoisonError::into_inner)[from_off..from_off + len].to_vec();
        to.lock().unwrap_or_else(PoisonError::into_inner)[to_off..to_off + len]
            .copy_from_slice(&staged);
        match trunc {
            Some(wanted) => Err(CommError::Truncated { wanted, got: len }),
            None => Ok(()),
        }
    }

    /// The next message posted to `key`, waiting for it until `deadline`
    /// (`None`: for as long as it takes); `None` once the deadline has
    /// passed, with the queue untouched.
    fn take_mail(&self, key: (usize, usize, u32), deadline: Option<Instant>) -> Option<Vec<u8>> {
        let mut mail = self.hub.mail.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(msg) = mail.get_mut(&key).and_then(|q| q.pop_front()) {
                return Some(msg);
            }
            let cv = &self.hub.mail_cv;
            mail = match deadline {
                None => cv.wait(mail).unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    let waited = cv.wait_timeout(mail, d - now);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
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
        self.transfer(FaultOp::CmaRead, token, remote_off, dst, dst_off, len)
    }

    fn cma_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        self.transfer(FaultOp::CmaWrite, token, remote_off, src, src_off, len)
    }

    fn ctrl_send(&mut self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        if to >= self.hub.p {
            return Err(CommError::BadRank(to));
        }
        if tag.0 & BULK_BIT != 0 {
            return Err(CommError::Protocol("tag collides with bulk channel".into()));
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

    fn ctrl_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        timeout_ns: Option<u64>,
    ) -> Result<Vec<u8>> {
        if from >= self.hub.p {
            return Err(CommError::BadRank(from));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(from), FaultOp::CtrlRecv, 0) {
            return Err(e);
        }
        let deadline = timeout_ns.map(|ns| Instant::now() + Duration::from_nanos(ns));
        self.take_mail((self.rank, from, tag.0), deadline)
            .ok_or(CommError::Timeout {
                waited_ns: timeout_ns.unwrap_or_default(),
            })
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
        mail.entry((to, self.rank, tag.0 | BULK_BIT))
            .or_default()
            .push_back(payload);
        self.hub.mail_cv.notify_all();
        Ok(())
    }

    fn shm_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
        timeout_ns: Option<u64>,
    ) -> Result<()> {
        if from >= self.hub.p {
            return Err(CommError::BadRank(from));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(from), FaultOp::ShmRecv, len) {
            return Err(e);
        }
        let deadline = timeout_ns.map(|ns| Instant::now() + Duration::from_nanos(ns));
        let payload = self
            .take_mail((self.rank, from, tag.0 | BULK_BIT), deadline)
            .ok_or(CommError::Timeout {
                waited_ns: timeout_ns.unwrap_or_default(),
            })?;
        if payload.len() != len {
            return Err(CommError::Truncated {
                wanted: len,
                got: payload.len(),
            });
        }
        self.write_local(dst, off, &payload)
    }

    fn shm_fallback_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.transfer(FaultOp::FallbackRead, token, remote_off, dst, dst_off, len)
    }

    fn shm_fallback_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        self.transfer(FaultOp::FallbackWrite, token, remote_off, src, src_off, len)
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
            // Hand the token to the left neighbour; read the right one's.
            let tag = Tag::internal(smcoll::class::ALLGATHER, 0);
            comm.ctrl_send((me + p - 1) % p, tag, &tok.to_bytes())
                .unwrap();
            let right = comm.ctrl_recv((me + 1) % p, tag).unwrap();
            let dst = comm.alloc(1000);
            let t = RemoteToken::from_bytes(&right).unwrap();
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

    #[test]
    fn a_control_tag_in_the_bulk_channel_is_refused() {
        let tag = Tag(3 | BULK_BIT);
        let results = run_threads(2, |comm| {
            if comm.rank() == 0 {
                let sent = comm.ctrl_send(1, tag, b"x");
                comm.notify(1, Tag::user(1)).unwrap();
                return sent;
            }
            comm.wait_notify(0, Tag::user(1)).unwrap();
            // Nothing reached the bulk channel of the tag without the bit.
            let dst = comm.alloc(1);
            comm.shm_recv_deadline(0, Tag(3), dst, 0, 1, Some(1_000_000))
        });
        let refused = CommError::Protocol("tag collides with bulk channel".into());
        assert_eq!(results[0], Err(refused));
        assert_eq!(
            results[1],
            Err(CommError::Timeout {
                waited_ns: 1_000_000
            })
        );
    }
}
