//! [`Comm`] over forked processes with real kernel-assisted copies.

use crate::backoff::Backoff;
use crate::ring::{frame_bytes, ring_bytes, SpscRing};
use crate::shm::ShmRegion;
use crate::BULK_BIT;
use kacc_comm::{BufId, Comm, CommError, RemoteToken, Result, Tag, Topology};
use kacc_fault::{FaultDecision, FaultHook, FaultOp, FaultSite};
use nix::sys::uio::{process_vm_readv, process_vm_writev, RemoteIoVec};
use nix::unistd::Pid;
use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, IoSliceMut};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Data bytes of each directed ring (power of two). A control message
/// fits if its frame, [`frame_bytes`] of its length, is no larger.
pub const RING_CAP: usize = 256 * 1024;
/// Bulk fragments pushed through the rings by the two-copy path.
const BULK_CHUNK: usize = 32 * 1024;
/// Per-rank error-message slot size.
const ERR_SLOT: usize = 256;
/// Shared u64 result slots available to team closures.
pub const RESULT_SLOTS: usize = 4096;

/// Offsets of the shared control structures for a `p`-rank team.
#[derive(Debug, Clone)]
pub struct SharedLayout {
    p: usize,
    barrier_count: usize,
    barrier_gen: usize,
    pids: usize,
    errors: usize,
    results: usize,
    rings: usize,
}

impl SharedLayout {
    /// Compute the layout for `p` ranks.
    pub fn new(p: usize) -> SharedLayout {
        let mut at = 0usize;
        let mut take = |n: usize| {
            let here = at;
            at += n.div_ceil(64) * 64; // cache-line align every section
            here
        };
        let barrier_count = take(8);
        let barrier_gen = take(8);
        let pids = take(8 * p);
        let errors = take(ERR_SLOT * p);
        let results = take(8 * RESULT_SLOTS);
        let rings = take(ring_bytes(RING_CAP) * p * p);
        let _total = at;
        SharedLayout {
            p,
            barrier_count,
            barrier_gen,
            pids,
            errors,
            results,
            rings,
        }
    }

    fn total(&self) -> usize {
        self.rings + ring_bytes(RING_CAP) * self.p * self.p
    }

    fn ring_off(&self, to: usize, from: usize) -> usize {
        self.rings + (to * self.p + from) * ring_bytes(RING_CAP)
    }

    /// Shared result slot `i` (survives the children; the team runner
    /// collects them after the join).
    pub fn result_slot<'a>(&self, shm: &'a ShmRegion, i: usize) -> &'a AtomicU64 {
        assert!(i < RESULT_SLOTS, "result slot {i} out of range");
        // SAFETY: aligned, in-bounds, shared atomics.
        unsafe { &*(shm.at(self.results + i * 8, 8) as *const AtomicU64) }
    }

    /// Record an error message for `rank` (truncated to the slot).
    pub fn write_error(&self, shm: &ShmRegion, rank: usize, msg: &str) {
        let bytes = msg.as_bytes();
        let n = bytes.len().min(ERR_SLOT - 1);
        // SAFETY: slot is in-bounds; only `rank` writes its slot.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                shm.at(self.errors + rank * ERR_SLOT, n),
                n,
            );
        }
    }

    /// Read back `rank`'s error message.
    pub fn read_error(&self, shm: &ShmRegion, rank: usize) -> String {
        let mut buf = vec![0u8; ERR_SLOT];
        // SAFETY: in-bounds read of the slot.
        unsafe {
            std::ptr::copy_nonoverlapping(
                shm.at(self.errors + rank * ERR_SLOT, ERR_SLOT),
                buf.as_mut_ptr(),
                ERR_SLOT,
            );
        }
        let end = buf.iter().position(|&b| b == 0).unwrap_or(0);
        String::from_utf8_lossy(&buf[..end]).into_owned()
    }
}

/// Total shared bytes needed for a `p`-rank team.
pub fn layout_bytes(p: usize) -> usize {
    SharedLayout::new(p).total()
}

/// One forked process's endpoint. Buffers live in *private* memory —
/// peers reach them only through `process_vm_readv`/`writev`, exactly
/// like an MPI rank's heap.
pub struct NativeComm {
    shm: Arc<ShmRegion>,
    layout: SharedLayout,
    rank: usize,
    p: usize,
    /// Ring (me ← from), one per peer.
    rx: Vec<SpscRing>,
    /// Ring (to ← me), one per peer.
    tx: Vec<SpscRing>,
    /// Frames pulled off the rings ahead of their receive, per
    /// `(peer, tag)` key. A key's queue is removed when it drains, so the
    /// map holds only keys with frames waiting.
    pending: HashMap<(usize, u32), VecDeque<Vec<u8>>>,
    /// Buffer slab: `BufId(n)` lives at index `n − 1`. Ids are handed out
    /// in sequence and never reused; a freed buffer leaves `None`.
    bufs: Vec<Option<Box<[u8]>>>,
    start: Instant,
    topo: Topology,
    /// Fault injector; off by default (one branch per operation). The
    /// `Truncate` decision caps the next syscall's remote iovec so the
    /// short-read resume loop is exercised against real syscalls.
    fault: FaultHook,
}

impl NativeComm {
    /// Attach rank `rank` of `p` to the shared control region, register
    /// our pid, and synchronize with the whole team.
    pub fn attach(shm: Arc<ShmRegion>, layout: SharedLayout, rank: usize, p: usize) -> NativeComm {
        assert_eq!(layout.p, p);
        // SAFETY: ring areas are disjoint, zeroed, and correctly sized;
        // each directed ring has exactly one producer and one consumer.
        let rx = (0..p)
            .map(|from| unsafe {
                SpscRing::attach(shm.at(layout.ring_off(rank, from), 0), RING_CAP)
            })
            .collect();
        let tx = (0..p)
            .map(|to| unsafe { SpscRing::attach(shm.at(layout.ring_off(to, rank), 0), RING_CAP) })
            .collect();
        let comm = NativeComm {
            rank,
            p,
            rx,
            tx,
            pending: HashMap::new(),
            bufs: Vec::new(),
            start: Instant::now(),
            topo: Topology {
                sockets: 1,
                cores_per_socket: p.max(1),
                threads_per_core: 1,
                page_size: page_size(),
            },
            fault: FaultHook::off(),
            shm,
            layout,
        };
        comm.pid_slot(rank)
            .store(std::process::id() as i64, Ordering::SeqCst);
        // Wait for the whole team's pids before anyone communicates.
        for r in 0..p {
            let mut backoff = Backoff::default();
            while comm.pid_slot(r).load(Ordering::SeqCst) == 0 {
                backoff.snooze();
            }
        }
        comm.barrier_wait();
        comm
    }

    fn pid_slot(&self, rank: usize) -> &AtomicI64 {
        // SAFETY: aligned, in-bounds, shared atomics.
        unsafe { &*(self.shm.at(self.layout.pids + rank * 8, 8) as *const AtomicI64) }
    }

    fn barrier_count(&self) -> &AtomicU64 {
        // SAFETY: as above.
        unsafe { &*(self.shm.at(self.layout.barrier_count, 8) as *const AtomicU64) }
    }

    fn barrier_gen(&self) -> &AtomicU64 {
        // SAFETY: as above.
        unsafe { &*(self.shm.at(self.layout.barrier_gen, 8) as *const AtomicU64) }
    }

    /// Sense-reversing barrier over the shared counters.
    pub fn barrier_wait(&self) {
        let generation = self.barrier_gen().load(Ordering::Acquire);
        if self.barrier_count().fetch_add(1, Ordering::AcqRel) + 1 == self.p as u64 {
            self.barrier_count().store(0, Ordering::Release);
            self.barrier_gen().fetch_add(1, Ordering::AcqRel);
        } else {
            let mut backoff = Backoff::default();
            while self.barrier_gen().load(Ordering::Acquire) == generation {
                backoff.snooze();
            }
        }
    }

    /// Shared u64 result slot `i` (< [`RESULT_SLOTS`]), for reporting
    /// measurements back to the parent across the fork boundary.
    pub fn result_slot(&self, i: usize) -> &AtomicU64 {
        self.layout.result_slot(&self.shm, i)
    }

    /// Peer pid for kernel-assisted calls.
    pub fn pid_of(&self, rank: usize) -> Pid {
        Pid::from_raw(self.pid_slot(rank).load(Ordering::SeqCst) as i32)
    }

    /// Slab index of a buffer id; id 0 is never handed out.
    fn slot(id: BufId) -> Option<usize> {
        id.0.checked_sub(1).and_then(|i| usize::try_from(i).ok())
    }

    fn buf(&self, id: BufId) -> Result<&[u8]> {
        Self::slot(id)
            .and_then(|i| self.bufs.get(i))
            .and_then(Option::as_deref)
            .ok_or(CommError::InvalidBuffer(id.0))
    }

    fn buf_mut(&mut self, id: BufId) -> Result<&mut [u8]> {
        Self::slot(id)
            .and_then(|i| self.bufs.get_mut(i))
            .and_then(Option::as_deref_mut)
            .ok_or(CommError::InvalidBuffer(id.0))
    }

    /// Two different buffers borrowed at once, `src` shared and `dst`
    /// mutable, so a copy between them needs no staging copy.
    fn split_pair(&mut self, src: BufId, dst: BufId) -> Result<(&[u8], &mut [u8])> {
        let (s, d) = match (Self::slot(src), Self::slot(dst)) {
            (Some(s), Some(d)) if s != d && s.max(d) < self.bufs.len() => (s, d),
            _ => return Err(CommError::InvalidBuffer(src.0)),
        };
        let (lo, hi) = self.bufs.split_at_mut(s.max(d));
        let (low, high) = (&mut lo[s.min(d)], &mut hi[0]);
        let (s_buf, d_buf) = if s < d { (low, high) } else { (high, low) };
        match (s_buf.as_deref(), d_buf.as_deref_mut()) {
            (Some(a), Some(b)) => Ok((a, b)),
            (None, _) => Err(CommError::InvalidBuffer(src.0)),
            (_, None) => Err(CommError::InvalidBuffer(dst.0)),
        }
    }

    fn check(&self, buf: BufId, off: usize, len: usize) -> Result<()> {
        let cap = self.buf(buf)?.len();
        if off.checked_add(len).is_none_or(|end| end > cap) {
            return Err(CommError::OutOfRange {
                buf: buf.0,
                off,
                len,
                cap,
            });
        }
        Ok(())
    }

    /// The next `(from, key)` message: a frame parked earlier for this
    /// key, else the first one off `from`'s ring; `None` once `deadline`
    /// (if any) has passed with no such frame.
    ///
    /// Per-key FIFO: frames of one key leave the ring in send order, and
    /// only frames of *other* keys are parked, so a parked frame of this
    /// key is always older than any still on the ring. A frame whose tag
    /// matches is returned straight off the ring.
    fn recv_keyed(&mut self, from: usize, key: u32, deadline: Option<Instant>) -> Option<Vec<u8>> {
        if !self.pending.is_empty() {
            if let Some(q) = self.pending.get_mut(&(from, key)) {
                let msg = q.pop_front();
                if q.is_empty() {
                    self.pending.remove(&(from, key));
                }
                return msg;
            }
        }
        let mut backoff = Backoff::default();
        loop {
            match self.rx[from].try_pop() {
                Some((tag, payload)) if tag == key => return Some(payload),
                Some((tag, payload)) => {
                    self.pending
                        .entry((from, tag))
                        .or_default()
                        .push_back(payload);
                }
                None => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return None;
                    }
                    backoff.snooze();
                }
            }
        }
    }

    /// One single-copy transfer between `len` bytes of the local buffer
    /// at `local_off` and a peer's exposed buffer at `remote_off`:
    /// `process_vm_writev` into the peer for [`FaultOp::CmaWrite`],
    /// `process_vm_readv` from it for [`FaultOp::CmaRead`]. Short
    /// transfers resume until the range has moved.
    fn cma(
        &mut self,
        op: FaultOp,
        token: RemoteToken,
        remote_off: usize,
        local: BufId,
        local_off: usize,
        len: usize,
    ) -> Result<()> {
        let peer = token.rank as usize;
        if peer >= self.p {
            return Err(CommError::BadRank(peer));
        }
        self.check(local, local_off, len)?;
        // A `Truncate` decision caps the bytes this call may move; the
        // shortfall surfaces as `Truncated` so callers exercise their
        // resume path against the real syscall.
        let (eff, trunc) = match self.fault_gate(Some(peer), op, len) {
            FaultDecision::Fail(e) => return Err(e),
            FaultDecision::Truncate { got } => (got.min(len), Some(len)),
            _ => (len, None),
        };
        let pid = self.pid_of(peer);
        let local = &mut self.buf_mut(local)?[local_off..local_off + eff];
        let mut moved = 0usize;
        while moved < eff {
            let remote = [RemoteIoVec {
                base: token.token as usize + remote_off + moved,
                len: eff - moved,
            }];
            let done = if op == FaultOp::CmaWrite {
                process_vm_writev(pid, &[IoSlice::new(&local[moved..])], &remote)
            } else {
                process_vm_readv(pid, &mut [IoSliceMut::new(&mut local[moved..])], &remote)
            };
            let n = match done {
                Ok(n) => n,
                // Interrupted before any bytes moved: retry transparently.
                Err(nix::errno::Errno::EINTR) => continue,
                Err(e) => return Err(errno_of(e)),
            };
            if n == 0 {
                return Err(CommError::Truncated {
                    wanted: len,
                    got: moved,
                });
            }
            moved += n;
        }
        match trunc {
            Some(wanted) => Err(CommError::Truncated { wanted, got: eff }),
            None => Ok(()),
        }
    }

    /// Number of `(peer, tag)` keys with frames pulled off the rings but
    /// not yet received: 0 once every such frame has been received.
    pub fn parked_keys(&self) -> usize {
        self.pending.len()
    }

    /// Install a fault injector on this endpoint (chaos testing).
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        self.fault = hook;
    }

    /// Consult the fault hook for one site; injected delays sleep in
    /// place (wall clock).
    fn fault_gate(&self, peer: Option<usize>, op: FaultOp, len: usize) -> FaultDecision {
        if !self.fault.on() {
            return FaultDecision::Allow;
        }
        let d = self.fault.decide(&FaultSite {
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
}

fn page_size() -> usize {
    // SAFETY: simple sysconf query.
    let sz = unsafe { libc::sysconf(libc::_SC_PAGESIZE) };
    if sz > 0 {
        sz as usize
    } else {
        4096
    }
}

fn errno_of(e: nix::errno::Errno) -> CommError {
    match e {
        nix::errno::Errno::EPERM => CommError::PermissionDenied,
        other => CommError::Os(other as i32),
    }
}

impl Comm for NativeComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.p
    }

    fn topology(&self) -> Topology {
        self.topo
    }

    fn alloc(&mut self, len: usize) -> BufId {
        self.bufs.push(Some(vec![0u8; len].into_boxed_slice()));
        BufId(self.bufs.len() as u64)
    }

    fn free(&mut self, buf: BufId) -> Result<()> {
        Self::slot(buf)
            .and_then(|i| self.bufs.get_mut(i))
            .and_then(Option::take)
            .map(drop)
            .ok_or(CommError::InvalidBuffer(buf.0))
    }

    fn buf_len(&self, buf: BufId) -> Result<usize> {
        Ok(self.buf(buf)?.len())
    }

    fn write_local(&mut self, buf: BufId, off: usize, data: &[u8]) -> Result<()> {
        self.check(buf, off, data.len())?;
        self.buf_mut(buf)?[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn read_local(&self, buf: BufId, off: usize, out: &mut [u8]) -> Result<()> {
        self.check(buf, off, out.len())?;
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
        self.check(src, src_off, len)?;
        self.check(dst, dst_off, len)?;
        if src == dst {
            self.buf_mut(src)?
                .copy_within(src_off..src_off + len, dst_off);
        } else {
            let (s, d) = self.split_pair(src, dst)?;
            d[dst_off..dst_off + len].copy_from_slice(&s[src_off..src_off + len]);
        }
        Ok(())
    }

    fn expose(&mut self, buf: BufId) -> Result<RemoteToken> {
        if let FaultDecision::Fail(e) = self.fault_gate(None, FaultOp::Expose, 0) {
            return Err(e);
        }
        let addr = self.buf(buf)?.as_ptr() as u64;
        Ok(RemoteToken {
            rank: self.rank as u64,
            token: addr,
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
        self.cma(FaultOp::CmaRead, token, remote_off, dst, dst_off, len)
    }

    fn cma_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        self.cma(FaultOp::CmaWrite, token, remote_off, src, src_off, len)
    }

    fn ctrl_send(&mut self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        if to >= self.p {
            return Err(CommError::BadRank(to));
        }
        if tag.0 & BULK_BIT != 0 {
            return Err(CommError::Protocol("tag collides with bulk channel".into()));
        }
        if frame_bytes(data.len()) > RING_CAP {
            return Err(CommError::Protocol(format!(
                "control message of {} bytes does not fit a {RING_CAP}-byte ring",
                data.len()
            )));
        }
        // A dropped control message surfaces as a typed send failure,
        // never as silent loss (which would deadlock the receiver).
        if let FaultDecision::Fail(e) = self.fault_gate(Some(to), FaultOp::CtrlSend, data.len()) {
            return Err(e);
        }
        self.tx[to].push(tag.0, data);
        Ok(())
    }

    fn ctrl_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        timeout_ns: Option<u64>,
    ) -> Result<Vec<u8>> {
        if from >= self.p {
            return Err(CommError::BadRank(from));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(from), FaultOp::CtrlRecv, 0) {
            return Err(e);
        }
        let deadline = timeout_ns.map(|ns| Instant::now() + Duration::from_nanos(ns));
        self.recv_keyed(from, tag.0, deadline)
            .ok_or(CommError::Timeout {
                waited_ns: timeout_ns.unwrap_or_default(),
            })
    }

    /// Two-copy bulk send. Deviation from the abstract contract: when a
    /// transfer exceeds the ring capacity ([`RING_CAP`]) and the
    /// receiver is not draining, the sender blocks on ring backpressure.
    /// No protocol in this workspace sends bidirectional bulk shm
    /// traffic on the native transport, so this cannot deadlock here,
    /// but new exchange patterns over `NativeComm` should prefer CMA
    /// (which never blocks on a peer's progress).
    fn shm_send_data(
        &mut self,
        to: usize,
        tag: Tag,
        src: BufId,
        off: usize,
        len: usize,
    ) -> Result<()> {
        if to >= self.p {
            return Err(CommError::BadRank(to));
        }
        self.check(src, off, len)?;
        if let FaultDecision::Fail(e) = self.fault_gate(Some(to), FaultOp::ShmSend, len) {
            return Err(e);
        }
        // Two-copy path: fragment through the shared ring (first copy
        // here, second at the receiver).
        let key = tag.0 | BULK_BIT;
        let mut at = 0usize;
        let data = self.buf(src)?;
        while at < len || (len == 0 && at == 0) {
            let n = BULK_CHUNK.min(len - at);
            self.tx[to].push(key, &data[off + at..off + at + n]);
            at += n.max(1);
            if len == 0 {
                break;
            }
        }
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
        if from >= self.p {
            return Err(CommError::BadRank(from));
        }
        self.check(dst, off, len)?;
        if let FaultDecision::Fail(e) = self.fault_gate(Some(from), FaultOp::ShmRecv, len) {
            return Err(e);
        }
        let key = tag.0 | BULK_BIT;
        let deadline = timeout_ns.map(|ns| Instant::now() + Duration::from_nanos(ns));
        let mut at = 0usize;
        loop {
            // Nothing lands before the first fragment, so expiry then is a
            // retryable timeout with the message still claimable. A stall
            // after it means the sender died between fragments: that is a
            // permanent `Truncated`.
            let Some(chunk) = self.recv_keyed(from, key, deadline) else {
                return Err(match at {
                    0 => CommError::Timeout {
                        waited_ns: timeout_ns.unwrap_or_default(),
                    },
                    got => CommError::Truncated { wanted: len, got },
                });
            };
            if at + chunk.len() > len {
                return Err(CommError::Truncated {
                    wanted: len,
                    got: at + chunk.len(),
                });
            }
            self.buf_mut(dst)?[off + at..off + at + chunk.len()].copy_from_slice(&chunk);
            at += chunk.len();
            if at >= len {
                return Ok(());
            }
            if chunk.is_empty() {
                return Err(CommError::Truncated {
                    wanted: len,
                    got: at,
                });
            }
        }
    }

    fn time_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}
