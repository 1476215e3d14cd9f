//! Shared simulated-node state living inside the DES kernel.
//!
//! [`MachineState`] is what the simulation kernel owns and every rank's
//! endpoint reaches through poll closures: the fluid servers, the per-rank
//! heaps and the two message planes.
//!
//! A heap buffer is a piece table (see [`RankHeap`]): runs of zeros and
//! runs of immutable shared stores. A copy of at least a page between
//! buffers (a kernel-assisted transfer, a local copy) shares the source's
//! runs and moves no byte; a buffer nobody wrote has no run at all and
//! costs its length alone. A bulk shared-memory message is a [`Buf`]
//! ([`MachineState::bulk`]): [`RankHeap::copy_out`] takes it from the
//! sender's heap and [`RankHeap::copy_in`] lands it in the receiver's, so
//! a region of a buffer nobody wrote travels as its length (every range,
//! length and truncation check runs on lengths alone; no byte is
//! allocated or touched) and written bytes are copied once out and once
//! in. A team whose bodies never write their buffers therefore simulates
//! any volume of traffic without allocating it. Control messages
//! ([`MachineState::mail`]) are always real bytes: the protocols read
//! them.

use crate::fluid::{MemSys, PageLockServer};
use crate::xfer::Xfer;
use kacc_comm::Topology;
use kacc_model::{ArchProfile, FabricParams};
use kacc_sim_core::{Mailboxes, SimTime};
use std::sync::Arc;

/// One bulk message in flight between two heaps: the bytes of a written
/// region, or the length alone of a region nobody wrote (it reads as
/// zeros).
#[derive(Debug, PartialEq, Eq)]
pub enum Buf {
    /// The region's bytes.
    Real(Vec<u8>),
    /// `len` zeros, never allocated.
    Zeros(usize),
}

impl Buf {
    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Buf::Real(v) => v.len(),
            Buf::Zeros(n) => *n,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Does `[off, off + len)` lie inside a buffer of `cap` bytes?
fn in_range(off: usize, len: usize, cap: usize) -> bool {
    off.checked_add(len).is_some_and(|end| end <= cap)
}

/// Are all of `bytes` zero? Each 512-byte block is ORed whole (a loop
/// the compiler vectorizes) and the scan stops at the first block that
/// is not.
fn all_zero(bytes: &[u8]) -> bool {
    let mut blocks = bytes.chunks_exact(512);
    let tail = blocks.remainder();
    blocks.all(|b| b.iter().fold(0, |acc, &x| acc | x) == 0) && tail.iter().all(|&x| x == 0)
}

/// A copy of at least this many bytes shares its source's runs instead
/// of copying them; a shorter one copies bytes. One page: the unit a
/// kernel-assisted copy pins, above the agreement's masks, which must
/// land in place rather than cut their receive buffer into runs.
const PAGE: usize = 4096;

/// The most runs a buffer holds; a splice past it flattens the buffer.
/// Twice the blocks of a 64-rank Bruck or pairwise result, each of which
/// may come from a different store.
const MAX_RUNS: usize = 128;

#[cfg(test)]
thread_local! {
    /// Stores made on this thread (tests read the difference).
    pub(crate) static MATERIALIZED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A new store holding `bytes` (counted in test builds).
fn materialize(bytes: Vec<u8>) -> Arc<Vec<u8>> {
    #[cfg(test)]
    MATERIALIZED.with(|n| n.set(n.get() + 1));
    Arc::new(bytes)
}

/// `len` bytes of a buffer from its offset `at`: zeros, or the bytes of a
/// store from offset `from`. A store is never written while a second run
/// (in any buffer) holds it, so a run is a snapshot.
#[derive(Debug)]
struct Run {
    at: usize,
    len: usize,
    store: Option<(Arc<Vec<u8>>, usize)>,
}

impl Run {
    /// The bytes at buffer offsets `[lo, hi)` inside this run (`None`:
    /// zeros).
    fn bytes(&self, lo: usize, hi: usize) -> Option<&[u8]> {
        let skip = lo - self.at;
        self.store
            .as_ref()
            .map(|(s, from)| &s[from + skip..from + skip + (hi - lo)])
    }

    /// Buffer offsets `[lo, hi)` of this run as a run of their own
    /// starting at `to`.
    fn cut(&self, lo: usize, hi: usize, to: usize) -> Run {
        Run {
            at: to,
            len: hi - lo,
            store: self
                .store
                .as_ref()
                .map(|(s, from)| (Arc::clone(s), from + lo - self.at)),
        }
    }

    /// Does `next` carry on where this run ends: zeros after zeros, or
    /// the next bytes of the same store?
    fn continues(&self, next: &Run) -> bool {
        match (&self.store, &next.store) {
            (None, None) => true,
            (Some((a, from)), Some((b, next_from))) => {
                Arc::ptr_eq(a, b) && from + self.len == *next_from
            }
            _ => false,
        }
    }
}

/// The bytes of a heap buffer: `len` bytes as an ordered list of runs
/// that tile them, or no run at all while the buffer reads as zeros.
/// Adjacent runs never continue each other and a buffer is never a lone
/// zero run; both are checked in tests.
#[derive(Debug)]
struct Pieces {
    len: usize,
    runs: Vec<Run>,
}

impl Pieces {
    /// `len` zeros: no run, nothing allocated.
    fn zeros(len: usize) -> Pieces {
        Pieces {
            len,
            runs: Vec::new(),
        }
    }

    /// A copy of `data`: one store, or none if `data` is all zeros.
    fn of(data: &[u8]) -> Pieces {
        let mut p = Pieces::zeros(data.len());
        if !all_zero(data) {
            p.runs.push(Run {
                at: 0,
                len: data.len(),
                store: Some((materialize(data.to_vec()), 0)),
            });
        }
        p
    }

    /// Has any byte been written (is there a run)?
    fn is_written(&self) -> bool {
        !self.runs.is_empty()
    }

    /// Index of the run holding byte `off` (`runs.len()` past the end).
    fn find(&self, off: usize) -> usize {
        self.runs.partition_point(|r| r.at + r.len <= off)
    }

    /// The runs crossing `[off, off + len)` (in range), each with its
    /// part inside the region as buffer offsets `(lo, hi)`.
    fn crossing(&self, off: usize, len: usize) -> impl Iterator<Item = (&Run, usize, usize)> {
        let end = off + len;
        self.runs[self.find(off)..]
            .iter()
            .take_while(move |r| r.at < end)
            .map(move |r| (r, r.at.max(off), (r.at + r.len).min(end)))
    }

    /// `[off, off + len)` (in range) into `out`, zeros included.
    fn read(&self, off: usize, out: &mut [u8]) {
        if !self.is_written() {
            return out.fill(0);
        }
        for (r, lo, hi) in self.crossing(off, out.len()) {
            fill(&mut out[lo - off..hi - off], r.bytes(lo, hi));
        }
    }

    /// `[off, off + len)` (in range) as a vector, one pass over its runs.
    fn gather(&self, off: usize, len: usize) -> Vec<u8> {
        if !self.is_written() {
            return vec![0; len];
        }
        let mut v = Vec::with_capacity(len);
        for (r, lo, hi) in self.crossing(off, len) {
            match r.bytes(lo, hi) {
                Some(b) => v.extend_from_slice(b),
                None => v.resize(v.len() + (hi - lo), 0),
            }
        }
        v
    }

    /// Write `len` bytes of `src` (`None`: zeros) at `off` (in range). A
    /// write lands in place in a run whose store only this buffer holds;
    /// failing that, one of at least a page becomes a run of its own and
    /// a shorter one flattens the buffer first. Zeros onto zeros change
    /// nothing.
    fn write(&mut self, off: usize, len: usize, src: Option<&[u8]>) {
        if len == 0 {
            return;
        }
        let i = self.find(off);
        if let Some(r) = self.runs.get_mut(i) {
            if off + len <= r.at + r.len {
                match &mut r.store {
                    Some((s, from)) => {
                        if let Some(s) = Arc::get_mut(s) {
                            let at = *from + off - r.at;
                            return fill(&mut s[at..at + len], src);
                        }
                    }
                    None if src.is_none_or(all_zero) => return,
                    None => {}
                }
            }
        } else if src.is_none_or(all_zero) {
            return;
        }
        if len >= PAGE {
            let store = src.map(|b| (materialize(b.to_vec()), 0));
            return self.splice(
                off,
                len,
                [Run {
                    at: off,
                    len,
                    store,
                }],
            );
        }
        self.flatten();
        self.write(off, len, src);
    }

    /// Copy `len` bytes at `src_off` of `from` (`None`: this buffer) to
    /// `dst_off` (both in range); overlap behaves as `memmove`. From a
    /// page up this shares `from`'s runs; a shorter copy is a write.
    fn copy(&mut self, dst_off: usize, from: Option<&Pieces>, src_off: usize, len: usize) {
        let src = from.unwrap_or(self);
        if !src.is_written() {
            return self.write(dst_off, len, None);
        }
        if len >= PAGE {
            let runs: Vec<Run> = src
                .crossing(src_off, len)
                .map(|(r, lo, hi)| r.cut(lo, hi, lo - src_off + dst_off))
                .collect();
            return self.splice(dst_off, len, runs);
        }
        // One run holds the region (the common case): write from it
        // without a staging copy.
        if let Some(from) = from {
            let mut parts = from.crossing(src_off, len);
            if let (Some((r, lo, hi)), None) = (parts.next(), parts.next()) {
                return self.write(dst_off, len, r.bytes(lo, hi));
            }
        }
        let bytes = src.gather(src_off, len);
        self.write(dst_off, len, Some(&bytes));
    }

    /// Replace `[off, off + len)` (in range, not empty) with `new`, runs
    /// that tile it, then join runs that continue each other at its two
    /// ends; flatten if that leaves more than [`MAX_RUNS`].
    fn splice(&mut self, off: usize, len: usize, new: impl IntoIterator<Item = Run>) {
        if !self.is_written() {
            self.runs.push(Run {
                at: 0,
                len: self.len,
                store: None,
            });
        }
        let i = self.split(off);
        let j = self.split(off + len);
        let before = self.runs.len();
        drop(self.runs.splice(i..j, new));
        let end = i + (self.runs.len() + (j - i) - before);
        self.join(end);
        self.join(i);
        if matches!(&self.runs[..], [only] if only.store.is_none()) {
            self.runs.clear();
        }
        if self.runs.len() > MAX_RUNS {
            self.flatten();
        }
    }

    /// Make a run start at `off` (at most `len`), splitting the run that
    /// holds it; the index of that run.
    fn split(&mut self, off: usize) -> usize {
        let i = self.find(off);
        let Some(r) = self.runs.get(i) else {
            return i;
        };
        if r.at == off {
            return i;
        }
        let (head, tail) = (off - r.at, r.cut(off, r.at + r.len, off));
        self.runs[i].len = head;
        self.runs.insert(i + 1, tail);
        i + 1
    }

    /// Fold run `i` into run `i - 1` if it continues it.
    fn join(&mut self, i: usize) {
        if i > 0 && i < self.runs.len() && self.runs[i - 1].continues(&self.runs[i]) {
            let r = self.runs.remove(i);
            self.runs[i - 1].len += r.len;
        }
    }

    /// Replace every run with one new store of the buffer's bytes, which
    /// only this buffer holds.
    fn flatten(&mut self) {
        let bytes = self.gather(0, self.len);
        self.runs.clear();
        self.runs.push(Run {
            at: 0,
            len: self.len,
            store: Some((materialize(bytes), 0)),
        });
    }
}

/// Overwrite `dst` with `src` (`None`: zeros).
fn fill(dst: &mut [u8], src: Option<&[u8]>) {
    match src {
        Some(b) => dst.copy_from_slice(b),
        None => dst.fill(0),
    }
}

/// One live buffer and whether its owner exposed it.
#[derive(Debug)]
struct HeapSlot {
    mem: Pieces,
    exposed: bool,
}

/// One simulated process's private memory: buffers and exposure set.
///
/// A buffer is a piece table: runs of zeros and runs of immutable shared
/// stores, none at all until something other than zeros is written, so
/// allocating one costs its length alone and a buffer nobody writes is
/// never zero-filled or copied. A copy of at least a page between buffers
/// (of this heap or another) shares the source's runs; a shorter copy or
/// any write lands in place in a store only that buffer holds. Every
/// accessor behaves as if the whole buffer were present and
/// zero-initialised.
#[derive(Debug, Default)]
pub struct RankHeap {
    /// `slots[id]`: ids are handed out in sequence and never reused, so a
    /// buffer id is its index and a freed id stays `None` for good.
    slots: Vec<Option<HeapSlot>>,
}

impl RankHeap {
    fn slot(&self, id: u64) -> Option<&HeapSlot> {
        self.slots.get(usize::try_from(id).ok()?)?.as_ref()
    }

    /// The slab entry an id names, live or freed.
    fn entry_mut(&mut self, id: u64) -> Option<&mut Option<HeapSlot>> {
        self.slots.get_mut(usize::try_from(id).ok()?)
    }

    fn slot_mut(&mut self, id: u64) -> Option<&mut HeapSlot> {
        self.entry_mut(id)?.as_mut()
    }

    /// Allocate a zeroed buffer, returning its id.
    pub fn alloc(&mut self, len: usize) -> u64 {
        self.push(Pieces::zeros(len))
    }

    /// Allocate a buffer holding a copy of `data` (unallocated if `data`
    /// is all zeros), returning its id.
    pub fn alloc_from(&mut self, data: &[u8]) -> u64 {
        self.push(Pieces::of(data))
    }

    fn push(&mut self, mem: Pieces) -> u64 {
        self.slots.push(Some(HeapSlot {
            mem,
            exposed: false,
        }));
        self.slots.len() as u64 - 1
    }

    /// Free a buffer (revoking exposure). Returns false if unknown.
    pub fn free(&mut self, id: u64) -> bool {
        self.entry_mut(id).and_then(Option::take).is_some()
    }

    /// Buffer length, if allocated.
    pub fn len_of(&self, id: u64) -> Option<usize> {
        self.slot(id).map(|s| s.mem.len)
    }

    /// A live buffer's bytes, if `[off, off + len)` lies inside it.
    fn mem(&self, id: u64, off: usize, len: usize) -> Option<&Pieces> {
        self.slot(id)
            .map(|s| &s.mem)
            .filter(|m| in_range(off, len, m.len))
    }

    /// [`mem`](Self::mem), writable.
    fn mem_mut(&mut self, id: u64, off: usize, len: usize) -> Option<&mut Pieces> {
        self.slot_mut(id)
            .map(|s| &mut s.mem)
            .filter(|m| in_range(off, len, m.len))
    }

    /// Read bytes out. False if the access is invalid.
    pub fn read(&self, id: u64, off: usize, out: &mut [u8]) -> bool {
        self.mem(id, off, out.len())
            .map(|m| m.read(off, out))
            .is_some()
    }

    /// Write bytes in. False if invalid.
    pub fn write(&mut self, id: u64, off: usize, data: &[u8]) -> bool {
        self.mem_mut(id, off, data.len())
            .map(|m| m.write(off, data.len(), Some(data)))
            .is_some()
    }

    /// Copy a region out as a vector. None if invalid.
    pub fn extract(&self, id: u64, off: usize, len: usize) -> Option<Vec<u8>> {
        self.mem(id, off, len).map(|m| m.gather(off, len))
    }

    /// Copy a region out as a bulk message: its bytes, or
    /// [`Buf::Zeros`] while the buffer is unwritten (nothing is
    /// allocated). None if the access is invalid.
    pub fn copy_out(&self, id: u64, off: usize, len: usize) -> Option<Buf> {
        self.mem(id, off, len).map(|m| {
            if m.is_written() {
                Buf::Real(m.gather(off, len))
            } else {
                Buf::Zeros(len)
            }
        })
    }

    /// Land a bulk message at `off` of a buffer: one copy of its bytes;
    /// [`Buf::Zeros`] leaves an unwritten destination unwritten and
    /// zeroes a written one, as [`copy_from`](Self::copy_from) does.
    /// False if the access is invalid.
    pub fn copy_in(&mut self, id: u64, off: usize, msg: &Buf) -> bool {
        self.mem_mut(id, off, msg.len())
            .map(|m| match msg {
                Buf::Real(bytes) => m.write(off, bytes.len(), Some(bytes)),
                Buf::Zeros(len) => m.write(off, *len, None),
            })
            .is_some()
    }

    /// Is the buffer live and written (with a byte that is not zero)?
    fn is_written(&self, id: u64) -> bool {
        self.slot(id).is_some_and(|s| s.mem.is_written())
    }

    /// Copy `len` bytes from a buffer of `src` into a buffer of this
    /// heap: from a page up the destination shares the source's runs and
    /// no byte moves; below it, one memcpy. False (and nothing moves) if
    /// either access is invalid.
    pub fn copy_from(
        &mut self,
        dst: u64,
        dst_off: usize,
        src: &RankHeap,
        src_id: u64,
        src_off: usize,
        len: usize,
    ) -> bool {
        src.mem(src_id, src_off, len).is_some_and(|from| {
            self.mem_mut(dst, dst_off, len)
                .map(|to| to.copy(dst_off, Some(from), src_off, len))
                .is_some()
        })
    }

    /// [`copy_from`](Self::copy_from) between two buffers of this heap,
    /// or two regions of one buffer (overlap behaves as `memmove`).
    pub fn copy_within(
        &mut self,
        src: u64,
        src_off: usize,
        dst: u64,
        dst_off: usize,
        len: usize,
    ) -> bool {
        if src == dst {
            return self
                .mem_mut(dst, dst_off, len)
                .filter(|m| in_range(src_off, len, m.len))
                .map(|m| m.copy(dst_off, None, src_off, len))
                .is_some();
        }
        // Lift the destination out of the slab while the source is
        // borrowed from it.
        let Some(mut to) = self.entry_mut(dst).and_then(Option::take) else {
            return false;
        };
        let ok = in_range(dst_off, len, to.mem.len)
            && self
                .mem(src, src_off, len)
                .map(|from| to.mem.copy(dst_off, Some(from), src_off, len))
                .is_some();
        self.slots[dst as usize] = Some(to);
        ok
    }

    /// Mark a buffer exposed for kernel-assisted access.
    pub fn expose(&mut self, id: u64) -> bool {
        self.slot_mut(id).map(|s| s.exposed = true).is_some()
    }

    /// Is a buffer exposed?
    pub fn is_exposed(&self, id: u64) -> bool {
        self.slot(id).is_some_and(|s| s.exposed)
    }

    /// Length of a buffer a peer may access: `None` unless it is allocated
    /// and exposed.
    pub fn exposed_len(&self, id: u64) -> Option<usize> {
        self.slot(id).filter(|s| s.exposed).map(|s| s.mem.len)
    }

    /// Number of live buffers (leak checks in tests).
    pub fn live_buffers(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

/// What one rank issued, counted per path. The Fig 4 phase times
/// (syscall, check, lock, pin, copy) are not kept here: they live only in
/// the phase spans a traced run emits — [`crate::xfer`] for
/// kernel-assisted calls, the shared-memory fallback for its two copies
/// — which [`kacc_trace::Breakdown`] aggregates.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RankStats {
    /// Kernel-assisted operations issued.
    pub cma_ops: u64,
    /// Bytes moved by kernel-assisted reads issued by this rank.
    pub bytes_read: u64,
    /// Bytes moved by kernel-assisted writes issued by this rank.
    pub bytes_written: u64,
    /// Bulk shared-memory sends (eager/rendezvous path).
    pub shm_ops: u64,
    /// Bytes moved by bulk shared-memory sends.
    pub shm_bytes: u64,
    /// Two-copy shared-memory fallback transfers (CMA denied or failed).
    pub fallback_ops: u64,
    /// Bytes moved by two-copy fallback transfers.
    pub fallback_bytes: u64,
}

impl RankStats {
    /// Element-wise sum.
    pub fn merge(&mut self, other: &RankStats) {
        self.cma_ops += other.cma_ops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.shm_ops += other.shm_ops;
        self.shm_bytes += other.shm_bytes;
        self.fallback_ops += other.fallback_ops;
        self.fallback_bytes += other.fallback_bytes;
    }
}

/// Inter-node fabric state: per-node NIC servers plus the latency model.
pub struct NetState {
    /// Fabric parameters.
    pub params: FabricParams,
    /// Per-node egress link servers (fluid-shared by concurrent sends).
    pub egress: Vec<MemSys>,
    /// Per-node ingress link servers.
    pub ingress: Vec<MemSys>,
}

/// The simulated machine: one node, or a cluster of identical nodes
/// joined by a latency-bandwidth fabric. Kernel-assisted (CMA) transfers
/// work only between ranks of the same node; the control plane and the
/// bulk two-copy path cross nodes through the fabric.
pub struct MachineState {
    /// Architecture profile driving every cost.
    pub arch: ArchProfile,
    /// Per-node topology derived from `arch`.
    pub topo: Topology,
    /// Number of simulated ranks (across all nodes).
    pub nranks: usize,
    /// Node hosting each rank (block distribution).
    pub node_of: Vec<usize>,
    /// Control-plane mailboxes: small messages the protocols read, always
    /// real bytes.
    pub mail: Mailboxes,
    /// Bulk shared-memory messages in flight (`shm_send_data` →
    /// `shm_recv_data`): regions copied out of the sender's heap, so an
    /// unwritten region's is its length. A plane of its own — a control
    /// and a bulk message of the same `(to, from, tag)` never meet.
    pub bulk: Mailboxes<Buf>,
    /// Per-rank private heaps.
    pub heaps: Vec<RankHeap>,
    /// Per-rank page-lock servers (contention point).
    pub locks: Vec<PageLockServer>,
    /// Per-node memory systems (cross-socket flows weigh
    /// `bw_total/bw_qpi` times more; see `fluid::MemSys::add_weighted`).
    pub mems: Vec<MemSys>,
    /// Fabric, for multi-node machines.
    pub net: Option<NetState>,
    /// Per-rank operation counts.
    pub stats: Vec<RankStats>,
    /// Per-rank kernel-assisted transfer in flight, if any (a rank is
    /// inside at most one system call); see [`crate::xfer`].
    pub xfers: Vec<Option<Xfer>>,
    /// Per-rank: has the rank's task returned? Its process is gone, so a
    /// transfer that finds its memory missing fails with `ESRCH` rather
    /// than `EPERM`.
    pub exited: Vec<bool>,
    /// Per-rank busy-until horizon: the instant the rank's last control
    /// send stops occupying it. A send moves the horizon instead of
    /// parking on a timer, and the rank's clock is `max(now, horizon)`:
    /// its next receive is delivered, its next flow joins a server and its
    /// next system call enters the kernel no earlier than the horizon.
    /// `alloc`, `free`, `write_local`, `read_local` and `expose` are exempt
    /// and run at once: they are synchronous, and no peer can observe them
    /// before the message that follows them arrives.
    pub busy_until: Vec<SimTime>,
    /// Destination for phase spans and lock-server counters. Defaults to
    /// off; the team harness installs a live tracer for traced runs.
    pub tracer: kacc_trace::Tracer,
    /// Fault injector consulted by every transport operation. Defaults to
    /// off (a single branch per site); `run_polled_team_faulty` installs a
    /// plan.
    pub fault: kacc_fault::FaultHook,
}

impl MachineState {
    /// Build a single node with `nranks` simulated processes.
    pub fn new(arch: ArchProfile, nranks: usize) -> MachineState {
        MachineState::cluster(arch, 1, nranks, None)
    }

    /// Build `nodes` identical nodes of `ranks_per_node` processes each,
    /// with global ranks block-distributed (ranks `[n·rpn, (n+1)·rpn)`
    /// on node `n`). `fabric` is required when `nodes > 1`.
    pub fn cluster(
        arch: ArchProfile,
        nodes: usize,
        ranks_per_node: usize,
        fabric: Option<FabricParams>,
    ) -> MachineState {
        assert!(nodes >= 1 && ranks_per_node >= 1);
        assert!(
            nodes == 1 || fabric.is_some(),
            "multi-node machines need a fabric"
        );
        let nranks = nodes * ranks_per_node;
        let topo = arch.topology();
        MachineState {
            topo,
            nranks,
            node_of: (0..nranks).map(|r| r / ranks_per_node).collect(),
            mail: Mailboxes::new(),
            bulk: Mailboxes::default(),
            heaps: (0..nranks).map(|_| RankHeap::default()).collect(),
            locks: (0..nranks)
                .map(|_| {
                    PageLockServer::new(arch.l_lock_ns, arch.l_pin_ns, arch.k_bounce, arch.x_socket)
                })
                .collect(),
            mems: (0..nodes).map(|_| MemSys::new(arch.bw_total)).collect(),
            net: fabric.map(|params| NetState {
                egress: (0..nodes).map(|_| MemSys::new(params.bw_link)).collect(),
                ingress: (0..nodes).map(|_| MemSys::new(params.bw_link)).collect(),
                params,
            }),
            stats: vec![RankStats::default(); nranks],
            xfers: (0..nranks).map(|_| None).collect(),
            exited: vec![false; nranks],
            busy_until: vec![0; nranks],
            tracer: kacc_trace::Tracer::off(),
            fault: kacc_fault::FaultHook::off(),
            arch,
        }
    }

    /// Local rank of `rank` within its node.
    pub fn local_rank(&self, rank: usize) -> usize {
        let rpn = self.nranks / self.mems.len();
        rank % rpn
    }

    /// Data plane of a transfer whose ranges the caller has already
    /// checked: move `len` bytes from `src` to `dst`, each a `(rank,
    /// buffer id, offset)`. Nothing moves when both buffers are unwritten
    /// (zeros onto zeros), or when the destination was freed while the
    /// transfer was in flight.
    pub fn move_bytes(&mut self, src: (usize, u64, usize), dst: (usize, u64, usize), len: usize) {
        move_bytes(&mut self.heaps, src, dst, len);
    }

    /// Does `tid` own a live flow in any fluid server? The harnesses
    /// assert it does not when a rank finishes: a leaked flow would sit
    /// at its server's head forever, and with head-only completion wakes
    /// every flow queued behind it would never be woken.
    pub fn owns_live_flow(&self, tid: usize) -> bool {
        let links = self
            .net
            .iter()
            .flat_map(|n| n.egress.iter().chain(&n.ingress));
        self.locks.iter().any(|l| l.owns_flow(tid))
            || self.mems.iter().chain(links).any(|m| m.owns_flow(tid))
    }
}

/// [`MachineState::move_bytes`] over the heaps alone, for callers that
/// hold other fields of the state borrowed.
pub(crate) fn move_bytes(
    heaps: &mut [RankHeap],
    src: (usize, u64, usize),
    dst: (usize, u64, usize),
    len: usize,
) {
    let ((from, src, src_off), (to, dst, dst_off)) = (src, dst);
    let written = heaps[from]
        .mem(src, src_off, len)
        .expect("range checked above")
        .is_written();
    if !written && !heaps[to].is_written(dst) {
        return;
    }
    if from == to {
        heaps[to].copy_within(src, src_off, dst, dst_off, len);
    } else {
        let (lo, hi) = heaps.split_at_mut(from.max(to));
        let (src_heap, dst_heap) = if from < to {
            (&lo[from], &mut hi[0])
        } else {
            (&hi[0], &mut lo[to])
        };
        dst_heap.copy_from(dst, dst_off, src_heap, src, src_off, len);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn heap_alloc_free_expose_lifecycle() {
        let mut h = RankHeap::default();
        let a = h.alloc(16);
        let b = h.alloc(0);
        assert_ne!(a, b);
        assert_eq!(h.len_of(a), Some(16));
        assert!(h.write(a, 4, &[1, 2, 3]));
        let mut out = [0u8; 3];
        assert!(h.read(a, 4, &mut out));
        assert_eq!(out, [1, 2, 3]);
        assert!(!h.write(a, 15, &[1, 2]), "overflow rejected");
        assert!(!h.is_exposed(a));
        assert!(h.expose(a));
        assert!(h.is_exposed(a));
        assert!(h.free(a));
        assert!(!h.is_exposed(a), "free revokes exposure");
        assert!(!h.free(a), "double free detected");
        assert_eq!(h.live_buffers(), 1);
    }

    #[test]
    fn freed_and_never_allocated_ids_fail_every_accessor() {
        let mut h = RankHeap::default();
        let keep = h.alloc(8);
        let freed = h.alloc(8);
        assert!(h.expose(freed));
        assert!(h.free(freed));
        let mut out = [0u8; 1];
        // A freed id, the next id to be handed out, and ids no slab index
        // can hold.
        for id in [freed, 2, 99, u64::MAX] {
            assert_eq!(h.len_of(id), None, "id {id}");
            assert_eq!(h.exposed_len(id), None, "id {id}");
            assert!(!h.is_exposed(id), "id {id}");
            assert!(!h.read(id, 0, &mut out), "id {id}");
            assert!(!h.write(id, 0, &[1]), "id {id}");
            assert_eq!(h.extract(id, 0, 1), None, "id {id}");
            assert!(!h.expose(id), "id {id}");
            assert!(!h.free(id), "id {id}");
            assert!(!h.copy_within(id, 0, keep, 0, 1), "id {id} as source");
            assert!(!h.copy_within(keep, 0, id, 0, 1), "id {id} as destination");
            assert!(!h.copy_within(id, 0, id, 0, 1), "id {id} onto itself");
        }
        // Ids are never reused: the freed slot stays dead, exposure and all.
        assert_eq!(h.alloc(8), 2);
        assert_eq!(h.len_of(freed), None);
        assert_eq!(h.live_buffers(), 2);
    }

    #[test]
    fn copies_move_bytes_without_staging() {
        let mut a = RankHeap::default();
        let mut b = RankHeap::default();
        let src = a.alloc(8);
        a.write(src, 0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let dst = b.alloc(4);
        assert!(b.copy_from(dst, 1, &a, src, 2, 3));
        assert_eq!(b.extract(dst, 0, 4), Some(vec![0, 3, 4, 5]));
        assert!(!b.copy_from(dst, 2, &a, src, 0, 3), "destination overflow");
        assert!(!b.copy_from(dst, 0, &a, src, 6, 3), "source overflow");
        assert_eq!(b.extract(dst, 0, 4), Some(vec![0, 3, 4, 5]), "untouched");

        // Within one heap: to a lower id, to a higher id, and overlapping
        // regions of one buffer.
        let hi = a.alloc(4);
        assert!(a.copy_within(src, 4, hi, 0, 4));
        assert_eq!(a.extract(hi, 0, 4), Some(vec![5, 6, 7, 8]));
        assert!(a.copy_within(hi, 2, src, 0, 2));
        assert!(a.copy_within(src, 0, src, 1, 4));
        assert_eq!(a.extract(src, 0, 8), Some(vec![7, 7, 8, 3, 4, 6, 7, 8]));
        assert!(!a.copy_within(src, 6, src, 0, 3));
        assert!(!a.copy_within(src, 0, hi, 2, 3));
        assert_eq!(a.live_buffers(), 2, "a failed copy puts the slot back");

        // An unwritten buffer: a source of zeros that zeroes a written
        // destination, and a sink that checks the range.
        let mut z = RankHeap::default();
        let u = z.alloc(4);
        assert!(!z.copy_from(u, 2, &a, src, 0, 4), "destination overflow");
        assert!(!b.copy_from(dst, 0, &z, u, 1, 4), "source overflow");
        assert!(b.copy_from(dst, 1, &z, u, 0, 2));
        assert_eq!(b.extract(dst, 0, 4), Some(vec![0, 0, 0, 5]));
        assert!(z.copy_from(u, 0, &a, src, 0, 4));
        assert_eq!(z.extract(u, 0, 4), Some(vec![7, 7, 8, 3]));
    }

    #[test]
    fn alloc_from_copies_the_slice_or_keeps_its_length() {
        let mut real = RankHeap::default();
        let a = real.alloc_from(&[7, 8, 9]);
        assert_eq!(real.extract(a, 0, 3), Some(vec![7, 8, 9]));
        assert!(!real.is_exposed(a));
        let empty = real.alloc_from(&[]);
        assert_eq!((empty, real.len_of(empty)), (a + 1, Some(0)));

        // All zeros: the length alone.
        let n0 = materialized();
        let z = real.alloc_from(&[0; 3]);
        assert_eq!(materialized(), n0);
        assert_eq!(real.len_of(z), Some(3));
        assert_eq!(real.copy_out(z, 0, 3), Some(Buf::Zeros(3)));
        assert_eq!(real.extract(z, 0, 3), Some(vec![0, 0, 0]));
    }

    #[test]
    fn bulk_messages_carry_bytes_or_lengths() {
        let mut h = RankHeap::default();
        let src = h.alloc_from(&[1, 2, 3, 4, 5, 6]);
        let dst = h.alloc(4);
        let z = h.alloc(6);

        // Out: the bytes of a written region, the length of an unwritten
        // one.
        assert_eq!(h.copy_out(src, 2, 3), Some(Buf::Real(vec![3, 4, 5])));
        assert_eq!(h.copy_out(src, 6, 0), Some(Buf::Real(Vec::new())));
        assert_eq!(h.copy_out(z, 2, 3), Some(Buf::Zeros(3)));
        for id in [src, z] {
            assert_eq!(h.copy_out(id, 4, 3), None, "past the end");
            assert_eq!(h.copy_out(id, usize::MAX, 2), None, "offset overflow");
            assert_eq!(h.extract(id, 4, 3), None);
        }

        // In: one copy of bytes; zeros zero a written destination and
        // leave an unwritten one unwritten; the range is checked either
        // way.
        assert!(h.copy_in(dst, 1, &Buf::Real(vec![3, 4, 5])));
        assert_eq!(h.extract(dst, 0, 4), Some(vec![0, 3, 4, 5]));
        assert!(!h.copy_in(dst, 2, &Buf::Real(vec![9, 9, 9])), "overflow");
        assert!(!h.copy_in(dst, 1, &Buf::Zeros(4)));
        assert!(!h.copy_in(dst, usize::MAX, &Buf::Zeros(2)));
        assert_eq!(h.extract(dst, 0, 4), Some(vec![0, 3, 4, 5]), "untouched");
        assert!(h.copy_in(dst, 2, &Buf::Zeros(1)));
        assert_eq!(h.extract(dst, 0, 4), Some(vec![0, 3, 0, 5]));
        assert!(h.copy_in(z, 0, &Buf::Zeros(6)));
        assert!(!h.copy_in(z, 0, &Buf::Zeros(7)));
        assert_eq!(h.copy_out(z, 0, 6), Some(Buf::Zeros(6)), "still unwritten");
        assert!(h.copy_in(z, 3, &Buf::Real(vec![1, 2, 3])));
        assert!(!h.copy_in(z, 4, &Buf::Real(vec![1, 2, 3])));
        assert_eq!(h.extract(z, 0, 6), Some(vec![0, 0, 0, 1, 2, 3]));

        // Dead ids: freed, next to be handed out, unindexable.
        h.free(src);
        for id in [src, 3, u64::MAX] {
            assert_eq!(h.copy_out(id, 0, 0), None, "id {id}");
            assert!(!h.copy_in(id, 0, &Buf::Zeros(0)), "id {id}");
            assert!(!h.copy_in(id, 0, &Buf::Real(Vec::new())), "id {id}");
        }
    }

    #[test]
    fn move_bytes_skips_unwritten_pairs_and_freed_destinations() {
        let mut st = MachineState::new(ArchProfile::broadwell(), 3);
        let a = st.heaps[0].alloc(4);
        let b = st.heaps[1].alloc(4);
        let z = st.heaps[2].alloc(4);
        let z2 = st.heaps[2].alloc(4);
        st.heaps[0].write(a, 0, &[9, 8, 7, 6]);
        st.move_bytes((0, a, 1), (1, b, 0), 3);
        assert_eq!(st.heaps[1].extract(b, 0, 4), Some(vec![8, 7, 6, 0]));
        st.move_bytes((1, b, 0), (0, a, 2), 2);
        assert_eq!(st.heaps[0].extract(a, 0, 4), Some(vec![9, 8, 8, 7]));
        st.move_bytes((0, a, 0), (0, a, 1), 3);
        assert_eq!(st.heaps[0].extract(a, 0, 4), Some(vec![9, 9, 8, 8]));
        // Zeros onto zeros allocate nothing; zeros onto written bytes
        // zero them.
        let n0 = materialized();
        st.move_bytes((2, z, 0), (2, z2, 0), 4);
        st.move_bytes((2, z, 1), (2, z, 0), 3);
        st.move_bytes((2, z, 0), (1, b, 0), 2);
        assert_eq!(materialized(), n0);
        assert_eq!(st.heaps[2].copy_out(z2, 0, 4), Some(Buf::Zeros(4)));
        assert_eq!(st.heaps[1].extract(b, 0, 4), Some(vec![0, 0, 6, 0]));
        st.move_bytes((0, a, 0), (2, z, 0), 4);
        assert_eq!(st.heaps[2].extract(z, 0, 4), Some(vec![9, 9, 8, 8]));
        st.heaps[1].free(b);
        st.move_bytes((0, a, 0), (1, b, 0), 4);
        st.move_bytes((2, z2, 0), (1, b, 0), 4);
    }

    #[test]
    #[should_panic(expected = "range checked above")]
    fn move_bytes_from_a_freed_source_is_a_bug() {
        let mut st = MachineState::new(ArchProfile::broadwell(), 2);
        let a = st.heaps[0].alloc(4);
        let b = st.heaps[1].alloc(4);
        st.heaps[0].free(a);
        st.move_bytes((0, a, 0), (1, b, 0), 4);
    }

    /// Buffers materialized on this thread so far.
    fn materialized() -> usize {
        MATERIALIZED.with(|n| n.get())
    }

    #[test]
    fn a_buffer_materializes_on_its_first_write_only() {
        let mut h = RankHeap::default();
        let n0 = materialized();
        let a = h.alloc(16 * BIG + 3);
        assert_eq!(materialized(), n0, "alloc touches no byte");
        // Zeros written, landed or copied in allocate nothing.
        assert!(h.write(a, 3 * BIG, &vec![0; 2 * BIG + 9]));
        assert!(h.copy_in(a, 0, &Buf::Real(vec![0; BIG])));
        assert!(h.copy_in(a, 7, &Buf::Zeros(BIG)));
        let z = h.alloc_from(&vec![0; 3 * BIG]);
        assert_eq!(materialized(), n0, "zeros allocate nothing");
        assert_eq!(h.copy_out(a, 0, 8), Some(Buf::Zeros(8)));
        assert_eq!(h.copy_out(z, BIG, 8), Some(Buf::Zeros(8)));
        assert!(h.write(a, 5 * BIG + 7, &[1]));
        assert_eq!(materialized(), n0 + 1, "a one-byte write builds the buffer");
        assert!(h.write(a, 5 * BIG, &[2; 8]));
        assert_eq!(materialized(), n0 + 1, "the buffer is reused");

        // Copies from an unwritten buffer leave an unwritten destination
        // unwritten and zero a written one.
        let b = h.alloc(16 * BIG + 3);
        assert!(h.copy_within(b, 0, a, BIG, 8 * BIG));
        assert_eq!(materialized(), n0 + 1, "zeros onto zeros");
        assert_eq!(h.extract(a, 5 * BIG, 8), Some(vec![0; 8]));
        assert!(h.copy_within(b, 0, b, 7, 3 * BIG));
        let mut other = RankHeap::default();
        let c = other.alloc(3 * BIG);
        assert!(other.copy_from(c, 0, &h, b, 0, 3 * BIG));
        assert_eq!(materialized(), n0 + 1);

        // A zero write onto the written buffer lands.
        assert!(h.write(a, 5 * BIG + 7, &[0]));
        assert_eq!(h.extract(a, 5 * BIG + 7, 1), Some(vec![0]));

        // alloc_from and a copy from a written buffer build one each.
        let d = h.alloc_from(&[1; 5]);
        assert_eq!(materialized(), n0 + 2);
        assert!(other.copy_from(c, 1, &h, d, 0, 3));
        assert_eq!(materialized(), n0 + 3);
        assert_eq!(other.extract(c, 0, 5), Some(vec![0, 1, 1, 1, 0]));
    }

    #[test]
    fn a_copy_of_a_page_or_more_shares_the_source_and_materializes_nothing() {
        let mut st = MachineState::new(ArchProfile::broadwell(), 2);
        let data = pattern(3 * PAGE + 8, 7);
        let src = st.heaps[0].alloc_from(&data);
        let dst = st.heaps[1].alloc(4 * PAGE);
        let n0 = materialized();
        // Across heaps, within one heap, within one buffer, and through
        // `move_bytes` both ways: exactly a page and more.
        let (a, b) = st.heaps.split_at_mut(1);
        assert!(b[0].copy_from(dst, 8, &a[0], src, 0, PAGE));
        st.move_bytes((0, src, PAGE), (1, dst, PAGE + 8), 2 * PAGE + 8);
        let again = st.heaps[1].alloc(4 * PAGE);
        assert!(st.heaps[1].copy_within(dst, 0, again, 0, 4 * PAGE));
        assert!(st.heaps[1].copy_within(again, 8, again, 16, PAGE));
        st.move_bytes((1, again, 0), (0, src, PAGE), PAGE);
        assert_eq!(materialized(), n0, "a shared copy makes no store");
        let mut want = vec![0; 4 * PAGE];
        want[8..8 + data.len()].copy_from_slice(&data);
        assert_eq!(st.heaps[1].extract(dst, 0, 4 * PAGE), Some(want.clone()));
        want.copy_within(8..8 + PAGE, 16);
        assert_eq!(st.heaps[1].extract(again, 0, 4 * PAGE), Some(want));
        // One store holds every byte the three buffers carry.
        for (h, id) in [(0, src), (1, dst), (1, again)] {
            let runs = &st.heaps[h].slot(id).unwrap().mem.runs;
            assert!(runs.len() <= 5, "{h}/{id}: {runs:?}");
        }
        // A copy one byte short of a page copies bytes.
        let (a, b) = st.heaps.split_at_mut(1);
        assert!(b[0].copy_from(dst, 0, &a[0], src, 0, PAGE - 1));
        assert_eq!(materialized(), n0 + 1, "the destination was flattened");
    }

    #[test]
    fn a_shared_copy_is_a_snapshot_of_its_source() {
        let mut a = RankHeap::default();
        let mut b = RankHeap::default();
        let src = a.alloc_from(&pattern(2 * PAGE, 1));
        let dst = b.alloc(2 * PAGE);
        assert!(b.copy_from(dst, 0, &a, src, 0, 2 * PAGE));
        let inner = b.alloc(PAGE + 1);
        assert!(b.copy_within(dst, 3, inner, 0, PAGE + 1));
        let want = pattern(2 * PAGE, 1);
        // Writes to the source, short and long, in place or not, a zero
        // landing, then its death: the copies keep what they copied.
        assert!(a.write(src, 5, &[0xFF; 3]));
        assert!(a.write(src, PAGE, &vec![0xEE; PAGE]));
        assert!(a.copy_in(src, 0, &Buf::Zeros(PAGE)));
        assert!(a.copy_in(src, 9, &Buf::Zeros(2)));
        let mut changed = want.clone();
        changed[..PAGE].fill(0);
        changed[PAGE..].fill(0xEE);
        assert_eq!(a.extract(src, 0, 2 * PAGE), Some(changed));
        assert!(a.free(src));
        assert_eq!(b.extract(dst, 0, 2 * PAGE), Some(want.clone()));
        assert_eq!(
            b.extract(inner, 0, PAGE + 1),
            Some(want[3..PAGE + 4].to_vec())
        );
        // And the other way: writing a copy leaves its source alone.
        assert!(b.write(dst, 3, &[0xAB; 4]));
        assert!(b.write(dst, PAGE, &vec![0xCD; PAGE]));
        assert_eq!(
            b.extract(inner, 0, PAGE + 1),
            Some(want[3..PAGE + 4].to_vec())
        );
    }

    #[test]
    fn an_agreement_rounds_landings_leave_one_run() {
        // `l` members each land a `width`-byte mask in its slot of one
        // receive buffer, after the owner zeroes it and writes its own.
        let (l, width) = (64, 9);
        let mut st = MachineState::new(ArchProfile::broadwell(), l);
        let sends: Vec<u64> = (0..l)
            .map(|r| st.heaps[r].alloc_from(&[r as u8 + 1; 9]))
            .collect();
        let n0 = materialized();
        let recv = st.heaps[0].alloc(width * l);
        for round in 0..3 {
            assert!(st.heaps[0].write(recv, 0, &vec![0; width * l]));
            assert!(st.heaps[0].write(recv, 0, &[1; 9]));
            for (r, &send) in sends.iter().enumerate().skip(1) {
                st.move_bytes((r, send, 0), (0, recv, width * r), width);
            }
            assert_eq!(
                st.heaps[0].slot(recv).unwrap().mem.runs.len(),
                1,
                "round {round}"
            );
        }
        assert_eq!(materialized(), n0 + 1, "one store, written in place");
        let want: Vec<u8> = (0..l).flat_map(|r| [r as u8 + 1; 9]).collect();
        assert_eq!(st.heaps[0].extract(recv, 0, width * l), Some(want));
    }

    #[test]
    fn a_buffer_past_the_run_bound_is_flattened() {
        let mut h = RankHeap::default();
        let srcs: Vec<u64> = (0..=MAX_RUNS)
            .map(|i| h.alloc_from(&[i as u8 + 1; PAGE]))
            .collect();
        let dst = h.alloc(PAGE * MAX_RUNS);
        let runs = |h: &RankHeap| h.slot(dst).unwrap().mem.runs.len();
        let n0 = materialized();
        let mut want = vec![0; PAGE * MAX_RUNS];
        // A page from each of MAX_RUNS stores: at the bound, still shared.
        for (i, &s) in srcs[..MAX_RUNS].iter().enumerate() {
            assert!(h.copy_within(s, 0, dst, i * PAGE, PAGE));
            want[i * PAGE..(i + 1) * PAGE].fill(i as u8 + 1);
            assert_eq!(runs(&h), (i + 2).min(MAX_RUNS), "copy {i}");
        }
        assert_eq!(materialized(), n0);
        // A page across two of them is one run more: one store.
        assert!(h.copy_within(srcs[MAX_RUNS], 0, dst, PAGE / 2, PAGE));
        want[PAGE / 2..PAGE / 2 + PAGE].fill(MAX_RUNS as u8 + 1);
        assert_eq!((runs(&h), materialized()), (1, n0 + 1));
        assert_eq!(h.extract(dst, 0, want.len()), Some(want));
    }

    #[test]
    fn all_zero_sees_a_set_byte_anywhere() {
        for len in [0, 1, 511, 512, 513, 1029] {
            let mut v = vec![0u8; len];
            assert!(all_zero(&v), "{len}");
            for i in 0..len {
                v[i] = 0x80;
                assert!(!all_zero(&v), "{len}: byte {i}");
                v[i] = 0;
            }
        }
    }

    /// One heap operation for the model check: a kind, a heap, two
    /// buffer picks; two offset picks and a length pick; a fill byte.
    type Op = ((u8, bool, u8, u8), (usize, usize, usize), u8);

    /// The scale of the model check's large buffers and accesses.
    const BIG: usize = 64 << 10;

    /// Buffer lengths from empty to a few `BIG`, on both sides of a
    /// page.
    const LENS: [usize; 11] = [
        0,
        1,
        13,
        PAGE - 1,
        PAGE,
        PAGE + 1,
        BIG - 1,
        BIG,
        BIG + 1,
        2 * BIG + 5,
        3 * BIG,
    ];

    /// An offset into a buffer of `cap` bytes near a multiple of a page
    /// or of `BIG`; one pick in `cap + 2` lands past the end.
    fn pick_off(raw: usize, cap: usize) -> usize {
        let unit = if raw.is_multiple_of(2) { PAGE } else { BIG };
        let edge = (raw / 2 % 4) * unit + (raw / 8) % 7;
        edge.saturating_sub(3) % (cap + 2)
    }

    /// A length for an access at `off` of a `cap`-byte buffer: short,
    /// about a page, about `BIG` or to the end, overshooting by one in
    /// one pick of 16.
    fn pick_len(raw: usize, off: usize, cap: usize) -> usize {
        let room = cap.saturating_sub(off);
        let want = match raw % 5 {
            0 => raw / 5 % 9,
            1 => PAGE + raw / 5 % 3 - 1,
            2 => BIG + raw / 5 % 3 - 1,
            3 => room,
            _ => raw / 5 % (2 * BIG + 1),
        };
        want.min(room) + usize::from(raw % 16 == 15)
    }

    /// The piece table's invariants on every live buffer of `h`: runs
    /// tile it in order, none empty, none past its store, no two
    /// adjacent that continue each other, never a lone zero run, and at
    /// most [`MAX_RUNS`].
    fn check_runs(h: &RankHeap) -> TestCaseResult {
        for (id, m) in h.slots.iter().enumerate() {
            let Some(m) = m.as_ref().map(|s| &s.mem) else {
                continue;
            };
            prop_assert!(m.runs.len() <= MAX_RUNS, "{id}: {} runs", m.runs.len());
            let mut at = 0;
            for (i, r) in m.runs.iter().enumerate() {
                prop_assert!(r.at == at && r.len > 0, "{id}: run {i} {r:?} at {at}");
                if let Some((s, from)) = &r.store {
                    prop_assert!(from + r.len <= s.len(), "{id}: run {i} past its store");
                }
                prop_assert!(i == 0 || !m.runs[i - 1].continues(r), "{id}: run {i} joins");
                at += r.len;
            }
            prop_assert!(m.runs.is_empty() || at == m.len, "{id}: runs cover {at}");
            let lone_zeros = matches!(&m.runs[..], [r] if r.store.is_none());
            prop_assert!(!lone_zeros, "{id}: a lone zero run");
        }
        Ok(())
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| seed.wrapping_add((i % 251) as u8))
            .collect()
    }

    /// A heap as flat vectors, `None` where a buffer was freed.
    type Model = Vec<Option<Vec<u8>>>;

    /// The flat model of a buffer's range, if the access is valid.
    fn flat(model: &Model, id: usize, off: usize, len: usize) -> Option<&[u8]> {
        let v = model.get(id)?.as_ref()?;
        in_range(off, len, v.len()).then(|| &v[off..off + len])
    }

    /// Apply one operation to both heaps and their models; every
    /// result, byte and length must agree.
    fn apply(heaps: &mut [RankHeap; 2], models: &mut [Model; 2], op: Op) -> TestCaseResult {
        let ((kind, other, x, y), (r0, r1, r2), seed) = op;
        let kind = kind % 9;
        // One write in three carries zeros.
        let zeros = seed % 3 == 0;
        // Destination heap `h`; the source heap is the other one for
        // `copy_from`.
        let h = usize::from(other);
        let sh = if kind == 4 { 1 - h } else { h };
        let a = usize::from(x) % (models[h].len() + 1);
        let b = usize::from(y) % (models[sh].len() + 1);
        // `copy_within` copies between two buffers, or inside one.
        let b = if kind == 5 && seed % 2 == 0 { a } else { b };
        let cap = |m: &Model, id: usize| m.get(id).and_then(Option::as_ref).map_or(0, Vec::len);
        let off = pick_off(r0, cap(&models[h], a));
        let src_off = pick_off(r1, cap(&models[sh], b));
        let len = pick_len(r2, off, cap(&models[h], a));
        let src = flat(&models[sh], b, src_off, len).map(<[u8]>::to_vec);
        let (id, src_id) = (a as u64, b as u64);
        // What a successful write of `data` at `off` of `a` leaves.
        let mut landed: Option<Vec<u8>> = None;
        match kind {
            0 | 1 => {
                let n = LENS[r2 % LENS.len()];
                let data = if kind == 0 || zeros {
                    vec![0; n]
                } else {
                    pattern(n, seed)
                };
                let got = if kind == 0 {
                    heaps[h].alloc(n)
                } else {
                    heaps[h].alloc_from(&data)
                };
                prop_assert_eq!(got, models[h].len() as u64);
                models[h].push(Some(data));
            }
            2 => {
                let mut out = vec![0xEE; len];
                let want = flat(&models[h], a, off, len);
                prop_assert_eq!(heaps[h].read(id, off, &mut out), want.is_some());
                if let Some(w) = want {
                    prop_assert!(out == w, "read {a}@{off}+{len}");
                }
            }
            3 | 7 => {
                let data = if zeros {
                    vec![0; len]
                } else {
                    pattern(len, seed)
                };
                let got = match kind {
                    3 => heaps[h].write(id, off, &data),
                    _ if zeros && seed % 2 == 0 => heaps[h].copy_in(id, off, &Buf::Zeros(len)),
                    _ => heaps[h].copy_in(id, off, &Buf::Real(data.clone())),
                };
                landed = Some(data);
                prop_assert_eq!(got, flat(&models[h], a, off, len).is_some());
            }
            4 => {
                let [lo, hi] = heaps;
                let (dst, from) = if h == 0 { (lo, &*hi) } else { (hi, &*lo) };
                let got = dst.copy_from(id, off, from, src_id, src_off, len);
                landed = src.filter(|_| flat(&models[h], a, off, len).is_some());
                prop_assert_eq!(got, landed.is_some());
            }
            5 => {
                let got = heaps[h].copy_within(src_id, src_off, id, off, len);
                landed = src.filter(|_| flat(&models[h], a, off, len).is_some());
                prop_assert_eq!(got, landed.is_some());
            }
            6 => {
                let got = heaps[h].copy_out(id, off, len).map(|msg| match msg {
                    Buf::Real(bytes) => bytes,
                    Buf::Zeros(n) => vec![0; n],
                });
                prop_assert_eq!(got.as_deref(), flat(&models[h], a, off, len));
            }
            _ => {
                let live = models[h].get(a).is_some_and(Option::is_some);
                prop_assert_eq!(heaps[h].free(id), live);
                if live {
                    models[h][a] = None;
                }
            }
        }
        if let Some(v) = models[h].get_mut(a).and_then(Option::as_mut) {
            if let Some(data) = landed.filter(|d| in_range(off, d.len(), v.len())) {
                v[off..off + len].copy_from_slice(&data);
            }
        }
        // The buffer an operation targets must match its model in full,
        // bytes it did not touch included.
        if let Some(v) = models[h].get(a).and_then(Option::as_ref) {
            prop_assert!(
                heaps[h].extract(id, 0, v.len()).as_deref() == Some(&v[..]),
                "{a}"
            );
        }
        for (heap, model) in heaps.iter().zip(models.iter()) {
            for (id, v) in model.iter().enumerate() {
                prop_assert_eq!(heap.len_of(id as u64), v.as_ref().map(Vec::len));
            }
            check_runs(heap)?;
        }
        Ok(())
    }

    fn heap_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (
                (0u8..=255, any::<bool>(), 0u8..=255, 0u8..=255),
                (0usize..1 << 20, 0usize..1 << 20, 0usize..1 << 20),
                0u8..=255,
            ),
            1..64,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]
        #[test]
        fn piece_heap_matches_a_flat_model(ops in heap_ops()) {
            let mut heaps = [RankHeap::default(), RankHeap::default()];
            let mut models = [Vec::new(), Vec::new()];
            for op in ops {
                apply(&mut heaps, &mut models, op)?;
            }
            // Every byte of every live buffer, read back whole.
            for (heap, model) in heaps.iter().zip(&models) {
                for (id, v) in model.iter().enumerate() {
                    prop_assert_eq!(heap.extract(id as u64, 0, v.as_ref().map_or(0, Vec::len)),
                                    v.clone());
                }
            }
        }
    }

    #[test]
    fn expose_unknown_buffer_fails() {
        let mut h = RankHeap::default();
        assert!(!h.expose(99));
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = RankStats {
            cma_ops: 2,
            shm_bytes: 5,
            ..Default::default()
        };
        let b = RankStats {
            cma_ops: 1,
            bytes_read: 3,
            bytes_written: 4,
            shm_ops: 6,
            shm_bytes: 7,
            fallback_ops: 8,
            fallback_bytes: 9,
        };
        a.merge(&b);
        assert_eq!(
            a,
            RankStats {
                cma_ops: 3,
                shm_bytes: 12,
                ..b
            }
        );
    }

    #[test]
    fn machine_state_sizes_match() {
        let st = MachineState::new(ArchProfile::broadwell(), 28);
        assert_eq!(st.heaps.len(), 28);
        assert_eq!(st.locks.len(), 28);
        assert_eq!(st.stats.len(), 28);
        assert_eq!(st.topo.physical_cores(), 28);
    }
}
