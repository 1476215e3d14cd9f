//! Shared simulated-node state living inside the DES kernel.
//!
//! [`MachineState`] is what the simulation kernel owns and every rank's
//! endpoint reaches through poll closures: the fluid servers, the per-rank
//! heaps and the two message planes.
//!
//! A heap buffer is real bytes, allocated by its first write
//! (see [`RankHeap`]), or for a *phantom* team just a length. A bulk
//! shared-memory message is a [`Buf`] ([`MachineState::bulk`]):
//! [`RankHeap::copy_out`] takes it from the sender's heap and
//! [`RankHeap::copy_in`] lands it in the receiver's, so
//! a phantom team's messages are lengths (every range, length and
//! truncation check runs on lengths alone; no byte is allocated or
//! touched) and a real team's bytes are copied once out and once in.
//! Control messages ([`MachineState::mail`]) are always real bytes: the
//! protocols read them.

use crate::fluid::{MemSys, PageLockServer};
use crate::xfer::Xfer;
use kacc_comm::Topology;
use kacc_model::{ArchProfile, FabricParams};
use kacc_sim_core::{Mailboxes, SimTime};

/// One bulk message in flight between two heaps: real bytes, or a
/// *phantom* that tracks only its length. Phantoms let measurement
/// sweeps simulate terabyte-scale traffic without allocating it (timing
/// is unaffected; reads return zeroes).
#[derive(Debug, PartialEq, Eq)]
pub enum Buf {
    /// Real bytes (default; data-correctness tests use this).
    Real(Vec<u8>),
    /// Length-only placeholder for measurement runs.
    Phantom(usize),
}

impl Buf {
    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Buf::Real(v) => v.len(),
            Buf::Phantom(n) => *n,
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

#[cfg(test)]
thread_local! {
    /// Buffers materialized on this thread (tests read the difference).
    static MATERIALIZED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The storage of a real buffer, once it exists (counted in test builds).
fn materialize(bytes: Vec<u8>) -> Vec<u8> {
    #[cfg(test)]
    MATERIALIZED.with(|n| n.set(n.get() + 1));
    bytes
}

/// The bytes of a real heap buffer: `len` bytes, allocated whole by the
/// first write that is not all zeros. Until then the buffer reads as
/// zeros and costs nothing but its length.
#[derive(Debug)]
struct Lazy {
    len: usize,
    bytes: Option<Vec<u8>>,
}

impl Lazy {
    /// `[off, off + len)` (in range): its bytes, or `None` while the
    /// buffer is unallocated (zeros).
    fn region(&self, off: usize, len: usize) -> Option<&[u8]> {
        self.bytes.as_deref().map(|b| &b[off..off + len])
    }

    /// Write `len` bytes of `src` (`None`: zeros) at `off` (in range).
    /// Zeros onto an unallocated buffer leave it unallocated.
    fn write(&mut self, off: usize, len: usize, src: Option<&[u8]>) {
        match (&mut self.bytes, src) {
            (None, None) => {}
            (Some(b), None) => b[off..off + len].fill(0),
            (b, Some(s)) => b.get_or_insert_with(|| materialize(vec![0; self.len]))[off..off + len]
                .copy_from_slice(s),
        }
    }
}

/// The storage of one heap buffer: lazy bytes, or a length alone.
#[derive(Debug)]
enum Mem {
    Real(Lazy),
    Phantom(usize),
}

impl Mem {
    fn len(&self) -> usize {
        match self {
            Mem::Real(c) => c.len,
            Mem::Phantom(n) => *n,
        }
    }

    /// Write `len` bytes of `src` at `off` (a range check alone into a
    /// phantom). False if out of range.
    fn write(&mut self, off: usize, len: usize, src: Option<&[u8]>) -> bool {
        let ok = in_range(off, len, self.len());
        if let (true, Mem::Real(c)) = (ok, self) {
            c.write(off, len, src);
        }
        ok
    }
}

/// One live buffer and whether its owner exposed it.
#[derive(Debug)]
struct HeapSlot {
    mem: Mem,
    exposed: bool,
}

/// One simulated process's private memory: buffers and exposure set.
///
/// A real buffer's bytes are allocated by the first write that is not
/// all zeros, so allocating one costs its length alone and a buffer
/// nobody writes is never zero-filled or copied; every accessor behaves
/// as if the whole buffer were present and zero-initialised.
#[derive(Debug, Default)]
pub struct RankHeap {
    /// `slots[id]`: ids are handed out in sequence and never reused, so a
    /// buffer id is its index and a freed id stays `None` for good.
    slots: Vec<Option<HeapSlot>>,
    /// Allocate phantoms instead of real buffers.
    pub phantom: bool,
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
        self.push(if self.phantom {
            Mem::Phantom(len)
        } else {
            Mem::Real(Lazy { len, bytes: None })
        })
    }

    /// Allocate a buffer holding a copy of `data` (its length alone on a
    /// phantom heap), returning its id.
    pub fn alloc_from(&mut self, data: &[u8]) -> u64 {
        self.push(if self.phantom {
            Mem::Phantom(data.len())
        } else {
            Mem::Real(Lazy {
                len: data.len(),
                bytes: Some(materialize(data.to_vec())),
            })
        })
    }

    fn push(&mut self, mem: Mem) -> u64 {
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
        self.slot(id).map(|s| s.mem.len())
    }

    /// Read bytes out (phantoms yield zeroes). False if the access is
    /// invalid.
    pub fn read(&self, id: u64, off: usize, out: &mut [u8]) -> bool {
        match self.slot(id).map(|s| &s.mem) {
            Some(Mem::Real(c)) if in_range(off, out.len(), c.len) => {
                match c.region(off, out.len()) {
                    Some(b) => out.copy_from_slice(b),
                    None => out.fill(0),
                }
                true
            }
            Some(Mem::Phantom(n)) if in_range(off, out.len(), *n) => {
                out.fill(0);
                true
            }
            _ => false,
        }
    }

    /// Write bytes in (no-op into phantoms). False if invalid.
    pub fn write(&mut self, id: u64, off: usize, data: &[u8]) -> bool {
        self.slot_mut(id)
            .is_some_and(|s| s.mem.write(off, data.len(), Some(data)))
    }

    /// Copy a region out as a vector (zeroes for phantoms). None if
    /// invalid.
    pub fn extract(&self, id: u64, off: usize, len: usize) -> Option<Vec<u8>> {
        self.copy_out(id, off, len).map(|msg| match msg {
            Buf::Real(bytes) => bytes,
            Buf::Phantom(len) => vec![0u8; len],
        })
    }

    /// Copy a region out as a bulk message: the bytes of a real buffer,
    /// the length alone of a phantom (nothing is allocated). None if the
    /// access is invalid.
    pub fn copy_out(&self, id: u64, off: usize, len: usize) -> Option<Buf> {
        match &self.slot(id)?.mem {
            Mem::Real(_) => Some(Buf::Real(match self.region(id, off, len)? {
                Some(b) => b.to_vec(),
                None => vec![0; len],
            })),
            Mem::Phantom(cap) => in_range(off, len, *cap).then_some(Buf::Phantom(len)),
        }
    }

    /// Land a bulk message at `off` of a buffer: one copy of real bytes
    /// into a real buffer; with a phantom on either side the range check
    /// alone (as [`MachineState::move_bytes`], nothing moves). False if
    /// the access is invalid.
    pub fn copy_in(&mut self, id: u64, off: usize, msg: &Buf) -> bool {
        self.slot_mut(id).is_some_and(|s| match msg {
            Buf::Real(bytes) => s.mem.write(off, bytes.len(), Some(bytes)),
            Buf::Phantom(len) => in_range(off, *len, s.mem.len()),
        })
    }

    /// A region of a real buffer as a copy source (`Some(None)` while it
    /// reads as zeros); `None` for phantoms and invalid accesses.
    fn region(&self, id: u64, off: usize, len: usize) -> Option<Option<&[u8]>> {
        match &self.slot(id)?.mem {
            Mem::Real(c) if in_range(off, len, c.len) => Some(c.region(off, len)),
            _ => None,
        }
    }

    /// Copy `len` bytes from a buffer of `src` straight into a buffer of
    /// this heap — one memcpy where [`extract`](Self::extract) then
    /// [`write`](Self::write) allocate and copy twice. False (and nothing
    /// moves) if either access is invalid or the source is a phantom.
    pub fn copy_from(
        &mut self,
        dst: u64,
        dst_off: usize,
        src: &RankHeap,
        src_id: u64,
        src_off: usize,
        len: usize,
    ) -> bool {
        src.region(src_id, src_off, len).is_some_and(|from| {
            self.slot_mut(dst)
                .is_some_and(|s| s.mem.write(dst_off, len, from))
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
            return match self.slot_mut(dst).map(|s| &mut s.mem) {
                Some(Mem::Real(c))
                    if in_range(src_off, len, c.len) && in_range(dst_off, len, c.len) =>
                {
                    if let Some(b) = &mut c.bytes {
                        b.copy_within(src_off..src_off + len, dst_off);
                    }
                    true
                }
                _ => false,
            };
        }
        // Lift the destination out of the slab while the source is
        // borrowed from it.
        let Some(mut to) = self.entry_mut(dst).and_then(Option::take) else {
            return false;
        };
        let ok = self
            .region(src, src_off, len)
            .is_some_and(|from| to.mem.write(dst_off, len, from));
        self.slots[dst as usize] = Some(to);
        ok
    }

    /// Is the buffer a phantom?
    pub fn is_phantom(&self, id: u64) -> bool {
        self.slot(id)
            .is_some_and(|s| matches!(s.mem, Mem::Phantom(_)))
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
        self.slot(id).filter(|s| s.exposed).map(|s| s.mem.len())
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
    /// `shm_recv_data`): regions copied out of the sender's heap, so a
    /// phantom team's are lengths. A plane of its own — a control and a
    /// bulk message of the same `(to, from, tag)` never meet.
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
        MachineState::cluster_opts(arch, nodes, ranks_per_node, fabric, false)
    }

    /// [`MachineState::cluster`] with a `phantom` switch: phantom heaps
    /// track buffer lengths only, so measurement sweeps can simulate
    /// arbitrarily large traffic without allocating it.
    pub fn cluster_opts(
        arch: ArchProfile,
        nodes: usize,
        ranks_per_node: usize,
        fabric: Option<FabricParams>,
        phantom: bool,
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
            heaps: (0..nranks)
                .map(|_| RankHeap {
                    phantom,
                    ..RankHeap::default()
                })
                .collect(),
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
    /// buffer id, offset)`. Nothing moves when either buffer is a phantom
    /// (phantom runs model time only), or when the destination was freed
    /// while the transfer was in flight.
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
    if heaps[from].is_phantom(src) || heaps[to].is_phantom(dst) {
        return;
    }
    assert!(
        heaps[from]
            .len_of(src)
            .is_some_and(|cap| src_off + len <= cap),
        "range checked above"
    );
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
            assert!(!h.is_phantom(id), "id {id}");
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

        // Phantoms: a sink that checks the range, never a source.
        let mut ph = RankHeap {
            phantom: true,
            ..RankHeap::default()
        };
        let p = ph.alloc(4);
        assert!(ph.copy_from(p, 0, &a, src, 0, 4));
        assert!(!ph.copy_from(p, 2, &a, src, 0, 4));
        assert!(!a.copy_from(src, 0, &ph, p, 0, 4));
    }

    #[test]
    fn alloc_from_copies_the_slice_or_keeps_its_length() {
        let mut real = RankHeap::default();
        let a = real.alloc_from(&[7, 8, 9]);
        assert_eq!(real.extract(a, 0, 3), Some(vec![7, 8, 9]));
        assert!(!real.is_phantom(a) && !real.is_exposed(a));
        let empty = real.alloc_from(&[]);
        assert_eq!((empty, real.len_of(empty)), (a + 1, Some(0)));

        let mut ph = RankHeap {
            phantom: true,
            ..RankHeap::default()
        };
        let p = ph.alloc_from(&[7, 8, 9]);
        assert!(ph.is_phantom(p));
        assert_eq!(ph.len_of(p), Some(3));
        assert_eq!(
            ph.extract(p, 0, 3),
            Some(vec![0, 0, 0]),
            "phantoms read as zeroes"
        );
    }

    #[test]
    fn bulk_messages_carry_bytes_or_lengths() {
        let mut real = RankHeap::default();
        let src = real.alloc_from(&[1, 2, 3, 4, 5, 6]);
        let dst = real.alloc(4);
        let mut ph = RankHeap {
            phantom: true,
            ..RankHeap::default()
        };
        let p = ph.alloc(6);

        // Out: the bytes of a real region, the length of a phantom one.
        assert_eq!(real.copy_out(src, 2, 3), Some(Buf::Real(vec![3, 4, 5])));
        assert_eq!(real.copy_out(src, 6, 0), Some(Buf::Real(Vec::new())));
        assert_eq!(ph.copy_out(p, 2, 3), Some(Buf::Phantom(3)));
        for heap in [&real, &ph] {
            assert_eq!(heap.copy_out(0, 4, 3), None, "past the end");
            assert_eq!(heap.copy_out(0, usize::MAX, 2), None, "offset overflow");
            assert_eq!(heap.extract(0, 4, 3), None);
        }

        // In: one copy real → real; a range check with a phantom on
        // either side.
        assert!(real.copy_in(dst, 1, &Buf::Real(vec![3, 4, 5])));
        assert_eq!(real.extract(dst, 0, 4), Some(vec![0, 3, 4, 5]));
        assert!(!real.copy_in(dst, 2, &Buf::Real(vec![9, 9, 9])), "overflow");
        assert!(real.copy_in(dst, 0, &Buf::Phantom(4)));
        assert!(!real.copy_in(dst, 1, &Buf::Phantom(4)));
        assert!(!real.copy_in(dst, usize::MAX, &Buf::Phantom(2)));
        assert_eq!(real.extract(dst, 0, 4), Some(vec![0, 3, 4, 5]), "untouched");
        assert!(ph.copy_in(p, 3, &Buf::Real(vec![1, 2, 3])));
        assert!(!ph.copy_in(p, 4, &Buf::Real(vec![1, 2, 3])));
        assert!(ph.copy_in(p, 0, &Buf::Phantom(6)));
        assert!(!ph.copy_in(p, 0, &Buf::Phantom(7)));

        // Dead ids: freed, next to be handed out, unindexable.
        real.free(src);
        for id in [src, 2, u64::MAX] {
            assert_eq!(real.copy_out(id, 0, 0), None, "id {id}");
            assert!(!real.copy_in(id, 0, &Buf::Phantom(0)), "id {id}");
            assert!(!real.copy_in(id, 0, &Buf::Real(Vec::new())), "id {id}");
        }
    }

    #[test]
    fn move_bytes_skips_phantoms_and_freed_destinations() {
        let mut st = MachineState::new(ArchProfile::broadwell(), 3);
        st.heaps[2].phantom = true;
        let a = st.heaps[0].alloc(4);
        let b = st.heaps[1].alloc(4);
        let ph = st.heaps[2].alloc(4);
        st.heaps[0].write(a, 0, &[9, 8, 7, 6]);
        st.move_bytes((0, a, 1), (1, b, 0), 3);
        assert_eq!(st.heaps[1].extract(b, 0, 4), Some(vec![8, 7, 6, 0]));
        st.move_bytes((1, b, 0), (0, a, 2), 2);
        assert_eq!(st.heaps[0].extract(a, 0, 4), Some(vec![9, 8, 8, 7]));
        st.move_bytes((0, a, 0), (0, a, 1), 3);
        assert_eq!(st.heaps[0].extract(a, 0, 4), Some(vec![9, 9, 8, 8]));
        st.move_bytes((2, ph, 0), (0, a, 0), 4);
        st.move_bytes((0, a, 0), (2, ph, 0), 4);
        assert_eq!(st.heaps[0].extract(a, 0, 4), Some(vec![9, 9, 8, 8]));
        st.heaps[1].free(b);
        st.move_bytes((0, a, 0), (1, b, 0), 4);
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

        // alloc_from and a copy from a written buffer build one each.
        let d = h.alloc_from(&[1; 5]);
        assert_eq!(materialized(), n0 + 2);
        assert!(other.copy_from(c, 1, &h, d, 0, 3));
        assert_eq!(materialized(), n0 + 3);
        assert_eq!(other.extract(c, 0, 5), Some(vec![0, 1, 1, 1, 0]));
    }

    /// One heap operation for the model check: a kind, a heap, two
    /// buffer picks; two offset picks and a length pick; a fill byte.
    type Op = ((u8, bool, u8, u8), (usize, usize, usize), u8);

    /// The scale of the model check's large buffers and accesses.
    const BIG: usize = 64 << 10;

    /// Buffer lengths from empty to a few `BIG`.
    const LENS: [usize; 8] = [0, 1, 13, BIG - 1, BIG, BIG + 1, 2 * BIG + 5, 3 * BIG];

    /// An offset into a buffer of `cap` bytes near a multiple of `BIG`;
    /// one pick in `cap + 2` lands past the end.
    fn pick_off(raw: usize, cap: usize) -> usize {
        let edge = (raw % 4) * BIG + (raw / 4) % 7;
        edge.saturating_sub(3) % (cap + 2)
    }

    /// A length for an access at `off` of a `cap`-byte buffer: short,
    /// about `BIG` or to the end, overshooting by one in one pick of 16.
    fn pick_len(raw: usize, off: usize, cap: usize) -> usize {
        let room = cap.saturating_sub(off);
        let want = match raw % 4 {
            0 => raw / 4 % 9,
            1 => BIG + raw / 4 % 3 - 1,
            2 => room,
            _ => raw / 4 % (2 * BIG + 1),
        };
        want.min(room) + usize::from(raw % 16 == 15)
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
                let data = if kind == 0 {
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
                let data = pattern(len, seed);
                let got = if kind == 3 {
                    heaps[h].write(id, off, &data)
                } else {
                    heaps[h].copy_in(id, off, &Buf::Real(data.clone()))
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
                let want = flat(&models[h], a, off, len).map(|w| Buf::Real(w.to_vec()));
                prop_assert_eq!(heaps[h].copy_out(id, off, len), want);
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
            1..40,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]
        #[test]
        fn lazy_heap_matches_a_flat_model(ops in heap_ops()) {
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
