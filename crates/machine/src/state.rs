//! Shared simulated-node state living inside the DES kernel.
//!
//! [`MachineState`] is what the simulation kernel owns and every rank's
//! endpoint reaches through poll closures: the fluid servers, the per-rank
//! heaps and the two message planes.
//!
//! A heap buffer is a [`Buf`] — real bytes, or for a *phantom* team just
//! a length. The same type is what a bulk shared-memory message is
//! ([`MachineState::bulk`]): [`RankHeap::copy_out`] takes it from the
//! sender's heap and [`RankHeap::copy_in`] lands it in the receiver's, so
//! a phantom team's messages are lengths (every range, length and
//! truncation check runs on lengths alone; no byte is allocated or
//! touched) and a real team's bytes are copied once out and once in.
//! Control messages ([`MachineState::mail`]) are always real bytes: the
//! protocols read them.

use crate::fluid::{MemSys, PageLockServer};
use crate::xfer::Xfer;
use kacc_comm::Topology;
use kacc_model::{ArchProfile, FabricParams};
use kacc_sim_core::Mailboxes;

/// One simulated buffer — or one bulk message in flight between two
/// heaps: real bytes, or a *phantom* that tracks only its length.
/// Phantoms let measurement sweeps simulate terabyte-scale traffic
/// without allocating it (timing is unaffected; reads return zeroes).
#[derive(Debug, PartialEq, Eq)]
pub enum Buf {
    /// Backed by real bytes (default; data-correctness tests use this).
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

    /// Write bytes in (no-op into phantoms). False if out of range.
    fn write(&mut self, off: usize, data: &[u8]) -> bool {
        match self {
            Buf::Real(v) if off + data.len() <= v.len() => {
                v[off..off + data.len()].copy_from_slice(data);
                true
            }
            Buf::Real(_) => false,
            Buf::Phantom(n) => off + data.len() <= *n,
        }
    }
}

/// Does `[off, off + len)` lie inside a buffer of `cap` bytes?
fn in_range(off: usize, len: usize, cap: usize) -> bool {
    off.checked_add(len).is_some_and(|end| end <= cap)
}

/// One live buffer and whether its owner exposed it.
#[derive(Debug)]
struct HeapSlot {
    buf: Buf,
    exposed: bool,
}

/// One simulated process's private memory: buffers and exposure set.
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
            Buf::Phantom(len)
        } else {
            Buf::Real(vec![0u8; len])
        })
    }

    /// Allocate a buffer holding a copy of `data` (its length alone on a
    /// phantom heap), returning its id.
    pub fn alloc_from(&mut self, data: &[u8]) -> u64 {
        self.push(if self.phantom {
            Buf::Phantom(data.len())
        } else {
            Buf::Real(data.to_vec())
        })
    }

    fn push(&mut self, buf: Buf) -> u64 {
        self.slots.push(Some(HeapSlot {
            buf,
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
        self.slot(id).map(|s| s.buf.len())
    }

    /// Read bytes out (phantoms yield zeroes). False if the access is
    /// invalid.
    pub fn read(&self, id: u64, off: usize, out: &mut [u8]) -> bool {
        match self.slot(id).map(|s| &s.buf) {
            Some(Buf::Real(v)) if off + out.len() <= v.len() => {
                out.copy_from_slice(&v[off..off + out.len()]);
                true
            }
            Some(Buf::Phantom(n)) if off + out.len() <= *n => {
                out.fill(0);
                true
            }
            _ => false,
        }
    }

    /// Write bytes in (no-op into phantoms). False if invalid.
    pub fn write(&mut self, id: u64, off: usize, data: &[u8]) -> bool {
        self.slot_mut(id).is_some_and(|s| s.buf.write(off, data))
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
        match &self.slot(id)?.buf {
            Buf::Real(_) => Some(Buf::Real(self.region(id, off, len)?.to_vec())),
            Buf::Phantom(cap) => in_range(off, len, *cap).then_some(Buf::Phantom(len)),
        }
    }

    /// Land a bulk message at `off` of a buffer: one copy of real bytes
    /// into a real buffer; with a phantom on either side the range check
    /// alone (as [`MachineState::move_bytes`], nothing moves). False if
    /// the access is invalid.
    pub fn copy_in(&mut self, id: u64, off: usize, msg: &Buf) -> bool {
        self.slot_mut(id).is_some_and(|s| match msg {
            Buf::Real(bytes) => s.buf.write(off, bytes),
            Buf::Phantom(len) => in_range(off, *len, s.buf.len()),
        })
    }

    /// The bytes of a region of a real buffer; `None` for phantoms and
    /// invalid accesses.
    fn region(&self, id: u64, off: usize, len: usize) -> Option<&[u8]> {
        match &self.slot(id)?.buf {
            Buf::Real(v) if in_range(off, len, v.len()) => Some(&v[off..off + len]),
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
        src.region(src_id, src_off, len)
            .is_some_and(|bytes| self.write(dst, dst_off, bytes))
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
            return match self.slot_mut(dst).map(|s| &mut s.buf) {
                Some(Buf::Real(v)) if src_off + len <= v.len() && dst_off + len <= v.len() => {
                    v.copy_within(src_off..src_off + len, dst_off);
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
            .is_some_and(|bytes| to.buf.write(dst_off, bytes));
        self.slots[dst as usize] = Some(to);
        ok
    }

    /// Is the buffer a phantom?
    pub fn is_phantom(&self, id: u64) -> bool {
        self.slot(id)
            .is_some_and(|s| matches!(s.buf, Buf::Phantom(_)))
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
        self.slot(id).filter(|s| s.exposed).map(|s| s.buf.len())
    }

    /// Number of live buffers (leak checks in tests).
    pub fn live_buffers(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

/// Per-rank step accounting: the Fig 4 breakdown.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RankStats {
    /// Time in syscall entry/exit, ns.
    pub syscall_ns: f64,
    /// Time in the permission check, ns.
    pub check_ns: f64,
    /// Time acquiring page locks (contended share), ns.
    pub lock_ns: f64,
    /// Time pinning pages, ns.
    pub pin_ns: f64,
    /// Time copying data, ns.
    pub copy_ns: f64,
    /// Kernel-assisted operations issued.
    pub cma_ops: u64,
    /// Bytes moved by kernel-assisted reads issued by this rank.
    pub bytes_read: u64,
    /// Bytes moved by kernel-assisted writes issued by this rank.
    pub bytes_written: u64,
}

impl RankStats {
    /// Total accounted time.
    pub fn total_ns(&self) -> f64 {
        self.syscall_ns + self.check_ns + self.lock_ns + self.pin_ns + self.copy_ns
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &RankStats) {
        self.syscall_ns += other.syscall_ns;
        self.check_ns += other.check_ns;
        self.lock_ns += other.lock_ns;
        self.pin_ns += other.pin_ns;
        self.copy_ns += other.copy_ns;
        self.cma_ops += other.cma_ops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }
}

/// Machine-wide per-transport traffic totals (observability). CMA
/// traffic is accounted per rank in [`RankStats`]; these cover the
/// shared-memory paths, which have no per-rank home.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportCounters {
    /// Mailbox shared-memory data sends (eager/rendezvous path).
    pub shm_ops: u64,
    /// Bytes moved by mailbox shared-memory data sends.
    pub shm_bytes: u64,
    /// Two-copy shared-memory fallback transfers (CMA denied/failed).
    pub fallback_ops: u64,
    /// Bytes moved by two-copy fallback transfers.
    pub fallback_bytes: u64,
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
    /// Per-rank step accounting.
    pub stats: Vec<RankStats>,
    /// Per-rank kernel-assisted transfer in flight, if any (a rank is
    /// inside at most one system call); see [`crate::xfer`].
    pub xfers: Vec<Option<Xfer>>,
    /// Machine-wide per-transport traffic totals.
    pub transport: TransportCounters,
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
            transport: TransportCounters::default(),
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

    #[test]
    fn expose_unknown_buffer_fails() {
        let mut h = RankHeap::default();
        assert!(!h.expose(99));
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = RankStats {
            syscall_ns: 1.0,
            cma_ops: 2,
            ..Default::default()
        };
        let b = RankStats {
            syscall_ns: 3.0,
            copy_ns: 4.0,
            cma_ops: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.syscall_ns, 4.0);
        assert_eq!(a.copy_ns, 4.0);
        assert_eq!(a.cma_ops, 3);
        assert_eq!(a.total_ns(), 8.0);
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
