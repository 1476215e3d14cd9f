//! Shared simulated-node state living inside the DES kernel.

use crate::fluid::{MemSys, PageLockServer};
use kacc_comm::Topology;
use kacc_model::{ArchProfile, FabricParams};
use kacc_sim_core::Mailboxes;
use std::collections::{HashMap, HashSet};

/// One simulated buffer: real bytes, or a *phantom* that tracks only
/// its length. Phantoms let measurement sweeps simulate terabyte-scale
/// traffic without allocating it (timing is unaffected; reads return
/// zeroes).
#[derive(Debug)]
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
}

/// One simulated process's private memory: buffers and exposure set.
#[derive(Debug, Default)]
pub struct RankHeap {
    bufs: HashMap<u64, Buf>,
    next: u64,
    exposed: HashSet<u64>,
    /// Allocate phantoms instead of real buffers.
    pub phantom: bool,
}

impl RankHeap {
    /// Allocate a zeroed buffer, returning its id.
    pub fn alloc(&mut self, len: usize) -> u64 {
        let id = self.next;
        self.next += 1;
        let buf = if self.phantom {
            Buf::Phantom(len)
        } else {
            Buf::Real(vec![0u8; len])
        };
        self.bufs.insert(id, buf);
        id
    }

    /// Free a buffer (revoking exposure). Returns false if unknown.
    pub fn free(&mut self, id: u64) -> bool {
        self.exposed.remove(&id);
        self.bufs.remove(&id).is_some()
    }

    /// Buffer length, if allocated.
    pub fn len_of(&self, id: u64) -> Option<usize> {
        self.bufs.get(&id).map(Buf::len)
    }

    /// Read bytes out (phantoms yield zeroes). False if the access is
    /// invalid.
    pub fn read(&self, id: u64, off: usize, out: &mut [u8]) -> bool {
        match self.bufs.get(&id) {
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
        match self.bufs.get_mut(&id) {
            Some(Buf::Real(v)) if off + data.len() <= v.len() => {
                v[off..off + data.len()].copy_from_slice(data);
                true
            }
            Some(Buf::Phantom(n)) => off + data.len() <= *n,
            _ => false,
        }
    }

    /// Copy a region out as a vector (zeroes for phantoms). None if
    /// invalid.
    pub fn extract(&self, id: u64, off: usize, len: usize) -> Option<Vec<u8>> {
        let mut out = vec![0u8; len];
        if self.read(id, off, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    /// Is the buffer a phantom?
    pub fn is_phantom(&self, id: u64) -> bool {
        matches!(self.bufs.get(&id), Some(Buf::Phantom(_)))
    }

    /// Mark a buffer exposed for kernel-assisted access.
    pub fn expose(&mut self, id: u64) -> bool {
        if self.bufs.contains_key(&id) {
            self.exposed.insert(id);
            true
        } else {
            false
        }
    }

    /// Is a buffer exposed?
    pub fn is_exposed(&self, id: u64) -> bool {
        self.exposed.contains(&id)
    }

    /// Number of live buffers (leak checks in tests).
    pub fn live_buffers(&self) -> usize {
        self.bufs.len()
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
    /// Control-plane mailboxes.
    pub mail: Mailboxes,
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
    /// Machine-wide per-transport traffic totals.
    pub transport: TransportCounters,
    /// Destination for phase spans and lock-server counters. Defaults to
    /// off; the team harness installs a live tracer for traced runs.
    pub tracer: kacc_trace::Tracer,
    /// Fault injector consulted by every transport operation. Defaults to
    /// off (a single branch per site); `run_team_faulty` installs a plan.
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
