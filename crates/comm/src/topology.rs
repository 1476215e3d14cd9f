//! Node topology: sockets, cores, SMT, page size, and the
//! process-to-core mapping used to classify transfers as intra- or
//! inter-socket.

/// Physical layout of one node.
///
/// Ranks map to hardware threads in rank order: rank `r` runs on logical
/// CPU `r mod (sockets * cores_per_socket * threads_per_core)`, and logical
/// CPUs fill socket 0's cores first, then socket 1's, and wrap onto SMT
/// siblings afterwards. This matches the "by core" binding MPI launchers
/// use by default and is what makes a Ring-Neighbor-1 allgather mostly
/// intra-socket on a two-socket machine (paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of CPU sockets.
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Hardware threads per core (SMT ways).
    pub threads_per_core: usize,
    /// Base page size in bytes (4 KiB on x86, 64 KiB on Power8 Linux).
    pub page_size: usize,
}

impl Topology {
    /// A topology for tests: one socket, `cores` cores, 4 KiB pages.
    pub fn flat(cores: usize) -> Topology {
        Topology {
            sockets: 1,
            cores_per_socket: cores,
            threads_per_core: 1,
            page_size: 4096,
        }
    }

    /// Total physical cores on the node.
    pub fn physical_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Total hardware threads (the full-subscription process count).
    pub fn hardware_threads(&self) -> usize {
        self.physical_cores() * self.threads_per_core
    }

    /// Socket hosting `rank` under the default by-core mapping.
    pub fn socket_of(&self, rank: usize) -> usize {
        let hw = rank % self.hardware_threads();
        // Hardware threads are numbered core-major: logical CPU = smt_way *
        // physical_cores + core, so dividing out the SMT way first recovers
        // the physical core index.
        let core = hw % self.physical_cores();
        core / self.cores_per_socket
    }

    /// True when two ranks share a socket.
    pub fn same_socket(&self, a: usize, b: usize) -> bool {
        self.socket_of(a) == self.socket_of(b)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn broadwell() -> Topology {
        Topology {
            sockets: 2,
            cores_per_socket: 14,
            threads_per_core: 1,
            page_size: 4096,
        }
    }

    fn power8() -> Topology {
        Topology {
            sockets: 2,
            cores_per_socket: 10,
            threads_per_core: 8,
            page_size: 65536,
        }
    }

    #[test]
    fn socket_mapping_fills_socket_zero_first() {
        let t = broadwell();
        assert_eq!(t.socket_of(0), 0);
        assert_eq!(t.socket_of(13), 0);
        assert_eq!(t.socket_of(14), 1);
        assert_eq!(t.socket_of(27), 1);
    }

    #[test]
    fn smt_wraps_back_to_socket_zero() {
        let t = power8();
        // 20 physical cores; rank 20 is the first SMT sibling and lands
        // back on socket 0 core 0.
        assert_eq!(t.socket_of(20), 0);
        assert_eq!(t.socket_of(30), 1);
        assert_eq!(t.hardware_threads(), 160);
        // rank 160 wraps entirely.
        assert_eq!(t.socket_of(160), t.socket_of(0));
    }

    #[test]
    fn neighbor_distance_socket_locality() {
        // The paper's Broadwell observation: rank -> rank+1 is mostly
        // intra-socket, rank -> rank+5 much less so near the boundary.
        let t = broadwell();
        let p = 28;
        let intra_1 = (0..p).filter(|&r| t.same_socket(r, (r + 1) % p)).count();
        let intra_5 = (0..p).filter(|&r| t.same_socket(r, (r + 5) % p)).count();
        assert!(intra_1 > intra_5);
    }
}
