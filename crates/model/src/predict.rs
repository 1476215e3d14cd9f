//! Closed-form latency predictions for every collective algorithm in the
//! paper (§IV personalized, §V non-personalized).
//!
//! All functions return nanoseconds for an intra-node collective over `p`
//! ranks where `eta` is the per-destination (Scatter/Gather/Alltoall) or
//! per-source (Allgather/Bcast) message size in bytes. Address-exchange
//! payloads are [`ADDR_BYTES`] per rank.

use crate::params::{ceil_log2, ModelParams};

/// Wire size of one exchanged buffer address (a serialized RemoteToken).
pub const ADDR_BYTES: usize = 16;

// ---------------------------------------------------------------- Scatter

/// §IV-A1 Parallel Reads: every non-root reads its slice concurrently.
/// `T = T^sm_bcast + α + ηβ + l·γ_{p−1}·⌈η/s⌉ + T^sm_gather`.
pub fn scatter_parallel_read(m: &ModelParams, p: usize, eta: usize) -> f64 {
    if p == 1 {
        return 0.0;
    }
    m.t_sm_bcast(p, ADDR_BYTES) + m.t_cma(eta, p - 1) + m.t_sm_gather(p, 0)
}

/// §IV-A2 Sequential Writes: the root writes each slice in turn;
/// contention-free but serialized.
/// `T = T_memcpy + T^sm_gather + (p−1)(α + ηβ + l·⌈η/s⌉) + T^sm_bcast`.
pub fn scatter_sequential_write(m: &ModelParams, p: usize, eta: usize, in_place: bool) -> f64 {
    if p == 1 {
        return 0.0;
    }
    let memcpy = if in_place { 0.0 } else { m.t_memcpy(eta) };
    memcpy + m.t_sm_gather(p, ADDR_BYTES) + (p - 1) as f64 * m.t_cma(eta, 1) + m.t_sm_bcast(p, 0)
}

/// §IV-A3 Throttled Reads with throttle factor `k`: ⌈(p−1)/k⌉ waves of k
/// concurrent readers chained by point-to-point unblock messages.
/// `T = T^sm_bcast + ⌈(p−1)/k⌉(α + ηβ + l·γ_k·⌈η/s⌉)`.
pub fn scatter_throttled_read(m: &ModelParams, p: usize, eta: usize, k: usize) -> f64 {
    assert!(k >= 1, "throttle factor must be positive");
    if p == 1 {
        return 0.0;
    }
    let waves = (p - 1).div_ceil(k) as f64;
    m.t_sm_bcast(p, ADDR_BYTES) + waves * m.t_cma(eta, k.min(p - 1))
}

// ----------------------------------------------------------------- Gather

/// §IV-B1 Parallel Writes (mirror of parallel-read scatter).
pub fn gather_parallel_write(m: &ModelParams, p: usize, eta: usize) -> f64 {
    scatter_parallel_read(m, p, eta)
}

/// §IV-B3 Throttled Writes (mirror of throttled-read scatter).
pub fn gather_throttled_write(m: &ModelParams, p: usize, eta: usize, k: usize) -> f64 {
    scatter_throttled_read(m, p, eta, k)
}

// --------------------------------------------------------------- Alltoall

/// §IV-C1 Pairwise exchange as a native CMA collective: p−1 steps, each
/// reading from a distinct peer — contention-free.
/// `T = T^sm_allgather + (p−1)(α + ηβ + l·⌈η/s⌉)`.
pub fn alltoall_pairwise(m: &ModelParams, p: usize, eta: usize) -> f64 {
    if p == 1 {
        return 0.0;
    }
    m.t_sm_allgather(p, ADDR_BYTES) + (p - 1) as f64 * m.t_cma_shared(eta, 1, p)
}

// -------------------------------------------------------------- Allgather

/// §V-A1/2 Ring (neighbor or source variant): p−1 contention-free steps.
/// `T = T_memcpy + T^sm_allgather + (p−1)(α + ηβ + l·⌈η/s⌉) + T_barrier`.
pub fn allgather_ring(m: &ModelParams, p: usize, eta: usize) -> f64 {
    if p == 1 {
        return 0.0;
    }
    m.t_memcpy(eta)
        + m.t_sm_allgather(p, ADDR_BYTES)
        + (p - 1) as f64 * m.t_cma_shared(eta, 1, p)
        + m.t_sm_barrier(p)
}

/// §V-A3 Recursive Doubling: lg p startups, same bandwidth/lock volume.
/// `T = T_memcpy + T^sm_allgather + lg p·α + (p−1)(ηβ + l·⌈η/s⌉) + T_barrier`.
pub fn allgather_recursive_doubling(m: &ModelParams, p: usize, eta: usize) -> f64 {
    if p == 1 {
        return 0.0;
    }
    let pages = eta.div_ceil(m.page_size) as f64;
    m.t_memcpy(eta)
        + m.t_sm_allgather(p, ADDR_BYTES)
        + ceil_log2(p) as f64 * m.alpha_ns
        + (p - 1) as f64 * (eta as f64 * m.beta_shared(p) + m.l_ns * pages)
        + m.t_sm_barrier(p)
}

/// §V-A4 Bruck: logarithmic steps but an extra copy per datum plus the
/// final rotation.
/// `T = T^sm_allgather + ⌈lg p⌉·α + (p−1)(2ηβ + l·⌈η/s⌉) + T_barrier`.
pub fn allgather_bruck(m: &ModelParams, p: usize, eta: usize) -> f64 {
    if p == 1 {
        return 0.0;
    }
    let pages = eta.div_ceil(m.page_size) as f64;
    m.t_sm_allgather(p, ADDR_BYTES)
        + ceil_log2(p) as f64 * m.alpha_ns
        + (p - 1) as f64 * (2.0 * eta as f64 * m.beta_shared(p) + m.l_ns * pages)
        + m.t_sm_barrier(p)
}

// ------------------------------------------------------------------ Bcast

/// §V-B1 Direct Reads: all non-roots read the root's buffer at once.
pub fn bcast_direct_read(m: &ModelParams, p: usize, eta: usize) -> f64 {
    if p == 1 {
        return 0.0;
    }
    m.t_sm_bcast(p, ADDR_BYTES) + m.t_cma(eta, p - 1) + m.t_sm_gather(p, 0)
}

/// §V-B1 Direct Writes: the root writes every receive buffer in turn.
pub fn bcast_direct_write(m: &ModelParams, p: usize, eta: usize) -> f64 {
    if p == 1 {
        return 0.0;
    }
    m.t_sm_gather(p, ADDR_BYTES) + (p - 1) as f64 * m.t_cma(eta, 1) + m.t_sm_bcast(p, 0)
}

/// §V-B2 k-nomial tree with radix `k` (k ≥ 2): each parent feeds up to
/// k−1 concurrent readers per round, ⌈log_k p⌉ rounds.
/// `T = T^sm_bcast + ⌈log_k p⌉(α + ηβ + l·γ_{k−1}·⌈η/s⌉)`.
pub fn bcast_knomial(m: &ModelParams, p: usize, eta: usize, k: usize) -> f64 {
    assert!(k >= 2, "k-nomial radix must be at least 2");
    if p == 1 {
        return 0.0;
    }
    let rounds = ceil_log_k(p, k) as f64;
    let lock_c = (k - 1).min(p - 1);
    let copy_c = (p * (k - 1) / k).clamp(lock_c, p.saturating_sub(1).max(1));
    m.t_sm_bcast(p, ADDR_BYTES) + rounds * m.t_cma_shared(eta, lock_c, copy_c)
}

/// §V-B3 Scatter-Allgather (Van de Geijn): sequential-write scatter of
/// η/p chunks followed by a ring allgather of the chunks.
/// `T = T^sm_allgather + T_scatter(η/p) + T_allgather(η/p)`.
pub fn bcast_scatter_allgather(m: &ModelParams, p: usize, eta: usize) -> f64 {
    if p == 1 {
        return 0.0;
    }
    let chunk = eta.div_ceil(p);
    m.t_sm_allgather(p, ADDR_BYTES)
        + scatter_sequential_write(m, p, chunk, true)
        + allgather_ring(m, p, chunk)
}

// ------------------------------------------------------------------ Reduce
// (extension: the paper's §IX future work, modeled with the same terms)

/// Sequential root-pull Reduce: p−1 contention-free reads plus a local
/// combine pass per contribution at the root.
pub fn reduce_sequential(m: &ModelParams, p: usize, eta: usize) -> f64 {
    if p == 1 {
        return 0.0;
    }
    (p - 1) as f64 * (m.t_cma(eta, 1) + 2.0 * m.t_memcpy(eta)) + m.t_memcpy(eta)
}

/// Radix-`k` combining-tree Reduce: ⌈log_k p⌉ levels, each level pulling
/// up to k−1 children sequentially per parent while parents across the
/// node work in parallel (copies share bandwidth).
pub fn reduce_knomial_tree(m: &ModelParams, p: usize, eta: usize, k: usize) -> f64 {
    assert!(k >= 2);
    if p == 1 {
        return 0.0;
    }
    let levels = ceil_log_k(p, k) as f64;
    let per_child =
        m.t_cma_shared(eta, 1, p / k.max(1)) + 2.0 * m.t_memcpy_shared(eta, p / k.max(1));
    levels * (k - 1) as f64 * per_child + m.t_memcpy(eta)
}

/// ⌈log_k p⌉ for k ≥ 2.
pub fn ceil_log_k(p: usize, k: usize) -> u32 {
    assert!(p > 0 && k >= 2);
    let mut rounds = 0u32;
    let mut reach = 1usize;
    while reach < p {
        reach = reach.saturating_mul(k);
        rounds += 1;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchProfile;

    fn knl() -> ModelParams {
        ArchProfile::knl().nominal_model()
    }

    #[test]
    fn ceil_log_k_table() {
        assert_eq!(ceil_log_k(1, 2), 0);
        assert_eq!(ceil_log_k(64, 2), 6);
        assert_eq!(ceil_log_k(64, 4), 3);
        assert_eq!(ceil_log_k(65, 4), 4);
        assert_eq!(ceil_log_k(160, 11), 3);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let m = knl();
        assert_eq!(scatter_parallel_read(&m, 1, 1 << 20), 0.0);
        assert_eq!(bcast_scatter_allgather(&m, 1, 1 << 20), 0.0);
        assert_eq!(alltoall_pairwise(&m, 1, 1 << 20), 0.0);
    }

    #[test]
    fn throttled_interpolates_between_parallel_and_sequential() {
        // k = p−1 is parallel-read-like; k = 1 is sequential-like (modulo
        // the sm phases). For large messages on KNL the paper's ordering
        // is: throttled(4..8) < both extremes.
        let m = knl();
        let p = 64;
        let eta = 1 << 20; // 1 MiB
        let par = scatter_parallel_read(&m, p, eta);
        let seq = scatter_sequential_write(&m, p, eta, true);
        let t4 = scatter_throttled_read(&m, p, eta, 4);
        let t8 = scatter_throttled_read(&m, p, eta, 8);
        assert!(t4 < par, "throttle 4 ({t4}) should beat parallel ({par})");
        assert!(t4 < seq, "throttle 4 ({t4}) should beat sequential ({seq})");
        assert!(t8 < par && t8 < seq);
    }

    #[test]
    fn parallel_read_wins_small_messages_on_knl() {
        // Fig 7(a): for small messages parallel read outperforms
        // sequential writes.
        let m = knl();
        let p = 64;
        let eta = 1 << 10; // 1 KiB
        assert!(scatter_parallel_read(&m, p, eta) < scatter_sequential_write(&m, p, eta, true));
    }

    #[test]
    fn sequential_write_wins_large_messages_under_heavy_contention() {
        // Fig 7(a): with 63 concurrent readers, parallel read loses badly
        // at 4 MiB.
        let m = knl();
        let p = 64;
        let eta = 4 << 20;
        assert!(scatter_sequential_write(&m, p, eta, true) < scatter_parallel_read(&m, p, eta));
    }

    #[test]
    fn bruck_allgather_wins_small_loses_large_paper_model() {
        // Fig 10(a) under the paper's bandwidth-unaware model
        // (node_bw = 0): Bruck best for small messages (log p startups),
        // worst for large (extra copies). With our aggregate-bandwidth
        // extension the small-message advantage shrinks because Bruck's
        // extra copies also share the memory system (recorded in
        // EXPERIMENTS.md, "Fig 10").
        let mut m = knl();
        m.node_bw_ns_per_byte = 0.0;
        let p = 64;
        let small = 1 << 10;
        let large = 1 << 20;
        assert!(allgather_bruck(&m, p, small) < allgather_ring(&m, p, small));
        assert!(allgather_ring(&m, p, large) < allgather_bruck(&m, p, large));
        // Bandwidth-aware: ring keeps winning large.
        let m = knl();
        assert!(allgather_ring(&m, p, large) < allgather_bruck(&m, p, large));
    }

    #[test]
    fn knomial_beats_direct_reads_for_bcast() {
        // Fig 11: k-nomial outperforms direct read (full contention) and
        // direct write (full serialization) across the board on KNL.
        let m = knl();
        let p = 64;
        for eta in [64 << 10, 1 << 20] {
            let kn = bcast_knomial(&m, p, eta, 8);
            assert!(kn < bcast_direct_read(&m, p, eta));
            assert!(kn < bcast_direct_write(&m, p, eta));
        }
    }

    #[test]
    fn scatter_allgather_wins_very_large_bcast() {
        // Fig 11: scatter-allgather is best for large messages thanks to
        // contention avoidance.
        let m = knl();
        let p = 64;
        let eta = 4 << 20;
        let sag = bcast_scatter_allgather(&m, p, eta);
        assert!(sag < bcast_direct_read(&m, p, eta));
        assert!(sag < bcast_direct_write(&m, p, eta));
        // And it loses for small messages (overhead).
        let small = 2 << 10;
        assert!(bcast_knomial(&m, p, small, 8) < bcast_scatter_allgather(&m, p, small));
    }
}
