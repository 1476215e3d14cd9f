//! Model-driven algorithm selection.
//!
//! The paper plugs its designs into MVAPICH2's collective tuning
//! framework, which "selects the appropriate CMA algorithm for a given
//! collective based on the architecture and message size" (§VII). This
//! tuner does the same selection analytically: it evaluates the §II cost
//! model for every candidate algorithm and picks the argmin, so the
//! choice adapts to α/β/l/γ and the socket layout without hand-written
//! tables.

use crate::schedule::{Schedule, Step};
use crate::{AllgatherAlgo, AlltoallAlgo, BcastAlgo, GatherAlgo, ReduceAlgo, ScatterAlgo};
use kacc_model::params::ceil_log2;
use kacc_model::{predict, ArchProfile, CostStep, ModelParams};

/// Selects collective algorithms by minimizing predicted cost.
#[derive(Debug, Clone)]
pub struct Tuner {
    params: ModelParams,
    procs_per_socket_hint: usize,
}

impl Tuner {
    /// Build a tuner from an architecture profile (uses its nominal
    /// model parameters).
    pub fn new(arch: &ArchProfile) -> Tuner {
        Tuner {
            params: arch.nominal_model(),
            procs_per_socket_hint: arch.cores_per_socket,
        }
    }

    /// The model parameters in use.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Candidate throttle factors for `p` ranks: powers of two up to
    /// p−1, plus the socket width (the Power8 winner in Fig 7c is the
    /// per-socket process count, which dodges inter-socket locking).
    pub fn throttle_candidates(&self, p: usize) -> Vec<usize> {
        let mut ks: Vec<usize> = [1usize, 2, 4, 8, 16, 32]
            .into_iter()
            .filter(|&k| k < p.max(2))
            .collect();
        let socket = self.procs_per_socket_hint;
        if socket >= 2 && socket < p && !ks.contains(&socket) {
            ks.push(socket);
        }
        ks.sort_unstable();
        ks
    }

    /// Best Scatter algorithm for (p, η).
    pub fn scatter(&self, p: usize, eta: usize) -> ScatterAlgo {
        let mut best = (
            predict::scatter_parallel_read(&self.params, p, eta),
            ScatterAlgo::ParallelRead,
        );
        let seq = predict::scatter_sequential_write(&self.params, p, eta, false);
        if seq < best.0 {
            best = (seq, ScatterAlgo::SequentialWrite);
        }
        for k in self.throttle_candidates(p) {
            let t = predict::scatter_throttled_read(&self.params, p, eta, k);
            if t < best.0 {
                best = (t, ScatterAlgo::ThrottledRead { k });
            }
        }
        best.1
    }

    /// Best Gather algorithm for (p, η) (mirror of scatter).
    pub fn gather(&self, p: usize, eta: usize) -> GatherAlgo {
        match self.scatter(p, eta) {
            ScatterAlgo::ParallelRead => GatherAlgo::ParallelWrite,
            ScatterAlgo::SequentialWrite => GatherAlgo::SequentialRead,
            ScatterAlgo::ThrottledRead { k } => GatherAlgo::ThrottledWrite { k },
        }
    }

    /// Best Alltoall algorithm for (p, η).
    pub fn alltoall(&self, p: usize, eta: usize) -> AlltoallAlgo {
        // Bruck wins only when per-step startup dominates: log p rounds
        // moving p/2 blocks each with an extra copy, vs p−1 single-block
        // steps.
        let pairwise = predict::alltoall_pairwise(&self.params, p, eta);
        let bruck_rounds = ceil_log2(p) as f64;
        // Every rank runs its round concurrently, so Bruck's bulk reads
        // and staging copies all share the memory system.
        let bruck = self.params.t_sm_allgather(p, 16)
            + bruck_rounds * self.params.t_cma_shared(eta * p / 2, 1, p)
            + bruck_rounds * self.params.t_memcpy_shared(eta * p / 2, p)
            + 2.0 * self.params.t_memcpy_shared(eta * p, p);
        if bruck < pairwise {
            AlltoallAlgo::Bruck
        } else {
            AlltoallAlgo::Pairwise
        }
    }

    /// Best Allgather algorithm for (p, η). On multi-socket machines the
    /// ring representative is Ring-Neighbor-1, whose forwarding keeps
    /// almost every transfer intra-socket (§V-A, Fig 10b); on a single
    /// socket the synchronization-free Ring-Source read wins.
    pub fn allgather(&self, p: usize, eta: usize) -> AllgatherAlgo {
        let ring_algo = if p > self.procs_per_socket_hint {
            AllgatherAlgo::RingNeighbor { j: 1 }
        } else {
            AllgatherAlgo::RingSourceRead
        };
        let mut best = (predict::allgather_ring(&self.params, p, eta), ring_algo);
        if p.is_power_of_two() {
            let rd = predict::allgather_recursive_doubling(&self.params, p, eta);
            if rd < best.0 {
                best = (rd, AllgatherAlgo::RecursiveDoubling);
            }
        }
        let bruck = predict::allgather_bruck(&self.params, p, eta);
        if bruck < best.0 {
            best = (bruck, AllgatherAlgo::Bruck);
        }
        best.1
    }

    /// Best Broadcast algorithm for (p, η).
    pub fn bcast(&self, p: usize, eta: usize) -> BcastAlgo {
        let mut best = (
            predict::bcast_direct_read(&self.params, p, eta),
            BcastAlgo::DirectRead,
        );
        let dw = predict::bcast_direct_write(&self.params, p, eta);
        if dw < best.0 {
            best = (dw, BcastAlgo::DirectWrite);
        }
        for k in self.throttle_candidates(p) {
            let radix = k + 1; // k concurrent readers per source
            let t = predict::bcast_knomial(&self.params, p, eta, radix);
            if t < best.0 {
                best = (t, BcastAlgo::KNomial { radix });
            }
        }
        let sag = predict::bcast_scatter_allgather(&self.params, p, eta);
        if sag < best.0 {
            best = (sag, BcastAlgo::ScatterAllgather);
        }
        best.1
    }

    /// Best Reduce algorithm for (p, η) — the §IX extension. The
    /// combining tree parallelizes both the reads and the fold
    /// arithmetic; the tuner picks its radix.
    pub fn reduce(&self, p: usize, eta: usize) -> ReduceAlgo {
        let mut best = (
            predict::reduce_sequential(&self.params, p, eta),
            ReduceAlgo::SequentialRead,
        );
        for radix in [2usize, 4, 8] {
            if radix > p.max(2) {
                continue;
            }
            let t = predict::reduce_knomial_tree(&self.params, p, eta, radix);
            if t < best.0 {
                best = (t, ReduceAlgo::KNomialTree { radix });
            }
        }
        best.1
    }

    /// Model cost (ns) of a compiled [`Schedule`], by walking its IR.
    ///
    /// `contention` is the number of peers concurrently hammering the
    /// same source buffer's page-table lock during the schedule's CMA
    /// phase — the `c` of the §II γ_c factor. It is a property of the
    /// *global* communication pattern, which a single rank's schedule
    /// cannot see, so the caller supplies it exactly as the closed forms
    /// in `kacc_model::predict` do (e.g. `p−1` for parallel reads of one
    /// root, `k` for a throttled chain, `1` for contention-free rings).
    ///
    /// The walk prices what this rank spends inside each primitive;
    /// buffered sends are free, blocking receives cost a small-message
    /// hop, and data movement uses the α/β/l/γ transfer model. Unlike
    /// the closed forms it needs no per-algorithm derivation — any
    /// schedule the compiler can express can be priced.
    pub fn cost_schedule(&self, sched: &Schedule, contention: usize) -> f64 {
        let steps = sched.steps.iter().map(|s| lower_step(s, contention));
        kacc_model::schedule_cost(&self.params, steps)
    }

    /// Should Bcast fall back to a two-copy shared-memory tree instead
    /// of CMA? Small messages dodge the syscall + page-pin overheads by
    /// staying in shared memory; large messages want the single-copy
    /// path (§VII-F, Fig 18). This analytic heuristic compares the best
    /// CMA prediction against an unpipelined binomial shm tree; the
    /// quantitative crossover for a concrete machine comes from the
    /// simulator-backed Fig 18 experiment, not from here.
    pub fn bcast_prefers_shm(&self, p: usize, eta: usize) -> bool {
        let best_cma = [
            predict::bcast_direct_read(&self.params, p, eta),
            predict::bcast_direct_write(&self.params, p, eta),
            predict::bcast_knomial(&self.params, p, eta, 5),
            predict::bcast_scatter_allgather(&self.params, p, eta),
        ]
        .into_iter()
        .fold(f64::INFINITY, f64::min);
        // Binomial shm tree: each level forwards through a shared bounce
        // buffer (copy-in + copy-out); about half the ranks copy
        // concurrently in the widest level, sharing memory bandwidth.
        let shm = ceil_log2(p) as f64
            * (self.params.sm_msg_ns + 2.0 * self.params.t_memcpy_shared(eta, p.div_ceil(2)));
        shm < best_cma
    }
}

/// Lower one IR step into the model's cost vocabulary.
fn lower_step(step: &Step, contention: usize) -> CostStep {
    match step {
        Step::Expose { .. } => CostStep::Expose,
        Step::CmaRead { len, .. } => CostStep::CmaRead {
            bytes: *len,
            contention,
        },
        Step::CmaWrite { len, .. } => CostStep::CmaWrite {
            bytes: *len,
            contention,
        },
        Step::CopyLocal { len, .. } => CostStep::Memcpy { bytes: *len },
        Step::CtrlSend { payload, .. } => CostStep::CtrlSend {
            bytes: payload.wire_len(),
        },
        Step::CtrlRecv { into, .. } => CostStep::CtrlRecv {
            bytes: into.wire_len(),
        },
        Step::Notify { .. } => CostStep::Notify,
        Step::WaitNotify { .. } => CostStep::WaitNotify,
        Step::ShmSend { len, .. } => CostStep::ShmSend { bytes: *len },
        Step::ShmRecv { len, .. } => CostStep::ShmRecv { bytes: *len },
        Step::Reduce { len, .. } => CostStep::Reduce { bytes: *len },
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn knl_scatter_prefers_throttled_for_large_messages() {
        let t = Tuner::new(&ArchProfile::knl());
        // Fig 7(a): throttle factors 4/8 best for medium-large messages.
        match t.scatter(64, 1 << 20) {
            ScatterAlgo::ThrottledRead { k } => {
                assert!((2..=16).contains(&k), "k = {k}");
            }
            other => panic!("expected throttled read, got {other:?}"),
        }
    }

    #[test]
    fn power8_scatter_prefers_wide_throttle() {
        // Fig 7(c): high-bandwidth Power8 favours larger concurrency
        // (the per-socket width dodges inter-socket locking).
        let t = Tuner::new(&ArchProfile::power8());
        match t.scatter(160, 1 << 20) {
            ScatterAlgo::ThrottledRead { k } => {
                assert!(k >= 8, "Power8 wants wide throttle, got {k}");
            }
            other => panic!("expected throttled read, got {other:?}"),
        }
    }

    #[test]
    fn gather_mirrors_scatter() {
        let t = Tuner::new(&ArchProfile::knl());
        let s = t.scatter(64, 1 << 18);
        let g = t.gather(64, 1 << 18);
        match (s, g) {
            (ScatterAlgo::ThrottledRead { k: a }, GatherAlgo::ThrottledWrite { k: b }) => {
                assert_eq!(a, b)
            }
            (ScatterAlgo::ParallelRead, GatherAlgo::ParallelWrite) => {}
            (ScatterAlgo::SequentialWrite, GatherAlgo::SequentialRead) => {}
            (s, g) => panic!("mismatched mirror: {s:?} vs {g:?}"),
        }
    }

    #[test]
    fn alltoall_pairwise_for_large_bruck_for_tiny() {
        let t = Tuner::new(&ArchProfile::knl());
        assert_eq!(t.alltoall(64, 1 << 20), AlltoallAlgo::Pairwise);
        // Bruck can win only for very small blocks, if at all; accept
        // either but require pairwise for anything ≥ 16 KiB (Fig 9).
        assert_eq!(t.alltoall(64, 1 << 14), AlltoallAlgo::Pairwise);
    }

    #[test]
    fn bcast_crossover_small_knomial_large_scatter_allgather() {
        // Fig 11(a): k-nomial wins small/medium, scatter-allgather wins
        // very large.
        let t = Tuner::new(&ArchProfile::knl());
        assert!(matches!(t.bcast(64, 16 << 10), BcastAlgo::KNomial { .. }));
        assert_eq!(t.bcast(64, 4 << 20), BcastAlgo::ScatterAllgather);
    }

    #[test]
    fn broadwell_bcast_shm_crossover_is_monotone() {
        // Fig 18(a) qualitative shape: shm wins tiny messages, CMA wins
        // large ones, and the preference flips exactly once.
        let t = Tuner::new(&ArchProfile::broadwell());
        assert!(t.bcast_prefers_shm(28, 512));
        assert!(!t.bcast_prefers_shm(28, 8 << 20));
        let mut flipped = false;
        let mut prev = true;
        for sh in 9..24 {
            let now = t.bcast_prefers_shm(28, 1usize << sh);
            if prev && !now {
                flipped = true;
            }
            assert!(!now || prev, "preference flipped back to shm at 2^{sh}");
            prev = now;
        }
        assert!(flipped, "no crossover found");
    }

    #[test]
    fn allgather_selection_matches_model_regime() {
        // Under the paper's bandwidth-unaware model, small messages want
        // log p startups (Bruck / recursive doubling).
        let arch = ArchProfile::knl();
        let mut params = arch.nominal_model();
        params.node_bw_ns_per_byte = 0.0;
        let paper = Tuner {
            params,
            procs_per_socket_hint: arch.cores_per_socket,
        };
        let small = paper.allgather(64, 1 << 10);
        assert!(
            matches!(
                small,
                AllgatherAlgo::Bruck | AllgatherAlgo::RecursiveDoubling
            ),
            "paper model: small messages want log p startups, got {small:?}"
        );
        // With the aggregate-bandwidth extension (matching the
        // simulator), large messages avoid Bruck's extra copies.
        let t = Tuner::new(&arch);
        let large = t.allgather(64, 1 << 20);
        assert!(
            matches!(
                large,
                AllgatherAlgo::RingSourceRead | AllgatherAlgo::RecursiveDoubling
            ),
            "large messages avoid Bruck's copies, got {large:?}"
        );
    }

    #[test]
    fn reduce_prefers_combining_tree_at_scale() {
        let t = Tuner::new(&ArchProfile::knl());
        assert!(
            matches!(t.reduce(64, 1 << 20), ReduceAlgo::KNomialTree { .. }),
            "large reductions want parallel combining"
        );
        // Two ranks: the tree degenerates; either choice is fine but the
        // prediction must not panic.
        let _ = t.reduce(2, 1 << 10);
    }

    #[test]
    fn cost_schedule_eta_difference_matches_transfer_model() {
        // Two compiled non-root parallel-read scatter plans that differ
        // only in η must differ in cost by exactly the CMA transfer
        // term: every other step (token bcast, completion gather) is
        // identical, so the IR walk and the §II model must agree on the
        // delta.
        let t = Tuner::new(&ArchProfile::knl());
        let p = 16;
        let rank = 5;
        let (eta_a, eta_b) = (1usize << 20, 1usize << 14);
        let layout =
            |eta: usize| -> Vec<(usize, usize)> { (0..p).map(|r| (r * eta, eta)).collect() };
        let plan_a = crate::schedule::compile_scatter(
            ScatterAlgo::ParallelRead,
            p,
            rank,
            &layout(eta_a),
            0,
            true,
        );
        let plan_b = crate::schedule::compile_scatter(
            ScatterAlgo::ParallelRead,
            p,
            rank,
            &layout(eta_b),
            0,
            true,
        );
        let c = p - 1;
        let delta = t.cost_schedule(&plan_a, c) - t.cost_schedule(&plan_b, c);
        let model_delta = t.params().t_cma(eta_a, c) - t.params().t_cma(eta_b, c);
        assert!(
            (delta - model_delta).abs() < 1e-6,
            "IR delta {delta} != model delta {model_delta}"
        );
    }

    #[test]
    fn cost_schedule_ordering_agrees_with_closed_forms() {
        // For large messages the per-rank IR walk must rank parallel
        // read vs sequential write the same way the closed-form
        // predictions do (both are dominated by the same CMA terms).
        let t = Tuner::new(&ArchProfile::knl());
        let p = 64;
        let eta = 1usize << 20;
        let layout: Vec<(usize, usize)> = (0..p).map(|r| (r * eta, eta)).collect();
        // Parallel read: cost borne by a contended non-root reader.
        let par =
            crate::schedule::compile_scatter(ScatterAlgo::ParallelRead, p, 1, &layout, 0, true);
        // Sequential write: cost borne by the uncontended root engine.
        let seq =
            crate::schedule::compile_scatter(ScatterAlgo::SequentialWrite, p, 0, &layout, 0, true);
        let ir_prefers_seq = t.cost_schedule(&seq, 1) < t.cost_schedule(&par, p - 1);
        let model_prefers_seq = predict::scatter_sequential_write(t.params(), p, eta, false)
            < predict::scatter_parallel_read(t.params(), p, eta);
        assert_eq!(ir_prefers_seq, model_prefers_seq);
    }

    #[test]
    fn throttle_candidates_include_socket_width() {
        let t = Tuner::new(&ArchProfile::broadwell());
        assert!(t.throttle_candidates(28).contains(&14));
        let t = Tuner::new(&ArchProfile::power8());
        assert!(t.throttle_candidates(160).contains(&10));
    }
}
