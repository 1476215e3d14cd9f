//! The Table II parameter bundle consumed by the closed-form predictions.

use crate::gamma::GammaModel;

/// Parameters of the paper's cost model (Table II), in nanoseconds and
/// bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// α — startup cost per message (syscall + permission check).
    pub alpha_ns: f64,
    /// β — transfer time per byte.
    pub beta_ns_per_byte: f64,
    /// l — time to lock and pin one page without contention.
    pub l_ns: f64,
    /// s — page size in bytes.
    pub page_size: usize,
    /// γ_c — contention factor model.
    pub gamma: GammaModel,
    /// Latency of one small shared-memory control message.
    pub sm_msg_ns: f64,
    /// Per-byte cost of control payloads.
    pub sm_byte_ns: f64,
    /// Per-byte cost of a local `memcpy`.
    pub memcpy_ns_per_byte: f64,
    /// Reciprocal of the node's aggregate memory bandwidth, ns/byte.
    /// Our extension to the paper's model: with `c` concurrent copies
    /// the effective per-byte cost is `max(β, c·node_bw)`. Setting 0
    /// recovers the paper's bandwidth-unaware formulas.
    pub node_bw_ns_per_byte: f64,
}

impl ModelParams {
    /// Cost of one kernel-assisted transfer of `eta` bytes with `c`
    /// concurrent readers/writers of the same source:
    /// `α + η·β + l·γ_c·⌈η/s⌉` (copy shared among `c` copiers too).
    pub fn t_cma(&self, eta: usize, c: usize) -> f64 {
        self.t_cma_shared(eta, c, c)
    }

    /// Like [`ModelParams::t_cma`] but with independent lock concurrency
    /// (readers of the *same* process) and copy concurrency (copies in
    /// flight node-wide). Contention-free exchange patterns have
    /// `lock_c = 1` while every rank still competes for memory
    /// bandwidth.
    ///
    /// Collective steps are synchronized (by the lock server under
    /// contention, by the step structure otherwise), so all `copy_c`
    /// copies overlap and share bandwidth. Setting
    /// `node_bw_ns_per_byte = 0` recovers the paper's bandwidth-unaware
    /// formulas.
    pub fn t_cma_shared(&self, eta: usize, lock_c: usize, copy_c: usize) -> f64 {
        let pages = eta.div_ceil(self.page_size) as f64;
        let serial = self.alpha_ns + self.l_ns * self.gamma.eval(lock_c) * pages;
        serial + eta as f64 * self.beta_shared(copy_c)
    }

    /// Effective per-byte copy cost with `c` concurrent copies.
    pub fn beta_shared(&self, c: usize) -> f64 {
        self.beta_ns_per_byte
            .max(c.max(1) as f64 * self.node_bw_ns_per_byte)
    }

    /// Cost of a local memcpy of `eta` bytes.
    pub fn t_memcpy(&self, eta: usize) -> f64 {
        eta as f64 * self.memcpy_ns_per_byte
    }

    /// Cost of a local memcpy with `c` concurrent copies node-wide.
    pub fn t_memcpy_shared(&self, eta: usize, c: usize) -> f64 {
        eta as f64
            * self
                .memcpy_ns_per_byte
                .max(c.max(1) as f64 * self.node_bw_ns_per_byte)
    }

    /// Cost of one control-plane point-to-point message of `bytes`.
    pub fn t_sm_msg(&self, bytes: usize) -> f64 {
        self.sm_msg_ns + bytes as f64 * self.sm_byte_ns
    }

    /// `T^sm_bcast`: binomial-tree broadcast of a tiny message over `p`
    /// ranks (⌈log₂ p⌉ sequential hop latencies on the critical path).
    pub fn t_sm_bcast(&self, p: usize, bytes: usize) -> f64 {
        ceil_log2(p) as f64 * self.t_sm_msg(bytes)
    }

    /// `T^sm_gather`: binomial gather; the root receives ⌈log₂ p⌉ rounds,
    /// with payload growing along the way — approximated by the hop count
    /// times the mean payload, which is accurate for the tiny messages
    /// this primitive carries.
    pub fn t_sm_gather(&self, p: usize, bytes: usize) -> f64 {
        ceil_log2(p) as f64 * self.t_sm_msg(bytes * p.div_ceil(2))
    }

    /// `T^sm_allgather`: Bruck over ⌈log₂ p⌉ rounds.
    pub fn t_sm_allgather(&self, p: usize, bytes: usize) -> f64 {
        ceil_log2(p) as f64 * self.t_sm_msg(bytes * p.div_ceil(2))
    }

    /// `T^intra_barrier`: dissemination barrier.
    pub fn t_sm_barrier(&self, p: usize) -> f64 {
        ceil_log2(p) as f64 * self.t_sm_msg(0)
    }
}

/// ⌈log₂ p⌉ with ⌈log₂ 1⌉ = 0.
pub fn ceil_log2(p: usize) -> u32 {
    assert!(p > 0);
    (p as u64).next_power_of_two().trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        ModelParams {
            alpha_ns: 1000.0,
            beta_ns_per_byte: 0.3,
            l_ns: 100.0,
            page_size: 4096,
            gamma: GammaModel::Quadratic { a: 0.1, b: 1.0 },
            sm_msg_ns: 300.0,
            sm_byte_ns: 0.5,
            memcpy_ns_per_byte: 0.3,
            node_bw_ns_per_byte: 0.0,
        }
    }

    #[test]
    fn ceil_log2_table() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }

    #[test]
    fn t_cma_components_add_up() {
        let p = params();
        // 8192 bytes = 2 pages, single reader: α + ηβ + 2l.
        let t = p.t_cma(8192, 1);
        assert!((t - (1000.0 + 8192.0 * 0.3 + 2.0 * 100.0)).abs() < 1e-9);
    }

    #[test]
    fn contention_inflates_lock_term_only() {
        let p = params();
        let t1 = p.t_cma(4096, 1);
        let t8 = p.t_cma(4096, 8);
        let gamma8 = p.gamma.eval(8);
        assert!((t8 - t1 - 100.0 * (gamma8 - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn partial_page_rounds_up() {
        let p = params();
        assert!(
            p.t_cma(1, 1) > p.alpha_ns + 99.0,
            "one byte still pins one page"
        );
        assert!(
            p.t_cma(4097, 1) - p.t_cma(4096, 1) > 99.0,
            "crossing a page boundary adds a lock"
        );
    }

    #[test]
    fn sm_primitives_scale_logarithmically() {
        let p = params();
        assert_eq!(p.t_sm_bcast(1, 8), 0.0);
        let t64 = p.t_sm_bcast(64, 8);
        let t128 = p.t_sm_bcast(128, 8);
        assert!((t128 / t64 - 7.0 / 6.0).abs() < 1e-9);
        assert!(p.t_sm_barrier(64) > 0.0);
    }
}
