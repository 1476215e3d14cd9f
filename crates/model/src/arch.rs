//! Architecture profiles: Table V hardware descriptions plus the
//! mechanistic simulator knobs and nominal Table IV model parameters.
//!
//! The three presets correspond to the paper's evaluation platforms:
//!
//! | | Xeon (Broadwell) | Xeon Phi (KNL) | OpenPOWER (Power8) |
//! |---|---|---|---|
//! | Sockets × cores | 2 × 14 | 1 × 68 | 2 × 10 |
//! | Threads/core | 1 | 4 | 8 |
//! | Page size | 4 KiB | 4 KiB | 64 KiB |
//! | Full-subscription ranks used | 28 | 64 | 160 |
//!
//! The mechanistic knobs (`l_lock_ns`, `k_bounce`, `x_socket`,
//! bandwidths) drive `kacc-machine`'s emergent-contention simulation; the
//! analytic Table IV parameters are *extracted from* simulator runs by
//! `model::extract`, exactly as the paper extracts them from hardware.
//! The γ coefficients printed in the paper's Table IV are OCR-corrupted
//! in our source text, so DESIGN.md documents the reconstruction: a
//! super-linear γ with an inter-socket knee at the socket core count.

use crate::gamma::GammaModel;
use crate::params::ModelParams;
use kacc_comm::Topology;

/// Complete description of one node architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchProfile {
    /// Human-readable name ("KNL", "Broadwell", "Power8").
    pub name: String,
    /// CPU sockets.
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// SMT ways per core.
    pub threads_per_core: usize,
    /// Page size in bytes (the model's `s`).
    pub page_size: usize,
    /// Process count the paper uses on this machine (full subscription).
    pub default_procs: usize,

    // ---- mechanistic simulator knobs ----
    /// Fixed syscall entry/exit cost, ns.
    pub t_syscall_ns: f64,
    /// Permission / capability check cost per call, ns.
    pub t_permcheck_ns: f64,
    /// Uncontended page-table lock acquire+release per page, ns.
    pub l_lock_ns: f64,
    /// Page pin work per page (uncontended, after the lock), ns.
    pub l_pin_ns: f64,
    /// Lock handoff inflation per additional waiter (cache-line bounce).
    pub k_bounce: f64,
    /// Multiplier applied to `k_bounce` when waiters span sockets.
    pub x_socket: f64,
    /// Per-core copy bandwidth, bytes/ns (the model's 1/β).
    pub bw_core: f64,
    /// Aggregate memory bandwidth, bytes/ns; concurrent copies share it.
    pub bw_total: f64,
    /// Inter-socket link (QPI/X-Bus) bandwidth, bytes/ns; cross-socket
    /// copies share this instead of the local memory pool.
    pub bw_qpi: f64,
    /// Bandwidth penalty for inter-socket copies (divide `bw_core`).
    pub inter_socket_bw_penalty: f64,
    /// Latency of a small control message through shared memory, ns.
    pub sm_msg_ns: f64,
    /// Per-byte cost of control-plane payloads, ns/byte.
    pub sm_byte_ns: f64,
    /// Pages pinned per batch inside the simulated CMA copy loop.
    pub pin_batch_pages: usize,
}

impl ArchProfile {
    /// Intel Xeon Phi "Knights Landing" 7250: 68 cores, single socket,
    /// MCDRAM cache mode, 4 KiB pages. The paper runs 64 processes.
    pub fn knl() -> ArchProfile {
        ArchProfile {
            name: "KNL".into(),
            sockets: 1,
            cores_per_socket: 68,
            threads_per_core: 4,
            page_size: 4096,
            default_procs: 64,
            t_syscall_ns: 900.0,
            t_permcheck_ns: 530.0,
            l_lock_ns: 150.0,
            l_pin_ns: 100.0,
            k_bounce: 0.17,
            x_socket: 1.0, // single socket: no inter-socket knee
            bw_core: 3.29,
            bw_total: 26.0,
            bw_qpi: 26.0, // single socket: never traversed
            inter_socket_bw_penalty: 1.0,
            sm_msg_ns: 600.0,
            sm_byte_ns: 0.6,
            pin_batch_pages: 64,
        }
    }

    /// Intel Xeon E5-2680 v4 "Broadwell": 2 × 14 cores, 4 KiB pages.
    /// The paper runs 28 processes.
    pub fn broadwell() -> ArchProfile {
        ArchProfile {
            name: "Broadwell".into(),
            sockets: 2,
            cores_per_socket: 14,
            threads_per_core: 1,
            page_size: 4096,
            default_procs: 28,
            t_syscall_ns: 600.0,
            t_permcheck_ns: 380.0,
            l_lock_ns: 60.0,
            l_pin_ns: 50.0,
            k_bounce: 0.17,
            x_socket: 3.0,
            bw_core: 3.1,
            bw_total: 9.0,
            bw_qpi: 4.5,
            inter_socket_bw_penalty: 1.3,
            sm_msg_ns: 300.0,
            sm_byte_ns: 0.35,
            pin_batch_pages: 64,
        }
    }

    /// IBM Power8 PPC64LE: 2 × 10 cores, SMT-8, 64 KiB pages. The paper
    /// runs 160 processes.
    pub fn power8() -> ArchProfile {
        ArchProfile {
            name: "Power8".into(),
            sockets: 2,
            cores_per_socket: 10,
            threads_per_core: 8,
            page_size: 65536,
            default_procs: 160,
            t_syscall_ns: 450.0,
            t_permcheck_ns: 300.0,
            l_lock_ns: 330.0,
            l_pin_ns: 200.0,
            k_bounce: 0.05,
            x_socket: 4.0,
            bw_core: 3.7,
            bw_total: 37.0,
            bw_qpi: 16.0,
            inter_socket_bw_penalty: 1.4,
            sm_msg_ns: 250.0,
            sm_byte_ns: 0.3,
            pin_batch_pages: 64,
        }
    }

    /// All three paper platforms.
    pub fn all() -> Vec<ArchProfile> {
        vec![
            ArchProfile::knl(),
            ArchProfile::broadwell(),
            ArchProfile::power8(),
        ]
    }

    /// Look up a preset by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<ArchProfile> {
        ArchProfile::all()
            .into_iter()
            .find(|a| a.name.eq_ignore_ascii_case(name))
    }

    /// The node topology (process-to-core mapping source of truth).
    pub fn topology(&self) -> Topology {
        Topology {
            sockets: self.sockets,
            cores_per_socket: self.cores_per_socket,
            threads_per_core: self.threads_per_core,
            page_size: self.page_size,
        }
    }

    /// Uncontended per-page lock+pin time (the model's `l`).
    pub fn l_ns(&self) -> f64 {
        self.l_lock_ns + self.l_pin_ns
    }

    /// Startup cost (the model's α = syscall + permission check).
    pub fn alpha_ns(&self) -> f64 {
        self.t_syscall_ns + self.t_permcheck_ns
    }

    /// Per-byte copy time at full per-core bandwidth (the model's β).
    pub fn beta_ns_per_byte(&self) -> f64 {
        1.0 / self.bw_core
    }

    /// The closed-form γ implied by the mechanistic lock: with `c`
    /// symmetric concurrent readers served round-robin, each reader's
    /// per-page time inflates by
    /// `γ(c) = c·(1 + w_lock·k_bounce·(c−1)·xs(c))` where
    /// `w_lock = l_lock/(l_lock+l_pin)` weights the bounce term (only the
    /// lock handoff bounces) and `xs(c)` is `x_socket` once the reader
    /// set spans sockets.
    pub fn mechanistic_gamma(&self) -> GammaModel {
        GammaModel::Mechanistic {
            k_bounce: self.k_bounce,
            x_socket: self.x_socket,
            socket_knee: self.cores_per_socket,
            lock_weight: self.l_lock_ns / (self.l_lock_ns + self.l_pin_ns),
        }
    }

    /// Nominal analytic model parameters derived directly from the
    /// mechanistic knobs (extraction via `model::extract` recovers these
    /// from simulated probes instead, like the paper does from hardware).
    pub fn nominal_model(&self) -> ModelParams {
        ModelParams {
            alpha_ns: self.alpha_ns(),
            beta_ns_per_byte: self.beta_ns_per_byte(),
            l_ns: self.l_ns(),
            page_size: self.page_size,
            gamma: self.mechanistic_gamma(),
            sm_msg_ns: self.sm_msg_ns,
            sm_byte_ns: self.sm_byte_ns,
            memcpy_ns_per_byte: self.beta_ns_per_byte(),
            // Copy capacity: local memory pool plus (on multi-socket
            // parts) the inter-socket link the simulator routes
            // cross-socket flows through.
            node_bw_ns_per_byte: 1.0
                / (self.bw_total + if self.sockets > 1 { self.bw_qpi } else { 0.0 }),
        }
    }

    /// Default interconnect for this platform (Table V's last row).
    pub fn default_fabric(&self) -> FabricParams {
        match self.name.as_str() {
            "KNL" => FabricParams::omni_path(),
            _ => FabricParams::ib_edr(),
        }
    }
}

/// Inter-node fabric parameters (latency-bandwidth model with per-NIC
/// link sharing, used by the multi-node experiments of §VII-G).
#[derive(Debug, Clone, PartialEq)]
pub struct FabricParams {
    /// Fabric name for display.
    pub name: String,
    /// Per-message startup latency, ns.
    pub alpha_ns: f64,
    /// Link bandwidth per NIC direction, bytes/ns.
    pub bw_link: f64,
}

impl FabricParams {
    /// InfiniBand EDR (100 Gb/s): the Xeon and OpenPOWER clusters.
    pub fn ib_edr() -> FabricParams {
        FabricParams {
            name: "IB-EDR".into(),
            alpha_ns: 1500.0,
            bw_link: 12.5,
        }
    }

    /// Intel Omni-Path (100 Gb/s): the KNL cluster.
    pub fn omni_path() -> FabricParams {
        FabricParams {
            name: "Omni-Path".into(),
            alpha_ns: 1700.0,
            bw_link: 12.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_presets_are_100gbps() {
        for f in [FabricParams::ib_edr(), FabricParams::omni_path()] {
            assert!((f.bw_link - 12.5).abs() < 1e-9);
            assert!(f.alpha_ns >= 1000.0);
        }
    }

    #[test]
    fn default_fabric_matches_table_v() {
        assert_eq!(ArchProfile::knl().default_fabric().name, "Omni-Path");
        assert_eq!(ArchProfile::broadwell().default_fabric().name, "IB-EDR");
        assert_eq!(ArchProfile::power8().default_fabric().name, "IB-EDR");
    }

    #[test]
    fn presets_match_paper_hardware() {
        let knl = ArchProfile::knl();
        assert_eq!(knl.sockets, 1);
        assert_eq!(knl.cores_per_socket, 68);
        assert_eq!(knl.default_procs, 64);

        let bdw = ArchProfile::broadwell();
        assert_eq!(bdw.topology().physical_cores(), 28);
        assert_eq!(bdw.default_procs, 28);

        let p8 = ArchProfile::power8();
        assert_eq!(p8.page_size, 65536);
        assert_eq!(p8.topology().hardware_threads(), 160);
    }

    #[test]
    fn nominal_parameters_land_near_table_iv() {
        // Table IV: α = 1.43/0.98/0.75 µs, β⁻¹ = 3.29/3.1/3.7 GB/s,
        // l = 0.25/0.11/0.53 µs for KNL/Broadwell/Power8.
        let knl = ArchProfile::knl();
        assert!((knl.alpha_ns() - 1430.0).abs() < 1.0);
        assert!((knl.l_ns() - 250.0).abs() < 1.0);
        assert!((1.0 / knl.beta_ns_per_byte() - 3.29).abs() < 0.01);

        let bdw = ArchProfile::broadwell();
        assert!((bdw.alpha_ns() - 980.0).abs() < 1.0);
        assert!((bdw.l_ns() - 110.0).abs() < 1.0);

        let p8 = ArchProfile::power8();
        assert!((p8.alpha_ns() - 750.0).abs() < 1.0);
        assert!((p8.l_ns() - 530.0).abs() < 1.0);
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert!(ArchProfile::by_name("knl").is_some());
        assert!(ArchProfile::by_name("BROADWELL").is_some());
        assert!(ArchProfile::by_name("skylake").is_none());
    }
}
