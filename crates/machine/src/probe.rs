//! Simulated Table III probes: implements `kacc_model::extract::CmaProbe`
//! on top of the machine simulator.

use crate::polled::{run_polled_team, PolledComm};
use crate::xfer::CmaDir;
use kacc_comm::{RemoteToken, Tag};
use kacc_model::extract::{CmaProbe, ProbeSpec};
use kacc_model::ArchProfile;

/// Runs step-isolating `process_vm_readv` probes against a simulated
/// node, mirroring what the paper does on real hardware with degenerate
/// iovec counts.
pub struct SimProbe {
    arch: ArchProfile,
}

impl SimProbe {
    /// Probe the given architecture.
    pub fn new(arch: ArchProfile) -> SimProbe {
        SimProbe { arch }
    }
}

impl CmaProbe for SimProbe {
    fn page_size(&self) -> usize {
        self.arch.page_size
    }

    fn probe(&mut self, spec: ProbeSpec) -> f64 {
        let readers = spec.readers.max(1);
        let remote_len = spec.remote_bytes;
        let copy_len = spec.local_bytes.min(spec.remote_bytes);
        // Rank 0 is the source; ranks 1..=readers each issue one call
        // against a *distinct* region of rank 0's buffer (the Fig 2(c)
        // pattern: same process, different buffers — pure lock
        // contention, no data races).
        let (_, durs) = run_polled_team(&self.arch, readers + 1, move |rank| async move {
            let mut comm = PolledComm::new(rank);
            if rank == 0 {
                let buf = comm.alloc(remote_len.max(1) * readers);
                let tok = comm
                    .expose(buf)
                    .await
                    .expect("probe: expose cannot fail on fresh buffer");
                for r in 1..=readers {
                    comm.ctrl_send(r, Tag::user(1), &tok.to_bytes())
                        .await
                        .expect("probe: ctrl_send is infallible in-sim");
                }
                for r in 1..=readers {
                    comm.wait_notify(r, Tag::user(2))
                        .await
                        .expect("probe: notification arrives");
                }
                0u64
            } else {
                let raw = comm
                    .ctrl_recv(0, Tag::user(1))
                    .await
                    .expect("probe: token message arrives");
                let tok = RemoteToken::from_bytes(&raw).expect("probe: root sends a valid token");
                let dst = comm.alloc(copy_len.max(1));
                let off = (rank - 1) * remote_len;
                let t0 = comm.time_ns();
                comm.cma_transfer(tok, off, dst, 0, remote_len, copy_len, CmaDir::Read)
                    .await
                    .expect("probe: transfer succeeds fault-free");
                let d = comm.time_ns() - t0;
                comm.notify(0, Tag::user(2))
                    .await
                    .expect("probe: notify is infallible in-sim");
                d
            }
        });
        let sum: u64 = durs.iter().skip(1).sum();
        sum as f64 / readers as f64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use kacc_model::extract::{extract_params, measure_gamma};
    use kacc_model::GammaModel;

    #[test]
    fn extraction_recovers_arch_parameters() {
        // The extraction pipeline run against the simulator must recover
        // the Table IV values the profile was built from.
        for arch in [
            ArchProfile::knl(),
            ArchProfile::broadwell(),
            ArchProfile::power8(),
        ] {
            let mut probe = SimProbe::new(arch.clone());
            let ex = extract_params(&mut probe, 100);
            let l_err = (ex.l_ns - arch.l_ns()).abs() / arch.l_ns();
            assert!(
                l_err < 0.05,
                "{}: l {} vs {}",
                arch.name,
                ex.l_ns,
                arch.l_ns()
            );
            let beta_err =
                (ex.beta_ns_per_byte - arch.beta_ns_per_byte()).abs() / arch.beta_ns_per_byte();
            assert!(beta_err < 0.05, "{}: beta mismatch {beta_err}", arch.name);
            // α = T₂ includes one page of lock+pin from the 1-byte probe.
            let alpha_expect = arch.alpha_ns() + arch.l_ns();
            let a_err = (ex.alpha_ns - alpha_expect).abs() / alpha_expect;
            assert!(
                a_err < 0.05,
                "{}: alpha {} vs {}",
                arch.name,
                ex.alpha_ns,
                alpha_expect
            );
        }
    }

    #[test]
    fn measured_gamma_tracks_mechanistic_curve() {
        let arch = ArchProfile::knl();
        let mut probe = SimProbe::new(arch.clone());
        let points = measure_gamma(&mut probe, &[2, 4, 8], &[50, 100]);
        let mech = arch.mechanistic_gamma();
        for pt in &points {
            let expect = mech.eval(pt.c);
            let err = (pt.gamma - expect).abs() / expect;
            assert!(
                err < 0.25,
                "c={}: measured {} vs mechanistic {}",
                pt.c,
                pt.gamma,
                expect
            );
        }
        // And γ grows with c.
        assert!(points.windows(2).all(|w| w[1].gamma > w[0].gamma));
    }

    #[test]
    fn broadwell_gamma_has_inter_socket_knee() {
        // Fig 5(b): noticeable increase beyond 14 concurrent readers on
        // the two-socket Broadwell node.
        let arch = ArchProfile::broadwell();
        let mut probe = SimProbe::new(arch);
        let points = measure_gamma(&mut probe, &[10, 13, 16, 20], &[50]);
        let slope_pre = points[1].gamma / points[0].gamma; // 13/10
        let slope_post = points[2].gamma / points[1].gamma; // 16/13
        assert!(
            slope_post > slope_pre,
            "knee missing: pre {slope_pre} post {slope_post} ({points:?})"
        );
    }

    #[test]
    fn gamma_is_insensitive_to_page_count() {
        // Fig 5: the 10/50/100-page curves coincide.
        let arch = ArchProfile::knl();
        let mut probe = SimProbe::new(arch);
        let g_small = measure_gamma(&mut probe, &[8], &[10]);
        let g_large = measure_gamma(&mut probe, &[8], &[100]);
        let rel = (g_small[0].gamma - g_large[0].gamma).abs() / g_large[0].gamma;
        assert!(rel < 0.15, "gamma should not depend on page count: {rel}");
    }

    #[test]
    fn fitted_gamma_predicts_heldout_concurrency() {
        // Fit on c ∈ {2,4,8,16}, predict c = 32 — the Fig 5 "Best Fit"
        // must extrapolate.
        let arch = ArchProfile::knl();
        let mut probe = SimProbe::new(arch);
        let train = measure_gamma(&mut probe, &[2, 4, 8, 16], &[50]);
        let fit = kacc_model::gamma::fit_gamma(&train).unwrap();
        let test = measure_gamma(&mut probe, &[32], &[50]);
        let predicted = fit.model.eval(32);
        let err = (predicted - test[0].gamma).abs() / test[0].gamma;
        assert!(
            err < 0.2,
            "fit extrapolates poorly: {predicted} vs {}",
            test[0].gamma
        );
        let _ = GammaModel::Unit; // silence unused import in cfg(test)
    }
}
