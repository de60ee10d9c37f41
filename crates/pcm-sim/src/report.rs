//! Figure 16 assembly: run the 6-workload × 4-design matrix and
//! normalize execution time, energy, and power to 4LC-REF.

use crate::config::{DesignPoint, EnergyModel, SimParams};
use crate::engine::{simulate, SimResult};
use crate::workload::WorkloadProfile;

/// One normalized Figure 16 bar.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure16Bar {
    /// Workload name.
    pub workload: String,
    /// Design point.
    pub design: DesignPoint,
    /// Execution time / 4LC-REF's.
    pub norm_exec_time: f64,
    /// Total energy / 4LC-REF's.
    pub norm_energy: f64,
    /// Average power / 4LC-REF's.
    pub norm_power: f64,
    /// Energy breakdown (read, write, refresh, static) normalized to
    /// 4LC-REF's total — the stacked-bar decomposition of Figure 16.
    pub energy_breakdown: [f64; 4],
    /// The raw simulation result behind the bar.
    pub raw: SimResult,
}

/// Run the full Figure 16 matrix: each workload's four designs are
/// simulated once, and every bar is normalized against that workload's
/// own 4LC-REF result.
pub fn figure16(
    params: &SimParams,
    energy: &EnergyModel,
    instructions: u64,
    seed: u64,
) -> Vec<Figure16Bar> {
    let mut bars = Vec::new();
    for profile in WorkloadProfile::figure16_suite() {
        let raws = DesignPoint::ALL
            .map(|design| simulate(params, energy, design, profile, instructions, seed));
        // `DesignPoint::ALL` opens with the 4LC-REF baseline.
        let baseline = &raws[0];
        let base_energy = baseline.total_energy_nj();
        let base_power = baseline.avg_power_w();
        let base_time = baseline.exec_time_ns;
        for raw in raws {
            bars.push(Figure16Bar {
                workload: profile.name.to_string(),
                design: raw.design,
                norm_exec_time: raw.exec_time_ns / base_time,
                norm_energy: raw.total_energy_nj() / base_energy,
                norm_power: raw.avg_power_w() / base_power,
                energy_breakdown: [
                    raw.read_energy_nj / base_energy,
                    raw.write_energy_nj / base_energy,
                    raw.refresh_energy_nj / base_energy,
                    raw.static_energy_nj / base_energy,
                ],
                raw,
            });
        }
    }
    bars
}

/// Geometric-mean summary across the memory-intensive workloads (the
/// paper's headline "33% higher performance and 24% lower energy").
pub fn summary_gains(bars: &[Figure16Bar]) -> (f64, f64) {
    let three: Vec<&Figure16Bar> = bars
        .iter()
        .filter(|b| b.design == DesignPoint::ThreeLc && b.workload != "namd")
        .collect();
    // pcm-lint: allow(no-panic-lib) — contract: Figure 16 bars always include the 3LC design; an empty set is a harness bug
    assert!(!three.is_empty());
    let gm = |f: &dyn Fn(&Figure16Bar) -> f64| -> f64 {
        (three.iter().map(|b| f(b).ln()).sum::<f64>() / three.len() as f64).exp()
    };
    let perf_gain = 1.0 / gm(&|b| b.norm_exec_time) - 1.0;
    let energy_saving = 1.0 - gm(&|b| b.norm_energy);
    (perf_gain, energy_saving)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> Vec<Figure16Bar> {
        figure16(&SimParams::default(), &EnergyModel::default(), 1_000_000, 7)
    }

    #[test]
    fn baseline_bars_are_unity() {
        for b in matrix() {
            if b.design == DesignPoint::FourLcRef {
                assert!((b.norm_exec_time - 1.0).abs() < 1e-12);
                assert!((b.norm_energy - 1.0).abs() < 1e-12);
                assert!((b.norm_power - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matrix_is_complete() {
        let bars = matrix();
        assert_eq!(bars.len(), 24, "6 workloads × 4 designs");
    }

    #[test]
    fn figure16_shape() {
        // 3LC beats 4LC-REF on time and energy for every memory-intensive
        // workload; namd is flat.
        for b in matrix() {
            if b.design != DesignPoint::ThreeLc {
                continue;
            }
            if b.workload == "namd" {
                assert!((b.norm_exec_time - 1.0).abs() < 0.02, "namd {b:?}");
            } else {
                assert!(
                    b.norm_exec_time < 0.9,
                    "{}: {}",
                    b.workload,
                    b.norm_exec_time
                );
                assert!(b.norm_energy < 0.95, "{}: {}", b.workload, b.norm_energy);
            }
        }
    }

    #[test]
    fn headline_gains_in_paper_ballpark() {
        // Paper: 33% higher performance, 24% lower energy (3LC vs
        // 4LC-REF). With synthetic traces in place of the authors' McSim
        // runs the averages land in the same region but not on the same
        // point (fully write-bound workloads pay the whole 1.72× refresh
        // bandwidth tax here) — see EXPERIMENTS.md. Accept 20–75% perf
        // and 10–55% energy.
        let (perf, energy) = summary_gains(&matrix());
        assert!((0.20..0.75).contains(&perf), "perf gain {perf}");
        assert!((0.10..0.55).contains(&energy), "energy saving {energy}");
    }

    #[test]
    fn breakdown_sums_to_total() {
        for b in matrix() {
            let sum: f64 = b.energy_breakdown.iter().sum();
            assert!((sum - b.norm_energy).abs() < 1e-9, "{b:?}");
        }
    }

    #[test]
    fn bars_carry_scrub_tax_and_utilization() {
        let params = SimParams::default();
        for b in matrix() {
            assert_eq!(b.raw.bank_utilization.len(), params.banks, "{b:?}");
            if b.design.refreshes() {
                assert!(b.raw.scrub_bandwidth_tax > 0.3, "{:?}", b.design);
            } else {
                assert_eq!(b.raw.scrub_bandwidth_tax, 0.0, "{:?}", b.design);
            }
        }
    }

    /// FNV-1a, 64-bit, over the little-endian bytes of each word.
    struct Fnv(u64);

    impl Fnv {
        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }

        fn float(&mut self, x: f64) {
            self.word(x.to_bits());
        }
    }

    /// Every field of every bar and of the `SimResult` behind it, so any
    /// change to the engine's arithmetic, the trace generator or the
    /// normalization moves this digest.
    #[test]
    fn figure16_digest_is_pinned() {
        let bars = figure16(&SimParams::default(), &EnergyModel::default(), 200_000, 11);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for b in &bars {
            let r = &b.raw;
            h.word(r.design as u64);
            for byte in r.workload.bytes() {
                h.word(u64::from(byte));
            }
            for n in [r.instructions, r.reads, r.writes, r.refreshes] {
                h.word(n);
            }
            for x in [
                r.exec_time_ns,
                r.read_energy_nj,
                r.write_energy_nj,
                r.refresh_energy_nj,
                r.static_energy_nj,
                r.avg_read_latency_ns,
                r.max_read_latency_ns,
                r.scrub_bandwidth_tax,
            ] {
                h.float(x);
            }
            h.word(r.bank_utilization.len() as u64);
            for &u in &r.bank_utilization {
                h.float(u);
            }
            for x in [b.norm_exec_time, b.norm_energy, b.norm_power] {
                h.float(x);
            }
            for x in b.energy_breakdown {
                h.float(x);
            }
        }
        assert_eq!((bars.len(), h.0), (24, 0xbceb_3235_53ee_c723));
    }

    #[test]
    fn refresh_breakdown_vanishes_without_refresh() {
        for b in matrix() {
            if !b.design.refreshes() {
                assert_eq!(b.energy_breakdown[2], 0.0);
            } else if b.workload != "namd" {
                assert!(b.energy_breakdown[2] > 0.0);
            }
        }
    }
}
