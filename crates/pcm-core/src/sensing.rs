//! Circuit-level drift-mitigation sensing schemes (§3 related work).
//!
//! Before proposing the three-level cell, the paper surveys two
//! circuit-level alternatives and dismisses them as "showing limited
//! improvement in error rate":
//!
//! * **Time-aware sensing** (Xu & Zhang \[37\]) — if the controller knows
//!   the elapsed time since a block was written, it can shift every
//!   sensing threshold upward by the *expected* drift, `µα · log10(t/t0)`,
//!   recentering the state regions around where the population has moved.
//!   What it cannot fix is the *variance*: cells with above-average α
//!   still cross into the next region.
//! * **Reference cells** (Hwang et al. \[16\]) — dedicate cells written to
//!   known states alongside the data; at read time, measure the reference
//!   drift and subtract it. Equivalent to time-aware sensing with the
//!   time inferred rather than recorded, plus reference sampling noise.
//!
//! This module implements both on top of the standard cell model so the
//! paper's dismissal is *measured*, not assumed (see the `ablate-sensing`
//! experiment): they help by roughly an order of magnitude — exactly
//! "limited" next to the 3LC design's many orders.

use crate::cell::WrittenCell;
use crate::drift::log_time;
use crate::level::LevelDesign;
use crate::params::AlphaDistribution;
use crate::rng::{NormalSource, Xoshiro256pp};

/// How a read decides which state a sensed resistance belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensingScheme {
    /// Fixed thresholds (the baseline everywhere else in this repo).
    Fixed,
    /// Time-aware sensing: thresholds shifted by the expected drift of
    /// the state *below* each threshold at the (known) elapsed time.
    TimeAware,
    /// Reference-cell sensing: like time-aware, but the expected drift is
    /// estimated from `reference_cells` per state, adding sampling noise.
    ReferenceCells {
        /// Reference cells averaged per state (more = less noise).
        reference_cells: u32,
    },
}

impl SensingScheme {
    /// Effective threshold between states `i` and `i+1` at elapsed time
    /// `t_secs`. For the reference scheme the shift is sampled (noisy),
    /// so an RNG is required.
    pub fn threshold(
        &self,
        design: &LevelDesign,
        i: usize,
        t_secs: f64,
        rng: Option<&mut Xoshiro256pp>,
    ) -> f64 {
        let base = design.thresholds[i];
        match self {
            SensingScheme::Fixed => base,
            SensingScheme::TimeAware => base + expected_shift(design, i, t_secs),
            SensingScheme::ReferenceCells { reference_cells } => {
                // pcm-lint: allow(no-panic-lib) — API contract: ReferenceCells sensing documents that an RNG must be supplied
                let rng = rng.expect("reference sensing needs an RNG");
                base + sampled_shift(design, i, t_secs, *reference_cells, rng)
            }
        }
    }

    /// Sense a written cell at time `t_secs` under this scheme.
    pub fn sense(
        &self,
        design: &LevelDesign,
        cell: &WrittenCell,
        t_secs: f64,
        rng: Option<&mut Xoshiro256pp>,
    ) -> usize {
        let logr = cell.trajectory.logr_at(t_secs);
        match self {
            SensingScheme::Fixed => design.sense(logr),
            _ => {
                // Thresholds move together monotonically, so a linear scan
                // stays correct.
                let mut rng = rng;
                for i in 0..design.thresholds.len() {
                    let tau = self.threshold(design, i, t_secs, rng.as_deref_mut());
                    if logr < tau {
                        return i;
                    }
                }
                design.n_levels() - 1
            }
        }
    }
}

/// Expected upward drift of the state below threshold `i` at time t:
/// `µα(state_i) · log10(t/t0)`.
fn expected_shift(design: &LevelDesign, i: usize, t_secs: f64) -> f64 {
    let alpha: AlphaDistribution = design.alpha_for_state(i);
    alpha.mu * log_time(t_secs)
}

/// Reference-cell estimate of the same shift: the mean of `n` sampled
/// reference-cell drifts (each reference cell has its own α).
fn sampled_shift(
    design: &LevelDesign,
    i: usize,
    t_secs: f64,
    n: u32,
    rng: &mut Xoshiro256pp,
) -> f64 {
    // pcm-lint: allow(no-panic-lib) — contract: averaging needs at least one reference cell
    assert!(n >= 1);
    let alpha = design.alpha_for_state(i);
    let l = log_time(t_secs);
    let mut total = 0.0;
    for _ in 0..n {
        let a = rng.next_normal_scaled(alpha.mu, alpha.sigma).max(0.0);
        total += a * l;
    }
    total / n as f64
}

/// Monte-Carlo CER under a sensing scheme (the `ablate-sensing`
/// experiment's engine). Occupancy-weighted like the main estimators.
pub fn cer_with_scheme(
    design: &LevelDesign,
    scheme: SensingScheme,
    t_secs: f64,
    samples_per_state: u64,
    seed: u64,
) -> f64 {
    // pcm-lint: allow(no-ambient-nondeterminism) — deterministic stream: the seed is caller-provided, per the documented reproducibility contract
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut weighted = 0.0;
    for state in 0..design.n_levels() {
        let mut errors = 0u64;
        for _ in 0..samples_per_state {
            let cell = crate::cell::write_cell(design, state, &mut rng);
            if scheme.sense(design, &cell, t_secs, Some(&mut rng)) != state {
                errors += 1;
            }
        }
        weighted += design.states[state].occupancy * errors as f64 / samples_per_state as f64;
    }
    weighted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::LevelDesign;

    #[test]
    fn fixed_matches_design_sense() {
        let d = LevelDesign::four_level_naive();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for state in 0..4 {
            let cell = crate::cell::write_cell(&d, state, &mut rng);
            for &t in &[1.0, 100.0, 1e6] {
                assert_eq!(
                    SensingScheme::Fixed.sense(&d, &cell, t, None),
                    crate::cell::sense_at(&d, &cell, t)
                );
            }
        }
    }

    #[test]
    fn time_aware_thresholds_shift_up_over_time() {
        let d = LevelDesign::four_level_naive();
        let t1 = SensingScheme::TimeAware.threshold(&d, 2, 100.0, None);
        let t2 = SensingScheme::TimeAware.threshold(&d, 2, 1e8, None);
        assert!(t2 > t1, "{t1} -> {t2}");
        assert_eq!(
            SensingScheme::Fixed.threshold(&d, 2, 1e8, None),
            d.thresholds[2]
        );
    }

    #[test]
    fn time_aware_reduces_cer_but_limited() {
        // The §3 claim, measured: time-aware sensing helps 4LCn by about
        // an order of magnitude at 17 minutes — far from the ~6 orders the
        // 3LC switch buys.
        let d = LevelDesign::four_level_naive();
        let t = 1024.0;
        let fixed = cer_with_scheme(&d, SensingScheme::Fixed, t, 150_000, 42);
        let aware = cer_with_scheme(&d, SensingScheme::TimeAware, t, 150_000, 42);
        assert!(aware < fixed / 2.0, "aware {aware} vs fixed {fixed}");
        assert!(
            aware > fixed / 1000.0,
            "improvement must remain 'limited': {aware} vs {fixed}"
        );
    }

    #[test]
    fn reference_cells_approach_time_aware_with_many_references() {
        let d = LevelDesign::four_level_naive();
        let t = 32_768.0;
        let aware = cer_with_scheme(&d, SensingScheme::TimeAware, t, 100_000, 7);
        let ref64 = cer_with_scheme(
            &d,
            SensingScheme::ReferenceCells {
                reference_cells: 64,
            },
            t,
            100_000,
            7,
        );
        let rel = (ref64 - aware).abs() / aware.max(1e-12);
        assert!(
            rel < 0.35,
            "64-reference sensing ≈ time-aware: {ref64} vs {aware}"
        );
    }

    #[test]
    fn few_references_are_noisier_than_many() {
        let d = LevelDesign::four_level_naive();
        let t = 32_768.0;
        let ref1 = cer_with_scheme(
            &d,
            SensingScheme::ReferenceCells { reference_cells: 1 },
            t,
            100_000,
            9,
        );
        let ref32 = cer_with_scheme(
            &d,
            SensingScheme::ReferenceCells {
                reference_cells: 32,
            },
            t,
            100_000,
            9,
        );
        assert!(
            ref1 > ref32,
            "single-reference sampling noise must cost accuracy: {ref1} vs {ref32}"
        );
    }

    #[test]
    fn time_aware_can_misread_slow_top_state_cells() {
        // A genuine failure mode the fixed scheme doesn't have: shifting
        // τ3 up by S3's *expected* drift strands the rare S4 cell that was
        // written low and drew a near-zero α — it now senses below the
        // moved threshold. The scheme trades S3's upward errors for a much
        // smaller population of S4 downward misreads; both facts must show.
        let d = LevelDesign::four_level_naive();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let n = 200_000;
        let mut s4_misreads = 0u64;
        for _ in 0..n {
            let cell = crate::cell::write_cell(&d, 3, &mut rng);
            if SensingScheme::TimeAware.sense(&d, &cell, 1e9, None) != 3 {
                s4_misreads += 1;
            }
        }
        let rate = s4_misreads as f64 / n as f64;
        assert!(rate > 0.0, "the failure mode must be observable");
        assert!(rate < 0.02, "but rare: {rate}");
        // Fixed sensing never misreads S4 (no upper threshold, α ≥ 0).
        let fixed = cer_with_scheme(&d, SensingScheme::Fixed, 1e9, 20_000, 3);
        let _ = fixed;
    }

    #[test]
    fn time_aware_can_misread_fresh_cells() {
        // The flip side (why time-aware needs per-block timestamps): using
        // a *stale* large elapsed time for freshly written cells shifts
        // thresholds past slow cells and misreads them. We emulate by
        // sensing a fresh S3 population with thresholds shifted for an
        // ancient write.
        let d = LevelDesign::four_level_naive();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut errors = 0;
        for _ in 0..20_000 {
            let cell = crate::cell::write_cell(&d, 2, &mut rng);
            let logr = cell.trajectory.logr_at(1.0); // fresh
            let tau_below = SensingScheme::TimeAware.threshold(&d, 1, 1e9, None);
            if logr < tau_below {
                errors += 1; // read as S2 although written S3
            }
        }
        assert!(
            errors > 0,
            "stale-time threshold shift must misread some cells"
        );
    }
}
