//! The physical cell array: per-cell analog state with drift, wear, and
//! stuck-at faults.
//!
//! Each cell stores its ground truth — the program-and-verify outcome
//! `logR0`, its sampled drift exponents, the absolute write time — so a
//! sense at any later time reproduces the exact drift law the paper's
//! Monte Carlo uses. Wearout is charged per program-and-verify iteration;
//! a worn cell becomes stuck (stuck-reset at the top state, stuck-set at
//! the bottom unless revived, §6.4).
//!
//! The array is stored as columns. Sensing touches only the two hot ones,
//! 48 bytes per cell: the drift path flattened into a
//! [`PreparedTrajectory`] (its rate-switch log-time computed once, at
//! program time) and the write time. Wear bookkeeping and the known fault
//! sit in a cold [`WearState`] column that only programming reads. A
//! stuck cell needs no flag on the sense path: its trajectory is the
//! constant path at [`FaultKind::stuck_logr`] and its write time is +∞,
//! so its elapsed time clamps to zero at every `now`.
//!
//! The array draws its randomness from a [`NormalStream`]: programming a
//! cell draws only normals (program-and-verify and drift exponents), so
//! they come from precomputed batches; the one other draw, the fault kind
//! of a newly worn cell, rewinds the stream through `WearState::wear`.

use pcm_core::drift::{log_time, DriftTrajectory, PreparedTrajectory};
use pcm_core::level::LevelDesign;
use pcm_core::rng::{NormalStream, Xoshiro256pp};
use pcm_wearout::fault::{EnduranceModel, FaultKind, WearState};

/// Outcome of programming one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramOutcome {
    /// Program-and-verify iterations consumed (wear cycles).
    pub attempts: u32,
    /// A wearout fault discovered *by this write* (write-and-verify is the
    /// detection point, §6.4). `None` if the cell is healthy or its fault
    /// was already known.
    pub new_fault: Option<FaultKind>,
    /// Whether the cell now holds the requested state (false for stuck
    /// cells that could not be forced there).
    pub verified: bool,
}

/// A flat array of physical cells, stored as columns.
#[derive(Debug)]
pub struct CellArray {
    /// Hot: each cell's drift path (constant at the stuck level once worn).
    trajectory: Vec<PreparedTrajectory>,
    /// Hot: absolute time of each cell's last write (+∞ once stuck).
    write_time: Vec<f64>,
    /// Cold: wear cycles, lifetime, and the known fault.
    wear: Vec<WearState>,
    endurance: EnduranceModel,
    rng: NormalStream,
}

impl CellArray {
    /// Allocate `n` pristine cells (erased to the lowest state at t = 0,
    /// no drift until written).
    pub fn new(n: usize, endurance: EnduranceModel, seed: u64) -> Self {
        // pcm-lint: allow(no-ambient-nondeterminism) — deterministic stream: the seed is caller-provided, per the documented reproducibility contract
        let mut rng = NormalStream::new(Xoshiro256pp::seed_from_u64(seed));
        let wear = (0..n)
            .map(|_| WearState::new(&endurance, &mut rng))
            .collect();
        Self {
            trajectory: vec![DriftTrajectory::simple(3.0, 0.0).prepare(); n],
            write_time: vec![0.0; n],
            wear,
            endurance,
            rng,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.wear.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.wear.is_empty()
    }

    /// Program cell `idx` to `state` of `design` at absolute time `now`.
    pub fn program(
        &mut self,
        idx: usize,
        design: &LevelDesign,
        state: usize,
        now: f64,
    ) -> ProgramOutcome {
        let endurance = self.endurance;
        let wear = &mut self.wear[idx];

        if let Some(fault) = wear.fault {
            // Already-known-stuck cells take the pulse (and the wear) but
            // verify only if the stuck level happens to sense as `state`.
            // The first fault stays the cell's fault even if a re-armed
            // lifetime (`set_lifetime`) makes this pulse sample another.
            wear.wear(1, &endurance, &mut self.rng);
            wear.fault = Some(fault);
            return ProgramOutcome {
                attempts: 1,
                new_fault: None,
                verified: design.sense(fault.stuck_logr()) == state,
            };
        }

        let written = pcm_core::cell::write_cell(design, state, &mut self.rng);
        let new_fault = wear.wear(written.write_attempts as u64, &endurance, &mut self.rng);
        if let Some(fault) = new_fault {
            // §6.4 failure semantics: stuck-reset pins the cell at the
            // amorphous extreme; stuck-set pins it crystalline unless the
            // reverse-current revival can force it to S4.
            let stuck = fault.stuck_logr();
            self.trajectory[idx] = DriftTrajectory::simple(stuck, 0.0).prepare();
            self.write_time[idx] = f64::INFINITY;
            return ProgramOutcome {
                attempts: written.write_attempts,
                new_fault,
                verified: design.sense(stuck) == state,
            };
        }

        self.trajectory[idx] = written.trajectory.prepare();
        self.write_time[idx] = now;
        ProgramOutcome {
            attempts: written.write_attempts,
            new_fault: None,
            verified: true,
        }
    }

    /// Sense cell `idx` at absolute time `now` under `design`.
    pub fn sense(&self, idx: usize, design: &LevelDesign, now: f64) -> usize {
        design.sense(self.logr(idx, now))
    }

    /// Sense the `out.len()` cells from `base` at time `now`:
    /// `out[i] == self.sense(base + i, design, now)`, bit for bit.
    ///
    /// The cells of a block share their write time, so the drift
    /// log-time `log_time(now − write_time)` is computed once per run of
    /// equal write times instead of once per cell; each resistance is then
    /// sensed by [`LevelDesign::sense`], as in the per-cell path.
    pub fn sense_block(&self, base: usize, design: &LevelDesign, now: f64, out: &mut [usize]) {
        let cells = base..base + out.len();
        let mut run: Option<(u64, f64)> = None;
        for ((o, tr), &wt) in out
            .iter_mut()
            .zip(&self.trajectory[cells.clone()])
            .zip(&self.write_time[cells])
        {
            let l = match run {
                Some((bits, l)) if bits == wt.to_bits() => l,
                _ => {
                    let l = log_time((now - wt).max(0.0));
                    run = Some((wt.to_bits(), l));
                    l
                }
            };
            *o = design.sense(tr.logr_at_log_time(l));
        }
    }

    /// Raw analog log-resistance of cell `idx` at time `now`.
    pub fn logr(&self, idx: usize, now: f64) -> f64 {
        let elapsed = (now - self.write_time[idx]).max(0.0);
        self.trajectory[idx].logr_at_log_time(log_time(elapsed))
    }

    /// The cell's known fault, if any.
    pub fn fault(&self, idx: usize) -> Option<FaultKind> {
        self.wear[idx].fault
    }

    /// Force a cell's remaining lifetime (test/fault-injection hook).
    pub fn set_lifetime(&mut self, idx: usize, cycles: u64) {
        self.wear[idx].lifetime = cycles;
        self.wear[idx].cycles = 0;
    }

    /// Wear cycles consumed by cell `idx`.
    pub fn wear_cycles(&self, idx: usize) -> u64 {
        self.wear[idx].cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_core::level::LevelDesign;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sense_block_matches_per_cell_sense(
            seed in any::<u64>(),
            n in 1usize..400,
            writes in 0usize..800,
            short_lived in 0usize..40,
            now in -10.0f64..1.0e9,
            start in 0usize..400,
        ) {
            // Pristine cells, cells written at a handful of times (runs of
            // equal write times broken up), stuck cells of every kind, and
            // `now` before, between and after the write times.
            let designs = [
                LevelDesign::three_level_naive(),
                LevelDesign::four_level_naive(),
                pcm_core::optimize::four_level_optimal().clone(),
                LevelDesign::two_level(),
            ];
            let mut a = CellArray::new(n, EnduranceModel::mlc(), seed);
            let mut x = seed | 1;
            let mut step = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for _ in 0..short_lived {
                let i = (step() % n as u64) as usize;
                a.set_lifetime(i, 1 + step() % 3);
            }
            let times = [0.0, 5.0, 5.0e3, 2.0e6, 3.0e8];
            for _ in 0..writes {
                let i = (step() % n as u64) as usize;
                // A run of up to 8 cells shares one design and write time.
                let d = &designs[(step() % 4) as usize];
                let t = times[(step() % 5) as usize];
                for c in i..(i + 1 + (step() % 8) as usize).min(n) {
                    a.program(c, d, (step() % d.n_levels() as u64) as usize, t);
                }
            }
            let start = start % n;
            let mut out = vec![usize::MAX; n - start];
            for d in &designs {
                a.sense_block(start, d, now, &mut out);
                for (k, &got) in out.iter().enumerate() {
                    prop_assert_eq!(got, a.sense(start + k, d, now), "cell {}", start + k);
                }
            }
        }
    }

    fn array(n: usize) -> CellArray {
        CellArray::new(n, EnduranceModel::mlc(), 42)
    }

    #[test]
    fn program_then_sense_roundtrip() {
        let d = LevelDesign::three_level_naive();
        let mut a = array(100);
        for i in 0..100 {
            let state = i % 3;
            let out = a.program(i, &d, state, 0.0);
            assert!(out.verified);
            assert_eq!(a.sense(i, &d, 0.0), state);
        }
    }

    #[test]
    fn drift_is_relative_to_write_time() {
        let d = LevelDesign::four_level_naive();
        let mut a = array(1);
        a.program(0, &d, 2, 1_000.0);
        let r_at_write = a.logr(0, 1_000.0);
        let r_later = a.logr(0, 1_000.0 + 1e6);
        assert!(r_later >= r_at_write);
        // Sensing *before* the write time must not apply negative drift.
        assert_eq!(a.logr(0, 0.0), r_at_write);
    }

    #[test]
    fn rewrite_resets_drift_clock() {
        let d = LevelDesign::four_level_naive();
        let mut a = array(1);
        a.program(0, &d, 2, 0.0);
        let drifted = a.logr(0, 1e8);
        a.program(0, &d, 2, 1e8); // refresh rewrites to nominal
        let refreshed = a.logr(0, 1e8);
        // Fresh write lands inside the ±2.75σ window around 5.0 again.
        assert!(refreshed < 5.0 + 2.76 / 6.0, "{refreshed} after {drifted}");
    }

    #[test]
    fn wearout_discovered_by_write_verify() {
        let d = LevelDesign::three_level_naive();
        let mut a = array(1);
        a.set_lifetime(0, 3);
        let mut fault = None;
        for w in 0..10 {
            let out = a.program(0, &d, 1, w as f64);
            if out.new_fault.is_some() {
                fault = out.new_fault;
                break;
            }
        }
        let fault = fault.expect("lifetime of 3 must wear out within 10 writes");
        assert_eq!(a.fault(0), Some(fault));
        // Once stuck, senses a constant state regardless of target.
        let s_now = a.sense(0, &d, 100.0);
        a.program(0, &d, (s_now + 1) % 3, 100.0);
        assert_eq!(a.sense(0, &d, 1e9), s_now);
    }

    #[test]
    fn stuck_reset_reads_top_state() {
        let d = LevelDesign::three_level_naive();
        let mut a = array(200);
        let mut saw_reset = false;
        let mut saw_dead_set = false;
        for i in 0..200 {
            a.set_lifetime(i, 1);
            let out = a.program(i, &d, 0, 0.0);
            match out.new_fault {
                Some(FaultKind::StuckReset) | Some(FaultKind::StuckSet { revivable: true }) => {
                    assert_eq!(a.sense(i, &d, 0.0), 2, "forced to S4");
                    assert!(!out.verified, "S4 is not the requested S1");
                    saw_reset = true;
                }
                Some(FaultKind::StuckSet { revivable: false }) => {
                    assert_eq!(a.sense(i, &d, 0.0), 0, "pinned crystalline");
                    assert!(out.verified, "S1 happened to be the target");
                    saw_dead_set = true;
                }
                None => panic!("lifetime 1 must fail on first write"),
            }
            // The stuck level holds at every time, before the write and
            // at the end of time included.
            let stuck = out.new_fault.map(FaultKind::stuck_logr);
            for t in [-1.0, 0.0, 1.0e9, f64::INFINITY] {
                assert_eq!(Some(a.logr(i, t)), stuck, "cell {i} at t={t}");
            }
        }
        assert!(saw_reset && saw_dead_set, "both modes exercised");
    }

    #[test]
    fn wear_accumulates_per_attempt() {
        let d = LevelDesign::four_level_naive();
        let mut a = array(1);
        for w in 0..50 {
            a.program(0, &d, 1, w as f64);
        }
        assert!(a.wear_cycles(0) >= 50);
    }
}

/// Bit-identity pin for the cell program and sense paths: any change to
/// the order of RNG draws, the drift arithmetic, the fault semantics or
/// the block datapaths moves this digest.
#[cfg(test)]
mod pin {
    use super::*;
    use crate::block::{BlockError, FourLevelBlock, ThreeLevelBlock, WriteReport};
    use crate::block::{FOUR_LEVEL_BLOCK_CELLS, THREE_LEVEL_BLOCK_CELLS};
    use crate::ReadReport;
    use pcm_codec::tec::TEC_CELLS;

    /// FNV-1a, 64-bit, over the little-endian bytes of each word.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }

        fn fault(&mut self, f: Option<FaultKind>) {
            self.word(fault_code(f) as u64);
        }

        fn outcome(&mut self, o: ProgramOutcome) {
            self.word(u64::from(o.attempts));
            self.fault(o.new_fault);
            self.word(u64::from(o.verified));
        }

        fn write(&mut self, r: Result<WriteReport, BlockError>) {
            match r {
                Ok(w) => {
                    self.word(w.new_faults as u64);
                    self.word(w.attempts);
                }
                Err(e) => self.word(100 + e as u64),
            }
        }

        fn read(&mut self, r: Result<ReadReport, BlockError>) {
            match r {
                Ok(rep) => {
                    rep.data.iter().for_each(|&b| self.word(u64::from(b)));
                    self.word(rep.corrected_bits as u64);
                    self.word(rep.repaired_cells as u64);
                }
                Err(e) => self.word(100 + e as u64),
            }
        }
    }

    fn fault_code(f: Option<FaultKind>) -> usize {
        match f {
            None => 0,
            Some(FaultKind::StuckReset) => 1,
            Some(FaultKind::StuckSet { revivable: true }) => 2,
            Some(FaultKind::StuckSet { revivable: false }) => 3,
        }
    }

    fn next(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Cell level: 3LC, 4LC and SLC regions, short lifetimes on every
    /// fifth cell (stuck-reset and both stuck-set kinds appear), partial
    /// rewrites so write times mix, lifetimes re-armed on stuck cells, and
    /// `logr`/`sense` read before, at and after each write time.
    fn cell_digest() -> u64 {
        let designs = [
            LevelDesign::three_level_naive(),
            pcm_core::optimize::four_level_optimal().clone(),
            LevelDesign::two_level(),
        ];
        let region = 256;
        let n = designs.len() * region;
        let mut a = CellArray::new(n, EnduranceModel::mlc(), 2013);
        for i in (0..n).step_by(5) {
            a.set_lifetime(i, 1 + (i as u64 / 5) % 6);
        }
        let mut h = Fnv::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..8u64 {
            let now = round as f64 * 1.0e4;
            for i in 0..n {
                if (i as u64 + round).is_multiple_of(3) {
                    continue;
                }
                let d = &designs[i / region];
                let state = (next(&mut x) % d.n_levels() as u64) as usize;
                h.outcome(a.program(i, d, state, now));
            }
            if round == 4 {
                for i in (0..n).step_by(10) {
                    a.set_lifetime(i, 2);
                }
            }
            for t in [
                now - 1.0,
                now,
                now + 1.0,
                now + 1.0e3,
                now + 1.0e7,
                now + 3.156e8,
            ] {
                for i in 0..n {
                    h.word(a.logr(i, t).to_bits());
                    h.word(a.sense(i, &designs[i / region], t) as u64);
                }
            }
            for i in 0..n {
                h.fault(a.fault(i));
                h.word(a.wear_cycles(i));
            }
        }
        let mut kinds = [0usize; 4];
        for i in 0..n {
            kinds[fault_code(a.fault(i))] += 1;
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "workload must exercise healthy cells and every fault kind: {kinds:?}"
        );
        h.0
    }

    /// Block level: two 3LC and two 4LC blocks with short-lived cells,
    /// rewritten and read back at growing ages.
    fn block_digest() -> u64 {
        let mut h = Fnv::new();
        let payload = |seed: u64| -> Vec<u8> {
            (0..64u64)
                .map(|i| (i.wrapping_mul(37) ^ seed.wrapping_mul(101)) as u8)
                .collect()
        };

        let mut a3 = CellArray::new(2 * THREE_LEVEL_BLOCK_CELLS, EnduranceModel::mlc(), 7);
        for i in (0..2 * THREE_LEVEL_BLOCK_CELLS).step_by(53) {
            a3.set_lifetime(i, 1 + i as u64 % 4);
        }
        let mut b3: Vec<ThreeLevelBlock> = (0..2)
            .map(|b| {
                ThreeLevelBlock::new(
                    LevelDesign::three_level_naive(),
                    b * THREE_LEVEL_BLOCK_CELLS,
                )
            })
            .collect();

        let mut a4 = CellArray::new(2 * FOUR_LEVEL_BLOCK_CELLS, EnduranceModel::mlc(), 8);
        for i in (0..2 * FOUR_LEVEL_BLOCK_CELLS).step_by(61) {
            a4.set_lifetime(i, 1 + i as u64 % 3);
        }
        let mut b4: Vec<FourLevelBlock> = (0..2)
            .map(|b| {
                FourLevelBlock::new(
                    pcm_core::optimize::four_level_optimal().clone(),
                    b * FOUR_LEVEL_BLOCK_CELLS,
                    b == 0,
                )
            })
            .collect();

        for round in 0..6u64 {
            let now = round as f64 * 600.0;
            for (k, b) in b3.iter_mut().enumerate() {
                if (round + k as u64).is_multiple_of(2) {
                    h.write(b.write(&mut a3, now, &payload(round * 4 + k as u64)));
                }
            }
            for (k, b) in b4.iter_mut().enumerate() {
                h.write(b.write(&mut a4, now, &payload(round * 4 + 2 + k as u64)));
            }
            for age in [0.0, 1.0, 1024.0, 1.0e6, 3.156e8] {
                for b in &b3 {
                    h.read(b.read(&a3, now + age));
                }
                for b in &b4 {
                    h.read(b.read(&a4, now + age));
                }
            }
        }
        h.0
    }

    /// Faults at every position of a normal batch: one 3LC block, its
    /// 354 MLC cells and 10 SLC check cells programmed round after round.
    /// Before round `r`, cell `r` gets a 1-cycle lifetime, so each round
    /// wears one more cell out, and its fault-kind draw lands at a new
    /// offset of the 64-normal batch. Halfway, every tenth stuck cell is
    /// re-armed with a 2-cycle lifetime and wears out again two rounds
    /// later. Counting the normals each write draws (program-and-verify
    /// attempts, one drift exponent, one more below the rate switch), the
    /// workload asserts that those draws hit every offset.
    fn fault_digest() -> u64 {
        const BATCH: u64 = 64;
        let mlc = pcm_core::optimize::three_level_optimal().clone();
        let slc = LevelDesign::two_level();
        let n = THREE_LEVEL_BLOCK_CELLS;
        let design = |i: usize| if i < TEC_CELLS { &mlc } else { &slc };
        let normals = |d: &LevelDesign, state: usize, attempts: u32| {
            let switched = d
                .drift_switch
                .is_some_and(|sw| d.states[state].nominal_logr < sw.switch_logr);
            u64::from(attempts) + 1 + u64::from(switched)
        };
        let mut a = CellArray::new(n, EnduranceModel::mlc(), 1613);
        let mut rearmed = vec![false; n];
        let mut h = Fnv::new();
        let mut x = 0xD1B5_4A32_D192_ED03u64;
        // Normals drawn since the last non-normal draw: one lifetime per
        // cell at construction.
        let mut drawn = n as u64;
        let mut offsets = [false; BATCH as usize];
        for round in 0..n {
            a.set_lifetime(round, 1);
            let now = round as f64 * 60.0;
            for (i, &rearm) in rearmed.iter().enumerate() {
                let d = design(i);
                let state = (next(&mut x) % d.n_levels() as u64) as usize;
                let stuck = a.fault(i).is_some();
                let before = a.wear_cycles(i);
                let out = a.program(i, d, state, now);
                h.outcome(out);
                if !stuck {
                    drawn += normals(d, state, out.attempts);
                }
                let rearm_worn = rearm && before < 2 && a.wear_cycles(i) >= 2;
                if out.new_fault.is_some() || rearm_worn {
                    offsets[(drawn % BATCH) as usize] = true;
                    drawn = 0;
                }
            }
            if round == n / 2 {
                for i in (0..round).step_by(10) {
                    a.set_lifetime(i, 2);
                    rearmed[i] = true;
                }
            }
            for t in [now, now + 1.0e5] {
                for i in 0..n {
                    h.word(a.logr(i, t).to_bits());
                    h.word(a.sense(i, design(i), t) as u64);
                }
            }
            for i in 0..n {
                h.fault(a.fault(i));
                h.word(a.wear_cycles(i));
            }
        }
        let missed: Vec<usize> = (0..offsets.len()).filter(|&k| !offsets[k]).collect();
        assert!(missed.is_empty(), "no fault at batch offsets {missed:?}");
        h.0
    }

    #[test]
    fn program_and_sense_digests_are_pinned() {
        assert_eq!(cell_digest(), 3235919783724634772, "cell digest");
        assert_eq!(block_digest(), 8890104714197868950, "block digest");
        assert_eq!(fault_digest(), 14195684403749359095, "fault digest");
    }
}
