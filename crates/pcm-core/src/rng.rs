//! Deterministic pseudo-random number generation for the Monte-Carlo
//! experiments.
//!
//! The paper draws up to 10⁹ cells per design point (§2.4), so the generator
//! must be fast, splittable across threads, and bit-reproducible across
//! platforms. We implement xoshiro256++ (Blackman & Vigna) seeded through
//! SplitMix64 — the standard recommendation — plus Gaussian and
//! truncated-Gaussian samplers tailored to the cell-write model
//! ([`NormalSource`]), and [`NormalStream`], which draws the generator's
//! normals in batches without changing a single output bit.
//!
//! Shard determinism: [`Xoshiro256pp::split`] derives an independent stream
//! per Monte-Carlo shard from `(seed, shard_index)`, so results are
//! independent of thread count.

/// Derive the seed of an independent RNG stream `index` from a base
/// `seed` — the decorrelation hash behind [`Xoshiro256pp::split`], exposed
/// so higher layers (Monte-Carlo shards, device banks) can reproduce the
/// same stream identity without holding a generator.
#[inline]
pub fn stream_seed(seed: u64, index: u64) -> u64 {
    let mixed = seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
    mixed.wrapping_add(0x9E6C_63D0_876A_46DB)
}

/// SplitMix64 step; used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed via SplitMix64 so that low-entropy seeds still produce
    /// well-mixed state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derive an independent stream for shard `index` of a run seeded with
    /// `seed`. Streams are decorrelated by hashing `(seed, index)` through
    /// SplitMix64 with distinct mixing constants.
    pub fn split(seed: u64, index: u64) -> Self {
        Self::seed_from_u64(stream_seed(seed, index))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in open `(0, 1)` — safe to pass to `ln`.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[0, bound)` using Lemire's method (no modulo
    /// bias).
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        // pcm-lint: allow(no-panic-lib) — contract: a zero bound has no valid sample; call sites pass nonzero values
        assert!(bound > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let t = bound.wrapping_neg() % bound;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Standard normal deviate via the Marsaglia polar method.
    ///
    /// The pair `(u, v)` is redrawn until it lands strictly inside the
    /// unit disc; the accepted pair yields one normal and its spare is
    /// discarded. [`NormalStream`] caches normals ahead of time, but in
    /// this same stream order and with an exact rewind for non-normal
    /// draws, so a stream never gets entangled across draws or shards.
    pub fn next_normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

/// A source of standard normal deviates. The scaled and truncated
/// samplers are provided on top of `next_normal`, so every source draws
/// them through one implementation.
pub trait NormalSource {
    /// Standard normal deviate.
    fn next_normal(&mut self) -> f64;

    /// Normal with given mean and standard deviation.
    #[inline]
    fn next_normal_scaled(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.next_normal()
    }

    /// Standard normal truncated to `[-limit, +limit]` (in units of σ),
    /// drawn by rejection. This is exactly the paper's iterative
    /// program-and-verify model: re-draw until the written resistance lands
    /// within ±2.75σ of nominal (§2.2). Returns `(value, attempts)` so the
    /// wearout model can charge one write cycle per attempt.
    #[inline]
    fn next_truncated_normal(&mut self, limit: f64) -> (f64, u32) {
        // pcm-lint: allow(no-panic-lib) — contract: rejection sampling needs a positive limit
        assert!(limit > 0.0);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let z = self.next_normal();
            if z.abs() <= limit {
                return (z, attempts);
            }
            // Acceptance for 2.75σ is ~99.4%; a long rejection streak is
            // astronomically unlikely but bounded for robustness.
            if attempts >= 10_000 {
                return (z.clamp(-limit, limit), attempts);
            }
        }
    }
}

impl NormalSource for Xoshiro256pp {
    #[inline]
    fn next_normal(&mut self) -> f64 {
        Xoshiro256pp::next_normal(self)
    }
}

/// Normals generated per [`NormalStream`] batch.
const BATCH: usize = 64;

/// An [`Xoshiro256pp`] that hands out its normals from batches of 64,
/// bit-identical to calling [`Xoshiro256pp::next_normal`] on the bare
/// generator: the same values in the same order, and the same generator
/// state after the last consumed normal.
///
/// A batch is filled in two passes. The accept pass draws `(u, v)` pairs
/// exactly as `next_normal` does and appends `(u, s)` without a branch,
/// advancing the slot only when the pair is accepted; it records how many
/// pairs the batch had drawn at each slot. The transform pass then
/// evaluates `u·√(−2 ln s / s)` over the whole batch in a straight-line
/// loop, the same expression in the same order as `next_normal`.
///
/// Any other draw must go through [`NormalStream::rng`], which rewinds
/// the generator to just after the last consumed normal and drops the
/// rest of the batch.
#[derive(Debug, Clone)]
pub struct NormalStream {
    /// Generator state after the last pair of the current batch.
    rng: Xoshiro256pp,
    /// Generator state at the start of the current batch.
    start: Xoshiro256pp,
    /// The batch's normals.
    normals: [f64; BATCH],
    /// `pairs[k]`: `(u, v)` pairs drawn through the acceptance of slot `k`.
    pairs: [u32; BATCH],
    /// Next unconsumed slot; `BATCH` when no batch is pending.
    pos: usize,
}

impl NormalStream {
    /// Wrap `rng`; the first normal is the one `rng.next_normal()` would
    /// return.
    pub fn new(rng: Xoshiro256pp) -> Self {
        Self {
            start: rng.clone(),
            rng,
            normals: [0.0; BATCH],
            pairs: [0; BATCH],
            pos: BATCH,
        }
    }

    /// The raw generator, positioned just after the last consumed normal,
    /// for draws other than normals. Drops the unconsumed rest of the
    /// batch; the next normal starts a fresh batch from this position.
    pub fn rng(&mut self) -> &mut Xoshiro256pp {
        if self.pos < BATCH {
            let consumed = self.pos.checked_sub(1).map_or(0, |k| self.pairs[k]);
            self.rng = self.start.clone();
            for _ in 0..2 * consumed {
                self.rng.next_u64();
            }
            self.pos = BATCH;
        }
        &mut self.rng
    }

    /// Draw the next batch: the accept pass leaves each slot's `u` in
    /// `normals` and its `s` in `s`; a rejected pair is overwritten by the
    /// next one. The transform pass turns `u` into the normal in place.
    fn refill(&mut self) {
        self.start = self.rng.clone();
        let mut s = [0.0f64; BATCH];
        let mut k = 0;
        let mut pairs = 0u32;
        while k < BATCH {
            let u = 2.0 * self.rng.next_f64() - 1.0;
            let v = 2.0 * self.rng.next_f64() - 1.0;
            let sk = u * u + v * v;
            pairs += 1;
            self.normals[k] = u;
            s[k] = sk;
            self.pairs[k] = pairs;
            k += usize::from((sk > 0.0) & (sk < 1.0));
        }
        for (z, &s) in self.normals.iter_mut().zip(&s) {
            *z *= (-2.0 * s.ln() / s).sqrt();
        }
        self.pos = 0;
    }
}

impl NormalSource for NormalStream {
    #[inline]
    fn next_normal(&mut self) -> f64 {
        if self.pos == BATCH {
            self.refill();
        }
        let z = self.normals[self.pos];
        self.pos += 1;
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::stats::RunningStats;
    use proptest::prelude::*;

    /// One call on both sides: `0` a run of `n` normals, `1` a run of
    /// truncated normals at a limit picked by `n` (small limits force
    /// rejection streaks), `2` raw draws through `rng()`, `3` normals up
    /// to exactly the end of the pending batch and then a raw draw.
    fn step(bare: &mut Xoshiro256pp, stream: &mut NormalStream, kind: u8, n: usize) {
        match kind {
            0 => {
                for _ in 0..n {
                    assert_eq!(stream.next_normal().to_bits(), bare.next_normal().to_bits());
                }
            }
            1 => {
                let limit = [0.05, 0.5, 1.0, 2.75, 4.0][n % 5];
                for _ in 0..n % 7 + 1 {
                    let (a, ka) = stream.next_truncated_normal(limit);
                    let (b, kb) = bare.next_truncated_normal(limit);
                    assert_eq!((a.to_bits(), ka), (b.to_bits(), kb));
                }
            }
            2 => match n % 3 {
                0 => assert_eq!(stream.rng().next_u64(), bare.next_u64()),
                1 => assert_eq!(stream.rng().next_f64().to_bits(), bare.next_f64().to_bits()),
                _ => {
                    let bound = n as u64 + 1;
                    assert_eq!(stream.rng().next_bounded(bound), bare.next_bounded(bound));
                }
            },
            _ => {
                step(bare, stream, 0, BATCH - stream.pos % BATCH);
                assert_eq!(stream.pos, BATCH, "ended exactly at the batch end");
                step(bare, stream, 2, n);
            }
        }
    }

    fn assert_in_sync(bare: &mut Xoshiro256pp, stream: &mut NormalStream) {
        for _ in 0..4 {
            assert_eq!(stream.rng().next_u64(), bare.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn stream_matches_bare_generator(
            seed in any::<u64>(),
            calls in proptest::collection::vec((0u8..4, 0usize..150), 0..24),
        ) {
            let mut bare = Xoshiro256pp::seed_from_u64(seed);
            let mut stream = NormalStream::new(Xoshiro256pp::seed_from_u64(seed));
            for (kind, n) in calls {
                step(&mut bare, &mut stream, kind, n);
            }
            assert_in_sync(&mut bare, &mut stream);
        }
    }

    #[test]
    fn stream_syncs_at_slot_zero_mid_batch_and_batch_end() {
        // (normals before the raw draw, expected slot of the sync): a
        // sync before any normal, after one, mid-batch, one short of the
        // end, exactly at the end, and one into the next batch.
        for (normals, slot) in [(0, BATCH), (1, 1), (37, 37), (63, 63), (64, BATCH), (65, 1)] {
            for seed in 0..8 {
                let mut bare = Xoshiro256pp::seed_from_u64(seed);
                let mut stream = NormalStream::new(Xoshiro256pp::seed_from_u64(seed));
                step(&mut bare, &mut stream, 0, normals);
                assert_eq!(stream.pos, slot, "{normals} normals");
                step(&mut bare, &mut stream, 2, 0);
                step(&mut bare, &mut stream, 0, 2 * BATCH + 5);
                assert_in_sync(&mut bare, &mut stream);
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_decorrelated() {
        let mut a = Xoshiro256pp::split(7, 0);
        let mut b = Xoshiro256pp::split(7, 1);
        let mut stats = RunningStats::new();
        for _ in 0..10_000 {
            // Correlation proxy: product of centered uniforms.
            stats.push((a.next_f64() - 0.5) * (b.next_f64() - 0.5));
        }
        assert!(stats.mean().abs() < 0.01, "corr {}", stats.mean());
    }

    #[test]
    fn uniform_mean_and_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut s = RunningStats::new();
        for _ in 0..100_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            s.push(u);
        }
        assert!((s.mean() - 0.5).abs() < 0.005);
    }

    #[test]
    fn bounded_is_unbiased_over_small_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut counts = [0u64; 7];
        for _ in 0..70_000 {
            counts[rng.next_bounded(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 600, "{counts:?}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut s = RunningStats::new();
        for _ in 0..200_000 {
            s.push(rng.next_normal());
        }
        assert!(s.mean().abs() < 0.01, "mean {}", s.mean());
        assert!((s.std_dev() - 1.0).abs() < 0.01, "sd {}", s.std_dev());
    }

    #[test]
    fn truncated_normal_respects_limit() {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let mut total_attempts = 0u64;
        for _ in 0..50_000 {
            let (z, attempts) = rng.next_truncated_normal(2.75);
            assert!(z.abs() <= 2.75);
            total_attempts += attempts as u64;
        }
        // Acceptance probability for ±2.75σ is ~0.994, so the mean number
        // of program-and-verify iterations should be ~1.006.
        let mean_attempts = total_attempts as f64 / 50_000.0;
        assert!(mean_attempts < 1.02, "{mean_attempts}");
    }

    #[test]
    fn truncated_normal_is_renormalized_gaussian() {
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let mut s = RunningStats::new();
        for _ in 0..100_000 {
            s.push(rng.next_truncated_normal(2.75).0);
        }
        assert!(s.mean().abs() < 0.01);
        // Var of N(0,1) truncated at ±2.75: 1 - 2*2.75*φ(2.75)/(2Φ(2.75)-1)
        // ≈ 0.9503.
        assert!((s.variance() - 0.9503).abs() < 0.01, "{}", s.variance());
    }
}
