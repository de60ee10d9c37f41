//! Mark-and-spare: the paper's low-overhead wearout-tolerance mechanism
//! for 3-ON-2-encoded blocks (§6.4, Figures 10–12).
//!
//! When write-and-verify detects a worn-out cell, the *pair* containing it
//! is programmed to the INV state (`[S4, S4]` — reachable even by faulty
//! cells: stuck-reset is already S4, stuck-set is revived into S4 by
//! reverse current). Logical data simply skips INV pairs, overflowing into
//! spare pairs at the end of the block. Cost: **two spare cells per
//! tolerated failure**, versus five for ECP (§6.6).
//!
//! Correction in hardware is a cascade of MUX stages (Figure 12), one per
//! tolerable failure, each deleting the first remaining INV pair; the MUX
//! select signals are prefix ORs over the INV flags ([`crate::or_chain`]).
//! Both that staged datapath and the straightforward skip-scan are
//! implemented here and tested equivalent.

use pcm_codec::ternary::Trit;
use pcm_codec::three_on_two::{decode_pair, encode_pair, inv_pair, PairValue};
use pcm_ecc::bitvec::BitVec;

/// Data pairs in a 64B block (§6.2).
pub const DATA_PAIRS: usize = 171;

/// Spare pairs per block: tolerates six wearout failures at two cells each
/// (§6.4: "12 spare cells").
pub const SPARE_PAIRS: usize = 6;

/// Mark-and-spare failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkSpareError {
    /// More INV-marked pairs than the block has spares.
    TooManyFailures {
        /// Number of pairs marked INV.
        marked: usize,
        /// Spare pairs available.
        spares: usize,
    },
}

impl std::fmt::Display for MarkSpareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarkSpareError::TooManyFailures { marked, spares } => {
                write!(f, "{marked} failed pairs exceed {spares} spares")
            }
        }
    }
}

impl std::error::Error for MarkSpareError {}

/// A mark-and-spare layout (data pairs + spare pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkSpareCodec {
    /// Logical data pairs.
    pub data_pairs: usize,
    /// Physical spare pairs.
    pub spare_pairs: usize,
}

impl Default for MarkSpareCodec {
    fn default() -> Self {
        Self {
            data_pairs: DATA_PAIRS,
            spare_pairs: SPARE_PAIRS,
        }
    }
}

impl MarkSpareCodec {
    /// A custom geometry (used by Figure 10's 4-data/2-spare example and
    /// the capacity sweeps).
    pub fn new(data_pairs: usize, spare_pairs: usize) -> Self {
        // pcm-lint: allow(no-panic-lib) — constructor contract: mark-and-spare needs at least one data pair
        assert!(data_pairs >= 1);
        Self {
            data_pairs,
            spare_pairs,
        }
    }

    /// Total physical pairs.
    pub fn total_pairs(&self) -> usize {
        self.data_pairs + self.spare_pairs
    }

    /// Total physical cells.
    pub fn total_cells(&self) -> usize {
        self.total_pairs() * 2
    }

    /// Spare cells consumed per tolerated wearout failure — the Table 3
    /// headline: 2, vs ECP's 5.
    pub fn cells_per_failure() -> usize {
        2
    }

    /// Lay out `values` (one 3-bit value per data pair) onto physical
    /// pairs, marking `failed_pairs` (physical indices, any order) as INV.
    pub fn encode_pairs(
        &self,
        values: &[u8],
        failed_pairs: &[usize],
    ) -> Result<Vec<(Trit, Trit)>, MarkSpareError> {
        // pcm-lint: allow(no-panic-lib) — shape contract: one value per data pair of the block layout
        assert_eq!(
            values.len(),
            self.data_pairs,
            "need one value per data pair"
        );
        Ok(self.layout(failed_pairs, |p| values[p])?.collect())
    }

    /// The physical pairs for data pairs `0..data_pairs` whose values
    /// `value(p)` yields, with `failed_pairs` marked INV and data shifted
    /// past them into the spares.
    fn layout(
        &self,
        failed_pairs: &[usize],
        value: impl Fn(usize) -> u8,
    ) -> Result<impl Iterator<Item = (Trit, Trit)>, MarkSpareError> {
        let mut failed = vec![false; self.total_pairs()];
        for &f in failed_pairs {
            // pcm-lint: allow(no-panic-lib) — contract: failed-pair indices are bounded by the block layout
            assert!(f < self.total_pairs(), "failed pair {f} out of range");
            failed[f] = true;
        }
        let marked = failed.iter().filter(|&&b| b).count();
        if marked > self.spare_pairs {
            return Err(MarkSpareError::TooManyFailures {
                marked,
                spares: self.spare_pairs,
            });
        }
        let data_pairs = self.data_pairs;
        let mut next_value = 0usize;
        Ok(failed.into_iter().map(move |is_failed| {
            if is_failed {
                inv_pair()
            } else if next_value < data_pairs {
                next_value += 1;
                encode_pair(value(next_value - 1))
            } else {
                // Unused spare: park at a benign data value.
                encode_pair(0)
            }
        }))
    }

    /// Recover the logical values by skipping INV pairs (reference
    /// semantics for the hardware datapath).
    pub fn decode_pairs(&self, pairs: &[(Trit, Trit)]) -> Result<Vec<u8>, MarkSpareError> {
        // pcm-lint: allow(no-panic-lib) — shape contract: one pair per physical pair of the block layout
        assert_eq!(pairs.len(), self.total_pairs());
        self.skip_inv(pairs.iter().copied())
    }

    /// The data values of `pairs` in order, INV pairs skipped, or the
    /// error when fewer than `data_pairs` values remain.
    fn skip_inv(
        &self,
        pairs: impl Iterator<Item = (Trit, Trit)>,
    ) -> Result<Vec<u8>, MarkSpareError> {
        let mut out = Vec::with_capacity(self.data_pairs);
        let mut marked = 0usize;
        for (a, b) in pairs {
            match decode_pair(a, b) {
                PairValue::Inv => marked += 1,
                PairValue::Data(v) => {
                    if out.len() < self.data_pairs {
                        out.push(v);
                    }
                }
            }
        }
        if out.len() < self.data_pairs {
            return Err(MarkSpareError::TooManyFailures {
                marked,
                spares: self.spare_pairs,
            });
        }
        Ok(out)
    }

    /// The Figure 12 hardware datapath: `spare_pairs` MUX stages, each
    /// deleting the first remaining INV pair, selects driven by prefix ORs
    /// of the INV flags. Bit-exact against [`Self::decode_pairs`].
    pub fn decode_pairs_staged(&self, pairs: &[(Trit, Trit)]) -> Result<Vec<u8>, MarkSpareError> {
        // pcm-lint: allow(no-panic-lib) — shape contract: one pair per physical pair of the block layout
        assert_eq!(pairs.len(), self.total_pairs());
        #[derive(Clone, Copy)]
        enum Slot {
            Inv,
            Data(u8),
        }
        let mut slots: Vec<Slot> = pairs
            .iter()
            .map(|&(a, b)| match decode_pair(a, b) {
                PairValue::Inv => Slot::Inv,
                PairValue::Data(v) => Slot::Data(v),
            })
            .collect();
        let marked = slots.iter().filter(|s| matches!(s, Slot::Inv)).count();

        for stage in 0..self.spare_pairs {
            let live = self.total_pairs() - stage;
            // Prefix OR over INV flags of the live slots (the OR chain).
            let flags: Vec<bool> = slots[..live]
                .iter()
                .map(|s| matches!(s, Slot::Inv))
                .collect();
            let net = crate::or_chain::PrefixOrNetwork::sklansky(live);
            let selects = net.evaluate(&flags);
            // MUX row: out[k] = select[k] ? in[k+1] : in[k].
            let mut next = Vec::with_capacity(live - 1);
            for k in 0..live - 1 {
                next.push(if selects[k] { slots[k + 1] } else { slots[k] });
            }
            slots.truncate(0);
            slots.extend(next);
        }

        let mut out = Vec::with_capacity(self.data_pairs);
        for s in slots.iter().take(self.data_pairs) {
            match s {
                Slot::Data(v) => out.push(*v),
                Slot::Inv => {
                    return Err(MarkSpareError::TooManyFailures {
                        marked,
                        spares: self.spare_pairs,
                    })
                }
            }
        }
        if out.len() < self.data_pairs {
            return Err(MarkSpareError::TooManyFailures {
                marked,
                spares: self.spare_pairs,
            });
        }
        Ok(out)
    }

    /// Encode a 512-bit block (or shorter) into the full physical trit
    /// stream, 3-ON-2 packing + mark-and-spare layout. Pair `p`'s value is
    /// bits `3p..3p+3` of `data`, read with word shifts.
    pub fn encode_block(
        &self,
        data: &BitVec,
        failed_pairs: &[usize],
    ) -> Result<Vec<Trit>, MarkSpareError> {
        // pcm-lint: allow(no-panic-lib) — contract: data length is bounded by the block layout
        assert!(data.len() <= self.data_pairs * 3);
        let words = data.as_words();
        let mut out = Vec::with_capacity(self.total_cells());
        for (a, b) in self.layout(failed_pairs, |p| value_at(words, 3 * p))? {
            out.extend([a, b]);
        }
        Ok(out)
    }

    /// Decode the full physical trit stream back to `len_bits` of data,
    /// skipping INV pairs and packing each 3-bit value with word shifts.
    pub fn decode_block(&self, trits: &[Trit], len_bits: usize) -> Result<BitVec, MarkSpareError> {
        // pcm-lint: allow(no-panic-lib) — shape contract: one trit per physical cell of the block layout
        assert_eq!(trits.len(), self.total_cells());
        let values = self.skip_inv(trits.chunks_exact(2).map(|c| (c[0], c[1])))?;
        let mut words = vec![0u64; (values.len() * 3).max(len_bits).div_ceil(64)];
        for (p, &v) in values.iter().enumerate() {
            let (wi, off) = (3 * p / 64, 3 * p % 64);
            words[wi] |= u64::from(v) << off;
            if off > 61 {
                words[wi + 1] |= u64::from(v) >> (64 - off);
            }
        }
        // `from_words` drops the bits of the last value past `len_bits`.
        Ok(BitVec::from_words(words, len_bits))
    }
}

/// The 3-bit value at bit `pos` of `words` (bits past the end read 0).
fn value_at(words: &[u64], pos: usize) -> u8 {
    let (wi, off) = (pos / 64, pos % 64);
    let lo = words.get(wi).map_or(0, |w| w >> off);
    let hi = if off > 61 {
        words.get(wi + 1).map_or(0, |w| w << (64 - off))
    } else {
        0
    };
    ((lo | hi) & 7) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::{btree_set, vec};
    use proptest::prelude::*;

    /// The per-bit encoder [`MarkSpareCodec::encode_block`] replaced.
    fn encode_block_reference(
        c: &MarkSpareCodec,
        data: &BitVec,
        failed_pairs: &[usize],
    ) -> Result<Vec<Trit>, MarkSpareError> {
        let mut values = Vec::with_capacity(c.data_pairs);
        for p in 0..c.data_pairs {
            let mut v = 0u8;
            for b in 0..3 {
                let idx = p * 3 + b;
                if idx < data.len() && data.get(idx) {
                    v |= 1 << b;
                }
            }
            values.push(v);
        }
        let pairs = c.encode_pairs(&values, failed_pairs)?;
        Ok(pairs.into_iter().flat_map(|(a, b)| [a, b]).collect())
    }

    /// The per-bit decoder [`MarkSpareCodec::decode_block`] replaced.
    fn decode_block_reference(
        c: &MarkSpareCodec,
        trits: &[Trit],
        len_bits: usize,
    ) -> Result<BitVec, MarkSpareError> {
        let pairs: Vec<(Trit, Trit)> = trits.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        let values = c.decode_pairs(&pairs)?;
        let mut out = BitVec::zeros(len_bits);
        for (p, &v) in values.iter().enumerate() {
            for b in 0..3 {
                let idx = p * 3 + b;
                if idx < len_bits && v >> b & 1 == 1 {
                    out.set(idx, true);
                }
            }
        }
        Ok(out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn word_packed_block_codec_matches_per_bit(
            bools in vec(any::<bool>(), 0..=513),
            failed in btree_set(0usize..177, 0..=7),
            corrupt in vec((0usize..354, 0usize..3), 0..=8),
            len_bits in 0usize..=600,
        ) {
            // 0..=7 failed pairs (7 must fail on both paths), then random
            // cell corruptions (extra INV pairs, changed values) before
            // decoding at lengths short of, equal to and past 513 bits.
            let c = MarkSpareCodec::default();
            let data = BitVec::from_bools(&bools);
            let failed: Vec<usize> = failed.into_iter().collect();
            let encoded = c.encode_block(&data, &failed);
            prop_assert_eq!(&encoded, &encode_block_reference(&c, &data, &failed));
            if let Ok(mut trits) = encoded {
                prop_assert_eq!(
                    c.decode_block(&trits, data.len()),
                    decode_block_reference(&c, &trits, data.len())
                );
                for (cell, digit) in corrupt {
                    trits[cell] = Trit::from_index(digit);
                }
                prop_assert_eq!(
                    c.decode_block(&trits, len_bits),
                    decode_block_reference(&c, &trits, len_bits)
                );
            }
        }
    }

    fn values(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 8) as u8
            })
            .collect()
    }

    #[test]
    fn paper_geometry() {
        let c = MarkSpareCodec::default();
        assert_eq!(c.total_cells(), 354, "342 data + 12 spare cells");
        assert_eq!(MarkSpareCodec::cells_per_failure(), 2);
    }

    #[test]
    fn no_failures_roundtrip() {
        let c = MarkSpareCodec::default();
        let vals = values(DATA_PAIRS, 1);
        let pairs = c.encode_pairs(&vals, &[]).unwrap();
        assert_eq!(c.decode_pairs(&pairs).unwrap(), vals);
    }

    #[test]
    fn figure10_example() {
        // Figure 10: 8 data cells (4 pairs) with 4 spare cells (2 pairs);
        // one failure marked INV, data shifts into the first spare.
        let c = MarkSpareCodec::new(4, 2);
        let vals = vec![1u8, 2, 3, 4];
        let pairs = c.encode_pairs(&vals, &[1]).unwrap();
        assert_eq!(decode_pair(pairs[1].0, pairs[1].1), PairValue::Inv);
        // Data 2..4 shifted right by one physical slot; spare 0 in use.
        assert_eq!(decode_pair(pairs[4].0, pairs[4].1), PairValue::Data(4));
        assert_eq!(c.decode_pairs(&pairs).unwrap(), vals);
    }

    #[test]
    fn tolerates_exactly_spare_pairs_failures() {
        let c = MarkSpareCodec::default();
        let vals = values(DATA_PAIRS, 2);
        // Six failures across the block, including a spare-slot failure.
        let failed = [0usize, 42, 99, 140, 170, 173];
        let pairs = c.encode_pairs(&vals, &failed).unwrap();
        assert_eq!(c.decode_pairs(&pairs).unwrap(), vals);
        // Seven must fail.
        let failed7 = [0usize, 42, 99, 140, 170, 173, 176];
        assert_eq!(
            c.encode_pairs(&vals, &failed7),
            Err(MarkSpareError::TooManyFailures {
                marked: 7,
                spares: 6
            })
        );
    }

    #[test]
    fn staged_datapath_matches_reference() {
        // The Figure-12 MUX cascade must agree with the skip-scan on every
        // failure placement pattern we can throw at it.
        let c = MarkSpareCodec::new(12, 3);
        let vals = values(12, 3);
        let patterns: [&[usize]; 7] = [
            &[],
            &[0],
            &[14],         // a spare slot itself fails
            &[0, 1, 2],    // clustered at the front
            &[12, 13, 14], // all spares dead
            &[3, 7, 11],
            &[0, 7, 14],
        ];
        for failed in patterns {
            let pairs = c.encode_pairs(&vals, failed).unwrap();
            assert_eq!(
                c.decode_pairs_staged(&pairs).unwrap(),
                c.decode_pairs(&pairs).unwrap(),
                "pattern {failed:?}"
            );
        }
    }

    #[test]
    fn staged_datapath_full_block() {
        let c = MarkSpareCodec::default();
        let vals = values(DATA_PAIRS, 7);
        let failed = [5usize, 50, 100, 150, 171, 176];
        let pairs = c.encode_pairs(&vals, &failed).unwrap();
        assert_eq!(c.decode_pairs_staged(&pairs).unwrap(), vals);
    }

    #[test]
    fn block_bits_roundtrip_with_failures() {
        let c = MarkSpareCodec::default();
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 201 + 3) as u8).collect();
        let data = BitVec::from_bytes(&bytes, 512);
        let trits = c.encode_block(&data, &[10, 20, 30]).unwrap();
        assert_eq!(trits.len(), 354);
        assert_eq!(c.decode_block(&trits, 512).unwrap(), data);
    }

    #[test]
    fn too_many_failures_at_decode_detected() {
        // A block whose pairs drifted/were corrupted into 7 INVs (more
        // than spares) must fail loudly at decode.
        let c = MarkSpareCodec::new(4, 2);
        let vals = vec![7u8, 6, 5, 4];
        let mut pairs = c.encode_pairs(&vals, &[]).unwrap();
        pairs[0] = inv_pair();
        pairs[1] = inv_pair();
        pairs[2] = inv_pair();
        assert!(c.decode_pairs(&pairs).is_err());
        assert!(c.decode_pairs_staged(&pairs).is_err());
    }
}
