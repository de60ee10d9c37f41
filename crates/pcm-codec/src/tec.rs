//! Transient-error-correction (TEC) bit mapping for the 3LC design (§6.3).
//!
//! The 3-ON-2 data mapping cannot represent the INV state in its three-bit
//! output, so an ECC built over decoded data bits could never correct a
//! drift error that turns a valid pair into `[S4, S4]`. The paper therefore
//! re-interprets each cell as *two bits* for ECC purposes only —
//! S1 → 00, S2 → 01, S4 → 11 — under which any single drift error is a
//! single bit error, INV included.
//!
//! The ECC message covers all 354 cells of a block (342 data + 12 spare,
//! §6.3) giving 708 bits, protected by BCH-1 (10 check bits stored in SLC
//! mode so the check bits themselves cannot drift).

use crate::ternary::Trit;
use pcm_ecc::bch::{Bch, BchError};
use pcm_ecc::bitvec::BitVec;

/// Cells covered by the TEC codeword: 342 data + 12 spare (§6.3).
pub const TEC_CELLS: usize = 354;

/// TEC message length in bits (2 bits per covered cell).
pub const TEC_MESSAGE_BITS: usize = 2 * TEC_CELLS;

/// Check bits of the paper's BCH-1 over the 708-bit message.
pub const TEC_CHECK_BITS: usize = 10;

/// Trits per packed `u64` word (two TEC bits each).
const TRITS_PER_WORD: usize = 32;

/// Even-position bits of a word: the low TEC bit of each of its 32 cells.
const LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// Map a trit slice to its TEC bit representation (2 bits per trit,
/// low bit first), 32 trits per word.
pub fn trits_to_bits(trits: &[Trit]) -> BitVec {
    let words = trits
        .chunks(TRITS_PER_WORD)
        .map(|chunk| {
            chunk.iter().enumerate().fold(0u64, |w, (k, t)| {
                // `(low, high)` as the 2-bit value low + 2·high: 0, 1 or 3.
                let code = match t {
                    Trit::S1 => 0,
                    Trit::S2 => 1,
                    Trit::S4 => 3,
                };
                w | code << (2 * k)
            })
        })
        .collect();
    BitVec::from_words(words, trits.len() * 2)
}

/// Map TEC bits back to trits. Returns the positions of `01`-pattern cells
/// (low=0, high=1), which encode no state; any such cell is forced to S2
/// (the pattern's nearest valid neighbors are S1 and S4 — one bit each —
/// so any choice is one bit from truth; S2 is the middle ground). With a
/// correctly functioning ECC ahead of this step the list is empty.
pub fn bits_to_trits(bits: &BitVec) -> (Vec<Trit>, Vec<usize>) {
    // pcm-lint: allow(no-panic-lib) — decode contract: TEC codewords are bit pairs; an odd length is an upstream framing bug
    assert!(bits.len().is_multiple_of(2));
    // Indexed by the 2-bit value low + 2·high; the `01` pattern (2) reads S2.
    const BY_CODE: [Trit; 4] = [Trit::S1, Trit::S2, Trit::S2, Trit::S4];
    let n = bits.len() / 2;
    let mut out = Vec::with_capacity(n);
    let mut bad = Vec::new();
    for (wi, &w) in bits.as_words().iter().enumerate() {
        let cells = (n - wi * TRITS_PER_WORD).min(TRITS_PER_WORD);
        out.extend((0..cells).map(|k| BY_CODE[(w >> (2 * k) & 3) as usize]));
        // A low bit of 0 under a high bit of 1 marks a `01` cell.
        let mut flagged = !w & (w >> 1) & LOW_BITS;
        while flagged != 0 {
            bad.push(wi * TRITS_PER_WORD + flagged.trailing_zeros() as usize / 2);
            flagged &= flagged - 1;
        }
    }
    (out, bad)
}

/// The transient-error corrector for a 3LC block: BCH-1 over the TEC bits.
#[derive(Debug, Clone)]
pub struct TecCodec {
    bch: Bch,
}

/// Result of a TEC decode pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TecOutcome {
    /// Corrected trits (same length as the input).
    pub trits: Vec<Trit>,
    /// Number of bit corrections applied by the ECC.
    pub corrected_bits: usize,
}

impl Default for TecCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl TecCodec {
    /// Build the paper's BCH-1 TEC codec (GF(2^10), 10 check bits).
    pub fn new() -> Self {
        let bch = Bch::new(10, 1);
        debug_assert_eq!(bch.parity_bits(), TEC_CHECK_BITS);
        Self { bch }
    }

    /// Build a stronger variant (used by ablation benches).
    pub fn with_strength(t: usize) -> Self {
        Self {
            bch: Bch::new(10, t),
        }
    }

    /// Check bits added per block.
    pub fn check_bits(&self) -> usize {
        self.bch.parity_bits()
    }

    /// Compute the SLC-stored check bits for a cell block.
    pub fn encode(&self, trits: &[Trit]) -> BitVec {
        self.bch.encode(&trits_to_bits(trits))
    }

    /// Correct drift errors in sensed trits given the stored check bits.
    /// Check-bit cells are SLC and drift-immune, but the decoder still
    /// corrects them if flipped by other faults.
    pub fn decode(&self, sensed: &[Trit], check: &BitVec) -> Result<TecOutcome, BchError> {
        let mut bits = trits_to_bits(sensed);
        let mut parity = check.clone();
        let corrected_bits = self.bch.decode(&mut bits, &mut parity)?;
        if corrected_bits == 0 {
            // Untouched bits map back to exactly the sensed trits.
            return Ok(TecOutcome {
                trits: sensed.to_vec(),
                corrected_bits,
            });
        }
        let (trits, bad) = bits_to_trits(&bits);
        if !bad.is_empty() {
            // The corrected word decodes to a non-state pattern: the error
            // pattern exceeded the code. Surface it as uncorrectable
            // rather than silently passing garbage downstream.
            return Err(BchError::Uncorrectable);
        }
        Ok(TecOutcome {
            trits,
            corrected_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::three_on_two;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The per-bit mapping [`trits_to_bits`] replaced: the oracle.
    fn trits_to_bits_reference(trits: &[Trit]) -> BitVec {
        let mut v = BitVec::zeros(trits.len() * 2);
        for (i, t) in trits.iter().enumerate() {
            let (low, high) = t.tec_bits();
            if low {
                v.set(2 * i, true);
            }
            if high {
                v.set(2 * i + 1, true);
            }
        }
        v
    }

    /// The per-bit mapping [`bits_to_trits`] replaced: the oracle.
    fn bits_to_trits_reference(bits: &BitVec) -> (Vec<Trit>, Vec<usize>) {
        let n = bits.len() / 2;
        let mut out = Vec::with_capacity(n);
        let mut bad = Vec::new();
        for i in 0..n {
            match Trit::from_tec_bits(bits.get(2 * i), bits.get(2 * i + 1)) {
                Some(t) => out.push(t),
                None => {
                    bad.push(i);
                    out.push(Trit::S2);
                }
            }
        }
        (out, bad)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn packed_trits_to_bits_matches_per_bit(digits in vec(0usize..3, 0..=400)) {
            let trits: Vec<Trit> = digits.into_iter().map(Trit::from_index).collect();
            prop_assert_eq!(trits_to_bits(&trits), trits_to_bits_reference(&trits));
        }

        #[test]
        fn packed_bits_to_trits_matches_per_bit(
            pairs in vec(0u8..4, 0..=400),
            sparse_bad in any::<bool>(),
        ) {
            // Every 2-bit pattern, `01` included; half the cases keep
            // `01` rare so the clean and the flagged paths both run.
            let bools: Vec<bool> = pairs
                .iter()
                .enumerate()
                .flat_map(|(i, &c)| {
                    let c = if sparse_bad && c == 2 && i % 17 != 0 { 3 } else { c };
                    [c & 1 == 1, c & 2 == 2]
                })
                .collect();
            let bits = BitVec::from_bools(&bools);
            prop_assert_eq!(bits_to_trits(&bits), bits_to_trits_reference(&bits));
        }
    }

    fn sample_trits(n: usize, seed: u64) -> Vec<Trit> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Trit::from_index((x % 3) as usize)
            })
            .collect()
    }

    #[test]
    fn bit_mapping_roundtrip() {
        let trits = sample_trits(354, 3);
        let bits = trits_to_bits(&trits);
        assert_eq!(bits.len(), TEC_MESSAGE_BITS);
        let (back, bad) = bits_to_trits(&bits);
        assert_eq!(back, trits);
        assert!(bad.is_empty());
    }

    #[test]
    fn paper_dimensions() {
        let codec = TecCodec::new();
        // §6.3: message length 708 bits, 10 check bits.
        assert_eq!(TEC_MESSAGE_BITS, 708);
        assert_eq!(codec.check_bits(), 10);
    }

    #[test]
    fn clean_decode_is_identity() {
        let codec = TecCodec::new();
        let trits = sample_trits(TEC_CELLS, 5);
        let check = codec.encode(&trits);
        let out = codec.decode(&trits, &check).unwrap();
        assert_eq!(out.trits, trits);
        assert_eq!(out.corrected_bits, 0);
    }

    #[test]
    fn corrects_single_drift_error_anywhere() {
        let codec = TecCodec::new();
        let trits = sample_trits(TEC_CELLS, 7);
        let check = codec.encode(&trits);
        for i in (0..TEC_CELLS).step_by(23) {
            if let Some(next) = trits[i].drift_successor() {
                let mut drifted = trits.clone();
                drifted[i] = next;
                let out = codec.decode(&drifted, &check).unwrap();
                assert_eq!(out.trits, trits, "cell {i}");
                assert_eq!(out.corrected_bits, 1);
            }
        }
    }

    #[test]
    fn corrects_drift_into_inv_state() {
        // The whole point of the TEC re-encoding (§6.3): a valid pair
        // drifting into [S4, S4] must be correctable.
        let codec = TecCodec::new();
        let data = pcm_ecc::bitvec::BitVec::from_bytes(&[0x5A; 64], 512);
        let mut trits = three_on_two::encode_block(&data);
        trits.resize(TEC_CELLS, Trit::S1); // spares at S1
        let check = codec.encode(&trits);

        // Find a pair [x, S4] and drift x → S4, creating INV.
        let pair = (0..three_on_two::BLOCK_DATA_PAIRS)
            .find(|&p| trits[2 * p] == Trit::S2 && trits[2 * p + 1] == Trit::S4)
            .expect("patterned data has an S2,S4 pair");
        let mut sensed = trits.clone();
        sensed[2 * pair] = Trit::S4;
        assert_eq!(
            three_on_two::decode_pair(sensed[2 * pair], sensed[2 * pair + 1]),
            three_on_two::PairValue::Inv,
            "setup: the drifted pair must read INV"
        );
        let out = codec.decode(&sensed, &check).unwrap();
        assert_eq!(out.trits, trits, "INV restored to the written pair");
    }

    #[test]
    fn two_errors_detected_not_miscorrected() {
        let codec = TecCodec::new();
        let trits = sample_trits(TEC_CELLS, 11);
        let check = codec.encode(&trits);
        let mut sensed = trits.clone();
        let mut flipped = 0;
        for cell in sensed.iter_mut() {
            if flipped < 2 {
                if let Some(n) = cell.drift_successor() {
                    *cell = n;
                    flipped += 1;
                }
            }
        }
        assert_eq!(flipped, 2);
        // BCH-1 against 2 errors: either clean failure or (for S2→S4 = one
        // specific 1-bit-per-cell pattern) possibly a miscorrection the
        // residual check catches. Never a silent wrong answer equal to
        // neither truth nor detected failure with corrected_bits == 1.
        match codec.decode(&sensed, &check) {
            Err(BchError::Uncorrectable) => {}
            Ok(out) => assert_ne!(out.trits, trits, "cannot claim full correction of 2 errors"),
        }
    }

    #[test]
    fn stronger_variant_corrects_more() {
        let codec = TecCodec::with_strength(3);
        let trits = sample_trits(TEC_CELLS, 13);
        let check = codec.encode(&trits);
        let mut sensed = trits.clone();
        let mut flipped = 0;
        for i in (0..TEC_CELLS).step_by(50) {
            if flipped < 3 {
                if let Some(n) = sensed[i].drift_successor() {
                    sensed[i] = n;
                    flipped += 1;
                }
            }
        }
        let out = codec.decode(&sensed, &check).unwrap();
        assert_eq!(out.trits, trits);
    }
}
