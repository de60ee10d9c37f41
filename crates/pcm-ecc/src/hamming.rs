//! Hamming / Hsiao-style single-error-correcting codes.
//!
//! §6.3 notes the 3LC transient-error code can equivalently be "a
//! Hamming \[13\] or a Hsiao \[15\] code": any SEC code with ≥10 check bits
//! over a 708-bit message. This module provides the classical Hamming SEC
//! and SEC-DED (extended) codes as a light-weight alternative to
//! `Bch::new(m, 1)`, with O(n) encode and O(1)-ish decode (syndrome is the
//! error position directly), which is why the paper's Table 3 decode
//! latency for the 3LC design is so small.

use crate::bitvec::BitVec;

/// Outcome of a SEC-DED decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HammingOutcome {
    /// Codeword clean.
    NoError,
    /// One error corrected (bit index within the *data* block, or in a
    /// check bit — check-bit corrections don't touch data).
    Corrected,
    /// Double error detected (SEC-DED only); data not modified.
    DoubleError,
}

/// A Hamming SEC(-DED) code for a fixed data length.
#[derive(Debug, Clone)]
pub struct Hamming {
    data_bits: usize,
    check_bits: usize,
    extended: bool,
}

impl Hamming {
    /// SEC code for `data_bits` of payload.
    pub fn new(data_bits: usize) -> Self {
        Self::build(data_bits, false)
    }

    /// SEC-DED (extended Hamming) code for `data_bits` of payload.
    pub fn new_secded(data_bits: usize) -> Self {
        Self::build(data_bits, true)
    }

    fn build(data_bits: usize, extended: bool) -> Self {
        // pcm-lint: allow(no-panic-lib) — constructor contract: a code needs at least one data bit
        assert!(data_bits >= 1);
        // Smallest r with 2^r >= data_bits + r + 1.
        let mut r = 2usize;
        while (1usize << r) < data_bits + r + 1 {
            r += 1;
        }
        Self {
            data_bits,
            check_bits: r + usize::from(extended),
            extended,
        }
    }

    /// Payload length in bits.
    pub fn data_bits(&self) -> usize {
        self.data_bits
    }

    /// Check-bit count (includes the overall parity bit for SEC-DED).
    pub fn check_bits(&self) -> usize {
        self.check_bits
    }

    /// Position-encode: data bit `i` occupies Hamming position `pos` where
    /// `pos` is the (i+1)-th non-power-of-two position (1-based).
    fn data_position(&self, i: usize) -> usize {
        // Iterate positions skipping powers of two. Closed form would need
        // care; lengths here are ≤ ~1k so a scan is fine and obvious.
        let mut pos = 0usize;
        let mut seen = 0usize;
        loop {
            pos += 1;
            if pos & (pos - 1) == 0 {
                continue; // power of two: check position
            }
            if seen == i {
                return pos;
            }
            seen += 1;
        }
    }

    /// Compute check bits for `data`.
    pub fn encode(&self, data: &BitVec) -> BitVec {
        // pcm-lint: allow(no-panic-lib) — shape contract: data buffers are sized by this code's geometry
        assert_eq!(data.len(), self.data_bits);
        let r = self.check_bits - usize::from(self.extended);
        let mut checks = BitVec::zeros(self.check_bits);
        let mut syndrome = 0usize;
        let mut total_parity = false;
        for i in data.ones() {
            let pos = self.data_position(i);
            syndrome ^= pos;
            total_parity ^= true;
        }
        for j in 0..r {
            let bit = syndrome >> j & 1 == 1;
            checks.set(j, bit);
            if bit {
                total_parity ^= true;
            }
        }
        if self.extended {
            checks.set(r, total_parity);
        }
        checks
    }

    /// Decode in place. Corrects a single error anywhere in data or check
    /// bits; with SEC-DED, flags (without modifying) double errors.
    pub fn decode(&self, data: &mut BitVec, checks: &mut BitVec) -> HammingOutcome {
        // pcm-lint: allow(no-panic-lib) — shape contract: buffers are sized by this code's geometry
        assert!(data.len() == self.data_bits && checks.len() == self.check_bits);
        let r = self.check_bits - usize::from(self.extended);

        let mut syndrome = 0usize;
        let mut parity = false;
        for i in data.ones() {
            syndrome ^= self.data_position(i);
            parity ^= true;
        }
        for j in 0..r {
            if checks.get(j) {
                syndrome ^= 1 << j;
                parity ^= true;
            }
        }
        if self.extended {
            parity ^= checks.get(r);
        }

        if syndrome == 0 {
            if self.extended && parity {
                // Error in the overall parity bit itself.
                checks.toggle(r);
                return HammingOutcome::Corrected;
            }
            return HammingOutcome::NoError;
        }
        if self.extended && !parity {
            return HammingOutcome::DoubleError;
        }
        // Single error at Hamming position `syndrome`.
        if syndrome & (syndrome - 1) == 0 {
            // A check position.
            let j = syndrome.trailing_zeros() as usize;
            if j < r {
                checks.toggle(j);
            }
            return HammingOutcome::Corrected;
        }
        // A data position: invert position mapping by scanning.
        let mut seen = 0usize;
        for pos in 1..=syndrome {
            if pos & (pos - 1) == 0 {
                continue;
            }
            if pos == syndrome {
                data.toggle(seen);
                return HammingOutcome::Corrected;
            }
            seen += 1;
        }
        // Syndrome points past the shortened code's range: uncorrectable;
        // report as double error (caller treats it as detected failure).
        HammingOutcome::DoubleError
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_bit_count_matches_theory() {
        // 708 data bits need r = 10 (2^10 = 1024 ≥ 708 + 10 + 1) — the
        // paper's "additional 10 check bits over a 64B block" (§6.3).
        assert_eq!(Hamming::new(708).check_bits(), 10);
        assert_eq!(Hamming::new_secded(708).check_bits(), 11);
        assert_eq!(Hamming::new(4).check_bits(), 3); // classic (7,4)
        assert_eq!(Hamming::new(11).check_bits(), 4); // (15,11)
    }

    #[test]
    fn roundtrip_clean() {
        let h = Hamming::new(708);
        let mut data = BitVec::zeros(708);
        for i in (0..708).step_by(3) {
            data.set(i, true);
        }
        let mut checks = h.encode(&data);
        let orig = data.clone();
        assert_eq!(h.decode(&mut data, &mut checks), HammingOutcome::NoError);
        assert_eq!(data, orig);
    }

    #[test]
    fn corrects_any_single_data_error() {
        let h = Hamming::new(64);
        let mut data = BitVec::zeros(64);
        for i in [1usize, 5, 8, 40, 63] {
            data.set(i, true);
        }
        let checks = h.encode(&data);
        for flip in 0..64 {
            let mut d = data.clone();
            let mut c = checks.clone();
            d.toggle(flip);
            assert_eq!(
                h.decode(&mut d, &mut c),
                HammingOutcome::Corrected,
                "flip {flip}"
            );
            assert_eq!(d, data, "flip {flip}");
        }
    }

    #[test]
    fn corrects_any_single_check_error() {
        let h = Hamming::new(64);
        let data = BitVec::from_bools(&[true; 64]);
        let checks = h.encode(&data);
        for flip in 0..h.check_bits() {
            let mut d = data.clone();
            let mut c = checks.clone();
            c.toggle(flip);
            assert_eq!(
                h.decode(&mut d, &mut c),
                HammingOutcome::Corrected,
                "flip {flip}"
            );
            assert_eq!(d, data);
        }
    }

    #[test]
    fn secded_flags_double_errors() {
        let h = Hamming::new_secded(128);
        let mut data = BitVec::zeros(128);
        data.set(7, true);
        data.set(100, true);
        let checks = h.encode(&data);
        let mut detected = 0;
        for (a, b) in [(0usize, 1usize), (5, 90), (30, 31), (0, 127)] {
            let mut d = data.clone();
            let mut c = checks.clone();
            d.toggle(a);
            d.toggle(b);
            if h.decode(&mut d, &mut c) == HammingOutcome::DoubleError {
                assert_eq!(d.get(a), !data.get(a), "data untouched on detect");
                detected += 1;
            }
        }
        assert_eq!(detected, 4, "SEC-DED must flag all double errors");
    }

    #[test]
    fn secded_corrects_overall_parity_bit() {
        let h = Hamming::new_secded(32);
        let data = BitVec::from_bools(&[true; 32]);
        let mut checks = h.encode(&data);
        let mut d = data.clone();
        checks.toggle(h.check_bits() - 1); // the overall parity bit
        assert_eq!(h.decode(&mut d, &mut checks), HammingOutcome::Corrected);
        assert_eq!(h.decode(&mut d, &mut checks), HammingOutcome::NoError);
    }

    #[test]
    fn agrees_with_bch1_capability() {
        // Hamming(708) and BCH(m=10, t=1) have identical rate and single-
        // error capability — the paper treats them interchangeably (§6.3).
        let h = Hamming::new(708);
        let b = crate::bch::Bch::new(10, 1);
        assert_eq!(h.check_bits(), b.parity_bits());
    }
}
