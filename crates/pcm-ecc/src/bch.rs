//! Binary BCH codes: construction, systematic encoding, and full hard-
//! decision decoding (syndromes → Berlekamp–Massey → Chien search).
//!
//! The paper uses BCH-n as its transient-error code (§3, §6.3, §6.6):
//! BCH-10 over the 512-bit 4LC block and BCH-1 (Hamming-equivalent) over
//! the 708-bit 3LC codeword. Codes here are *shortened* systematic BCH over
//! GF(2^m): any message length up to `n − parity_bits` is supported by
//! treating the high-order data coefficients as zero.
//!
//! Codeword layout (coefficient exponents of the code polynomial):
//! parity bit `j` ↔ x^j, data bit `i` ↔ x^(parity_bits + i).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::bitvec::BitVec;
use crate::gf::GfTables;
use crate::poly::{BinPoly, GfPoly};
use crate::sliced::{self, SlicedBatch, LANES};

/// Decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BchError {
    /// More errors than the code can correct (detected, not miscorrected).
    Uncorrectable,
}

impl std::fmt::Display for BchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "uncorrectable error pattern")
    }
}

impl std::error::Error for BchError {}

/// Per-code immutable tables: the field, the generator polynomial, and
/// the constant-multiplication bit matrices used by the sliced kernels.
/// Built once per `(m, t)` and shared process-wide through [`Bch::new`].
#[derive(Debug)]
struct BchTables {
    gf: Arc<GfTables>,
    t: usize,
    n: usize,
    parity_bits: usize,
    generator: BinPoly,
    /// Chien step matrices: `chien_cols[(k−1)·m + j]` = `α^(n−k) · α^j`,
    /// the image of basis bit `j` under multiplication by `α^(n−k)`
    /// (register k's per-position advance), for k = 1..=t.
    chien_cols: Vec<u32>,
    /// Frobenius matrix: `sq_cols[b]` = `(α^b)²`, the image of basis bit
    /// `b` under squaring (derives even syndromes from odd ones).
    sq_cols: Vec<u32>,
    /// Residue table: entry `i` (`residue_words` words, bit `j` ↔ x^j) is
    /// `x^(parity_bits + i) mod g(x)`, the parity image of data bit `i`
    /// alone, for every data position `i < n − parity_bits`. Division by
    /// g is linear over GF(2), so the parity of any message is the XOR of
    /// the entries of its set bits.
    residues: Vec<u64>,
    /// Words per residue entry: `parity_bits.div_ceil(64)`.
    residue_words: usize,
}

/// A t-error-correcting binary BCH code over GF(2^m).
///
/// Cheap to construct and clone: the heavy tables live in a process-wide
/// registry keyed by `(m, t)` and are shared across all instances.
#[derive(Debug, Clone)]
pub struct Bch {
    tables: Arc<BchTables>,
}

impl BchTables {
    /// Construct the code tables with designed distance 2t+1 over GF(2^m).
    fn build(m: u32, t: usize) -> Self {
        // pcm-lint: allow(no-panic-lib) — constructor contract: (m, t) are design-table constants; device configs are pre-validated by the builder
        assert!(t >= 1, "BCH needs t >= 1");
        let gf = GfTables::shared(m);
        let n = gf.order() as usize;
        // pcm-lint: allow(no-panic-lib) — constructor contract: (m, t) are design-table constants; device configs are pre-validated by the builder
        assert!(2 * t < n, "t = {t} too large for n = {n}");

        // Generator = lcm of minimal polynomials of α^1, α^3, …, α^(2t−1).
        // Each minimal polynomial is the product over a cyclotomic coset;
        // distinct cosets multiply into g(x).
        let mut covered = vec![false; n];
        let mut generator = BinPoly::one();
        for root in 1..=2 * t {
            if covered[root % n] {
                continue;
            }
            // Cyclotomic coset of `root` under doubling mod n.
            let mut coset = Vec::new();
            let mut e = root % n;
            loop {
                if covered[e] {
                    break;
                }
                covered[e] = true;
                coset.push(e);
                e = (e * 2) % n;
                if e == root % n {
                    break;
                }
            }
            if coset.is_empty() {
                continue;
            }
            let mut minpoly = GfPoly::one();
            for &e in &coset {
                minpoly = minpoly.mul_linear(gf.alpha_pow(e as u64), &gf);
            }
            debug_assert!(
                minpoly.coeffs.iter().all(|&c| c <= 1),
                "minimal polynomial must have GF(2) coefficients"
            );
            let bits: Vec<bool> = minpoly.coeffs.iter().map(|&c| c == 1).collect();
            generator = generator.mul(&BinPoly::from_bits(&bits));
        }

        let parity_bits = generator.degree();
        let chien_cols: Vec<u32> = (1..=t)
            .flat_map(|k| {
                let c = gf.alpha_pow((n - k) as u64);
                (0..m as u64).map(move |j| (c, j))
            })
            .map(|(c, j)| gf.mul(c, gf.alpha_pow(j)))
            .collect();
        let sq_cols: Vec<u32> = (0..m as u64)
            .map(|b| {
                let a = gf.alpha_pow(b);
                gf.mul(a, a)
            })
            .collect();
        let residue_words = parity_bits.div_ceil(64);
        let residues = residue_table(&generator, parity_bits, n - parity_bits);
        Self {
            gf,
            t,
            n,
            parity_bits,
            generator,
            chien_cols,
            sq_cols,
            residues,
            residue_words,
        }
    }

    /// XOR of the residue entries of `data`'s set bits:
    /// `(x^p · d(x)) mod g(x)` as `residue_words` words. One pass over the
    /// set bits per word of the result keeps its accumulator in a register.
    fn residue(&self, data: &BitVec) -> Vec<u64> {
        let w = self.residue_words;
        (0..w)
            .map(|c| {
                let mut acc = 0u64;
                for (wi, &word) in data.as_words().iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let i = wi * 64 + bits.trailing_zeros() as usize;
                        acc ^= self.residues[i * w + c];
                        bits &= bits - 1;
                    }
                }
                acc
            })
            .collect()
    }
}

/// `x^(p + i) mod g(x)` for `i` in `0..k`, `p = deg g`, packed
/// `p.div_ceil(64)` words per entry. Each entry is the previous one times
/// x, reduced by adding g's low part whenever the x^p term appears.
fn residue_table(generator: &BinPoly, p: usize, k: usize) -> Vec<u64> {
    let w = p.div_ceil(64);
    let mut g_low = vec![0u64; w];
    for j in (0..p).filter(|&j| generator.coeff(j)) {
        g_low[j / 64] |= 1 << (j % 64);
    }
    let mut table = Vec::with_capacity(k * w);
    // x^p ≡ g(x) − x^p (mod g): the low part of the monic generator.
    let mut r = g_low.clone();
    for _ in 0..k {
        table.extend_from_slice(&r);
        // r ← x · r mod g: shift the p-bit value up one place; the x^p
        // term this pushes out is replaced by g's low part.
        let overflow = r[w - 1] >> ((p - 1) % 64) & 1 == 1;
        let mut carry = 0u64;
        for word in r.iter_mut() {
            let next = *word >> 63;
            *word = *word << 1 | carry;
            carry = next;
        }
        if !p.is_multiple_of(64) {
            r[w - 1] &= (1u64 << (p % 64)) - 1;
        }
        if overflow {
            for (a, b) in r.iter_mut().zip(&g_low) {
                *a ^= b;
            }
        }
    }
    table
}

/// The process-wide BCH-table registry: the declared lock wrapper for
/// the `bch-registry` class. Building a missing `(m, t)` entry
/// populates the GF registry while this lock is held, which is the
/// `bch-registry → gf-registry` edge of the declared workspace lock
/// order (DESIGN.md §15); the guard never escapes this function.
fn bch_registry(m: u32, t: usize) -> Arc<BchTables> {
    type Registry = OnceLock<Mutex<BTreeMap<(u32, usize), Arc<BchTables>>>>;
    static REGISTRY: Registry = OnceLock::new();
    let map = REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = map
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    map.entry((m, t))
        .or_insert_with(|| Arc::new(BchTables::build(m, t)))
        .clone()
}

impl Bch {
    /// Construct the BCH code with designed distance 2t+1 over GF(2^m).
    ///
    /// The generator polynomial and the GF log/antilog tables are built at
    /// most once per `(m, t)` pair; later calls (and clones) share them.
    pub fn new(m: u32, t: usize) -> Self {
        Self {
            tables: bch_registry(m, t),
        }
    }

    /// Designed correction capability t.
    pub fn t(&self) -> usize {
        self.tables.t
    }

    /// Natural (unshortened) code length 2^m − 1.
    pub fn n(&self) -> usize {
        self.tables.n
    }

    /// Number of parity bits (degree of the generator polynomial; m·t when
    /// every designated coset has full size, e.g. 100 for BCH-10 / m=10).
    pub fn parity_bits(&self) -> usize {
        self.tables.parity_bits
    }

    /// Longest supported message, in bits.
    pub fn max_data_bits(&self) -> usize {
        self.tables.n - self.tables.parity_bits
    }

    /// The generator polynomial (structural tests).
    #[cfg(test)]
    pub(crate) fn generator(&self) -> &BinPoly {
        &self.tables.generator
    }

    /// Systematically encode `data`, returning the parity block
    /// (`parity_bits` bits): `(x^p · d(x)) mod g(x)`, as the XOR of the
    /// precomputed residues of `data`'s set bits.
    pub fn encode(&self, data: &BitVec) -> BitVec {
        self.check_message_len(data);
        BitVec::from_words(self.tables.residue(data), self.tables.parity_bits)
    }

    /// Polynomial long division of `x^p · d(x)` by `g(x)`: the encoder
    /// [`Bch::encode`] replaced, kept as its test and benchmark oracle.
    pub fn encode_reference(&self, data: &BitVec) -> BitVec {
        self.check_message_len(data);
        let pb = self.tables.parity_bits;
        let mut shifted = BinPoly::zero();
        for i in data.ones() {
            shifted.add_shifted(&BinPoly::one(), pb + i);
        }
        let r = shifted.rem(&self.tables.generator);
        let mut parity = BitVec::zeros(pb);
        for j in 0..pb {
            if r.coeff(j) {
                parity.set(j, true);
            }
        }
        parity
    }

    /// Both encode and decode accept messages of at most `k = n − p` bits:
    /// a longer one would wrap its high positions modulo n.
    fn check_message_len(&self, data: &BitVec) {
        // pcm-lint: allow(no-panic-lib) — codec contract: block layouts fix the message length at construction
        assert!(
            data.len() <= self.max_data_bits(),
            "message of {} bits exceeds k = {}",
            data.len(),
            self.max_data_bits()
        );
    }

    /// Decode in place: corrects up to t bit errors across `data` and
    /// `parity`. Returns the number of corrected bits, or
    /// [`BchError::Uncorrectable`] when the pattern exceeds the code's
    /// capability *and* this is detectable (the residual syndrome check
    /// catches every miscorrection attempt that leaves the codeword space).
    ///
    /// A clean read costs one residue: the received word is a codeword
    /// exactly when `(x^p · d(x) + r(x)) mod g(x)` is zero, which holds
    /// exactly when every syndrome is zero (g is the least common multiple
    /// of the minimal polynomials of α^1..α^2t).
    pub fn decode(&self, data: &mut BitVec, parity: &mut BitVec) -> Result<usize, BchError> {
        self.check_message_len(data);
        // pcm-lint: allow(no-panic-lib) — shape contract: parity buffers are sized by this code, see `parity_bits`
        assert_eq!(
            parity.len(),
            self.tables.parity_bits,
            "parity length mismatch"
        );
        let mut residue = self.tables.residue(data);
        for (r, p) in residue.iter_mut().zip(parity.as_words()) {
            *r ^= p;
        }
        if residue.iter().all(|&r| r == 0) {
            return Ok(0);
        }
        self.decode_syndromes(data, parity)
    }

    /// The syndrome decoder behind [`Bch::decode`]'s clean-read check:
    /// syndromes → Berlekamp–Massey → Chien search → residual check.
    fn decode_syndromes(&self, data: &mut BitVec, parity: &mut BitVec) -> Result<usize, BchError> {
        let used_len = self.tables.parity_bits + data.len();

        let syndromes = self.syndromes(data, parity);
        if syndromes.iter().all(|&s| s == 0) {
            return Ok(0);
        }

        let sigma = self.berlekamp_massey(&syndromes);
        let errors = sigma.degree();
        if errors == 0 || errors > self.tables.t {
            return Err(BchError::Uncorrectable);
        }

        // Chien search: position e (coefficient exponent) is erroneous iff
        // σ(α^(n−e)) = 0.
        let gf = &*self.tables.gf;
        let n = self.tables.n;
        let mut located = Vec::with_capacity(errors);
        for e in 0..n {
            let x = gf.alpha_pow((n - e) as u64);
            if sigma.eval(x, gf) == 0 {
                if e >= used_len {
                    // Error "located" in the shortened (always-zero) region:
                    // the true pattern exceeded t.
                    return Err(BchError::Uncorrectable);
                }
                located.push(e);
            }
        }
        if located.len() != errors {
            // σ does not split over the field: > t errors.
            return Err(BchError::Uncorrectable);
        }

        let pb = self.tables.parity_bits;
        for &e in &located {
            if e < pb {
                parity.toggle(e);
            } else {
                data.toggle(e - pb);
            }
        }

        // Residual check: a successful correction must land on a codeword.
        if self.syndromes(data, parity).iter().any(|&s| s != 0) {
            // Roll back and report.
            for &e in &located {
                if e < pb {
                    parity.toggle(e);
                } else {
                    data.toggle(e - pb);
                }
            }
            return Err(BchError::Uncorrectable);
        }
        Ok(located.len())
    }

    /// Decode a batch of codewords in place, bit-sliced 64 lanes at a time.
    ///
    /// Outcome-equivalent to calling [`Bch::decode`] on each
    /// `(data[i], parity[i])` pair: identical corrected bits and identical
    /// per-lane `Result`s (the scalar path is the tested oracle). All
    /// codewords in one call must share the same data length.
    ///
    /// Syndromes and Chien search run on position-major bit planes —
    /// one word-op covers 64 codewords — while Berlekamp–Massey (tiny,
    /// syndrome-only) stays scalar per lane that actually has errors.
    pub fn decode_batch(
        &self,
        data: &mut [BitVec],
        parity: &mut [BitVec],
    ) -> Vec<Result<usize, BchError>> {
        // pcm-lint: allow(no-panic-lib) — batch contract: one parity vector per data vector
        assert_eq!(data.len(), parity.len(), "data/parity batch mismatch");
        let mut out = Vec::with_capacity(data.len());
        for (d, p) in data.chunks_mut(LANES).zip(parity.chunks_mut(LANES)) {
            self.decode_chunk(d, p, &mut out);
        }
        out
    }

    /// Decode one ≤64-lane chunk, appending per-lane results to `out`.
    fn decode_chunk(
        &self,
        data: &mut [BitVec],
        parity: &mut [BitVec],
        out: &mut Vec<Result<usize, BchError>>,
    ) {
        let tb = &*self.tables;
        let gf = &*tb.gf;
        let m = gf.m() as usize;
        let lanes = data.len();
        let data_bits = data.first().map_or(0, BitVec::len);
        for (d, p) in data.iter().zip(parity.iter()) {
            // pcm-lint: allow(no-panic-lib) — batch contract: every lane has the first lane's data length and this code's parity length
            assert!(
                d.len() == data_bits && p.len() == tb.parity_bits,
                "lane length mismatch within batch"
            );
        }
        if let Some(d) = data.first() {
            self.check_message_len(d);
        }
        let used_len = tb.parity_bits + data_bits;

        // Transpose parity‖data codewords into position-major planes.
        let codewords: Vec<BitVec> = parity
            .iter()
            .zip(data.iter())
            .map(|(p, d)| p.concat(d))
            .collect();
        let mut batch = SlicedBatch::from_lanes(&codewords);

        let synd = sliced::syndromes_sliced(gf, tb.t, &tb.sq_cols, batch.planes(), used_len);

        // Lanes with any nonzero syndrome need locating; the rest are clean.
        let dirty: u64 = synd.iter().fold(0, |acc, &p| acc | p);
        let lane_mask = if lanes == 64 {
            !0u64
        } else {
            (1u64 << lanes) - 1
        };
        let mut results: Vec<Result<usize, BchError>> = vec![Ok(0); lanes];
        if dirty & lane_mask == 0 {
            out.extend_from_slice(&results);
            return;
        }

        // Berlekamp–Massey per dirty lane (scalar: the input is 2t field
        // elements, not the codeword). Lanes whose σ is degenerate fail
        // immediately and drop out of the Chien sweep.
        let mut sigmas: Vec<Option<GfPoly>> = vec![None; lanes];
        let mut alive = 0u64;
        let mut t_max = 0usize;
        for l in 0..lanes {
            if dirty >> l & 1 == 0 {
                continue;
            }
            let s = sliced::extract_lane_syndromes(&synd, m, 2 * tb.t, l);
            let sigma = self.berlekamp_massey(&s);
            let deg = sigma.degree();
            if deg == 0 || deg > tb.t {
                results[l] = Err(BchError::Uncorrectable);
            } else {
                t_max = t_max.max(deg);
                alive |= 1 << l;
                sigmas[l] = Some(sigma);
            }
        }

        // Sliced Chien sweep over the used positions. Register k holds
        // σ_k · α^(k(n−e)) for every lane as m bit planes; at each position
        // the locator value is the XOR of all registers, and a lane has a
        // root exactly where every plane of that sum is zero. Advancing a
        // register multiplies all its lanes by the constant α^(n−k) — a
        // precomputed m×m bit matrix (`chien_cols`). Positions ≥ used_len
        // are never swept: a lane that has not collected deg(σ) roots by
        // then is Uncorrectable whether its remaining roots lie in the
        // shortened region (scalar rejects them) or nowhere (count check).
        let mut terms = vec![0u64; (t_max + 1) * m];
        for (l, slot) in sigmas.iter().enumerate().take(lanes) {
            let Some(sigma) = slot else { continue };
            for (k, &c) in sigma.coeffs.iter().enumerate() {
                for b in 0..m {
                    if c >> b & 1 == 1 {
                        terms[k * m + b] |= 1 << l;
                    }
                }
            }
        }
        let mut located: Vec<Vec<usize>> = vec![Vec::new(); lanes];
        let mut scratch = [0u64; sliced::MAX_M];
        for e in 0..used_len {
            // Locator value = Σ_k term_k, per lane.
            let sum = &mut scratch[..m];
            sum.copy_from_slice(&terms[..m]);
            for k in 1..=t_max {
                for (b, s) in sum.iter_mut().enumerate() {
                    *s ^= terms[k * m + b];
                }
            }
            let nonzero = sum.iter().fold(0u64, |acc, &p| acc | p);
            let mut roots = !nonzero & alive;
            while roots != 0 {
                let l = roots.trailing_zeros() as usize;
                roots &= roots - 1;
                located[l].push(e);
                // σ has at most deg roots in the whole field: once a lane
                // has them all, nothing more can appear — retire it.
                if located[l].len() == sigmas[l].as_ref().map_or(0, GfPoly::degree) {
                    alive &= !(1u64 << l);
                }
            }
            if alive == 0 && e + 1 < used_len {
                break;
            }
            // Advance every register by its constant matrix.
            for k in 1..=t_max {
                let reg = &terms[k * m..(k + 1) * m];
                let cols = &tb.chien_cols[(k - 1) * m..k * m];
                let mut next = [0u64; sliced::MAX_M];
                for (j, &col) in cols.iter().enumerate() {
                    let p = reg[j];
                    if p != 0 {
                        let mut v = col;
                        while v != 0 {
                            let b = v.trailing_zeros() as usize;
                            next[b] ^= p;
                            v &= v - 1;
                        }
                    }
                }
                terms[k * m..(k + 1) * m].copy_from_slice(&next[..m]);
            }
        }

        // Apply corrections for lanes whose root count matches deg(σ).
        let mut corrected = 0u64;
        for l in 0..lanes {
            let Some(sigma) = &sigmas[l] else { continue };
            if located[l].len() != sigma.degree() {
                results[l] = Err(BchError::Uncorrectable);
                continue;
            }
            for &e in &located[l] {
                batch.toggle(e, l);
            }
            corrected |= 1 << l;
        }

        // Residual check over the whole chunk at once: every corrected
        // lane must now be a codeword; roll back the ones that are not.
        if corrected != 0 {
            let resid = sliced::syndromes_sliced(gf, tb.t, &tb.sq_cols, batch.planes(), used_len);
            let bad: u64 = resid.iter().fold(0, |acc, &p| acc | p) & corrected;
            let mut b = bad;
            while b != 0 {
                let l = b.trailing_zeros() as usize;
                b &= b - 1;
                for &e in &located[l] {
                    batch.toggle(e, l);
                }
                results[l] = Err(BchError::Uncorrectable);
                corrected &= !(1u64 << l);
            }
            // Slice corrected lanes back into the caller's buffers.
            let fixed = batch.to_lanes();
            let mut c = corrected;
            while c != 0 {
                let l = c.trailing_zeros() as usize;
                c &= c - 1;
                results[l] = Ok(located[l].len());
                parity[l].copy_range(0, &fixed[l], 0, tb.parity_bits);
                data[l].copy_range(0, &fixed[l], tb.parity_bits, data_bits);
            }
        }
        out.extend_from_slice(&results);
    }

    /// Syndromes S_1..S_2t of the received word.
    fn syndromes(&self, data: &BitVec, parity: &BitVec) -> Vec<u32> {
        let gf = &*self.tables.gf;
        let mut s = vec![0u32; 2 * self.tables.t];
        let mut accumulate = |e: usize| {
            for (j, sj) in s.iter_mut().enumerate() {
                *sj ^= gf.alpha_pow(((j + 1) * e) as u64);
            }
        };
        for j in parity.ones() {
            accumulate(j);
        }
        for i in data.ones() {
            accumulate(self.tables.parity_bits + i);
        }
        s
    }

    /// Berlekamp–Massey: smallest LFSR (error-locator polynomial σ)
    /// generating the syndrome sequence.
    fn berlekamp_massey(&self, s: &[u32]) -> GfPoly {
        let gf = &*self.tables.gf;
        let mut sigma = GfPoly::one();
        let mut prev = GfPoly::one();
        let mut l = 0usize;
        let mut m = 1usize;
        let mut b = 1u32;
        for i in 0..s.len() {
            // Discrepancy d = S_i + Σ_{j=1..L} σ_j · S_{i−j}.
            let mut d = s[i];
            for j in 1..=l.min(sigma.degree()) {
                if sigma.coeffs[j] != 0 && s[i - j] != 0 {
                    d ^= gf.mul(sigma.coeffs[j], s[i - j]);
                }
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= i {
                let temp = sigma.clone();
                let factor = gf.div(d, b);
                sigma = sigma.add(&prev.scale(factor, gf).shift(m));
                l = i + 1 - l;
                prev = temp;
                b = d;
                m = 1;
            } else {
                let factor = gf.div(d, b);
                sigma = sigma.add(&prev.scale(factor, gf).shift(m));
                m += 1;
            }
        }
        sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn noisy(data: &BitVec, parity: &BitVec, flips: &[usize]) -> (BitVec, BitVec) {
        let p = parity.len();
        let (mut d, mut q) = (data.clone(), parity.clone());
        for &e in flips {
            if e < p {
                q.toggle(e);
            } else {
                d.toggle(e - p);
            }
        }
        (d, q)
    }

    fn pseudo_data(len: usize, seed: u64) -> BitVec {
        let mut v = BitVec::zeros(len);
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 1 {
                v.set(i, true);
            }
        }
        v
    }

    #[test]
    fn paper_code_dimensions() {
        // §6.6: BCH-10 on a 512-bit block needs 100 check bits; §6.3: BCH-1
        // on a 708-bit message needs 10 check bits.
        let bch10 = Bch::new(10, 10);
        assert_eq!(bch10.parity_bits(), 100);
        assert!(bch10.max_data_bits() >= 512);
        let bch1 = Bch::new(10, 1);
        assert_eq!(bch1.parity_bits(), 10);
        assert!(bch1.max_data_bits() >= 708);
    }

    #[test]
    fn clean_roundtrip() {
        let bch = Bch::new(10, 4);
        let data = pseudo_data(512, 1);
        let mut parity = bch.encode(&data);
        let mut d = data.clone();
        assert_eq!(bch.decode(&mut d, &mut parity), Ok(0));
        assert_eq!(d, data);
    }

    #[test]
    fn corrects_up_to_t_errors_everywhere() {
        let bch = Bch::new(10, 5);
        let data = pseudo_data(512, 2);
        let parity = bch.encode(&data);
        let pb = bch.parity_bits(); // 50 for t=5, m=10
                                    // Error patterns spanning data, parity, and the boundary.
        let patterns: Vec<Vec<usize>> = vec![
            vec![0],
            vec![pb - 1],   // last parity bit
            vec![pb],       // first data bit
            vec![pb + 511], // last data bit
            vec![3, pb - 1, pb, pb + 156],
            vec![0, 1, 2, 3, 4], // exactly t errors
        ];
        for flips in &patterns {
            let (mut d, mut p) = noisy(&data, &parity, flips);
            let n = bch
                .decode(&mut d, &mut p)
                .unwrap_or_else(|e| panic!("pattern {flips:?} failed: {e}"));
            assert_eq!(n, flips.len());
            assert_eq!(d, data, "pattern {flips:?}");
        }
    }

    #[test]
    fn bch1_is_single_error_correcting() {
        let bch = Bch::new(10, 1);
        let data = pseudo_data(708, 3);
        let parity = bch.encode(&data);
        for &e in &[0usize, 9, 10, 400, 717] {
            let (mut d, mut p) = noisy(&data, &parity, &[e]);
            assert_eq!(bch.decode(&mut d, &mut p), Ok(1), "flip at {e}");
            assert_eq!(d, data);
        }
    }

    #[test]
    fn detects_more_than_t_errors() {
        // With t=2 and 4 well-spread errors, decoding must either report
        // Uncorrectable or (rarely) miscorrect into a different codeword —
        // but the residual check makes silent wrong-data impossible unless
        // the pattern lands exactly on another codeword. For these spread
        // patterns it must fail cleanly.
        let bch = Bch::new(10, 2);
        let data = pseudo_data(400, 4);
        let parity = bch.encode(&data);
        let mut failures = 0;
        for s in 0..20u64 {
            let flips: Vec<usize> = (0..4)
                .map(|i| ((s * 131 + i * 97) % 420) as usize)
                .collect();
            let mut uniq = flips.clone();
            uniq.sort_unstable();
            uniq.dedup();
            if uniq.len() != 4 {
                continue;
            }
            let (mut d, mut p) = noisy(&data, &parity, &uniq);
            match bch.decode(&mut d, &mut p) {
                Err(BchError::Uncorrectable) => failures += 1,
                Ok(_) => {} // miscorrection to a valid codeword is allowed by BCH theory
            }
        }
        assert!(
            failures >= 10,
            "most 2t patterns should be detected, got {failures}"
        );
    }

    #[test]
    fn shortened_region_errors_rejected() {
        // Simulate a decoder seeing garbage that implies errors past the
        // message: encode short data, flip > t scattered bits so σ roots
        // spill outside; must never place corrections beyond used length.
        let bch = Bch::new(8, 2);
        let data = pseudo_data(64, 5);
        let parity = bch.encode(&data);
        let (mut d, mut p) = noisy(&data, &parity, &[1, 20, 40, 60, 70]);
        // Whatever the outcome, decode must not panic and must leave
        // lengths intact.
        let _ = bch.decode(&mut d, &mut p);
        assert_eq!(d.len(), 64);
    }

    #[test]
    fn works_across_field_sizes() {
        for (m, t, len) in [
            (6u32, 2usize, 40usize),
            (8, 3, 150),
            (11, 4, 1000),
            (13, 6, 4000),
        ] {
            let bch = Bch::new(m, t);
            assert!(bch.max_data_bits() >= len, "m={m} t={t}");
            let data = pseudo_data(len, m as u64);
            let parity = bch.encode(&data);
            let flips: Vec<usize> = (0..t).map(|i| i * (len / t) + 1).collect();
            let (mut d, mut p) = noisy(&data, &parity, &flips);
            assert_eq!(bch.decode(&mut d, &mut p), Ok(t), "m={m} t={t}");
            assert_eq!(d, data);
        }
    }

    #[test]
    fn parity_only_errors() {
        let bch = Bch::new(10, 3);
        let data = pseudo_data(512, 7);
        let parity = bch.encode(&data);
        let (mut d, mut p) = noisy(&data, &parity, &[5, 50, 95]);
        assert_eq!(bch.decode(&mut d, &mut p), Ok(3));
        assert_eq!(d, data);
        assert_eq!(p, parity);
    }

    #[test]
    fn exhaustive_small_field_single_error() {
        // GF(2^4), t = 1, k = 11 (the classic (15,11) Hamming-equivalent
        // BCH): for EVERY message and EVERY single-bit error position the
        // decoder must recover exactly. 2^11 × 15 = 30720 cases.
        let bch = Bch::new(4, 1);
        assert_eq!(bch.parity_bits(), 4);
        assert_eq!(bch.max_data_bits(), 11);
        for msg in 0..(1u16 << 11) {
            let bits: Vec<bool> = (0..11).map(|b| msg >> b & 1 == 1).collect();
            let data = BitVec::from_bools(&bits);
            let parity = bch.encode(&data);
            for e in 0..15 {
                let (mut d, mut p) = noisy(&data, &parity, &[e]);
                assert_eq!(bch.decode(&mut d, &mut p), Ok(1), "msg {msg} flip {e}");
                assert_eq!(d, data, "msg {msg} flip {e}");
                assert_eq!(p, parity, "msg {msg} flip {e}");
            }
        }
    }

    #[test]
    fn exhaustive_double_errors_t2_small_field() {
        // GF(2^5), t = 2 (the (31,21) BCH): every double-error pattern on
        // a fixed message corrects exactly. C(31,2) = 465 cases.
        let bch = Bch::new(5, 2);
        assert_eq!(bch.parity_bits(), 10);
        let data = pseudo_data(21, 99);
        let parity = bch.encode(&data);
        for a in 0..31usize {
            for b in (a + 1)..31 {
                let (mut d, mut p) = noisy(&data, &parity, &[a, b]);
                assert_eq!(bch.decode(&mut d, &mut p), Ok(2), "flips {a},{b}");
                assert_eq!(d, data);
            }
        }
    }

    #[test]
    fn generator_divides_every_codeword() {
        // Structural: for random messages, the full code polynomial
        // x^p·d(x) + r(x) must be divisible by g(x).
        use crate::poly::BinPoly;
        let bch = Bch::new(8, 3);
        for seed in 1..6u64 {
            let data = pseudo_data(120, seed);
            let parity = bch.encode(&data);
            let mut cw = BinPoly::zero();
            for j in parity.ones() {
                cw.add_shifted(&BinPoly::one(), j);
            }
            for i in data.ones() {
                cw.add_shifted(&BinPoly::one(), bch.parity_bits() + i);
            }
            assert!(cw.rem(bch.generator()).is_zero(), "seed {seed}");
        }
    }

    /// Drive `decode_batch` and scalar `decode` over the same noisy lanes
    /// and demand identical results AND identical corrected bits.
    fn assert_batch_matches_scalar(bch: &Bch, data_bits: usize, lanes: Vec<Vec<usize>>, tag: &str) {
        let clean: Vec<BitVec> = (0..lanes.len())
            .map(|l| pseudo_data(data_bits, (l as u64 + 1) * 7919))
            .collect();
        let clean_parity: Vec<BitVec> = clean.iter().map(|d| bch.encode(d)).collect();
        let mut batch_d: Vec<BitVec> = Vec::new();
        let mut batch_p: Vec<BitVec> = Vec::new();
        let mut scalar_d: Vec<BitVec> = Vec::new();
        let mut scalar_p: Vec<BitVec> = Vec::new();
        for (l, flips) in lanes.iter().enumerate() {
            let (d, p) = noisy(&clean[l], &clean_parity[l], flips);
            batch_d.push(d.clone());
            batch_p.push(p.clone());
            scalar_d.push(d);
            scalar_p.push(p);
        }
        let got = bch.decode_batch(&mut batch_d, &mut batch_p);
        for l in 0..lanes.len() {
            let want = bch.decode(&mut scalar_d[l], &mut scalar_p[l]);
            assert_eq!(got[l], want, "{tag}: lane {l} result diverged");
            assert_eq!(batch_d[l], scalar_d[l], "{tag}: lane {l} data diverged");
            assert_eq!(batch_p[l], scalar_p[l], "{tag}: lane {l} parity diverged");
        }
    }

    #[test]
    fn batch_matches_scalar_at_every_weight_up_to_capacity() {
        // 64 lanes, error weights 0..=t per lane (cycling), positions
        // spread across parity, data, and the boundary — for the paper's
        // BCH-10 code and a smaller t=4 code.
        for (m, t, bits) in [(10u32, 10usize, 512usize), (10, 4, 512), (8, 3, 120)] {
            let bch = Bch::new(m, t);
            let used = bch.parity_bits() + bits;
            let lanes: Vec<Vec<usize>> = (0..64)
                .map(|l| {
                    let w = l % (t + 1);
                    (0..w)
                        .map(|i| (l * 131 + i * (used / t.max(1))) % used)
                        .collect::<Vec<_>>()
                })
                .map(|mut v: Vec<usize>| {
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            assert_batch_matches_scalar(&bch, bits, lanes, &format!("m={m} t={t}"));
        }
    }

    #[test]
    fn batch_matches_scalar_beyond_capacity() {
        // Lanes carrying t+1 .. 2t+3 errors: the batch decoder must agree
        // with scalar on every failure (and on any lucky miscorrection).
        let bch = Bch::new(10, 4);
        let used = bch.parity_bits() + 512;
        let lanes: Vec<Vec<usize>> = (0..64)
            .map(|l| {
                let w = 5 + l % 7;
                let mut v: Vec<usize> = (0..w).map(|i| (l * 997 + i * 83 + 7) % used).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        assert_batch_matches_scalar(&bch, 512, lanes, "overweight");
    }

    #[test]
    fn batch_handles_partial_and_multi_chunk_batches() {
        let bch = Bch::new(8, 2);
        let used = bch.parity_bits() + 120;
        // 1, 3, 64, and 67 lanes (the last spans two 64-lane chunks).
        for lanes_n in [1usize, 3, 64, 67] {
            let lanes: Vec<Vec<usize>> = (0..lanes_n)
                .map(|l| match l % 3 {
                    0 => vec![],
                    1 => vec![l % used],
                    _ => vec![l % used, (l * 31 + 40) % used],
                })
                .map(|mut v| {
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            assert_batch_matches_scalar(&bch, 120, lanes, &format!("lanes={lanes_n}"));
        }
    }

    #[test]
    fn batch_empty_and_all_clean() {
        let bch = Bch::new(10, 4);
        assert!(bch.decode_batch(&mut [], &mut []).is_empty());
        let data: Vec<BitVec> = (0..5).map(|l| pseudo_data(512, l + 1)).collect();
        let mut parity: Vec<BitVec> = data.iter().map(|d| bch.encode(d)).collect();
        let mut d = data.clone();
        let res = bch.decode_batch(&mut d, &mut parity);
        assert_eq!(res, vec![Ok(0); 5]);
        assert_eq!(d, data);
    }

    #[test]
    fn codes_share_tables_through_the_registry() {
        let a = Bch::new(10, 10);
        let b = Bch::new(10, 10);
        assert!(
            Arc::ptr_eq(&a.tables, &b.tables),
            "same (m, t) must share one table set"
        );
        let c = Bch::new(10, 1);
        assert!(!Arc::ptr_eq(&a.tables, &c.tables));
        // Distinct codes over the same field still share the GF tables.
        assert!(Arc::ptr_eq(&a.tables.gf, &c.tables.gf));
        let cloned = a.clone();
        assert!(Arc::ptr_eq(&a.tables, &cloned.tables));
    }

    #[test]
    #[should_panic(expected = "exceeds k")]
    fn decode_rejects_oversized_messages() {
        // Before the length check an oversized message wrapped its high
        // positions modulo n and "corrected" the wrong bit.
        let bch = Bch::new(4, 1);
        let mut data = BitVec::zeros(bch.max_data_bits() + 1);
        data.set(bch.max_data_bits(), true);
        let mut parity = BitVec::zeros(bch.parity_bits());
        let _ = bch.decode(&mut data, &mut parity);
    }

    #[test]
    fn residue_table_matches_division_at_every_position() {
        // Single-bit messages across parity widths below, exactly at
        // ((8, 8): 64 bits) and above a 64-bit word boundary.
        for (m, t) in [(4u32, 1usize), (8, 8), (10, 1), (10, 10), (13, 5), (13, 6)] {
            let bch = Bch::new(m, t);
            // No entry carries bits at or above x^p.
            let (p, w) = (bch.parity_bits(), bch.tables.residue_words);
            let top = p - 64 * (w - 1);
            if top < 64 {
                assert!(bch.tables.residues.chunks(w).all(|e| e[w - 1] >> top == 0));
            }
            let k = bch.max_data_bits();
            for i in (0..k).step_by(1 + k / 300).chain([k - 1]) {
                let mut data = BitVec::zeros(k);
                data.set(i, true);
                assert_eq!(
                    bch.encode(&data),
                    bch.encode_reference(&data),
                    "m={m} t={t} bit {i}"
                );
            }
        }
    }

    #[test]
    fn clean_read_check_matches_syndrome_decoder_for_every_single_flip() {
        // Every position of parity‖data, so a residue that is zero in one
        // word but not another (parity bits 64..100 of BCH-10) is covered.
        for (t, len) in [(1usize, 708usize), (10, 512)] {
            let bch = Bch::new(10, t);
            let data = pseudo_data(len, 77);
            let parity = bch.encode(&data);
            for e in 0..bch.parity_bits() + len {
                let (mut d1, mut p1) = noisy(&data, &parity, &[e]);
                let (mut d2, mut p2) = (d1.clone(), p1.clone());
                assert_eq!(bch.decode(&mut d1, &mut p1), Ok(1), "t={t} flip {e}");
                assert_eq!(bch.decode_syndromes(&mut d2, &mut p2), Ok(1));
                assert_eq!((d1, p1), (d2, p2), "t={t} flip {e}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn table_encode_matches_long_division(
            t10 in any::<bool>(),
            len in 1usize..=923,
            seed in any::<u64>(),
        ) {
            let bch = Bch::new(10, if t10 { 10 } else { 1 });
            let data = pseudo_data(len.min(bch.max_data_bits()), seed);
            prop_assert_eq!(bch.encode(&data), bch.encode_reference(&data));
        }

        #[test]
        fn clean_read_check_matches_syndrome_decoder(
            t10 in any::<bool>(),
            len in 1usize..=923,
            seed in any::<u64>(),
            extra in 0usize..=2,
            picks in vec(any::<u64>(), 12),
        ) {
            // 0..=t+2 flips anywhere in parity‖data: both paths must
            // return the same result and leave the same bits.
            let bch = Bch::new(10, if t10 { 10 } else { 1 });
            let data = pseudo_data(len.min(bch.max_data_bits()), seed);
            let parity = bch.encode(&data);
            let used = bch.parity_bits() + data.len();
            let weight = (seed as usize) % (bch.t() + 1) + extra;
            let mut flips: Vec<usize> =
                picks[..weight].iter().map(|&x| (x % used as u64) as usize).collect();
            flips.sort_unstable();
            flips.dedup();
            let (mut d1, mut p1) = noisy(&data, &parity, &flips);
            let (mut d2, mut p2) = (d1.clone(), p1.clone());
            let fast = bch.decode(&mut d1, &mut p1);
            let oracle = bch.decode_syndromes(&mut d2, &mut p2);
            prop_assert_eq!(fast, oracle);
            prop_assert_eq!(d1, d2);
            prop_assert_eq!(p1, p2);
        }
    }

    #[test]
    fn all_zero_and_all_one_messages() {
        let bch = Bch::new(10, 10);
        for fill in [false, true] {
            let data = BitVec::from_bools(&vec![fill; 512]);
            let parity = bch.encode(&data);
            let flips: Vec<usize> = (0..10).map(|i| 37 * i + 2).collect();
            let (mut d, mut p) = noisy(&data, &parity, &flips);
            assert_eq!(bch.decode(&mut d, &mut p), Ok(10), "fill={fill}");
            assert_eq!(d, data);
        }
    }
}
