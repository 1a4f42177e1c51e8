//! Binary BCH codes with Berlekamp–Massey decoding.
//!
//! BCH codes are the workhorse of large-block storage ECC and the natural
//! realization of the paper's §4 point: over a block-level MRM interface,
//! code words can be thousands of bits, and a `t`-error-correcting BCH code
//! over GF(2^m) pays only ≈ `m·t` parity bits regardless of how much data a
//! codeword carries — so overhead *falls* as blocks grow (Dolinar et al.,
//! "Code Performance as a Function of Block Size" \[8\]).
//!
//! The implementation is a textbook binary BCH:
//!
//! * generator polynomial = LCM of minimal polynomials of `α¹..α^{2t}`,
//! * systematic encoding by polynomial division, table-driven eight bits
//!   per step (see [`CleanScreen`]),
//! * decoding by syndrome computation, Berlekamp–Massey for the error
//!   locator polynomial, and Chien search for its roots,
//! * shortened codes (data width chosen freely below the natural `k`).
//!
//! Bits are one-per-`u8` (0/1), matching [`crate::hamming`].

use crate::gf::Gf;
use crate::{gather8, BIT_BYTES};

/// Errors from BCH decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BchError {
    /// More errors occurred than the code can correct.
    TooManyErrors,
}

impl std::fmt::Display for BchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BchError::TooManyErrors => write!(f, "uncorrectable: more than t errors"),
        }
    }
}

impl std::error::Error for BchError {}

/// A binary BCH code over GF(2^m), correcting up to `t` bit errors per
/// codeword, optionally shortened.
///
/// # Examples
///
/// ```
/// use mrm_ecc::bch::Bch;
///
/// // A t=3 code over GF(2^8): n=255, k=231 (24 parity bits).
/// let code = Bch::new(8, 3);
/// assert_eq!(code.n(), 255);
/// assert_eq!(code.parity_bits(), 24);
///
/// let data: Vec<u8> = (0..code.k()).map(|i| (i % 5 == 0) as u8).collect();
/// let mut cw = code.encode(&data);
/// cw[9] ^= 1;
/// cw[100] ^= 1;
/// cw[200] ^= 1;
/// let (decoded, fixed) = code.decode(&cw).unwrap();
/// assert_eq!(fixed, 3);
/// assert_eq!(decoded, data);
/// ```
#[derive(Clone, Debug)]
pub struct Bch {
    gf: Gf,
    /// Full (unshortened) code length `2^m − 1`.
    n_full: usize,
    /// Correctable errors per codeword.
    t: usize,
    /// Data bits per stored codeword (after shortening).
    k: usize,
    /// Bits removed by shortening.
    shorten: usize,
    /// Generator polynomial coefficients over GF(2), index = degree.
    gen: Vec<u8>,
    /// Power tables for syndrome evaluation: `steps[j-1][d] = α^{j·d}` for
    /// `d ∈ 0..=64`. The packed Horner evaluator multiplies across a gap of
    /// `d` zero coefficients (up to a whole `u64` word) with one lookup
    /// instead of `d` field multiplications; the screened decoder reads
    /// `α^{j·i}` for each set bit `i < 56` of a remainder directly.
    steps: Vec<Vec<u16>>,
    /// Byte-wise reduction table behind `encode` and `decode_batch`, built
    /// once per code; `None` for geometries outside its range.
    screen: Option<CleanScreen>,
}

impl Bch {
    /// Constructs the full-length BCH code over GF(2^m) correcting `t`
    /// errors.
    ///
    /// # Panics
    ///
    /// Panics if `t` is zero or the code has no data bits (t too large for
    /// the field).
    pub fn new(m: u32, t: usize) -> Self {
        Self::build(m, t, None)
    }

    /// Constructs a shortened BCH code carrying exactly `data_len` data
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `data_len` is zero or exceeds the natural `k` of the
    /// full-length code.
    pub fn with_data_len(m: u32, t: usize, data_len: usize) -> Self {
        Self::build(m, t, Some(data_len))
    }

    fn build(m: u32, t: usize, data_len: Option<usize>) -> Self {
        assert!(t >= 1, "t must be at least 1");
        let gf = Gf::new(m);
        let n_full = gf.order();
        let gen = generator_poly(&gf, t);
        let parity = gen.len() - 1;
        assert!(parity < n_full, "t={t} too large for GF(2^{m})");
        let k_full = n_full - parity;
        let (k, shorten) = match data_len {
            None => (k_full, 0),
            Some(d) => {
                assert!(d > 0, "data length must be positive");
                assert!(
                    d <= k_full,
                    "data length {d} exceeds k={k_full} for BCH(m={m}, t={t})"
                );
                (d, k_full - d)
            }
        };
        let steps = (1..=2 * t)
            .map(|j| {
                let aj = gf.alpha_pow(j as i64);
                let mut row = Vec::with_capacity(65);
                row.push(1u16);
                for d in 1..=64usize {
                    let prev = row[d - 1];
                    row.push(gf.mul(prev, aj));
                }
                row
            })
            .collect();
        let screen = CleanScreen::build(&gen);
        Bch {
            gf,
            n_full,
            t,
            k,
            shorten,
            gen,
            steps,
            screen,
        }
    }

    /// Stored codeword length (shortening applied).
    pub fn n(&self) -> usize {
        self.n_full - self.shorten
    }

    /// Data bits per codeword.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Correctable errors per codeword.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Parity bits per codeword.
    pub fn parity_bits(&self) -> usize {
        self.gen.len() - 1
    }

    /// Overhead: parity bits / codeword bits.
    pub fn overhead(&self) -> f64 {
        self.parity_bits() as f64 / self.n() as f64
    }

    /// Encodes `data` systematically: the returned codeword holds
    /// `parity_bits()` check bits followed by the data bits.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.k()` or any value is not 0/1.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut cw = Vec::with_capacity(self.n());
        self.encode_into(data, &mut cw);
        cw
    }

    /// Allocation-free core of [`Bch::encode`]: replaces the contents of
    /// `cw` with the codeword for `data`.
    ///
    /// The parity is `x^d·d(x) mod g(x)`. Codes with a [`CleanScreen`] take
    /// it from the screen's byte table, eight data bits per lookup; the
    /// others run the bit-serial LFSR division.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.k()` or any value is not 0/1.
    pub fn encode_into(&self, data: &[u8], cw: &mut Vec<u8>) {
        assert_eq!(data.len(), self.k, "data length mismatch");
        let d = self.parity_bits();
        cw.clear();
        match &self.screen {
            Some(s) => {
                let r = s.rem_shifted(data);
                cw.extend((0..d).map(|j| (r >> j & 1) as u8));
            }
            None => {
                cw.resize(d, 0);
                self.lfsr_parity(data, cw);
            }
        }
        cw.extend_from_slice(data);
    }

    /// LFSR division of `d(x)·x^d` by `g(x)`, one data bit per step from
    /// the highest-degree coefficient down, leaving the remainder in `rem`
    /// (length `d`, zeroed by the caller). The encoder for codes without a
    /// screen, and the reference the table encoder is tested against.
    fn lfsr_parity(&self, data: &[u8], rem: &mut [u8]) {
        let nk = rem.len();
        for &bit in data.iter().rev() {
            assert!(bit <= 1, "bits must be 0 or 1");
            let feedback = bit ^ rem[nk - 1];
            for j in (1..nk).rev() {
                rem[j] = rem[j - 1] ^ (feedback & self.gen[j]);
            }
            rem[0] = feedback & self.gen[0];
        }
    }

    /// The LFSR-encoded codeword for `data`: the reference for the table
    /// encoder.
    #[cfg(test)]
    fn encode_reference(&self, data: &[u8]) -> Vec<u8> {
        let mut cw = vec![0u8; self.parity_bits()];
        self.lfsr_parity(data, &mut cw);
        cw.extend_from_slice(data);
        cw
    }

    /// Computes the 2t syndromes of a stored codeword by direct per-set-bit
    /// accumulation: `S_j = Σ_{i: c_i=1} α^{j·i}`. Retained as the reference
    /// oracle for the packed Horner evaluator below and for the
    /// remainder-derived syndromes of the screened decoder.
    #[cfg(test)]
    fn syndromes_reference(&self, cw: &[u8]) -> Vec<u16> {
        (1..=2 * self.t)
            .map(|j| {
                let mut acc = 0u16;
                for (i, &b) in cw.iter().enumerate() {
                    if b != 0 {
                        acc ^= self.gf.alpha_pow((j * i) as i64);
                    }
                }
                acc
            })
            .collect()
    }

    /// Packs a one-bit-per-byte codeword into `u64` words, bit `i % 64` of
    /// word `i / 64` holding coefficient `i`.
    fn pack_bits(cw: &[u8], words: &mut Vec<u64>) {
        words.clear();
        words.resize(cw.len().div_ceil(64), 0);
        for (i, &b) in cw.iter().enumerate() {
            debug_assert!(b <= 1, "bits must be 0 or 1");
            words[i / 64] |= u64::from(b) << (i % 64);
        }
    }

    /// Computes the 2t syndromes from a bit-packed codeword by Horner's
    /// rule over GF(2^m), hopping between set coefficients with the
    /// precomputed `steps` tables: `S_j = c(α^j)` costs ≈ one table-driven
    /// multiplication per set bit (zero words are skipped whole), instead of
    /// one modular exponent per set bit per syndrome.
    fn syndromes_packed(&self, words: &[u64]) -> Vec<u16> {
        (1..=2 * self.t)
            .map(|j| {
                let step = &self.steps[j - 1];
                let mut acc = 0u16;
                // `mark` = coefficient index `acc` is aligned to: acc holds
                // Σ_{i ≥ mark} c_i α^{j·(i−mark)}. Visit set bits high → low.
                let mut mark = 0usize;
                for (w_idx, &w) in words.iter().enumerate().rev() {
                    if w == 0 {
                        continue;
                    }
                    let mut x = w;
                    while x != 0 {
                        let b = 63 - x.leading_zeros() as usize;
                        x ^= 1u64 << b;
                        let i = w_idx * 64 + b;
                        if acc != 0 {
                            let mut gap = mark - i;
                            while gap > 64 {
                                acc = self.gf.mul(acc, step[64]);
                                gap -= 64;
                            }
                            acc = self.gf.mul(acc, step[gap]);
                        }
                        acc ^= 1;
                        mark = i;
                    }
                }
                // Align the accumulator down to coefficient 0.
                if acc != 0 {
                    let mut gap = mark;
                    while gap > 64 {
                        acc = self.gf.mul(acc, step[64]);
                        gap -= 64;
                    }
                    acc = self.gf.mul(acc, step[gap]);
                }
                acc
            })
            .collect()
    }

    /// Decodes a stored codeword, correcting up to `t` bit errors.
    ///
    /// Returns the recovered data and the number of bits corrected, or
    /// [`BchError::TooManyErrors`] when the error pattern exceeds the code's
    /// capability (detected via locator degree, root count, or syndrome
    /// recheck).
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != self.n()`.
    pub fn decode(&self, cw: &[u8]) -> Result<(Vec<u8>, usize), BchError> {
        assert_eq!(cw.len(), self.n(), "codeword length mismatch");
        let mut words = Vec::new();
        Self::pack_bits(cw, &mut words);
        let syn = self.syndromes_packed(&words);
        if syn.iter().all(|&s| s == 0) {
            return Ok((cw[self.parity_bits()..].to_vec(), 0));
        }
        self.correct(cw, &syn)
    }

    /// Decodes a slice of stored codewords, one result per lane — a
    /// convenience wrapper over [`Bch::decode_batch_into`]. Results are
    /// bitwise identical to mapping [`Bch::decode`] over the slice
    /// (asserted by the differential suite in `tests/batch_differential.rs`).
    ///
    /// # Panics
    ///
    /// Panics if any codeword's length differs from `n()`.
    pub fn decode_batch(&self, cws: &[&[u8]]) -> Vec<Result<(Vec<u8>, usize), BchError>> {
        let mut data = Vec::new();
        let mut outcomes = Vec::new();
        self.decode_batch_into(cws, &mut data, &mut outcomes);
        data.chunks_exact(self.k)
            .zip(outcomes)
            .map(|(row, outcome)| outcome.map(|fixed| (row.to_vec(), fixed)))
            .collect()
    }

    /// Flat-output core of [`Bch::decode_batch`], the decoder the fault
    /// model's probes call: appends `k()` data bits per lane to `data` and
    /// the number of bits corrected (or the error) to `outcomes`. An `Err`
    /// lane's row holds the stored, uncorrected data bits. Reusing the two
    /// buffers across calls keeps decoding allocation-free on clean lanes.
    ///
    /// Each lane pays one [`CleanScreen`] remainder `c(x) mod g(x)` — one
    /// table lookup per eight bits. Remainder zero is *exactly* "all 2t
    /// syndromes zero" (both say `g | c`), so clean lanes stop there.
    /// Dirty lanes take their syndromes from the remainder's ≤ d bits
    /// (`S_j = c(α^j) = r(α^j)` because `g(α^j) = 0`), run
    /// Berlekamp–Massey and an incremental Chien search, and recheck the
    /// corrected word by its remainder. Codes without a screen decode
    /// through [`Bch::decode`].
    ///
    /// # Panics
    ///
    /// Panics if any codeword's length differs from `n()`, or, on a code
    /// with a screen, holds a value other than 0/1.
    pub fn decode_batch_into(
        &self,
        cws: &[&[u8]],
        data: &mut Vec<u8>,
        outcomes: &mut Vec<Result<usize, BchError>>,
    ) {
        let d = self.parity_bits();
        data.reserve(self.k * cws.len());
        outcomes.reserve(cws.len());
        for cw in cws {
            assert_eq!(cw.len(), self.n(), "codeword length mismatch");
            let row = data.len();
            data.extend_from_slice(&cw[d..]);
            let outcome = match &self.screen {
                Some(s) => match s.rem(cw) {
                    0 => Ok(0),
                    r => self.correct_rem(s, r, &cw[..d], &mut data[row..]),
                },
                None => self.decode(cw).map(|(out, fixed)| {
                    data[row..].copy_from_slice(&out);
                    fixed
                }),
            };
            outcomes.push(outcome);
        }
    }

    /// The 2t syndromes of a word whose remainder mod `g` is `r`:
    /// `S_j = r(α^j)`, one `steps` lookup per set bit of `r` (`d ≤ 56`, so
    /// every bit index is inside the 65-entry rows).
    fn syndromes_of_rem(&self, r: u64) -> Vec<u16> {
        self.steps
            .iter()
            .map(|step| {
                let mut acc = 0u16;
                let mut x = r;
                while x != 0 {
                    acc ^= step[x.trailing_zeros() as usize];
                    x &= x - 1;
                }
                acc
            })
            .collect()
    }

    /// The dirty half of a screened decode, given the nonzero remainder
    /// `r`, the stored parity bits and the lane's data row (corrected in
    /// place on `Ok`, left as stored on `Err`). Rejects exactly where
    /// [`Bch::decode`] does: locator degree above t, a root count other
    /// than the degree, or a corrected word that is not a codeword.
    fn correct_rem(
        &self,
        screen: &CleanScreen,
        r: u64,
        parity: &[u8],
        row: &mut [u8],
    ) -> Result<usize, BchError> {
        let sigma = self.berlekamp_massey(&self.syndromes_of_rem(r));
        let nu = sigma.len() - 1;
        if nu > self.t {
            return Err(BchError::TooManyErrors);
        }
        let roots = self.chien(&sigma, nu);
        if roots.len() != nu {
            return Err(BchError::TooManyErrors);
        }
        let d = parity.len();
        let mut fixed_parity = pack_low(parity);
        for &i in &roots {
            if i < d {
                fixed_parity ^= 1 << i;
            } else {
                row[i - d] ^= 1;
            }
        }
        // Recheck: the corrected word's remainder, parity ⊕ x^d·data mod g,
        // must be zero.
        if screen.rem_shifted(row) != fixed_parity {
            for &i in roots.iter().filter(|&&i| i >= d) {
                row[i - d] ^= 1;
            }
            return Err(BchError::TooManyErrors);
        }
        Ok(nu)
    }

    /// Chien search over the stored positions in the log domain: position
    /// `i` is in error iff σ(α^{−i}) = 0. Each nonzero term σ_k·α^{−k·i}
    /// moves to the next position by adding `n_full − k` to its log — one
    /// add, one conditional subtract and one antilog lookup per term per
    /// position, no modulo. Stops at `nu` roots: a degree-ν locator has at
    /// most ν, and positions below `2^m − 1` are distinct points α^{−i}.
    fn chien(&self, sigma: &[u16], nu: usize) -> Vec<usize> {
        let n = self.n_full;
        let mut terms: Vec<(usize, usize)> = sigma
            .iter()
            .enumerate()
            .skip(1)
            .filter(|&(_, &s)| s != 0)
            .map(|(k, &s)| (self.gf.log_of(s), n - k))
            .collect();
        let mut roots = Vec::with_capacity(nu);
        for i in 0..self.n() {
            let v = terms.iter().fold(1u16, |acc, &(l, _)| acc ^ self.gf.exp(l));
            if v == 0 {
                roots.push(i);
                if roots.len() == nu {
                    break;
                }
            }
            for (l, step) in &mut terms {
                *l += *step;
                if *l >= n {
                    *l -= n;
                }
            }
        }
        roots
    }

    /// The dirty back half of decoding: Berlekamp–Massey, Chien search over
    /// stored positions, and the validity recheck.
    fn correct(&self, cw: &[u8], syn: &[u16]) -> Result<(Vec<u8>, usize), BchError> {
        let sigma = self.berlekamp_massey(syn);
        let nu = sigma.len() - 1;
        if nu > self.t {
            return Err(BchError::TooManyErrors);
        }

        // Chien search over the *stored* positions only: shortening means
        // positions n()..n_full are known-zero and cannot be in error.
        let mut cw = cw.to_vec();
        let mut found = 0usize;
        for (i, bit) in cw.iter_mut().enumerate() {
            // Error at position i ⇔ σ(α^{−i}) = 0.
            let x = self.gf.alpha_pow(-(i as i64));
            if self.gf.poly_eval(&sigma, x) == 0 {
                *bit ^= 1;
                found += 1;
            }
        }
        if found != nu {
            return Err(BchError::TooManyErrors);
        }
        // Recheck: corrected word must be a valid codeword.
        let mut words = Vec::new();
        Self::pack_bits(&cw, &mut words);
        if self.syndromes_packed(&words).iter().any(|&s| s != 0) {
            return Err(BchError::TooManyErrors);
        }
        Ok((cw[self.parity_bits()..].to_vec(), found))
    }

    /// Berlekamp–Massey: finds the minimal-degree error locator polynomial
    /// σ(x) with σ(0)=1 consistent with the syndrome sequence.
    fn berlekamp_massey(&self, syn: &[u16]) -> Vec<u16> {
        let gf = &self.gf;
        let mut c: Vec<u16> = vec![1];
        let mut b: Vec<u16> = vec![1];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut bb = 1u16;
        for i in 0..syn.len() {
            // Discrepancy.
            let mut d = syn[i];
            for j in 1..=l.min(c.len() - 1) {
                d ^= gf.mul(c[j], syn[i - j]);
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= i {
                let old_c = c.clone();
                let coef = gf.div(d, bb);
                if c.len() < b.len() + m {
                    c.resize(b.len() + m, 0);
                }
                for (j, &bj) in b.iter().enumerate() {
                    c[j + m] ^= gf.mul(coef, bj);
                }
                l = i + 1 - l;
                b = old_c;
                bb = d;
                m = 1;
            } else {
                let coef = gf.div(d, bb);
                if c.len() < b.len() + m {
                    c.resize(b.len() + m, 0);
                }
                for (j, &bj) in b.iter().enumerate() {
                    c[j + m] ^= gf.mul(coef, bj);
                }
                m += 1;
            }
        }
        // Trim trailing zeros so degree reflects the true locator.
        while c.len() > 1 && c.last() == Some(&0) {
            c.pop();
        }
        c
    }
}

/// CRC-style byte table for `c(x) mod g(x)` over GF(2), built once per
/// code in `Bch::build`: the table encoder and the clean screen of
/// [`Bch::decode_batch_into`].
///
/// A stored word is a valid codeword iff `g | c`, which is also exactly
/// "all 2t syndromes zero" (the syndromes evaluate `c` at the roots of
/// `g`), so a zero remainder lets a lane skip syndrome computation
/// entirely. Building the 256-entry table costs a few microseconds, paid
/// once per code; a remainder costs one table lookup per eight input
/// bits — an order of magnitude cheaper than the per-set-bit Horner
/// syndrome pass, and than the bit-serial LFSR as an encoder.
///
/// Only codes whose parity degree fits the `u64` shift register
/// (`8 ≤ deg g ≤ 56`) get a screen; tiny test codes and very strong codes
/// fall back to the LFSR encoder and the scalar decoder.
#[derive(Clone, Debug)]
struct CleanScreen {
    /// Degree of the generator polynomial (= parity bits).
    d: usize,
    /// `(1 << d) − 1`: the remainder register mask.
    mask: u64,
    /// `table[v] = v(x)·x^d mod g(x)` for each 8-bit chunk `v`.
    table: Box<[u64; 256]>,
}

impl CleanScreen {
    fn build(gen: &[u8]) -> Option<CleanScreen> {
        let d = gen.len() - 1;
        if !(8..=56).contains(&d) {
            return None;
        }
        // g(x) = x^d + (low bits), so x^d ≡ low bits (mod g).
        let mask = (1u64 << d) - 1;
        let gbits = pack_low(&gen[..d]);
        // base[k] = x^{d+k} mod g, by repeated multiply-by-x with reduction.
        let mut base = [0u64; 8];
        let mut pow = gbits;
        for b in &mut base {
            *b = pow;
            let overflow = pow >> (d - 1) & 1 == 1;
            pow = (pow << 1) & mask;
            if overflow {
                pow ^= gbits;
            }
        }
        // table[v] = Σ_{k set in v} base[k], filled in one pass: each v
        // extends the entry with its lowest bit cleared.
        let mut table = Box::new([0u64; 256]);
        for v in 1usize..256 {
            let k = v.trailing_zeros() as usize;
            table[v] = table[v ^ (1 << k)] ^ base[k];
        }
        Some(CleanScreen { d, mask, table })
    }

    /// `b(x)·x^d mod g(x)` for one-bit-per-byte coefficients `bits` (index
    /// = degree), eight coefficients per lookup from the highest degree
    /// down. Each byte enters at the top of the register (the CRC "direct"
    /// form), so no pass over `d` appended zeros is needed, and the zero
    /// padding above a partial top byte is harmless.
    ///
    /// # Panics
    ///
    /// Panics if any value is not 0/1.
    fn rem_shifted(&self, bits: &[u8]) -> u64 {
        let step = |r: u64, byte: u64| {
            ((r << 8) & self.mask) ^ self.table[((r >> (self.d - 8)) ^ byte) as usize]
        };
        let (body, top) = bits.split_at(bits.len() & !7);
        let mut r = step(0, pack_low(top));
        for chunk in body.chunks_exact(8).rev() {
            let x = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
            assert!(x & !BIT_BYTES == 0, "bits must be 0 or 1");
            r = step(r, gather8(x));
        }
        r
    }

    /// `c(x) mod g(x)` for a stored codeword: the parity bits have degree
    /// below `d`, so they add in unreduced. Zero iff `c` is a codeword.
    fn rem(&self, cw: &[u8]) -> u64 {
        let (parity, data) = cw.split_at(self.d);
        pack_low(parity) ^ self.rem_shifted(data)
    }
}

/// Packs up to 64 one-bit-per-byte coefficients into a `u64`, bit `i`
/// holding `bits[i]`.
///
/// # Panics
///
/// Panics if any value is not 0/1.
fn pack_low(bits: &[u8]) -> u64 {
    bits.iter().enumerate().fold(0, |acc, (i, &b)| {
        assert!(b <= 1, "bits must be 0 or 1");
        acc | u64::from(b) << i
    })
}

/// Computes the generator polynomial for a t-error-correcting binary BCH
/// code over `gf`: the LCM of the minimal polynomials of α¹..α^{2t}.
fn generator_poly(gf: &Gf, t: usize) -> Vec<u8> {
    let n = gf.order();
    let mut covered = vec![false; n];
    // Generator as a GF-coefficient polynomial (coefficients stay in {0,1}
    // because each factor is a complete conjugate set).
    let mut gen: Vec<u16> = vec![1];
    for j in 1..=2 * t {
        let j = j % n;
        if j == 0 || covered[j] {
            continue;
        }
        // Cyclotomic coset of j: {j, 2j, 4j, ...} mod n.
        let mut coset = Vec::new();
        let mut cur = j;
        loop {
            covered[cur] = true;
            coset.push(cur);
            cur = (cur * 2) % n;
            if cur == j {
                break;
            }
        }
        // Minimal polynomial: Π (x + α^c) over the coset.
        let mut min_poly: Vec<u16> = vec![1];
        for &c in &coset {
            let root = gf.alpha_pow(c as i64);
            // Multiply min_poly by (x + root).
            let mut next = vec![0u16; min_poly.len() + 1];
            for (d, &coef) in min_poly.iter().enumerate() {
                next[d + 1] ^= coef; // x · coef
                next[d] ^= gf.mul(coef, root); // root · coef
            }
            min_poly = next;
        }
        // Multiply the generator by the minimal polynomial.
        let mut next = vec![0u16; gen.len() + min_poly.len() - 1];
        for (a, &ga) in gen.iter().enumerate() {
            if ga == 0 {
                continue;
            }
            for (b, &mb) in min_poly.iter().enumerate() {
                next[a + b] ^= gf.mul(ga, mb);
            }
        }
        gen = next;
    }
    gen.iter()
        .map(|&c| {
            debug_assert!(c <= 1, "generator polynomial must be binary");
            c as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_pattern(k: usize, seed: u64) -> Vec<u8> {
        (0..k)
            .map(|i| ((i as u64).wrapping_mul(2_654_435_761).wrapping_add(seed) >> 7 & 1) as u8)
            .collect()
    }

    #[test]
    fn known_code_parameters() {
        // Classic table values.
        let c = Bch::new(4, 1);
        assert_eq!((c.n(), c.k()), (15, 11)); // BCH(15,11,1) = Hamming
        let c = Bch::new(4, 2);
        assert_eq!((c.n(), c.k()), (15, 7)); // BCH(15,7,2)
        let c = Bch::new(4, 3);
        assert_eq!((c.n(), c.k()), (15, 5)); // BCH(15,5,3)
        let c = Bch::new(6, 2);
        assert_eq!((c.n(), c.k()), (63, 51)); // BCH(63,51,2)
        let c = Bch::new(8, 2);
        assert_eq!((c.n(), c.k()), (255, 239)); // BCH(255,239,2)
    }

    #[test]
    fn clean_screen_remainder_agrees_with_syndromes() {
        // The batch screen's claim: remainder zero ⇔ all 2t syndromes
        // zero — checked on clean codewords, every single-bit corruption
        // of one, and a handful of multi-bit corruptions.
        for (m, t) in [(4u32, 2usize), (6, 2), (8, 3), (10, 2)] {
            let code = Bch::new(m, t);
            let screen = code.screen.as_ref().expect("deg g within screen bounds");
            let check = |cw: &[u8]| {
                let clean_by_screen = screen.rem(cw) == 0;
                let clean_by_syndromes = code.syndromes_reference(cw).iter().all(|&s| s == 0);
                assert_eq!(clean_by_screen, clean_by_syndromes, "m={m} t={t}");
                clean_by_screen
            };
            let data = data_pattern(code.k(), 99);
            let mut cw = code.encode(&data);
            assert!(check(&cw));
            for i in 0..code.n() {
                cw[i] ^= 1;
                assert!(!check(&cw), "flip at {i}");
                cw[i] ^= 1;
            }
            for flips in [[0usize, 7], [3, 11], [1, 2]] {
                for &i in &flips {
                    cw[i % code.n()] ^= 1;
                }
                check(&cw);
                for &i in &flips {
                    cw[i % code.n()] ^= 1;
                }
            }
        }
    }

    #[test]
    fn clean_roundtrip() {
        for (m, t) in [(4u32, 1usize), (4, 2), (6, 3), (8, 4), (10, 5)] {
            let code = Bch::new(m, t);
            let data = data_pattern(code.k(), u64::from(m) << 8 | t as u64);
            let cw = code.encode(&data);
            assert_eq!(cw.len(), code.n());
            let (out, fixed) = code.decode(&cw).unwrap();
            assert_eq!(fixed, 0, "m={m} t={t}");
            assert_eq!(out, data, "m={m} t={t}");
        }
    }

    #[test]
    fn corrects_exactly_t_errors() {
        let code = Bch::new(8, 4);
        let data = data_pattern(code.k(), 42);
        let cw = code.encode(&data);
        // Deterministic spread of exactly t error positions.
        let positions = [3usize, 77, 141, 250];
        let mut bad = cw.clone();
        for &p in &positions {
            bad[p] ^= 1;
        }
        let (out, fixed) = code.decode(&bad).unwrap();
        assert_eq!(fixed, 4);
        assert_eq!(out, data);
    }

    #[test]
    fn corrects_errors_in_parity_region() {
        let code = Bch::new(6, 3);
        let data = data_pattern(code.k(), 7);
        let mut cw = code.encode(&data);
        cw[0] ^= 1; // parity bit
        cw[code.parity_bits() - 1] ^= 1; // last parity bit
        let (out, fixed) = code.decode(&cw).unwrap();
        assert_eq!(fixed, 2);
        assert_eq!(out, data);
    }

    #[test]
    fn detects_more_than_t_errors_or_miscorrects_to_valid() {
        // t+1 errors are beyond the guarantee: the decoder must either
        // report failure or (rarely) land on a *valid* wrong codeword —
        // never panic or return an invalid word.
        let code = Bch::new(8, 3);
        let data = data_pattern(code.k(), 1);
        let cw = code.encode(&data);
        let mut failures = 0;
        for seed in 0..40u64 {
            let mut bad = cw.clone();
            for e in 0..4u64 {
                let pos = ((seed * 97 + e * 31) as usize * 131) % code.n();
                bad[pos] ^= 1;
            }
            match code.decode(&bad) {
                Err(BchError::TooManyErrors) => failures += 1,
                Ok((out, _)) => {
                    // If it "succeeded", the result must re-encode to a
                    // valid codeword (miscorrection), or be the original
                    // (error positions collided and cancelled).
                    let recoded = code.encode(&out);
                    assert!(code.decode(&recoded).is_ok());
                }
            }
        }
        assert!(
            failures > 20,
            "expected mostly detected failures, got {failures}"
        );
    }

    #[test]
    fn shortened_code_roundtrip() {
        // 512-bit data block protected by a t=4 code over GF(2^10).
        let code = Bch::with_data_len(10, 4, 512);
        assert_eq!(code.k(), 512);
        assert_eq!(code.parity_bits(), 40); // m·t = 10·4
        assert_eq!(code.n(), 552);
        let data = data_pattern(512, 99);
        let mut cw = code.encode(&data);
        for &p in &[0usize, 100, 300, 551] {
            cw[p] ^= 1;
        }
        let (out, fixed) = code.decode(&cw).unwrap();
        assert_eq!(fixed, 4);
        assert_eq!(out, data);
    }

    #[test]
    fn overhead_falls_with_block_size_at_fixed_t() {
        // The Dolinar observation realized: same t, bigger blocks, lower
        // overhead.
        let small = Bch::with_data_len(8, 4, 128).overhead();
        let medium = Bch::with_data_len(10, 4, 512).overhead();
        let large = Bch::with_data_len(13, 4, 4096).overhead();
        assert!(small > medium && medium > large, "{small} {medium} {large}");
    }

    #[test]
    fn generator_is_binary_and_has_expected_degree() {
        for (m, t) in [(4u32, 2usize), (6, 3), (8, 5), (10, 4)] {
            let gf = Gf::new(m);
            let gen = generator_poly(&gf, t);
            assert!(gen.iter().all(|&c| c <= 1));
            // deg(g) ≤ m·t for binary BCH.
            assert!(gen.len() - 1 <= m as usize * t, "m={m} t={t}");
            assert_eq!(*gen.last().unwrap(), 1, "monic");
        }
    }

    #[test]
    fn packed_syndromes_match_reference() {
        for (m, t) in [(4u32, 2usize), (6, 3), (8, 4), (10, 2), (10, 4)] {
            let code = Bch::new(m, t);
            for seed in 0..8u64 {
                let data = data_pattern(code.k(), seed);
                let mut cw = code.encode(&data);
                // Clean, then progressively dirtier patterns.
                for flips in 0..=(t + 2) {
                    let mut words = Vec::new();
                    Bch::pack_bits(&cw, &mut words);
                    assert_eq!(
                        code.syndromes_packed(&words),
                        code.syndromes_reference(&cw),
                        "m={m} t={t} seed={seed} flips={flips}"
                    );
                    cw[(seed as usize * 37 + flips * 101) % code.n()] ^= 1;
                }
            }
        }
    }

    /// Every geometry built by this module's tests and by the crate's
    /// integration tests, screened or not.
    fn tested_geometries() -> Vec<Bch> {
        let mut codes: Vec<Bch> = [
            (4u32, 1usize),
            (4, 2),
            (4, 3),
            (6, 2),
            (6, 3),
            (8, 2),
            (8, 3),
            (8, 4),
            (8, 5),
            (10, 2),
            (10, 4),
            (10, 5),
        ]
        .into_iter()
        .map(|(m, t)| Bch::new(m, t))
        .collect();
        for (m, t, k) in [
            (8u32, 4usize, 128usize),
            (10, 2, 256),
            (10, 2, 512),
            (10, 4, 256),
            (10, 4, 512),
            (13, 4, 4096),
        ] {
            codes.push(Bch::with_data_len(m, t, k));
        }
        codes
    }

    /// Seeded 0/1 data for the differential tests (SplitMix64 stream).
    fn random_bits(k: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..k)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) & 1) as u8
            })
            .collect()
    }

    #[test]
    fn table_encode_matches_lfsr() {
        for code in tested_geometries() {
            for seed in 0..6u64 {
                let data = random_bits(code.k(), seed);
                assert_eq!(
                    code.encode(&data),
                    code.encode_reference(&data),
                    "n={} k={} t={} seed={seed}",
                    code.n(),
                    code.k(),
                    code.t()
                );
            }
        }
    }

    #[test]
    fn remainder_syndromes_match_reference() {
        for code in tested_geometries() {
            let Some(screen) = &code.screen else {
                continue;
            };
            for seed in 0..6u64 {
                let mut cw = code.encode(&random_bits(code.k(), seed));
                for flips in 0..=(code.t() + 2) {
                    assert_eq!(
                        code.syndromes_of_rem(screen.rem(&cw)),
                        code.syndromes_reference(&cw),
                        "n={} t={} seed={seed} flips={flips}",
                        code.n(),
                        code.t()
                    );
                    cw[(seed as usize * 37 + flips * 101) % code.n()] ^= 1;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bits must be 0 or 1")]
    fn table_encode_rejects_non_bits() {
        let code = Bch::with_data_len(10, 2, 512);
        let mut data = vec![0u8; 512];
        data[300] = 2;
        let _ = code.encode(&data);
    }

    #[test]
    fn batch_decode_matches_scalar() {
        let code = Bch::with_data_len(10, 2, 512);
        let mut cws: Vec<Vec<u8>> = Vec::new();
        for i in 0..40u64 {
            let mut cw = code.encode(&data_pattern(512, i));
            // Mix clean lanes with 1..=t+1-error lanes.
            for e in 0..(i % 4) {
                cw[((i * 131 + e * 977) % 532) as usize] ^= 1;
            }
            cws.push(cw);
        }
        let refs: Vec<&[u8]> = cws.iter().map(Vec::as_slice).collect();
        let batch = code.decode_batch(&refs);
        for (i, cw) in cws.iter().enumerate() {
            assert_eq!(batch[i], code.decode(cw), "lane {i}");
        }
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn oversized_shortening_panics() {
        let _ = Bch::with_data_len(4, 2, 8); // k is only 7
    }

    #[test]
    #[should_panic(expected = "codeword length mismatch")]
    fn wrong_codeword_length_panics() {
        let code = Bch::new(4, 1);
        let _ = code.decode(&[0u8; 14]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bch_corrects_up_to_t_random_errors(
            data in proptest::collection::vec(0u8..=1, 231),
            errs in proptest::collection::btree_set(0usize..255, 0..=3),
        ) {
            let code = Bch::new(8, 3);
            prop_assert_eq!(code.k(), 231);
            let mut cw = code.encode(&data);
            for &p in &errs {
                cw[p] ^= 1;
            }
            let (out, fixed) = code.decode(&cw).unwrap();
            prop_assert_eq!(fixed, errs.len());
            prop_assert_eq!(out, data);
        }

        #[test]
        fn shortened_bch_corrects_up_to_t_random_errors(
            data in proptest::collection::vec(0u8..=1, 256),
            errs in proptest::collection::btree_set(0usize..296, 0..=4),
        ) {
            let code = Bch::with_data_len(10, 4, 256);
            prop_assert_eq!(code.n(), 296);
            let mut cw = code.encode(&data);
            for &p in &errs {
                cw[p] ^= 1;
            }
            let (out, fixed) = code.decode(&cw).unwrap();
            prop_assert_eq!(fixed, errs.len());
            prop_assert_eq!(out, data);
        }
    }
}
