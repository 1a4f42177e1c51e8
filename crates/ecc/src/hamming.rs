//! SECDED extended Hamming codes — the DRAM-style ECC baseline.
//!
//! Commodity DRAM/HBM ECC protects small words: the classic (72,64) SECDED
//! code adds 8 check bits to every 64 data bits (12.5% overhead) and corrects
//! one error / detects two per word. The MRM paper's §4 argument is that
//! block-level interfaces allow much larger code words (BCH in [`crate::bch`])
//! with lower overhead at equal or better protection; this module provides
//! the small-word baseline for that comparison.
//!
//! Bits are represented one-per-`u8` (values 0/1) for clarity; the codec is
//! still fast enough to stream hundreds of MB/s in `perf_suite`.

use crate::gather8;

/// Outcome of decoding one SECDED word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HammingOutcome {
    /// No error detected.
    Clean,
    /// A single-bit error was corrected at the given codeword position.
    Corrected(usize),
    /// The overall parity bit itself was wrong and was fixed.
    ParityCorrected,
    /// A double-bit error was detected; data is not trustworthy.
    DoubleError,
}

/// An extended Hamming (SECDED) code for a configurable data width.
///
/// # Examples
///
/// ```
/// use mrm_ecc::hamming::{Hamming, HammingOutcome};
///
/// let code = Hamming::secded_72_64();
/// let data: Vec<u8> = (0..64).map(|i| (i % 3 == 0) as u8).collect();
/// let mut cw = code.encode(&data);
/// cw[17] ^= 1; // inject a single-bit error
/// let (decoded, outcome) = code.decode(&cw);
/// assert_eq!(outcome, HammingOutcome::Corrected(17));
/// assert_eq!(decoded, data);
/// ```
#[derive(Clone, Debug)]
pub struct Hamming {
    /// Data bits per word.
    k: usize,
    /// Hamming parity bits (excluding the overall parity bit).
    r: usize,
    /// Parity-group masks over the bit-packed codeword for
    /// [`Hamming::decode_batch_into`], `codeword_len().div_ceil(64)` words
    /// per group: group `j` covers every position with bit `j` set,
    /// exactly as in [`Hamming::decode`].
    masks: Vec<u64>,
    /// The data positions as half-open runs between consecutive parity
    /// positions (`3..4`, `5..8`, `9..16`, ...), so a clean lane's data
    /// bits are a handful of slice copies.
    data_runs: Vec<(usize, usize)>,
}

impl Hamming {
    /// Creates a SECDED code for `k` data bits.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or needs more than 16 parity bits.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "data width must be positive");
        let mut r = 0usize;
        while (1usize << r) < r + k + 1 {
            r += 1;
            assert!(r <= 16, "data width too large");
        }
        let n = k + r + 1;
        let words = n.div_ceil(64);
        let mut masks = vec![0u64; r * words];
        for pos in 1..n {
            for j in 0..r {
                if pos & (1usize << j) != 0 {
                    masks[j * words + (pos >> 6)] |= 1u64 << (pos & 63);
                }
            }
        }
        // r is minimal, so 2^(r-1) + 1 < n ≤ 2^r: every run is non-empty
        // and the last one ends at n.
        let data_runs = (1..r)
            .map(|j| ((1usize << j) + 1, (1usize << (j + 1)).min(n)))
            .collect();
        Hamming {
            k,
            r,
            masks,
            data_runs,
        }
    }

    /// The classic (72,64) DRAM SECDED geometry.
    pub fn secded_72_64() -> Self {
        let h = Hamming::new(64);
        debug_assert_eq!(h.codeword_len(), 72);
        h
    }

    /// Data bits per word.
    pub fn data_len(&self) -> usize {
        self.k
    }

    /// Total codeword bits: data + Hamming parity + overall parity.
    pub fn codeword_len(&self) -> usize {
        self.k + self.r + 1
    }

    /// Code-rate overhead: check bits / codeword bits.
    pub fn overhead(&self) -> f64 {
        (self.r + 1) as f64 / self.codeword_len() as f64
    }

    /// Encodes `data` (one bit per byte, values 0/1).
    ///
    /// Layout: index 0 holds the overall parity; indices `1..` hold the
    /// classic Hamming arrangement (powers of two are parity positions).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.data_len()` or any value is not 0/1.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut cw = Vec::with_capacity(self.codeword_len());
        self.encode_into(data, &mut cw);
        cw
    }

    /// Allocation-free core of [`Hamming::encode`]: replaces the contents
    /// of `cw` with the codeword for `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.data_len()` or any value is not 0/1.
    pub fn encode_into(&self, data: &[u8], cw: &mut Vec<u8>) {
        assert_eq!(data.len(), self.k, "data length mismatch");
        cw.clear();
        cw.resize(self.codeword_len(), 0);
        // Place data bits at non-power-of-two positions ≥ 1.
        let mut di = 0;
        for (pos, slot) in cw.iter_mut().enumerate().skip(1) {
            if !pos.is_power_of_two() {
                let bit = data[di];
                assert!(bit <= 1, "bits must be 0 or 1");
                *slot = bit;
                di += 1;
            }
        }
        debug_assert_eq!(di, self.k);
        // Hamming parity bits: parity bit at position 2^j covers every
        // position with bit j set.
        for j in 0..self.r {
            let p = 1usize << j;
            let mut parity = 0u8;
            for (pos, cw_bit) in cw.iter().enumerate().skip(1) {
                if pos & p != 0 && pos != p {
                    parity ^= cw_bit;
                }
            }
            cw[p] = parity;
        }
        // Overall parity over everything else (even parity).
        cw[0] = cw[1..].iter().fold(0u8, |a, &b| a ^ b);
    }

    /// Decodes a codeword, correcting a single-bit error if present.
    ///
    /// Returns the recovered data bits and the [`HammingOutcome`]. On
    /// [`HammingOutcome::DoubleError`] the returned data is best-effort and
    /// must not be trusted.
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != self.codeword_len()`.
    pub fn decode(&self, cw: &[u8]) -> (Vec<u8>, HammingOutcome) {
        assert_eq!(cw.len(), self.codeword_len(), "codeword length mismatch");
        let mut cw = cw.to_vec();
        // Syndrome: XOR of positions whose parity group fails.
        let mut syndrome = 0usize;
        for j in 0..self.r {
            let p = 1usize << j;
            let mut parity = 0u8;
            for (pos, cw_bit) in cw.iter().enumerate().skip(1) {
                if pos & p != 0 {
                    parity ^= cw_bit;
                }
            }
            if parity != 0 {
                syndrome |= p;
            }
        }
        let overall = cw.iter().fold(0u8, |a, &b| a ^ b);
        let outcome = self.apply_syndrome(&mut cw, syndrome, overall);
        (self.extract_data(&cw), outcome)
    }

    /// Decodes a batch of codewords, one `(data, outcome)` pair per lane —
    /// a convenience wrapper over [`Hamming::decode_batch_into`]. Results
    /// are bitwise identical to mapping [`Hamming::decode`] over the batch
    /// (asserted by the differential suite in `tests/batch_differential.rs`).
    ///
    /// # Panics
    ///
    /// Panics if any codeword's length differs from `codeword_len()`.
    pub fn decode_batch(&self, cws: &[&[u8]]) -> Vec<(Vec<u8>, HammingOutcome)> {
        let mut data = Vec::new();
        let mut outcomes = Vec::new();
        self.decode_batch_into(cws, &mut data, &mut outcomes);
        data.chunks_exact(self.k)
            .map(<[u8]>::to_vec)
            .zip(outcomes)
            .collect()
    }

    /// Flat-output core of [`Hamming::decode_batch`]: appends `data_len()`
    /// recovered bits per lane to `data` (one contiguous row per codeword)
    /// and one [`HammingOutcome`] per lane to `outcomes`. Reusing the two
    /// buffers across calls makes the decode cost purely per-batch — no
    /// per-lane allocation — which is how the fault-model decode ladders
    /// and the `ecc_batch_decode` perf scenario drive it.
    ///
    /// Syndromes are table-free and word-parallel: each lane's 0/1 bytes
    /// are gathered into `u64` bit words eight bytes per multiply (the
    /// gather constant places every byte's LSB at a distinct product
    /// exponent, so the multiply is carry-free and exact), every parity
    /// group folds to one bit via mask + popcount, and clean lanes copy
    /// their data bits as a few contiguous runs — no per-bit branching, no
    /// codeword copy. The masks and runs are built once in
    /// [`Hamming::new`], so a batch of a few lanes costs only its lanes.
    ///
    /// # Panics
    ///
    /// Panics if any codeword's length differs from `codeword_len()`.
    pub fn decode_batch_into(
        &self,
        cws: &[&[u8]],
        data: &mut Vec<u8>,
        outcomes: &mut Vec<HammingOutcome>,
    ) {
        let n = self.codeword_len();
        let words = n.div_ceil(64);
        data.reserve(self.k * cws.len());
        outcomes.reserve(cws.len());
        let mut w = vec![0u64; words];
        for cw in cws {
            assert_eq!(cw.len(), n, "codeword length mismatch");
            w.iter_mut().for_each(|x| *x = 0);
            // Gather the one-bit-per-byte codeword into packed bit words.
            let mut chunks = cw.chunks_exact(8);
            for (i, ch) in chunks.by_ref().enumerate() {
                let x = u64::from_le_bytes(ch.try_into().expect("chunk is 8 bytes"));
                w[i >> 3] |= gather8(x) << ((i & 7) * 8);
            }
            let base = n & !7;
            for (i, &b) in chunks.remainder().iter().enumerate() {
                debug_assert!(b <= 1, "bits must be 0 or 1");
                let pos = base + i;
                w[pos >> 6] |= u64::from(b) << (pos & 63);
            }
            // Overall parity plus one mask-and-popcount fold per group.
            let overall = w.iter().fold(0u32, |a, x| a + x.count_ones()) & 1;
            let mut syndrome = 0usize;
            for (j, m) in self.masks.chunks_exact(words).enumerate() {
                let par = w
                    .iter()
                    .zip(m)
                    .fold(0u32, |a, (x, mm)| a + (x & mm).count_ones())
                    & 1;
                syndrome |= (par as usize) << j;
            }
            if syndrome == 0 && overall == 0 {
                // Clean fast path: copy the data runs straight off the input.
                for &(a, b) in &self.data_runs {
                    data.extend_from_slice(&cw[a..b]);
                }
                outcomes.push(HammingOutcome::Clean);
                continue;
            }
            let mut cw = cw.to_vec();
            let outcome = self.apply_syndrome(&mut cw, syndrome, overall as u8);
            data.extend_from_slice(&self.extract_data(&cw));
            outcomes.push(outcome);
        }
    }

    /// Classifies a computed `(syndrome, overall)` pair and applies the
    /// single-bit fix in place — the shared back half of [`Hamming::decode`]
    /// and [`Hamming::decode_batch`].
    fn apply_syndrome(&self, cw: &mut [u8], syndrome: usize, overall: u8) -> HammingOutcome {
        match (syndrome, overall) {
            (0, 0) => HammingOutcome::Clean,
            (0, _) => {
                cw[0] ^= 1;
                HammingOutcome::ParityCorrected
            }
            (s, 1) if s < cw.len() => {
                cw[s] ^= 1;
                HammingOutcome::Corrected(s)
            }
            _ => HammingOutcome::DoubleError,
        }
    }

    /// Pulls the data bits out of a (possibly corrected) codeword.
    fn extract_data(&self, cw: &[u8]) -> Vec<u8> {
        let mut data = Vec::with_capacity(self.k);
        for (pos, &b) in cw.iter().enumerate().skip(1) {
            if !pos.is_power_of_two() {
                data.push(b);
            }
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(k: usize, seed: u64) -> Vec<u8> {
        (0..k)
            .map(|i| (((i as u64).wrapping_mul(seed + 7) >> 3) & 1) as u8)
            .collect()
    }

    #[test]
    fn geometry_72_64() {
        let h = Hamming::secded_72_64();
        assert_eq!(h.data_len(), 64);
        assert_eq!(h.codeword_len(), 72);
        assert!((h.overhead() - 8.0 / 72.0).abs() < 1e-12);
    }

    #[test]
    fn clean_roundtrip() {
        for k in [4usize, 11, 26, 57, 64, 120] {
            let h = Hamming::new(k);
            let data = pattern(k, k as u64);
            let cw = h.encode(&data);
            let (out, outcome) = h.decode(&cw);
            assert_eq!(outcome, HammingOutcome::Clean, "k={k}");
            assert_eq!(out, data, "k={k}");
        }
    }

    #[test]
    fn every_single_bit_error_is_corrected() {
        let h = Hamming::new(64);
        let data = pattern(64, 3);
        let cw = h.encode(&data);
        for i in 0..h.codeword_len() {
            let mut bad = cw.clone();
            bad[i] ^= 1;
            let (out, outcome) = h.decode(&bad);
            match outcome {
                HammingOutcome::Corrected(pos) => assert_eq!(pos, i),
                HammingOutcome::ParityCorrected => assert_eq!(i, 0),
                other => panic!("bit {i}: unexpected outcome {other:?}"),
            }
            assert_eq!(out, data, "bit {i} not corrected");
        }
    }

    #[test]
    fn every_double_bit_error_is_detected() {
        let h = Hamming::new(26);
        let data = pattern(26, 9);
        let cw = h.encode(&data);
        let n = h.codeword_len();
        for i in 0..n {
            for j in (i + 1)..n {
                let mut bad = cw.clone();
                bad[i] ^= 1;
                bad[j] ^= 1;
                let (_, outcome) = h.decode(&bad);
                assert_eq!(outcome, HammingOutcome::DoubleError, "bits {i},{j}");
            }
        }
    }

    #[test]
    fn all_zero_and_all_one_data() {
        let h = Hamming::secded_72_64();
        for bit in [0u8, 1] {
            let data = vec![bit; 64];
            let cw = h.encode(&data);
            let (out, outcome) = h.decode(&cw);
            assert_eq!(outcome, HammingOutcome::Clean);
            assert_eq!(out, data);
        }
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn wrong_data_length_panics() {
        Hamming::new(8).encode(&[1, 0, 1]);
    }

    #[test]
    fn batch_decode_matches_scalar_across_chunks() {
        // 130 codewords (> 2 full lanes): clean, single-error, parity-error
        // and double-error lanes interleaved.
        let h = Hamming::secded_72_64();
        let mut cws: Vec<Vec<u8>> = Vec::new();
        for i in 0..130usize {
            let mut cw = h.encode(&pattern(64, i as u64));
            match i % 4 {
                1 => cw[(i * 7) % 72] ^= 1,
                2 => cw[0] ^= 1,
                3 => {
                    cw[5] ^= 1;
                    cw[(11 + i) % 72] ^= 1;
                }
                _ => {}
            }
            cws.push(cw);
        }
        let refs: Vec<&[u8]> = cws.iter().map(Vec::as_slice).collect();
        let batch = h.decode_batch(&refs);
        assert_eq!(batch.len(), cws.len());
        for (i, cw) in cws.iter().enumerate() {
            assert_eq!(batch[i], h.decode(cw), "lane {i}");
        }
    }

    #[test]
    fn decode_batch_into_appends_flat_rows() {
        let h = Hamming::secded_72_64();
        let cw0 = h.encode(&pattern(64, 1));
        let mut cw1 = h.encode(&pattern(64, 2));
        cw1[9] ^= 1;
        // Pre-existing buffer contents must survive: the API appends.
        let mut data = vec![9u8];
        let mut outcomes = vec![HammingOutcome::DoubleError];
        h.decode_batch_into(&[&cw0, &cw1], &mut data, &mut outcomes);
        assert_eq!(data.len(), 1 + 2 * 64);
        assert_eq!(data[0], 9);
        assert_eq!(&data[1..65], &pattern(64, 1)[..]);
        assert_eq!(&data[65..], &pattern(64, 2)[..]);
        assert_eq!(
            outcomes,
            vec![
                HammingOutcome::DoubleError,
                HammingOutcome::Clean,
                HammingOutcome::Corrected(9),
            ]
        );
    }

    #[test]
    fn batch_decode_empty_and_partial_chunk() {
        let h = Hamming::new(26);
        assert!(h.decode_batch(&[]).is_empty());
        let cw = h.encode(&pattern(26, 5));
        let batch = h.decode_batch(&[cw.as_slice()]);
        assert_eq!(batch[0], h.decode(&cw));
    }

    #[test]
    fn overhead_shrinks_with_word_size() {
        // The Dolinar direction even within Hamming: bigger words,
        // proportionally fewer check bits.
        let small = Hamming::new(8).overhead();
        let medium = Hamming::new(64).overhead();
        let large = Hamming::new(512).overhead();
        assert!(small > medium && medium > large);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn roundtrip_any_data(data in proptest::collection::vec(0u8..=1, 64)) {
            let h = Hamming::secded_72_64();
            let cw = h.encode(&data);
            let (out, outcome) = h.decode(&cw);
            prop_assert_eq!(outcome, HammingOutcome::Clean);
            prop_assert_eq!(out, data);
        }

        #[test]
        fn single_error_always_corrected(
            data in proptest::collection::vec(0u8..=1, 64),
            pos in 0usize..72,
        ) {
            let h = Hamming::secded_72_64();
            let mut cw = h.encode(&data);
            cw[pos] ^= 1;
            let (out, outcome) = h.decode(&cw);
            prop_assert_ne!(outcome, HammingOutcome::DoubleError);
            prop_assert_ne!(outcome, HammingOutcome::Clean);
            prop_assert_eq!(out, data);
        }

        #[test]
        fn double_error_always_detected(
            data in proptest::collection::vec(0u8..=1, 64),
            a in 0usize..72,
            b in 0usize..72,
        ) {
            prop_assume!(a != b);
            let h = Hamming::secded_72_64();
            let mut cw = h.encode(&data);
            cw[a] ^= 1;
            cw[b] ^= 1;
            let (_, outcome) = h.decode(&cw);
            prop_assert_eq!(outcome, HammingOutcome::DoubleError);
        }
    }
}
