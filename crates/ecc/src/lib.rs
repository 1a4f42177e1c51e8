//! # `mrm-ecc` — retention-aware error correction
//!
//! §4 of the MRM paper ("Retention-aware error correction") observes that a
//! block-oriented MRM interface permits error-correcting codes over *larger
//! code words with less overhead* (citing Dolinar et al. on code performance
//! as a function of block size), and that the scrub/refresh schedule and the
//! ECC strength jointly determine how close to the retention target data can
//! safely be read.
//!
//! This crate provides the real machinery to evaluate that design space:
//!
//! * [`gf`] — GF(2^m) arithmetic via log/antilog tables.
//! * [`hamming`] — SECDED extended Hamming codes (the DRAM-style baseline,
//!   e.g. (72,64)).
//! * [`bch`] — binary BCH codes with Berlekamp–Massey decoding, including
//!   shortened codes, for the large-block MRM design points.
//! * [`analysis`] — RBER→UBER math (binomial tails), iso-reliability
//!   overhead curves across codeword sizes, and scrub-interval solving.
//! * [`interleave`] — burst-error interleaving across dies/channels.

pub mod analysis;
pub mod bch;
pub mod gf;
pub mod hamming;
pub mod interleave;

pub use bch::Bch;
pub use gf::Gf;
pub use hamming::{Hamming, HammingOutcome};

/// Every byte's low bit: a `u64` of eight one-bit-per-byte values is valid
/// iff `x & !BIT_BYTES == 0`.
const BIT_BYTES: u64 = 0x0101_0101_0101_0101;

/// Gathers eight one-bit-per-byte values (little-endian `x`, byte `i` ∈
/// {0, 1}) into one byte whose bit `i` is byte `i`'s value. One multiply:
/// the constant places every byte's low bit at a distinct product
/// exponent, so the product is carry-free in its top byte.
#[inline]
fn gather8(x: u64) -> u64 {
    debug_assert!(x & !BIT_BYTES == 0, "bits must be 0 or 1");
    x.wrapping_mul(0x0102_0408_1020_4080) >> 56
}
