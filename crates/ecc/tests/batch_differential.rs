//! Seeded differential oracle: batched decode vs the scalar path.
//!
//! `Hamming::decode_batch` (bit-sliced syndrome folds) and
//! `Bch::decode_batch` (table-driven remainder screen, remainder-derived
//! syndromes and log-domain Chien search) are pure optimizations — for every input, data *and* outcome must be bitwise
//! identical to mapping the scalar decoder over the batch. This suite
//! replays seeded random error patterns from zero flips up to and past the
//! correction budget, across chunk boundaries (the SECDED bit-slicer works
//! in lanes of 64) and across code geometries, and asserts exact equality.

use mrm_ecc::bch::Bch;
use mrm_ecc::hamming::Hamming;
use mrm_sim::rng::SimRng;

/// Flips `flips` distinct positions of `cw`, chosen by `rng`.
fn flip(cw: &mut [u8], flips: usize, rng: &mut SimRng) {
    let mut chosen: Vec<usize> = Vec::with_capacity(flips);
    while chosen.len() < flips.min(cw.len()) {
        let i = rng.gen_range_u64(cw.len() as u64) as usize;
        if !chosen.contains(&i) {
            chosen.push(i);
            cw[i] ^= 1;
        }
    }
}

fn random_bits(n: usize, rng: &mut SimRng) -> Vec<u8> {
    (0..n).map(|_| u8::from(rng.gen_bool(0.5))).collect()
}

#[test]
fn secded_batch_is_bitwise_identical_to_scalar() {
    for (k, seed) in [(64usize, 11u64), (26, 12), (120, 13)] {
        let h = Hamming::new(k);
        let mut rng = SimRng::seed_from(seed);
        // 200 lanes: 3 full bit-slice chunks + a partial one. Error weight
        // cycles 0..=3 — clean, corrected, and past-budget double errors.
        let cws: Vec<Vec<u8>> = (0..200usize)
            .map(|i| {
                let mut cw = h.encode(&random_bits(k, &mut rng));
                flip(&mut cw, i % 4, &mut rng);
                cw
            })
            .collect();
        let refs: Vec<&[u8]> = cws.iter().map(Vec::as_slice).collect();
        let batch = h.decode_batch(&refs);
        assert_eq!(batch.len(), cws.len());
        for (i, cw) in cws.iter().enumerate() {
            let scalar = h.decode(cw);
            assert_eq!(batch[i], scalar, "k={k} lane {i}");
        }
    }
}

#[test]
fn secded_batch_all_clean_chunk_early_exit_matches() {
    let h = Hamming::secded_72_64();
    let mut rng = SimRng::seed_from(99);
    let cws: Vec<Vec<u8>> = (0..128)
        .map(|_| h.encode(&random_bits(64, &mut rng)))
        .collect();
    let refs: Vec<&[u8]> = cws.iter().map(Vec::as_slice).collect();
    for (i, got) in h.decode_batch(&refs).into_iter().enumerate() {
        assert_eq!(got, h.decode(&cws[i]), "clean lane {i}");
    }
}

#[test]
fn bch_batch_is_bitwise_identical_to_scalar() {
    // The fault model's production geometry (t=2 over 512 data bits,
    // GF(2^10)), a small and a high-t code, and BCH(15,11) whose 4 parity
    // bits are too few for the byte table: the unscreened fallback.
    let codes = [
        Bch::with_data_len(10, 2, 512),
        Bch::new(6, 3),
        Bch::with_data_len(10, 4, 256),
        Bch::new(4, 1),
    ];
    for (ci, code) in codes.iter().enumerate() {
        let mut rng = SimRng::seed_from(0xBC_u64 + ci as u64);
        // Error weight sweeps 0..=t+2: through the budget and past it,
        // where the decoder must fail identically on both paths.
        let cws: Vec<Vec<u8>> = (0..60usize)
            .map(|i| {
                let mut cw = code.encode(&random_bits(code.k(), &mut rng));
                flip(&mut cw, i % (code.t() + 3), &mut rng);
                cw
            })
            .collect();
        let refs: Vec<&[u8]> = cws.iter().map(Vec::as_slice).collect();
        let batch = code.decode_batch(&refs);
        for (i, cw) in cws.iter().enumerate() {
            let scalar = code.decode(cw);
            assert_eq!(batch[i], scalar, "code {ci} lane {i}");
        }
    }
}

#[test]
fn bch_batch_all_dirty_past_budget_matches() {
    // The shape the fault model's probes see: every lane dirty, at exactly
    // t flips (always corrected) and at t+1 and t+2 (refused or
    // miscorrected) — the locator, Chien and recheck rejections all fire.
    for code in [
        Bch::with_data_len(10, 2, 512),
        Bch::new(8, 3),
        Bch::new(4, 1),
    ] {
        let t = code.t();
        let mut rng = SimRng::seed_from(0xD1E7 + t as u64);
        let mut data = Vec::new();
        let cws: Vec<Vec<u8>> = (0..300usize)
            .map(|i| {
                let bits = random_bits(code.k(), &mut rng);
                let mut cw = code.encode(&bits);
                flip(&mut cw, t + i % 3, &mut rng);
                data.push(bits);
                cw
            })
            .collect();
        let refs: Vec<&[u8]> = cws.iter().map(Vec::as_slice).collect();
        let batch = code.decode_batch(&refs);
        let (mut refused, mut miscorrected) = (0, 0);
        for (i, cw) in cws.iter().enumerate() {
            let scalar = code.decode(cw);
            match &scalar {
                Err(_) => refused += 1,
                Ok((out, _)) if *out != data[i] => miscorrected += 1,
                Ok(_) => {}
            }
            assert_eq!(batch[i], scalar, "n={} t={t} lane {i}", code.n());
        }
        // BCH(15,11) is a perfect code: every word lies within one flip of
        // a codeword, so it never refuses — past its budget it miscorrects.
        assert!(refused > 0 || t == 1, "n={}: no lane refused", code.n());
        assert!(miscorrected > 0, "n={}: no lane miscorrected", code.n());
    }
}

#[test]
fn bch_batch_into_appends_stored_rows_for_refused_lanes() {
    // The flat API: one k-bit row per lane, corrected on success and left
    // as stored on refusal, appended after whatever the buffers held.
    let code = Bch::with_data_len(10, 2, 512);
    let mut rng = SimRng::seed_from(41);
    let mut lanes = Vec::new();
    for flips in [0usize, 2, 5, 1] {
        let bits = random_bits(code.k(), &mut rng);
        let mut cw = code.encode(&bits);
        flip(&mut cw, flips, &mut rng);
        lanes.push(cw);
    }
    let refs: Vec<&[u8]> = lanes.iter().map(Vec::as_slice).collect();
    let mut data = vec![9u8];
    let mut outcomes = vec![Ok(7)];
    code.decode_batch_into(&refs, &mut data, &mut outcomes);
    assert_eq!(data.len(), 1 + 4 * code.k());
    assert_eq!((data[0], outcomes[0]), (9, Ok(7)));
    for (i, cw) in lanes.iter().enumerate() {
        let row = &data[1 + i * code.k()..1 + (i + 1) * code.k()];
        match code.decode(cw) {
            Ok((out, fixed)) => {
                assert_eq!(outcomes[1 + i], Ok(fixed), "lane {i}");
                assert_eq!(row, &out[..], "lane {i}");
            }
            Err(e) => {
                assert_eq!(outcomes[1 + i], Err(e), "lane {i}");
                assert_eq!(row, &cw[code.parity_bits()..], "lane {i}");
            }
        }
    }
}

#[test]
fn bch_batch_clean_dominated_mix_matches() {
    // The shape `mrm-faults` decode ladders see: overwhelmingly clean reads
    // with a sparse sprinkle of dirty codewords.
    let code = Bch::with_data_len(10, 2, 512);
    let mut rng = SimRng::seed_from(7777);
    let cws: Vec<Vec<u8>> = (0..256usize)
        .map(|i| {
            let mut cw = code.encode(&random_bits(code.k(), &mut rng));
            if i % 32 == 5 {
                flip(&mut cw, 1 + i % 2, &mut rng);
            }
            cw
        })
        .collect();
    let refs: Vec<&[u8]> = cws.iter().map(Vec::as_slice).collect();
    let batch = code.decode_batch(&refs);
    let mut clean = 0;
    for (i, cw) in cws.iter().enumerate() {
        let scalar = code.decode(cw);
        if matches!(&scalar, Ok((_, 0))) {
            clean += 1;
        }
        assert_eq!(batch[i], scalar, "lane {i}");
    }
    assert!(clean >= 240, "mix should be clean-dominated, got {clean}");
}

#[test]
fn empty_batch_is_a_noop_not_a_panic() {
    // Zero-length batches reach the decoders from drained fault ladders;
    // `decode_batch_into` must append nothing and leave reused buffers
    // untouched, and `decode_batch` must return an empty vec.
    use mrm_ecc::hamming::HammingOutcome;
    let h = Hamming::secded_72_64();
    let mut data = vec![7u8, 7, 7];
    let mut outcomes = vec![HammingOutcome::DoubleError];
    h.decode_batch_into(&[], &mut data, &mut outcomes);
    assert_eq!(
        data,
        vec![7u8, 7, 7],
        "reused data buffer must be preserved"
    );
    assert_eq!(outcomes, vec![HammingOutcome::DoubleError]);
    assert!(h.decode_batch(&[]).is_empty());

    let bch = Bch::with_data_len(10, 2, 256);
    assert!(bch.decode_batch(&[]).is_empty());
}
