//! Property tests for the `PearsonSums` algebra and the estimator
//! family around it.
//!
//! Where `kernel_differential.rs` pins *kernels* against each other,
//! this suite pins the *algebra* the attack relies on: column splits
//! must not change the accumulated sums, the estimator must be
//! permutation-invariant up to rounding, and the three Pearson
//! implementations (one-pass sums, two-pass centered, streaming
//! Welford) must agree — including at the catastrophic-cancellation
//! offset regime the two-pass rewrite fixed.

use falcon_dema::cpa::{pearson, pearson_evolution, PearsonSums, SampleSums};

/// Deterministic splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn fuzz_columns(rng: &mut Rng, len: usize) -> (Vec<f64>, Vec<f32>) {
    let h: Vec<f64> = (0..len).map(|_| (rng.next() % 120) as f64 - 10.0).collect();
    // Samples correlated with the hypotheses plus deterministic noise,
    // like real leakage — keeps the final r away from degenerate 0.
    let t: Vec<f32> =
        h.iter().map(|&v| (v + (rng.next() % 64) as f64 / 8.0 - 4.0) as f32).collect();
    (h, t)
}

#[test]
fn split_column_equals_whole_column() {
    // Feeding a column in fragments must equal the one-shot feed: to
    // rounding for the estimator (each fragment runs its own lane fold,
    // so the f64 additions regroup — exact bit-equality is not a
    // property of any split), and **bit-identically** for a repeat of
    // the *same* split — the reproducibility the determinism suite
    // builds on when chunked/streamed feeding (out-of-core datasets,
    // executor chunking) picks a fixed fragmentation.
    let mut rng = Rng(0x5714);
    for &len in &[32usize, 64, 4096] {
        let (h, t) = fuzz_columns(&mut rng, len);
        let mut whole = PearsonSums::default();
        whole.push_column(&h, &t, &SampleSums::new(&t));
        for cut in [1usize, 4, 7, 16, len / 2 + 1, len - 4] {
            let feed = |(ha, ta): (&[f64], &[f32]), (hb, tb): (&[f64], &[f32])| {
                let mut s = PearsonSums::default();
                s.push_column(ha, ta, &SampleSums::new(ta));
                s.push_column(hb, tb, &SampleSums::new(tb));
                s
            };
            let split = feed((&h[..cut], &t[..cut]), (&h[cut..], &t[cut..]));
            assert_eq!(split.len(), whole.len());
            assert!(
                (split.corr() - whole.corr()).abs() < 1e-12,
                "split at {cut} of {len}: {} vs {}",
                split.corr(),
                whole.corr()
            );
            // The same split replayed is bit-identical.
            let replay = feed((&h[..cut], &t[..cut]), (&h[cut..], &t[cut..]));
            assert_eq!(
                split.components().map(f64::to_bits),
                replay.components().map(f64::to_bits),
                "replayed split at {cut} of {len} must be bit-identical"
            );
        }
    }
}

#[test]
fn scalar_push_equals_push_column_to_rounding() {
    let mut rng = Rng(0xACC);
    for &len in &[1usize, 5, 63, 500] {
        let (h, t) = fuzz_columns(&mut rng, len);
        let mut tiled = PearsonSums::default();
        tiled.push_column(&h, &t, &SampleSums::new(&t));
        let mut scalar = PearsonSums::default();
        for (&hv, &tv) in h.iter().zip(&t) {
            scalar.push(hv, tv as f64);
        }
        assert_eq!(tiled.len(), scalar.len());
        assert!((tiled.corr() - scalar.corr()).abs() < 1e-12, "len={len}");
        assert!((tiled.hyp_variance() - scalar.hyp_variance()).abs() < 1e-9, "len={len}");
    }
}

#[test]
fn permutation_invariance_of_final_r() {
    // Pearson is mathematically invariant under any simultaneous
    // permutation of the (h, t) pairs; floating-point summation order
    // moves the result only at rounding level. 1e-12 on r guards
    // against any accidental order-sensitivity beyond rounding (e.g. a
    // pairing bug between the columns).
    let mut rng = Rng(0xBEEF);
    for &len in &[17usize, 256, 1001] {
        let (h, t) = fuzz_columns(&mut rng, len);
        let mut s = PearsonSums::default();
        s.push_column(&h, &t, &SampleSums::new(&t));
        let reference = s.corr();
        for round in 0..4u64 {
            // Deterministic Fisher-Yates.
            let mut idx: Vec<usize> = (0..len).collect();
            for i in (1..len).rev() {
                let j = (rng.next() as usize) % (i + 1);
                idx.swap(i, j);
            }
            let hp: Vec<f64> = idx.iter().map(|&i| h[i]).collect();
            let tp: Vec<f32> = idx.iter().map(|&i| t[i]).collect();
            let mut p = PearsonSums::default();
            p.push_column(&hp, &tp, &SampleSums::new(&tp));
            assert!(
                (p.corr() - reference).abs() < 1e-12,
                "permutation {round} of len {len}: {} vs {reference}",
                p.corr()
            );
            // The two-pass estimator must agree with itself permuted
            // and with the one-pass sums on this well-conditioned data.
            assert!((pearson(&hp, &tp) - reference).abs() < 1e-12);
        }
    }
}

/// Offset regression data from the PR 3 cancellation fix: a DC-coupled
/// baseline of 1e7 on every sample, a ×16 signal that survives f32
/// quantisation, and an exactly-representable offset so the
/// offset-removed reference is exact.
fn offset_data() -> (Vec<f64>, Vec<f32>, Vec<f32>) {
    let h: Vec<f64> = (0..2000).map(|i| ((i * 37) % 32) as f64).collect();
    let t: Vec<f32> = h
        .iter()
        .enumerate()
        .map(|(i, &v)| (1.0e7 + 16.0 * v + ((i * 13) % 7) as f64) as f32)
        .collect();
    let t0: Vec<f32> = t.iter().map(|&v| v - 1.0e7).collect();
    (h, t, t0)
}

#[test]
fn welford_vs_two_pass_at_large_offset() {
    // The 1e7-offset case: the two-pass `pearson` and the streaming
    // Welford `pearson_evolution` must agree with the exact
    // offset-removed reference; the one-pass power sums (PearsonSums)
    // visibly cannot — which is exactly why the attack only feeds it
    // near-zero-mean leakage. The suite pins both sides of that
    // contract so a future "optimisation" cannot silently swap
    // estimators across regimes.
    let (h, t, t0) = offset_data();
    let reference = pearson(&h, &t0);
    assert!(reference > 0.99, "planted signal must dominate: {reference}");
    assert!((pearson(&h, &t) - reference).abs() < 1e-12, "two-pass lost the offset war");
    let evo = pearson_evolution(&h, &t);
    assert!((evo.last().unwrap() - reference).abs() < 1e-9, "Welford lost the offset war");
    let mut sums = PearsonSums::default();
    sums.push_column(&h, &t, &SampleSums::new(&t));
    assert!(
        (sums.corr() - reference).abs() > 1e-8,
        "one-pass sums unexpectedly survived the 1e7 offset — if this regime became exact, \
         revisit the estimator-selection notes in cpa.rs"
    );
}

#[test]
fn evolution_prefix_matches_batch() {
    // Every prefix of the Welford evolution equals the two-pass
    // estimator over that prefix (to accumulation rounding) — the
    // evolution plot is a sliding version of the same statistic, not a
    // different one.
    let mut rng = Rng(0xE70);
    let (h, t) = fuzz_columns(&mut rng, 300);
    let evo = pearson_evolution(&h, &t);
    for &cut in &[2usize, 17, 150, 300] {
        let direct = pearson(&h[..cut], &t[..cut]);
        assert!((evo[cut - 1] - direct).abs() < 1e-9, "prefix {cut}: {} vs {direct}", evo[cut - 1]);
    }
}
