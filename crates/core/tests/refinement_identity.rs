//! Extend once, prune per round: `recover_coefficient_block` must return
//! exactly what re-running the whole mantissa-half recovery on every
//! refinement round returns.
//!
//! Extend scores only a half's own partial products, so its candidate
//! set cannot depend on the other half; only the prune re-ranking can.
//! The test-local [`reference`] keeps the old schedule, calling
//! `recover_mantissa_half` (extend + prune) on every round, and
//! the suite compares it with the library on seeded FALCON-8 and
//! FALCON-16 captures, `f64::to_bits` on every correlation. The
//! `attack.*` counter deltas then show that each half was extended
//! exactly once per call and that the prune rounds match the reference's.
//!
//! Kept as a single `#[test]` in its own integration binary: the obs
//! metrics registry is process-global, and concurrent tests in the same
//! binary would interleave their counter deltas.

use falcon_dema::acquire::Dataset;
use falcon_dema::attack::{
    recover_coefficient_block, recover_mantissa_half, recover_sign_exponent, AttackConfig,
    CoefficientResult, ComponentResult,
};
use falcon_dema::model::{assemble_coefficient, SecretHalf};
use falcon_dema::obs;
use falcon_dema::source::{ColumnSource, TargetBlock};
use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope};
use falcon_sig::rng::Prng;
use falcon_sig::{KeyPair, LogN};

/// The pre-split schedule: the whole half recovery runs on every
/// refinement round. Returns the result and how many low and high half
/// recoveries ran.
fn reference(block: &TargetBlock<'_>, cfg: &AttackConfig) -> (CoefficientResult, u64, u64) {
    let half = |h, other| recover_mantissa_half(block, h, other, cfg);
    let (mut lo_runs, mut hi_runs) = (1, 1);
    let mut mant_lo = half(SecretHalf::Low, None);
    let mut mant_hi = half(SecretHalf::High, Some(mant_lo.value));
    for _ in 0..2 {
        let lo = half(SecretHalf::Low, Some(mant_hi.value));
        lo_runs += 1;
        let lo_stable = lo.value == mant_lo.value;
        mant_lo = lo;
        if lo_stable {
            break;
        }
        let hi = half(SecretHalf::High, Some(mant_lo.value));
        hi_runs += 1;
        let hi_stable = hi.value == mant_hi.value;
        mant_hi = hi;
        if hi_stable {
            break;
        }
    }
    let (sign, exponent) = recover_sign_exponent(block, mant_hi.value, mant_lo.value);
    let bits = assemble_coefficient(
        sign.value as u32,
        exponent.value as u32,
        mant_hi.value,
        mant_lo.value,
    );
    (CoefficientResult { bits, sign, exponent, mant_lo, mant_hi }, lo_runs, hi_runs)
}

/// Every field of a result, floats as raw bits.
fn fingerprint(r: &CoefficientResult) -> Vec<u64> {
    let mut out = vec![r.bits];
    for c in [r.sign, r.exponent, r.mant_lo, r.mant_hi] {
        let ComponentResult { value, corr, runner_up } = c;
        out.extend([value, corr.to_bits(), runner_up.to_bits()]);
    }
    out
}

/// Deltas of the attack's correlation counters over `f`.
struct Scored {
    total: u64,
    extend: u64,
    prune: u64,
}

fn scored<T>(f: impl FnOnce() -> T) -> (T, Scored) {
    let before = obs::metrics().snapshot();
    let out = f();
    let after = obs::metrics().snapshot();
    let delta = |name| after.counter_delta(&before, name);
    let s = Scored {
        total: delta("attack.correlations"),
        extend: delta("attack.extend_correlations"),
        prune: delta("attack.prune_correlations"),
    };
    (out, s)
}

/// A seeded capture of every coefficient of a FALCON-`2^logn` key at
/// the paper's noise level (σ = 8.6), where short captures leave the
/// first low-half guess unsettled often enough to need refinement.
fn capture(logn: u32, traces: usize, seed: &[u8]) -> Dataset {
    let mut rng = Prng::from_seed(seed);
    let kp = KeyPair::generate(LogN::new(logn).unwrap(), &mut rng);
    let chain = MeasurementChain {
        model: LeakageModel::hamming_weight(1.0, 8.6),
        lowpass: 0.0,
        scope: Scope { enabled: false, ..Default::default() },
        ..Default::default()
    };
    let mut device = Device::new(kp.into_parts().0, chain, seed);
    let targets: Vec<usize> = (0..1usize << logn).collect();
    Dataset::collect(&mut device, &targets, traces, &mut Prng::from_seed(b"refinement msgs"))
}

#[test]
fn extend_once_matches_per_round_half_recovery() {
    let cfg = AttackConfig::default();
    let mut longest = 0;
    for (logn, seed) in [(3, &b"refinement falcon-8"[..]), (4, &b"refinement falcon-16"[..])] {
        let ds = capture(logn, 200, seed);
        for &t in ds.targets() {
            let block = ds.target_block(t).expect("resident block");
            let ((want, lo_runs, hi_runs), ref_scored) = scored(|| reference(&block, &cfg));
            let (got, new_scored) = scored(|| recover_coefficient_block(&block, &cfg));
            assert_eq!(
                fingerprint(&got),
                fingerprint(&want),
                "FALCON-{} target {t}: result differs from the per-round reference",
                1 << logn
            );
            longest = longest.max(lo_runs + hi_runs);
            // One half recovery's extend cost, per half.
            let extend_cost = |h| scored(|| recover_mantissa_half(&block, h, None, &cfg)).1.extend;
            let (ext_lo, ext_hi) = (extend_cost(SecretHalf::Low), extend_cost(SecretHalf::High));
            assert_eq!(
                new_scored.extend,
                ext_lo + ext_hi,
                "FALCON-{} target {t}: each half must be extended exactly once",
                1 << logn
            );
            assert_eq!(new_scored.prune, ref_scored.prune, "target {t}: prune rounds differ");
            assert_eq!(
                ref_scored.total - new_scored.total,
                (lo_runs - 1) * ext_lo + (hi_runs - 1) * ext_hi,
                "target {t}: saved correlations must be exactly the repeated extends"
            );
            // The rest is the joint sign/exponent search: 2 × 2046 guesses.
            assert_eq!(new_scored.total, new_scored.extend + new_scored.prune + 2 * 2046);
        }
    }
    assert!(longest >= 4, "no target took four or more half recoveries (longest {longest})");
}
