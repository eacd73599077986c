//! Statistical significance of correlation estimates.
//!
//! The paper declares a leak exploited once the correct guess's
//! correlation exceeds the 99.99 % confidence interval of the
//! no-correlation hypothesis while all wrong guesses stay inside it.
//! Under Fisher's z-transform, an empirical correlation over `D` traces
//! is significant at level `α` when `|r| > tanh(z_α / √(D − 3))`.
//!
//! [`disclosure`] is the one measurement of a known coefficient's leak
//! at one micro-op step: every traces-to-disclosure figure of the claim
//! programs comes from it.

use crate::cpa::pearson_evolution;
use crate::model::{hyp_exact, KnownOperand};
use crate::source::TargetBlock;
use falcon_emsim::StepKind;

/// Two-sided standard-normal quantile for 99.99 % confidence.
pub const Z_9999: f64 = 3.890_591_886;

/// The correlation magnitude that is significant at 99.99 % for `d`
/// traces.
pub fn threshold_9999(d: u64) -> f64 {
    threshold(d, Z_9999)
}

/// Significance threshold for an arbitrary normal quantile `z`.
pub fn threshold(d: u64, z: f64) -> f64 {
    if d <= 3 {
        return 1.0;
    }
    (z / ((d - 3) as f64).sqrt()).tanh()
}

/// Given a correlation-evolution series for the correct guess (entry `i`
/// = correlation over `i + 1` traces), the smallest trace count at which
/// the correlation crosses the 99.99 % threshold **and stays above it**
/// for the rest of the series. `None` if it never stabilises.
pub fn traces_to_disclosure(evolution: &[f64]) -> Option<usize> {
    stable_crossing(evolution, 1)
}

/// [`traces_to_disclosure`] for a series whose entry `i` correlates
/// `samples_per_entry · (i + 1)` samples.
fn stable_crossing(evolution: &[f64], samples_per_entry: u64) -> Option<usize> {
    let mut candidate: Option<usize> = None;
    for (i, &r) in evolution.iter().enumerate() {
        if r.abs() > threshold_9999(samples_per_entry * (i + 1) as u64) {
            candidate.get_or_insert(i + 1);
        } else {
            candidate = None;
        }
    }
    candidate
}

/// How a known coefficient's leak at one micro-op step grows with the
/// number of traces.
#[derive(Debug, Clone, PartialEq)]
pub struct Disclosure {
    /// Entry `i`: the correlation over both occurrences of traces
    /// `0..=i` between the step's samples and the coefficient's exact
    /// hypothesis.
    pub evolution: Vec<f64>,
    /// Traces until the correlation clears the 99.99 % threshold for
    /// good, the threshold counting two correlated samples per trace
    /// (`None` = never stable).
    pub traces: Option<usize>,
}

impl Disclosure {
    /// The correlation over every trace of the block.
    pub fn final_corr(&self) -> f64 {
        self.evolution.last().copied().unwrap_or(0.0)
    }
}

/// Measures how soon `block`'s samples at `step` disclose the known
/// coefficient `secret_bits`: the hypothesis is
/// [`hyp_exact`]`(secret_bits, known, step)`, and each trace adds the
/// samples of both occurrences, since one occurrence alone can hide a
/// component (the sign of `FFT(f)[n/2]` meets an always-positive known
/// operand at occurrence 0).
pub fn disclosure(block: &TargetBlock<'_>, secret_bits: u64, step: StepKind) -> Disclosure {
    let (mut hyps, mut samples) = (Vec::new(), Vec::new());
    for trace in 0..block.traces() {
        for occ in 0..2 {
            let known = KnownOperand::new(block.known(trace, occ));
            hyps.push(hyp_exact(secret_bits, &known, step));
            samples.push(block.sample(trace, occ, step));
        }
    }
    // The pooled series covers whole traces at its odd entries.
    let evolution: Vec<f64> =
        pearson_evolution(&hyps, &samples).into_iter().skip(1).step_by(2).collect();
    let traces = stable_crossing(&evolution, 2);
    Disclosure { evolution, traces }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_shrinks_with_traces() {
        assert_eq!(threshold_9999(2), 1.0);
        let t100 = threshold_9999(100);
        let t10k = threshold_9999(10_000);
        assert!(t100 > t10k);
        // Spot value: tanh(3.8906/sqrt(9997)) ≈ 0.0389.
        assert!((t10k - 0.0389).abs() < 0.0005, "t10k={t10k}");
    }

    #[test]
    fn disclosure_point_requires_stability() {
        // Crosses at 100 traces, dips at 150, re-crosses at 200.
        let mut evo = vec![0.0; 99];
        evo.extend(vec![0.9; 50]); // 100..=149
        evo.push(0.0001); // 150: dip
        evo.extend(vec![0.9; 100]); // 151..
        assert_eq!(traces_to_disclosure(&evo), Some(151));
    }

    #[test]
    fn no_disclosure_when_noise() {
        let evo = vec![0.001; 500];
        assert_eq!(traces_to_disclosure(&evo), None);
    }

    #[test]
    fn immediate_strong_leak() {
        let evo = vec![0.95; 100];
        // tanh(3.8906/sqrt(d-3)) falls below 0.95 from d = 8 onward.
        assert_eq!(traces_to_disclosure(&evo), Some(8));
        assert!(threshold_9999(7) > 0.95 && threshold_9999(8) < 0.95);
    }

    /// A block whose `step` samples are `offset + 16·hyp_exact(secret)`
    /// plus a small deterministic wobble, at every other step zero.
    fn fixture(secret: u64, step: StepKind, traces: usize, offset: f64) -> TargetBlock<'static> {
        use crate::acquire::POINTS_PER_TARGET;
        let knowns: Vec<u64> = (0..2 * traces as u64)
            .map(|i| (1.0 + (i * 7919 % 1000) as f64 * 0.731 - 300.0).to_bits())
            .collect();
        let mut points = vec![0f32; POINTS_PER_TARGET * traces];
        for occ in 0..2 {
            for t in 0..traces {
                let known = KnownOperand::new(knowns[occ * traces + t]);
                let wobble = ((t * 13 + occ * 5) % 7) as f64;
                points[(occ * StepKind::COUNT + step as usize) * traces + t] =
                    (offset + 16.0 * hyp_exact(secret, &known, step) + wobble) as f32;
            }
        }
        TargetBlock::new(0, traces, knowns.into(), points.into()).unwrap()
    }

    #[test]
    fn disclosure_entry_is_the_two_pass_correlation_of_both_occurrences() {
        use crate::cpa::pearson;
        let secret = 0xC060_17BC_8036_B580;
        for offset in [0.0, 1.0e7] {
            for step in [StepKind::ExponentAdd, StepKind::PpLoLo, StepKind::AddLoHi] {
                let block = fixture(secret, step, 300, offset);
                let out = disclosure(&block, secret, step);
                assert_eq!(out.evolution.len(), 300);
                for i in [1usize, 16, 149, 299] {
                    // Occurrence 0 then occurrence 1: the pooled order
                    // must not matter.
                    let (mut hyps, mut samples) = (Vec::new(), Vec::new());
                    for occ in 0..2 {
                        for t in 0..=i {
                            let known = KnownOperand::new(block.known(t, occ));
                            hyps.push(hyp_exact(secret, &known, step));
                            samples.push(block.sample(t, occ, step) as f64 - offset);
                        }
                    }
                    let samples: Vec<f32> = samples.into_iter().map(|v| v as f32).collect();
                    let direct = pearson(&hyps, &samples);
                    assert!(
                        (out.evolution[i] - direct).abs() < 1e-9,
                        "{step:?} offset {offset} entry {i}: {} vs {direct}",
                        out.evolution[i]
                    );
                }
                // The threshold counts two samples per trace.
                let d = out.traces.expect("a clean planted leak discloses");
                assert!(out.evolution[d - 1].abs() > threshold_9999(2 * d as u64));
                assert!(d == 1 || out.evolution[d - 2].abs() <= threshold_9999(2 * d as u64 - 2));
                assert_eq!(out.final_corr(), out.evolution[299]);
            }
        }
    }

    #[test]
    fn sign_of_the_middle_coefficient_discloses_through_both_occurrences() {
        use crate::acquire::Dataset;
        use crate::source::ColumnSource;
        use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope};
        use falcon_sig::rng::Prng;
        use falcon_sig::{KeyPair, LogN};

        let kp = KeyPair::generate(LogN::new(4).unwrap(), &mut Prng::from_seed(b"n/2 key"));
        let sk = kp.into_parts().0;
        let target = sk.f_fft().len() / 2;
        let truth = sk.f_fft()[target].to_bits();
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, 2.0),
            lowpass: 0.0,
            scope: Scope { enabled: false, ..Default::default() },
            ..Default::default()
        };
        let mut dev = Device::new(sk, chain, b"n/2 bench");
        let ds = Dataset::collect(&mut dev, &[target], 600, &mut Prng::from_seed(b"n/2 msgs"));
        let block = ds.target_block(target).unwrap();
        // Im FFT(c)[0] = Σ c_k sin(kπ/n) with every c_k ≥ 0: the known
        // operand of occurrence 0 is always positive, so that
        // occurrence's sign word never varies.
        let occ0: Vec<f64> = block
            .known_column(0)
            .iter()
            .map(|&k| hyp_exact(truth, &KnownOperand::new(k), StepKind::SignXor))
            .collect();
        assert!(occ0.iter().all(|&h| h == occ0[0]), "occurrence 0's sign hypothesis varies");
        let sign = disclosure(&block, truth, StepKind::SignXor);
        assert!(sign.traces.is_some(), "the sign never disclosed: {}", sign.final_corr());
        assert!(sign.final_corr() > 0.0);
    }
}
