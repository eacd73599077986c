//! Template attack extension (paper §V.A).
//!
//! The paper notes its non-profiled attack is not a lower bound: "it is
//! possible to extend our attack by template \[20\] or machine-learning
//! based profiling techniques". This module implements that extension:
//! the adversary first *profiles* a device they control (same model,
//! known key), estimating the sample distribution conditioned on the
//! Hamming weight of the targeted micro-op word; during the attack,
//! candidates are ranked by Gaussian log-likelihood instead of
//! correlation. Profiling prices in the channel's gain and noise, which
//! buys a measurably smaller trace budget at matched settings.

use crate::acquire::Dataset;
use crate::model::{hyp_exact, KnownOperand};
use crate::source::{ColumnSource, TargetBlock};
use falcon_emsim::{Device, StepKind};
use falcon_sig::rng::Prng;

/// Gaussian leakage templates per Hamming-weight class of one micro-op
/// step: `sample | HW = h  ~  N(mean[h], var)` with a pooled variance.
#[derive(Debug, Clone)]
pub struct Templates {
    step: StepKind,
    mean: Vec<f64>,
    pooled_var: f64,
    counts: Vec<u64>,
}

impl Templates {
    /// Fits templates from `(hw, sample)` observations for `step`.
    ///
    /// Classes never observed inherit the linear trend fitted over the
    /// observed ones, so attack-phase candidates can always be scored.
    pub fn fit(step: StepKind, observations: impl IntoIterator<Item = (u32, f32)>) -> Templates {
        let mut sum = vec![0f64; 65];
        let mut sum_sq = vec![0f64; 65];
        let mut counts = vec![0u64; 65];
        for (hw, s) in observations {
            let h = hw.min(64) as usize;
            sum[h] += s as f64;
            sum_sq[h] += (s as f64) * (s as f64);
            counts[h] += 1;
        }
        let mut mean = vec![0f64; 65];
        let mut var_acc = 0f64;
        let mut var_n = 0u64;
        for h in 0..=64 {
            if counts[h] > 0 {
                mean[h] = sum[h] / counts[h] as f64;
                if counts[h] > 1 {
                    var_acc += sum_sq[h] - counts[h] as f64 * mean[h] * mean[h];
                    var_n += counts[h] - 1;
                }
            }
        }
        let pooled_var = if var_n > 0 { (var_acc / var_n as f64).max(1e-9) } else { 1.0 };
        // Linear extrapolation for unobserved classes: fit mean ≈ a·h + b
        // over the observed ones (the physical model is linear in HW).
        let (mut sx, mut sy, mut sxx, mut sxy, mut n) = (0f64, 0f64, 0f64, 0f64, 0f64);
        for h in 0..=64 {
            if counts[h] > 0 {
                let x = h as f64;
                sx += x;
                sy += mean[h];
                sxx += x * x;
                sxy += x * mean[h];
                n += 1.0;
            }
        }
        if n >= 2.0 {
            let denom = n * sxx - sx * sx;
            if denom.abs() > 1e-12 {
                let a = (n * sxy - sx * sy) / denom;
                let b = (sy - a * sx) / n;
                for h in 0..=64 {
                    if counts[h] == 0 {
                        mean[h] = a * h as f64 + b;
                    }
                }
            }
        }
        Templates { step, mean, pooled_var, counts }
    }

    /// The profiled step.
    pub fn step(&self) -> StepKind {
        self.step
    }

    /// Number of profiling observations used.
    pub fn observations(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The pooled noise variance estimate.
    pub fn noise_variance(&self) -> f64 {
        self.pooled_var
    }

    /// Gaussian log-likelihood of observing `sample` given the predicted
    /// Hamming weight `hw` (constant terms dropped).
    #[inline]
    pub fn log_likelihood(&self, hw: u32, sample: f32) -> f64 {
        let m = self.mean[hw.min(64) as usize];
        let d = sample as f64 - m;
        -d * d / (2.0 * self.pooled_var)
    }
}

/// Profiles one micro-op step on a device whose key the adversary knows
/// (the standard template-attack setting), using `n_traces` captures.
pub fn profile_step(
    device: &mut Device,
    step: StepKind,
    n_traces: usize,
    msg_rng: &mut Prng,
) -> Templates {
    let n = device.signing_key().logn().n();
    let truth: Vec<u64> = device.signing_key().f_fft().iter().map(|x| x.to_bits()).collect();
    // Profile across all coefficients of a handful of traces: every
    // multiplication is a labelled observation.
    let targets: Vec<usize> = (0..n).collect();
    let ds = Dataset::collect(device, &targets, n_traces, msg_rng);
    let blocks: Vec<TargetBlock<'_>> = targets
        .iter()
        .map(|&t| ds.target_block(t).expect("the dataset holds its targets"))
        .collect();
    let mut obs = Vec::with_capacity(n_traces * n * 2);
    for trace in 0..ds.traces() {
        for (block, &t) in blocks.iter().zip(&targets) {
            for occ in 0..2 {
                let k = KnownOperand::new(block.known(trace, occ));
                let hw = hyp_exact(truth[t], &k, step) as u32;
                obs.push((hw, block.sample(trace, occ, step)));
            }
        }
    }
    Templates::fit(step, obs)
}

/// Ranks candidate guesses by template log-likelihood.
///
/// `predict(candidate, known) -> hw` supplies the hypothesis, exactly as
/// in the correlation attack — only the distinguisher changes.
pub fn rank_by_likelihood<F: Fn(u64, &KnownOperand) -> u32>(
    block: &TargetBlock<'_>,
    templates: &Templates,
    candidates: &[u64],
    predict: F,
) -> Vec<(u64, f64)> {
    let knowns: [Vec<KnownOperand>; 2] =
        [0, 1].map(|occ| block.known_column(occ).iter().map(|&kb| KnownOperand::new(kb)).collect());
    let samples: [&[f32]; 2] = [0, 1].map(|occ| block.sample_column(occ, templates.step()));
    let mut scored: Vec<(u64, f64)> = candidates
        .iter()
        .map(|&cand| {
            let mut ll = 0f64;
            for (occ, kn) in knowns.iter().enumerate() {
                for (k, &s) in kn.iter().zip(samples[occ]) {
                    ll += templates.log_likelihood(predict(cand, k), s);
                }
            }
            (cand, ll)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(core::cmp::Ordering::Equal));
    scored
}

/// Template-based sign recovery: the profiled counterpart of the sign
/// half of [`crate::attack::recover_sign_exponent`]. Returns the winning
/// sign bit and the log-likelihood margin over the alternative.
pub fn template_sign(block: &TargetBlock<'_>, templates: &Templates) -> (u32, f64) {
    assert_eq!(templates.step(), StepKind::SignXor);
    let ranked = rank_by_likelihood(block, templates, &[0, 1], |cand, k| (cand as u32) ^ k.sign);
    (ranked[0].0 as u32, ranked[0].1 - ranked[1].1)
}

/// Smallest trace count at which the template sign recovery returns the
/// correct value for every prefix onwards (the profiled analogue of
/// traces-to-disclosure). `None` if never stable within the block.
/// Each trace count scores a borrowed prefix of `block`.
pub fn template_sign_stability(
    block: &TargetBlock<'_>,
    templates: &Templates,
    truth: u32,
) -> Option<usize> {
    let mut stable_from: Option<usize> = None;
    // Evaluate on a geometric grid to keep this O(D log D)-ish.
    let mut d = 4;
    let mut points = Vec::new();
    while d < block.traces() {
        points.push(d);
        d = (d * 5) / 4 + 1;
    }
    points.push(block.traces());
    for &d in &points {
        let (guess, _) = template_sign(&block.prefix(d), templates);
        if guess == truth {
            stable_from.get_or_insert(d);
        } else {
            stable_from = None;
        }
    }
    stable_from
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ColumnSource;
    use falcon_emsim::{LeakageModel, MeasurementChain, Scope};
    use falcon_sig::{KeyPair, LogN};

    fn device(seed: &[u8], noise: f64) -> Device {
        let mut rng = Prng::from_seed(seed);
        let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, noise),
            lowpass: 0.0,
            scope: Scope { enabled: false, ..Default::default() },
            ..Default::default()
        };
        Device::new(kp.into_parts().0, chain, b"template bench")
    }

    #[test]
    fn templates_learn_the_channel() {
        let mut profiler = device(b"profiling key", 2.0);
        let mut msgs = Prng::from_seed(b"profiling msgs");
        let t = profile_step(&mut profiler, StepKind::SignXor, 300, &mut msgs);
        // The sign word is 0/1: means must be ~0 and ~1, variance ~4.
        assert!((t.mean[0] - 0.0).abs() < 0.2, "mean[0]={}", t.mean[0]);
        assert!((t.mean[1] - 1.0).abs() < 0.2, "mean[1]={}", t.mean[1]);
        assert!((t.noise_variance() - 4.0).abs() < 0.6, "var={}", t.noise_variance());
        assert!(t.observations() > 0);
    }

    #[test]
    fn template_attack_recovers_sign_cross_device() {
        // Profile on one key, attack a different key (same bench).
        let mut profiler = device(b"profiling key", 2.0);
        let mut msgs = Prng::from_seed(b"profiling msgs");
        let templates = profile_step(&mut profiler, StepKind::SignXor, 300, &mut msgs);

        let mut victim = device(b"victim key", 2.0);
        let truth = (victim.signing_key().f_fft()[2].to_bits() >> 63) as u32;
        let mut vmsgs = Prng::from_seed(b"victim msgs");
        let ds = Dataset::collect(&mut victim, &[2], 400, &mut vmsgs);
        let (guess, margin) = template_sign(&ds.target_block(2).unwrap(), &templates);
        assert_eq!(guess, truth);
        assert!(margin > 0.0);
    }

    #[test]
    fn linear_extrapolation_fills_gaps() {
        // Observe only HW 10 and 20; HW 15 must interpolate between.
        let obs = (0..200).map(|i| if i % 2 == 0 { (10u32, 10.0f32) } else { (20u32, 20.0f32) });
        let t = Templates::fit(StepKind::Pack, obs);
        assert!((t.mean[15] - 15.0).abs() < 1e-6);
        assert!((t.mean[30] - 30.0).abs() < 1e-6);
    }
}
