//! CPA against an NTT-based implementation (paper §V.C).
//!
//! The paper argues the integer NTT leaks *more* than the floating-point
//! FFT: the modular product's non-linearity separates wrong guesses much
//! faster. This module runs the same Pearson distinguisher against the
//! simulated NTT device so the benchmark harness can put numbers on that
//! comparison.

use crate::confidence::traces_to_disclosure;
use crate::cpa::{pearson, pearson_evolution};
use falcon_emsim::ntt_leak::NttDevice;
use falcon_sig::ntt::mq_mul;
use falcon_sig::params::Q;
use falcon_sig::rng::Prng;

/// Result of attacking one NTT-domain coefficient.
#[derive(Debug, Clone, PartialEq)]
pub struct NttAttackResult {
    /// Best guess for the secret NTT-domain coefficient.
    pub guess: u32,
    /// Its correlation.
    pub corr: f64,
    /// Runner-up correlation.
    pub runner_up: f64,
    /// Traces to stable 99.99 % disclosure for the true value.
    pub disclosure: Option<usize>,
}

/// Scores all q guesses of one NTT-domain coefficient against a single
/// known/sample column pair and returns `(guess, corr, runner_up)`.
fn score_ntt_column(knowns: &[u32], samples: &[f32]) -> (u32, f64, f64) {
    let guesses: Vec<u32> = (0..Q).collect();
    let scores = crate::exec::map_with(&guesses, Vec::new, |hyps: &mut Vec<f64>, &g| {
        hyps.clear();
        hyps.extend(knowns.iter().map(|&k| mq_mul(k, g).count_ones() as f64));
        pearson(hyps, samples)
    });
    let mut best = (0u32, f64::NEG_INFINITY);
    let mut second = f64::NEG_INFINITY;
    for (&g, &c) in guesses.iter().zip(&scores) {
        if c > best.1 {
            second = best.1;
            best = (g, c);
        } else if c > second {
            second = c;
        }
    }
    (best.0, best.1, second)
}

/// Recovers the NTT-domain coefficient at `index` from `n_traces`
/// captures, enumerating all q guesses.
pub fn attack_ntt_coefficient(
    device: &mut NttDevice,
    index: usize,
    n_traces: usize,
    msg_rng: &mut Prng,
) -> NttAttackResult {
    let mut knowns = Vec::with_capacity(n_traces);
    let mut samples = Vec::with_capacity(n_traces);
    for _ in 0..n_traces {
        let mut msg = [0u8; 24];
        msg_rng.fill(&mut msg);
        let cap = device.capture(&msg);
        knowns.push(device.known_c_ntt(&cap)[index]);
        samples.push(cap.trace.samples[index]);
    }
    let truth = device.f_ntt()[index];
    let (guess, corr, runner_up) = score_ntt_column(&knowns, &samples);
    let true_hyps: Vec<f64> =
        knowns.iter().map(|&k| mq_mul(k, truth).count_ones() as f64).collect();
    let evo = pearson_evolution(&true_hyps, &samples);
    NttAttackResult { guess, corr, runner_up, disclosure: traces_to_disclosure(&evo) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_emsim::LeakageModel;

    #[test]
    fn recovers_ntt_coefficient() {
        let f: Vec<i16> = (0..16).map(|i| ((i * 7) % 11) as i16 - 5).collect();
        let mut dev = NttDevice::new(&f, 4, LeakageModel::hamming_weight(1.0, 1.0), b"nttatk");
        let mut msgs = Prng::from_seed(b"ntt msgs");
        let truth = dev.f_ntt()[3];
        let r = attack_ntt_coefficient(&mut dev, 3, 150, &mut msgs);
        assert_eq!(r.guess, truth, "corr={} runner={}", r.corr, r.runner_up);
        assert!(r.disclosure.is_some());
    }
}
