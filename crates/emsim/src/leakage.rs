//! The device's data-dependent emission model.
//!
//! Differential EM analysis relies only on a statistical link between a
//! manipulated word and the measured field. The standard model for CMOS
//! switching activity — used by the paper's distinguisher — is a linear
//! combination of the word's Hamming weight (bus precharge leakage) and
//! the Hamming distance to the previously manipulated word (toggling),
//! plus Gaussian noise from everything else on the die:
//!
//! `sample = α·HW(w) + β·HD(w, prev) + N(0, σ)`

use falcon_sig::rng::Prng;

/// Linear Hamming leakage parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageModel {
    /// Hamming-weight coefficient (signal amplitude per bit).
    pub alpha: f64,
    /// Hamming-distance coefficient (bus toggling component).
    pub beta: f64,
    /// Standard deviation of the additive Gaussian noise.
    pub noise_sigma: f64,
}

impl Default for LeakageModel {
    /// The calibration used throughout the reproduction: unit HW gain,
    /// no HD component, and a noise floor chosen so the paper's headline
    /// trace counts land in the same regime (≈9k traces for the 1-bit
    /// sign leak at 99.99 % confidence, ≈1k for the exponent addition;
    /// see EXPERIMENTS.md).
    fn default() -> Self {
        LeakageModel { alpha: 1.0, beta: 0.0, noise_sigma: 8.6 }
    }
}

impl LeakageModel {
    /// A convenience constructor for pure Hamming-weight leakage.
    pub fn hamming_weight(alpha: f64, noise_sigma: f64) -> Self {
        LeakageModel { alpha, beta: 0.0, noise_sigma }
    }

    /// Emission for manipulating `word` right after `prev`, without
    /// noise.
    #[inline]
    pub fn signal(&self, word: u64, prev: u64) -> f64 {
        self.alpha * word.count_ones() as f64 + self.beta * (word ^ prev).count_ones() as f64
    }

    /// Full noisy sample.
    #[inline]
    pub fn sample(&self, word: u64, prev: u64, noise: &mut GaussianNoise) -> f64 {
        self.signal(word, prev) + self.noise_sigma * noise.next()
    }
}

/// A standard-normal noise source (Box–Muller over the deterministic
/// ChaCha20 stream, so measurement campaigns are reproducible).
#[derive(Debug, Clone)]
pub struct GaussianNoise {
    rng: Prng,
    spare: Option<f64>,
}

impl GaussianNoise {
    /// Creates a noise source from a seed.
    pub fn from_seed(seed: &[u8]) -> Self {
        GaussianNoise { rng: Prng::from_seed(seed), spare: None }
    }

    /// Wraps an existing generator.
    pub fn new(rng: Prng) -> Self {
        GaussianNoise { rng, spare: None }
    }

    /// Size in bytes of [`GaussianNoise::export_state`]'s output.
    pub const STATE_LEN: usize = Prng::STATE_LEN + 9;

    /// Exports the full noise-source state (underlying PRNG plus the
    /// buffered Box–Muller spare) for campaign checkpointing.
    pub fn export_state(&self) -> [u8; Self::STATE_LEN] {
        let mut out = [0u8; Self::STATE_LEN];
        out[..Prng::STATE_LEN].copy_from_slice(&self.rng.export_state());
        if let Some(v) = self.spare {
            out[Prng::STATE_LEN] = 1;
            out[Prng::STATE_LEN + 1..].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Rebuilds a noise source from [`GaussianNoise::export_state`]
    /// output; `None` on a malformed state.
    pub fn import_state(bytes: &[u8; Self::STATE_LEN]) -> Option<GaussianNoise> {
        let rng = Prng::import_state(bytes[..Prng::STATE_LEN].try_into().expect("state len"))?;
        let spare = match bytes[Prng::STATE_LEN] {
            0 => None,
            1 => {
                Some(f64::from_le_bytes(bytes[Prng::STATE_LEN + 1..].try_into().expect("8 bytes")))
            }
            _ => return None,
        };
        Some(GaussianNoise { rng, spare })
    }

    /// Next standard-normal variate.
    #[allow(clippy::should_implement_trait)] // infinite stream, not an Iterator
    pub fn next(&mut self) -> f64 {
        if let Some(v) = self.spare.take() {
            return v;
        }
        // Box–Muller; u1 in (0, 1] to keep the log finite.
        let u1 = ((self.rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let u2 = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * core::f64::consts::PI * u2).sin_cos();
        self.spare = Some(r * s);
        r * c
    }

    /// Advances the stream past `count` variates, landing exactly where
    /// `count` calls to [`GaussianNoise::next`] would. A pending spare
    /// is consumed first; each further pair reads exactly two 64-bit
    /// words, so whole pairs become a [`Prng::skip`] of 16 bytes each,
    /// and an odd count draws one last pair to leave its spare pending.
    pub fn skip(&mut self, mut count: usize) {
        if count == 0 {
            return;
        }
        if self.spare.take().is_some() {
            count -= 1;
        }
        self.rng.skip(16 * (count / 2) as u64);
        if count % 2 == 1 {
            self.next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_moments() {
        let mut g = GaussianNoise::from_seed(b"noise test");
        let n = 200_000;
        let (mut s, mut s2) = (0f64, 0f64);
        for _ in 0..n {
            let v = g.next();
            s += v;
            s2 += v * v;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
    }

    #[test]
    fn signal_components() {
        let m = LeakageModel { alpha: 2.0, beta: 0.5, noise_sigma: 0.0 };
        // HW(0b1011) = 3, HD(0b1011, 0b0001) = 2.
        assert_eq!(m.signal(0b1011, 0b0001), 2.0 * 3.0 + 0.5 * 2.0);
        let hw_only = LeakageModel::hamming_weight(1.0, 3.0);
        assert_eq!(hw_only.signal(u64::MAX, 0), 64.0);
    }

    #[test]
    fn skip_lands_where_sequential_draws_do() {
        let mut with_spare = GaussianNoise::from_seed(b"skip");
        with_spare.next();
        let imported = GaussianNoise::import_state(&with_spare.export_state()).expect("state");
        for start in [GaussianNoise::from_seed(b"skip"), with_spare, imported] {
            for count in (0..40).chain([1001, 4096, 7168]) {
                let mut skipped = start.clone();
                skipped.skip(count);
                let mut drawn = start.clone();
                for _ in 0..count {
                    drawn.next();
                }
                assert_eq!(skipped.export_state(), drawn.export_state(), "skip({count})");
                for _ in 0..5 {
                    assert_eq!(skipped.next().to_bits(), drawn.next().to_bits());
                }
            }
        }
    }

    #[test]
    fn deterministic_noise() {
        let mut a = GaussianNoise::from_seed(b"d");
        let mut b = GaussianNoise::from_seed(b"d");
        for _ in 0..10 {
            assert_eq!(a.next(), b.next());
        }
    }
}
