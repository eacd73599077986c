//! The victim device: FALCON signing under EM observation.
//!
//! A capture is three steps. [`Device::arm`] is serial: it draws the
//! per-execution randomness from the device PRNG and reserves the
//! capture's window of the noise stream. [`Device::radiate`] is pure: it
//! computes the emissions on that window and can run on any thread.
//! [`Device::finish`] is serial again: it applies the acquisition faults
//! in capture order. Arming a batch, radiating it in parallel and
//! finishing it in order yields the bits of one [`Device::capture`]
//! after another.

use crate::faults::{FaultModel, FaultState};
use crate::leakage::GaussianNoise;
use crate::probe::MeasurementChain;
use crate::trace::{Capture, MulOpLayout, Trace};
use falcon_fpr::{Fpr, MulObserver, MulStep};
use falcon_obs::{Counter, Event, Histogram};
use falcon_sig::fft::{at, fft, set, Cplx};
use falcon_sig::hash::hash_to_point;
use falcon_sig::params::SALT_LEN;
use falcon_sig::rng::Prng;
use falcon_sig::{Signature, SigningKey};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Metric handles for the capture hot path, resolved once — the
/// registry's name lookup must not run per trace.
struct DeviceMetrics {
    captures: Arc<Counter>,
    dropped: Arc<Counter>,
    samples: Arc<Counter>,
    signs: Arc<Counter>,
    capture_secs: Arc<Histogram>,
}

fn device_metrics() -> &'static DeviceMetrics {
    static M: OnceLock<DeviceMetrics> = OnceLock::new();
    M.get_or_init(|| DeviceMetrics {
        captures: falcon_obs::counter("device.captures"),
        dropped: falcon_obs::counter("device.captures_dropped"),
        samples: falcon_obs::counter("device.samples"),
        signs: falcon_obs::counter("device.signs"),
        capture_secs: falcon_obs::histogram("device.capture_secs"),
    })
}

/// Side-channel countermeasures the device may enable (paper §V.B).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CountermeasureConfig {
    /// Shuffle the processing order of the complex coefficients each
    /// execution (temporal desynchronisation of the leakage).
    pub shuffle: bool,
    /// Additional hiding noise (added in quadrature to the channel's
    /// noise floor), e.g. from a noise generator peripheral.
    pub extra_noise_sigma: f64,
    /// First-order additive masking of the attacked multiplication: each
    /// execution splits `FFT(f)` into two fresh random shares
    /// (`f̂ = s1 + s2`), multiplies `FFT(c)` with each share separately
    /// and recombines. No intermediate then depends on the unshared
    /// secret. This prototypes the masked implementation the paper notes
    /// did not yet exist for FALCON; floating-point share recombination
    /// rounds, so the signer's `t1` acquires a few-ulp perturbation —
    /// harmless, since the signature's norm bound is enforced downstream.
    pub masking: bool,
}

/// An observer that converts every multiplication micro-op into a leakage
/// sample.
struct LeakingObserver<'a> {
    model: crate::leakage::LeakageModel,
    noise: &'a mut GaussianNoise,
    prev: u64,
    samples: Vec<f32>,
}

impl MulObserver for LeakingObserver<'_> {
    fn record(&mut self, step: MulStep) {
        let w = step.data_word();
        let v = self.model.sample(w, self.prev, self.noise);
        self.prev = w;
        self.samples.push(v as f32);
    }
}

/// One complex multiplication under observation (masked capture path).
fn observed_cplx_mul(x: Cplx, y: Cplx, obs: &mut LeakingObserver<'_>) -> Cplx {
    let m0 = x.re.mul_observed(y.re, obs);
    let m1 = x.im.mul_observed(y.im, obs);
    let m2 = x.re.mul_observed(y.im, obs);
    let m3 = x.im.mul_observed(y.re, obs);
    Cplx::new(m0 - m1, m2 + m3)
}

/// A capture between [`Device::arm`] and [`Device::finish`]: the public
/// inputs, the per-execution randomness the device drew while arming, the
/// capture's reserved window of the device noise stream, and the buffer
/// [`Device::radiate`] fills.
#[derive(Debug)]
pub struct Armed {
    salt: [u8; SALT_LEN],
    msg: Vec<u8>,
    /// Coefficient processing order (shuffled under the countermeasure).
    order: Vec<usize>,
    /// First mask share per processed coefficient; empty when unmasked.
    shares: Vec<Cplx>,
    /// The noise stream at the start of this capture's window.
    noise: GaussianNoise,
    /// Length of the window: the samples the capture emits.
    draws: usize,
    /// The conditioned samples and the time the radiation took. The
    /// buffer is allocated at arming, on the arming thread, so a batch
    /// kept after capture lives in that thread's heap rather than in the
    /// heaps of the threads that radiated it; the lock lets `radiate`
    /// fill it through a shared reference.
    emission: Mutex<(Vec<f32>, Duration)>,
}

/// The device under attack: a FALCON signer whose `FFT(c) ⊙ FFT(f)`
/// computation radiates per the configured [`MeasurementChain`].
#[derive(Debug)]
pub struct Device {
    // ct: public(chain, cm)
    sk: SigningKey,
    chain: MeasurementChain,
    cm: CountermeasureConfig,
    rng: Prng,
    noise: GaussianNoise,
    faults: FaultState,
}

impl Device {
    /// Places a signing key on the bench.
    pub fn new(sk: SigningKey, chain: MeasurementChain, seed: &[u8]) -> Device {
        let mut s = Vec::from(seed);
        s.extend_from_slice(b"/device");
        let mut n = Vec::from(seed);
        n.extend_from_slice(b"/noise");
        let mut f = Vec::from(seed);
        f.extend_from_slice(b"/faults");
        Device {
            sk,
            chain,
            cm: CountermeasureConfig::default(),
            rng: Prng::from_seed(&s),
            noise: GaussianNoise::from_seed(&n),
            faults: FaultState::from_seed(&f),
        }
    }

    /// Enables countermeasures.
    pub fn with_countermeasures(mut self, cm: CountermeasureConfig) -> Device {
        self.cm = cm;
        self
    }

    /// Enables acquisition fault injection.
    pub fn with_faults(mut self, fm: FaultModel) -> Device {
        self.chain.faults = fm;
        self
    }

    /// The evolving fault-injection state (drifted gain, capture count).
    pub fn fault_state(&self) -> &FaultState {
        &self.faults
    }

    /// Size in bytes of [`Device::export_state`]'s output.
    pub const STATE_LEN: usize = Prng::STATE_LEN + GaussianNoise::STATE_LEN + FaultState::STATE_LEN;

    /// Exports the device's complete evolving state — salt PRNG, noise
    /// source, fault stream — so a checkpointed campaign can later resume
    /// with bit-identical captures. The signing key and the chain/
    /// countermeasure configuration are *not* included; the caller
    /// reconstructs the device from those and then restores this state.
    pub fn export_state(&self) -> [u8; Self::STATE_LEN] {
        let mut out = [0u8; Self::STATE_LEN];
        out[..Prng::STATE_LEN].copy_from_slice(&self.rng.export_state());
        out[Prng::STATE_LEN..Prng::STATE_LEN + GaussianNoise::STATE_LEN]
            .copy_from_slice(&self.noise.export_state());
        out[Prng::STATE_LEN + GaussianNoise::STATE_LEN..]
            .copy_from_slice(&self.faults.export_state());
        out
    }

    /// Restores the state captured by [`Device::export_state`]. Returns
    /// `false` (leaving the device untouched) when the bytes are
    /// malformed.
    pub fn restore_state(&mut self, bytes: &[u8; Self::STATE_LEN]) -> bool {
        let rng = Prng::import_state(bytes[..Prng::STATE_LEN].try_into().expect("len"));
        let noise = GaussianNoise::import_state(
            bytes[Prng::STATE_LEN..Prng::STATE_LEN + GaussianNoise::STATE_LEN]
                .try_into()
                .expect("len"),
        );
        let faults = FaultState::import_state(
            bytes[Prng::STATE_LEN + GaussianNoise::STATE_LEN..].try_into().expect("len"),
        );
        match (rng, noise, faults) {
            (Some(r), Some(n), Some(f)) => {
                self.rng = r;
                self.noise = n;
                self.faults = f;
                true
            }
            _ => false,
        }
    }

    /// The signing key (ground truth for experiments).
    pub fn signing_key(&self) -> &SigningKey {
        &self.sk
    }

    /// The measurement chain in use.
    pub fn chain(&self) -> &MeasurementChain {
        &self.chain
    }

    /// Sample layout of captured traces (valid when shuffling is off).
    pub fn layout(&self) -> MulOpLayout {
        MulOpLayout::new(self.sk.logn().n())
    }

    /// Acquires one trace of the attacked region for a signature on
    /// `msg`: the device draws a fresh salt, hashes, transforms, and the
    /// probe records the pointwise `FFT(c) ⊙ FFT(f)` multiplications.
    ///
    /// This is the acquisition fast path: it executes exactly the signing
    /// steps up to and including the attacked multiplication (the
    /// remainder of Algorithm 2 does not touch the targeted
    /// intermediates). It is [`Device::arm`], [`Device::radiate`] and
    /// [`Device::finish`] in a row; a batch may arm many captures, radiate
    /// them on any number of threads and finish them in arming order with
    /// the same bits.
    pub fn capture(&mut self, msg: &[u8]) -> Capture {
        let armed = self.arm(msg);
        self.radiate(&armed);
        self.finish(armed)
    }

    /// Acquisition with a caller-chosen salt (tests and replays).
    pub fn capture_with_salt(&mut self, salt: &[u8; SALT_LEN], msg: &[u8]) -> Trace {
        let armed = self.arm_with_salt(*salt, msg);
        self.radiate(&armed);
        self.finish(armed).trace
    }

    /// The serial first step of a capture: draws the salt and, under the
    /// countermeasures, the shuffle order and mask shares from the device
    /// PRNG, then reserves the capture's window of the noise stream and
    /// moves the device's own noise stream past it. It also allocates the
    /// buffer the samples are radiated into.
    pub fn arm(&mut self, msg: &[u8]) -> Armed {
        let mut salt = [0u8; SALT_LEN];
        self.rng.fill(&mut salt);
        self.arm_with_salt(salt, msg)
    }

    fn arm_with_salt(&mut self, salt: [u8; SALT_LEN], msg: &[u8]) -> Armed {
        let hn = self.sk.logn().n() / 2;
        let mut order: Vec<usize> = (0..hn).collect();
        if self.cm.shuffle {
            // Fisher–Yates with the device's PRNG.
            for i in (1..hn).rev() {
                let j = self.rng.below((i + 1) as u64) as usize;
                order.swap(i, j);
            }
        }
        // Fresh additive shares per execution, one per coefficient in
        // processing order: x = s1 + s2 with s1 uniform over the value
        // range of FFT(f) coefficients.
        let shares: Vec<Cplx> = if self.cm.masking {
            (0..hn).map(|_| Cplx::new(self.random_share(), self.random_share())).collect()
        } else {
            Vec::new()
        };
        // One noise draw per emitted sample: two share multiplications
        // per coefficient under masking.
        let draws = self.layout().samples_per_trace() * if self.cm.masking { 2 } else { 1 };
        let noise = self.noise.clone();
        self.noise.skip(draws);
        let emission = Mutex::new((Vec::with_capacity(draws), Duration::ZERO));
        Armed { salt, msg: msg.to_vec(), order, shares, noise, draws, emission }
    }

    /// The pure middle step of a capture: hashes the armed message,
    /// transforms, runs the observed pointwise multiplications on the
    /// reserved noise window and conditions the emissions through the
    /// probe and scope, into the armed capture's buffer. Reads the device
    /// without changing it, so armed captures can radiate on any thread,
    /// in any order.
    ///
    /// # Panics
    ///
    /// Panics if the multiplications drew a different number of noise
    /// samples than [`Device::arm`] reserved.
    pub fn radiate(&self, armed: &Armed) {
        // ct: allow(span timing for observability; the modelled trace is clock-free)
        let start = Instant::now();
        // ct: allow(device model: the simulated victim radiates its key by design)
        let n = self.sk.logn().n();
        // ct: allow(device model: the simulated victim radiates its key by design)
        let c = hash_to_point(&armed.salt, &armed.msg, n);
        let mut c_fft: Vec<Fpr> = c.iter().map(|&v| Fpr::from_i64(v as i64)).collect();
        fft(&mut c_fft);
        let mut emission = armed.emission.lock().unwrap_or_else(PoisonError::into_inner);
        let mut samples = std::mem::take(&mut emission.0);
        samples.clear();
        // ct: allow(device model: the simulated victim radiates its key by design)
        samples = self.leak_pointwise_mul(&c_fft, armed, samples);
        // ct: allow(device model: the simulated victim radiates its key by design)
        assert_eq!(samples.len(), armed.draws, "capture drew outside its reserved noise window");
        // ct: allow(device model: the simulated victim radiates its key by design)
        self.chain.condition(&mut samples);
        // ct: allow(span timing for observability; the modelled trace is clock-free)
        *emission = (samples, start.elapsed());
    }

    /// The serial last step of a capture, in arming order: applies the
    /// acquisition faults, records the capture metrics and reports a
    /// dropped capture.
    ///
    /// # Panics
    ///
    /// Panics if the capture was not radiated.
    pub fn finish(&mut self, armed: Armed) -> Capture {
        let (mut samples, busy) =
            armed.emission.into_inner().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(samples.len(), armed.draws, "finish needs a radiated capture");
        // A missed trigger clears the samples: the empty trace is the
        // caller-visible signature of a dropped capture.
        let fm = self.chain.faults;
        self.faults.apply(&fm, &mut samples, self.chain.scope.full_scale);
        let m = device_metrics();
        m.captures.incr();
        m.samples.add(samples.len() as u64);
        if samples.is_empty() {
            m.dropped.incr();
            let capture_index = self.faults.captures();
            falcon_obs::emit(|| {
                Event::new("device.capture_dropped").with_u64("capture_index", capture_index)
            });
        }
        m.capture_secs.record(busy.as_secs_f64());
        Capture { salt: armed.salt, msg: armed.msg, trace: Trace::new(samples) }
    }

    /// Runs the complete signing operation under observation and returns
    /// both the signature and the captured trace of the (final,
    /// successful) attempt's multiplication region.
    pub fn sign_and_capture(&mut self, msg: &[u8]) -> (Signature, Capture) {
        loop {
            let mut salt = [0u8; SALT_LEN];
            self.rng.fill(&mut salt);
            let model = self.effective_model();
            let mut obs =
                LeakingObserver { model, noise: &mut self.noise, prev: 0, samples: Vec::new() };
            // Note: with shuffling enabled the *signature* path still
            // processes coefficients in order (the countermeasure applies
            // to the device's pointwise loop, modelled in arm() and radiate()).
            if let Some(sig) =
                falcon_sig::sign::sign_with_salt(&self.sk, msg, salt, &mut self.rng, &mut obs)
            {
                let mut samples = obs.samples;
                self.chain.condition(&mut samples);
                let fm = self.chain.faults;
                self.faults.apply(&fm, &mut samples, self.chain.scope.full_scale);
                let capture = Capture { salt, msg: msg.to_vec(), trace: Trace::new(samples) };
                device_metrics().signs.incr();
                return (sig, capture);
            }
        }
    }

    fn effective_model(&self) -> crate::leakage::LeakageModel {
        let mut m = self.chain.model;
        let extra = self.cm.extra_noise_sigma;
        m.noise_sigma = (m.noise_sigma * m.noise_sigma + extra * extra).sqrt();
        m
    }

    /// The device's pointwise multiplication loop, radiating through the
    /// probe in the armed coefficient order, with the armed mask shares
    /// when masking is on.
    fn leak_pointwise_mul(&self, c_fft: &[Fpr], armed: &Armed, samples: Vec<f32>) -> Vec<f32> {
        let mut noise = armed.noise.clone();
        // ct: allow(device model: the simulated victim radiates its key by design)
        let model = self.effective_model();
        let mut obs = LeakingObserver { model, noise: &mut noise, prev: 0, samples };
        // Same arithmetic as falcon_sig::fft::poly_mul_fft_observed, with
        // a device-chosen coefficient order; results are discarded (the
        // probe only cares about the emissions).
        // ct: allow(device model: the simulated victim radiates its key by design)
        let f_fft = self.sk.f_fft();
        let mut out = vec![Fpr::ZERO; c_fft.len()];
        for (k, &j) in armed.order.iter().enumerate() {
            let x = at(f_fft, j);
            let y = at(c_fft, j);
            if self.cm.masking {
                let s1 = armed.shares[k];
                let s2 = x.sub(s1);
                // ct: allow(device model: the simulated victim radiates its key by design)
                let a = observed_cplx_mul(s1, y, &mut obs);
                // ct: allow(device model: the simulated victim radiates its key by design)
                let b = observed_cplx_mul(s2, y, &mut obs);
                set(&mut out, j, a.add(b));
            } else {
                let m0 = x.re.mul_observed(y.re, &mut obs);
                let m1 = x.im.mul_observed(y.im, &mut obs);
                let m2 = x.re.mul_observed(y.im, &mut obs);
                let m3 = x.im.mul_observed(y.re, &mut obs);
                set(&mut out, j, Cplx::new(m0 - m1, m2 + m3));
            }
        }
        obs.samples
    }

    /// A uniform random mask value spanning the magnitude range of
    /// `FFT(f)` coefficients (|f_i| ≤ 2^max_fg_bits, n-fold FFT gain).
    fn random_share(&mut self) -> Fpr {
        let n = self.sk.logn().n() as f64;
        let scale = 256.0 * n;
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        Fpr::from((2.0 * u - 1.0) * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leakage::LeakageModel;
    use falcon_sig::{KeyPair, LogN};

    fn bench_device(noise: f64) -> Device {
        let mut rng = Prng::from_seed(b"device test key");
        let kp = KeyPair::generate(LogN::new(4).unwrap(), &mut rng);
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, noise),
            lowpass: 0.0,
            scope: crate::probe::Scope { enabled: false, ..Default::default() },
            ..Default::default()
        };
        Device::new(kp.into_parts().0, chain, b"bench seed")
    }

    #[test]
    fn capture_has_expected_layout() {
        let mut d = bench_device(0.0);
        let cap = d.capture(b"message");
        assert_eq!(cap.trace.len(), d.layout().samples_per_trace());
    }

    #[test]
    fn noiseless_trace_is_hamming_weights() {
        let mut d = bench_device(0.0);
        let cap = d.capture(b"hw check");
        // Recompute expected emissions from ground truth.
        let n = d.signing_key().logn().n();
        let c = hash_to_point(&cap.salt, &cap.msg, n);
        let mut c_fft: Vec<Fpr> = c.iter().map(|&v| Fpr::from_i64(v as i64)).collect();
        fft(&mut c_fft);
        let layout = d.layout();
        // Check the first coefficient's first multiplication OperandLoad.
        let x = at(d.signing_key().f_fft(), 0);
        let y = at(&c_fft, 0);
        let mut rec = falcon_fpr::RecordingObserver::new();
        let _ = x.re.mul_observed(y.re, &mut rec);
        let idx = layout.sample_index(0, crate::trace::StepKind::OperandLoad);
        let want = rec.steps[0].data_word().count_ones() as f32;
        assert_eq!(cap.trace.samples[idx], want);
    }

    #[test]
    fn deterministic_replay_with_salt() {
        let mut d1 = bench_device(3.0);
        let mut d2 = bench_device(3.0);
        let t1 = d1.capture_with_salt(&[9u8; SALT_LEN], b"m");
        let t2 = d2.capture_with_salt(&[9u8; SALT_LEN], b"m");
        assert_eq!(t1, t2);
    }

    #[test]
    fn shuffle_changes_sample_order_but_not_values() {
        let mut plain = bench_device(0.0);
        let mut shuffled = bench_device(0.0).with_countermeasures(CountermeasureConfig {
            shuffle: true,
            extra_noise_sigma: 0.0,
            masking: false,
        });
        let a = plain.capture_with_salt(&[5u8; SALT_LEN], b"m");
        let b = shuffled.capture_with_salt(&[5u8; SALT_LEN], b"m");
        assert_eq!(a.len(), b.len());
        assert_ne!(a.samples, b.samples, "shuffling should reorder emissions");
        let mut sa = a.samples.clone();
        let mut sb = b.samples.clone();
        sa.sort_by(f32::total_cmp);
        sb.sort_by(f32::total_cmp);
        // Same multiset of per-mul emissions (noise off, prev-word chain
        // differs only via the HD term which is disabled here).
        assert_eq!(sa, sb);
    }

    #[test]
    fn masked_capture_doubles_trace_and_randomises_emissions() {
        let cm = CountermeasureConfig { masking: true, ..Default::default() };
        let mut masked = bench_device(0.0).with_countermeasures(cm);
        let unmasked_len = masked.layout().samples_per_trace();
        let a = masked.capture_with_salt(&[7u8; SALT_LEN], b"m");
        assert_eq!(a.len(), 2 * unmasked_len, "two share multiplications per coefficient");
        // Fresh shares per execution: identical (salt, msg) yields
        // different emissions even with zero channel noise.
        let b = masked.capture_with_salt(&[7u8; SALT_LEN], b"m");
        assert_ne!(a.samples, b.samples);
    }

    #[test]
    fn masked_signer_still_produces_valid_signatures() {
        // Masking only affects the capture path's t1 computation model;
        // the signature path remains correct end to end (the emulated
        // masked signer's few-ulp perturbation is absorbed by the norm
        // check). Here we exercise capture + ordinary signing together.
        let mut rng = Prng::from_seed(b"masked signer");
        let kp = KeyPair::generate(LogN::new(4).unwrap(), &mut rng);
        let vk = kp.verifying_key().clone();
        let cm = CountermeasureConfig { masking: true, ..Default::default() };
        let mut d = Device::new(kp.into_parts().0, MeasurementChain::default(), b"ms")
            .with_countermeasures(cm);
        let _ = d.capture(b"warm up the masked path");
        let (sig, _) = d.sign_and_capture(b"masked message");
        assert!(vk.verify(b"masked message", &sig));
    }

    #[test]
    fn faulty_device_drops_and_misaligns_traces() {
        let fm =
            FaultModel { drop_prob: 0.3, jitter_prob: 0.5, max_jitter: 2, ..Default::default() };
        let mut d = bench_device(1.0).with_faults(fm);
        let expected = d.layout().samples_per_trace();
        let (mut dropped, mut full) = (0usize, 0usize);
        for i in 0..60 {
            let cap = d.capture(format!("m{i}").as_bytes());
            if cap.trace.is_empty() {
                dropped += 1;
            } else {
                assert_eq!(cap.trace.len(), expected, "jitter preserves length");
                full += 1;
            }
        }
        assert!(dropped > 0, "expected some missed triggers");
        assert!(full > 0, "expected some surviving captures");
        assert_eq!(d.fault_state().captures(), 60);
    }

    #[test]
    fn device_state_roundtrip_resumes_campaign() {
        let fm = crate::faults::FaultModel::noisy_bench();
        let mut d = bench_device(2.0).with_faults(fm);
        for i in 0..25 {
            let _ = d.capture(format!("warmup {i}").as_bytes());
        }
        let state = d.export_state();
        // A second device built the same way, fast-forwarded via the
        // exported state, produces bit-identical captures.
        let mut r = bench_device(2.0).with_faults(fm);
        assert!(r.restore_state(&state));
        for i in 0..30 {
            let msg = format!("post {i}");
            let a = d.capture(msg.as_bytes());
            let b = r.capture(msg.as_bytes());
            assert_eq!(a.salt, b.salt);
            assert_eq!(a.trace, b.trace);
        }
    }

    #[test]
    fn sign_and_capture_verifies() {
        let mut rng = Prng::from_seed(b"sac key");
        let kp = KeyPair::generate(LogN::new(4).unwrap(), &mut rng);
        let vk = kp.verifying_key().clone();
        let chain = MeasurementChain::default();
        let mut d = Device::new(kp.into_parts().0, chain, b"sac");
        let (sig, cap) = d.sign_and_capture(b"signed under observation");
        assert!(vk.verify(b"signed under observation", &sig));
        assert_eq!(cap.trace.len(), d.layout().samples_per_trace());
    }
}
