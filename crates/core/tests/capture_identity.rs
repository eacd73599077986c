//! Batched capture is sequential capture: the chunked acquisition that
//! arms captures in order, radiates them on the executor and finishes
//! them in order must yield the salts, the sample bits and the device
//! state that one `Device::capture` after another yields.
//!
//! Every countermeasure and the fault model change how much the device
//! draws from its streams per capture, so each gets its own leg, at
//! FALCON-16 and FALCON-512. Every leg acquires more traces than the
//! executor's fan-out threshold and runs at 1 and 2 worker threads. The
//! dataset holds every target, so its windows cover every sample of
//! every trace, and its known operands are recomputed from the salts.
//!
//! One test function drives every leg: the worker count is
//! process-global.

use falcon_dema::acquire::Dataset;
use falcon_dema::source::ColumnSource;
use falcon_dema::{exec, obs};
use falcon_emsim::{Capture, CountermeasureConfig, Device, FaultModel, MeasurementChain};
use falcon_fpr::Fpr;
use falcon_sig::fft::fft;
use falcon_sig::hash::hash_to_point;
use falcon_sig::rng::Prng;
use falcon_sig::{KeyPair, LogN, SigningKey};

/// Traces per leg: above the executor's 256-item fan-out threshold.
const TRACES: usize = 300;

/// The device legs: name, countermeasures, fault model.
fn legs() -> Vec<(&'static str, CountermeasureConfig, FaultModel)> {
    let none = CountermeasureConfig::default();
    vec![
        ("plain", none, FaultModel::default()),
        ("shuffle", CountermeasureConfig { shuffle: true, ..none }, FaultModel::default()),
        ("masking", CountermeasureConfig { masking: true, ..none }, FaultModel::default()),
        (
            "extra noise",
            CountermeasureConfig { extra_noise_sigma: 3.0, ..none },
            FaultModel::default(),
        ),
        ("noisy bench", none, FaultModel::noisy_bench()),
    ]
}

fn device(sk: &SigningKey, cm: CountermeasureConfig, fm: FaultModel) -> Device {
    Device::new(sk.clone(), MeasurementChain::default(), b"capture identity")
        .with_countermeasures(cm)
        .with_faults(fm)
}

/// The reference: one `capture` after another, keeping full-length
/// traces as unscreened acquisition does.
fn sequential(dev: &mut Device, msgs: &mut Prng) -> Vec<Capture> {
    let full = dev.layout().samples_per_trace();
    (0..TRACES)
        .map(|_| {
            let mut msg = [0u8; 24];
            msgs.fill(&mut msg);
            dev.capture(&msg)
        })
        .filter(|cap| cap.trace.len() >= full)
        .collect()
}

/// Asserts that `ds` holds exactly the known operands and samples of
/// `caps`, bit for bit.
fn assert_dataset_is(ds: &Dataset, caps: &[Capture], dev: &Device, leg: &str) {
    let layout = dev.layout();
    let n = layout.n();
    assert_eq!(ds.traces(), caps.len(), "{leg}: kept traces");
    let c_ffts: Vec<Vec<Fpr>> = caps
        .iter()
        .map(|cap| {
            let c = hash_to_point(&cap.salt, &cap.msg, n);
            let mut c_fft: Vec<Fpr> = c.iter().map(|&v| Fpr::from_i64(v as i64)).collect();
            fft(&mut c_fft);
            c_fft
        })
        .collect();
    for target in 0..n {
        let block = ds.target_block(target).unwrap();
        for (occ, (mul, known)) in layout.muls_for_secret(target).into_iter().enumerate() {
            let knowns = block.known_column(occ);
            for (t, c_fft) in c_ffts.iter().enumerate() {
                assert_eq!(knowns[t], c_fft[known].to_bits(), "{leg}: trace {t} known {target}");
            }
            for step in falcon_emsim::StepKind::ALL {
                let column = block.sample_column(occ, step);
                let at = layout.sample_index(mul, step);
                for (t, cap) in caps.iter().enumerate() {
                    assert_eq!(
                        column[t].to_bits(),
                        cap.trace.samples[at].to_bits(),
                        "{leg}: trace {t} sample {at}"
                    );
                }
            }
        }
    }
}

#[test]
fn batched_capture_matches_sequential_capture() {
    for logn in [LogN::new(4).unwrap(), LogN::N512] {
        let kp = KeyPair::generate(logn, &mut Prng::from_seed(b"capture identity key"));
        let sk = kp.into_parts().0;
        let targets: Vec<usize> = (0..logn.n()).collect();
        for (name, cm, fm) in legs() {
            let leg = format!("FALCON-{} {name}", logn.n());
            let mut reference = device(&sk, cm, fm);
            let caps = sequential(&mut reference, &mut Prng::from_seed(b"identity msgs"));
            for threads in [1, 2] {
                exec::set_threads(threads);
                let before = obs::metrics().snapshot();
                let mut batched = device(&sk, cm, fm);
                let (ds, stats) = Dataset::collect_screened(
                    &mut batched,
                    &targets,
                    TRACES,
                    &mut Prng::from_seed(b"identity msgs"),
                    None,
                )
                .expect("unscreened acquisition");
                let leg = format!("{leg} at {threads} threads");
                if threads > 1 {
                    // One fan-out radiates the captures, one recomputes
                    // the known operands of the kept traces.
                    let fanned = obs::metrics().snapshot().counter_delta(&before, "exec.fanout");
                    assert!(fanned >= 2, "{leg}: the capture never left the calling thread");
                }
                assert_eq!(stats.requested - stats.dropped_trigger, caps.len(), "{leg}");
                assert_dataset_is(&ds, &caps, &reference, &leg);
                assert_eq!(batched.export_state(), reference.export_state(), "{leg}: state");
            }
        }
    }
    exec::set_threads(0);
}
