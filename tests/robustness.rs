//! Robustness integration: the full attack pipeline on a faulty bench.
//!
//! The paper's numbers assume a clean acquisition; these tests drive the
//! adaptive campaign against a device that drops triggers, jitters its
//! scope window and injects glitch bursts, and check that
//!
//! * the screened campaign still recovers the complete private key and
//!   forges signatures, within the trace budget, and its no-op
//!   instrumentation costs under 1 % of the attack stage;
//! * the unscreened baseline does *not* recover the key at the same
//!   budget — and fails gracefully with a typed (partial or wrong)
//!   report instead of panicking;
//! * checkpoint/resume is exact: a campaign killed at any batch
//!   boundary and resumed from its checkpoint file produces a
//!   bit-identical report, and truncated checkpoints are rejected with
//!   errors at every cut point;
//! * everything is deterministic from the seeds.

use falcon_down::dema::obs;
use falcon_down::dema::recover::key_from_fft_bits;
use falcon_down::dema::{Campaign, CampaignConfig, Dataset, ScreenConfig};
use falcon_down::emsim::{Device, FaultModel, LeakageModel, MeasurementChain, Scope};
use falcon_down::sig::rng::Prng;
use falcon_down::sig::{KeyPair, LogN, VerifyingKey};
use std::sync::OnceLock;
use std::time::Instant;

/// The ISSUE's reference fault regime: 5 % dropout, ±2-sample jitter on
/// a fifth of the captures, 1 % glitch bursts.
fn reference_faults() -> FaultModel {
    FaultModel {
        drop_prob: 0.05,
        jitter_prob: 0.20,
        max_jitter: 2,
        glitch_prob: 0.01,
        glitch_amplitude: 60.0,
        glitch_len: 5,
        ..Default::default()
    }
}

fn faulty_bench(logn: u32, key_seed: &[u8]) -> (Device, VerifyingKey, Vec<u64>) {
    let params = LogN::new(logn).unwrap();
    let mut rng = Prng::from_seed(key_seed);
    let kp = KeyPair::generate(params, &mut rng);
    let vk = kp.verifying_key().clone();
    let truth: Vec<u64> = kp.signing_key().f_fft().iter().map(|x| x.to_bits()).collect();
    let chain = MeasurementChain {
        model: LeakageModel::hamming_weight(1.0, 2.0),
        lowpass: 0.0,
        scope: Scope::default(),
        faults: reference_faults(),
    };
    (Device::new(kp.into_parts().0, chain, b"robustness bench"), vk, truth)
}

fn campaign_cfg(screened: bool) -> CampaignConfig {
    CampaignConfig {
        batch_size: 100,
        max_traces: 2500,
        screen: screened.then(ScreenConfig::default),
        ..Default::default()
    }
}

/// The disabled-sink cost of one observability primitive (counter add,
/// histogram record, event-emit check) in nanoseconds. Measured once per
/// process; a concurrent caller waits, so no campaign's measured window
/// contains the calibration loop's own ops.
fn noop_ns_per_op() -> f64 {
    static NS_PER_OP: OnceLock<f64> = OnceLock::new();
    *NS_PER_OP.get_or_init(|| {
        assert!(!obs::sink_enabled(), "calibration requires the no-op sink");
        let c = obs::counter("test.calibration");
        let h = obs::metrics().histogram("test.calibration_hist", obs::duration_bounds());
        const ITERS: u64 = 200_000;
        let t0 = Instant::now();
        for _ in 0..ITERS {
            c.incr();
            h.record(1e-5);
            obs::emit(|| obs::Event::new("test.never"));
        }
        t0.elapsed().as_secs_f64() * 1e9 / (3 * ITERS) as f64
    })
}

/// Screened campaign on a faulty bench: full key recovery and forgery.
fn screened_recovery(logn: u32) {
    let n = LogN::new(logn).unwrap().n();
    let (mut device, vk, truth) = faulty_bench(logn, b"screened recovery key");
    let mut msgs = Prng::from_seed(b"screened recovery msgs");
    let mut campaign = Campaign::new(n, campaign_cfg(true)).unwrap();
    let ns_per_op = noop_ns_per_op();
    let (before, ops_before) = (obs::metrics().snapshot(), obs::ops());
    let report = campaign.run(&mut device, &mut msgs).unwrap();
    let ops = obs::ops() - ops_before;
    let attack = obs::metrics().snapshot().histogram_sum_delta(&before, "span.campaign.evaluate");
    // An upper bound: every op of the run (and of any test running
    // alongside) priced at the no-op cost and charged to the attack
    // stage alone. The no-op sink must be invisible on the hot loop.
    let overhead_pct = 100.0 * ops as f64 * ns_per_op * 1e-9 / attack;
    assert!(
        overhead_pct < 1.0,
        "instrumentation bound {overhead_pct:.4}% ({ops} ops at {ns_per_op:.1} ns over {attack:.3} s)"
    );
    assert!(report.is_complete(), "screened campaign must converge: {report:?}");
    let bits = report.recovered_bits().expect("complete campaign yields all bits");
    assert_eq!(bits, truth, "recovered FFT(f) must match ground truth");
    // Fault accounting is visible to the caller.
    assert!(report.stats.dropped_trigger > 0, "dropout regime must drop captures");
    assert!(report.stats.realigned > 0, "jitter regime must trigger realignment");
    // Down the remaining pipeline: inverse FFT, NTRU solve, forgery.
    let rec = key_from_fft_bits(&bits, &vk).expect("key recovery from bits");
    let forged = rec.sk.sign(b"forged on a faulty bench", &mut msgs);
    assert!(vk.verify(b"forged on a faulty bench", &forged));
}

#[test]
fn screened_campaign_recovers_key_logn3() {
    screened_recovery(3);
}

#[test]
fn screened_campaign_recovers_key_logn4() {
    screened_recovery(4);
}

#[test]
fn unscreened_baseline_fails_gracefully() {
    let n = 8;
    let (mut device, _, truth) = faulty_bench(3, b"screened recovery key");
    let mut msgs = Prng::from_seed(b"screened recovery msgs");
    let mut campaign = Campaign::new(n, campaign_cfg(false)).unwrap();
    // Graceful: a typed report, never a panic or an Err from faults.
    let report = campaign.run(&mut device, &mut msgs).unwrap();
    let correct = report
        .statuses
        .iter()
        .filter(|s| s.is_recovered() && s.bits() == truth[s.target()])
        .count();
    assert!(correct < n, "unscreened baseline must not recover the full key at this budget");
    // The report is honest about what happened: either coefficients are
    // flagged unconverged, or the recovered bits are simply wrong — in
    // both cases recovered_bits() cannot reconstruct the true key.
    if let Some(bits) = report.recovered_bits() {
        assert_ne!(bits, truth);
    }
    assert_eq!(report.statuses.len(), n);
    assert!(report.traces_requested <= 2500);
}

#[test]
fn campaign_killed_and_resumed_is_bit_identical() {
    let n = 8;
    let cfg = || CampaignConfig {
        batch_size: 75,
        max_traces: 1200,
        screen: Some(ScreenConfig::default()),
        ..Default::default()
    };
    let tmp = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&tmp).unwrap();

    // Uninterrupted reference run.
    let (mut dev_a, _, _) = faulty_bench(3, b"resume key");
    let mut msgs_a = Prng::from_seed(b"resume msgs");
    let mut uninterrupted = Campaign::new(n, cfg()).unwrap();
    let reference = uninterrupted.run(&mut dev_a, &mut msgs_a).unwrap();

    // The same campaign, checkpointed at every batch boundary; "kill"
    // it after each batch in turn and resume from the file.
    let total_batches = {
        let (mut d, _, _) = faulty_bench(3, b"resume key");
        let mut m = Prng::from_seed(b"resume msgs");
        let mut c = Campaign::new(n, cfg()).unwrap();
        let mut batches = 0;
        while c.step(&mut d, &mut m).unwrap() {
            batches += 1;
        }
        batches
    };
    assert!(total_batches >= 2, "need at least two batches to test resume");

    for kill_after in 1..=total_batches {
        let ckpt = tmp.join(format!("campaign-{kill_after}.ckpt"));
        // Run to the kill point, checkpointing as a real campaign would.
        let (mut d, _, _) = faulty_bench(3, b"resume key");
        let mut m = Prng::from_seed(b"resume msgs");
        let mut c = Campaign::new(n, cfg()).unwrap();
        for _ in 0..kill_after {
            assert!(c.step(&mut d, &mut m).unwrap());
        }
        c.checkpoint(&d, &m, &ckpt).unwrap();
        drop((c, d, m)); // the "kill"

        // Resume into a freshly reconstructed bench.
        let (mut d2, _, _) = faulty_bench(3, b"resume key");
        let mut m2 = Prng::from_seed(b"a different stream, rewound by resume");
        let mut resumed = Campaign::resume_from_path(cfg(), &mut d2, &mut m2, &ckpt).unwrap();
        let report = resumed.run(&mut d2, &mut m2).unwrap();
        assert_eq!(
            report, reference,
            "resume after batch {kill_after}/{total_batches} must be bit-identical"
        );
        std::fs::remove_file(&ckpt).unwrap();
    }
}

#[test]
fn checkpoint_truncated_at_every_byte_errors_cleanly() {
    let n = 8;
    let cfg = CampaignConfig {
        batch_size: 20,
        max_traces: 40,
        targets: vec![0, 5],
        screen: Some(ScreenConfig::default()),
        ..Default::default()
    };
    let (mut dev, _, _) = faulty_bench(3, b"truncation key");
    let mut msgs = Prng::from_seed(b"truncation msgs");
    let mut c = Campaign::new(n, cfg.clone()).unwrap();
    while c.step(&mut dev, &mut msgs).unwrap() {}
    let mut buf = Vec::new();
    c.write_checkpoint(&dev, &msgs, &mut buf).unwrap();

    // The complete checkpoint parses...
    let (mut d_ok, _, _) = faulty_bench(3, b"truncation key");
    let mut m_ok = Prng::from_seed(b"x");
    assert!(Campaign::resume(cfg.clone(), &mut d_ok, &mut m_ok, &buf[..]).is_ok());

    // ...and every proper prefix is rejected with an error, not a panic
    // or a hang (and never a partially-restored campaign).
    for cut in 0..buf.len() {
        let (mut d, _, _) = faulty_bench(3, b"truncation key");
        let mut m = Prng::from_seed(b"x");
        let r = Campaign::resume(cfg.clone(), &mut d, &mut m, &buf[..cut]);
        assert!(r.is_err(), "truncation at byte {cut}/{} must fail", buf.len());
    }
}

#[test]
fn same_seeds_are_bit_identical() {
    // Dataset level: two screened acquisitions from identically seeded
    // benches serialise to the same bytes.
    let collect = || {
        let (mut d, _, _) = faulty_bench(3, b"determinism key");
        let mut m = Prng::from_seed(b"determinism msgs");
        let (ds, stats) = Dataset::collect_screened(
            &mut d,
            &[0, 2, 5],
            120,
            &mut m,
            Some(&ScreenConfig::default()),
        )
        .unwrap();
        let mut bytes = Vec::new();
        falcon_down::dema::io::write_dataset(&ds, &mut bytes).unwrap();
        (bytes, stats)
    };
    let (bytes_a, stats_a) = collect();
    let (bytes_b, stats_b) = collect();
    assert_eq!(bytes_a, bytes_b, "screened datasets must be bit-identical");
    assert_eq!(stats_a, stats_b);

    // Campaign level: identical reports, including the fault accounting.
    let run = || {
        let (mut d, _, _) = faulty_bench(3, b"determinism key");
        let mut m = Prng::from_seed(b"determinism msgs");
        Campaign::new(8, campaign_cfg(true)).unwrap().run(&mut d, &mut m).unwrap()
    };
    assert_eq!(run(), run());
}
