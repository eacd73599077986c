//! Determinism under parallelism: the full FALCON-8 campaign → key
//! recovery pipeline must produce bit-identical results at every worker
//! count of the shared executor.
//!
//! The executor (`falcon_dema::exec`) splits work into fixed chunks
//! addressed by an atomic index and reassembles results in chunk order,
//! so neither the thread count nor the OS scheduler can reorder a single
//! floating-point operation. This test is the end-to-end check of that
//! contract: one campaign at the ambient thread configuration, then the
//! same campaign pinned to 1, 2 and `available_parallelism()` workers,
//! asserting identical recovered keys, identical checkpoint bytes, and
//! thread-count-independent pipeline counters.
//!
//! The sweep is a **kernel × threads matrix**: every thread count is
//! also run with the Pearson tile kernel pinned to the scalar reference
//! (`FALCON_DEMA_SIMD=off` equivalent) and with runtime detection
//! enabled (`auto` — AVX2 or AVX-512 where the host has them). The SIMD
//! kernels are bit-identical to the scalar tile by construction (see
//! `cpa::simd`), so the kernel axis, like the thread axis, must not
//! move a single output bit anywhere in campaign → key → forgery →
//! checkpoint.
//!
//! Kept as a single `#[test]` in its own integration binary: the obs
//! metrics registry is process-global, and concurrent tests in the same
//! binary would interleave their counter deltas.

use falcon_down::dema::acquire::Dataset;
use falcon_down::dema::cpa::simd::{self, KernelChoice};
use falcon_down::dema::obs;
use falcon_down::dema::recover::key_from_fft_bits;
use falcon_down::dema::source::ColumnSource;
use falcon_down::dema::stream::{self, StreamedDataset, STAGE_BYTES};
use falcon_down::dema::{exec, Campaign, CampaignConfig, OfflineCampaign};
use falcon_down::emsim::{Device, LeakageModel, MeasurementChain, Scope};
use falcon_down::sig::rng::Prng;
use falcon_down::sig::{KeyPair, LogN};

/// Counters whose per-campaign deltas must not depend on the worker
/// count. (The `exec.*` scheduling counters — serial/fanout/chunks — are
/// legitimately thread-dependent and deliberately absent.)
const THREAD_INDEPENDENT_COUNTERS: &[&str] = &[
    "attack.correlations",
    "campaign.batches",
    "campaign.converged",
    "screen.requested",
    "screen.kept",
    "screen.dropped_trigger",
    "screen.realigned",
    "screen.winsorized_samples",
];

struct RunOutcome {
    /// Recovered `FFT(f)` bit vector.
    bits: Vec<u64>,
    /// Serialised campaign checkpoint after convergence.
    checkpoint: Vec<u8>,
    /// Deltas of the thread-independent counters over this run.
    counters: Vec<u64>,
}

/// One complete FALCON-8 campaign from fixed seeds: keygen, adaptive
/// screened acquisition, extend-and-prune recovery, NTRU key recovery,
/// and a forgery check against the victim's verifier.
fn run_campaign() -> RunOutcome {
    let before = obs::metrics().snapshot();
    let mut rng = Prng::from_seed(b"determinism key");
    let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
    let vk = kp.verifying_key().clone();
    let truth: Vec<u64> = kp.signing_key().f_fft().iter().map(|x| x.to_bits()).collect();
    let chain = MeasurementChain {
        model: LeakageModel::hamming_weight(1.0, 1.0),
        lowpass: 0.0,
        scope: Scope { enabled: false, ..Default::default() },
        ..Default::default()
    };
    let mut device = Device::new(kp.into_parts().0, chain, b"determinism bench");
    let mut msgs = Prng::from_seed(b"determinism msgs");
    let cfg = CampaignConfig { batch_size: 60, max_traces: 600, ..Default::default() };
    let mut campaign = Campaign::new(8, cfg).unwrap();
    let report = campaign.run(&mut device, &mut msgs).unwrap();
    assert!(report.is_complete(), "campaign must converge: {report:?}");
    let bits = report.recovered_bits().unwrap();
    assert_eq!(bits, truth, "recovered FFT(f) must match the victim key");

    let rec = key_from_fft_bits(&bits, &vk).expect("NTRU key recovery");
    let forged = rec.sk.sign(b"determinism forgery", &mut msgs);
    assert!(vk.verify(b"determinism forgery", &forged), "forgery must verify");

    let mut checkpoint = Vec::new();
    campaign.write_checkpoint(&device, &msgs, &mut checkpoint).unwrap();
    let after = obs::metrics().snapshot();
    let counters =
        THREAD_INDEPENDENT_COUNTERS.iter().map(|name| after.counter_delta(&before, name)).collect();
    RunOutcome { bits, checkpoint, counters }
}

/// One offline (archive-driven) campaign over any column source:
/// recovery, NTRU key reconstruction, a seeded forgery, and the
/// source-independent offline checkpoint bytes.
fn run_offline<S: ColumnSource + ?Sized>(
    src: &S,
    vk: &falcon_down::sig::VerifyingKey,
) -> (Vec<u64>, Vec<u8>, falcon_down::sig::Signature) {
    let cfg = CampaignConfig { batch_size: 60, max_traces: 600, ..Default::default() };
    let mut campaign = OfflineCampaign::new(src, cfg).unwrap();
    let report = campaign.run(src).unwrap();
    assert!(report.is_complete(), "offline campaign must converge: {report:?}");
    let bits = report.recovered_bits().unwrap();
    let mut checkpoint = Vec::new();
    campaign.write_checkpoint(&mut checkpoint).unwrap();
    let rec = key_from_fft_bits(&bits, vk).expect("NTRU key recovery");
    let mut sig_rng = Prng::from_seed(b"streamed determinism forgery");
    let forged = rec.sk.sign(b"streamed determinism forgery", &mut sig_rng);
    assert!(vk.verify(b"streamed determinism forgery", &forged), "forgery must verify");
    (bits, checkpoint, forged)
}

/// Resident vs streamed matrix: the same archived FALCON-8 capture
/// replayed through the in-memory `Dataset` and through a
/// `StreamedDataset`, at 1 and `available_parallelism()` workers.
/// Campaign, recovered key, checkpoint bytes and forgery must be
/// identical everywhere, and the staging high-water mark must respect
/// `STAGE_BYTES`.
fn resident_vs_streamed_matrix() {
    let mut rng = Prng::from_seed(b"determinism key");
    let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
    let vk = kp.verifying_key().clone();
    let truth: Vec<u64> = kp.signing_key().f_fft().iter().map(|x| x.to_bits()).collect();
    let chain = MeasurementChain {
        model: LeakageModel::hamming_weight(1.0, 1.0),
        lowpass: 0.0,
        scope: Scope { enabled: false, ..Default::default() },
        ..Default::default()
    };
    let mut device = Device::new(kp.into_parts().0, chain, b"determinism bench");
    let mut msgs = Prng::from_seed(b"determinism msgs");
    let targets: Vec<usize> = (0..8).collect();
    let ds = Dataset::collect(&mut device, &targets, 600, &mut msgs);

    let dir =
        std::env::temp_dir().join(format!("falcon-determinism-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let archive = dir.join("capture.fdnd");
    falcon_down::dema::io::atomic_write(&archive, |w| falcon_down::dema::io::write_dataset(&ds, w))
        .unwrap();
    let file_len = std::fs::metadata(&archive).unwrap().len();

    let avail = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    for threads in [1usize, avail] {
        exec::set_threads(threads);
        let (bits, ckpt, forged) = run_offline(&ds, &vk);
        assert_eq!(bits, truth, "resident offline recovery at {threads} thread(s)");
        assert!(
            file_len > STAGE_BYTES as u64,
            "the archive ({file_len} B) must exceed the staging bound ({STAGE_BYTES} B) \
             for the out-of-core claim to mean anything"
        );
        stream::reset_ring_peak();
        let sd = StreamedDataset::open_default(&archive).unwrap();
        let (sbits, sckpt, sforged) = run_offline(&sd, &vk);
        let what = format!("streamed at {threads} thread(s)");
        assert_eq!(sbits, bits, "recovered key must be bit-identical {what}");
        assert_eq!(sckpt, ckpt, "offline checkpoint bytes must be identical {what}");
        assert_eq!(sforged, forged, "forgery must be identical {what}");
        let peak = obs::gauge("stream.ring_peak_bytes").get();
        assert!(
            peak > 0.0 && peak <= STAGE_BYTES as f64,
            "staging peak {peak} B must be within (0, {STAGE_BYTES} B] {what}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_is_bit_identical_across_thread_counts() {
    // Restore the ambient configuration even if an assertion fires
    // mid-sweep (other processes reuse this binary's exit state only via
    // the env var, but in-process reruns must not inherit a pin).
    struct ClearOverride;
    impl Drop for ClearOverride {
        fn drop(&mut self) {
            exec::set_threads(0);
            simd::set_kernel(None);
        }
    }
    let _clear = ClearOverride;

    // Baseline at the ambient thread and kernel configuration (honours
    // FALCON_DEMA_THREADS and FALCON_DEMA_SIMD — CI sweeps both).
    let baseline = run_campaign();

    let avail = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    let compare = |run: &RunOutcome, what: &str| {
        assert_eq!(run.bits, baseline.bits, "recovered key must be bit-identical {what}");
        assert_eq!(
            run.checkpoint, baseline.checkpoint,
            "checkpoint bytes must be identical {what}"
        );
        for (name, (got, want)) in
            THREAD_INDEPENDENT_COUNTERS.iter().zip(run.counters.iter().zip(&baseline.counters))
        {
            assert_eq!(got, want, "counter {name} must be configuration-independent {what}");
        }
    };

    for threads in [1usize, 2, avail] {
        exec::set_threads(threads);
        let run = run_campaign();
        compare(&run, &format!("at {threads} thread(s)"));
    }

    // Kernel × threads: the scalar reference and the auto-detected SIMD
    // kernel at single- and max-threaded execution. On a host without
    // AVX2 both legs run the scalar tile — still a valid (if
    // degenerate) instance of the contract, and CI additionally sweeps
    // the env var so the off/auto split is always exercised somewhere.
    for kernel in [KernelChoice::Scalar, KernelChoice::Auto] {
        for threads in [1usize, avail] {
            simd::set_kernel(Some(kernel));
            exec::set_threads(threads);
            let run = run_campaign();
            compare(&run, &format!("with kernel {kernel:?} at {threads} thread(s)"));
        }
    }
    simd::set_kernel(None);

    // Source axis: the identical capture replayed from memory and from
    // a streamed archive must agree bit-for-bit too (same test
    // binary — the obs registry is process-global).
    resident_vs_streamed_matrix();
}
