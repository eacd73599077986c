//! E-V3 — robustness of the attack under acquisition faults: a sweep of
//! fault regimes (missed triggers, trigger jitter, glitch bursts, ADC
//! saturation, gain drift) crossed with attacker-side screening on/off.
//!
//! Each cell runs an adaptive [`falcon_dema::Campaign`] to a fixed trace
//! budget and reports how many coefficients of `FFT(f)` converged at
//! the 99.99 % confidence bar, how many captures the campaign spent,
//! and what the screening layer did with the batch.
//!
//! ```text
//! cargo run --release -p falcon-bench --bin tableF_faults \
//!     [logn=4] [noise=2.0] [budget=4000] [batch=100]
//! ```
//!
//! Panics unless both campaigns recover every coefficient on the clean
//! bench, screening never costs correct coefficients or captures, and
//! under misaligning or clipping faults (jitter, saturation, the noisy
//! bench) the unscreened campaign ends with fewer correct coefficients.

use falcon_bench::report::{arg_or, git_rev, host, print_table, reject_unread_args};
use falcon_dema::{Campaign, CampaignConfig, ScreenConfig};
use falcon_emsim::{Device, FaultModel, LeakageModel, MeasurementChain, Scope};
use falcon_sig::rng::Prng;
use falcon_sig::{KeyPair, LogN};

/// `(name, faults, whether unscreened traces mislead the campaign)`.
fn regimes() -> Vec<(&'static str, FaultModel, bool)> {
    vec![
        ("clean bench", FaultModel::default(), false),
        ("5% dropout", FaultModel { drop_prob: 0.05, ..Default::default() }, false),
        (
            "jitter ±2 @20%",
            FaultModel { jitter_prob: 0.20, max_jitter: 2, ..Default::default() },
            true,
        ),
        (
            "1% glitch bursts",
            FaultModel {
                glitch_prob: 0.01,
                glitch_amplitude: 60.0,
                glitch_len: 5,
                ..Default::default()
            },
            false,
        ),
        ("2% saturation", FaultModel { saturation_prob: 0.02, ..Default::default() }, true),
        ("gain drift 1e-4", FaultModel { gain_drift_per_trace: 1e-4, ..Default::default() }, false),
        ("noisy bench (all)", FaultModel::noisy_bench(), true),
    ]
}

fn main() {
    let logn: u32 = arg_or("logn", 4);
    let noise: f64 = arg_or("noise", 2.0);
    let budget: usize = arg_or("budget", 4000);
    let batch: usize = arg_or("batch", 100);
    reject_unread_args();
    println!("rev {}, host {}", git_rev(), host());
    let params = LogN::new(logn).expect("logn in 1..=10");
    let n = params.n();

    println!(
        "FALCON-{n}, noise sigma = {noise}, {budget}-capture budget, \
         batches of {batch}, all {n} coefficients targeted"
    );

    let mut rng = Prng::from_seed(b"tableF victim");
    let kp = KeyPair::generate(params, &mut rng);
    let sk = kp.into_parts().0;
    let truth: Vec<u64> = sk.f_fft().iter().map(|x| x.to_bits()).collect();

    let (mut rows, mut cells) = (Vec::new(), Vec::new());
    for (name, fm, misleads) in regimes() {
        for screened in [true, false] {
            let chain = MeasurementChain {
                model: LeakageModel::hamming_weight(1.0, noise),
                lowpass: 0.0,
                scope: Scope::default(),
                faults: fm,
            };
            let mut device = Device::new(sk.clone(), chain, b"tableF bench");
            let mut msgs = Prng::from_seed(b"tableF messages");
            let cfg = CampaignConfig {
                batch_size: batch,
                max_traces: budget,
                screen: screened.then(ScreenConfig::default),
                ..Default::default()
            };
            let mut campaign = Campaign::new(n, cfg).expect("valid config");
            let report = campaign.run(&mut device, &mut msgs).expect("campaign runs");
            let correct = report
                .statuses
                .iter()
                .filter(|s| s.is_recovered() && s.bits() == truth[s.target()])
                .count();
            let s = report.stats;
            rows.push(vec![
                name.to_string(),
                if screened { "on" } else { "off" }.to_string(),
                format!("{}/{n}", report.recovered_count()),
                format!("{correct}/{n}"),
                report.traces_requested.to_string(),
                format!("{:.0}%", 100.0 * s.kept as f64 / s.requested.max(1) as f64),
                (s.dropped_trigger + s.discarded()).to_string(),
                s.realigned.to_string(),
                s.winsorized.to_string(),
            ]);
            cells.push((name, misleads, correct, report.traces_requested));
        }
    }

    print_table(
        "Table F: campaign robustness under acquisition faults",
        &[
            "fault regime",
            "screen",
            "converged",
            "correct",
            "captures",
            "kept",
            "lost",
            "realigned",
            "winsorized",
        ],
        &rows,
    );
    // `cells` alternates screened and unscreened runs of one regime,
    // the clean bench first.
    assert_eq!(
        (cells[0].2, cells[1].2),
        (n, n),
        "clean bench: every coefficient must be recovered"
    );
    for pair in cells.chunks(2) {
        let [(name, misleads, on, on_cost), (_, _, off, off_cost)] = pair else { unreachable!() };
        assert!(on >= off, "{name}: screening lost correct coefficients ({on} < {off})");
        assert!(on_cost <= off_cost, "{name}: screening cost captures ({on_cost} > {off_cost})");
        if *misleads {
            assert!(on > off, "{name}: the unscreened campaign is not misled ({off} >= {on})");
        }
    }
}
