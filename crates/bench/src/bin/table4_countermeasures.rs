//! E-V2 — the paper's §V.B countermeasure discussion, quantified:
//! attack degradation under hiding (extra noise), shuffling and the
//! prototype additive masking.
//!
//! ```text
//! cargo run --release -p falcon-bench --bin table4_countermeasures \
//!     [logn=5] [noise=2.0] [traces=2000]
//! ```
//!
//! Panics unless hiding leaves the coefficient recoverable at a sign
//! disclosure that grows with the added noise, while shuffling and
//! masking defeat the recovery and masking hides the sign outright.

use falcon_bench::report::{arg_or, git_rev, host, print_table, reject_unread_args};
use falcon_dema::attack::AttackConfig;
use falcon_dema::countermeasure::evaluate_device;
use falcon_emsim::{CountermeasureConfig, Device, LeakageModel, MeasurementChain, Scope};
use falcon_sig::rng::Prng;
use falcon_sig::{KeyPair, LogN};

fn main() {
    let logn: u32 = arg_or("logn", 5);
    let base_noise: f64 = arg_or("noise", 2.0);
    let traces: usize = arg_or("traces", 2000);
    reject_unread_args();
    println!("rev {}, host {}", git_rev(), host());
    let params = LogN::new(logn).expect("logn in 1..=10");
    let target = 1usize;

    println!(
        "FALCON-{}, base noise sigma = {base_noise}, {traces} traces per configuration",
        params.n()
    );

    let mut rng = Prng::from_seed(b"table4 victim");
    let kp = KeyPair::generate(params, &mut rng);
    let sk = kp.into_parts().0;

    // (name, countermeasures, whether the attack still recovers the
    // coefficient); rows 0-2 add hiding noise, row 5 masks.
    let hiding = |k: f64| CountermeasureConfig {
        shuffle: false,
        extra_noise_sigma: k * base_noise,
        masking: false,
    };
    let configs = [
        ("unprotected", CountermeasureConfig::default(), true),
        ("hiding: +2x noise", hiding(2.0), true),
        ("hiding: +4x noise", hiding(4.0), true),
        ("shuffling", CountermeasureConfig { shuffle: true, ..hiding(0.0) }, false),
        ("shuffling + 2x noise", CountermeasureConfig { shuffle: true, ..hiding(2.0) }, false),
        ("additive masking", CountermeasureConfig { masking: true, ..hiding(0.0) }, false),
    ];

    let cfg = AttackConfig::default();
    let (mut rows, mut outs) = (Vec::new(), Vec::new());
    let mut baseline_disc: Option<usize> = None;
    for (name, cm, _) in configs {
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, base_noise),
            lowpass: 0.0,
            scope: Scope::default(),
            ..Default::default()
        };
        let mut device = Device::new(sk.clone(), chain, b"table4 bench").with_countermeasures(cm);
        let mut msgs = Prng::from_seed(b"table4 messages");
        let out = evaluate_device(&mut device, target, traces, &mut msgs, &cfg);
        if baseline_disc.is_none() {
            baseline_disc = out.sign_disclosure;
        }
        let slowdown = match (baseline_disc, out.sign_disclosure) {
            (Some(b), Some(d)) => format!("{:.1}x", d as f64 / b as f64),
            (Some(_), None) => format!("> {:.1}x", traces as f64 / baseline_disc.unwrap() as f64),
            _ => "-".into(),
        };
        rows.push(vec![
            name.to_string(),
            out.recovered.to_string(),
            format!("{:+.4}", out.sign_corr),
            out.sign_disclosure.map(|d| d.to_string()).unwrap_or_else(|| format!("> {traces}")),
            slowdown,
        ]);
        outs.push(out);
    }
    print_table(
        "Table 4: attack degradation under hiding countermeasures",
        &["configuration", "coeff recovered", "sign corr", "sign disclosure", "slowdown"],
        &rows,
    );

    for ((name, _, recovered), out) in configs.iter().zip(&outs) {
        assert_eq!(out.recovered, *recovered, "{name}: coefficient recovered");
    }
    // A sign that never discloses ranks above every count.
    let disc: Vec<usize> = outs.iter().map(|o| o.sign_disclosure.unwrap_or(usize::MAX)).collect();
    assert!(
        disc[0] < disc[1] && disc[1] <= disc[2],
        "hiding noise must raise the sign disclosure: {:?}",
        &disc[..3]
    );
    assert_eq!(outs[5].sign_disclosure, None, "masking must hide the sign");
}
