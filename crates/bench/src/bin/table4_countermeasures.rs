//! E-V2 — the paper's §V.B countermeasure discussion, quantified:
//! attack degradation under hiding (extra noise) and shuffling, plus the
//! device-side overhead of each.
//!
//! ```text
//! cargo run --release -p falcon-bench --bin table4_countermeasures \
//!     [logn=5] [noise=2.0] [traces=2000]
//! ```

use falcon_bench::report::{arg_or, print_table, reject_unread_args};
use falcon_dema::attack::AttackConfig;
use falcon_dema::countermeasure::evaluate_device;
use falcon_emsim::{CountermeasureConfig, Device, LeakageModel, MeasurementChain, Scope};
use falcon_sig::rng::Prng;
use falcon_sig::{KeyPair, LogN};
use std::time::Instant;

fn main() {
    let logn: u32 = arg_or("logn", 5);
    let base_noise: f64 = arg_or("noise", 2.0);
    let traces: usize = arg_or("traces", 2000);
    reject_unread_args();
    let params = LogN::new(logn).expect("logn in 1..=10");
    let target = 1usize;

    println!(
        "FALCON-{}, base noise sigma = {base_noise}, {traces} traces per configuration",
        params.n()
    );

    let mut rng = Prng::from_seed(b"table4 victim");
    let kp = KeyPair::generate(params, &mut rng);
    let sk = kp.into_parts().0;

    let configs: Vec<(&str, CountermeasureConfig)> = vec![
        ("unprotected", CountermeasureConfig::default()),
        (
            "hiding: +2x noise",
            CountermeasureConfig {
                shuffle: false,
                extra_noise_sigma: 2.0 * base_noise,
                masking: false,
            },
        ),
        (
            "hiding: +4x noise",
            CountermeasureConfig {
                shuffle: false,
                extra_noise_sigma: 4.0 * base_noise,
                masking: false,
            },
        ),
        (
            "shuffling",
            CountermeasureConfig { shuffle: true, extra_noise_sigma: 0.0, masking: false },
        ),
        (
            "shuffling + 2x noise",
            CountermeasureConfig {
                shuffle: true,
                extra_noise_sigma: 2.0 * base_noise,
                masking: false,
            },
        ),
        (
            "additive masking",
            CountermeasureConfig { shuffle: false, extra_noise_sigma: 0.0, masking: true },
        ),
    ];

    let cfg = AttackConfig::default();
    let mut rows = Vec::new();
    let mut baseline_disc: Option<usize> = None;
    for (name, cm) in configs {
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, base_noise),
            lowpass: 0.0,
            scope: Scope::default(),
            ..Default::default()
        };
        let mut device = Device::new(sk.clone(), chain, b"table4 bench").with_countermeasures(cm);
        // Device-side overhead: wall time per capture (shuffling costs a
        // permutation; noise is free for the device).
        let t0 = Instant::now();
        for i in 0..50u8 {
            let _ = device.capture(&[i]);
        }
        let per_capture = t0.elapsed() / 50;

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
            format!("{per_capture:.1?}"),
        ]);
    }
    print_table(
        "Table 4: attack degradation under hiding countermeasures",
        &[
            "configuration",
            "coeff recovered",
            "sign corr",
            "sign disclosure",
            "slowdown",
            "capture cost",
        ],
        &rows,
    );
    println!("\nthe paper's recommendation: masking (randomised intermediates) is the");
    println!("principled fix — the prototype masked multiply defeats first-order DEMA");
    println!("outright, while hiding only raises the adversary's trace budget.");
}
