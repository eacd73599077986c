//! Ablation: the incremental extend-and-prune's design knobs — beam
//! width and window step — against success rate and run time.
//!
//! ```text
//! cargo run --release -p falcon-bench --bin ablation_attack \
//!     [logn=5] [noise=4.0] [traces=1500] [coeffs=8]
//! ```

use falcon_bench::report::{arg_or, print_table, reject_unread_args};
use falcon_dema::attack::{recover_coefficient, AttackConfig};
use falcon_dema::Dataset;
use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope};
use falcon_sig::rng::Prng;
use falcon_sig::{KeyPair, LogN};
use std::time::Instant;

fn main() {
    let logn: u32 = arg_or("logn", 5);
    let noise: f64 = arg_or("noise", 4.0);
    let traces: usize = arg_or("traces", 1500);
    let coeffs: usize = arg_or("coeffs", 8);
    reject_unread_args();
    let params = LogN::new(logn).expect("logn in 1..=10");
    let n = params.n();

    let mut rng = Prng::from_seed(b"ablation attack key");
    let kp = KeyPair::generate(params, &mut rng);
    let truth: Vec<u64> = kp.signing_key().f_fft().iter().map(|x| x.to_bits()).collect();
    let chain = MeasurementChain {
        model: LeakageModel::hamming_weight(1.0, noise),
        lowpass: 0.0,
        scope: Scope::default(),
        ..Default::default()
    };
    let mut dev = Device::new(kp.into_parts().0, chain, b"ablation attack bench");
    let targets: Vec<usize> = (0..coeffs.min(n)).map(|i| i * (n / coeffs.min(n))).collect();
    let mut msgs = Prng::from_seed(b"ablation attack msgs");
    let ds = Dataset::collect(&mut dev, &targets, traces, &mut msgs);

    println!(
        "FALCON-{n}, noise sigma = {noise}, {traces} traces, {} coefficients per configuration",
        targets.len()
    );
    let configs = [
        AttackConfig { step_bits: 4, beam_width: 16 },
        AttackConfig { step_bits: 8, beam_width: 8 },
        AttackConfig { step_bits: 8, beam_width: 16 },
        AttackConfig { step_bits: 8, beam_width: 64 },
        AttackConfig { step_bits: 8, beam_width: 256 },
        AttackConfig { step_bits: 12, beam_width: 16 },
        AttackConfig { step_bits: 12, beam_width: 64 },
    ];
    let mut rows = Vec::new();
    for cfg in configs {
        let t0 = Instant::now();
        let ok =
            targets.iter().filter(|&&t| recover_coefficient(&ds, t, &cfg).bits == truth[t]).count();
        let dt = t0.elapsed();
        rows.push(vec![
            format!("step={} beam={}", cfg.step_bits, cfg.beam_width),
            format!("{ok}/{}", targets.len()),
            format!("{:.2?}", dt / targets.len() as u32),
        ]);
    }
    print_table(
        "Ablation: extend-and-prune beam parameters",
        &["configuration", "coefficients exact", "time/coefficient"],
        &rows,
    );
    println!("\nreading: wider beams buy robustness at linear cost; larger windows");
    println!("(step bits) trade fewer levels for exponentially more candidates per");
    println!("level — the default (step=8, beam=64) sits at the knee.");
}
