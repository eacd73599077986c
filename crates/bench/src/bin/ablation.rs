//! Ablations of the design choices: the incremental extend-and-prune's
//! beam width and window step against success and work, and the
//! measurement chain's noise floor, probe bandwidth and scope
//! resolution against the trace budget.
//!
//! ```text
//! cargo run --release -p falcon-bench --bin ablation
//! ```
//!
//! Panics unless, at these sizes, every beam configuration recovers all
//! 8 coefficients, the correlations scored per coefficient grow with
//! the beam width and with the window step, and the mantissa-addition
//! budget grows with the noise floor and the probe's low-pass while a
//! 6- or 12-bit scope stays within a quarter of the 8-bit one.

use falcon_bench::report::{git_rev, host, print_table, reject_unread_args};
use falcon_dema::attack::{recover_coefficient, AttackConfig};
use falcon_dema::confidence::traces_to_disclosure;
use falcon_dema::cpa::pearson_evolution;
use falcon_dema::model::{hyp_add_lo, hyp_sign, KnownOperand};
use falcon_dema::source::ColumnSource;
use falcon_dema::Dataset;
use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope, StepKind};
use falcon_obs as obs;
use falcon_sig::rng::Prng;
use falcon_sig::{KeyPair, LogN, SigningKey};

fn main() {
    reject_unread_args();
    println!("rev {}, host {}", git_rev(), host());
    beam_sweep();
    chain_sweep();
}

fn key(logn: u32, seed: &[u8]) -> SigningKey {
    let params = LogN::new(logn).expect("logn in 1..=10");
    KeyPair::generate(params, &mut Prng::from_seed(seed)).into_parts().0
}

fn chain(noise: f64, lowpass: f64, scope_bits: u32) -> MeasurementChain {
    MeasurementChain {
        model: LeakageModel::hamming_weight(1.0, noise),
        lowpass,
        scope: Scope { bits: scope_bits, full_scale: 100.0, enabled: true },
        ..Default::default()
    }
}

/// FALCON-32 at σ = 4, 1500 traces, 8 coefficients per configuration.
fn beam_sweep() {
    let (logn, noise, traces, coeffs) = (5, 4.0, 1500, 8);
    let sk = key(logn, b"ablation attack key");
    let truth: Vec<u64> = sk.f_fft().iter().map(|x| x.to_bits()).collect();
    let n = truth.len();
    let mut dev = Device::new(sk, chain(noise, 0.0, 8), b"ablation attack bench");
    let targets: Vec<usize> = (0..coeffs).map(|i| i * (n / coeffs)).collect();
    let mut msgs = Prng::from_seed(b"ablation attack msgs");
    let ds = Dataset::collect(&mut dev, &targets, traces, &mut msgs);

    println!("\nFALCON-{n}, noise sigma = {noise}, {traces} traces, {coeffs} coefficients");
    let configs = [(4, 16), (8, 8), (8, 16), (8, 64), (8, 256), (12, 16), (12, 64)]
        .map(|(step_bits, beam_width)| AttackConfig { step_bits, beam_width });
    let (mut rows, mut exact, mut cost) = (Vec::new(), Vec::new(), Vec::new());
    for cfg in &configs {
        let before = obs::metrics().snapshot();
        let ok =
            targets.iter().filter(|&&t| recover_coefficient(&ds, t, cfg).bits == truth[t]).count();
        let per_coeff =
            obs::metrics().snapshot().counter_delta(&before, "attack.correlations") / coeffs as u64;
        rows.push(vec![
            format!("step={} beam={}", cfg.step_bits, cfg.beam_width),
            format!("{ok}/{coeffs}"),
            per_coeff.to_string(),
        ]);
        exact.push(ok);
        cost.push(per_coeff);
    }
    print_table(
        "Ablation: extend-and-prune beam parameters",
        &["configuration", "coefficients exact", "correlations/coefficient"],
        &rows,
    );
    for (cfg, &ok) in configs.iter().zip(&exact) {
        assert_eq!(ok, coeffs, "{cfg:?} must recover every coefficient at sigma {noise}");
    }
    // Indices into `configs`: a wider beam at step 8, then a wider
    // window at beam 16 and at beam 64, must each score more guesses.
    for chain in [&[1, 2, 3, 4][..], &[0, 2, 5], &[3, 6]] {
        for w in chain.windows(2) {
            assert!(
                cost[w[0]] < cost[w[1]],
                "{:?} scores {} correlations/coefficient, not fewer than {:?} ({})",
                configs[w[0]],
                cost[w[0]],
                configs[w[1]],
                cost[w[1]]
            );
        }
    }
}

/// FALCON-64 coefficient 1, 6000 traces per chain.
fn chain_sweep() {
    let (logn, traces, coeff) = (6, 6000, 1);
    let sk = key(logn, b"ablation chain key");
    let truth = sk.f_fft()[coeff].to_bits();
    let d_lo = truth & 0x1FF_FFFF;
    let sign = (truth >> 63) as u32;

    // (name, noise sigma, low-pass, scope bits); the row indices below
    // name these rows.
    let specs = [
        ("reference (sigma=8.6, 8-bit)", 8.6, 0.0, 8),
        ("quiet lab (sigma=2)", 2.0, 0.0, 8),
        ("noisy field (sigma=17)", 17.2, 0.0, 8),
        ("narrowband probe (lp=0.5)", 8.6, 0.5, 8),
        ("narrowband probe (lp=0.8)", 8.6, 0.8, 8),
        ("6-bit scope", 8.6, 0.0, 6),
        ("12-bit scope", 8.6, 0.0, 12),
    ];
    const REF: usize = 0;

    println!("\nFALCON-{}, coefficient {coeff}, {traces} traces per chain", 1 << logn);
    let (mut rows, mut add) = (Vec::new(), Vec::new());
    for &(name, noise, lowpass, bits) in &specs {
        let mut dev = Device::new(sk.clone(), chain(noise, lowpass, bits), b"ablation chain bench");
        let mut msgs = Prng::from_seed(b"ablation chain msgs");
        let ds = Dataset::collect(&mut dev, &[coeff], traces, &mut msgs);
        let block = ds.target_block(coeff).expect("the dataset holds its target");
        let knowns: Vec<KnownOperand> =
            block.known_column(0).iter().map(|&kb| KnownOperand::new(kb)).collect();
        let disclosure = |hyp: &dyn Fn(&KnownOperand) -> f64, step| {
            let hyps: Vec<f64> = knowns.iter().map(hyp).collect();
            let evo = pearson_evolution(&hyps, block.sample_column(0, step));
            (traces_to_disclosure(&evo), evo.last().copied().unwrap_or(0.0))
        };
        let (sign_disc, _) = disclosure(&|k| hyp_sign(sign, k), StepKind::SignXor);
        let (add_disc, add_corr) = disclosure(&|k| hyp_add_lo(d_lo, k), StepKind::AddLoHi);
        let show = |d: Option<usize>| d.map_or(format!("> {traces}"), |d| d.to_string());
        rows.push(vec![
            name.to_string(),
            show(sign_disc),
            show(add_disc),
            format!("{add_corr:.3}"),
        ]);
        add.push(add_disc.unwrap_or(usize::MAX));
    }
    print_table(
        "Ablation: measurement chain vs attack budget",
        &["chain", "sign disclosure", "mantissa-add disclosure", "add corr"],
        &rows,
    );
    // More noise and a narrower probe each cost traces.
    for (cheaper, dearer) in [(1, REF), (REF, 2), (REF, 3), (3, 4)] {
        assert!(
            add[cheaper] < add[dearer],
            "{} ({}) must disclose the mantissa addition before {} ({})",
            specs[cheaper].0,
            add[cheaper],
            specs[dearer].0,
            add[dearer]
        );
    }
    // Scope resolution above 6 bits barely matters next to the noise.
    for row in [5, 6] {
        assert!(
            add[row].abs_diff(add[REF]) <= add[REF] / 4,
            "{} ({}) is more than a quarter off the 8-bit scope ({})",
            specs[row].0,
            add[row],
            add[REF]
        );
    }
}
