//! E-F4e–h — Figure 4 (e–h): correlation evolution at the leakiest time
//! sample versus the number of traces, for each attack component, with
//! the 99.99 % confidence envelope and the resulting
//! traces-to-disclosure.
//!
//! ```text
//! cargo run --release -p falcon-bench --bin fig4_evolution \
//!     [logn=9] [noise=8.6] [traces=10000] [coeff=0]
//! ```
//!
//! Paper reference (EM bench, Cortex-M4): exponent and mantissa
//! addition leak with ~1k traces, the sign bit is hardest (~9k), and
//! everything is below 10k. Panics unless every component discloses
//! within the budget, the sign last and both mantissa components before
//! the exponent, and the wrong sign guess mirrors the correct one.

use falcon_bench::report::{arg_or, git_rev, host, print_csv, print_table, reject_unread_args};
use falcon_bench::setup::{victim, PAPER_NOISE_SIGMA};
use falcon_dema::confidence::{threshold_9999, traces_to_disclosure};
use falcon_dema::cpa::pearson_evolution;
use falcon_dema::model::{
    hyp_add_lo, hyp_exponent_with_carry, hyp_partial_product, hyp_sign, KnownOperand,
};
use falcon_dema::source::ColumnSource;
use falcon_dema::Dataset;
use falcon_emsim::StepKind;
use falcon_sig::rng::Prng;

fn main() {
    let logn: u32 = arg_or("logn", 9);
    let noise: f64 = arg_or("noise", PAPER_NOISE_SIGMA);
    let traces: usize = arg_or("traces", 10_000);
    let coeff: usize = arg_or("coeff", 0);
    reject_unread_args();
    println!("rev {}, host {}", git_rev(), host());
    println!(
        "FALCON-{}, noise sigma = {noise}, up to {traces} traces, coefficient {coeff}",
        1 << logn
    );
    let (mut device, _vk, truth) = victim(logn, noise, "fig4e victim");
    let mut msgs = Prng::from_seed(b"fig4e messages");
    let ds = Dataset::collect(&mut device, &[coeff], traces, &mut msgs);

    let bits = truth[coeff];
    let tm = (bits & ((1u64 << 52) - 1)) | (1 << 52);
    let (true_d, true_c) = (tm & 0x1FF_FFFF, tm >> 25);
    let true_sign = (bits >> 63) as u32;
    let true_exp = ((bits >> 52) & 0x7FF) as u32;

    let block = ds.target_block(coeff).expect("the dataset holds its target");
    let knowns: Vec<KnownOperand> =
        block.known_column(0).iter().map(|&kb| KnownOperand::new(kb)).collect();

    // (component name, per-trace hypothesis for the *correct* guess, the
    // step to observe) — first-occurrence columns give a clean
    // one-sample-per-trace evolution axis.
    let panels: Vec<(&str, Vec<f64>, StepKind)> = vec![
        ("(e) sign", knowns.iter().map(|k| hyp_sign(true_sign, k)).collect(), StepKind::SignXor),
        (
            "(f) exponent",
            knowns.iter().map(|k| hyp_exponent_with_carry(true_exp, true_c, true_d, k)).collect(),
            StepKind::ExponentAdd,
        ),
        (
            "(g) mantissa multiplication",
            knowns.iter().map(|k| hyp_partial_product(true_d, 25, k.lo, 25)).collect(),
            StepKind::PpLoLo,
        ),
        (
            "(h) mantissa addition",
            knowns.iter().map(|k| hyp_add_lo(true_d, k)).collect(),
            StepKind::AddLoHi,
        ),
    ];

    let (mut summary, mut disc) = (Vec::new(), Vec::new());
    for (name, hyps, step) in &panels {
        let samples = block.sample_column(0, *step);
        let evo = pearson_evolution(hyps, samples);
        let d = traces_to_disclosure(&evo);
        summary.push(vec![
            name.to_string(),
            format!("{:?}", step),
            format!("{:.4}", evo.last().copied().unwrap_or(0.0)),
            d.map(|d| d.to_string()).unwrap_or_else(|| format!("> {traces}")),
        ]);
        disc.push(d);
        // A decimated CSV of the evolution plus the CI envelope.
        let stride = (evo.len() / 100).max(1);
        let rows: Vec<Vec<String>> = evo
            .iter()
            .enumerate()
            .step_by(stride)
            .map(|(i, c)| {
                vec![
                    (i + 1).to_string(),
                    format!("{c:.5}"),
                    format!("{:.5}", threshold_9999((i + 1) as u64)),
                ]
            })
            .collect();
        print_csv(
            &format!("{name}: correlation vs trace count"),
            &["traces", "corr", "ci_9999"],
            &rows,
        );
    }

    print_table(
        "Figure 4(e-h): traces to 99.99% disclosure per component",
        &["panel", "observed step", "final corr", "traces to disclosure"],
        &summary,
    );

    // A false guess for contrast on the sign panel (paper: symmetric,
    // negative branch).
    let wrong: Vec<f64> = knowns.iter().map(|k| hyp_sign(1 - true_sign, k)).collect();
    let samples = block.sample_column(0, StepKind::SignXor);
    let right = *pearson_evolution(&panels[0].1, samples).last().unwrap();
    let wrong = *pearson_evolution(&wrong, samples).last().unwrap();
    println!(
        "\nsign panel contrast: correct-guess corr {right:+.4}, wrong-guess corr {wrong:+.4} (mirror image)"
    );
    assert!((right + wrong).abs() < 1e-9, "the wrong sign guess must mirror the correct one");
    let [Some(sign), Some(exp), Some(mul), Some(add)] = disc[..] else {
        panic!("every component must disclose within {traces} traces: {disc:?}")
    };
    assert!(sign > exp.max(mul).max(add), "the sign must disclose last: {disc:?}");
    assert!(mul.max(add) < exp, "the mantissa words must disclose before the exponent: {disc:?}");
}
