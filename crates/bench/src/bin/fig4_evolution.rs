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
use falcon_dema::confidence::{disclosure, threshold_9999};
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
    let block = ds.target_block(coeff).expect("the dataset holds its target");
    let panels = [
        ("(e) sign", StepKind::SignXor),
        ("(f) exponent", StepKind::ExponentAdd),
        ("(g) mantissa multiplication", StepKind::PpLoLo),
        ("(h) mantissa addition", StepKind::AddLoHi),
    ];

    let (mut summary, mut disc) = (Vec::new(), Vec::new());
    for (name, step) in panels {
        let out = disclosure(&block, bits, step);
        summary.push(vec![
            name.to_string(),
            format!("{step:?}"),
            format!("{:.4}", out.final_corr()),
            out.traces.map(|d| d.to_string()).unwrap_or_else(|| format!("> {traces}")),
        ]);
        disc.push(out.traces);
        // A decimated CSV of the evolution plus the CI envelope, which
        // counts the two samples each trace adds.
        let stride = (out.evolution.len() / 100).max(1);
        let rows: Vec<Vec<String>> = out
            .evolution
            .iter()
            .enumerate()
            .step_by(stride)
            .map(|(i, c)| {
                vec![
                    (i + 1).to_string(),
                    format!("{c:.5}"),
                    format!("{:.5}", threshold_9999(2 * (i + 1) as u64)),
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
    let right = disclosure(&block, bits, StepKind::SignXor).final_corr();
    let wrong = disclosure(&block, bits ^ 1 << 63, StepKind::SignXor).final_corr();
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
