//! E-T1 — the paper's headline numbers (§IV prose): traces needed for a
//! stable 99.99 %-confident leak, per attacked component, across several
//! coefficients and keys.
//!
//! Paper reference (EM bench, Cortex-M4): exponent ≈ 1k, mantissa
//! addition ≈ 1k, sign ≈ 9k; all coefficients below 10k traces.
//!
//! ```text
//! cargo run --release -p falcon-bench --bin table1_disclosure \
//!     [logn=9] [noise=8.6] [traces=12000] [keys=2] [coeffs=4]
//! ```
//!
//! Panics unless both mantissa components disclose for every
//! coefficient and the sign and exponent medians (a coefficient that
//! never discloses counting as above the budget) are under 10k traces.

use falcon_bench::report::{arg_or, git_rev, host, print_table, reject_unread_args};
use falcon_bench::setup::{victim, PAPER_NOISE_SIGMA};
use falcon_dema::confidence::traces_to_disclosure;
use falcon_dema::cpa::pearson_evolution;
use falcon_dema::model::{
    hyp_add_lo, hyp_exponent_with_carry, hyp_partial_product, hyp_sign, KnownOperand,
};
use falcon_dema::source::ColumnSource;
use falcon_dema::Dataset;
use falcon_emsim::StepKind;
use falcon_sig::rng::Prng;

/// The paper's per-coefficient trace budget.
const PAPER_BUDGET: usize = 10_000;

fn main() {
    let logn: u32 = arg_or("logn", 9);
    let noise: f64 = arg_or("noise", PAPER_NOISE_SIGMA);
    let traces: usize = arg_or("traces", 12_000);
    let keys: usize = arg_or("keys", 2);
    let coeffs: usize = arg_or("coeffs", 4);
    reject_unread_args();
    println!("rev {}, host {}", git_rev(), host());
    let n = 1usize << logn;

    println!(
        "FALCON-{n}, noise sigma = {noise}, budget {traces} traces, {keys} keys x {coeffs} coefficients"
    );

    let mut per_component: [Vec<Option<usize>>; 4] = Default::default();
    let comp_names = ["sign", "exponent", "mantissa mult", "mantissa add"];

    for key in 0..keys {
        let (mut device, _vk, truth) = victim(logn, noise, &format!("table1 victim {key}"));
        let targets: Vec<usize> = (0..coeffs).map(|i| i * (n / coeffs)).collect();
        let mut msgs = Prng::from_seed(format!("table1 msgs {key}").as_bytes());
        let ds = Dataset::collect(&mut device, &targets, traces, &mut msgs);
        for &t in &targets {
            let bits = truth[t];
            let tm = (bits & ((1u64 << 52) - 1)) | (1 << 52);
            let (d_lo, c_hi) = (tm & 0x1FF_FFFF, tm >> 25);
            let sgn = (bits >> 63) as u32;
            let exp = ((bits >> 52) & 0x7FF) as u32;
            let block = ds.target_block(t).expect("the dataset holds its targets");
            let knowns: Vec<KnownOperand> =
                block.known_column(0).iter().map(|&kb| KnownOperand::new(kb)).collect();
            let cases: [(usize, Vec<f64>, StepKind); 4] = [
                (0, knowns.iter().map(|k| hyp_sign(sgn, k)).collect(), StepKind::SignXor),
                (
                    1,
                    knowns.iter().map(|k| hyp_exponent_with_carry(exp, c_hi, d_lo, k)).collect(),
                    StepKind::ExponentAdd,
                ),
                (
                    2,
                    knowns.iter().map(|k| hyp_partial_product(d_lo, 25, k.lo, 25)).collect(),
                    StepKind::PpLoLo,
                ),
                (3, knowns.iter().map(|k| hyp_add_lo(d_lo, k)).collect(), StepKind::AddLoHi),
            ];
            for (idx, hyps, step) in cases {
                let samples = block.sample_column(0, step);
                let evo = pearson_evolution(&hyps, samples);
                per_component[idx].push(traces_to_disclosure(&evo));
            }
        }
    }

    // A coefficient that never discloses ranks above every count.
    let show = |d: Option<usize>| d.map_or(format!("> {traces}"), |d| d.to_string());
    let sorted = per_component.map(|mut v| {
        v.sort_by_key(|d| d.unwrap_or(usize::MAX));
        v
    });
    let misses: Vec<usize> =
        sorted.iter().map(|v| v.iter().filter(|d| d.is_none()).count()).collect();
    let paper = ["~9k", "~1k", "n/a (ties)", "~1k"];
    let rows: Vec<Vec<String>> = (0..4)
        .map(|i| {
            let v = &sorted[i];
            vec![
                comp_names[i].to_string(),
                show(v[v.len() / 2]),
                show(v[v.len() - 1]),
                misses[i].to_string(),
                paper[i].to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 1: traces to stable 99.99% disclosure",
        &["component", "median", "max", "not disclosed", "paper (~)"],
        &rows,
    );

    // The paper's claims: the wide mantissa words disclose for every
    // coefficient, and the narrow sign and exponent words for at least
    // half of them within its 10k-trace budget.
    for i in [2, 3] {
        assert_eq!(misses[i], 0, "{}: a coefficient never disclosed", comp_names[i]);
    }
    for i in [0, 1] {
        let median = sorted[i][sorted[i].len() / 2];
        assert!(
            median.is_some_and(|d| d < PAPER_BUDGET),
            "{}: median {} is not under the paper's {PAPER_BUDGET}",
            comp_names[i],
            show(median)
        );
    }
    let total = keys * coeffs;
    println!(
        "\nboth mantissa components disclose for all {total} coefficients; the sign and\n\
         exponent medians fit the paper's {PAPER_BUDGET}-trace budget, but {} sign and {}\n\
         exponent leaks of {total} stay hidden within {traces} traces",
        misses[0], misses[1]
    );
}
