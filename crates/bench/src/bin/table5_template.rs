//! E-X1 (extension) — the paper's §V.A remark, quantified: profiled
//! template attacks need fewer traces than the non-profiled DEMA.
//!
//! A clone device with a known key is profiled once; the victim (a
//! different key, same bench) is then attacked with (i) the paper's
//! correlation distinguisher and (ii) Gaussian-template maximum
//! likelihood, comparing the trace budget for a stable correct sign bit
//! (the attack's hardest component).
//!
//! ```text
//! cargo run --release -p falcon-bench --bin table5_template \
//!     [logn=6] [noise=8.6] [traces=10000] [profile=400] [coeffs=4]
//! ```
//!
//! Panics unless, for every coefficient, the templates settle on the
//! true sign in fewer traces than the non-profiled 99.99 % test needs.

use falcon_bench::report::{arg_or, git_rev, host, print_table, reject_unread_args};
use falcon_bench::setup::{victim, PAPER_NOISE_SIGMA};
use falcon_dema::confidence::disclosure;
use falcon_dema::source::ColumnSource;
use falcon_dema::template::{profile_step, template_sign_stability};
use falcon_dema::Dataset;
use falcon_emsim::StepKind;
use falcon_sig::rng::Prng;

fn main() {
    let logn: u32 = arg_or("logn", 6);
    let noise: f64 = arg_or("noise", PAPER_NOISE_SIGMA);
    let traces: usize = arg_or("traces", 10_000);
    let profile: usize = arg_or("profile", 400);
    let coeffs: usize = arg_or("coeffs", 4);
    reject_unread_args();
    println!("rev {}, host {}", git_rev(), host());
    let n = 1usize << logn;

    println!(
        "FALCON-{n}, noise sigma = {noise}: profiling {profile} traces on a clone device,\n\
         then attacking the sign bit of {coeffs} victim coefficients (budget {traces})"
    );

    // Profiling phase on a device with a known (different) key.
    let (mut clone_dev, _, _) = victim(logn, noise, "template clone");
    let mut pmsgs = Prng::from_seed(b"template profiling msgs");
    let templates = profile_step(&mut clone_dev, StepKind::SignXor, profile, &mut pmsgs);
    println!(
        "templates: {} labelled observations, pooled noise variance {:.2} (true {:.2})",
        templates.observations(),
        templates.noise_variance(),
        noise * noise
    );

    // Attack phase.
    let (mut dev, _vk, truth) = victim(logn, noise, "template victim");
    let targets: Vec<usize> = (0..coeffs).map(|i| i * (n / coeffs)).collect();
    let mut msgs = Prng::from_seed(b"template victim msgs");
    let ds = Dataset::collect(&mut dev, &targets, traces, &mut msgs);

    let (mut rows, mut budgets) = (Vec::new(), Vec::new());
    for &t in &targets {
        let true_sign = (truth[t] >> 63) as u32;
        // Non-profiled: correlation evolution.
        let block = ds.target_block(t).expect("the dataset holds its targets");
        let sign = disclosure(&block, truth[t], StepKind::SignXor);
        let cpa = sign.traces;
        // Like-for-like criterion: smallest prefix from which the
        // distinguisher's top guess is (and stays) correct. For CPA the
        // correct sign is the positive-correlation guess.
        let mut cpa_stable: Option<usize> = None;
        for (i, &r) in sign.evolution.iter().enumerate() {
            if r > 0.0 {
                cpa_stable.get_or_insert(i + 1);
            } else {
                cpa_stable = None;
            }
        }
        // Profiled: smallest stable-correct prefix.
        let tpl = template_sign_stability(&block, &templates, true_sign);
        rows.push(vec![
            t.to_string(),
            cpa.map(|d| d.to_string()).unwrap_or_else(|| format!("> {traces}")),
            cpa_stable.map(|d| d.to_string()).unwrap_or_else(|| format!("> {traces}")),
            tpl.map(|d| d.to_string()).unwrap_or_else(|| format!("> {traces}")),
            match (cpa_stable, tpl) {
                (Some(c), Some(p)) if p > 0 => format!("{:.1}x", c as f64 / p as f64),
                _ => "-".into(),
            },
        ]);
        budgets.push((t, cpa, tpl));
    }
    print_table(
        "Table 5 (extension): sign-bit trace budget, CPA vs profiled templates",
        &["coeff", "CPA 99.99% stable", "CPA stable-correct", "template stable-correct", "gain"],
        &rows,
    );
    // A count that never settles ranks above every count.
    for (t, cpa, tpl) in budgets {
        assert!(
            tpl.unwrap_or(usize::MAX) < cpa.unwrap_or(usize::MAX),
            "coefficient {t}: the templates ({tpl:?}) do not beat the 99.99% test ({cpa:?})"
        );
    }
}
