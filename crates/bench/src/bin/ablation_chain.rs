//! Ablation: how the measurement chain's physical parameters move the
//! attack budget — noise floor, probe bandwidth (low-pass smearing) and
//! scope resolution.
//!
//! ```text
//! cargo run --release -p falcon-bench --bin ablation_chain \
//!     [logn=6] [traces=6000] [coeff=1]
//! ```

use falcon_bench::report::{arg_or, print_table, reject_unread_args};
use falcon_dema::confidence::traces_to_disclosure;
use falcon_dema::cpa::pearson_evolution;
use falcon_dema::model::{hyp_add_lo, hyp_sign, KnownOperand};
use falcon_dema::source::ColumnSource;
use falcon_dema::Dataset;
use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope, StepKind};
use falcon_sig::rng::Prng;
use falcon_sig::{KeyPair, LogN};

struct ChainSpec {
    name: &'static str,
    noise: f64,
    lowpass: f64,
    scope_bits: u32,
}

fn main() {
    let logn: u32 = arg_or("logn", 6);
    let traces: usize = arg_or("traces", 6000);
    let coeff: usize = arg_or("coeff", 1);
    reject_unread_args();
    let params = LogN::new(logn).expect("logn in 1..=10");

    let mut rng = Prng::from_seed(b"ablation chain key");
    let kp = KeyPair::generate(params, &mut rng);
    let truth = kp.signing_key().f_fft()[coeff].to_bits();
    let sk = kp.into_parts().0;
    let tm = (truth & ((1u64 << 52) - 1)) | (1 << 52);
    let d_lo = tm & 0x1FF_FFFF;
    let sign = (truth >> 63) as u32;

    let specs = [
        ChainSpec { name: "reference (sigma=8.6, 8-bit)", noise: 8.6, lowpass: 0.0, scope_bits: 8 },
        ChainSpec { name: "quiet lab (sigma=2)", noise: 2.0, lowpass: 0.0, scope_bits: 8 },
        ChainSpec { name: "noisy field (sigma=17)", noise: 17.2, lowpass: 0.0, scope_bits: 8 },
        ChainSpec { name: "narrowband probe (lp=0.5)", noise: 8.6, lowpass: 0.5, scope_bits: 8 },
        ChainSpec { name: "narrowband probe (lp=0.8)", noise: 8.6, lowpass: 0.8, scope_bits: 8 },
        ChainSpec { name: "6-bit scope", noise: 8.6, lowpass: 0.0, scope_bits: 6 },
        ChainSpec { name: "12-bit scope", noise: 8.6, lowpass: 0.0, scope_bits: 12 },
    ];

    println!("FALCON-{}, coefficient {coeff}, {traces} traces per chain configuration", params.n());
    let mut rows = Vec::new();
    for spec in &specs {
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, spec.noise),
            lowpass: spec.lowpass,
            scope: Scope { bits: spec.scope_bits, full_scale: 100.0, enabled: true },
            ..Default::default()
        };
        let mut dev = Device::new(sk.clone(), chain, b"ablation chain bench");
        let mut msgs = Prng::from_seed(b"ablation chain msgs");
        let ds = Dataset::collect(&mut dev, &[coeff], traces, &mut msgs);
        let block = ds.target_block(coeff).expect("the dataset holds its target");
        let knowns: Vec<KnownOperand> =
            block.known_column(0).iter().map(|&kb| KnownOperand::new(kb)).collect();

        let sign_hyp: Vec<f64> = knowns.iter().map(|k| hyp_sign(sign, k)).collect();
        let sign_samples = block.sample_column(0, StepKind::SignXor);
        let sign_disc = traces_to_disclosure(&pearson_evolution(&sign_hyp, sign_samples));

        let add_hyp: Vec<f64> = knowns.iter().map(|k| hyp_add_lo(d_lo, k)).collect();
        let add_samples = block.sample_column(0, StepKind::AddLoHi);
        let add_evo = pearson_evolution(&add_hyp, add_samples);
        let add_disc = traces_to_disclosure(&add_evo);

        rows.push(vec![
            spec.name.to_string(),
            sign_disc.map(|d| d.to_string()).unwrap_or_else(|| format!("> {traces}")),
            add_disc.map(|d| d.to_string()).unwrap_or_else(|| format!("> {traces}")),
            format!("{:.3}", add_evo.last().copied().unwrap_or(0.0)),
        ]);
    }
    print_table(
        "Ablation: measurement chain vs attack budget",
        &["chain", "sign disclosure", "mantissa-add disclosure", "add corr"],
        &rows,
    );
    println!("\nreading: the budget scales with the noise floor as CPA theory predicts");
    println!("(~1/rho^2); narrowband probes smear adjacent micro-ops together, costing a");
    println!("similar factor; scope resolution barely matters above 6 bits (quantisation");
    println!("noise is small next to the channel noise) — consistent with the paper's");
    println!("use of an 8-bit PicoScope and a low-sensitivity probe.");
}
