//! E-V1 — the paper's §V.C discussion, quantified: the same Pearson
//! distinguisher against an NTT-based pointwise multiplication versus
//! FALCON's floating-point FFT multiplication, at identical noise.
//!
//! The paper's observation: NTT-based implementations fall far faster
//! (single-trace attacks exist in the literature) than the ~10k-trace
//! campaign the FFT attack needs. The honest comparison is *complete
//! recovery of one secret coefficient*: the NTT coefficient falls to a
//! single modular-product CPA, while the FFT coefficient is only fully
//! known once its **hardest** component (the 1-bit sign, and the
//! narrow exponent word) reaches significance.
//!
//! ```text
//! cargo run --release -p falcon-bench --bin table3_ntt_vs_fft \
//!     [logn=6] [noise=8.6] [traces=10000] [coeffs=3]
//! ```
//!
//! Panics unless every NTT coefficient is recovered and disclosed, each
//! FFT coefficient needs more traces than its NTT twin, and the median
//! FFT coefficient at least 10× more.

use falcon_bench::report::{arg_or, git_rev, host, print_table, reject_unread_args};
use falcon_bench::setup::{victim, PAPER_NOISE_SIGMA};
use falcon_dema::confidence::traces_to_disclosure;
use falcon_dema::cpa::pearson_evolution;
use falcon_dema::model::{
    hyp_add_lo, hyp_exponent_with_carry, hyp_partial_product, hyp_sign, KnownOperand,
};
use falcon_dema::ntt_attack::attack_ntt_coefficient;
use falcon_dema::source::ColumnSource;
use falcon_dema::Dataset;
use falcon_emsim::ntt_leak::NttDevice;
use falcon_emsim::{LeakageModel, StepKind};
use falcon_sig::rng::Prng;

fn main() {
    let logn: u32 = arg_or("logn", 6);
    let noise: f64 = arg_or("noise", PAPER_NOISE_SIGMA);
    let traces: usize = arg_or("traces", 10_000);
    let coeffs: usize = arg_or("coeffs", 3);
    reject_unread_args();
    println!("rev {}, host {}", git_rev(), host());
    let n = 1usize << logn;

    println!("FALCON-{n}, identical leakage model (HW + N(0,{noise})) on both implementations");
    println!("metric: traces until the *complete* coefficient is disclosed at 99.99%");

    let (mut device, _vk, truth) = victim(logn, noise, "table3 victim");
    let targets: Vec<usize> = (0..coeffs).map(|i| i * (n / coeffs)).collect();
    let mut msgs = Prng::from_seed(b"table3 fft messages");
    let ds = Dataset::collect(&mut device, &targets, traces, &mut msgs);

    let (mut rows, mut found) = (Vec::new(), Vec::new());

    // NTT twin device with the same secret f.
    let f: Vec<i16> = device.signing_key().f().to_vec();
    let mut ntt_dev =
        NttDevice::new(&f, logn, LeakageModel::hamming_weight(1.0, noise), b"table3 ntt");
    let mut ntt_msgs = Prng::from_seed(b"table3 ntt messages");

    for &t in &targets {
        let bits = truth[t];
        let tm = (bits & ((1u64 << 52) - 1)) | (1 << 52);
        let (d_lo, c_hi) = (tm & 0x1FF_FFFF, tm >> 25);
        let sgn = (bits >> 63) as u32;
        let exp = ((bits >> 52) & 0x7FF) as u32;
        let block = ds.target_block(t).expect("the dataset holds its targets");
        let knowns: Vec<KnownOperand> =
            block.known_column(0).iter().map(|&kb| KnownOperand::new(kb)).collect();
        let components: [(Vec<f64>, StepKind); 4] = [
            (knowns.iter().map(|k| hyp_sign(sgn, k)).collect(), StepKind::SignXor),
            (
                knowns.iter().map(|k| hyp_exponent_with_carry(exp, c_hi, d_lo, k)).collect(),
                StepKind::ExponentAdd,
            ),
            (
                knowns.iter().map(|k| hyp_partial_product(d_lo, 25, k.lo, 25)).collect(),
                StepKind::PpLoLo,
            ),
            (knowns.iter().map(|k| hyp_add_lo(d_lo, k)).collect(), StepKind::AddLoHi),
        ];
        // Full FFT-coefficient disclosure = the slowest component.
        let mut worst: Option<usize> = Some(0);
        for (hyps, step) in &components {
            let samples = block.sample_column(0, *step);
            let disc = traces_to_disclosure(&pearson_evolution(hyps, samples));
            worst = match (worst, disc) {
                (Some(w), Some(d)) => Some(w.max(d)),
                _ => None,
            };
        }

        let ntt = attack_ntt_coefficient(&mut ntt_dev, t, traces.min(4000), &mut ntt_msgs);
        let ntt_ok = ntt.guess == ntt_dev.f_ntt()[t];
        rows.push(vec![
            t.to_string(),
            worst.map(|d| d.to_string()).unwrap_or_else(|| format!("> {traces}")),
            ntt.disclosure.map(|d| d.to_string()).unwrap_or_else(|| "-".into()),
            ntt_ok.to_string(),
            format!("{:.3}/{:.3}", ntt.corr, ntt.runner_up),
        ]);
        found.push((t, ntt_ok, ntt.disclosure, worst));
    }
    print_table(
        "Table 3: traces to full coefficient disclosure, FFT vs NTT",
        &["coeff", "FFT (all components)", "NTT (one CPA)", "NTT guess ok", "NTT corr/runner"],
        &rows,
    );

    let (mut fft_all, mut ntt_all) = (Vec::new(), Vec::new());
    for (t, ntt_ok, ntt_d, fft_d) in found {
        assert!(ntt_ok, "NTT coefficient {t}: wrong guess");
        let ntt_d = ntt_d.unwrap_or_else(|| panic!("NTT coefficient {t} not disclosed"));
        // An FFT coefficient that never discloses ranks above every count.
        let fft_d = fft_d.unwrap_or(usize::MAX);
        assert!(fft_d > ntt_d, "coefficient {t}: the NTT ({ntt_d}) does not fall first");
        fft_all.push(fft_d);
        ntt_all.push(ntt_d);
    }
    fft_all.sort_unstable();
    ntt_all.sort_unstable();
    let (f, nt) = (fft_all[fft_all.len() / 2], ntt_all[ntt_all.len() / 2]);
    let ratio = f as f64 / nt as f64;
    println!("\nmedian: FFT {f} traces vs NTT {nt} traces -> the NTT falls ~{ratio:.1}x faster");
    assert!(ratio >= 10.0, "the NTT falls only {ratio:.1}x faster than the FFT, not 10x");
}
