//! E-F3 — Figure 3: an example EM measurement trace of one targeted
//! floating-point multiplication, with the mantissa / exponent / sign
//! regions annotated.
//!
//! ```text
//! cargo run --release -p falcon-bench --bin fig3_trace \
//!     [logn=9] [noise=8.6] [coeff=0]
//! ```

use falcon_bench::report::{arg_or, print_csv, reject_unread_args, sparkline};
use falcon_bench::setup::{victim, PAPER_NOISE_SIGMA};
use falcon_emsim::StepKind;

fn main() {
    let logn: u32 = arg_or("logn", 9);
    let noise: f64 = arg_or("noise", PAPER_NOISE_SIGMA);
    let coeff: usize = arg_or("coeff", 0);
    reject_unread_args();

    let (mut device, _vk, _truth) = victim(logn, noise, "fig3 victim");
    let cap = device.capture(b"figure 3 acquisition");
    let layout = device.layout();

    println!(
        "FALCON-{} trace: {} samples total; zooming on complex coefficient {coeff}",
        1 << logn,
        cap.trace.len()
    );

    let names = [
        "operand load",
        "mantissa split",
        "mul D x B",
        "mul D x A",
        "add (z1)",
        "mul C x B",
        "add (z1')",
        "mul C x A",
        "add (zu)",
        "sticky fold",
        "normalize",
        "exponent add",
        "sign xor",
        "pack",
    ];
    let region = |s: usize| match s {
        11 => "exponent",
        12 => "sign",
        13 => "writeback",
        _ => "mantissa",
    };

    let mut rows = Vec::new();
    for (t, idx) in layout.coefficient_range(coeff).enumerate() {
        let step = t % StepKind::COUNT;
        rows.push(vec![
            t.to_string(),
            format!("{:.2}", cap.trace.samples[idx]),
            (t / StepKind::COUNT).to_string(),
            names[step].to_string(),
            region(step).to_string(),
        ]);
    }
    print_csv(
        "figure 3 series (EM amplitude per micro-op sample)",
        &["t", "em", "mul", "microop", "region"],
        &rows,
    );

    let series: Vec<f64> =
        layout.coefficient_range(coeff).map(|i| cap.trace.samples[i] as f64).collect();
    println!("\ntrace sketch  : {}", sparkline(&series));
    let annot: String = (0..series.len())
        .map(|t| match t % StepKind::COUNT {
            11 => 'E',
            12 => 'S',
            13 => '.',
            _ => 'M',
        })
        .collect();
    println!("region (M/E/S): {annot}");
    println!("\nM = mantissa pipeline, E = exponent addition, S = sign computation");
    println!("(compare with the paper's Figure 3 annotation of the same three regions)");
}
