//! Anatomy of the attacked multiplication (the paper's Figures 2 and 3).
//!
//! First decomposes one emulated floating-point multiplication — the
//! paper's §IV example coefficient times a typical hashed-message
//! coefficient — into the micro-operations the attack targets: partial
//! products (extend), carry additions (prune), exponent addition and
//! sign XOR. Then captures one trace of FALCON signing, prints the
//! annotated micro-op samples of one coefficient's multiplication —
//! mantissa pipeline, exponent addition, sign computation — and renders
//! a small ASCII plot of the emission amplitudes.
//!
//! Run with:
//! ```text
//! cargo run --release --example trace_anatomy [logn]
//! ```

use falcon_down::emsim::{Device, LeakageModel, MeasurementChain, Scope, StepKind};
use falcon_down::fpr::{Fpr, RecordingObserver};
use falcon_down::sig::rng::Prng;
use falcon_down::sig::{KeyPair, LogN};

const NAMES: [&str; StepKind::COUNT] = [
    "load",
    "split",
    "mul D*B",
    "mul D*A",
    "add z1",
    "mul C*B",
    "add z1'",
    "mul C*A",
    "add zu",
    "sticky",
    "normalize",
    "EXPONENT",
    "SIGN",
    "pack",
];

fn role(step: StepKind) -> &'static str {
    use StepKind::*;
    match step {
        PpLoLo | PpLoHi | PpHiLo | PpHiHi => "mantissa: extend target (multiplication)",
        AddLoHi | AddHiLo | AddHiHi => "mantissa: prune target (addition)",
        ExponentAdd => "exponent attack target",
        SignXor => "sign attack target",
        Pack => "write-back",
        _ => "mantissa",
    }
}

fn main() {
    let logn: u32 = match std::env::args().nth(1) {
        None => 6,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for `logn`: {v:?}");
            std::process::exit(2)
        }),
    };
    let params = LogN::new(logn).expect("logn in 1..=10");

    let x = Fpr::from_bits(0xC060_17BC_8036_B580);
    let y = Fpr::from_bits(0x40B3_9D2A_4C01_7E55);
    let mut obs = RecordingObserver::new();
    let r = x.mul_observed(y, &mut obs);
    println!("one fpr multiplication (Figure 2):");
    for (name, v) in [("x", x), ("y", y), ("x*y", r)] {
        println!("  {name:>3} = {:#018x} ({})", v.to_bits(), v.to_f64());
    }
    let m = x.mantissa_bits() | (1 << 52);
    println!(
        "  mantissa split of x: high 28 bits (C) = {:#09x}, low 25 bits (D) = {:#09x}",
        m >> 25,
        m & 0x1FF_FFFF
    );
    println!("{:>4} {:>10} {:>18} {:>3}  attack role", "t", "micro-op", "data word", "HW");
    for (step, s) in StepKind::ALL.into_iter().zip(&obs.steps) {
        let w = s.data_word();
        let t = step as usize;
        println!("{t:>4} {:>10} {w:#018x} {:>3}  {}", NAMES[t], w.count_ones(), role(step));
    }

    println!("\ncapturing one trace of FALCON-{} signing...", params.n());
    let mut rng = Prng::from_seed(b"trace anatomy key");
    let kp = KeyPair::generate(params, &mut rng);
    let chain = MeasurementChain {
        model: LeakageModel::hamming_weight(1.0, 1.5),
        lowpass: 0.0,
        scope: Scope::default(),
        ..Default::default()
    };
    let mut device = Device::new(kp.into_parts().0, chain, b"anatomy bench");
    let cap = device.capture(b"figure three");
    let layout = device.layout();
    println!(
        "trace: {} samples covering {} complex coefficients x 4 multiplications x {} micro-ops\n",
        cap.trace.len(),
        params.n() / 2,
        StepKind::COUNT
    );

    // Zoom on coefficient 0, multiplication 0 (re(f)·re(c)) — the window
    // Figure 3 annotates.
    println!("coefficient 0, multiplication re(f)x re(c) (Figure 3):");
    println!("{:>4} {:>10} {:>8}  plot (EM amplitude)", "t", "micro-op", "sample");
    for step in StepKind::ALL {
        let v = cap.trace.samples[layout.sample_index(0, step)];
        let bar = "#".repeat((v.max(0.0) / 2.0) as usize);
        let t = step as usize;
        println!("{t:>4} {:>10} {v:>8.1}  |{bar:<32}| {}", NAMES[t], role(step));
    }

    // CSV dump of the first coefficient's full window for plotting.
    println!("\ncsv (coefficient 0, all four multiplications):");
    println!("t,sample,mul,step");
    for (t, idx) in layout.coefficient_range(0).enumerate() {
        println!("{t},{},{},{}", cap.trace.samples[idx], t / StepKind::COUNT, t % StepKind::COUNT);
    }
}
