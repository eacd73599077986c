//! E-F2 — Figure 2: the decomposition of FALCON's emulated
//! floating-point multiplication into the micro-operations the attack
//! targets (partial products = extend targets, intermediate additions =
//! prune targets).
//!
//! ```text
//! cargo run --release -p falcon-bench --bin fig2_microops [x=<hex>] [y=<hex>]
//! ```

use falcon_bench::report::{arg_or, print_table, reject_unread_args};
use falcon_fpr::{Fpr, MulStep, RecordingObserver};

/// Reads `key` as a hex word (an optional `0x` prefix), exiting with
/// status 2 on a value that is not one.
fn parse_hex(key: &str, default: u64) -> u64 {
    let v: String = arg_or(key, format!("{default:x}"));
    u64::from_str_radix(v.trim_start_matches("0x"), 16).unwrap_or_else(|_| {
        eprintln!("invalid value for `{key}`: {v:?}");
        std::process::exit(2)
    })
}

fn main() {
    // Default: the paper's Section IV example coefficient times a typical
    // hashed-message coefficient.
    let x = parse_hex("x", 0xC060_17BC_8036_B580);
    let y = parse_hex("y", 0x40B3_9D2A_4C01_7E55);
    reject_unread_args();
    let fx = Fpr::from_bits(x);
    let fy = Fpr::from_bits(y);
    println!("x = {x:#018x} ({})", fx.to_f64());
    println!("y = {y:#018x} ({})", fy.to_f64());

    let mut obs = RecordingObserver::new();
    let r = fx.mul_observed(fy, &mut obs);
    println!("x*y = {:#018x} ({})", r.to_bits(), r.to_f64());

    let phase = |s: &MulStep| -> &'static str {
        match s {
            MulStep::PartialProduct { .. } => "EXTEND target (multiplication)",
            MulStep::IntermediateAdd { .. } => "PRUNE target (addition)",
            MulStep::ExponentAdd { .. } => "exponent attack target",
            MulStep::SignXor { .. } => "sign attack target",
            _ => "",
        }
    };
    let rows: Vec<Vec<String>> = obs
        .steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            vec![
                i.to_string(),
                format!("{s:?}").split(' ').next().unwrap_or("?").trim_end_matches('{').to_string(),
                format!("{:#018x}", s.data_word()),
                s.data_word().count_ones().to_string(),
                phase(s).to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 2: micro-operations of one fpr multiplication",
        &["t", "micro-op", "data word", "HW", "attack role"],
        &rows,
    );
    println!(
        "\nMantissa split of x: high 28 bits (C) = {:#09x}, low 25 bits (D) = {:#09x}",
        (fx.mantissa_bits() | (1 << 52)) >> 25,
        (fx.mantissa_bits() | (1 << 52)) & 0x1FF_FFFF
    );
}
