//! Quickstart: generate a FALCON key pair, sign, verify — and peek at the
//! floating-point FFT structure the *Falcon Down* attack exploits.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart [logn]
//! ```
//! `logn` defaults to 9 (FALCON-512); pass a smaller value (e.g. 6) for a
//! near-instant demonstration.

use falcon_down::fpr::Fpr;
use falcon_down::sig::rng::Prng;
use falcon_down::sig::{KeyPair, LogN};
use std::time::Instant;

fn main() {
    let logn: u32 = match std::env::args().nth(1) {
        None => 9,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for `logn`: {v:?}");
            std::process::exit(2)
        }),
    };
    let params = LogN::new(logn).expect("logn must be in 1..=10");
    println!("FALCON-{} (n = {})", params.n(), params.n());
    println!("  σ        = {:.6}", params.sigma());
    println!("  σ_min    = {:.10}", params.sigma_min());
    println!("  ⌊β²⌋     = {}", params.l2_bound());
    println!("  sig size = {} bytes", params.sig_bytes());

    let mut rng = Prng::from_seed(b"quickstart example seed");
    let t = Instant::now();
    let kp = KeyPair::generate(params, &mut rng);
    println!("\nKey generation: {:?}", t.elapsed());
    println!("  f[0..8]  = {:?}", &kp.signing_key().f()[..8.min(params.n())]);
    println!("  g[0..8]  = {:?}", &kp.signing_key().g()[..8.min(params.n())]);

    // The secret transform the side channel leaks: FFT(f). Coefficients
    // are 64-bit emulated doubles whose sign/exponent/mantissa fields the
    // attack recovers separately.
    let c0: Fpr = kp.signing_key().f_fft()[0];
    println!("\nFFT(f)[0] = {:#018x}", c0.to_bits());
    println!("  sign     = {}", c0.sign_bit());
    println!("  exponent = {:#05x}", c0.exponent_bits());
    println!("  mantissa = {:#015x}", c0.mantissa_bits());
    let m = c0.mantissa_bits() | (1 << 52);
    println!("  high 28  = {:#09x}   (the paper's C·2^25 half)", m >> 25);
    println!("  low  25  = {:#09x}   (the paper's D half)", m & 0x1FF_FFFF);

    let msg = b"the quick brown fox signs a lattice";
    let t = Instant::now();
    let sig = kp.signing_key().sign(msg, &mut rng);
    println!("\nSigning: {:?}", t.elapsed());
    println!("  salt     = {:02x?}...", &sig.salt()[..8]);
    println!("  s2[0..8] = {:?}", &sig.s2()[..8.min(params.n())]);
    println!("  encoded  = {} bytes", sig.to_bytes().len());

    let t = Instant::now();
    let ok = kp.verifying_key().verify(msg, &sig);
    println!("\nVerification: {:?} -> {}", t.elapsed(), ok);
    assert!(ok);
    assert!(!kp.verifying_key().verify(b"another message", &sig));
    println!("Tampered message correctly rejected.");
}
