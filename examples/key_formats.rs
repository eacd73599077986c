//! Key and signature wire formats: generate, serialise, reload, use.
//!
//! Demonstrates the specification-format encodings: the 897-byte public
//! key and 1281-byte private key of FALCON-512, and the 666-byte padded
//! signature — and that a key reloaded from bytes (with `G` reconstructed
//! from the NTRU equation) signs interchangeably with the original.
//!
//! Run with:
//! ```text
//! cargo run --release --example key_formats [logn]
//! ```

use falcon_down::sig::keys::{public_key_len, secret_key_len};
use falcon_down::sig::rng::Prng;
use falcon_down::sig::{KeyPair, LogN, Signature, SigningKey, VerifyingKey};

fn main() {
    let logn: u32 = match std::env::args().nth(1) {
        None => 9,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for `logn`: {v:?}");
            std::process::exit(2)
        }),
    };
    let params = LogN::new(logn).expect("logn in 1..=10");
    println!("FALCON-{}", params.n());

    let mut rng = Prng::from_seed(b"key formats example");
    let kp = KeyPair::generate(params, &mut rng);

    let pk_bytes = kp.verifying_key().to_bytes();
    println!(
        "public key : {} bytes (header {:#04x} + {}x14-bit h)",
        pk_bytes.len(),
        pk_bytes[0],
        params.n()
    );
    assert_eq!(pk_bytes.len(), public_key_len(logn));

    let sk_bytes = kp.signing_key().to_bytes().expect("generated keys fit the field widths");
    println!(
        "private key: {} bytes (header {:#04x}; f, g, F stored; G stored or reconstructed per degree)",
        sk_bytes.len(),
        sk_bytes[0]
    );
    assert_eq!(sk_bytes.len(), secret_key_len(logn));

    // Round-trip both and use the reloaded halves together.
    let vk = VerifyingKey::from_bytes(&pk_bytes).expect("public key parses");
    let sk = SigningKey::from_bytes(&sk_bytes).expect("private key parses");
    assert_eq!(sk.cap_g(), kp.signing_key().cap_g(), "G reconstructed exactly");

    let msg = b"signed with a key that travelled through bytes";
    let sig = sk.sign(msg, &mut rng);
    let sig_bytes = sig.to_bytes();
    println!("signature  : {} bytes (header + 40-byte salt + compressed s2)", sig_bytes.len());
    assert_eq!(sig_bytes.len(), params.sig_bytes());

    let parsed = Signature::from_bytes(&sig_bytes).expect("signature parses");
    let ok = vk.verify(msg, &parsed);
    println!("reloaded key's signature verifies under reloaded public key: {ok}");
    assert!(ok);

    // Corruption is caught at every layer.
    let mut bad_pk = pk_bytes.clone();
    bad_pk[10] ^= 0xFF;
    // (h is any residue vector, so a bit flip may still parse — but a
    // truncated or mislabelled key never does.)
    assert!(VerifyingKey::from_bytes(&pk_bytes[..pk_bytes.len() - 1]).is_none());
    let mut bad_sig = sig_bytes.clone();
    bad_sig[0] = 0x40;
    assert!(Signature::from_bytes(&bad_sig).is_none());
    println!("malformed encodings rejected.");
}
