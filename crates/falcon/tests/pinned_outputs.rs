//! Pinned FALCON outputs: seeded key pairs, signatures and one observer
//! stream must hash to these exact SHAKE256 digests.
//!
//! The expected values were recorded before the signing and NTRU-solve
//! fast paths (inlined `Fpr` add/pack, the tabled `expm_p63`
//! coefficients, cached leaf inverses, the exact `i128` polynomial
//! product), so this suite is the end-to-end check that those paths, and
//! any later change to them, move no output bit: every key `(f, g, F, G,
//! h)` from logn 1 to 10, 16 signatures each at FALCON-512 and -1024, and
//! every micro-operation a traced FALCON-16 signature reports.

use falcon_fpr::RecordingObserver;
use falcon_sig::rng::Prng;
use falcon_sig::shake::Shake256;
use falcon_sig::{KeyPair, LogN};

/// Hex SHAKE256-256 digest of `bytes`.
fn digest(bytes: &[u8]) -> String {
    let mut out = [0u8; 32];
    Shake256::digest(bytes, &mut out);
    out.iter().map(|b| format!("{b:02x}")).collect()
}

/// The seeded key pair of degree `2^logn`.
fn key(logn: u32) -> KeyPair {
    let mut rng = Prng::from_seed(format!("pinned keygen {logn}").as_bytes());
    KeyPair::generate(LogN::new(logn).expect("valid logn"), &mut rng)
}

/// `f ‖ g ‖ F ‖ G ‖ h`, each coefficient little-endian.
fn key_bytes(kp: &KeyPair) -> Vec<u8> {
    let sk = kp.signing_key();
    let mut out = Vec::new();
    for p in [sk.f(), sk.g(), sk.cap_f(), sk.cap_g()] {
        out.extend(p.iter().flat_map(|c| c.to_le_bytes()));
    }
    out.extend(kp.verifying_key().h().iter().flat_map(|c| c.to_le_bytes()));
    out
}

/// Digest of 16 seeded signatures (wire encodings, concatenated) under
/// the seeded key of degree `2^logn`; every one must verify.
fn signatures_digest(kp: &KeyPair) -> String {
    let logn = kp.signing_key().logn().logn();
    let mut rng = Prng::from_seed(format!("pinned signing {logn}").as_bytes());
    let mut out = Vec::new();
    for i in 0..16u8 {
        let msg = [b'm', i];
        let sig = kp.signing_key().sign(&msg, &mut rng);
        assert!(kp.verifying_key().verify(&msg, &sig), "logn {logn} message {i}");
        out.extend(sig.to_bytes());
    }
    digest(&out)
}

/// Key digests for logn = 1..=10, recorded before the fast paths.
const KEYS: [&str; 10] = [
    "50ca9e6355e9903e776e82e9d0e93051f034e45f0c76ae218c9e2ef26462a1d7",
    "5f00802fd30112ebf9d54076c40e0742101635edec9148fa6b7f9c8424545ea5",
    "48f0e27fed67013c9325dd5c71d76ecd9da38aeace20c6aa3fe6e38c1240d30e",
    "2de830e34df34cdcea572e5a365d7e77c1456a72a7d855bc30efaea7307ce523",
    "242a71576659d317fad1209713a6c290cb8a12fd9f7bea10a80f54b125303d0c",
    "2d6e446eff4e8f43bbd8237dfd3d11f4be34c9109611d1f1b19ea2c9828eadcb",
    "9729acb49eb15c7f7f696a2e50f8bf3b552ee0d147f9e275ad3a90840788ec49",
    "396a706ed5e216c18758ba0ca10bf47dbd46e438709ace8e0e036e3eb8db3bba",
    "a8f9befee175c9978434b864720b982ef3c8ead0b0c2602ad596e4ce09f1337a",
    "51af9df5250f51721dc9b414b01f85b0e5b48e9585239ed859c8d325401eb847",
];

/// Signature digests at logn 9 and 10, recorded before the fast paths.
const SIGNATURES: [(u32, &str); 2] = [
    (9, "7409334ee07f25f0b61a58d3ccbc9516f6a8fdd26b7ca2717e54ee8dade9439d"),
    (10, "c9be2c6fa983cc2a7634063d537fae6dc0b7060c024fb322bbb4559d25081e8b"),
];

/// Digest of the logn-4 observer stream, recorded before the fast paths.
const OBSERVED: &str = "4fdc1cd82c64ff5b6bc75e72121bd46df14538d114165c5ddd2895958a550274";

#[test]
fn seeded_keys_are_pinned() {
    let got: Vec<String> = (1..=10).map(|logn| digest(&key_bytes(&key(logn)))).collect();
    assert_eq!(got, KEYS, "key digests moved");
}

#[test]
fn seeded_signatures_are_pinned() {
    let got: Vec<(u32, String)> =
        SIGNATURES.iter().map(|&(logn, _)| (logn, signatures_digest(&key(logn)))).collect();
    let want: Vec<(u32, String)> = SIGNATURES.iter().map(|&(l, d)| (l, d.to_string())).collect();
    assert_eq!(got, want, "signature digests moved");
}

#[test]
fn traced_signature_stream_is_pinned() {
    let kp = key(4);
    let mut rng = Prng::from_seed(b"pinned traced signing");
    let mut obs = RecordingObserver::new();
    let sig = kp.signing_key().sign_traced(b"pinned traced message", &mut rng, &mut obs);
    assert!(kp.verifying_key().verify(b"pinned traced message", &sig));
    // The Debug form spells out every field of every micro-op, so the
    // digest covers each recorded value and its order.
    let stream = format!("{:?}|{:?}|{:?}", obs.steps, obs.boundaries, sig.to_bytes());
    assert_eq!(digest(stream.as_bytes()), OBSERVED, "observer stream moved");
}
