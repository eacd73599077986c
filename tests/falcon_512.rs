//! Integration tests at the paper's parameter set, FALCON-512
//! (and FALCON-1024 for the §IV remark that the attack carries over).
//!
//! Key generation solves a full NTRU equation; with the exact `i128`
//! product for small operands a FALCON-512 key takes well under a second
//! even in the test profile, so full-size keygen, signing and
//! coefficient extraction run with the default suite.

use falcon_down::dema::attack::{recover_coefficient, AttackConfig};
use falcon_down::dema::Dataset;
use falcon_down::emsim::{Device, LeakageModel, MeasurementChain, Scope};
use falcon_down::sig::rng::Prng;
use falcon_down::sig::{KeyPair, LogN};

#[test]
fn falcon_512_sign_verify() {
    let mut rng = Prng::from_seed(b"falcon512 integration");
    let kp = KeyPair::generate(LogN::N512, &mut rng);
    for msg in [b"a".as_slice(), b"longer message for falcon-512"] {
        let sig = kp.signing_key().sign(msg, &mut rng);
        assert!(kp.verifying_key().verify(msg, &sig));
        assert_eq!(sig.to_bytes().len(), 666);
    }
    // Private polynomials have the documented coefficient range.
    assert!(kp.signing_key().f().iter().all(|&c| (-127..=127).contains(&c)));
    assert!(kp.signing_key().g().iter().all(|&c| (-127..=127).contains(&c)));
}

#[test]
fn falcon_512_coefficient_extraction() {
    let mut rng = Prng::from_seed(b"falcon512 attack");
    let kp = KeyPair::generate(LogN::N512, &mut rng);
    let chain = MeasurementChain {
        model: LeakageModel::hamming_weight(1.0, 2.0),
        lowpass: 0.0,
        scope: Scope::default(),
        ..Default::default()
    };
    let truth: Vec<u64> = kp.signing_key().f_fft().iter().map(|x| x.to_bits()).collect();
    let mut device = Device::new(kp.into_parts().0, chain, b"falcon512 bench");
    let targets = [0usize, 100, 255, 511];
    let mut msgs = Prng::from_seed(b"falcon512 messages");
    let ds = Dataset::collect(&mut device, &targets, 800, &mut msgs);
    let cfg = AttackConfig::default();
    for &t in &targets {
        let r = recover_coefficient(&ds, t, &cfg);
        assert_eq!(r.bits, truth[t], "coefficient {t}");
    }
}

#[test]
fn falcon_1024_sign_verify() {
    let mut rng = Prng::from_seed(b"falcon1024 integration");
    let kp = KeyPair::generate(LogN::N1024, &mut rng);
    let sig = kp.signing_key().sign(b"falcon-1024 message", &mut rng);
    assert!(kp.verifying_key().verify(b"falcon-1024 message", &sig));
    assert_eq!(sig.to_bytes().len(), 1280);
}
