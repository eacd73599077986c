//! Byte-mutation robustness of both campaign checkpoint decoders.
//!
//! Every byte of a mid-run checkpoint is XORed with 0x01, 0x80 and 0xFF
//! in turn. `resume` may reject a mutant with a typed error; where it
//! accepts one, a further `step` must return (`Ok` or `Err`) without
//! panicking. The campaigns are seeded FALCON-8 runs over 2 targets and
//! at most 100 traces, and a narrow beam keeps the attack cheap enough
//! that every mutant's step runs it on its (possibly corrupted) data.

use falcon_dema::acquire::Dataset;
use falcon_dema::attack::AttackConfig;
use falcon_dema::{exec, Campaign, CampaignConfig, Error, OfflineCampaign};
use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope};
use falcon_sig::rng::Prng;
use falcon_sig::{KeyPair, LogN};
use std::panic::{catch_unwind, AssertUnwindSafe};

const MASKS: [u8; 3] = [0x01, 0x80, 0xFF];

/// A two-wide beam over two-bit windows: with [`serial`], thousands of
/// mutant steps stay within seconds.
const NARROW: AttackConfig = AttackConfig { step_bits: 2, beam_width: 2 };

/// Keeps the executor on the calling thread: at eight traces, spawning
/// workers would cost more than the attack itself.
fn serial() {
    exec::set_threads(1);
}

fn device(seed: &[u8]) -> Device {
    let mut rng = Prng::from_seed(seed);
    let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
    let chain = MeasurementChain {
        model: LeakageModel::hamming_weight(1.0, 1.0),
        lowpass: 0.0,
        scope: Scope { enabled: false, ..Default::default() },
        ..Default::default()
    };
    Device::new(kp.into_parts().0, chain, seed)
}

/// Calls `check` on every single-byte mutant of `bytes`, failing the
/// test with the mutant's offset and mask if it panics. Returns how many
/// mutants `check` reported as accepted.
fn for_each_mutant(bytes: &[u8], mut check: impl FnMut(&[u8]) -> bool) -> usize {
    let mut accepted = 0;
    let mut mutant = bytes.to_vec();
    for i in 0..bytes.len() {
        for mask in MASKS {
            mutant[i] ^= mask;
            let outcome = catch_unwind(AssertUnwindSafe(|| check(&mutant)));
            mutant[i] ^= mask;
            match outcome {
                Ok(ok) => accepted += usize::from(ok),
                Err(_) => panic!("byte {i} ^ {mask:#04x}: resume or step panicked"),
            }
        }
    }
    accepted
}

#[test]
fn live_checkpoint_mutants_never_panic() {
    serial();
    // One trace per target at the checkpoint keeps the mutant count low;
    // the resume config's wider batch (the config is not part of the
    // checkpoint) lifts the next step to the attack's eight-trace floor.
    let cfg = CampaignConfig {
        targets: vec![0, 5],
        batch_size: 1,
        max_traces: 100,
        attack: NARROW,
        screen: None,
    };
    let mut dev = device(b"live mutation");
    let mut msgs = Prng::from_seed(b"live mutation msgs");
    let mut c = Campaign::new(8, cfg.clone()).unwrap();
    assert!(c.step(&mut dev, &mut msgs).unwrap());
    let mut ckpt = Vec::new();
    c.write_checkpoint(&dev, &msgs, &mut ckpt).unwrap();
    let cfg = CampaignConfig { batch_size: 7, ..cfg };

    // A successful resume rewinds the device and message streams, so one
    // device serves every mutant.
    let accepted = for_each_mutant(&ckpt, |bytes| {
        match Campaign::resume(cfg.clone(), &mut dev, &mut msgs, bytes) {
            Ok(mut resumed) => {
                let _ = resumed.step(&mut dev, &mut msgs);
                true
            }
            Err(_) => false,
        }
    });
    // Mutated samples and knowns are valid data to the decoder.
    assert!(accepted > 0, "no mutant resumed, so no step ran");
}

#[test]
fn offline_checkpoint_mutants_never_panic() {
    serial();
    let mut dev = device(b"offline mutation");
    let mut msgs = Prng::from_seed(b"offline mutation msgs");
    let ds = Dataset::collect(&mut dev, &[0, 5], 100, &mut msgs);
    let cfg =
        CampaignConfig { batch_size: 20, max_traces: 100, attack: NARROW, ..Default::default() };
    let mut c = OfflineCampaign::new(&ds, cfg.clone()).unwrap();
    for _ in 0..2 {
        assert!(c.step(&ds).unwrap());
    }
    let mut ckpt = Vec::new();
    c.write_checkpoint(&mut ckpt).unwrap();

    // The first target's consumed-trace count follows the 40-byte header
    // and its target index. Beyond the archive it is a typed error, not
    // an overflow in the next step.
    let mut huge = ckpt.clone();
    huge[48..56].copy_from_slice(&1_000_000u64.to_le_bytes());
    assert!(matches!(
        OfflineCampaign::resume(&ds, cfg.clone(), &huge[..]),
        Err(Error::InvalidData(_))
    ));

    let accepted =
        for_each_mutant(&ckpt, |bytes| match OfflineCampaign::resume(&ds, cfg.clone(), bytes) {
            Ok(mut resumed) => {
                let _ = resumed.step(&ds);
                true
            }
            Err(_) => false,
        });
    // Confidence bits carry no invariant, so some mutants resume.
    assert!(accepted > 0, "no mutant resumed, so no step ran");
}
