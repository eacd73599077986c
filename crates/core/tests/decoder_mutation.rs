//! Byte-mutation robustness of the dataset and orchestrator-record
//! decoders.
//!
//! Every byte of a small `FDNDSET\x02` archive, a `JobSpec` record line
//! and a `JobStatus` record line is XORed with 0x01, 0x80 and 0xFF in
//! turn, and each record line is also cut at every length. Each decoder
//! may reject a mutant with a typed error, but must not panic:
//! `io::read_dataset`, `StreamedDataset::open_default` followed by
//! `target_block` on every target, `JobSpec::from_line` and
//! `JobStatus::from_line`. A record mutant that is not UTF-8 is refused
//! before the line decoder, as the job store's reader refuses it.
//! A dataset mutant that decodes is attacked with a narrow beam, which
//! must not panic on the corrupted columns either. The attack is
//! deterministic, so a target whose columns the mutant left untouched
//! scores exactly as on the clean archive: a payload mutant attacks the
//! one target that owns the mutated byte, a header mutant every target,
//! and the clean archive is attacked once on every target.
//! The archive is a seeded FALCON-8 capture of targets 0 and 1, so the
//! 0x01 mutant of either target's low byte repeats the other target.

use falcon_dema::acquire::Dataset;
use falcon_dema::attack::{recover_coefficient_block, AttackConfig};
use falcon_dema::stream::StreamedDataset;
use falcon_dema::{exec, io, ColumnSource, Error, JobSpec, JobState, JobStatus, Result};
use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope};
use falcon_sig::rng::Prng;
use falcon_sig::{KeyPair, LogN};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

const MASKS: [u8; 3] = [0x01, 0x80, 0xFF];

/// A four-wide beam over four-bit windows: cheap enough to attack every
/// decoded mutant.
const NARROW: AttackConfig = AttackConfig { step_bits: 4, beam_width: 4 };

/// Byte offset of target slot `i` in the archive header: the 8-byte
/// magic, then the degree, target count and trace count as u64 words.
fn target_slot_offset(i: usize) -> usize {
    32 + 8 * i
}

/// Calls `check` with the offset of the mutated byte and the mutant, for
/// every single-byte mutant of `bytes`, failing the test with the
/// mutant's offset and mask if it panics. Returns how many mutants
/// `check` reported as accepted.
fn for_each_mutant(bytes: &[u8], mut check: impl FnMut(usize, &[u8]) -> bool) -> usize {
    let mut accepted = 0;
    let mut mutant = bytes.to_vec();
    for i in 0..bytes.len() {
        for mask in MASKS {
            mutant[i] ^= mask;
            let outcome = catch_unwind(AssertUnwindSafe(|| check(i, &mutant)));
            mutant[i] ^= mask;
            match outcome {
                Ok(ok) => accepted += usize::from(ok),
                Err(_) => panic!("byte {i} ^ {mask:#04x}: decoder or attack panicked"),
            }
        }
    }
    accepted
}

fn archive() -> Vec<u8> {
    let mut rng = Prng::from_seed(b"decoder mutation key");
    let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
    let chain = MeasurementChain {
        model: LeakageModel::hamming_weight(1.0, 1.0),
        lowpass: 0.0,
        scope: Scope { enabled: false, ..Default::default() },
        ..Default::default()
    };
    let mut dev = Device::new(kp.into_parts().0, chain, b"decoder mutation");
    let mut msgs = Prng::from_seed(b"decoder mutation msgs");
    let ds = Dataset::collect(&mut dev, &[0, 1], 4, &mut msgs);
    let mut buf = Vec::new();
    io::write_dataset(&ds, &mut buf).unwrap();
    buf
}

/// Opens `bytes` as a streamed archive at `path` and fetches every
/// target's block; returns whether the open succeeded.
fn stream_mutant(path: &Path, bytes: &[u8]) -> bool {
    std::fs::write(path, bytes).unwrap();
    let Ok(sd) = StreamedDataset::open_default(path) else { return false };
    for &t in sd.targets() {
        let _ = sd.target_block(t);
    }
    true
}

#[test]
fn dataset_mutants_never_panic() {
    exec::set_threads(1);
    let bytes = archive();
    let dir = std::env::temp_dir().join(format!("falcon-decoder-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mutant.fdnd");

    // A header that repeats a target is rejected by both readers.
    for slot in 0..2 {
        let mut repeated = bytes.clone();
        repeated[target_slot_offset(slot)] ^= 0x01;
        assert!(
            matches!(io::read_dataset(&repeated[..]), Err(Error::InvalidData(_))),
            "repeated target in slot {slot} must be InvalidData"
        );
        std::fs::write(&path, &repeated).unwrap();
        assert!(matches!(StreamedDataset::open_default(&path), Err(Error::InvalidData(_))));
    }

    let attack = |ds: &Dataset, slot: Option<usize>| {
        for (ti, &t) in ds.targets().iter().enumerate() {
            if slot.is_none_or(|s| s == ti) {
                let block = ds.target_block(t).expect("a decoded dataset holds its targets");
                let _ = recover_coefficient_block(&block, &NARROW);
            }
        }
    };
    attack(&io::read_dataset(&bytes[..]).unwrap(), None);
    // The target slot whose known or sample columns hold byte `i`, or
    // `None` for a header byte.
    let hdr = io::read_dataset_header(&mut &bytes[..]).unwrap();
    let owner = |i: usize| {
        (0..hdr.targets.len()).find(|&ti| {
            [hdr.target_knowns_range(ti), hdr.target_points_range(ti)]
                .iter()
                .any(|&(off, len)| (off..off + len).contains(&(i as u64)))
        })
    };

    let mut streamed = 0;
    let resident = for_each_mutant(&bytes, |i, mutant| {
        streamed += usize::from(stream_mutant(&path, mutant));
        let Ok(ds) = io::read_dataset(mutant) else { return false };
        attack(&ds, owner(i));
        true
    });
    std::fs::remove_dir_all(&dir).unwrap();
    // Mutated knowns and samples are valid data to both decoders.
    assert!(resident > 0, "no mutant decoded, so no attack ran");
    assert!(streamed > 0, "no mutant streamed");
}

/// Runs `decode` on every single-byte mutant and every truncation of
/// `line`, refusing non-UTF-8 bytes first. Returns how many mutants and
/// truncations decoded.
fn record_mutants<T>(line: &str, decode: impl Fn(&str) -> Result<T>) -> usize {
    let accept = |b: &[u8]| std::str::from_utf8(b).is_ok_and(|l| decode(l).is_ok());
    let mut accepted = for_each_mutant(line.as_bytes(), |_, m| accept(m));
    for cut in 0..line.len() {
        let outcome = catch_unwind(AssertUnwindSafe(|| accept(&line.as_bytes()[..cut])));
        accepted +=
            usize::from(outcome.unwrap_or_else(|_| panic!("cut at {cut}: decoder panicked")));
    }
    accepted
}

#[test]
fn job_record_mutants_never_panic() {
    let spec = JobSpec {
        name: "mutant-job".into(),
        seed: "decoder mutation".into(),
        panic_steps: vec![1, 4],
        stall_steps: vec![2],
        stall_ms: 5,
        dataset: "capture.fdnd".into(),
        ..Default::default()
    };
    let line = spec.to_line();
    assert_eq!(JobSpec::from_line(&line).unwrap(), spec);
    assert!(record_mutants(&line, JobSpec::from_line) > 0, "no spec mutant decoded");

    let status = JobStatus {
        state: JobState::Done,
        retries: 2,
        slices: 7,
        traces_requested: 420,
        recovered: 8,
        runtime_ms: 1234,
        last_error: "slice deadline".into(),
        bits: (0..8).map(|i| 0x4010_0000_0000_0000 + i).collect(),
        ..JobStatus::queued(8)
    };
    let line = status.to_line();
    assert_eq!(JobStatus::from_line(&line).unwrap(), status);
    assert!(record_mutants(&line, JobStatus::from_line) > 0, "no status mutant decoded");
}
