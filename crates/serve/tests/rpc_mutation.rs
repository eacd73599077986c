//! Byte-mutation and truncation robustness of the control plane's wire
//! decoder.
//!
//! A full `submit` line and a few short request lines are mutated one
//! byte at a time (each byte XORed with 0x01, 0x80 and 0xFF in turn)
//! and truncated at every length. `Msg::parse` may reject a mutant, and
//! `JobSpec::from_fields` may reject what parses, each with a typed error,
//! but neither may panic. A mutant that is not UTF-8 reaches the decoder
//! as its lossy UTF-8 form, as a line reader would hand it over.

use falcon_dema::{Error, JobSpec};
use falcon_serve::rpc::submit_request;
use falcon_serve::Msg;
use std::panic::{catch_unwind, AssertUnwindSafe};

const MASKS: [u8; 3] = [0x01, 0x80, 0xFF];

/// Parses `bytes` as a wire line and, when it parses, rebuilds a spec
/// from it; returns whether the spec was accepted.
fn decode(bytes: &[u8]) -> bool {
    let line = String::from_utf8_lossy(bytes);
    let msg = match Msg::parse(&line) {
        Ok(msg) => msg,
        Err(Error::Orchestration(_)) => return false,
        Err(e) => panic!("Msg::parse returned an unexpected error: {e}"),
    };
    match JobSpec::from_fields(&msg.fields) {
        Ok(spec) => {
            spec.validate().expect("an accepted spec is valid");
            true
        }
        Err(Error::Orchestration(_)) => false,
        Err(e) => panic!("JobSpec::from_fields returned an unexpected error: {e}"),
    }
}

/// Runs `decode` on every single-byte mutant and every truncation of
/// `line`, failing with the mutant's description if it panics. Returns
/// how many mutants gave an accepted spec.
fn mutate_all(line: &str) -> usize {
    let bytes = line.as_bytes();
    let mut accepted = 0;
    let mut run =
        |desc: String, mutant: &[u8]| match catch_unwind(AssertUnwindSafe(|| decode(mutant))) {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => panic!("{line:?}: {desc}: the rpc decoder panicked"),
        };
    let mut mutant = bytes.to_vec();
    for i in 0..bytes.len() {
        for mask in MASKS {
            mutant[i] ^= mask;
            run(format!("byte {i} ^ {mask:#04x}"), &mutant);
            mutant[i] ^= mask;
        }
    }
    for cut in 0..bytes.len() {
        run(format!("truncated to {cut} bytes"), &bytes[..cut]);
    }
    accepted
}

#[test]
fn submit_mutants_never_panic() {
    let spec = JobSpec {
        name: "wire-job_7".into(),
        logn: 4,
        noise_sigma: 2.5,
        seed: "mutation seed".into(),
        batch_size: 40,
        max_traces: 900,
        steps_per_slice: 3,
        max_retries: 2,
        step_deadline_ms: 1500,
        job_deadline_ms: 60_000,
        backoff_base_ms: 10,
        backoff_cap_ms: 500,
        panic_steps: vec![1, 4],
        stall_steps: vec![2],
        stall_ms: 25,
        dataset: "captures/wire-a.fdnd".into(),
    };
    let line = submit_request(&spec);
    assert!(decode(line.as_bytes()), "the clean submit line must be accepted");
    // Mutants of the seed, dataset path and most digits stay valid.
    let accepted = mutate_all(&line);
    assert!(accepted > line.len(), "only {accepted} submit mutants accepted");
}

#[test]
fn short_request_mutants_never_panic() {
    for line in [
        r#"{"method":"submit","job":"tiny","seed":"s"}"#,
        r#"{"method":"status"}"#,
        r#"{"method":"pause","job":"j1"}"#,
        r#"{"method":"max_running","n":3,"x":-1.5e3,"ok":true,"z":null}"#,
    ] {
        mutate_all(line);
    }
}
