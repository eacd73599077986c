//! Byte-mutation and truncation robustness of the CSV and raw-f32
//! containers `falcon_ingest` imports.
//!
//! A one-target, three-trace FALCON-8 archive is written with a `.csv`
//! trace file and a `.csv` known file, and again with a directory of
//! raw little-endian f32 trace files. Every byte of the file under test
//! is XORed with 0x01, 0x80 and 0xFF in turn, and the file is truncated
//! at every length; each mutant is written back in place and read
//! through its container reader (`read_trace_rows` or `read_known_rows`)
//! and through `import_archive` on the whole directory. Each call may
//! return an error, but must not panic.

use falcon_dema::ingest::{import_archive, read_known_rows, read_trace_rows};
use falcon_dema::source::ColumnSource;
use falcon_dema::Error;
use falcon_emsim::StepKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const MASKS: [u8; 3] = [0x01, 0x80, 0xFF];
/// Traces in the clean archive.
const TRACES: usize = 3;
/// Samples per trace: one target's 28-sample window.
const COLS: usize = 28;

/// Sample `col` of trace `row` in the clean archive.
fn sample(row: usize, col: usize) -> f32 {
    ((row * COLS + col) * 37 % 101) as f32 / 8.0 - 6.0
}

/// A fresh archive directory under the system temp dir whose manifest
/// names `traces` as the trace container and `knowns.csv` (written
/// here, one row in hex) as the known container.
fn archive(name: &str, traces: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("falcon-ingest-mutation-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let manifest =
        format!("n = 8\ntargets = 3\ntraces = {traces}\nknowns = knowns.csv\nwindow.3 = 0\n");
    std::fs::write(dir.join("manifest.txt"), manifest).unwrap();
    let knowns = "0x4030000000000f00, 4611686018427387904\n\
                  4613937818241073152, 13830554455654793216\n\
                  # a comment line\n\
                  4607182418800017408, 4621819117588971520\n";
    std::fs::write(dir.join("knowns.csv"), knowns).unwrap();
    dir
}

/// Writes every single-byte mutant and every truncation of `file` in
/// place and runs `read` on each, failing with the mutant's description
/// if it panics; restores the clean file. Returns how many mutants
/// `read` accepted and rejected.
fn mutate_all(file: &Path, read: impl Fn() -> bool) -> (usize, usize) {
    let bytes = std::fs::read(file).unwrap();
    let (mut accepted, mut rejected) = (0, 0);
    let mut run = |desc: String, mutant: &[u8]| {
        std::fs::write(file, mutant).unwrap();
        match catch_unwind(AssertUnwindSafe(&read)) {
            Ok(true) => accepted += 1,
            Ok(false) => rejected += 1,
            Err(_) => panic!("{}: {desc}: a reader panicked", file.display()),
        }
    };
    let mut mutant = bytes.clone();
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
    std::fs::write(file, &bytes).unwrap();
    (accepted, rejected)
}

/// Reads the container with `reader` and imports the whole archive;
/// true when both succeed. Both return typed errors by construction,
/// so only a panic fails the test.
fn reads_and_imports<T>(dir: &Path, reader: impl Fn() -> falcon_dema::Result<T>) -> bool {
    let read = reader().is_ok();
    let imported = import_archive(dir).is_ok();
    read && imported
}

/// The clean archive imports every trace with the written samples.
fn assert_clean(dir: &Path) {
    let (ds, report) = import_archive(dir).unwrap();
    assert_eq!((report.traces, report.targets), (TRACES, 1));
    let block = ds.target_block(3).unwrap();
    for row in 0..TRACES {
        let window = (0..2).flat_map(|occ| StepKind::ALL.map(|step| block.sample(row, occ, step)));
        assert_eq!(
            window.collect::<Vec<_>>(),
            (0..COLS).map(|c| sample(row, c)).collect::<Vec<_>>()
        );
    }
}

#[test]
fn csv_mutants_never_panic() {
    let dir = archive("csv", "traces.csv");
    let rows: Vec<String> = (0..TRACES)
        .map(|r| (0..COLS).map(|c| sample(r, c).to_string()).collect::<Vec<_>>().join(", "))
        .collect();
    std::fs::write(dir.join("traces.csv"), rows.join("\n") + "\n").unwrap();
    assert_clean(&dir);
    for (file, is_trace) in [("traces.csv", true), ("knowns.csv", false)] {
        let path = dir.join(file);
        let (accepted, rejected) = mutate_all(&path, || match is_trace {
            true => reads_and_imports(&dir, || read_trace_rows(&path)),
            false => reads_and_imports(&dir, || read_known_rows(&path)),
        });
        assert!(accepted > 0 && rejected > 0, "{file}: {accepted} accepted, {rejected} rejected");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn raw_trace_directory_mutants_never_panic() {
    let dir = archive("raw", "traces/");
    let traces = dir.join("traces");
    std::fs::create_dir_all(&traces).unwrap();
    for row in 0..TRACES {
        let raw: Vec<u8> = (0..COLS).flat_map(|c| sample(row, c).to_le_bytes()).collect();
        std::fs::write(traces.join(format!("trace{row:03}.bin")), raw).unwrap();
    }
    assert_clean(&dir);
    for row in 0..TRACES {
        let path = traces.join(format!("trace{row:03}.bin"));
        let (accepted, rejected) =
            mutate_all(&path, || reads_and_imports(&dir, || read_trace_rows(&traces)));
        assert!(
            accepted > 0 && rejected > 0,
            "trace {row}: {accepted} accepted, {rejected} rejected"
        );
    }
    // An empty first file is a zero-length trace, not a file to skip:
    // skipping it would pair every later trace with the wrong knowns.
    std::fs::write(traces.join("trace000.bin"), b"").unwrap();
    assert!(matches!(
        read_trace_rows(&traces),
        Err(Error::ShapeMismatch { what: "binary trace file", expected: 0, got: COLS })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
