//! `falcon_ingest` — foreign trace archives in, streamable datasets out.
//!
//! ```text
//! falcon_ingest fixture <dir> [logn=3] [targets=0,4] [traces=220] [noise=0.5] [seed=fixture]
//!     Write a synthetic npy-style capture archive (traces.npy,
//!     knowns.npy, manifest.txt, truth.txt) from the device simulator.
//!
//! falcon_ingest import <dir> <out.fdnd>
//!     Import a manifest-described archive (npy / CSV / binary trace
//!     containers) into a columnar FDNDSET v2 file.
//!
//! falcon_ingest convert <in.fdnd> <out.fdnd>
//!     Read a v2 dataset in full (checking every payload length) and
//!     rewrite it atomically.
//!
//! falcon_ingest verify <file.fdnd> [truth=<truth.txt>] [attack=0|1]
//!     Open the file through the streaming reader and print its shape;
//!     with attack=1 run the full coefficient recovery over every
//!     target, and with truth= assert the recovered bits match.
//! ```
//!
//! Options follow the positional arguments; the first `key=` wins, and a
//! key the subcommand does not read exits with status 2 and names it.
//! Exits non-zero on any error or failed verification.

use falcon_dema::attack::{recover_coefficient_block, AttackConfig};
use falcon_dema::ingest;
use falcon_dema::io::{atomic_write, read_dataset, write_dataset};
use falcon_dema::source::ColumnSource;
use falcon_dema::stream::StreamedDataset;
use std::io::BufReader;
use std::path::Path;
use std::process::ExitCode;

/// Each subcommand: its name, its count of positional arguments and the
/// `key=value` keys it reads.
const SUBCOMMANDS: [(&str, usize, &[&str]); 4] = [
    ("fixture", 1, &["logn", "targets", "traces", "noise", "seed"]),
    ("import", 2, &[]),
    ("convert", 2, &[]),
    ("verify", 1, &["truth", "attack"]),
];

/// `key=value` lookup over the free arguments, with a default: the first
/// `key=` argument wins, as in the bench bins.
fn arg_or<'a>(args: &'a [String], key: &str, default: &'a str) -> &'a str {
    let pat = format!("{key}=");
    args.iter().find_map(|a| a.strip_prefix(&pat)).unwrap_or(default)
}

/// The key of the first option that `keys` does not name (a bare word is
/// its own key), so a misspelt key cannot silently run the default.
fn unread_key<'a>(options: &'a [String], keys: &[&str]) -> Option<&'a str> {
    options
        .iter()
        .map(|a| a.split_once('=').map_or(a.as_str(), |(k, _)| k))
        .find(|k| !keys.contains(k))
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("falcon_ingest: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    if let Err(e) = falcon_dema::exec::check_env() {
        eprintln!("falcon_ingest: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        return fail("usage: falcon_ingest <fixture|import|convert|verify> ...");
    };
    let rest = &args[1..];
    let Some(&(_, positional, keys)) = SUBCOMMANDS.iter().find(|(name, ..)| *name == cmd) else {
        return fail(format!("unknown subcommand {cmd:?}"));
    };
    if let Some(key) = unread_key(rest.get(positional..).unwrap_or_default(), keys) {
        let reads = if keys.is_empty() { "no options".to_string() } else { keys.join(", ") };
        eprintln!("falcon_ingest {cmd}: unknown argument `{key}` (it reads: {reads})");
        return ExitCode::from(2);
    }
    let result = match cmd {
        "fixture" => cmd_fixture(rest),
        "import" => cmd_import(rest),
        "convert" => cmd_convert(rest),
        _ => cmd_verify(rest),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

fn cmd_fixture(args: &[String]) -> Result<(), String> {
    let dir = args.first().ok_or("fixture: missing <dir>")?;
    let logn: u32 = arg_or(args, "logn", "3").parse().map_err(|_| "bad logn")?;
    let targets: Vec<usize> = arg_or(args, "targets", "0,4")
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad target {s:?}")))
        .collect::<Result<_, _>>()?;
    let traces: usize = arg_or(args, "traces", "220").parse().map_err(|_| "bad traces")?;
    let noise: f64 = arg_or(args, "noise", "0.5").parse().map_err(|_| "bad noise")?;
    let seed = arg_or(args, "seed", "fixture").as_bytes().to_vec();
    let truth = ingest::write_fixture_archive(Path::new(dir), logn, &targets, traces, noise, &seed)
        .map_err(|e| e.to_string())?;
    println!(
        "fixture: wrote {dir} (n = {}, {} targets, {traces} traces, noise {noise})",
        1usize << logn,
        truth.len()
    );
    Ok(())
}

fn cmd_import(args: &[String]) -> Result<(), String> {
    let [dir, out] = args else {
        return Err("import: usage falcon_ingest import <dir> <out.fdnd>".into());
    };
    let report = ingest::import_archive_to_path(Path::new(dir), Path::new(out))
        .map_err(|e| e.to_string())?;
    println!(
        "import: {} traces x {} targets -> {out} ({} samples winsorized)",
        report.traces, report.targets, report.winsorized
    );
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let [input, out] = args else {
        return Err("convert: usage falcon_ingest convert <in.fdnd> <out.fdnd>".into());
    };
    let f = std::fs::File::open(input).map_err(|e| format!("{input}: {e}"))?;
    let ds = read_dataset(BufReader::new(f)).map_err(|e| e.to_string())?;
    atomic_write(Path::new(out), |w| write_dataset(&ds, w)).map_err(|e| e.to_string())?;
    println!(
        "convert: {input} -> {out} (v2 columnar, {} traces x {} targets)",
        ds.traces(),
        ds.targets().len()
    );
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let file = args.first().ok_or("verify: missing <file.fdnd>")?;
    let sd = StreamedDataset::open_default(Path::new(file)).map_err(|e| e.to_string())?;
    let hdr = sd.header();
    println!(
        "verify: {file} streams (n = {}, {} targets, {} traces)",
        hdr.n,
        hdr.targets.len(),
        hdr.traces
    );
    let truth = match arg_or(args, "truth", "") {
        "" => Vec::new(),
        path => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            ingest::parse_truth(&text).map_err(|e| e.to_string())?
        }
    };
    if arg_or(args, "attack", if truth.is_empty() { "0" } else { "1" }) != "1" {
        return Ok(());
    }
    let cfg = AttackConfig::default();
    let mut failures = 0usize;
    for &target in sd.targets() {
        let block = sd.target_block(target).map_err(|e| e.to_string())?;
        let r = recover_coefficient_block(&block, &cfg);
        let expect = truth.iter().find(|(t, _)| *t == target).map(|&(_, b)| b);
        let verdict = match expect {
            Some(b) if b == r.bits => "MATCH",
            Some(_) => {
                failures += 1;
                "MISMATCH"
            }
            None => "recovered",
        };
        println!("  target {target}: bits {:#018x} corr {:.4} [{verdict}]", r.bits, r.mant_lo.corr);
    }
    if failures > 0 {
        return Err(format!("{failures} target(s) disagree with the supplied truth"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn first_key_wins() {
        let a = args(&["fx", "traces=40", "traces=220"]);
        assert_eq!(arg_or(&a, "traces", "1"), "40");
        assert_eq!(arg_or(&a, "logn", "3"), "3");
    }

    #[test]
    fn unread_key_is_named() {
        let keys = SUBCOMMANDS[0].2;
        assert_eq!(unread_key(&args(&["logn=3", "traces=40"]), keys), None);
        assert_eq!(unread_key(&args(&["logn=3", "trace=40"]), keys), Some("trace"));
        assert_eq!(unread_key(&args(&["extra"]), &[]), Some("extra"));
    }
}
