//! What the static-pass binaries share: the workspace root they scan by
//! default, their common command line (`--root`, `--json`, and for the
//! two gated ones `--baseline`/`--update-baseline`), and the baseline
//! gate of `ct_lint` and `ct_sites`.
//!
//! The gate fails on a finding the baseline does not hold *and* on a
//! baseline entry no current finding matches: a stale entry would
//! silently re-admit its finding if it came back.

use crate::baseline::{Baseline, Finding};
use std::path::{Path, PathBuf};

/// The workspace root: the nearest ancestor of the current directory
/// containing `Cargo.toml` with a `[workspace]` table, else `.`.
pub fn default_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if let Ok(text) = std::fs::read_to_string(dir.join("Cargo.toml")) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

/// The command line the static-pass binaries share.
#[derive(Debug)]
pub struct Args {
    /// Tree to scan (default: [`default_root`]).
    pub root: PathBuf,
    /// Where to write the JSON report, if anywhere.
    pub json: Option<PathBuf>,
    /// The baseline file (default: the binary's file under `root`);
    /// empty for a binary without a baseline.
    pub baseline: PathBuf,
    /// Rewrite the baseline from the current findings before gating.
    pub update_baseline: bool,
}

impl Args {
    /// Parses `args` (without the program name). `baseline` names the
    /// default baseline file under the root; `None` means the binary
    /// takes no baseline flags. A flag outside the common set goes to
    /// `extra` with the remaining arguments, which returns `Ok(false)`
    /// when it does not know the flag either. `--help` returns
    /// `Err(usage)`.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        usage: &str,
        baseline: Option<&str>,
        mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> Result<Args, String> {
        let (mut root, mut json, mut file, mut update_baseline) = (None, None, None, false);
        let mut it = args.into_iter();
        let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
            it.next().map(PathBuf::from).ok_or(format!("{flag} needs a value"))
        };
        while let Some(a) = it.next() {
            match a.as_str() {
                "--root" => root = Some(value("--root", &mut it)?),
                "--json" => json = Some(value("--json", &mut it)?),
                "--baseline" if baseline.is_some() => file = Some(value("--baseline", &mut it)?),
                "--update-baseline" if baseline.is_some() => update_baseline = true,
                "--help" | "-h" => return Err(usage.to_string()),
                other => {
                    if !extra(other, &mut it)? {
                        return Err(format!("unknown argument `{other}`"));
                    }
                }
            }
        }
        let root = root.unwrap_or_else(default_root);
        let baseline = file.or_else(|| baseline.map(|f| root.join(f))).unwrap_or_default();
        Ok(Args { root, json, baseline, update_baseline })
    }
}

/// The current findings compared with a baseline.
#[derive(Debug)]
pub struct Gate {
    /// The baseline compared with (after any update).
    pub baseline: Baseline,
    /// Findings the baseline does not hold.
    pub new: usize,
    /// Baseline fingerprints no current finding matches.
    pub stale: Vec<String>,
}

impl Gate {
    /// Compares `findings` with the baseline at `path`, printing each
    /// stale entry to stderr under `tool`'s name. With `update`, first
    /// prints the added and removed fingerprints and rewrites the file
    /// from `findings`, so a baseline refresh is a reviewable diff.
    /// `Err` carries an I/O or parse message.
    pub fn check<F: Finding>(
        tool: &str,
        path: &Path,
        findings: &[F],
        update: bool,
    ) -> Result<Gate, String> {
        if update {
            let previous = Baseline::load(path).unwrap_or_default();
            let mut added = 0usize;
            for f in findings.iter().filter(|f| !previous.contains(*f)) {
                println!("baseline + {} {}", f.fingerprint(), f.label());
                added += 1;
            }
            let removed = previous.stale(findings);
            for fp in &removed {
                println!("baseline - {fp} (no longer present)");
            }
            std::fs::write(path, Baseline::render(findings))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!(
                "{tool}: baselined {} {}(s) into {} (+{added}, -{})",
                findings.len(),
                F::NOUN,
                path.display(),
                removed.len(),
            );
        }
        let baseline = Baseline::load(path)?;
        let new = findings.iter().filter(|f| !baseline.contains(*f)).count();
        let stale = baseline.stale(findings);
        for fp in &stale {
            eprintln!(
                "{tool}: stale baseline entry {fp} ({} no longer present — prune it with \
                 --update-baseline)",
                F::NOUN
            );
        }
        Ok(Gate { baseline, new, stale })
    }

    /// No new finding and no stale entry.
    pub fn passed(&self) -> bool {
        self.new == 0 && self.stale.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{Rule, Violation};

    fn violation(snippet: &str) -> Violation {
        Violation {
            file: "crates/x/src/lib.rs".into(),
            line: 1,
            rule: Rule::SecretBranch,
            message: "test".into(),
            snippet: snippet.into(),
        }
    }

    #[test]
    fn stale_entries_fail_until_the_baseline_is_updated() {
        let dir = std::env::temp_dir().join(format!("falcon-ct-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.jsonl");
        let (kept, gone) = (violation("if a { }"), violation("if b { }"));
        std::fs::write(&path, Baseline::render(&[kept.clone(), gone])).unwrap();

        let gate = Gate::check("test", &path, std::slice::from_ref(&kept), false).unwrap();
        assert_eq!((gate.new, gate.stale.len()), (0, 1));
        assert!(!gate.passed());

        let gate = Gate::check("test", &path, std::slice::from_ref(&kept), true).unwrap();
        assert!(gate.passed(), "{gate:?}");
        assert_eq!(gate.baseline.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn baseline_flags_belong_to_gated_binaries() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let none = |_: &str, _: &mut dyn Iterator<Item = String>| Ok(false);
        let gated =
            Args::parse(args(&["--root", "r", "--update-baseline"]), "u", Some("b"), none).unwrap();
        assert_eq!(gated.baseline, Path::new("r").join("b"));
        assert!(gated.update_baseline);
        let err = Args::parse(args(&["--update-baseline"]), "u", None, none).unwrap_err();
        assert!(err.contains("--update-baseline"), "{err}");
        assert_eq!(Args::parse(args(&["--help"]), "u", None, none).unwrap_err(), "u");
    }
}
