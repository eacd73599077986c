//! Baselines: a checked-in JSONL file of fingerprints for known
//! (grandfathered) findings — violations in `ct-baseline.jsonl`, leakage
//! sites in `ct-sites-baseline.jsonl` — so CI fails only on *new* ones.
//!
//! Each line is a flat `falcon-obs` event record —
//! `{"ev":"ct-baseline","file":…,"rule":…,"fp":…}` — parseable with
//! [`falcon_obs::parse_jsonl`], the same format as every other
//! machine-readable artifact in this workspace. The target state of
//! the tree is an **empty** baseline: every real violation fixed, every
//! deliberate exception documented inline with `// ct: allow(reason)`.

use crate::lint::Violation;
use crate::sites::LeakSite;
use falcon_obs::{parse_jsonl, Event, Value};
use std::collections::BTreeSet;
use std::path::Path;

/// A loaded set of baselined finding fingerprints.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    fps: BTreeSet<String>,
}

impl Baseline {
    /// Loads a baseline file. A missing file is an empty baseline (the
    /// healthy state); a present-but-unparseable line is an error, so a
    /// corrupted baseline cannot silently accept violations.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Baseline::default()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let mut fps = BTreeSet::new();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields = parse_jsonl(line).ok_or_else(|| {
                format!("{}:{}: unparseable baseline line", path.display(), idx + 1)
            })?;
            let fp = fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("fp", Value::Str(s)) => Some(s.clone()),
                _ => None,
            });
            match fp {
                Some(fp) => {
                    fps.insert(fp);
                }
                None => {
                    return Err(format!(
                        "{}:{}: baseline line has no `fp` field",
                        path.display(),
                        idx + 1
                    ))
                }
            }
        }
        Ok(Baseline { fps })
    }

    /// Renders findings as baseline JSONL (sorted by fingerprint for a
    /// stable diff).
    pub fn render<F: Finding>(findings: &[F]) -> String {
        let mut lines: Vec<String> =
            findings.iter().map(|f| f.record().with_str("fp", f.fingerprint()).to_json()).collect();
        lines.sort();
        lines.dedup();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Whether a finding is grandfathered.
    pub fn contains<F: Finding>(&self, f: &F) -> bool {
        self.fps.contains(&f.fingerprint())
    }

    /// Fingerprints present in the baseline but not matched by any
    /// current finding — stale entries that should be pruned.
    pub fn stale<F: Finding>(&self, findings: &[F]) -> Vec<String> {
        let seen: BTreeSet<String> = findings.iter().map(|f| f.fingerprint()).collect();
        self.fps.difference(&seen).cloned().collect()
    }

    /// Number of baselined fingerprints.
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// Whether the baseline is empty (the target state).
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }
}

/// Something a baseline can grandfather: a [`Violation`] in
/// `ct-baseline.jsonl` or a [`LeakSite`] in `ct-sites-baseline.jsonl`.
pub trait Finding {
    /// What one finding is called in the gate's summary lines.
    const NOUN: &'static str;

    /// Content-addressed fingerprint, stable across line drift.
    fn fingerprint(&self) -> String;

    /// The finding's baseline record, without its `fp` field. Scores and
    /// messages are *not* recorded — a site may re-rank as the model
    /// sharpens; only its existence at a location is baselined.
    fn record(&self) -> Event;

    /// `file:line: [kind] …`, for the `--update-baseline` diff.
    fn label(&self) -> String;
}

impl<F: Finding> Finding for &F {
    const NOUN: &'static str = F::NOUN;

    fn fingerprint(&self) -> String {
        F::fingerprint(self)
    }

    fn record(&self) -> Event {
        F::record(self)
    }

    fn label(&self) -> String {
        F::label(self)
    }
}

impl Finding for Violation {
    const NOUN: &'static str = "violation";

    fn fingerprint(&self) -> String {
        Violation::fingerprint(self)
    }

    fn record(&self) -> Event {
        Event::new("ct-baseline")
            .with_str("file", self.file.clone())
            .with_u64("line", self.line as u64)
            .with_str("rule", self.rule.id())
    }

    fn label(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.snippet)
    }
}

impl Finding for LeakSite {
    const NOUN: &'static str = "site";

    fn fingerprint(&self) -> String {
        LeakSite::fingerprint(self)
    }

    fn record(&self) -> Event {
        Event::new("ct-site-baseline")
            .with_str("file", self.file.clone())
            .with_u64("line", self.line as u64)
            .with_str("kind", self.kind.id())
            .with_str("fn", self.qual.clone())
    }

    fn label(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.kind, self.qual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Rule;

    fn sample() -> Violation {
        Violation {
            file: "crates/x/src/lib.rs".into(),
            line: 10,
            rule: Rule::SecretBranch,
            message: "test".into(),
            snippet: "if x { }".into(),
        }
    }

    #[test]
    fn render_load_roundtrip() {
        let v = sample();
        let text = Baseline::render(std::slice::from_ref(&v));
        let dir = std::env::temp_dir().join("falcon-ct-baseline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        std::fs::write(&path, &text).unwrap();
        let b = Baseline::load(&path).unwrap();
        assert_eq!(b.len(), 1);
        assert!(b.contains(&v));
        assert!(b.stale(&[v]).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty() {
        let b = Baseline::load(Path::new("/nonexistent/ct-baseline.jsonl")).unwrap();
        assert!(b.is_empty());
    }

    #[test]
    fn fingerprint_survives_line_drift() {
        let mut v2 = sample();
        v2.line = 99;
        v2.snippet = "if  x  {  }".into(); // reformatted whitespace
        assert_eq!(sample().fingerprint(), v2.fingerprint());
    }

    #[test]
    fn corrupt_line_is_an_error() {
        let dir = std::env::temp_dir().join("falcon-ct-baseline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        assert!(Baseline::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
