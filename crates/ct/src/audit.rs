//! The two whole-workspace audit passes that gate the SIMD kernel
//! work: the **unsafe audit** and the **determinism lint**.
//!
//! Both run on the same scrubbed, statement-stitched source as the
//! region lint, need no annotations to fire, and honour the same
//! `// ct: allow(reason)` escape hatch — an allow must carry a reason,
//! so every suppression is a reviewed decision in the diff.
//!
//! **Unsafe audit** (`unsafe-audit`): every `unsafe` token must sit in
//! a module listed in [`crate::rules::UNSAFE_ALLOWED_MODULES`] *and*
//! have a `// SAFETY:` justification within the three lines above it.
//! The workspace currently contains zero `unsafe` blocks; enforcing the
//! rule now means the first SIMD kernel lands against an existing gate
//! instead of introducing one retroactively.
//!
//! **Determinism lint** (`det-*`): the attack pipeline's outputs are
//! bit-reproducible by contract (PR 5's determinism suite asserts it);
//! this pass flags the *sources* of non-determinism statically:
//!
//! * `det-map-iter` — iterating a `HashMap`/`HashSet` (iteration order
//!   is randomised per process) in a result path;
//! * `det-wall-clock` — `Instant`/`SystemTime` reads;
//! * `det-env-read` — `std::env` reads that change behaviour;
//! * `det-thread-id` — thread-identity reads;
//! * `det-float-fold` — `f32`/`f64` `sum`/`fold`/`product` reductions,
//!   whose value depends on association order. The pinned fold kernels
//!   in `dema::cpa`/`dema::exec` carry reviewed allows.
//!
//! **Atomics audit** (`atomics-order`): in the concurrency-bearing
//! modules (`ATOMICS_AUDITED_PATHS`: the campaign orchestrator and
//! the serving layer) every atomic access must use an ordering that
//! establishes a happens-before edge — `Ordering::Relaxed` is flagged
//! unless a `// ct: allow(reason)` marks it reviewed. Pinned now, at
//! zero findings, so ROADMAP item 3's multi-host sharding lands
//! against an existing contract.
//!
//! Test code (the statement walk's `test` flag: `tests/`, `benches/`,
//! `examples/`, `#[cfg(test)]` items) is exempt from the determinism
//! and atomics lints — tests may time things — but **not** from the
//! unsafe audit.

use crate::lint::{Rule, Violation};
use crate::rules::UNSAFE_ALLOWED_MODULES;
use crate::scan::{idents, is_attribute, SourceFile, Stmt, Tok};
use std::collections::BTreeSet;

/// How far above an `unsafe` statement a `// SAFETY:` comment may sit.
const SAFETY_COMMENT_WINDOW: usize = 3;

/// Runs the audit passes over one file. Its workspace-relative path
/// selects the unsafe-module allowlist and the audited modules.
pub fn audit_source(f: &SourceFile) -> Vec<Violation> {
    let rel = f.file.as_str();
    let raw_lines: Vec<&str> = f.src.lines().collect();
    let mut out = Vec::new();
    let unordered = unordered_names(&f.stmts);

    for stmt in &f.stmts {
        let code = stmt.code.trim();
        if code.is_empty() || is_attribute(code) {
            continue;
        }
        let toks = idents(code);

        // ---- unsafe audit (applies to test code too) -----------------
        if toks.iter().any(|t| t.text == "unsafe") && !stmt.allowed {
            let module_ok = UNSAFE_ALLOWED_MODULES.iter().any(|m| rel.starts_with(m));
            if !module_ok {
                push(
                    &mut out,
                    rel,
                    stmt,
                    Rule::UnsafeAudit,
                    format!(
                        "`unsafe` outside the allowlisted SIMD modules ({})",
                        UNSAFE_ALLOWED_MODULES.join(", ")
                    ),
                );
            } else if !has_safety_comment(&raw_lines, stmt.line) {
                push(
                    &mut out,
                    rel,
                    stmt,
                    Rule::UnsafeAudit,
                    "`unsafe` without a `// SAFETY:` justification in the 3 lines above"
                        .to_string(),
                );
            }
        }

        // ---- determinism + atomics lints -----------------------------
        if stmt.test || stmt.allowed || code.starts_with("use ") || code.starts_with("pub use ") {
            continue;
        }
        check_atomics(rel, stmt, code, &mut out);
        check_determinism(rel, stmt, code, &toks, &unordered, &mut out);
    }

    out
}

fn push(out: &mut Vec<Violation>, rel: &str, stmt: &Stmt, rule: Rule, message: String) {
    out.push(Violation {
        file: rel.to_string(),
        line: stmt.line,
        rule,
        message,
        snippet: stmt.raw.trim().to_string(),
    });
}

/// Whether any of the `SAFETY_COMMENT_WINDOW` raw lines above
/// (1-based) `line` contains a `SAFETY:` comment.
fn has_safety_comment(raw_lines: &[&str], line: usize) -> bool {
    let end = line.saturating_sub(1); // index of the unsafe line itself
    let start = end.saturating_sub(SAFETY_COMMENT_WINDOW);
    raw_lines[start..end].iter().any(|l| {
        l.split_once("//").map(|(_, c)| c.trim_start().starts_with("SAFETY:")).unwrap_or(false)
    })
}

/// Identifiers declared (or typed) as `HashMap`/`HashSet` anywhere in
/// the file: `let mut by: HashMap<…>`, struct fields `hits: HashSet<…>`.
/// File-local and flow-insensitive — good enough to connect a field's
/// declaration to its iteration a hundred lines later.
fn unordered_names(stmts: &[Stmt]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for stmt in stmts {
        let code = stmt.code.trim();
        if !code.contains("HashMap") && !code.contains("HashSet") {
            continue;
        }
        let toks = idents(code);
        let chars: Vec<char> = code.chars().collect();
        for (ti, t) in toks.iter().enumerate() {
            if t.text != "HashMap" && t.text != "HashSet" {
                continue;
            }
            // `name : HashMap` — the token before, with only `:`/space
            // between (also matches `name = HashMap::new()` via `=`).
            if let Some(prev) = ti.checked_sub(1).and_then(|p| toks.get(p)) {
                let between: String = chars.get(prev.end..t.start).unwrap_or(&[]).iter().collect();
                let sep = between.trim();
                if (sep == ":" || sep == "=") && !crate::lint::is_keyword(&prev.text) {
                    names.insert(prev.text.clone());
                }
            }
        }
    }
    names
}

/// Paths whose atomics carry cross-thread/cross-process control flow:
/// the campaign orchestrator's shutdown and progress flags and the
/// serving layer's request counters. `Ordering::Relaxed` there gives
/// no happens-before edge, which is exactly the bug class multi-host
/// sharding would turn from latent into live.
const ATOMICS_AUDITED_PATHS: &[&str] = &["crates/core/src/orch", "crates/serve"];

/// The `atomics-order` check for one statement: `Ordering::Relaxed` in
/// the audited concurrency modules must carry a reviewed
/// `// ct: allow(reason)` (the caller has already applied allows and
/// test exemptions). `core::cmp::Ordering` never matches — the pattern
/// requires the literal `Relaxed` variant.
fn check_atomics(rel: &str, stmt: &Stmt, code: &str, out: &mut Vec<Violation>) {
    if !ATOMICS_AUDITED_PATHS.iter().any(|m| rel.starts_with(m)) {
        return;
    }
    if code.contains("Ordering::Relaxed") {
        push(
            out,
            rel,
            stmt,
            Rule::AtomicsOrder,
            "`Ordering::Relaxed` on a cross-thread atomic (no happens-before edge); use \
             Acquire/Release/SeqCst or allow with a review"
                .to_string(),
        );
    }
}

/// Iteration-revealing suffixes for `det-map-iter`.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".retain(",
];

/// The `det-*` checks for one statement.
fn check_determinism(
    rel: &str,
    stmt: &Stmt,
    code: &str,
    toks: &[Tok],
    unordered: &BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    // det-map-iter: an unordered container iterated, either directly
    // (`HashMap::new().iter()`) or via a name declared unordered in
    // this file (`self.spans.iter()`), or as a `for … in name` source.
    let mentions_unordered_ty = code.contains("HashMap") || code.contains("HashSet");
    let iterates = ITER_METHODS.iter().any(|m| {
        code.match_indices(m).any(|(p, _)| {
            // The receiver token immediately before the `.`.
            let recv = toks.iter().rev().find(|t| t.end == p);
            recv.map(|t| unordered.contains(&t.text)).unwrap_or(mentions_unordered_ty)
        })
    });
    let for_over_unordered = toks.first().map(|t| t.text == "for").unwrap_or(false)
        && toks.iter().skip_while(|t| t.text != "in").any(|t| unordered.contains(&t.text));
    if iterates || for_over_unordered {
        push(out, rel, stmt, Rule::DetMapIter,
            "iteration over a randomised-order container (HashMap/HashSet) in a result path; use BTreeMap/BTreeSet or sort first".to_string());
    }

    // det-wall-clock: an actual clock read, not a type mention in a
    // signature or struct field. Binaries (`src/bin/`) are exempt —
    // timing their own stages is what report binaries are for; the
    // rule targets library code.
    if !rel.contains("/src/bin/")
        && (code.contains("Instant::now")
            || code.contains("SystemTime::now")
            || code.contains(".elapsed("))
    {
        push(
            out,
            rel,
            stmt,
            Rule::DetWallClock,
            "wall-clock read (`Instant`/`SystemTime`) in library code".to_string(),
        );
    }

    // det-env-read.
    if code.contains("env::var")
        || code.contains("env::vars")
        || toks.iter().any(|t| t.text == "var_os")
    {
        push(
            out,
            rel,
            stmt,
            Rule::DetEnvRead,
            "environment read in library code (behaviour varies per host)".to_string(),
        );
    }

    // det-thread-id.
    if code.contains("thread::current") || toks.iter().any(|t| t.text == "ThreadId") {
        push(out, rel, stmt, Rule::DetThreadId, "thread-identity read in library code".to_string());
    }

    // det-float-fold: non-associative float reductions.
    // `.sum(`/`.sum::` are reduction calls; a bare `.sum` would also
    // match struct-field reads like `self.sum.load(..)`.
    let reduces =
        [".sum(", ".sum::", ".product(", ".product::", ".fold("].iter().any(|m| code.contains(m));
    let floaty = toks.iter().any(|t| t.text == "f32" || t.text == "f64")
        || code.contains("0.0")
        || code.contains("1.0");
    if reduces && floaty {
        push(out, rel, stmt, Rule::DetFloatFold,
            "float reduction whose value depends on association order; pin the fold order or allow with a review".to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_source(rel: &str, src: &str) -> Vec<Violation> {
        super::audit_source(&SourceFile::new(rel, src))
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let v =
            audit_source("crates/core/src/pearson.rs", "fn f() {\n    let x = unsafe { *p };\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UnsafeAudit);
        assert!(v[0].message.contains("outside the allowlisted"));
    }

    #[test]
    fn unsafe_in_allowed_module_needs_safety_comment() {
        let no_comment = "fn f() {\n    let x = unsafe { *p };\n}\n";
        let v = audit_source("crates/fpr/src/simd.rs", no_comment);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("SAFETY"));

        let with_comment =
            "fn f() {\n    // SAFETY: p is in-bounds by construction above.\n    let x = unsafe { *p };\n}\n";
        let v = audit_source("crates/fpr/src/simd.rs", with_comment);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unsafe_in_strings_and_comments_is_inert() {
        let v = audit_source(
            "crates/x/src/a.rs",
            "fn f() {\n    let s = \"unsafe\"; // unsafe in prose\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn map_iteration_is_flagged_via_declaration() {
        let src = "\
use std::collections::HashMap;
pub struct R { spans: HashMap<String, u64> }
impl R {
    pub fn dump(&self) -> Vec<u64> {
        self.spans.values().copied().collect()
    }
}
";
        let v = audit_source("crates/x/src/r.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::DetMapIter);
        assert!(v[0].snippet.contains("values"));
    }

    #[test]
    fn for_loop_over_unordered_is_flagged() {
        let src = "\
fn g() {
    let mut seen: HashSet<u32> = HashSet::new();
    for x in &seen {
        emit(x);
    }
}
";
        let v = audit_source("crates/x/src/g.rs", src);
        assert!(v.iter().any(|x| x.rule == Rule::DetMapIter), "{v:?}");
    }

    #[test]
    fn wall_clock_env_and_thread_reads_are_flagged() {
        let src = "\
fn t() {
    let t0 = Instant::now();
    let v = std::env::var(\"X\");
    let id = std::thread::current().id();
}
";
        let v = audit_source("crates/x/src/t.rs", src);
        let rules: Vec<Rule> = v.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&Rule::DetWallClock), "{v:?}");
        assert!(rules.contains(&Rule::DetEnvRead), "{v:?}");
        assert!(rules.contains(&Rule::DetThreadId), "{v:?}");
    }

    #[test]
    fn float_fold_is_flagged_and_allow_suppresses() {
        let bare = "fn s(xs: &[f64]) -> f64 {\n    xs.iter().fold(0.0, |a, b| a + b)\n}\n";
        let v = audit_source("crates/x/src/s.rs", bare);
        assert!(v.iter().any(|x| x.rule == Rule::DetFloatFold), "{v:?}");

        let allowed = "fn s(xs: &[f64]) -> f64 {\n    // ct: allow(pinned fold kernel: sequential order is the spec)\n    xs.iter().fold(0.0, |a, b| a + b)\n}\n";
        let v = audit_source("crates/x/src/s.rs", allowed);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn bin_paths_may_read_the_clock_but_libraries_may_not() {
        let src = "fn main() {\n    let t0 = Instant::now();\n    let _ = t0.elapsed();\n}\n";
        let v = audit_source("crates/bench/src/bin/table2.rs", src);
        assert!(v.is_empty(), "{v:?}");
        let v = audit_source("crates/bench/src/report.rs", src);
        assert!(v.iter().any(|x| x.rule == Rule::DetWallClock), "{v:?}");
    }

    #[test]
    fn test_code_is_exempt_from_determinism_but_not_unsafe() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn timing() {
        let t = Instant::now();
        let x = unsafe { *p };
    }
}
";
        let v = audit_source("crates/x/src/lib.rs", src);
        let rules: Vec<Rule> = v.iter().map(|x| x.rule).collect();
        assert!(!rules.contains(&Rule::DetWallClock), "{v:?}");
        assert!(rules.contains(&Rule::UnsafeAudit), "{v:?}");
    }

    #[test]
    fn use_statements_do_not_fire_wall_clock() {
        let v = audit_source("crates/x/src/u.rs", "use std::time::Instant;\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn relaxed_atomics_in_audited_modules_are_flagged() {
        let src = "fn stop(&self) {\n    self.done.store(true, Ordering::Relaxed);\n}\n";
        let v = audit_source("crates/core/src/orch/daemon.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::AtomicsOrder);
        let v = audit_source("crates/serve/src/server.rs", src);
        assert!(v.iter().any(|x| x.rule == Rule::AtomicsOrder), "{v:?}");
    }

    #[test]
    fn atomics_rule_is_scoped_allowable_and_ignores_cmp_ordering() {
        // Outside the audited modules: not flagged.
        let src = "fn stop(&self) {\n    self.done.store(true, Ordering::Relaxed);\n}\n";
        let v = audit_source("crates/obs/src/registry.rs", src);
        assert!(v.is_empty(), "{v:?}");
        // SeqCst and `core::cmp::Ordering` comparisons: not flagged.
        let src = "fn f(&self) {\n    self.n.fetch_add(1, Ordering::SeqCst);\n    if ord == Ordering::Less {\n        g();\n    }\n}\n";
        let v = audit_source("crates/serve/src/server.rs", src);
        assert!(v.is_empty(), "{v:?}");
        // A reviewed allow suppresses.
        let src = "fn peek(&self) -> u64 {\n    // ct: allow(monotonic counter, no ordering contract)\n    self.n.load(Ordering::Relaxed)\n}\n";
        let v = audit_source("crates/core/src/orch/daemon.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }
}
