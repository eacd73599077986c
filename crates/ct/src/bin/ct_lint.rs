//! Static constant-time verification runner.
//!
//! Runs the three lexical passes over every `.rs` file under the
//! workspace root — the `ct: secret` region lint, the interprocedural
//! taint pass (type-seeded, call-graph propagated) and the
//! unsafe/determinism audits — merges their findings (deduplicated by
//! fingerprint), prints them as `file:line: [rule] message`, optionally
//! writes a JSON report, and compares against the checked-in baseline
//! (`ct-baseline.jsonl` at the root).
//!
//! ```text
//! ct_lint [--root DIR] [--json FILE] [--baseline FILE] [--update-baseline]
//! ```
//!
//! `--update-baseline` prints the added/removed fingerprints (with
//! their locations) before rewriting, so a baseline refresh is a
//! reviewable diff rather than a silent reset.
//!
//! Exit status: 0 when every violation is baselined and every baseline
//! entry still matches one, 1 on a new violation or a stale entry, 2 on
//! usage or I/O errors.

use falcon_ct::gate::{Args, Gate};
use falcon_ct::report::lint_report;
use falcon_ct::CallAllowlist;
use std::process::ExitCode;

const USAGE: &str =
    "usage: ct_lint [--root DIR] [--json FILE] [--baseline FILE] [--update-baseline]";

fn main() -> ExitCode {
    let parsed =
        Args::parse(std::env::args().skip(1), USAGE, Some("ct-baseline.jsonl"), |_, _| Ok(false));
    let args = match parsed {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let _span = falcon_obs::span("ct.lint");

    let allow = CallAllowlist::workspace_default();
    let mut outcome = match falcon_ct::lint_tree(&args.root, &allow) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ct_lint: scanning {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    // Interprocedural taint pass over the same tree.
    let graph = match falcon_ct::CallGraph::build(&args.root) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("ct_lint: building call graph under {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    let taint = falcon_ct::TaintMap::compute(&graph);
    outcome.violations.extend(falcon_ct::summary::taint_violations(&graph, &taint, &allow));

    // Unsafe-audit and determinism passes.
    match falcon_ct::audit::audit_tree(&args.root) {
        Ok(v) => outcome.violations.extend(v),
        Err(e) => {
            eprintln!("ct_lint: auditing {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    }

    // Merge: sort and deduplicate by fingerprint (a region finding and
    // an interprocedural finding at the same statement hash alike).
    outcome.violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    outcome.violations.dedup_by(|a, b| a.fingerprint() == b.fingerprint());

    falcon_obs::counter("ct.lint.files").add(outcome.files as u64);
    falcon_obs::counter("ct.lint.violations").add(outcome.violations.len() as u64);

    let gate =
        match Gate::check("ct_lint", &args.baseline, &outcome.violations, args.update_baseline) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("ct_lint: {e}");
                return ExitCode::from(2);
            }
        };
    for v in &outcome.violations {
        println!("{v}{}", if gate.baseline.contains(v) { " [baselined]" } else { "" });
    }

    if let Some(json_path) = &args.json {
        let doc = lint_report(&outcome, &gate.baseline).render();
        if let Err(e) = std::fs::write(json_path, doc) {
            eprintln!("ct_lint: writing {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }

    println!(
        "ct_lint: {} file(s), {} line(s), {} secret region(s): {} violation(s) ({} new, {} baselined)",
        outcome.files,
        outcome.lines,
        outcome.regions,
        outcome.violations.len(),
        gate.new,
        outcome.violations.len() - gate.new,
    );
    if gate.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
