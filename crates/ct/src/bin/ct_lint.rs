//! Static constant-time verification runner.
//!
//! Runs the three lexical passes over every `.rs` file under the
//! workspace root through [`falcon_ct::lint_tree`] — the `ct: secret`
//! region lint, the interprocedural taint pass (type-seeded, call-graph
//! propagated) and the unsafe/determinism audits, merged and
//! deduplicated by fingerprint — prints the findings as
//! `file:line: [rule] message`, optionally
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

    let outcome = match falcon_ct::lint_tree(&args.root, &CallAllowlist::workspace_default()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ct_lint: scanning {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
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
