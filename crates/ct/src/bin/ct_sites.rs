//! Ranked leakage-site map runner.
//!
//! Builds the workspace call graph, computes flow/field-sensitive taint
//! summaries, and enumerates every secret-dependent operation as a
//! scored [`falcon_ct::LeakSite`] — the static prediction of where an
//! attacker will point the probe. Prints the ranked map, optionally
//! writes `CT_sites.json`, and compares against the checked-in site
//! baseline (`ct-sites-baseline.jsonl` at the root).
//!
//! ```text
//! ct_sites [--root DIR] [--json FILE] [--baseline FILE]
//!          [--update-baseline] [--assert-top KIND] [--top N]
//! ```
//!
//! `--assert-top mantissa-mul` fails (exit 1) unless the #1-ranked site
//! is of that kind — CI pins the paper's attack point (the secret
//! mantissa multiply in the emulated `fpr` pipeline) to the top of the
//! ranking. `--assert-coverage` fails unless every `ct_dyn` primitive
//! is covered by the static map.
//!
//! Exit status: 0 on success, 1 on a new site, a stale baseline entry or
//! a failed assertion, 2 on usage or I/O errors.

use falcon_ct::gate::{Args, Gate};
use falcon_ct::report::sites_report;
use falcon_ct::sites::covers_primitive;
use falcon_ct::SiteMap;
use std::process::ExitCode;

const USAGE: &str = "usage: ct_sites [--root DIR] [--json FILE] [--baseline FILE] \
                     [--update-baseline] [--assert-top KIND] [--assert-coverage] [--top N]";

fn main() -> ExitCode {
    let (mut assert_top, mut assert_coverage, mut top) = (None, false, 20usize);
    let parsed = Args::parse(
        std::env::args().skip(1),
        USAGE,
        Some("ct-sites-baseline.jsonl"),
        |flag, it| {
            match flag {
                "--assert-top" => {
                    assert_top = Some(it.next().ok_or("--assert-top needs a site kind")?)
                }
                "--assert-coverage" => assert_coverage = true,
                "--top" => {
                    top = it
                        .next()
                        .ok_or("--top needs a value")?
                        .parse()
                        .map_err(|e| format!("--top: {e}"))?
                }
                _ => return Ok(false),
            }
            Ok(true)
        },
    );
    let args = match parsed {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let _span = falcon_obs::span("ct.sites");

    let graph = match falcon_ct::CallGraph::build(&args.root) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("ct_sites: building call graph under {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    let taint = falcon_ct::TaintMap::compute(&graph);
    let map = SiteMap::compute(&graph, &taint);

    falcon_obs::counter("ct.sites.total").add(map.sites.len() as u64);

    let gate = match Gate::check("ct_sites", &args.baseline, &map.sites, args.update_baseline) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("ct_sites: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failed = false;
    for (rank, s) in map.sites.iter().enumerate() {
        let known = gate.baseline.contains(s);
        if rank < top || !known {
            println!("#{:<3} {s}{}", rank + 1, if known { "" } else { " [NEW]" });
        }
    }
    if map.sites.len() > top {
        println!("… ({} more; --top N to widen)", map.sites.len() - top);
    }

    if let Some(kind) = &assert_top {
        match map.top() {
            Some(top) if top.kind.id() == kind => {
                println!("ct_sites: top-ranked site is [{kind}] at {}:{} — OK", top.file, top.line)
            }
            Some(top) => {
                eprintln!(
                    "ct_sites: ASSERTION FAILED: top-ranked site is [{}] at {}:{}, expected [{kind}]",
                    top.kind, top.file, top.line
                );
                failed = true;
            }
            None => {
                eprintln!("ct_sites: ASSERTION FAILED: no sites found, expected a [{kind}] on top");
                failed = true;
            }
        }
    }
    if assert_coverage {
        for (name, fns) in falcon_ct::dyncheck::PRIMITIVE_FNS {
            if !covers_primitive(&graph, &taint, fns) {
                eprintln!("ct_sites: ASSERTION FAILED: dynamic primitive `{name}` not covered by the static map");
                failed = true;
            }
        }
        if !failed {
            println!(
                "ct_sites: all {} ct_dyn primitives covered by the static map — OK",
                falcon_ct::dyncheck::PRIMITIVE_FNS.len()
            );
        }
    }

    if let Some(json_path) = &args.json {
        let doc = sites_report(&graph, &taint, &map, &gate.baseline).render();
        if let Err(e) = std::fs::write(json_path, doc) {
            eprintln!("ct_sites: writing {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }

    println!(
        "ct_sites: {} function(s) scanned, {} site(s) ({} new, {} baselined)",
        map.scanned.len(),
        map.sites.len(),
        gate.new,
        map.sites.len() - gate.new,
    );
    if gate.passed() && !failed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
