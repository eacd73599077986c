//! Lints the actual workspace tree: `cargo test` enforces the same
//! zero-new-violations contract as the CI `ct-verify` job, so a
//! secret-dependent branch cannot land even without the binary running.
//!
//! This covers all three static passes — the `ct: secret` region lint,
//! the interprocedural taint pass and the unsafe/determinism audits —
//! through `lint_tree`, the merge the `ct_lint` binary runs.

use falcon_ct::{lint_tree, Baseline, CallAllowlist, CallGraph, Rule, TaintMap, TreeOutcome};
use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/ct/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

fn lint_workspace() -> TreeOutcome {
    lint_tree(workspace_root(), &CallAllowlist::workspace_default()).expect("scan workspace")
}

#[test]
fn workspace_has_no_new_violations() {
    let root = workspace_root();
    let outcome = lint_workspace();
    assert!(outcome.files > 50, "suspiciously few files scanned: {}", outcome.files);
    assert!(
        outcome.regions >= 15,
        "expected the fpr/falcon secret regions to be annotated, found {}",
        outcome.regions
    );
    let baseline = Baseline::load(&root.join("ct-baseline.jsonl")).expect("baseline parses");
    let new: Vec<String> = outcome
        .violations
        .iter()
        .filter(|v| !baseline.contains(v))
        .map(|v| v.to_string())
        .collect();
    assert!(new.is_empty(), "new constant-time violations:\n{}", new.join("\n"));
}

#[test]
fn baseline_is_nonempty_and_exactly_current() {
    // Every baselined fingerprint must still correspond to a live
    // violation (no stale entries), and every live violation must be
    // either baselined or absent — `--update-baseline` keeps the two
    // sides in lockstep. The baseline is deliberately non-empty: the
    // reference signing path reproduces the *leaky* implementation the
    // paper attacks, and its variable-time behaviour is documented
    // here rather than "fixed" away.
    let root = workspace_root();
    let baseline = Baseline::load(&root.join("ct-baseline.jsonl")).expect("parses");
    assert!(
        !baseline.is_empty(),
        "ct-baseline.jsonl is empty; the interprocedural pass should have documented the \
         reference implementation's variable-time surface"
    );
    let stale = baseline.stale(&lint_workspace().violations);
    assert!(stale.is_empty(), "stale baseline entries (prune with --update-baseline): {stale:?}");
}

#[test]
fn interprocedural_pass_discovers_functions_outside_regions() {
    // The acceptance bar for the taint pass: it must keep *finding*
    // secret-handling functions the annotation discipline never marked,
    // not merely restate the 21 annotated regions.
    let root = workspace_root();
    let graph = CallGraph::build(root).expect("build call graph");
    let taint = TaintMap::compute(&graph);
    let outside = taint.tainted_outside_regions(&graph);
    assert!(
        outside.len() >= 10,
        "only {} tainted function(s) outside annotated regions: {outside:?}",
        outside.len()
    );
}

#[test]
fn workspace_has_no_unsafe_and_no_determinism_findings() {
    // The unsafe gate is enforced at zero: the workspace is
    // forbid(unsafe_code) today, and when the SIMD kernels land their
    // `unsafe` must sit in the allowlisted modules with `// SAFETY:`
    // comments — anything else fails here, unbaselined. Determinism
    // and atomics-ordering findings must likewise all be fixed or carry
    // `// ct: allow`.
    let noisy: Vec<String> = lint_workspace()
        .violations
        .iter()
        .filter(|v| {
            matches!(
                v.rule,
                Rule::UnsafeAudit
                    | Rule::AtomicsOrder
                    | Rule::DetMapIter
                    | Rule::DetWallClock
                    | Rule::DetEnvRead
                    | Rule::DetThreadId
                    | Rule::DetFloatFold
            )
        })
        .map(|v| v.to_string())
        .collect();
    assert!(noisy.is_empty(), "unsafe/determinism findings:\n{}", noisy.join("\n"));
}
