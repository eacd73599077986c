//! The function-body replay shared by the interprocedural passes: one
//! source, run through taint propagation, the interprocedural rule
//! checks and the leakage-site map, must see the same directives and
//! the same skipped statements in all three.
//!
//! Pinned here, because no region-lint fixture covers them:
//!
//! * a standalone `ct: allow` covers the next statement with code, and
//!   only that one; a trailing `ct: allow` covers its own statement;
//! * `ct: end` inside a body closes the region but leaves the names it
//!   seeded tainted;
//! * attribute and `debug_assert!` statements are skipped: they are
//!   not checked, taint no callee and move no taint, because release
//!   builds do not run them;
//! * the braces of an attribute statement still count towards the
//!   body's extent, so a block opened on its attribute's line does not
//!   end the body early.

use falcon_ct::summary::taint_violations;
use falcon_ct::{CallAllowlist, CallGraph, LeakSite, Rule, SiteKind, SiteMap, TaintMap, Violation};

const SRC: &str = r#"
pub struct SigningKey { f: Vec<u64> }

fn only_in_debug(v: u64) -> bool {
    v > 0
}

pub fn replayed(sk: &SigningKey, i: usize) -> u64 {
    // ct: allow(standalone: covers the next statement with code)

    let a = sk.f[0] / 3;
    let b = sk.f[1] / 5;
    let c = sk.f[2] / 7; // ct: allow(trailing: covers its own statement)
    let x = i + 1;
    // ct: secret(x)
    let y = x / 11;
    // ct: end
    let z = x / 13;
    #[allow(unused_assignments)]
    let mut seen = 0u64;
    debug_assert!(sk.f[3] > 0 && only_in_debug(sk.f[3]));
    debug_assert!({ seen = sk.f[4]; true });
    if seen > 17 {
        return a;
    }
    a + b + c + y + z
}
"#;

fn run() -> (CallGraph, TaintMap, Vec<Violation>, SiteMap) {
    let g = CallGraph::from_sources(&[("crates/x/src/replay.rs", SRC)]);
    let m = TaintMap::compute(&g);
    let v = taint_violations(&g, &m, &CallAllowlist::workspace_default());
    let s = SiteMap::compute(&g, &m);
    (g, m, v, s)
}

/// Violations whose snippet contains `needle`.
fn violations_at<'a>(v: &'a [Violation], needle: &str) -> Vec<&'a Violation> {
    v.iter().filter(|x| x.snippet.contains(needle)).collect()
}

/// Sites whose snippet contains `needle`.
fn sites_at<'a>(s: &'a SiteMap, needle: &str) -> Vec<&'a LeakSite> {
    s.sites.iter().filter(|x| x.snippet.contains(needle)).collect()
}

#[test]
fn standalone_allow_covers_only_the_next_code_statement() {
    let (_, _, v, s) = run();
    assert!(violations_at(&v, "/ 3").is_empty(), "{v:#?}");
    assert!(sites_at(&s, "/ 3").iter().all(|x| x.annotated), "{s:#?}");
    assert!(!sites_at(&s, "/ 3").is_empty(), "{s:#?}");
    // The statement after it is checked again.
    assert!(violations_at(&v, "/ 5").iter().any(|x| x.rule == Rule::SecretDivMod), "{v:#?}");
    assert!(sites_at(&s, "/ 5").iter().all(|x| !x.annotated), "{s:#?}");
}

#[test]
fn trailing_allow_covers_its_own_statement() {
    let (_, _, v, s) = run();
    assert!(violations_at(&v, "/ 7").is_empty(), "{v:#?}");
    let at = sites_at(&s, "/ 7");
    assert!(!at.is_empty() && at.iter().all(|x| x.annotated), "{s:#?}");
}

#[test]
fn ct_end_closes_the_region_but_keeps_its_taint() {
    let (_, _, v, s) = run();
    // Inside the region the region lint owns the statement; the site map
    // still records it, as annotated.
    assert!(violations_at(&v, "/ 11").is_empty(), "{v:#?}");
    let inside = sites_at(&s, "/ 11");
    assert!(!inside.is_empty() && inside.iter().all(|x| x.annotated), "{s:#?}");
    // After `ct: end`, `x` is still secret and no longer annotated.
    assert!(violations_at(&v, "/ 13").iter().any(|x| x.rule == Rule::SecretDivMod), "{v:#?}");
    let after = sites_at(&s, "/ 13");
    assert!(!after.is_empty() && after.iter().all(|x| !x.annotated), "{s:#?}");
}

#[test]
fn attribute_and_debug_assert_statements_are_skipped() {
    let (g, m, v, s) = run();
    for needle in ["debug_assert", "#[allow"] {
        assert!(violations_at(&v, needle).is_empty(), "{v:#?}");
        assert!(sites_at(&s, needle).is_empty(), "{s:#?}");
    }
    // No taint crosses into a callee only a `debug_assert!` calls…
    let callee = g.fns.iter().position(|f| f.qual == "only_in_debug").unwrap();
    assert!(!m.summaries[callee].is_tainted(), "{:?}", m.summaries[callee]);
    // …and an assignment inside one taints nothing after it.
    assert!(violations_at(&v, "seen > 17").is_empty(), "{v:#?}");
}

/// A body whose attributed block opens on the attribute's line.
const ATTRIBUTED_BLOCK: &str = r#"
pub struct SigningKey { f: Vec<u64> }

pub fn after_block(sk: &SigningKey) -> u64 {
    #[cfg(debug_assertions)] {
        let probe = sk.f.len();
    }
    if sk.f[0] > 9 {
        return 1;
    }
    0
}
"#;

#[test]
fn statements_after_an_attributed_block_are_replayed() {
    let g = CallGraph::from_sources(&[("crates/x/src/attributed.rs", ATTRIBUTED_BLOCK)]);
    let m = TaintMap::compute(&g);
    let v = taint_violations(&g, &m, &CallAllowlist::workspace_default());
    let branch = violations_at(&v, "if sk.f[0] > 9");
    assert!(branch.iter().any(|x| x.rule == Rule::SecretBranch), "{v:#?}");
    let s = SiteMap::compute(&g, &m);
    assert!(sites_at(&s, "if sk.f[0] > 9").iter().any(|x| x.kind == SiteKind::Branch), "{s:#?}");
}
