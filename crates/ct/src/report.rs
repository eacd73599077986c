//! Machine-readable JSON reports for the `ct_lint` and `ct_dyn`
//! binaries, rendered with `falcon-bench`'s [`Json`] writer so the
//! on-disk shape matches the other BENCH_/report artifacts.
//!
//! Reports are deterministic: fields are insertion-ordered, violations
//! arrive pre-sorted from the lint, and no timestamps or absolute paths
//! are embedded — two runs over the same tree render byte-identical
//! documents (asserted by the crate's tests and diffable in CI).

use crate::baseline::Baseline;
use crate::dyncheck::{DynConfig, Outcome, PRIMITIVE_FNS};
use crate::graph::CallGraph;
use crate::lint::{TreeOutcome, Violation};
use crate::sites::{covers_primitive, LeakSite, SiteMap};
use crate::summary::TaintMap;
use falcon_bench::json::Json;
use std::collections::BTreeMap;

/// Builds the `ct_lint` report document.
///
/// `new` are violations absent from the baseline (CI-failing);
/// `baselined` are grandfathered ones. Since v2 the outcome merges
/// three passes — the region lint, the interprocedural taint pass and
/// the unsafe/determinism audits — so `by_rule` breaks the totals down
/// per rule id.
pub fn lint_report(outcome: &TreeOutcome, baseline: &Baseline) -> Json {
    let (mut new_v, mut old_v): (Vec<&Violation>, Vec<&Violation>) = (Vec::new(), Vec::new());
    for v in &outcome.violations {
        if baseline.contains(v) {
            old_v.push(v);
        } else {
            new_v.push(v);
        }
    }
    let stale = baseline.stale(&outcome.violations);
    let mut by_rule: BTreeMap<&'static str, usize> = BTreeMap::new();
    for v in &outcome.violations {
        *by_rule.entry(v.rule.id()).or_default() += 1;
    }
    let mut rule_obj = Json::obj();
    for (id, n) in by_rule {
        rule_obj = rule_obj.field(id, n);
    }
    Json::obj()
        .field("tool", "ct_lint")
        .field(
            "passes",
            Json::Arr(
                ["regions", "interprocedural", "unsafe-audit", "determinism"]
                    .iter()
                    .map(|s| Json::Str(s.to_string()))
                    .collect(),
            ),
        )
        .field("files", outcome.files)
        .field("lines", outcome.lines)
        .field("regions", outcome.regions)
        .field("total_violations", outcome.violations.len())
        .field("new_violations", new_v.len())
        .field("baselined_violations", old_v.len())
        .field("by_rule", rule_obj)
        .field("stale_baseline_entries", Json::Arr(stale.into_iter().map(Json::Str).collect()))
        .field(
            "violations",
            Json::Arr(outcome.violations.iter().map(|v| violation_json(v, baseline)).collect()),
        )
}

/// Builds the `ct_graph` report document: call-graph shape plus the
/// taint summary of every secret-handling function. The
/// `tainted_outside_regions` list is the pass's headline — functions
/// the annotation discipline alone would never have checked.
pub fn graph_report(g: &CallGraph, map: &TaintMap) -> Json {
    let tainted: Vec<usize> =
        (0..g.fns.len()).filter(|&i| !g.fns[i].is_test && map.summaries[i].is_tainted()).collect();
    let outside: Vec<&str> = map.tainted_outside_regions(g);
    let summaries: Vec<Json> = tainted
        .iter()
        .map(|&i| {
            let f = &g.fns[i];
            let s = &map.summaries[i];
            Json::obj()
                .field("qual", f.qual.as_str())
                .field("file", f.file.as_str())
                .field("line", f.line)
                .field("module", f.module.as_str())
                .field(
                    "tainted_params",
                    Json::Arr(s.tainted_params.iter().map(|p| Json::Str(p.clone())).collect()),
                )
                .field("returns_secret", s.returns_secret)
                .field("has_region", f.has_region)
                .field("cause", s.cause.as_str())
        })
        .collect();
    let edges = g.edge_stats();
    Json::obj()
        .field("tool", "ct_graph")
        .field("functions", g.fns.len())
        .field("call_sites", g.calls.len())
        .field("resolved_edges", edges.resolved)
        .field("dropped_edges", edges.dropped())
        .field(
            "dropped_edge_breakdown",
            Json::obj()
                .field("ambiguous_homonym", edges.ambiguous)
                .field("unresolved", edges.unresolved),
        )
        .field("structs", g.structs.len())
        .field("fixpoint_rounds", map.rounds)
        .field("tainted_functions", tainted.len())
        .field("tainted_outside_regions", outside.len())
        .field(
            "tainted_outside_region_names",
            Json::Arr(outside.iter().map(|s| Json::Str(s.to_string())).collect()),
        )
        .field("summaries", Json::Arr(summaries))
}

/// Builds the `ct_sites` report document: the ranked leakage-site map
/// plus the dynamic-checker coverage cross-check. `baseline` marks
/// which sites are already reviewed (the `new_sites` count is the
/// CI-failing number).
pub fn sites_report(g: &CallGraph, map: &TaintMap, sites: &SiteMap, baseline: &Baseline) -> Json {
    let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
    for s in &sites.sites {
        *by_kind.entry(s.kind.id()).or_default() += 1;
    }
    let mut kind_obj = Json::obj();
    for (id, n) in by_kind {
        kind_obj = kind_obj.field(id, n);
    }
    let new_sites = sites.sites.iter().filter(|s| !baseline.contains(*s)).count();
    let coverage: Vec<Json> = PRIMITIVE_FNS
        .iter()
        .map(|(name, fns)| {
            Json::obj().field("primitive", *name).field("covered", covers_primitive(g, map, fns))
        })
        .collect();
    let covered = PRIMITIVE_FNS.iter().filter(|(_, fns)| covers_primitive(g, map, fns)).count();
    Json::obj()
        .field("tool", "ct_sites")
        .field("functions_scanned", sites.scanned.len())
        .field("total_sites", sites.sites.len())
        .field("new_sites", new_sites)
        .field("by_kind", kind_obj)
        .field("dyn_primitives", PRIMITIVE_FNS.len())
        .field("dyn_primitives_covered", covered)
        .field("dyn_coverage", Json::Arr(coverage))
        .field(
            "sites",
            Json::Arr(
                sites
                    .sites
                    .iter()
                    .enumerate()
                    .map(|(rank, s)| site_json(rank + 1, s, baseline))
                    .collect(),
            ),
        )
}

fn site_json(rank: usize, s: &LeakSite, baseline: &Baseline) -> Json {
    Json::obj()
        .field("rank", rank)
        .field("file", s.file.as_str())
        .field("line", s.line)
        .field("fn", s.qual.as_str())
        .field("kind", s.kind.id())
        .field("class", s.class.id())
        .field("width_bits", s.width)
        .field("step", s.step.map(|st| format!("{st:?}")).unwrap_or_default())
        .field("reach", s.reach)
        .field("score", s.score)
        .field("annotated", s.annotated)
        .field("message", s.message.as_str())
        .field("snippet", s.snippet.as_str())
        .field("fp", s.fingerprint())
        .field("baselined", baseline.contains(s))
}

fn violation_json(v: &Violation, baseline: &Baseline) -> Json {
    Json::obj()
        .field("file", v.file.as_str())
        .field("line", v.line)
        .field("rule", v.rule.id())
        .field("message", v.message.as_str())
        .field("snippet", v.snippet.as_str())
        .field("fp", v.fingerprint())
        .field("baselined", baseline.contains(v))
}

/// Builds the `ct_dyn` report document. `leaky` is the detector-fixture
/// outcome, which must have diverged for the harness to be trusted.
pub fn dyn_report(cfg: &DynConfig, primitives: &[Outcome], leaky: &Outcome) -> Json {
    let failures = primitives.iter().filter(|o| !o.constant_time).count();
    Json::obj()
        .field("tool", "ct_dyn")
        .field("iters", cfg.iters)
        .field("seed", cfg.seed)
        .field("failures", failures)
        .field("leak_detector_ok", !leaky.constant_time)
        .field("primitives", Json::Arr(primitives.iter().map(outcome_json).collect()))
        .field("leaky_fixture", outcome_json(leaky))
}

fn outcome_json(o: &Outcome) -> Json {
    Json::obj()
        .field("name", o.name)
        .field("runs", o.runs)
        .field("signature_sites", o.sig_len)
        .field("constant_time", o.constant_time)
        .field("detail", o.detail.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::CallAllowlist;

    #[test]
    fn lint_report_is_deterministic() {
        let src = "// ct: secret(x)\nif x { y(); }\n// ct: end\n";
        let allow = CallAllowlist::workspace_default();
        let mk = || {
            let fo = crate::lint::lint_source(&crate::SourceFile::new("f.rs", src), &allow);
            let out = TreeOutcome {
                violations: fo.violations,
                files: 1,
                regions: fo.regions,
                lines: fo.lines,
            };
            lint_report(&out, &Baseline::default()).render()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn dyn_report_is_deterministic() {
        let cfg = DynConfig { iters: 8, seed: 7 };
        let mk = || {
            let prims = crate::dyncheck::check_all(&cfg);
            let leaky = crate::dyncheck::check_leaky(&cfg);
            dyn_report(&cfg, &prims, &leaky).render()
        };
        assert_eq!(mk(), mk());
    }
}
