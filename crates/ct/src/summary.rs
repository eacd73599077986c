//! Per-function taint summaries and interprocedural propagation.
//!
//! Taint enters the system three ways:
//!
//! * **Type seeds** — a parameter or return type mentioning one of
//!   [`crate::rules::SECRET_SEED_TYPES`] (`Secret<T>`, the private-key
//!   types, the LDL tree the sampler walks) marks that parameter or the
//!   return value secret, no annotation needed. Seeding is
//!   **field-sensitive** for structs that opt in with a
//!   `// ct: public(field, …)` annotation on their definition (see
//!   [`crate::fields`]): the parameter root still taints, but the
//!   declared public projections (`sk.logn`, and the same-named
//!   accessors) are recorded as exclusions, so reading a public field
//!   of a secret struct no longer drags whole call chains into the
//!   taint set. Unannotated structs keep whole-value seeding.
//! * **Region annotations** — inside a `// ct: secret(a, b)` region the
//!   named identifiers are secret; when they coincide with parameter
//!   names the parameter is marked in the summary, so *callers* of an
//!   annotated function learn about its appetite for secrets.
//! * **Propagation** — a tainted identifier in a call's argument list
//!   taints the positionally matching callee parameter (all of them on
//!   arity mismatch); a tainted method receiver taints the callee's
//!   `self`; a free or `Type::`-qualified call to a `returns_secret`
//!   function taints the binding it is assigned to; a `return` (or
//!   trailing expression) mentioning local taint sets `returns_secret`
//!   on the enclosing function. Calls cross the graph only when
//!   resolution is unambiguous — see `calls_in` for the policy.
//!
//! Summaries are computed to a fixpoint, then a reporting pass replays
//! each tainted function's body with the *same* rule checks the region
//! lint uses (`secret-branch`, `secret-index`, `secret-divmod`,
//! `secret-call`) — statements inside explicit `ct: secret` regions are
//! skipped there, because [`crate::lint::lint_source`] already checks
//! them and double-reporting would double the baseline. Propagation,
//! the reporting pass and the site map ([`crate::sites`]) all walk a
//! body through one replay, `replay_body`, so a directive or a taint
//! rule changes in one place.

use crate::graph::{call_tokens, CallForm, CallGraph};
use crate::lint::{self, Violation};
use crate::rules::{CallAllowlist, SECRET_SEED_TYPES};
use crate::scan::{idents, Directive, Stmt, Tok};
use std::collections::BTreeSet;

/// Taint summary of one function (parallel to [`CallGraph::fns`]).
#[derive(Debug, Clone, Default)]
pub struct TaintSummary {
    /// Names of parameters considered secret-bearing.
    pub tainted_params: BTreeSet<String>,
    /// Dotted projections of tainted parameters that are declared
    /// public (`"sk.logn"`) — excluded when replaying the body.
    pub public_paths: BTreeSet<String>,
    /// Whether the return value carries secrets.
    pub returns_secret: bool,
    /// Why the function first became tainted (seed type, region, or the
    /// qualified name of the caller/callee that propagated into it).
    pub cause: String,
}

impl TaintSummary {
    /// Whether the function handles secrets at all.
    pub fn is_tainted(&self) -> bool {
        !self.tainted_params.is_empty() || self.returns_secret
    }

    /// The taint a replay of the function's body starts from: the
    /// tainted parameters, minus their declared public projections.
    pub(crate) fn taint(&self) -> lint::Taint {
        let mut t = lint::Taint::new();
        for p in &self.tainted_params {
            t.seed(p);
        }
        for p in &self.public_paths {
            t.seed_public(p);
        }
        t
    }
}

/// Summaries for a whole call graph.
#[derive(Debug)]
pub struct TaintMap {
    /// One summary per [`CallGraph::fns`] entry.
    pub summaries: Vec<TaintSummary>,
    /// Fixpoint iterations used (diagnostic; bounded by
    /// [`TaintMap::MAX_ROUNDS`]).
    pub rounds: usize,
}

/// Whether a scrubbed type text mentions a seed type as a whole token.
fn mentions_seed(ty: &str) -> bool {
    idents(ty).iter().any(|t| SECRET_SEED_TYPES.contains(&t.text.as_str()))
}

impl TaintMap {
    /// Fixpoint iteration bound; the call graph is shallow (longest
    /// realistic chain: sign → ffsampling → sampler → fpr ≈ 6 edges),
    /// so hitting this indicates a cycle that has already saturated.
    pub const MAX_ROUNDS: usize = 32;

    /// Computes summaries for `g` to a fixpoint.
    pub fn compute(g: &CallGraph) -> TaintMap {
        let mut sums: Vec<TaintSummary> = vec![TaintSummary::default(); g.fns.len()];

        // -- seeding ----------------------------------------------------
        for (i, f) in g.fns.iter().enumerate() {
            for p in &f.params {
                if mentions_seed(&p.ty) {
                    sums[i].tainted_params.insert(p.name.clone());
                    if sums[i].cause.is_empty() {
                        sums[i].cause = format!("param `{}: {}` is a seed type", p.name, p.ty);
                    }
                }
                // Field-sensitive exclusions: a struct with a
                // `ct: public(...)` annotation donates its public
                // projections for every parameter of that type.
                if let Some(info) = g.structs.sensitive_in_type(&p.ty) {
                    for field in &info.public_fields {
                        sums[i].public_paths.insert(format!("{}.{field}", p.name));
                    }
                }
            }
            if mentions_seed(&f.ret) {
                sums[i].returns_secret = true;
                if sums[i].cause.is_empty() {
                    sums[i].cause = format!("returns seed type `{}`", f.ret);
                }
            }
            // Region-declared secrets that name parameters.
            if f.has_region {
                let param_names: BTreeSet<&str> =
                    f.params.iter().map(|p| p.name.as_str()).collect();
                for &si in &g.body_stmts[i].1 {
                    let stmt = &g.files[g.body_stmts[i].0].stmts[si];
                    for (_, d) in &stmt.directives {
                        if let Directive::Secret(vars) = d {
                            for v in vars {
                                if param_names.contains(v.as_str())
                                    && sums[i].tainted_params.insert(v.clone())
                                    && sums[i].cause.is_empty()
                                {
                                    sums[i].cause =
                                        format!("`ct: secret({v})` region names a parameter");
                                }
                            }
                        }
                    }
                }
            }
        }

        // -- fixpoint ---------------------------------------------------
        let mut rounds = 0;
        for _ in 0..Self::MAX_ROUNDS {
            rounds += 1;
            let mut changed = false;
            for i in 0..g.fns.len() {
                if g.fns[i].is_test {
                    continue;
                }
                changed |= propagate_one(g, i, &mut sums);
            }
            if !changed {
                break;
            }
        }
        TaintMap { summaries: sums, rounds }
    }

    /// Qualified names of tainted non-test functions that have no
    /// `ct: secret` region of their own — the functions the annotation
    /// discipline alone would have missed.
    pub fn tainted_outside_regions<'g>(&self, g: &'g CallGraph) -> Vec<&'g str> {
        g.fns
            .iter()
            .enumerate()
            .filter(|(i, f)| !f.is_test && !f.has_region && self.summaries[*i].is_tainted())
            .map(|(_, f)| f.qual.as_str())
            .collect()
    }
}

/// When a [`replay_body`] visitor sees a statement, relative to the
/// statement's own [`lint::Taint::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Ahead of it: the taint the statement reads (rule checks,
    /// call-return seeds).
    Before,
    /// Behind it: the taint the statement leaves (call arguments,
    /// return values).
    After,
}

/// One code statement of a function body, as [`replay_body`] hands it
/// to its visitor.
pub(crate) struct BodyStmt<'a> {
    /// Position in the body's statement list (blank statements count).
    pub pos: usize,
    /// The statement (line number and raw snippet).
    pub stmt: &'a Stmt,
    /// Its trimmed, scrubbed code; never empty.
    pub code: &'a str,
    /// Identifier tokens of `code`.
    pub toks: Vec<Tok>,
    /// Inside a `ct: secret` … `ct: end` region of the body.
    pub in_region: bool,
    /// Under a `ct: allow`: trailing it, or on the line before it.
    pub allowed: bool,
}

/// Replays fn `i`'s body one statement at a time: the body walk every
/// interprocedural pass (propagation, [`taint_violations`],
/// [`crate::sites::SiteMap::compute`]) shares.
///
/// The taint starts as `seed` (see [`TaintSummary::taint`]). A
/// statement's directives apply first: `ct: secret(…)` seeds names and
/// opens a region, `ct: public(…)` declares projections public,
/// `ct: end` closes the region but leaves the taint live (the
/// parameters stay secret past it), and `ct: allow` covers its own
/// statement or, standing alone, the next statement with code.
/// Attribute and `debug_assert!` statements are then skipped: they
/// carry no release-build code, so they neither move the taint nor get
/// visited (the call graph skips attributes the same way). Every other
/// statement is visited in [`Phase::Before`], observed, and visited
/// again in [`Phase::After`].
pub(crate) fn replay_body(
    g: &CallGraph,
    i: usize,
    seed: lint::Taint,
    mut visit: impl FnMut(Phase, &BodyStmt<'_>, &mut lint::Taint),
) {
    let mut local = seed;
    let mut in_region = false;
    let mut pending_allow = false;
    let (file_idx, stmt_idxs) = (g.body_stmts[i].0, &g.body_stmts[i].1);
    for (pos, &si) in stmt_idxs.iter().enumerate() {
        let stmt = &g.files[file_idx].stmts[si];
        let code = stmt.code.trim();
        let mut allowed = false;
        for (_, d) in &stmt.directives {
            match d {
                Directive::Secret(vars) => {
                    in_region = true;
                    for v in vars {
                        local.seed(v);
                    }
                }
                Directive::Public(paths) => {
                    for p in paths.iter().filter(|p| p.contains('.')) {
                        local.seed_public(p);
                    }
                }
                Directive::End => in_region = false,
                Directive::Allow(_) if code.is_empty() => pending_allow = true,
                Directive::Allow(_) => allowed = true,
                Directive::Bad(_) => {} // the region lint reports these
            }
        }
        if code.is_empty() {
            continue;
        }
        allowed |= std::mem::take(&mut pending_allow);
        let toks = idents(code);
        if lint::is_attribute(code) || lint::is_debug_assert(code, &toks) {
            continue;
        }
        let s = BodyStmt { pos, stmt, code, toks, in_region, allowed };
        visit(Phase::Before, &s, &mut local);
        local.observe(code, &s.toks);
        visit(Phase::After, &s, &mut local);
    }
}

/// One propagation round over fn `i`'s body. Returns whether any
/// summary (its own or a callee's) changed.
fn propagate_one(g: &CallGraph, i: usize, sums: &mut [TaintSummary]) -> bool {
    if !sums[i].is_tainted() && !g.fns[i].has_region {
        return false;
    }
    // The function's trailing expression is the last statement that is
    // not a bare closing brace (the `}` that ends the body is itself a
    // statement).
    let (file_idx, stmt_idxs) = (g.body_stmts[i].0, &g.body_stmts[i].1);
    let last_expr =
        stmt_idxs.iter().rposition(|&si| g.files[file_idx].stmts[si].code.trim() != "}");
    let mut changed = false;
    let mut sites = Vec::new();
    replay_body(g, i, sums[i].taint(), |phase, s, local| {
        let (code, toks) = (s.code, &s.toks);
        let chars: Vec<char> = code.chars().collect();
        if phase == Phase::Before {
            sites = calls_in(code, toks, g);
            // Callee-return taint: a binding whose right side calls a
            // returns_secret function taints its left side. Method-syntax
            // sites are excluded — their real flows (`let c = sk.coeff(0)`)
            // already taint the binding because the receiver is mentioned
            // on the right-hand side, and a bare-name method binding would
            // otherwise poison every `.len()`-shaped call in the tree.
            if let Some(eq) = lint::binding_eq(&chars) {
                let rhs_secret_call = sites
                    .iter()
                    .filter(|s| s.tok_start > eq && s.form != CallForm::Method)
                    .any(|s| s.cands.iter().any(|&c| sums[c].returns_secret));
                if rhs_secret_call {
                    for t in toks {
                        if t.start < eq
                            && !lint::is_keyword(&t.text)
                            && !t.text.starts_with(char::is_uppercase)
                            && t.text != "_"
                        {
                            local.seed(&t.text);
                        }
                    }
                }
            }
            return;
        }

        // Call-argument taint: a tainted identifier inside a call's
        // argument list (matched to the callee parameter by position
        // when arities line up, all parameters otherwise) or a tainted
        // method-call receiver taints the corresponding callee params.
        for site in &sites {
            for &c in &site.cands {
                if g.fns[c].is_test {
                    continue;
                }
                let hit = tainted_callee_params(&chars, toks, site, local, &g.fns[c]);
                for p in hit {
                    if sums[c].tainted_params.insert(p) {
                        changed = true;
                        if sums[c].cause.is_empty() {
                            sums[c].cause = format!("receives secrets from `{}`", g.fns[i].qual);
                        }
                    }
                }
            }
        }

        // Return taint: `return expr` or the trailing expression of a
        // value-returning function mentioning local taint.
        let returnish = toks.first().map(|t| t.text == "return").unwrap_or(false)
            || (Some(s.pos) == last_expr && !g.fns[i].ret.is_empty() && !code.ends_with(';'));
        if returnish
            && !sums[i].returns_secret
            && !g.fns[i].ret.is_empty()
            && (0..toks.len()).any(|ti| local.occurrence_tainted(&chars, toks, ti))
        {
            sums[i].returns_secret = true;
            changed = true;
            if sums[i].cause.is_empty() {
                sums[i].cause = "returns a locally tainted value".to_string();
            }
        }
    });
    changed
}

/// A resolved call site inside one statement.
struct ResolvedCall {
    /// Char index of the callee name token.
    tok_start: usize,
    form: CallForm,
    /// Candidate callee indices, already narrowed by the propagation
    /// policy (see [`calls_in`]); empty sites are dropped.
    cands: Vec<usize>,
}

/// Call sites in a statement, resolved by [`CallGraph::resolve_call`]'s
/// policy:
///
/// * **Qualified** calls bind to the exact `Type::name` match only.
/// * **Free** and **method** calls bind only when the bare name is
///   *unique* in the workspace, and a method call only to a function
///   that takes `self` — an ambiguous homonym (`add` on both
///   `Fpr` and `Counter`, `record` on three observer types) is dropped
///   rather than over-connected, because binding a `.len()` on a `Vec`
///   to some workspace type's `len` would cascade taint through every
///   caller in the tree. The region annotations on the core arithmetic
///   cover the flows this deliberately forgoes; DESIGN.md records the
///   trade.
///
/// Self-calls are kept (recursion saturates harmlessly).
fn calls_in(code: &str, toks: &[Tok], g: &CallGraph) -> Vec<ResolvedCall> {
    let mut out = Vec::new();
    for (ti, form) in call_tokens(code, toks) {
        let t = &toks[ti];
        let cands = g.resolve_call(&t.text, &form);
        if !cands.is_empty() {
            out.push(ResolvedCall { tok_start: t.start, form, cands });
        }
    }
    out
}

/// Which of `callee`'s parameter names receive taint at `site`.
///
/// The argument span is split on top-level commas and matched to the
/// parameter list by position (skipping the `self` receiver for
/// `.method(…)` syntax); a tainted method receiver taints `self`. When
/// the arities do not line up (closures, macros between, re-exports the
/// graph cannot see), every parameter is tainted if *any* argument is —
/// conservative over-taint rather than a silent miss.
fn tainted_callee_params(
    chars: &[char],
    toks: &[Tok],
    site: &ResolvedCall,
    local: &lint::Taint,
    callee: &crate::graph::FnInfo,
) -> Vec<String> {
    let tok_start = site.tok_start;
    // Locate the opening paren after the name token.
    let name_end = toks.iter().find(|t| t.start == tok_start).map(|t| t.end).unwrap_or(tok_start);
    let mut open = name_end;
    while chars.get(open) == Some(&' ') {
        open += 1;
    }
    if chars.get(open) != Some(&'(') {
        return Vec::new();
    }
    let mut depth = 0usize;
    let mut close = chars.len();
    for (j, &c) in chars.iter().enumerate().skip(open) {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    close = j;
                    break;
                }
            }
            _ => {}
        }
    }

    // Top-level comma split of the argument span into char ranges.
    let mut arg_spans: Vec<(usize, usize)> = Vec::new();
    let mut lo = open + 1;
    let mut d = 0i32;
    for (j, &c) in chars.iter().enumerate().take(close).skip(open + 1) {
        match c {
            '(' | '[' => d += 1,
            ')' | ']' => d -= 1,
            ',' if d == 0 => {
                arg_spans.push((lo, j));
                lo = j + 1;
            }
            _ => {}
        }
    }
    if lo < close {
        arg_spans.push((lo, close));
    }
    let arg_tainted: Vec<bool> = arg_spans
        .iter()
        .map(|&(a, b)| {
            (0..toks.len()).any(|ti| {
                toks[ti].start >= a
                    && toks[ti].end <= b
                    && local.occurrence_tainted(chars, toks, ti)
            })
        })
        .collect();

    let method_syntax = site.form == CallForm::Method;
    let recv_tainted = method_syntax
        && (0..toks.len())
            .any(|ti| toks[ti].end < tok_start && local.occurrence_tainted(chars, toks, ti));

    let mut out = Vec::new();
    let params = &callee.params;
    let has_self = callee.takes_self();
    if recv_tainted && has_self {
        out.push("self".to_string());
    }
    let positional: &[crate::graph::Param] =
        if method_syntax && has_self { &params[1..] } else { params };
    if positional.len() == arg_tainted.len() {
        for (p, &t) in positional.iter().zip(&arg_tainted) {
            if t {
                out.push(p.name.clone());
            }
        }
    } else if arg_tainted.iter().any(|&t| t) || recv_tainted {
        // Arity mismatch: conservative.
        for p in params {
            if !out.contains(&p.name) {
                out.push(p.name.clone());
            }
        }
    }
    out
}

/// The interprocedural reporting pass: replays every tainted, non-test
/// function body through the region lint's rule checks, seeding taint
/// from the function's summary instead of an annotation. Statements
/// inside explicit `ct: secret` regions are skipped (the region lint
/// owns them); `// ct: allow(reason)` works exactly as in the lint.
pub fn taint_violations(g: &CallGraph, map: &TaintMap, allow: &CallAllowlist) -> Vec<Violation> {
    let mut out: Vec<Violation> = Vec::new();
    for (i, f) in g.fns.iter().enumerate() {
        // Only the return is secret when no parameter is: nothing to
        // track in the body.
        if f.is_test || map.summaries[i].tainted_params.is_empty() {
            continue;
        }
        replay_body(g, i, map.summaries[i].taint(), |phase, s, local| {
            if phase == Phase::After || s.in_region || s.allowed {
                return;
            }
            lint::check_line(s.code, &s.toks, local, allow, |rule, msg| {
                out.push(Violation {
                    file: f.file.clone(),
                    line: s.stmt.line,
                    rule,
                    message: format!("[interprocedural, via {}] {msg}", f.qual),
                    snippet: s.stmt.raw.trim().to_string(),
                });
            });
        });
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out.dedup_by(|a, b| a.fingerprint() == b.fingerprint());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Rule;

    const SRC: &str = "\
pub struct SigningKey { f: Vec<i64> }

impl SigningKey {
    pub fn coeff(&self, i: usize) -> i64 {
        self.f[i]
    }
}

pub fn norm(sk: &SigningKey) -> i64 {
    let c = sk.coeff(0);
    helper(c)
}

fn helper(v: i64) -> i64 {
    if v > 0 {
        return v;
    }
    -v
}

pub fn public_len(xs: &[u8]) -> usize {
    xs.len()
}
";

    fn build() -> (CallGraph, TaintMap) {
        let g = CallGraph::from_sources(&[("crates/x/src/k.rs", SRC)]);
        let m = TaintMap::compute(&g);
        (g, m)
    }

    #[test]
    fn seed_types_taint_params_and_returns() {
        let (g, m) = build();
        let norm = g.fns.iter().position(|f| f.qual == "norm").unwrap();
        assert!(m.summaries[norm].tainted_params.contains("sk"), "{:?}", m.summaries[norm]);
        let coeff = g.fns.iter().position(|f| f.qual == "SigningKey::coeff").unwrap();
        assert!(m.summaries[coeff].tainted_params.contains("self"));
    }

    #[test]
    fn taint_flows_through_calls_and_returns() {
        let (g, m) = build();
        // `coeff` returns self-derived data → returns_secret; the
        // binding `c` in `norm` becomes tainted; `helper(c)` taints
        // helper's param; helper returns taint.
        let coeff = g.fns.iter().position(|f| f.qual == "SigningKey::coeff").unwrap();
        assert!(m.summaries[coeff].returns_secret, "{:?}", m.summaries[coeff]);
        let helper = g.fns.iter().position(|f| f.qual == "helper").unwrap();
        assert!(m.summaries[helper].tainted_params.contains("v"));
        assert!(m.summaries[helper].returns_secret);
    }

    #[test]
    fn public_functions_stay_clean() {
        let (g, m) = build();
        let pl = g.fns.iter().position(|f| f.qual == "public_len").unwrap();
        assert!(!m.summaries[pl].is_tainted(), "{:?}", m.summaries[pl]);
    }

    #[test]
    fn violations_fire_outside_annotated_regions() {
        let (g, m) = build();
        let v = taint_violations(&g, &m, &CallAllowlist::workspace_default());
        // helper's `if v > 0` is a secret branch; coeff's `self.f[i]`
        // is NOT flagged (public index into a secret base is fine).
        assert!(
            v.iter().any(|x| x.rule == Rule::SecretBranch && x.snippet.contains("if v > 0")),
            "{v:?}"
        );
        assert!(!v.iter().any(|x| x.rule == Rule::SecretIndex), "{v:?}");
    }

    #[test]
    fn tainted_outside_regions_lists_discoveries() {
        let (g, m) = build();
        let names = m.tainted_outside_regions(&g);
        assert!(names.contains(&"helper"), "{names:?}");
        assert!(names.contains(&"norm"), "{names:?}");
        assert!(!names.contains(&"public_len"), "{names:?}");
    }

    #[test]
    fn method_calls_bind_only_to_functions_that_take_self() {
        let src = "\
pub struct SigningKey { f: Vec<u64> }
pub struct Dataset;
impl Dataset {
    pub fn collect(n: usize) -> usize {
        if n > 0 {
            return 1;
        }
        0
    }
}
pub struct Prng;
impl Prng {
    pub fn fill(&mut self, buf: u64) -> u64 {
        buf
    }
}
pub fn sign(sk: &SigningKey, rng: &mut Prng) -> Vec<u64> {
    let buf = sk.f[0];
    rng.fill(buf);
    sk.f.iter().collect()
}
";
        let g = CallGraph::from_sources(&[("crates/x/src/m.rs", src)]);
        let m = TaintMap::compute(&g);
        let at = |qual: &str| g.fns.iter().position(|f| f.qual == qual).unwrap();
        let (sign, collect, fill) = (at("sign"), at("Dataset::collect"), at("Prng::fill"));
        let edges: Vec<(&str, Vec<usize>)> = g
            .calls
            .iter()
            .filter(|c| c.caller == sign)
            .map(|c| (c.callee.as_str(), g.resolve_call(&c.callee, &c.form)))
            .collect();
        assert!(edges.contains(&("collect", vec![])), "{edges:?}");
        assert!(edges.contains(&("fill", vec![fill])), "{edges:?}");
        assert!(!m.summaries[collect].is_tainted(), "{:?}", m.summaries[collect]);
        assert!(m.summaries[fill].tainted_params.contains("buf"), "{:?}", m.summaries[fill]);
        let v = taint_violations(&g, &m, &CallAllowlist::workspace_default());
        assert!(!v.iter().any(|x| x.snippet.contains("if n > 0")), "{v:?}");
    }

    #[test]
    fn allow_suppresses_interprocedural_findings() {
        let src = "\
pub fn leak(sk: &SigningKey) -> u32 {
    if sk.bits() > 0 {
        // ct: allow(specified behaviour: reject invalid keys)
        return 1;
    }
    0
}
pub struct SigningKey;
impl SigningKey {
    pub fn bits(&self) -> u32 {
        0
    }
}
";
        let g = CallGraph::from_sources(&[("crates/x/src/a.rs", src)]);
        let m = TaintMap::compute(&g);
        let v = taint_violations(&g, &m, &CallAllowlist::workspace_default());
        // The secret branch on `sk` still fires (the allow is on the
        // return statement, not the branch)…
        assert!(v.iter().any(|x| x.rule == Rule::SecretBranch), "{v:?}");
        // …but nothing is reported at the allowed line.
        assert!(!v.iter().any(|x| x.snippet.starts_with("return 1")), "{v:?}");
    }
}
