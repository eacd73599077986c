//! The leakage-site map: from "where are the violations?" to "where
//! will an attacker point the probe?".
//!
//! The region lint and the interprocedural pass answer a gating
//! question — does secret-dependent control flow or addressing exist?
//! This pass answers the *predictive* one the paper starts from: of all
//! the operations that touch secret data, which ones image into the
//! side channel, under which leakage model, and how strongly? It
//! replays every tainted function through the interprocedural pass's
//! body replay (the same flow/field-sensitive
//! [`Taint`](crate::lint::Taint) state, directives and skipped
//! statements) and records each
//! secret-dependent operation as a [`LeakSite`], classified by the
//! device model's leakage dimensions exported from `falcon-emsim`:
//!
//! * **mantissa-mul** — a partial-product multiply whose result is
//!   recorded as a [`falcon_fpr`] observer `PartialProduct` lane; these
//!   are the paper's attack points, imaged as Hamming weight of a
//!   50–56-bit product ([`StepKind::word_bits`]).
//! * **secret-mul** — any other binary `*` on tainted operands (the
//!   FFT butterflies, the sampler's Gaussian arithmetic).
//! * **var-latency-loop** — the instrumented data-dependent loops
//!   (`DIV_LOOP`, `SQRT_LOOP`, `EXPM_LOOP`): timing, not amplitude.
//! * **div-mod**, **index**, **branch** — the lint's rule hits,
//!   reclassified as timing leaks (latency, cache, pipeline).
//!
//! Each site gets a score `class + 2·width + kind + 3·reach` — leakage
//! class base (HW/HD amplitude ≫ pure timing), imaged word width
//! (signal dynamic range), an a-priori kind weight (a recorded partial
//! product is the demonstrated CPA target), and the function's tainted
//! fan-in (how many distinct secret-handling functions funnel into it).
//! The ranked map is emitted by the `ct_sites` binary as
//! `CT_sites.json` and validated two ways: a superset test that every
//! `ct_dyn` primitive appears in the map, and a closed-loop emsim CPA
//! that recovers the key at the top-ranked site (and fails at an
//! unpredicted one) — see `tests/ct_closed_loop.rs` at the workspace
//! root.

use crate::graph::CallGraph;
use crate::lint::{self, Rule};
use crate::rules::CallAllowlist;
use crate::scan::idents;
use crate::summary::{replay_body, Phase, TaintMap};
use falcon_emsim::{LeakClass, StepKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// What kind of secret-dependent operation a site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SiteKind {
    /// A partial-product multiply recorded on an observer lane — the
    /// paper's CPA target inside the emulated `fpr` multiplier.
    MantissaMul,
    /// Any other binary multiply on tainted operands.
    SecretMul,
    /// An instrumented variable-latency loop (div/sqrt/expm).
    VarLatencyLoop,
    /// `/` or `%` with secrets in scope.
    DivMod,
    /// Secret-dependent memory indexing.
    Index,
    /// Secret-dependent control flow.
    Branch,
}

impl SiteKind {
    /// Stable machine-readable identifier (used in reports/baselines).
    pub fn id(self) -> &'static str {
        match self {
            SiteKind::MantissaMul => "mantissa-mul",
            SiteKind::SecretMul => "secret-mul",
            SiteKind::VarLatencyLoop => "var-latency-loop",
            SiteKind::DivMod => "div-mod",
            SiteKind::Index => "index",
            SiteKind::Branch => "branch",
        }
    }

    /// A-priori weight: how directly this operation class has been
    /// demonstrated to yield key recovery (the recorded partial
    /// products are the paper's working attack; a generic multiply
    /// needs a leakage model guess; loops and branches leak bits, not
    /// whole mantissa words).
    fn bonus(self) -> u32 {
        match self {
            SiteKind::MantissaMul => 80,
            SiteKind::SecretMul => 20,
            SiteKind::VarLatencyLoop => 15,
            SiteKind::DivMod => 10,
            SiteKind::Index => 5,
            SiteKind::Branch => 0,
        }
    }
}

impl fmt::Display for SiteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One secret-dependent operation, classified and scored.
#[derive(Debug, Clone)]
pub struct LeakSite {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Qualified name of the enclosing function.
    pub qual: String,
    /// Operation class.
    pub kind: SiteKind,
    /// Leakage-model dimension the operation images into.
    pub class: LeakClass,
    /// Width in bits of the imaged value (signal dynamic range).
    pub width: u32,
    /// The emsim micro-op this site corresponds to, when the operation
    /// is a recorded observer step — the bridge to the trace layout an
    /// attack targets.
    pub step: Option<StepKind>,
    /// Distinct tainted functions that reach the enclosing function
    /// through resolved call edges (capped at 32).
    pub reach: usize,
    /// Ranking score; higher = more attractive to an attacker.
    pub score: u32,
    /// Whether the site sits inside a reviewed `ct: secret` region or
    /// under a `ct: allow` — known and annotated, not a new discovery.
    pub annotated: bool,
    /// What the detector saw.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl LeakSite {
    /// Content-addressed fingerprint for the site baseline: file, kind,
    /// enclosing function and normalised snippet — not the line number
    /// and not the score, so re-ranking or unrelated edits above a site
    /// do not churn the baseline.
    pub fn fingerprint(&self) -> String {
        lint::fingerprint(&format!("{}|{}|{}", self.file, self.kind.id(), self.qual), &self.snippet)
    }
}

impl fmt::Display for LeakSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{} w{} score {}] {} — {}",
            self.file,
            self.line,
            self.kind,
            self.class.id(),
            self.width,
            self.score,
            self.qual,
            self.message
        )
    }
}

/// The ranked site map for a whole workspace.
#[derive(Debug, Default)]
pub struct SiteMap {
    /// Sites, sorted by descending score (ties: file, line, kind).
    pub sites: Vec<LeakSite>,
    /// Qualified names of every tainted non-test function the pass
    /// replayed — the "static map" the coverage test checks primitives
    /// against.
    pub scanned: Vec<String>,
}

/// Reach cap: beyond this many tainted ancestors the fan-in signal is
/// saturated (everything in the signing path reaches the fpr kernels).
const REACH_CAP: usize = 32;

impl SiteMap {
    /// Computes the ranked site map from a call graph and its taint
    /// summaries.
    pub fn compute(g: &CallGraph, map: &TaintMap) -> SiteMap {
        let allow = CallAllowlist::workspace_default();
        let reach = reach_counts(g, map);
        let mut sites: Vec<LeakSite> = Vec::new();
        let mut scanned = Vec::new();

        for (i, f) in g.fns.iter().enumerate() {
            if f.is_test || !(map.summaries[i].is_tainted() || f.has_region) {
                continue;
            }
            scanned.push(f.qual.clone());
            let lanes = partial_product_lanes(g, i);
            replay_body(g, i, map.summaries[i].taint(), |phase, s, local| {
                if phase == Phase::After {
                    return;
                }
                let (code, toks) = (s.code, &s.toks);
                let annotated = s.in_region || s.allowed;
                let mut push = |kind: SiteKind, step: Option<StepKind>, message: String| {
                    let (class, width) = classify(kind, step);
                    sites.push(LeakSite {
                        file: f.file.clone(),
                        line: s.stmt.line,
                        qual: f.qual.clone(),
                        kind,
                        class,
                        width,
                        step,
                        reach: reach[i],
                        score: 0, // filled below
                        annotated,
                        message,
                        snippet: s.stmt.raw.trim().to_string(),
                    });
                };

                // Branch / index / div-mod: reuse the lint's rule
                // checks verbatim (same taint state, same span logic).
                lint::check_line(code, toks, local, &allow, |rule, msg| {
                    let kind = match rule {
                        Rule::SecretBranch => Some(SiteKind::Branch),
                        Rule::SecretIndex => Some(SiteKind::Index),
                        Rule::SecretDivMod => Some(SiteKind::DivMod),
                        _ => None,
                    };
                    if let Some(kind) = kind {
                        push(kind, None, msg);
                    }
                });

                // Instrumented variable-latency loops.
                for marker in ["DIV_LOOP", "SQRT_LOOP", "EXPM_LOOP"] {
                    if toks.iter().any(|t| t.text == marker) {
                        push(
                            SiteKind::VarLatencyLoop,
                            None,
                            format!("instrumented variable-latency loop `{marker}`"),
                        );
                    }
                }

                // Secret multiplies, upgraded to mantissa-mul when the
                // bound result is recorded on an observer lane.
                let chars: Vec<char> = code.chars().collect();
                let line_tainted =
                    (0..toks.len()).any(|ti| local.occurrence_tainted(&chars, toks, ti));
                if line_tainted && has_binary_mul(&chars) {
                    let lane_step = lint::binding_eq(&chars).and_then(|eq| {
                        toks.iter()
                            .filter(|t| t.start < eq && !lint::is_keyword(&t.text))
                            .find_map(|t| lanes.get(&t.text).copied())
                    });
                    match lane_step {
                        Some(step) => push(
                            SiteKind::MantissaMul,
                            Some(step),
                            format!("partial-product multiply recorded as observer step {step:?}"),
                        ),
                        None => push(
                            SiteKind::SecretMul,
                            None,
                            "binary multiply on tainted operand(s)".to_string(),
                        ),
                    }
                }
            });
        }

        for s in &mut sites {
            s.score = score(s.kind, s.class, s.width, s.reach);
        }
        sites.sort_by(|a, b| {
            (b.score, &a.file, a.line, a.kind).cmp(&(a.score, &b.file, b.line, b.kind))
        });
        sites.dedup_by(|a, b| a.fingerprint() == b.fingerprint() && a.line == b.line);
        SiteMap { sites, scanned }
    }

    /// The top-ranked site.
    pub fn top(&self) -> Option<&LeakSite> {
        self.sites.first()
    }
}

/// Leakage class and imaged width of a site. Recorded observer steps
/// take both straight from the device model; everything else defaults
/// to a 64-bit machine word, except branches (one decision bit) — and
/// only the amplitude-model kinds (the multiplies) image as HW/HD,
/// the rest leak through latency.
fn classify(kind: SiteKind, step: Option<StepKind>) -> (LeakClass, u32) {
    if let Some(s) = step {
        return (s.leak_class(), s.word_bits());
    }
    match kind {
        SiteKind::MantissaMul | SiteKind::SecretMul => (LeakClass::Hw, 64),
        SiteKind::Branch => (LeakClass::Timing, 1),
        _ => (LeakClass::Timing, 64),
    }
}

/// The ranking score. Additive on purpose: every term is auditable in
/// the JSON report (`class`, `width`, `kind`, `reach` are all emitted),
/// and the closed-loop test pins the ordering this induces.
fn score(kind: SiteKind, class: LeakClass, width: u32, reach: usize) -> u32 {
    let base = match class {
        LeakClass::Hw | LeakClass::Hd => 100,
        LeakClass::Timing => 10,
    };
    base + 2 * width + kind.bonus() + 3 * reach.min(REACH_CAP) as u32
}

/// Whether the statement contains a binary `*` (multiply): a `*` whose
/// previous non-space char ends an operand (identifier, literal, `)`
/// or `]`) — which excludes derefs, `*mut`/`*const` and `**`.
fn has_binary_mul(chars: &[char]) -> bool {
    for (p, &c) in chars.iter().enumerate() {
        if c != '*' || chars.get(p + 1) == Some(&'*') {
            continue;
        }
        let prev = chars[..p].iter().rev().find(|c| **c != ' ');
        if prev.map(|&c| c.is_alphanumeric() || c == '_' || c == ')' || c == ']').unwrap_or(false) {
            return true;
        }
    }
    false
}

/// Identifiers bound to a recorded observer `PartialProduct` lane in fn
/// `i`'s body: scans for
/// `obs.record(MulStep::PartialProduct { lane: Lane::HiHi, value: w_hh })`
/// shapes and maps `w_hh` → the corresponding emsim pipeline step.
fn partial_product_lanes(g: &CallGraph, i: usize) -> BTreeMap<String, StepKind> {
    let mut out = BTreeMap::new();
    let (file_idx, stmt_idxs) = (g.body_stmts[i].0, &g.body_stmts[i].1);
    for si in stmt_idxs {
        let stmt = &g.files[file_idx].stmts[*si];
        let toks = idents(&stmt.code);
        if !toks.iter().any(|t| t.text == "PartialProduct") {
            continue;
        }
        let lane =
            toks.windows(2).find(|w| w[0].text == "Lane").and_then(|w| lane_step(&w[1].text));
        let value = toks.windows(2).find(|w| w[0].text == "value").map(|w| w[1].text.clone());
        if let (Some(step), Some(ident)) = (lane, value) {
            out.insert(ident, step);
        }
    }
    out
}

/// Observer lane name → emsim pipeline step.
fn lane_step(lane: &str) -> Option<StepKind> {
    match lane {
        "LoLo" => Some(StepKind::PpLoLo),
        "LoHi" => Some(StepKind::PpLoHi),
        "HiLo" => Some(StepKind::PpHiLo),
        "HiHi" => Some(StepKind::PpHiHi),
        _ => None,
    }
}

/// Distinct tainted non-test functions that transitively reach each
/// function through the kept call edges (same resolution policy as the
/// propagation pass), capped at [`REACH_CAP`].
fn reach_counts(g: &CallGraph, map: &TaintMap) -> Vec<usize> {
    let mut callers: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); g.fns.len()];
    for site in &g.calls {
        for c in g.resolve_call(&site.callee, &site.form) {
            if c != site.caller {
                callers[c].insert(site.caller);
            }
        }
    }
    (0..g.fns.len())
        .map(|i| {
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            let mut queue: VecDeque<usize> = callers[i].iter().copied().collect();
            while let Some(j) = queue.pop_front() {
                if seen.insert(j) && seen.len() < 4 * REACH_CAP {
                    queue.extend(callers[j].iter().copied());
                }
            }
            seen.iter()
                .filter(|&&j| !g.fns[j].is_test && map.summaries[j].is_tainted())
                .count()
                .min(REACH_CAP)
        })
        .collect()
}

/// Whether the static map covers a dynamic-checker primitive
/// implemented by the named `falcon-fpr` functions: the function
/// itself, or anything it calls (transitively, up to three hops,
/// accepting *every* resolution candidate — coverage tolerates the
/// ambiguity the taint pass refuses), is tainted or carries a
/// `ct: secret` region. The generous resolution matters for the
/// delegating wrappers: `sqr` → `mul` (ambiguous with the `Mul` trait
/// impl) → `mul_observed`.
pub fn covers_primitive(g: &CallGraph, map: &TaintMap, fn_names: &[&str]) -> bool {
    let mut frontier: Vec<usize> = g
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.is_test && f.file.starts_with("crates/fpr/") && fn_names.contains(&f.name.as_str())
        })
        .map(|(i, _)| i)
        .collect();
    let mut seen: BTreeSet<usize> = frontier.iter().copied().collect();
    for _hop in 0..3 {
        if frontier.iter().any(|&i| map.summaries[i].is_tainted() || g.fns[i].has_region) {
            return true;
        }
        let mut next = Vec::new();
        for &i in &frontier {
            for site in g.calls.iter().filter(|s| s.caller == i) {
                for c in g.resolve(&site.callee) {
                    if seen.insert(c) {
                        next.push(c);
                    }
                }
            }
        }
        frontier = next;
    }
    frontier.iter().any(|&i| map.summaries[i].is_tainted() || g.fns[i].has_region)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
pub struct SigningKey { f: Vec<u64> }

impl SigningKey {
    pub fn pointwise(&self, c: u64) -> u64 {
        // ct: secret(self)
        let x0 = self.f[0] & 0x1FF_FFFF;
        let w_ll = x0 * c;
        obs.record(MulStep::PartialProduct { lane: Lane::LoLo, value: w_ll });
        let w_hh = x0 * x0;
        obs.record(MulStep::PartialProduct { lane: Lane::HiHi, value: w_hh });
        let other = w_ll * 3;
        // ct: end
        other
    }

    pub fn bad(&self, i: usize) -> u64 {
        let t = self.f[0];
        if t > 0 {
            return self.f[t as usize % 4];
        }
        t / 3
    }
}
"#;

    fn build() -> (CallGraph, TaintMap) {
        let g = CallGraph::from_sources(&[("crates/x/src/k.rs", SRC)]);
        let m = TaintMap::compute(&g);
        (g, m)
    }

    #[test]
    fn mantissa_muls_outrank_everything() {
        let (g, m) = build();
        let sm = SiteMap::compute(&g, &m);
        let top = sm.top().expect("sites found");
        assert_eq!(top.kind, SiteKind::MantissaMul, "{sm:?}");
        // HiHi (56-bit) beats LoLo (50-bit) beats the plain multiply.
        assert_eq!(top.step, Some(StepKind::PpHiHi));
        let kinds: Vec<SiteKind> = sm.sites.iter().map(|s| s.kind).collect();
        let first_plain = kinds.iter().position(|&k| k == SiteKind::SecretMul).unwrap();
        let last_mantissa = kinds.iter().rposition(|&k| k == SiteKind::MantissaMul).unwrap();
        assert!(last_mantissa < first_plain, "{kinds:?}");
    }

    #[test]
    fn amplitude_sites_outrank_timing_sites() {
        let (g, m) = build();
        let sm = SiteMap::compute(&g, &m);
        let branch = sm.sites.iter().find(|s| s.kind == SiteKind::Branch).expect("branch");
        let index = sm.sites.iter().find(|s| s.kind == SiteKind::Index).expect("index");
        let divmod = sm.sites.iter().find(|s| s.kind == SiteKind::DivMod).expect("divmod");
        let top = sm.top().unwrap();
        assert!(top.score > divmod.score && top.score > index.score && top.score > branch.score);
        assert_eq!(branch.class, LeakClass::Timing);
        assert!(branch.snippet.contains("if t > 0"), "{branch:?}");
        assert!(index.snippet.contains("t as usize"), "{index:?}");
    }

    #[test]
    fn region_sites_are_marked_annotated() {
        let (g, m) = build();
        let sm = SiteMap::compute(&g, &m);
        assert!(sm.sites.iter().filter(|s| s.kind == SiteKind::MantissaMul).all(|s| s.annotated));
        assert!(
            sm.sites.iter().filter(|s| s.qual == "SigningKey::bad").all(|s| !s.annotated),
            "{sm:?}"
        );
    }

    #[test]
    fn scanned_lists_tainted_functions() {
        let (g, m) = build();
        let sm = SiteMap::compute(&g, &m);
        assert!(sm.scanned.iter().any(|q| q == "SigningKey::pointwise"), "{:?}", sm.scanned);
        assert!(sm.scanned.iter().any(|q| q == "SigningKey::bad"), "{:?}", sm.scanned);
    }
}
