//! The secret-taint lint: flow-sensitive taint tracking plus rule
//! checks over `ct: secret` annotated regions.
//!
//! A region opens with `// ct: secret(a, b)`, which seeds a taint set
//! with the named identifiers, and closes with `// ct: end`. Within a
//! region, taint propagates through `let` bindings and assignments
//! (any binding whose right-hand side mentions a tainted identifier
//! taints its left-hand side). Since v3 the state is **flow-sensitive**:
//! rebinding a name to a public right-hand side *kills* its taint in
//! straight-line code, while kills inside a conditional block are
//! reverted at the closing brace (the branch may not execute, so the
//! join is a union — see [`Taint`]). It is also **field-sensitive**:
//! `// ct: public(sk.logn)` declares a projection public, so reads of
//! `sk.logn` (field or accessor) do not count as tainted even though
//! `sk` itself is secret. Four rules apply inside regions:
//!
//! * **secret-branch** — `if`/`while`/`match` conditions, range-based
//!   `for` bounds, and short-circuit `&&`/`||` must not involve tainted
//!   identifiers (short-circuit evaluation is itself a branch; the
//!   constant-time idiom is bitwise `&`/`|` on `bool`).
//! * **secret-index** — `x[i]` where the *index expression* mentions a
//!   tainted identifier (a tainted base with a public index is a fixed
//!   address and is fine).
//! * **secret-divmod** — `/` or `%` on a tainted line: integer division
//!   has data-dependent latency on every mainstream core.
//! * **secret-call** — calls to functions outside the
//!   [allowlist](crate::rules) on tainted lines, since the lint cannot
//!   see into the callee.
//!
//! A fifth rule, **unsafe-code**, applies everywhere (regions or not):
//! the workspace is `#![deny(unsafe_code)]` and the lint backstops
//! that for code the compiler has not seen yet (fixtures, cfg'd-out
//! blocks). The one carve-out is the explicit-SIMD kernel modules in
//! [`crate::rules::UNSAFE_ALLOWED_MODULES`]: there the rule defers to
//! the stricter **unsafe-audit** pass, which additionally demands a
//! `// SAFETY:` justification on every block — a blanket `unsafe-code`
//! finding in those files would only drown the audit's real signal.
//! **annotation** reports malformed or unbalanced directives so a typo
//! cannot silently disable checking.
//!
//! `// ct: allow(reason)` suppresses the rule checks for one line —
//! the line it trails, or the next code-bearing line when it stands
//! alone — and requires a reason. Lines whose code consists of a
//! `debug_assert!` family macro are skipped entirely: they are compiled
//! out of release signing builds.

use crate::graph::CallGraph;
use crate::rules::{CallAllowlist, UNSAFE_ALLOWED_MODULES};
use crate::scan::{idents, is_attribute, Directive, SourceFile, Tok};
use crate::summary::{taint_violations, TaintMap};
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

/// Rule identifiers, ordered by severity for report sorting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Secret-dependent control flow.
    SecretBranch,
    /// Secret-dependent memory indexing.
    SecretIndex,
    /// `/` or `%` with secrets in scope.
    SecretDivMod,
    /// Non-allowlisted call with secrets in scope.
    SecretCall,
    /// Any `unsafe` token (workspace is `forbid(unsafe_code)`).
    UnsafeCode,
    /// `unsafe` outside an allowlisted module or without a `// SAFETY:`
    /// justification (the audit gate for the SIMD kernel work).
    UnsafeAudit,
    /// `Ordering::Relaxed` on a cross-thread atomic in the orchestrator
    /// or server (the multi-host sharding work needs acquire/release
    /// edges pinned before it starts).
    AtomicsOrder,
    /// Iteration-order-dependent container in a result-affecting path.
    DetMapIter,
    /// Wall-clock reads (`Instant`/`SystemTime`) in library code.
    DetWallClock,
    /// Environment reads in library code.
    DetEnvRead,
    /// Thread-identity reads in library code.
    DetThreadId,
    /// Non-associative floating-point reduction outside the pinned
    /// fold kernels.
    DetFloatFold,
    /// Malformed or unbalanced `ct:` directive.
    Annotation,
}

impl Rule {
    /// Stable machine-readable identifier (used in reports/baselines).
    pub fn id(self) -> &'static str {
        match self {
            Rule::SecretBranch => "secret-branch",
            Rule::SecretIndex => "secret-index",
            Rule::SecretDivMod => "secret-divmod",
            Rule::SecretCall => "secret-call",
            Rule::UnsafeCode => "unsafe-code",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::AtomicsOrder => "atomics-order",
            Rule::DetMapIter => "det-map-iter",
            Rule::DetWallClock => "det-wall-clock",
            Rule::DetEnvRead => "det-env-read",
            Rule::DetThreadId => "det-thread-id",
            Rule::DetFloatFold => "det-float-fold",
            Rule::Annotation => "annotation",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path of the offending file (workspace-relative in tree scans).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation naming the tainted identifiers.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Violation {
    /// Content-addressed fingerprint for baselining: hashes the file,
    /// rule and whitespace-normalised snippet — but *not* the line
    /// number, so unrelated edits above a baselined violation do not
    /// resurface it.
    pub fn fingerprint(&self) -> String {
        fingerprint(&format!("{}|{}", self.file, self.rule.id()), &self.snippet)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// The fingerprint of a finding keyed by `key`: 64-bit FNV-1a over the
/// key and the snippet with its whitespace runs collapsed, so
/// reformatting a line does not change it.
pub(crate) fn fingerprint(key: &str, snippet: &str) -> String {
    let norm = snippet.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{key}|{norm}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Outcome of linting one source file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Violations found, in line order.
    pub violations: Vec<Violation>,
    /// Number of `ct: secret` regions opened.
    pub regions: usize,
    /// Lines scanned.
    pub lines: usize,
}

/// Outcome of linting a source tree.
#[derive(Debug, Default)]
pub struct TreeOutcome {
    /// Violations of all three static passes across all files, sorted
    /// by (file, line, rule) and deduplicated by fingerprint.
    pub violations: Vec<Violation>,
    /// Files scanned.
    pub files: usize,
    /// Total `ct: secret` regions.
    pub regions: usize,
    /// Total lines scanned.
    pub lines: usize,
}

/// Runs the region lint over one file.
///
/// It reads the file's stitched statements (see [`SourceFile`]): a
/// multi-line `if` condition or a call whose arguments span lines is
/// checked as one unit, so splitting an expression across lines cannot
/// evade a rule.
pub fn lint_source(f: &SourceFile, allow: &CallAllowlist) -> FileOutcome {
    let file = f.file.as_str();
    let mut out = FileOutcome { lines: f.src.lines().count(), ..FileOutcome::default() };
    // `None` = outside any region; `Some(taint)` = inside, with the
    // current flow-sensitive taint state.
    let mut taint: Option<Taint> = None;
    // In the allowlisted SIMD modules the blanket unsafe-code rule
    // stands down: the unsafe-audit pass owns those files and holds
    // every block to the stricter `// SAFETY:` standard instead.
    let unsafe_deferred = UNSAFE_ALLOWED_MODULES.iter().any(|m| file.starts_with(m));

    for stmt in &f.stmts {
        let code_blank = stmt.code.trim().is_empty();
        for (dline, d) in &stmt.directives {
            match d {
                Directive::Secret(vars) => {
                    if taint.is_none() {
                        out.regions += 1;
                        taint = Some(Taint::new());
                    }
                    let set = taint.as_mut().expect("just set");
                    for v in vars {
                        set.seed(v);
                    }
                }
                Directive::Public(paths) => {
                    if let Some(set) = taint.as_mut() {
                        for p in paths.iter().filter(|p| p.contains('.')) {
                            set.seed_public(p);
                        }
                    }
                }
                Directive::End if taint.is_none() => {
                    push(
                        &mut out,
                        file,
                        *dline,
                        &stmt.raw,
                        Rule::Annotation,
                        "ct: end without an open secret region".into(),
                    );
                }
                Directive::End => taint = None,
                Directive::Allow(_) => {}
                Directive::Bad(msg) => {
                    push(&mut out, file, *dline, &stmt.raw, Rule::Annotation, msg.clone());
                }
            }
        }
        if code_blank {
            continue;
        }
        let toks = idents(&stmt.code);
        if toks.iter().any(|t| t.text == "unsafe") && !stmt.allowed && !unsafe_deferred {
            push(
                &mut out,
                file,
                stmt.line,
                &stmt.raw,
                Rule::UnsafeCode,
                "unsafe code (workspace is deny(unsafe_code))".into(),
            );
        }

        if let Some(set) = taint.as_mut() {
            let skip =
                stmt.allowed || is_attribute(&stmt.code) || is_debug_assert(&stmt.code, &toks);
            if !skip {
                check_line(&stmt.code, &toks, set, allow, |rule, msg| {
                    push(&mut out, file, stmt.line, &stmt.raw, rule, msg);
                });
            }
            set.observe(&stmt.code, &toks);
        }
    }

    if taint.is_some() {
        let eof = out.lines + 1;
        push(
            &mut out,
            file,
            eof,
            "",
            Rule::Annotation,
            "ct: secret region still open at end of file".into(),
        );
    }
    out
}

fn push(out: &mut FileOutcome, file: &str, line: usize, raw: &str, rule: Rule, message: String) {
    out.violations.push(Violation {
        file: file.to_string(),
        line,
        rule,
        message,
        snippet: raw.trim().to_string(),
    });
}

/// Lines that are a `debug_assert!` family invocation: compiled out of
/// release builds, so exempt from the constant-time rules.
pub(crate) fn is_debug_assert(code: &str, toks: &[Tok]) -> bool {
    code.trim_start().starts_with("debug_assert")
        && toks.first().map(|t| t.text.starts_with("debug_assert")).unwrap_or(false)
}

/// Runs the in-region rule checks for one scrubbed line.
pub(crate) fn check_line(
    code: &str,
    toks: &[Tok],
    taint: &Taint,
    allow: &CallAllowlist,
    mut report: impl FnMut(Rule, String),
) {
    let chars: Vec<char> = code.chars().collect();
    let tainted_here: Vec<&Tok> = (0..toks.len())
        .filter(|&i| taint.occurrence_tainted(&chars, toks, i))
        .map(|i| &toks[i])
        .collect();
    let line_tainted = !tainted_here.is_empty();

    // secret-branch: if/while/match conditions and range-based for.
    for (i, t) in toks.iter().enumerate() {
        let cond: Option<(usize, usize)> = match t.text.as_str() {
            "if" | "while" | "match" => Some((t.end, brace_or_end(&chars, t.end))),
            "for" => toks.get(i + 1..).and_then(|rest| {
                // Only ranges (`a..b`) have a data-dependent trip
                // count; iterating a secret-valued slice of public
                // length is constant time.
                let in_tok = rest.iter().find(|t| t.text == "in")?;
                let end = brace_or_end(&chars, in_tok.end);
                let seg: String = chars[in_tok.end..end].iter().collect();
                seg.contains("..").then_some((in_tok.end, end))
            }),
            _ => None,
        };
        if let Some((lo, hi)) = cond {
            let names = tainted_in_span(&chars, toks, taint, lo, hi);
            if !names.is_empty() {
                report(
                    Rule::SecretBranch,
                    format!(
                        "`{}` condition depends on secret value(s) {}",
                        t.text,
                        names.join(", ")
                    ),
                );
            }
        }
    }
    // secret-branch: short-circuit operators evaluate their right side
    // conditionally — a branch in disguise.
    if line_tainted {
        for pat in ["&&", "||"] {
            if code.contains(pat) {
                let names: Vec<&str> = tainted_here.iter().map(|t| t.text.as_str()).collect();
                report(
                    Rule::SecretBranch,
                    format!("short-circuit `{pat}` with secret value(s) {} in scope (use bitwise `&`/`|`)", names.join(", ")),
                );
                break;
            }
        }
    }

    // secret-index: `base[expr]` with a tainted index expression.
    let mut p = 0;
    while p < chars.len() {
        if chars[p] == '[' && is_index_bracket(&chars, p) {
            let close = matching_bracket(&chars, p);
            let names = tainted_in_span(&chars, toks, taint, p + 1, close);
            if !names.is_empty() {
                report(
                    Rule::SecretIndex,
                    format!("memory index depends on secret value(s) {}", names.join(", ")),
                );
            }
            p = close;
        }
        p += 1;
    }

    // secret-divmod.
    if line_tainted && chars.iter().any(|&c| c == '/' || c == '%') {
        let names: Vec<&str> = tainted_here.iter().map(|t| t.text.as_str()).collect();
        report(
            Rule::SecretDivMod,
            format!(
                "`/` or `%` on a line with secret value(s) {} (division latency is data-dependent)",
                names.join(", ")
            ),
        );
    }

    // secret-call.
    if line_tainted {
        for t in toks {
            if is_keyword(&t.text)
                || t.text.starts_with(char::is_uppercase)
                || allow.allows(&t.text)
            {
                continue;
            }
            let mut j = t.end;
            if chars.get(j) == Some(&'!') {
                j += 1;
            }
            while chars.get(j) == Some(&' ') {
                j += 1;
            }
            if chars.get(j) == Some(&'(') {
                report(
                    Rule::SecretCall,
                    format!("call to `{}` (not on the constant-time allowlist) with secret value(s) in scope", t.text),
                );
            }
        }
    }
}

/// Tainted occurrence names within a char span, deduplicated in order.
fn tainted_in_span<'a>(
    chars: &[char],
    toks: &'a [Tok],
    taint: &Taint,
    lo: usize,
    hi: usize,
) -> Vec<&'a str> {
    let mut names: Vec<&str> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.start >= lo
            && t.end <= hi
            && taint.occurrence_tainted(chars, toks, i)
            && !names.contains(&t.text.as_str())
        {
            names.push(&t.text);
        }
    }
    names
}

/// Index of the first `{` at or after `from` (or end of line).
fn brace_or_end(chars: &[char], from: usize) -> usize {
    (from..chars.len()).find(|&i| chars[i] == '{').unwrap_or(chars.len())
}

/// Whether the `[` at `p` indexes a value (vs opening a literal, type
/// or attribute): true when preceded by an identifier char, `]` or `)`.
fn is_index_bracket(chars: &[char], p: usize) -> bool {
    chars[..p]
        .iter()
        .rev()
        .find(|c| **c != ' ')
        .map(|&c| c.is_alphanumeric() || c == '_' || c == ']' || c == ')')
        .unwrap_or(false)
}

/// Index of the `]` matching the `[` at `p` (or end of line).
fn matching_bracket(chars: &[char], p: usize) -> usize {
    let mut depth = 0usize;
    for (i, &c) in chars.iter().enumerate().skip(p) {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    chars.len()
}

/// Rust keywords that can never be call targets or bindings. Shared
/// with the call-graph extractor.
pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "ref"
            | "fn"
            | "pub"
            | "crate"
            | "super"
            | "mod"
            | "use"
            | "in"
            | "as"
            | "where"
            | "impl"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "move"
            | "dyn"
            | "unsafe"
    )
}

/// Flow- and field-sensitive taint state for one linear replay.
///
/// The state is a set of secret binding roots plus a set of *public
/// projections* (`"sk.logn"`), and a snapshot stack mirroring brace
/// depth:
///
/// * **Gen** — a binding whose right-hand side mentions a tainted
///   occurrence taints its left-hand side identifiers.
/// * **Kill** — a plain rebinding (`let x = …` / `x = …`, not compound,
///   no field/index target, no trailing block) whose right-hand side is
///   entirely public removes the taint of its left-hand side names.
/// * **Join** — `{` pushes a snapshot of the secret set; `}` pops it
///   and unions it back in. Taint *added* inside a block survives the
///   block (the block may execute), while taint *killed* inside a block
///   is restored (the block may not execute) — the standard may-taint
///   join, realised lexically.
/// * **Field sensitivity** — an occurrence `root.field` where
///   `root.field` is a declared public projection does not count as
///   tainted, so `sk.logn()`-style accessors of public fields stop
///   over-tainting everything downstream.
#[derive(Debug, Clone, Default)]
pub struct Taint {
    secret: BTreeSet<String>,
    public_paths: BTreeSet<String>,
    stack: Vec<BTreeSet<String>>,
}

/// Brace-snapshot stack depth bound: beyond this the replay stops
/// pushing (joins degrade to keep-everything, which is conservative).
const MAX_SCOPE_DEPTH: usize = 64;

impl Taint {
    /// Empty state.
    pub fn new() -> Taint {
        Taint::default()
    }

    /// Marks a binding root as secret.
    pub fn seed(&mut self, name: &str) {
        self.secret.insert(name.to_string());
    }

    /// Declares a dotted projection (`"sk.logn"`) public.
    pub fn seed_public(&mut self, path: &str) {
        self.public_paths.insert(path.to_string());
    }

    /// Whether `name` is currently a secret root.
    pub fn contains(&self, name: &str) -> bool {
        self.secret.contains(name)
    }

    /// Number of secret roots currently live.
    pub fn len(&self) -> usize {
        self.secret.len()
    }

    /// Whether no root is tainted.
    pub fn is_empty(&self) -> bool {
        self.secret.is_empty()
    }

    /// The secret roots, for summaries and messages.
    pub fn roots(&self) -> impl Iterator<Item = &str> {
        self.secret.iter().map(|s| s.as_str())
    }

    /// The projection `x.f` read at token `i`, if the token is
    /// immediately followed by a single `.` and an identifier (`..`
    /// ranges and tuple indices return `None`).
    fn projection<'a>(&self, chars: &[char], toks: &'a [Tok], i: usize) -> Option<&'a str> {
        let t = &toks[i];
        let mut j = t.end;
        while chars.get(j) == Some(&' ') {
            j += 1;
        }
        if chars.get(j) != Some(&'.') || chars.get(j + 1) == Some(&'.') {
            return None;
        }
        j += 1;
        while chars.get(j) == Some(&' ') {
            j += 1;
        }
        let nt = toks.get(i + 1)?;
        (nt.start == j).then_some(nt.text.as_str())
    }

    /// Whether the identifier occurrence at `toks[i]` reads secret data:
    /// its root must be tainted and its immediate projection (if any)
    /// must not be a declared public path.
    pub fn occurrence_tainted(&self, chars: &[char], toks: &[Tok], i: usize) -> bool {
        let t = &toks[i];
        if !self.secret.contains(&t.text) {
            return false;
        }
        if let Some(proj) = self.projection(chars, toks, i) {
            let path = format!("{}.{proj}", t.text);
            if self.public_paths.contains(&path) {
                return false;
            }
        }
        true
    }

    /// Taint propagation plus scope maintenance for one statement: gen
    /// and kill on bindings, then snapshot push/pop for each brace.
    pub fn observe(&mut self, code: &str, toks: &[Tok]) {
        let chars: Vec<char> = code.chars().collect();
        if let Some(p) = binding_eq(&chars) {
            let rhs_tainted = (0..toks.len())
                .any(|i| toks[i].start > p && self.occurrence_tainted(&chars, toks, i));
            let lhs_idents = || {
                toks.iter().filter(|t| {
                    t.start < p
                        && !is_keyword(&t.text)
                        && !t.text.starts_with(char::is_uppercase)
                        && t.text != "_"
                })
            };
            if rhs_tainted {
                for t in lhs_idents() {
                    self.secret.insert(t.text.clone());
                }
            } else if kill_allowed(&chars, p) {
                for t in lhs_idents() {
                    self.secret.remove(&t.text);
                }
            }
        }
        for &c in &chars {
            match c {
                '{' if self.stack.len() < MAX_SCOPE_DEPTH => {
                    self.stack.push(self.secret.clone());
                }
                '}' => {
                    if let Some(saved) = self.stack.pop() {
                        self.secret.extend(saved);
                    }
                }
                _ => {}
            }
        }
    }
}

/// Whether a public rebinding at `=` position `p` may kill taint. The
/// kill must be provably unconditional and total over its targets:
///
/// * no `{` in the statement (a trailing block means the right-hand
///   side continues on later statements, e.g. `let x = match y {`);
/// * no `[` or `.` left of the `=` (an element or field store leaves
///   the rest of the binding secret);
/// * not a compound assignment (`+=` etc. reads the old value).
fn kill_allowed(chars: &[char], p: usize) -> bool {
    if chars.contains(&'{') {
        return false;
    }
    if chars[..p].iter().any(|&c| c == '[' || c == '.') {
        return false;
    }
    let prev = chars[..p].iter().rev().find(|c| **c != ' ');
    !matches!(prev, Some('+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '<' | '>'))
}

/// Position of the binding `=` (plain or compound), if any: skips
/// `==`, `!=`, `<=`, `>=` and `=>` but accepts `<<=`/`>>=`.
pub(crate) fn binding_eq(chars: &[char]) -> Option<usize> {
    for p in 0..chars.len() {
        if chars[p] != '=' {
            continue;
        }
        let prev = if p > 0 { chars[p - 1] } else { ' ' };
        let next = chars.get(p + 1).copied().unwrap_or(' ');
        if prev == '=' || prev == '!' || next == '=' || next == '>' {
            continue;
        }
        if prev == '<' || prev == '>' {
            let prev2 = if p > 1 { chars[p - 2] } else { ' ' };
            if prev2 != prev {
                continue; // `<=` / `>=`
            }
        }
        return Some(p);
    }
    None
}

/// Runs the three static passes over every `.rs` file under `root`
/// (see [`crate::scan::load_tree`]), each file read once: the region
/// lint and the unsafe/determinism/atomics audits per file, the
/// interprocedural taint pass over the call graph. Their findings are
/// merged, sorted by (file, line, rule) and deduplicated by fingerprint,
/// so a region finding and an interprocedural finding at the same
/// statement count once.
pub fn lint_tree(root: &Path, allow: &CallAllowlist) -> std::io::Result<TreeOutcome> {
    let graph = CallGraph::build(root)?;
    let mut out = TreeOutcome { files: graph.files.len(), ..TreeOutcome::default() };
    for f in &graph.files {
        let fo = lint_source(f, allow);
        out.regions += fo.regions;
        out.lines += fo.lines;
        out.violations.extend(fo.violations);
        out.violations.extend(crate::audit::audit_source(f));
    }
    out.violations.extend(taint_violations(&graph, &TaintMap::compute(&graph), allow));
    out.violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out.violations.dedup_by(|a, b| a.fingerprint() == b.fingerprint());
    Ok(out)
}
