//! Workspace module map, function extraction and call graph for the
//! interprocedural taint pass.
//!
//! This is a *lexical* call graph, built from the same scrubbed,
//! statement-stitched source the lint sees — not from the compiler.
//! Per file it recovers:
//!
//! * the crate/module path (derived from the file's workspace-relative
//!   location, e.g. `crates/fpr/src/mul.rs` → `falcon_fpr::mul`);
//! * every `fn` item with its signature (parameter names and type
//!   text, return type text), enclosing `impl` type, body line span,
//!   and whether it lives in test code (`#[cfg(test)]` modules,
//!   `tests/` trees, bench binaries);
//! * call sites inside each body: identifier tokens directly applied
//!   with `(`, resolved to workspace functions **by bare name** —
//!   every same-named function is a candidate callee.
//!
//! It also extracts struct definitions (via [`crate::fields`]) so the
//! taint pass can seed per-field for types that declare public fields,
//! and it accounts for every call edge the conservative resolution
//! policy *drops* — closure/`dyn`/std calls with no workspace candidate
//! and ambiguous bare-name homonyms — in [`CallGraph::edge_stats`], so
//! under-taint is visible instead of silent.
//!
//! The deliberate limits (documented in DESIGN.md): no trait-dispatch
//! or path resolution (name collisions over-connect the graph, which
//! over-taints — safe for this analysis) and no macro expansion. The
//! taint pass in [`crate::summary`] is built to be conservative under
//! exactly these approximations.

use crate::fields::FieldMap;
use crate::scan::{idents, stitch, Directive, Stmt};
use std::collections::BTreeMap;
use std::path::Path;

/// One function parameter: its binding name and the scrubbed type text.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (`self` for methods; `_` patterns keep the raw text).
    pub name: String,
    /// Type text; for `self`/`&mut self` this is the enclosing `impl`
    /// type, so seed matching treats methods like free functions.
    pub ty: String,
}

/// One extracted function item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Workspace-relative file path (`/` separators).
    pub file: String,
    /// Module path derived from the file location.
    pub module: String,
    /// Bare function name.
    pub name: String,
    /// Qualified display name: `Type::name` inside an `impl`, else the
    /// bare name.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Scrubbed return type text (empty when the function returns unit).
    pub ret: String,
    /// Inclusive physical-line span of the body (after the opening
    /// brace line through the closing brace line).
    pub body: (usize, usize),
    /// Whether the function lives in test code (`#[cfg(test)]` module,
    /// `tests/` tree, `benches/`, `examples/`).
    pub is_test: bool,
    /// Whether the body contains a `// ct: secret` region annotation.
    pub has_region: bool,
}

impl FnInfo {
    /// Whether the first parameter is a `self` receiver, in any of its
    /// forms (`self`, `mut self`, `&self`, `&mut self`, `&'a self`,
    /// `self: T`): only such a function can be called as `x.name(…)`.
    pub fn takes_self(&self) -> bool {
        self.params.first().is_some_and(|p| p.name == "self")
    }
}

/// How a call is written at its site, which decides what it may bind
/// to (see `CallGraph::resolve_call`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallForm {
    /// `helper(x)`.
    Free,
    /// `expr.name(x)`: binds only to a function that takes `self`.
    Method,
    /// `Type::name(x)`: binds to the exact `Type::name` only.
    Qualified(String),
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the calling function in [`CallGraph::fns`].
    pub caller: usize,
    /// Bare callee name as written at the call site.
    pub callee: String,
    /// How the call is written: free, method or `Type::`-qualified.
    pub form: CallForm,
    /// 1-based line of the statement containing the call.
    pub line: usize,
}

/// Per-file artifacts kept for the taint pass: the stitched statements
/// of the whole file, indexed once.
#[derive(Debug, Default)]
pub struct FileStmts {
    /// Workspace-relative path.
    pub file: String,
    /// All logical statements in the file, in order.
    pub stmts: Vec<Stmt>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every extracted function.
    pub fns: Vec<FnInfo>,
    /// Every recognised call site.
    pub calls: Vec<CallSite>,
    /// Bare name → indices of same-named functions (the conservative
    /// resolution set).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Retained statements per file, for the taint pass's body replays.
    pub files: Vec<FileStmts>,
    /// fn index → indices into the owning file's statement list that
    /// fall inside the body span.
    pub body_stmts: Vec<(usize, Vec<usize>)>,
    /// Struct definitions, for field-sensitive seeding.
    pub structs: FieldMap,
}

/// Resolution accounting over every recorded call site: edges the
/// conservative policy keeps versus edges it drops. Dropped edges are
/// the under-taint surface — calls through closures, `dyn`/`impl
/// Trait` objects and the standard library have no workspace candidate
/// (`unresolved`), and bare-name homonyms with several candidates are
/// dropped by the taint pass rather than guessed (`ambiguous`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Call sites resolved to exactly one workspace function (or to an
    /// exact `Type::name` qualifier match).
    pub resolved: usize,
    /// Call sites whose bare name matches several workspace functions
    /// and carries no disambiguating qualifier: dropped by the taint
    /// pass.
    pub ambiguous: usize,
    /// Call sites with no workspace candidate at all (std/closure/`dyn`
    /// dispatch): invisible to interprocedural propagation.
    pub unresolved: usize,
}

impl EdgeStats {
    /// Total edges dropped at resolution (`ambiguous + unresolved`).
    pub fn dropped(&self) -> usize {
        self.ambiguous + self.unresolved
    }
}

impl CallGraph {
    /// Builds the graph for every `.rs` file under `root` (skipping
    /// `target/` and hidden directories).
    pub fn build(root: &Path) -> std::io::Result<CallGraph> {
        let mut rels = Vec::new();
        crate::lint::collect_rs_files(root, root, &mut rels)?;
        rels.sort();
        let mut g = CallGraph::default();
        for rel in &rels {
            let src = std::fs::read_to_string(root.join(rel))?;
            g.add_file(rel, &src);
        }
        g.index();
        Ok(g)
    }

    /// Builds a graph from in-memory sources (fixture tests).
    pub fn from_sources(sources: &[(&str, &str)]) -> CallGraph {
        let mut g = CallGraph::default();
        for (rel, src) in sources {
            g.add_file(rel, src);
        }
        g.index();
        g
    }

    /// Parses one file into functions, call sites and retained
    /// statements.
    fn add_file(&mut self, rel: &str, src: &str) {
        self.structs.add_file(rel, src);
        let stmts = stitch(src);
        let module = module_path(rel);
        let path_is_test = path_is_test(rel);
        let file_idx = self.files.len();

        // Context stack entries: (brace depth *after* the opening
        // brace, kind).
        enum Ctx {
            Impl(String),
            TestMod,
            Fn(usize),
            Other,
        }
        let mut ctx: Vec<(usize, Ctx)> = Vec::new();
        let mut depth = 0usize;
        let mut pending_cfg_test = false;
        // A signature parsed on a statement that did not open its brace
        // yet (rustfmt puts `where` clauses and the `{` on later
        // lines): carried until the brace arrives or a `;` (trait
        // method declaration) drops it.
        let mut pending_fn: Option<(String, String, String, usize, bool)> = None;

        for stmt in &stmts {
            let code = stmt.code.trim();
            let toks = idents(code);
            let in_test = path_is_test || ctx.iter().any(|(_, k)| matches!(k, Ctx::TestMod));
            let impl_ty = ctx.iter().rev().find_map(|(_, k)| match k {
                Ctx::Impl(t) => Some(t.clone()),
                _ => None,
            });

            // Attribute statements: remember #[cfg(test)] for the next
            // item, then skip.
            if code.starts_with('#') {
                if toks.iter().any(|t| t.text == "cfg") && toks.iter().any(|t| t.text == "test") {
                    pending_cfg_test = true;
                }
                continue;
            }

            let opens = code.matches('{').count();
            let closes = code.matches('}').count();
            let sig = fn_signature(code, &toks);

            let push_fn = |name: String,
                           params: String,
                           ret: String,
                           line: usize,
                           is_test: bool,
                           fns: &mut Vec<FnInfo>| {
                let qual = match &impl_ty {
                    Some(t) => format!("{t}::{name}"),
                    None => name.clone(),
                };
                let params = resolve_self(params, impl_ty.as_deref());
                fns.push(FnInfo {
                    file: rel.to_string(),
                    module: module.clone(),
                    name,
                    qual,
                    line,
                    params,
                    ret,
                    body: (line, line),
                    is_test,
                    has_region: false,
                });
                fns.len() - 1
            };

            // Item recognition happens on the statement that *opens*
            // the item's brace.
            let mut opened_fn: Option<usize> = None;
            let mut one_line_fn: Option<usize> = None;
            if opens > closes {
                if let Some((name, params, ret)) = sig {
                    let fi = push_fn(
                        name,
                        params,
                        ret,
                        stmt.line,
                        in_test || pending_cfg_test,
                        &mut self.fns,
                    );
                    ctx.push((depth + 1, Ctx::Fn(fi)));
                    opened_fn = Some(fi);
                } else if let Some((name, params, ret, line, test)) = pending_fn.take() {
                    // `where`-clause signature finally opening its body.
                    let fi = push_fn(name, params, ret, line, test, &mut self.fns);
                    ctx.push((depth + 1, Ctx::Fn(fi)));
                    opened_fn = Some(fi);
                } else if let Some(ty) = impl_target(code, &toks) {
                    ctx.push((depth + 1, Ctx::Impl(ty)));
                } else if toks.first().map(|t| t.text == "mod").unwrap_or(false)
                    || (toks.first().map(|t| t.text == "pub").unwrap_or(false)
                        && toks.get(1).map(|t| t.text == "mod").unwrap_or(false))
                {
                    ctx.push((depth + 1, if pending_cfg_test { Ctx::TestMod } else { Ctx::Other }));
                } else {
                    ctx.push((depth + 1, Ctx::Other));
                }
            } else if let Some((name, params, ret)) = sig {
                if opens > 0 {
                    // One-line body: `fn flush(&self) {}` or a stitched
                    // short method. Calls inside it are recorded below.
                    let fi = push_fn(
                        name,
                        params,
                        ret,
                        stmt.line,
                        in_test || pending_cfg_test,
                        &mut self.fns,
                    );
                    self.fns[fi].body = (stmt.line, stmt.line + stmt.span - 1);
                    one_line_fn = Some(fi);
                } else if !code.ends_with(';') {
                    // Signature awaiting its `where` clause / brace.
                    pending_fn = Some((name, params, ret, stmt.line, in_test || pending_cfg_test));
                }
            } else if pending_fn.is_some() && (code.ends_with(';') || opens == 0 && closes > 0) {
                // Trait method declaration or an aborted signature.
                if !code.starts_with("where") && !code.contains(':') {
                    pending_fn = None;
                }
                if code.ends_with(';') {
                    pending_fn = None;
                }
            }
            pending_cfg_test = false;

            // Record calls and region annotations against the innermost
            // enclosing fn. The statement that *opens* a body is its
            // signature: Rust signatures contain no call expressions,
            // so it contributes nothing (unless it is a stitched
            // one-line body, handled via `one_line_fn`).
            let cur_fn = one_line_fn.or_else(|| {
                ctx.iter().rev().find_map(|(_, k)| match k {
                    Ctx::Fn(i) => Some(*i),
                    _ => None,
                })
            });
            if let Some(fi) = cur_fn {
                if opened_fn != Some(fi) {
                    let mut sites: Vec<(String, CallForm)> = Vec::new();
                    for (ti, form) in call_tokens(code, &toks) {
                        let callee = toks[ti].text.clone();
                        if !sites.iter().any(|(n, f)| *n == callee && *f == form) {
                            sites.push((callee, form));
                        }
                    }
                    for (callee, form) in sites {
                        // A one-line fn's own name reads as a call
                        // token; skip the self-edge at its own line.
                        if one_line_fn == Some(fi) && callee == self.fns[fi].name {
                            continue;
                        }
                        self.calls.push(CallSite { caller: fi, callee, form, line: stmt.line });
                    }
                }
                if stmt.directives.iter().any(|(_, d)| matches!(d, Directive::Secret(_))) {
                    self.fns[fi].has_region = true;
                }
                self.fns[fi].body.1 = stmt.line + stmt.span - 1;
            }

            // Apply depth changes and pop contexts whose brace closed.
            depth += opens;
            depth = depth.saturating_sub(closes);
            while let Some((open_depth, _)) = ctx.last() {
                if depth < *open_depth {
                    if let Some((_, Ctx::Fn(i))) = ctx.last() {
                        self.fns[*i].body.1 = stmt.line + stmt.span - 1;
                    }
                    ctx.pop();
                } else {
                    break;
                }
            }
        }

        self.files.push(FileStmts { file: rel.to_string(), stmts });
        let _ = file_idx;
    }

    /// Builds the name index and per-function body-statement lists.
    fn index(&mut self) {
        self.by_name.clear();
        for (i, f) in self.fns.iter().enumerate() {
            self.by_name.entry(f.name.clone()).or_default().push(i);
        }
        self.body_stmts = Vec::with_capacity(self.fns.len());
        for (i, f) in self.fns.iter().enumerate() {
            let file =
                self.files.iter().position(|fs| fs.file == f.file).expect("fn's file was scanned");
            let idxs: Vec<usize> = self.files[file]
                .stmts
                .iter()
                .enumerate()
                .filter(|(_, s)| s.line > f.body.0 && s.line <= f.body.1)
                .map(|(si, _)| si)
                .collect();
            self.body_stmts.push((file, idxs));
            let _ = i;
        }
    }

    /// Indices of non-test functions whose bare name matches.
    pub fn resolve(&self, name: &str) -> impl Iterator<Item = usize> + '_ {
        self.by_name.get(name).into_iter().flatten().copied().filter(move |&i| !self.fns[i].is_test)
    }

    /// The callees a call to `name` written in `form` binds to: a
    /// qualified call binds to the exact `Type::name` match only, a free
    /// or method call only when the bare name is unique in the
    /// workspace, and a method call only to a function that takes `self`
    /// (so `xs.iter().collect()` never binds to an associated
    /// `fn collect(..)`). An ambiguous homonym binds to nothing rather
    /// than to a guess. Every pass that follows call edges uses this one
    /// policy.
    pub(crate) fn resolve_call(&self, name: &str, form: &CallForm) -> Vec<usize> {
        if let CallForm::Qualified(r) = form {
            let qual = format!("{r}::{name}");
            return self.resolve(name).filter(|&i| self.fns[i].qual == qual).collect();
        }
        match self.resolve(name).collect::<Vec<_>>()[..] {
            [only] if *form == CallForm::Free || self.fns[only].takes_self() => vec![only],
            _ => Vec::new(),
        }
    }

    /// Classifies every recorded call site under the taint-propagation
    /// resolution policy (`resolve_call`): kept when a written
    /// `Type::name` qualifier matches exactly or the bare name is unique
    /// among non-test workspace functions (and, for a method call, that
    /// function takes `self`); dropped otherwise.
    /// This makes the pass's under-taint surface countable — DESIGN §9
    /// used to record these edges as vanishing silently.
    pub fn edge_stats(&self) -> EdgeStats {
        let mut stats = EdgeStats::default();
        for site in &self.calls {
            if !self.resolve_call(&site.callee, &site.form).is_empty() {
                stats.resolved += 1;
            } else if self.resolve(&site.callee).count() >= 2 {
                stats.ambiguous += 1;
            } else {
                stats.unresolved += 1;
            }
        }
        stats
    }
}

/// Derives a module path from a workspace-relative file path:
/// `crates/fpr/src/mul.rs` → `falcon_fpr::mul`; `src/lib.rs` →
/// `falcon_down`; `crates/ct/src/bin/ct_lint.rs` → `falcon_ct::bin::ct_lint`.
pub fn module_path(rel: &str) -> String {
    let crate_name = |dir: &str| match dir {
        "core" => "falcon_dema".to_string(),
        "falcon" => "falcon_sig".to_string(),
        other => format!("falcon_{other}"),
    };
    let parts: Vec<&str> = rel.split('/').collect();
    let (krate, rest) = match parts.as_slice() {
        ["crates", dir, "src", rest @ ..] => (crate_name(dir), rest),
        ["crates", dir, rest @ ..] => (crate_name(dir), rest),
        ["src", rest @ ..] => ("falcon_down".to_string(), rest),
        rest => ("workspace".to_string(), rest),
    };
    let mut out = krate;
    for (i, p) in rest.iter().enumerate() {
        let stem = p.strip_suffix(".rs").unwrap_or(p);
        if i == rest.len() - 1 && (stem == "lib" || stem == "mod" || stem == "main") {
            continue;
        }
        out.push_str("::");
        out.push_str(stem);
    }
    out
}

/// Whether a path lies in a test/bench/example tree.
fn path_is_test(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    parts.iter().any(|p| *p == "tests" || *p == "benches" || *p == "examples")
        || rel.ends_with("tests.rs")
}

/// Parses a statement that opens a function body: returns
/// `(name, raw params text, return type text)`.
fn fn_signature(code: &str, toks: &[crate::scan::Tok]) -> Option<(String, String, String)> {
    let fn_tok = toks.iter().position(|t| t.text == "fn")?;
    // `fn` must be in item position: first token, or preceded only by
    // visibility/qualifier keywords — not a `fn(u64)` pointer type in a
    // field or parameter.
    let ok = toks[..fn_tok].iter().all(|t| {
        matches!(
            t.text.as_str(),
            "pub" | "crate" | "super" | "const" | "async" | "unsafe" | "extern" | "default" | "in"
        )
    });
    if !ok {
        return None;
    }
    let name = toks.get(fn_tok + 1)?;
    let chars: Vec<char> = code.chars().collect();
    // Opening paren: first '(' after the name (skipping generics).
    let mut i = name.end;
    let mut angle = 0i32;
    while i < chars.len() {
        match chars[i] {
            '<' => angle += 1,
            '>' => angle -= 1,
            '(' if angle <= 0 => break,
            _ => {}
        }
        i += 1;
    }
    if i >= chars.len() {
        return None;
    }
    let open = i;
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
    let params: String = chars.get(open + 1..close).unwrap_or(&[]).iter().collect();
    let after: String = chars.get(close + 1..).unwrap_or(&[]).iter().collect();
    let ret = after
        .split_once("->")
        .map(|(_, r)| {
            let r = r.trim();
            let end = r.find(['{']).unwrap_or(r.len());
            let r = &r[..end];
            let r = r.split(" where ").next().unwrap_or(r);
            r.trim().to_string()
        })
        .unwrap_or_default();
    Some((name.text.clone(), params, ret))
}

/// Splits a parameter list on top-level commas into [`Param`]s,
/// substituting the `impl` type for `self` receivers.
fn resolve_self(params: String, impl_ty: Option<&str>) -> Vec<Param> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    let push = |text: &str, out: &mut Vec<Param>| {
        let text = text.trim();
        if text.is_empty() {
            return;
        }
        if let Some((name, ty)) = text.split_once(':') {
            let name = name
                .trim()
                .trim_start_matches("mut ")
                .trim_start_matches("ref ")
                .trim()
                .to_string();
            out.push(Param { name, ty: ty.trim().to_string() });
        } else {
            // Receiver forms: `self`, `mut self`, `&self`, `&mut self`,
            // `&'a self`, `&'a mut self` (`self: T` split above).
            let mut bare = text.trim_start_matches('&').trim();
            if bare.starts_with('\'') {
                bare = bare.split_once(' ').map_or(bare, |(_, rest)| rest.trim());
            }
            let bare = bare.trim_start_matches("mut ").trim();
            if bare == "self" {
                out.push(Param {
                    name: "self".to_string(),
                    ty: impl_ty.unwrap_or("Self").to_string(),
                });
            }
        }
    };
    for c in params.chars() {
        match c {
            '(' | '[' | '<' => depth += 1,
            ')' | ']' | '>' => depth -= 1,
            ',' if depth <= 0 => {
                push(&cur, &mut out);
                cur.clear();
                continue;
            }
            _ => {}
        }
        cur.push(c);
    }
    push(&cur, &mut out);
    out
}

/// Extracts the target type of an `impl` statement: `Bar` from
/// `impl<T> Foo for Bar<T> {` and `Fpr` from `impl Fpr {`.
fn impl_target(_code: &str, toks: &[crate::scan::Tok]) -> Option<String> {
    if toks.first().map(|t| t.text.as_str()) != Some("impl") {
        return None;
    }
    let after_for: Option<usize> = toks.iter().position(|t| t.text == "for");
    let pick_from = after_for.map(|p| p + 1).unwrap_or(1);
    // First uppercase-initial token from the pick point is the type
    // (skipping any generic parameter idents reused from `impl<...>`:
    // those also appear later, so taking the first uppercase token
    // after the generics close is approximated by preferring a token
    // that is not a single letter when one exists).
    let cands: Vec<&crate::scan::Tok> = toks[pick_from.min(toks.len())..]
        .iter()
        .filter(|t| t.text.starts_with(char::is_uppercase))
        .collect();
    cands.iter().find(|t| t.text.len() > 1).or_else(|| cands.first()).map(|t| t.text.clone())
}

/// Identifier tokens applied with `(` — the lexical call sites of a
/// statement, in order, as the callee's index into `toks` and the
/// call's [`CallForm`]. Keywords, macros (`name!(…)`) and
/// uppercase-initial constructors are excluded, mirroring the lint's
/// `secret-call` rule.
pub(crate) fn call_tokens(code: &str, toks: &[crate::scan::Tok]) -> Vec<(usize, CallForm)> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    for (ti, t) in toks.iter().enumerate() {
        if crate::lint::is_keyword(&t.text) || t.text.starts_with(char::is_uppercase) {
            continue;
        }
        let mut j = t.end;
        while chars.get(j) == Some(&' ') {
            j += 1;
        }
        if chars.get(j) == Some(&'!') {
            continue; // macro
        }
        if chars.get(j) != Some(&'(') {
            continue;
        }
        // `Type::name(` — the previous token is uppercase-initial and
        // immediately adjoins via `::`; `expr.name(` — a `.` adjoins.
        let recv = ti
            .checked_sub(1)
            .and_then(|p| toks.get(p))
            .filter(|prev| {
                prev.text.starts_with(char::is_uppercase)
                    && chars.get(prev.end..t.start).map(|seg| seg.iter().collect::<String>())
                        == Some("::".to_string())
            })
            .map(|prev| prev.text.clone());
        let form = match recv {
            Some(r) => CallForm::Qualified(r),
            None if t.start > 0 && chars.get(t.start - 1) == Some(&'.') => CallForm::Method,
            None => CallForm::Free,
        };
        out.push((ti, form));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "\
use std::fmt;

pub struct Key { f: Vec<i64> }

impl Key {
    pub fn coeffs(&self) -> &[i64] {
        &self.f
    }

    pub fn rotate(&mut self, by: usize) {
        helper(&mut self.f, by);
    }
}

fn helper(v: &mut Vec<i64>, by: usize) {
    let n = v.len();
    v.rotate_left(by % n);
}

#[cfg(test)]
mod tests {
    fn probe() {
        helper(&mut vec![1], 0);
    }
}
";

    #[test]
    fn extracts_functions_and_methods() {
        let g = CallGraph::from_sources(&[("crates/x/src/key.rs", SRC)]);
        let quals: Vec<&str> = g.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["Key::coeffs", "Key::rotate", "helper", "probe"]);
        let helper = &g.fns[2];
        assert_eq!(helper.params.len(), 2);
        assert_eq!(helper.params[0].name, "v");
        assert!(helper.params[0].ty.contains("Vec<i64>"));
        assert!(g.fns[3].is_test, "fn inside #[cfg(test)] mod is test code");
        assert!(!helper.is_test);
    }

    #[test]
    fn self_receiver_gets_impl_type() {
        let g = CallGraph::from_sources(&[("crates/x/src/key.rs", SRC)]);
        let coeffs = &g.fns[0];
        assert_eq!(coeffs.params[0].name, "self");
        assert_eq!(coeffs.params[0].ty, "Key");
        assert_eq!(coeffs.ret, "&[i64]");
    }

    #[test]
    fn call_sites_resolve_by_name() {
        let g = CallGraph::from_sources(&[("crates/x/src/key.rs", SRC)]);
        let calls: Vec<(&str, &str)> =
            g.calls.iter().map(|c| (g.fns[c.caller].qual.as_str(), c.callee.as_str())).collect();
        assert!(calls.contains(&("Key::rotate", "helper")), "{calls:?}");
        // Resolution excludes test functions.
        let targets: Vec<usize> = g.resolve("helper").collect();
        assert_eq!(targets, vec![2]);
    }

    #[test]
    fn every_self_receiver_form_takes_self() {
        let src = "\
impl<'a> Key<'a> {
    fn by_value(self) {}
    fn by_mut_value(mut self) {}
    fn by_ref(&self) {}
    fn by_mut_ref(&mut self) {}
    fn by_lifetime_ref(&'a self) {}
    fn by_lifetime_mut_ref(&'a mut self, by: usize) {}
    fn typed(self: Box<Self>) {}
    fn associated(key: &Key) {}
}
";
        let g = CallGraph::from_sources(&[("crates/x/src/key.rs", src)]);
        let takes: Vec<(&str, bool)> =
            g.fns.iter().map(|f| (f.name.as_str(), f.takes_self())).collect();
        assert_eq!(
            takes,
            vec![
                ("by_value", true),
                ("by_mut_value", true),
                ("by_ref", true),
                ("by_mut_ref", true),
                ("by_lifetime_ref", true),
                ("by_lifetime_mut_ref", true),
                ("typed", true),
                ("associated", false),
            ]
        );
        assert_eq!(g.fns[5].params[0].ty, "Key");
        assert_eq!(g.fns[5].params[1].name, "by");
    }

    #[test]
    fn module_paths() {
        assert_eq!(module_path("crates/fpr/src/mul.rs"), "falcon_fpr::mul");
        assert_eq!(module_path("crates/falcon/src/lib.rs"), "falcon_sig");
        assert_eq!(module_path("crates/core/src/cpa.rs"), "falcon_dema::cpa");
        assert_eq!(module_path("src/lib.rs"), "falcon_down");
        assert_eq!(module_path("crates/ct/src/bin/ct_lint.rs"), "falcon_ct::bin::ct_lint");
    }

    #[test]
    fn multiline_signature_is_parsed() {
        let src = "\
pub fn correlate(
    hypotheses: &[u64],
    samples: &[f32],
) -> Vec<f64> {
    score(hypotheses, samples)
}
fn score(h: &[u64], s: &[f32]) -> Vec<f64> {
    Vec::new()
}
";
        let g = CallGraph::from_sources(&[("crates/x/src/c.rs", src)]);
        assert_eq!(g.fns[0].name, "correlate");
        assert_eq!(g.fns[0].params.len(), 2);
        assert_eq!(g.fns[0].ret, "Vec<f64>");
        assert!(g.calls.iter().any(|c| c.callee == "score"));
    }

    #[test]
    fn impl_targets() {
        use crate::scan::idents;
        let cases = [
            ("impl Fpr {", "Fpr"),
            ("impl MulObserver for RecordingObserver {", "RecordingObserver"),
            ("impl<T> Secret<T> {", "Secret"),
            ("impl Div for Fpr {", "Fpr"),
        ];
        for (code, want) in cases {
            let toks = idents(code);
            assert_eq!(impl_target(code, &toks).as_deref(), Some(want), "{code}");
        }
    }
}
