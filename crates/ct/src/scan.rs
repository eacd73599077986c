//! Lexical preprocessing for every static pass: the one loader
//! ([`load_tree`]), comment/literal stripping, identifier tokenisation,
//! `ct:` directive parsing, statement stitching and the one statement
//! walk.
//!
//! The lint works line by line on *scrubbed* source: string and char
//! literal contents are blanked (so operators and identifiers inside
//! them never reach the rule checks), comments are separated out (so
//! directives can be read from them), and lifetimes are removed (so
//! `'a` does not tokenise as the identifier `a`). Block comments nest,
//! as they do in Rust, and their state persists across lines.

use std::path::Path;

/// Strips comments and literals from Rust source, one line at a time.
#[derive(Debug, Default)]
pub struct Scrubber {
    /// Nesting depth of `/* */` comments carried across lines.
    block_depth: usize,
    /// String literal left open at the end of the previous line, if
    /// any; multi-line literals (test fixtures especially) must not
    /// leak their contents into the code stream.
    open_str: StrTail,
}

/// The terminator a multi-line string literal is waiting for.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum StrTail {
    #[default]
    None,
    /// Inside `"…"`: scanning for an unescaped `"`.
    Plain,
    /// Inside `r"…"`/`r#"…"#`: scanning for `"` followed by n `#`s.
    Raw(usize),
}

impl Scrubber {
    /// A scrubber at the start of a file.
    pub fn new() -> Scrubber {
        Scrubber::default()
    }

    /// Splits one source line into (code, line-comment text).
    ///
    /// The code part has string/char contents blanked and block-comment
    /// spans removed; the comment part is everything after `//` (empty
    /// when there is none). Doc comments (`///`, `//!`) yield comment
    /// text starting with `/` or `!`, which [`directive`] ignores, so
    /// directive examples inside documentation are inert.
    pub fn scrub(&mut self, raw: &str) -> (String, String) {
        let chars: Vec<char> = raw.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0;
        while i < chars.len() {
            match self.open_str {
                StrTail::Plain => {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => {
                            self.open_str = StrTail::None;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                    continue;
                }
                StrTail::Raw(hashes) => {
                    if chars[i] == '"'
                        && chars[i + 1..].iter().take(hashes).filter(|&&c| c == '#').count()
                            == hashes
                    {
                        self.open_str = StrTail::None;
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                StrTail::None => {}
            }
            if self.block_depth > 0 {
                if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    self.block_depth -= 1;
                    i += 2;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    self.block_depth += 1;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            match chars[i] {
                '/' if chars.get(i + 1) == Some(&'/') => {
                    comment = chars[i + 2..].iter().collect();
                    break;
                }
                '/' if chars.get(i + 1) == Some(&'*') => {
                    self.block_depth = 1;
                    code.push(' ');
                    i += 2;
                }
                '"' => {
                    code.push_str("\"\"");
                    match skip_string(&chars, i + 1) {
                        Some(end) => i = end,
                        None => {
                            self.open_str = StrTail::Plain;
                            i = chars.len();
                        }
                    }
                }
                '\'' => {
                    i = self.scrub_quote(&chars, i, &mut code);
                }
                c if c.is_alphanumeric() || c == '_' => {
                    if let Some(raw) = raw_string_end(&chars, i) {
                        code.push_str("\"\"");
                        match raw {
                            RawStr::Closed(end) => i = end,
                            RawStr::Open { hashes } => {
                                self.open_str = StrTail::Raw(hashes);
                                i = chars.len();
                            }
                        }
                    } else {
                        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                            code.push(chars[i]);
                            i += 1;
                        }
                    }
                }
                c => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        (code, comment)
    }

    /// Handles a `'`: char literal (blanked) or lifetime (dropped).
    fn scrub_quote(&mut self, chars: &[char], i: usize, code: &mut String) -> usize {
        let next = chars.get(i + 1);
        if next == Some(&'\\') {
            // Escaped char literal: scan to the closing quote.
            let mut j = i + 3;
            while j < chars.len() && chars[j] != '\'' {
                j += 1;
            }
            code.push_str("''");
            j + 1
        } else if chars.get(i + 2) == Some(&'\'') && next.is_some() {
            code.push_str("''");
            i + 3
        } else {
            // Lifetime: skip the quote and the following identifier.
            let mut j = i + 1;
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            j
        }
    }
}

/// Scans past a (single-line) string literal starting after the opening
/// quote; returns the index after the closing quote.
fn skip_string(chars: &[char], mut i: usize) -> Option<usize> {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// Where a raw string literal ends.
enum RawStr {
    /// Closed on this line; the index just past the terminator.
    Closed(usize),
    /// Continues onto the next line; the terminator's hash count.
    Open { hashes: usize },
}

/// If the identifier starting at `i` opens a raw string (`r"…"`,
/// `r#"…"#`, `br"…"`), returns where it ends.
fn raw_string_end(chars: &[char], i: usize) -> Option<RawStr> {
    let mut j = i;
    if chars[j] == 'b' && chars.get(j + 1) == Some(&'r') {
        j += 1;
    }
    if chars[j] != 'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') {
        return None;
    }
    j += 1;
    while j < chars.len() {
        if chars[j] == '"'
            && chars[j + 1..].iter().take(hashes).filter(|&&c| c == '#').count() == hashes
        {
            return Some(RawStr::Closed(j + 1 + hashes));
        }
        j += 1;
    }
    Some(RawStr::Open { hashes })
}

/// An identifier (or keyword) token with its char-index span in the
/// scrubbed code line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token text.
    pub text: String,
    /// Char index of the first character.
    pub start: usize,
    /// Char index one past the last character.
    pub end: usize,
}

/// Extracts identifier/keyword tokens from a scrubbed code line.
/// Numeric literals (anything starting with a digit, including suffixed
/// forms like `55u64` and `0x1FF`) are dropped.
pub fn idents(code: &str) -> Vec<Tok> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_alphanumeric() || chars[i] == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            if !chars[start].is_ascii_digit() {
                out.push(Tok { text: chars[start..i].iter().collect(), start, end: i });
            }
        } else {
            i += 1;
        }
    }
    out
}

/// A parsed `// ct:` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `ct: secret(a, b)` — open (or extend) a secret region, seeding
    /// the taint set with the named identifiers.
    Secret(Vec<String>),
    /// `ct: end` — close the current secret region.
    End,
    /// `ct: allow(reason)` — suppress rule checks on this line (when
    /// trailing code) or the next code-bearing line (when standalone).
    Allow(String),
    /// `ct: public(a, b)` — declare projections public. On a struct
    /// definition the names are field names exempt from seed taint
    /// (field-sensitive seeding); inside a secret region they are
    /// dotted paths (`sk.logn`) whose reads do not count as tainted.
    Public(Vec<String>),
    /// A `ct:` comment that parses as none of the above; reported as an
    /// `annotation` violation so typos cannot silently disable checks.
    Bad(String),
}

/// Parses a line comment as a `ct:` directive. Comments not starting
/// with `ct:` (after whitespace) are not directives.
pub fn directive(comment: &str) -> Option<Directive> {
    let rest = comment.trim_start().strip_prefix("ct:")?.trim();
    if rest == "end" {
        return Some(Directive::End);
    }
    if let Some(inner) = parenthesised(rest, "secret") {
        let vars: Vec<String> =
            inner.split(',').map(|v| v.trim().to_string()).filter(|v| !v.is_empty()).collect();
        if vars.is_empty() || vars.iter().any(|v| !is_ident(v)) {
            return Some(Directive::Bad(format!("malformed secret(...) variable list: `{rest}`")));
        }
        return Some(Directive::Secret(vars));
    }
    if let Some(inner) = parenthesised(rest, "allow") {
        let reason = inner.trim();
        if reason.is_empty() {
            return Some(Directive::Bad("allow(...) requires a reason".to_string()));
        }
        return Some(Directive::Allow(reason.to_string()));
    }
    if let Some(inner) = parenthesised(rest, "public") {
        let names: Vec<String> =
            inner.split(',').map(|v| v.trim().to_string()).filter(|v| !v.is_empty()).collect();
        let is_path = |p: &str| !p.is_empty() && p.split('.').all(is_ident);
        if names.is_empty() || names.iter().any(|v| !is_path(v)) {
            return Some(Directive::Bad(format!("malformed public(...) name list: `{rest}`")));
        }
        return Some(Directive::Public(names));
    }
    Some(Directive::Bad(format!("unrecognised ct directive: `{rest}`")))
}

/// Extracts `inner` from `head(inner)` (trailing text after the closing
/// parenthesis is tolerated so prose may follow a directive).
fn parenthesised<'a>(rest: &'a str, head: &str) -> Option<&'a str> {
    let args = rest.strip_prefix(head)?.trim_start();
    let args = args.strip_prefix('(')?;
    let close = args.rfind(')')?;
    Some(&args[..close])
}

fn is_ident(s: &str) -> bool {
    let mut cs = s.chars();
    cs.next().map(|c| c.is_alphabetic() || c == '_').unwrap_or(false)
        && cs.all(|c| c.is_alphanumeric() || c == '_')
}

/// One logical statement: one or more physical source lines joined
/// until the expression is syntactically complete.
///
/// Rust statements routinely span lines (rustfmt breaks long
/// conditions before operators and long call argument lists inside the
/// parentheses), and a line-at-a-time lint silently misses, say, a
/// secret-guarded `if` whose condition sits on its own line. The
/// stitcher rejoins such statements so the rule checks see the whole
/// expression; see `stitch` for the joining heuristics.
#[derive(Debug, Clone, Default)]
pub struct Stmt {
    /// 1-based number of the first physical line.
    pub line: usize,
    /// Scrubbed code of all physical lines, joined with single spaces.
    pub code: String,
    /// Raw source of all physical lines, trimmed and joined with single
    /// spaces (used for violation snippets and fingerprints).
    pub raw: String,
    /// Directives found on this statement's physical lines, with their
    /// line numbers, in order.
    pub directives: Vec<(usize, Directive)>,
    /// Physical lines joined into this statement.
    pub span: usize,
    /// Brace depth before the statement. The walk counts the braces of
    /// every statement, attributes included, so an attributed block
    /// (`#[cfg(debug_assertions)] {`) cannot unbalance it.
    pub depth: usize,
    /// Brace depth after the statement.
    pub depth_after: usize,
    /// Test code: in a `tests/`, `benches/` or `examples/` tree (or a
    /// `tests.rs` file), the item right after a `#[cfg(test)]`
    /// attribute, or inside such an item's braces up to its closing one.
    pub test: bool,
    /// Covered by a `ct: allow`: one trailing this statement, or a
    /// standalone one before it with no code statement between.
    pub allowed: bool,
}

/// Upper bound on physical lines joined into one statement; beyond it
/// the stitcher force-flushes so a scrub confusion (e.g. an unclosed
/// multi-line literal) cannot swallow a whole file into one statement.
const MAX_STITCH: usize = 24;

/// Splits source text into logical statements (plus standalone
/// directive records carried by empty-code [`Stmt`]s).
///
/// A physical line is joined with its successor when any of these hold:
///
/// * parenthesis/bracket depth is still open at the end of the line
///   (an argument list or index expression continues);
/// * the line ends with a binary/assignment operator, a `::`/`.` path
///   or method chain, or a statement-introducing keyword (`if`,
///   `while`, `match`, `for`, `in`, `else`, `return`) — the expression
///   cannot be complete;
/// * the next line *begins* with an operator or `.`/`?` chain — the
///   rustfmt style of breaking before `&&`, `+`, `.method()`.
///
/// Lines ending in `;`, `{` or `}` always terminate a statement (brace
/// depth is intentionally not tracked: a block opener is a boundary, so
/// `if cond {` and its body lines are separate statements, exactly like
/// the single-line lint saw them).
fn stitch(src: &str) -> Vec<Stmt> {
    let mut sc = Scrubber::new();
    let mut scrubbed: Vec<(usize, String, String, String)> = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let (code, comment) = sc.scrub(raw);
        scrubbed.push((idx + 1, code, comment, raw.to_string()));
    }

    let mut out: Vec<Stmt> = Vec::new();
    let mut cur = Stmt::default();
    let mut depth = 0usize; // parens + square brackets across joined lines

    let flush = |cur: &mut Stmt, out: &mut Vec<Stmt>| {
        if cur.line != 0 {
            out.push(std::mem::take(cur));
        }
    };

    for i in 0..scrubbed.len() {
        let (line, code, comment, raw) = &scrubbed[i];
        let trimmed = code.trim();
        let directive = directive(comment);

        if trimmed.is_empty() && depth == 0 && cur.line == 0 {
            // Blank or comment-only line outside any statement: emit a
            // standalone record when it carries a directive.
            if let Some(d) = directive {
                out.push(Stmt {
                    line: *line,
                    code: String::new(),
                    raw: raw.trim().to_string(),
                    directives: vec![(*line, d)],
                    span: 1,
                    ..Stmt::default()
                });
            }
            continue;
        }

        // Append this physical line to the current statement.
        if cur.line == 0 {
            cur.line = *line;
        }
        if !cur.code.is_empty() && !trimmed.is_empty() {
            cur.code.push(' ');
        }
        cur.code.push_str(trimmed);
        if !cur.raw.is_empty() && !raw.trim().is_empty() {
            cur.raw.push(' ');
        }
        cur.raw.push_str(raw.trim());
        if let Some(d) = directive {
            cur.directives.push((*line, d));
        }
        cur.span += 1;
        for c in trimmed.chars() {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }

        let next_code = scrubbed.get(i + 1).map(|(_, c, _, _)| c.trim()).unwrap_or("");
        let joins = depth > 0
            || (cur.span < MAX_STITCH
                && !ends_statement(trimmed)
                && (continues_after(trimmed) || continues_before(next_code)));
        if !joins || cur.span >= MAX_STITCH {
            depth = 0;
            flush(&mut cur, &mut out);
        }
    }
    flush(&mut cur, &mut out);
    out
}

/// Lines ending in `;`, `{` or `}` are complete statements regardless of
/// the operator heuristics.
fn ends_statement(code: &str) -> bool {
    matches!(code.chars().next_back(), Some(';' | '{' | '}'))
}

/// Whether a line's scrubbed code ends mid-expression: a trailing
/// binary/assignment operator, path separator, or an expression-opening
/// keyword.
fn continues_after(code: &str) -> bool {
    if matches!(
        code.chars().next_back(),
        Some('=' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '<' | '>' | '.' | ':' | '?')
    ) {
        return true;
    }
    let last_word = code.rsplit(|c: char| !(c.is_alphanumeric() || c == '_')).next().unwrap_or("");
    matches!(last_word, "if" | "while" | "match" | "for" | "in" | "else" | "return")
}

/// Whether the next line's scrubbed code begins mid-expression (the
/// rustfmt break-before-operator style: `&& cond`, `.method()`, `+ x`).
fn continues_before(code: &str) -> bool {
    matches!(
        code.chars().next(),
        Some('.' | '?' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '<' | '>' | '=' | ':')
    )
}

/// One workspace source file, read, scrubbed and stitched once per run.
/// Every static pass reads its statements and their walk flags.
#[derive(Debug, Default)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// The raw source text.
    pub src: String,
    /// The logical statements, in order, with their walk flags set.
    pub stmts: Vec<Stmt>,
}

impl SourceFile {
    /// Stitches and walks one file's source text.
    pub fn new(file: &str, src: &str) -> SourceFile {
        let mut stmts = stitch(src);
        walk(file, &mut stmts);
        SourceFile { file: file.to_string(), src: src.to_string(), stmts }
    }
}

/// The one statement walk: sets each statement's `depth`,
/// `depth_after`, `test` and `allowed` (see [`Stmt`]).
fn walk(file: &str, stmts: &mut [Stmt]) {
    let test_path = path_is_test(file);
    let mut depth = 0usize;
    // Depth below which the open `#[cfg(test)]` item has closed.
    let mut test_item: Option<usize> = None;
    let (mut after_cfg_test, mut pending_allow) = (false, false);
    for stmt in stmts {
        let code = stmt.code.trim();
        let allow = stmt.directives.iter().any(|(_, d)| matches!(d, Directive::Allow(_)));
        stmt.depth = depth;
        if code.is_empty() {
            pending_allow |= allow;
        } else {
            stmt.allowed = allow || std::mem::take(&mut pending_allow);
            let (opens, closes) = (code.matches('{').count(), code.matches('}').count());
            depth = (depth + opens).saturating_sub(closes);
            if is_attribute(code) {
                let toks = idents(code);
                after_cfg_test |=
                    toks.iter().any(|t| t.text == "cfg") && toks.iter().any(|t| t.text == "test");
            } else if std::mem::take(&mut after_cfg_test) {
                stmt.test = true;
                if opens > closes {
                    test_item.get_or_insert(stmt.depth + 1);
                }
            }
        }
        stmt.depth_after = depth;
        stmt.test |= test_path || test_item.is_some();
        if test_item.is_some_and(|d| depth < d) {
            test_item = None;
        }
    }
}

/// `#[...]` attribute statements carry no executable code.
pub(crate) fn is_attribute(code: &str) -> bool {
    code.trim_start().starts_with('#')
}

/// Whether a workspace-relative path lies in a test, bench or example
/// tree.
fn path_is_test(rel: &str) -> bool {
    rel.split('/').any(|p| p == "tests" || p == "benches" || p == "examples")
        || rel.ends_with("tests.rs")
}

/// The one loader: reads every `.rs` file under `root` once, in path
/// order, skipping `target/`, hidden directories and nested cargo
/// workspaces (a subdirectory whose `Cargo.toml` declares its own
/// `[workspace]` is a separate build, not part of this one). Paths are
/// relative to `root` with `/` separators, so reports and baselines are
/// machine-independent.
pub fn load_tree(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut rels = Vec::new();
    collect_rs_files(root, root, &mut rels)?;
    rels.sort();
    rels.iter()
        .map(|rel| Ok(SourceFile::new(rel, &std::fs::read_to_string(root.join(rel))?)))
        .collect()
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || is_own_workspace(&path) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Whether `dir` holds a cargo manifest with a `[workspace]` table of
/// its own.
fn is_own_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrub1(s: &str) -> (String, String) {
        Scrubber::new().scrub(s)
    }

    #[test]
    fn strings_and_chars_blank() {
        let (code, _) = scrub1(r#"let x = "a / b % c"; let c = '%';"#);
        assert!(!code.contains('/'), "{code}");
        assert!(!code.contains('%'), "{code}");
    }

    #[test]
    fn lifetimes_do_not_tokenise() {
        let (code, _) = scrub1("fn f<'a>(x: &'a str) {}");
        let toks: Vec<String> = idents(&code).into_iter().map(|t| t.text).collect();
        assert!(!toks.contains(&"a".to_string()), "{toks:?}");
    }

    #[test]
    fn block_comments_nest_across_lines() {
        let mut sc = Scrubber::new();
        let (c1, _) = sc.scrub("let a = 1; /* open /* nested */");
        let (c2, _) = sc.scrub("still a comment */ let b = 2;");
        assert!(c1.contains("let a"));
        assert!(!c2.contains("still"));
        assert!(c2.contains("let b"));
    }

    #[test]
    fn multiline_string_contents_are_blanked() {
        let mut sc = Scrubber::new();
        let (c1, _) = sc.scrub("let src = \"\\");
        assert!(c1.contains("\"\""), "{c1}");
        let (c2, _) = sc.scrub("unsafe { secret[idx] } Instant::now()\\");
        assert_eq!(c2, "", "{c2}");
        let (c3, _) = sc.scrub("done\"; let x = 1;");
        assert!(!c3.contains("done"), "{c3}");
        assert!(c3.contains("let x = 1"), "{c3}");
    }

    #[test]
    fn multiline_raw_string_contents_are_blanked() {
        let mut sc = Scrubber::new();
        let (c1, _) = sc.scrub("let src = r#\"");
        assert!(c1.contains("\"\""), "{c1}");
        let (c2, _) = sc.scrub("if secret { leak(); } \" not the end");
        assert_eq!(c2, "", "{c2}");
        let (c3, _) = sc.scrub("\"#; let y = 2;");
        assert!(c3.contains("let y = 2"), "{c3}");
    }

    #[test]
    fn directives_parse() {
        assert_eq!(
            directive(" ct: secret(self, rhs)"),
            Some(Directive::Secret(vec!["self".into(), "rhs".into()]))
        );
        assert_eq!(directive(" ct: end"), Some(Directive::End));
        assert_eq!(
            directive(" ct: allow(reference lazy loop)"),
            Some(Directive::Allow("reference lazy loop".into()))
        );
        assert!(matches!(directive(" ct: secrt(x)"), Some(Directive::Bad(_))));
        assert!(matches!(directive(" ct: allow()"), Some(Directive::Bad(_))));
        assert_eq!(directive(" plain comment"), None);
        // Doc-comment text starts with '/' or '!' and is ignored.
        assert_eq!(directive("/ ct: secret(x)"), None);
    }

    #[test]
    fn walk_flags_depth_test_code_and_allow_cover() {
        let src = "\
fn lib() {
    // ct: allow(standalone)

    let a = 1;
    let b = 2;
    let c = 3; // ct: allow(trailing)
    let d = 4;
    #[cfg(debug_assertions)] {
        let e = 5;
    }
}
#[cfg(test)]
mod tests {
    fn t() {}
}
#[cfg(test)]
fn helper() {
    let f = 6;
}
fn after() {}
";
        let flags = |f: SourceFile| -> Vec<(usize, usize, bool, bool)> {
            f.stmts.iter().map(|s| (s.line, s.depth, s.test, s.allowed)).collect()
        };
        let (no, yes) = (false, true);
        #[rustfmt::skip]
        let want = vec![
            (1, 0, no, no), (2, 1, no, no), (4, 1, no, yes), (5, 1, no, no), (6, 1, no, yes),
            (7, 1, no, no), (8, 1, no, no), (9, 2, no, no), (10, 2, no, no), (11, 1, no, no),
            (12, 0, no, no), (13, 0, yes, no), (14, 1, yes, no), (15, 1, yes, no),
            (16, 0, no, no), (17, 0, yes, no), (18, 1, yes, no), (19, 1, yes, no),
            (20, 0, no, no),
        ];
        assert_eq!(flags(SourceFile::new("crates/x/src/lib.rs", src)), want);
        let test_tree = flags(SourceFile::new("crates/x/tests/it.rs", src));
        assert!(test_tree.iter().all(|&(_, _, test, _)| test), "{test_tree:?}");
    }

    #[test]
    fn numeric_literals_are_not_idents() {
        let toks: Vec<String> =
            idents("let x = 0x1FF + 55u64 + 2.0f64;").into_iter().map(|t| t.text).collect();
        assert_eq!(toks, vec!["let", "x"]);
    }
}
