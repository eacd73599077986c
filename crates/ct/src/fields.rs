//! Struct-definition extraction for field-sensitive taint seeding.
//!
//! The interprocedural pass seeds taint from parameter *types*: any
//! parameter whose type mentions a secret seed type is fully tainted.
//! That is field-insensitive — `SigningKey` carries the public `logn`
//! and `h` fields alongside the NTRU secrets, so every accessor of a
//! public field used to drag whole call chains into the taint set.
//!
//! This module extracts struct definitions (name → ordered field list)
//! from the same scrubbed statement stream the call-graph walker uses,
//! together with `// ct: public(field, …)` annotations on the
//! definition. A struct that carries such an annotation opts into
//! field-sensitive seeding: parameters of that type are keyed per
//! `(param, field-path)` — the secret fields taint, the declared public
//! projections (`sk.logn`, `sk.h`, and the same-named accessors) do
//! not. Structs without an annotation keep the conservative whole-value
//! seeding, so an unannotated secret container can never under-taint.

use crate::scan::{idents, stitch, Directive};
use std::collections::BTreeMap;

/// One struct definition with its taint-relevant field classification.
#[derive(Debug, Clone, Default)]
pub struct StructInfo {
    /// Type name.
    pub name: String,
    /// Defining file (workspace-relative).
    pub file: String,
    /// 1-based line of the definition.
    pub line: usize,
    /// Declared field names, in declaration order.
    pub fields: Vec<String>,
    /// Fields declared public via `// ct: public(...)` on the
    /// definition. Empty = the struct did not opt into field
    /// sensitivity and is seeded whole.
    pub public_fields: Vec<String>,
}

impl StructInfo {
    /// Whether the struct opted into field-sensitive seeding.
    pub fn field_sensitive(&self) -> bool {
        !self.public_fields.is_empty()
    }
}

/// Workspace-wide struct table, keyed by type name. A name defined more
/// than once (test fixtures shadowing a production type) is dropped
/// from the table — ambiguous field layouts must not steer seeding.
#[derive(Debug, Default)]
pub struct FieldMap {
    by_name: BTreeMap<String, StructInfo>,
    ambiguous: Vec<String>,
}

impl FieldMap {
    /// Empty map.
    pub fn new() -> FieldMap {
        FieldMap::default()
    }

    /// Extracts every struct definition from one file's source text.
    pub fn add_file(&mut self, file: &str, src: &str) {
        // Depth of the currently open struct body, if any: the opening
        // statement ends in `{` at depth 0, fields live at depth 1.
        let mut open: Option<(StructInfo, i32)> = None;
        let mut depth: i32 = 0;
        for stmt in stitch(src) {
            if let Some((info, _)) = open.as_mut() {
                for (_, d) in &stmt.directives {
                    if let Directive::Public(names) = d {
                        info.public_fields.extend(names.iter().cloned());
                    }
                }
                for name in field_names(&stmt.code) {
                    info.fields.push(name);
                }
            }
            for c in stmt.code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if let Some((_, body_depth)) = open.as_ref() {
                            if depth < *body_depth {
                                let (info, _) = open.take().expect("checked");
                                self.insert(info);
                            }
                        }
                    }
                    _ => {}
                }
            }
            if open.is_none() {
                if let Some(name) = struct_open(&stmt.code) {
                    let mut info = StructInfo {
                        name,
                        file: file.to_string(),
                        line: stmt.line,
                        ..StructInfo::default()
                    };
                    for (_, d) in &stmt.directives {
                        if let Directive::Public(names) = d {
                            info.public_fields.extend(names.iter().cloned());
                        }
                    }
                    open = Some((info, depth));
                }
            }
        }
    }

    fn insert(&mut self, info: StructInfo) {
        if self.ambiguous.contains(&info.name) {
            return;
        }
        if self.by_name.remove(&info.name).is_some() {
            self.ambiguous.push(info.name);
            return;
        }
        self.by_name.insert(info.name.clone(), info);
    }

    /// Looks up a struct by type name (unambiguous definitions only).
    pub fn get(&self, name: &str) -> Option<&StructInfo> {
        self.by_name.get(name)
    }

    /// Number of extracted (unambiguous) struct definitions.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// Whether no definitions were extracted.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// The first field-sensitive struct whose name appears in a type
    /// string (`&SigningKey`, `Option<&SigningKey>`, …).
    pub fn sensitive_in_type(&self, ty: &str) -> Option<&StructInfo> {
        idents(ty).iter().find_map(|t| self.by_name.get(&t.text).filter(|s| s.field_sensitive()))
    }
}

/// `pub struct Name {` (braced definition at item position) → `Name`.
/// Tuple and unit structs have no named fields and are skipped.
fn struct_open(code: &str) -> Option<String> {
    if !code.trim_end().ends_with('{') {
        return None;
    }
    let toks = idents(code);
    let pos = toks.iter().position(|t| t.text == "struct")?;
    // `struct` must be in item position: first token, or preceded only
    // by visibility/modifier tokens.
    if toks[..pos].iter().any(|t| !matches!(t.text.as_str(), "pub" | "crate" | "super" | "in")) {
        return None;
    }
    let name = toks.get(pos + 1)?;
    let chars: Vec<char> = code.chars().collect();
    // A `(` right after the name would be a tuple struct.
    let mut j = name.end;
    while let Some(&c) = chars.get(j) {
        if c == '(' {
            return None;
        }
        if c == '{' || c == '<' {
            break;
        }
        j += 1;
    }
    Some(name.text.clone())
}

/// Field names declared by one in-body statement: each top-level
/// comma-separated segment of the form `[pub(...)] name: Type`.
fn field_names(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut seg_start = 0usize;
    let chars: Vec<char> = code.chars().collect();
    let mut segments = Vec::new();
    for (i, &c) in chars.iter().enumerate() {
        match c {
            '(' | '[' | '<' => depth += 1,
            ')' | ']' | '>' => depth -= 1,
            ',' if depth <= 0 => {
                segments.push(&code[seg_start..i]);
                seg_start = i + 1;
            }
            _ => {}
        }
    }
    segments.push(&code[seg_start..]);
    for seg in segments {
        let toks = idents(seg);
        // Skip visibility tokens; the field name is the first plain
        // ident directly followed by a single `:`.
        let Some(first) =
            toks.iter().find(|t| !matches!(t.text.as_str(), "pub" | "crate" | "super" | "in"))
        else {
            continue;
        };
        let seg_chars: Vec<char> = seg.chars().collect();
        let mut j = first.end;
        while seg_chars.get(j) == Some(&' ') {
            j += 1;
        }
        if seg_chars.get(j) == Some(&':') && seg_chars.get(j + 1) != Some(&':') {
            out.push(first.text.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
/// A key. // not a directive
pub struct Key {
    // ct: public(size, tag)
    size: u32,
    pub(crate) secret_poly: Vec<i16>,
    tag: [u8; 4],
}

struct Plain {
    a: u64,
    b: u64,
}

pub struct Tuple(u32, u32);

pub struct Generic<T: Clone> {
    inner: T,
}
"#;

    #[test]
    fn extracts_fields_and_public_annotations() {
        let mut fm = FieldMap::new();
        fm.add_file("k.rs", SRC);
        let key = fm.get("Key").expect("Key extracted");
        assert_eq!(key.fields, vec!["size", "secret_poly", "tag"]);
        assert_eq!(key.public_fields, vec!["size", "tag"]);
        assert!(key.field_sensitive());
        let plain = fm.get("Plain").expect("Plain extracted");
        assert_eq!(plain.fields, vec!["a", "b"]);
        assert!(!plain.field_sensitive());
        assert!(fm.get("Tuple").is_none(), "tuple structs have no named fields");
        assert_eq!(fm.get("Generic").expect("generic").fields, vec!["inner"]);
    }

    #[test]
    fn sensitive_lookup_sees_through_references() {
        let mut fm = FieldMap::new();
        fm.add_file("k.rs", SRC);
        assert_eq!(fm.sensitive_in_type("&Key").map(|s| s.name.as_str()), Some("Key"));
        assert!(fm.sensitive_in_type("&Plain").is_none(), "unannotated structs stay whole");
        assert!(fm.sensitive_in_type("u64").is_none());
    }

    #[test]
    fn duplicate_definitions_are_dropped() {
        let mut fm = FieldMap::new();
        fm.add_file("a.rs", "pub struct D {\n // ct: public(x)\n x: u32,\n}\n");
        fm.add_file("b.rs", "pub struct D {\n y: u32,\n}\n");
        assert!(fm.get("D").is_none(), "ambiguous layouts must not steer seeding");
    }
}
