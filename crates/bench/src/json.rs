//! Minimal JSON document builder for the machine-readable bench outputs
//! (`BENCH_kernel.json`, `BENCH_stream.json`, `BENCH_orch.json` and
//! attackbench's JSONL records).
//!
//! The event layer in `falcon-obs` renders flat one-line records; bench
//! reports want nested objects and arrays, so this module provides the
//! tiny writer side of that shape — no parsing, no external dependency.
//! Non-finite floats render as `null` so the output is always valid
//! JSON.

use falcon_obs::event::escape_into;

/// A JSON value under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (rendered without a decimal point).
    U64(u64),
    /// Floating point (round-trip precision; non-finite → `null`).
    F64(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or appends — keys are not deduplicated) a field to an
    /// object. Panics when `self` is not an object.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("Json::field on a non-object"),
        }
        self
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline — the stable on-disk format of the BENCH_*.json files.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::F64(x) if !x.is_finite() => out.push_str("null"),
            Json::F64(x) => out.push_str(&format!("{x:?}")),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    escape_into(k, out);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let doc = Json::obj()
            .field("name", "pipeline")
            .field("ok", true)
            .field("count", 3usize)
            .field("rate", 12.5)
            .field("runs", vec![Json::obj().field("n", 8u64), Json::obj().field("n", 16u64)]);
        let text = doc.render();
        assert!(text.starts_with('{') && text.ends_with("}\n"), "{text}");
        assert!(text.contains("\"name\": \"pipeline\""));
        assert!(text.contains("\"rate\": 12.5"));
        assert!(text.contains("\"n\": 16"));
    }

    #[test]
    fn escapes_and_nulls() {
        let doc = Json::obj().field("s", "a\"b\\c\nd").field("bad", f64::NAN);
        let text = doc.render();
        assert!(text.contains(r#""s": "a\"b\\c\nd""#), "{text}");
        assert!(text.contains("\"bad\": null"));
    }

    #[test]
    fn empty_containers_stay_compact() {
        let doc = Json::obj().field("a", Json::Arr(Vec::new())).field("o", Json::obj());
        assert!(doc.render().contains("\"a\": []"));
        assert!(doc.render().contains("\"o\": {}"));
    }
}
