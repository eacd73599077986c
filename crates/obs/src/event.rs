//! Structured events and their JSON-lines rendering.
//!
//! An [`Event`] is a flat record: a name plus key/value fields. The
//! rendering is one JSON object per line with the event name under the
//! reserved `"ev"` key — greppable, streamable, and parseable by the
//! minimal [`parse_jsonl`] reader without any external dependency.

/// A field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (rendered with enough digits to round-trip).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (JSON-escaped on render).
    Str(String),
}

/// A structured event: name plus ordered key/value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (the JSON `"ev"` field).
    pub name: &'static str,
    /// Ordered fields.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Starts an event with no fields.
    pub fn new(name: &'static str) -> Event {
        Event { name, fields: Vec::new() }
    }

    /// Adds an unsigned-integer field.
    #[must_use]
    pub fn with_u64(mut self, key: &'static str, v: u64) -> Event {
        self.fields.push((key, Value::U64(v)));
        self
    }

    /// Adds a signed-integer field.
    #[must_use]
    pub fn with_i64(mut self, key: &'static str, v: i64) -> Event {
        self.fields.push((key, Value::I64(v)));
        self
    }

    /// Adds a floating-point field.
    #[must_use]
    pub fn with_f64(mut self, key: &'static str, v: f64) -> Event {
        self.fields.push((key, Value::F64(v)));
        self
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn with_bool(mut self, key: &'static str, v: bool) -> Event {
        self.fields.push((key, Value::Bool(v)));
        self
    }

    /// Adds a string field.
    #[must_use]
    pub fn with_str(mut self, key: &'static str, v: impl Into<String>) -> Event {
        self.fields.push((key, Value::Str(v.into())));
        self
    }

    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + 16 * self.fields.len());
        out.push_str("{\"ev\":");
        escape_into(self.name, &mut out);
        for (k, v) in &self.fields {
            out.push(',');
            escape_into(k, &mut out);
            out.push(':');
            match v {
                Value::U64(n) => out.push_str(&n.to_string()),
                Value::I64(n) => out.push_str(&n.to_string()),
                // `{:?}` prints f64 with round-trip precision and always
                // keeps a decimal point or exponent, so the parser can
                // tell it apart from an integer.
                Value::F64(x) => out.push_str(&format!("{x:?}")),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Str(s) => escape_into(s, &mut out),
            }
        }
        out.push('}');
        out
    }
}

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, `\n`/`\r`/`\t` get their short escapes and other
/// control characters `\u00XX`.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON line produced by [`Event::to_json`] back into its
/// `(key, value)` pairs (the event name appears under the `"ev"` key).
///
/// This is a reader for the flat subset of JSON this crate emits —
/// string/number/bool values, no nesting — sufficient for tests and
/// tooling to round-trip the sink output without a JSON dependency.
/// Returns `None` on any malformed input.
pub fn parse_jsonl(line: &str) -> Option<Vec<(String, Value)>> {
    let mut p = Parser { b: line.trim().as_bytes(), i: 0 };
    p.expect(b'{')?;
    let mut fields = Vec::new();
    if p.peek()? == b'}' {
        p.i += 1;
    } else {
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            let val = p.value()?;
            fields.push((key, val));
            match p.next_byte()? {
                b',' => continue,
                b'}' => break,
                _ => return None,
            }
        }
    }
    p.skip_ws();
    if p.i == p.b.len() {
        Some(fields)
    } else {
        None
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.i).copied()
    }

    fn next_byte(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        Some(c)
    }

    fn expect(&mut self, want: u8) -> Option<()> {
        (self.next_byte()? == want).then_some(())
    }

    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match *self.b.get(self.i)? {
                b'"' => {
                    self.i += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.i += 1;
                    match *self.b.get(self.i)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.b.get(self.i + 1..self.i + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.i += 4;
                        }
                        _ => return None,
                    }
                    self.i += 1;
                }
                _ => {
                    // Copy the run up to the next quote or escape in one
                    // step, so a long string parses in linear time. Both
                    // bytes are ASCII, so the run ends on a char boundary.
                    let rest = &self.b[self.i..];
                    let run = rest.iter().position(|c| matches!(c, b'"' | b'\\'));
                    let run = run.unwrap_or(rest.len());
                    out.push_str(std::str::from_utf8(&rest[..run]).ok()?);
                    self.i += run;
                }
            }
        }
    }

    fn value(&mut self) -> Option<Value> {
        match self.peek()? {
            b'"' => Some(Value::Str(self.string()?)),
            b't' => self.literal(b"true", Value::Bool(true)),
            b'f' => self.literal(b"false", Value::Bool(false)),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &[u8], v: Value) -> Option<Value> {
        if self.b.get(self.i..self.i + word.len())? == word {
            self.i += word.len();
            Some(v)
        } else {
            None
        }
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).ok()?;
        if text.contains(['.', 'e', 'E']) {
            text.parse().ok().map(Value::F64)
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped.parse::<u64>().ok()?;
            text.parse().ok().map(Value::I64)
        } else {
            text.parse().ok().map(Value::U64)
        }
    }
}
