//! The workspace's one JSON layer: a [`Value`] tree, one writer and one
//! strict parser.
//!
//! Every JSON document the workspace reads or writes goes through here:
//! `dide stats` documents, `BENCH.json`, and the campaign store's records
//! and cursor. Objects keep their member order and numbers keep their
//! source text, so rendering is deterministic and a parsed document
//! re-renders byte for byte in the layout it was written in.
//!
//! Three layouts cover every document: [`Value::to_compact`] (one line, no
//! spaces: store records), [`Value::to_pretty`] (two-space indentation, one
//! member per line: stats documents) and [`Value::to_pretty_with`], which
//! puts chosen members on one line (`BENCH.json`). Empty containers render
//! as `[]` and `{}` in every layout.
//!
//! ```
//! use dide_obs::json::{self, Value};
//!
//! let doc = Value::object([("name", "expr".into()), ("ratio", Value::fixed(0.25, 3))]);
//! assert_eq!(doc.to_compact(), r#"{"name":"expr","ratio":0.250}"#);
//! assert_eq!(json::parse(&doc.to_pretty()).unwrap(), doc);
//! assert_eq!(json::parse("[1,]").unwrap_err().to_string(), "1:4: expected a value, found `]`");
//! ```

use std::fmt::{self, Write as _};

/// Deepest container nesting [`parse`] accepts, so hostile input cannot
/// exhaust the stack.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, held as its JSON text (`12`, `0.250`, `-1e3`) so the
    /// writer's formatting survives a parse.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: members in document order.
    Object(Vec<(String, Value)>),
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n.to_string())
            }
        }
    )*};
}
from_integer!(u32, u64, u128, usize);

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl Value {
    /// An object from `(key, value)` members, in order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A number with exactly `decimals` digits after the point.
    #[must_use]
    pub fn fixed(x: f64, decimals: usize) -> Value {
        Value::Num(format!("{x:.decimals$}"))
    }

    /// The first member named `key`, if this is an object that has one.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a non-negative integer that fits a `u64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(text) if text.bytes().all(|b| b.is_ascii_digit()) => text.parse().ok(),
            _ => None,
        }
    }

    /// Renders on one line with no spaces: `{"a":1,"b":[true,null]}`.
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Compact, 0);
        out
    }

    /// Renders with two-space indentation, one member or element per line
    /// and `": "` after each key. No trailing newline.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        self.to_pretty_with(&|_| false)
    }

    /// Like [`Value::to_pretty`], except that the value of every object
    /// member whose key satisfies `one_line` renders on a single line, with
    /// `", "` and `": "` separators.
    #[must_use]
    pub fn to_pretty_with(&self, one_line: &dyn Fn(&str) -> bool) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Pretty(one_line), 0);
        out
    }

    fn write(&self, out: &mut String, layout: Layout, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(text) => out.push_str(text),
            Value::Str(s) => write_str(out, s),
            Value::Array(items) => {
                write_container(out, ('[', ']'), items.iter().map(|v| (None, v)), layout, depth);
            }
            Value::Object(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_container(out, ('{', '}'), members, layout, depth);
            }
        }
    }
}

/// How [`Value::write`] lays out containers.
#[derive(Clone, Copy)]
enum Layout<'a> {
    /// `,` and `:` separators, no whitespace.
    Compact,
    /// `, ` and `: ` separators on one line.
    OneLine,
    /// One item per line; members whose key satisfies the predicate
    /// switch to [`Layout::OneLine`].
    Pretty(&'a dyn Fn(&str) -> bool),
}

fn write_container<'v>(
    out: &mut String,
    (open, close): (char, char),
    items: impl ExactSizeIterator<Item = (Option<&'v str>, &'v Value)>,
    layout: Layout,
    depth: usize,
) {
    out.push(open);
    let empty = items.len() == 0;
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        match layout {
            Layout::Compact => {}
            Layout::OneLine if i == 0 => {}
            Layout::OneLine => out.push(' '),
            Layout::Pretty(_) => indent(out, depth + 1),
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(if matches!(layout, Layout::Compact) { ":" } else { ": " });
        }
        let inner = match layout {
            Layout::Pretty(one_line) if key.is_some_and(one_line) => Layout::OneLine,
            other => other,
        };
        value.write(out, inner, depth + 1);
    }
    if !empty && matches!(layout, Layout::Pretty(_)) {
        indent(out, depth);
    }
    out.push(close);
}

fn indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes `s` as a JSON string: `"` and `\` escaped, `\n`, `\r` and `\t`
/// by name, other control characters as `\u00XX`, everything else as is.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Where and why [`parse`] rejected its input. Displays as
/// `line:col: message`, both 1-based, the column counted in characters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending character.
    pub line: usize,
    /// 1-based column of the offending character.
    pub col: usize,
    /// What was wrong, on one line.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (RFC 8259): exactly one value, optionally
/// surrounded by whitespace.
///
/// # Errors
///
/// A [`ParseError`] at the first character that does not fit the grammar,
/// including trailing content after the value and nesting deeper than 128.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut parser = Parser { text, pos: 0, depth: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos < text.len() {
        return Err(parser.unexpected("end of input"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next character; always on a char boundary.
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn error(&self, msg: String) -> ParseError {
        let before = &self.text[..self.pos];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        ParseError {
            line: before.matches('\n').count() + 1,
            col: before[line_start..].chars().count() + 1,
            msg,
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        let found = match self.text[self.pos..].chars().next() {
            None => "end of input".to_string(),
            Some(c) if c.is_control() => format!("{c:?}"),
            Some(c) => format!("`{c}`"),
        };
        self.error(format!("expected {expected}, found {found}"))
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8, what: &str) -> Result<(), ParseError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.container(b'}'),
            Some(b'[') => self.container(b']'),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.unexpected("a value")),
        }
    }

    /// An array (`close == b']'`) or object (`close == b'}'`), with the
    /// cursor on its opening bracket.
    fn container(&mut self, close: u8) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        let (mut items, mut members) = (Vec::new(), Vec::new());
        self.skip_ws();
        if !self.eat(close) {
            loop {
                if close == b']' {
                    items.push(self.value()?);
                } else {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.unexpected("a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':', "`:`")?;
                    members.push((key, self.value()?));
                }
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                self.expect(b',', if close == b']' { "`,` or `]`" } else { "`,` or `}`" })?;
            }
        }
        self.depth -= 1;
        Ok(if close == b']' { Value::Array(items) } else { Value::Object(members) })
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.unexpected("a value"));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        Ok(Value::Num(self.text[start..self.pos].to_string()))
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), ParseError> {
        let n = self.text[self.pos..].bytes().take_while(u8::is_ascii_digit).count();
        if n == 0 {
            return Err(self.unexpected("a digit"));
        }
        self.pos += n;
        Ok(())
    }

    /// A string, with the cursor on its opening quote.
    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters in one go; it ends on an
            // ASCII byte, so the slice stays on char boundaries.
            let rest = &self.text[self.pos..];
            let run = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20);
            out.push_str(&rest[..run.unwrap_or(rest.len())]);
            self.pos += run.unwrap_or(rest.len());
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                None => return Err(self.error("unterminated string".to_string())),
                Some(b) => {
                    let c = char::from(b);
                    return Err(self.error(format!("unescaped control character {c:?} in string")));
                }
            }
        }
    }

    /// The character an escape denotes, with the cursor after its `\`.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let high = self.hex4()?;
                // A high surrogate followed by a `\u` escape forms a pair.
                let code = if (0xd800..0xdc00).contains(&high)
                    && self.text[self.pos..].starts_with("\\u")
                {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.error(format!("`\\u{low:04x}` is not a low surrogate")));
                    }
                    0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                } else {
                    high
                };
                return char::from_u32(code)
                    .ok_or_else(|| self.error(format!("lone surrogate `\\u{code:04x}`")));
            }
            _ => return Err(self.unexpected("an escape character")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Four hex digits, as a UTF-16 code unit.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let Some(hex) = hex else { return Err(self.unexpected("four hex digits")) };
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits parse"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::object([
            ("name", "a\"b\\c\u{1}é".into()),
            ("n", Value::from(u64::MAX)),
            ("ratio", Value::fixed(7.64, 1)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            ("list", Value::Array(vec![1u32.into(), Value::Array(Vec::new())])),
            ("inline", Value::object([("a", 1u32.into()), ("b", 2u32.into())])),
            ("empty", Value::Object(Vec::new())),
        ])
    }

    #[test]
    fn layouts_render_exactly() {
        let v = sample();
        assert_eq!(
            v.to_compact(),
            r#"{"name":"a\"b\\c\u0001é","n":18446744073709551615,"ratio":7.6,"ok":true,"none":null,"list":[1,[]],"inline":{"a":1,"b":2},"empty":{}}"#
        );
        let pretty = concat!(
            "{\n",
            "  \"name\": \"a\\\"b\\\\c\\u0001é\",\n",
            "  \"n\": 18446744073709551615,\n",
            "  \"ratio\": 7.6,\n",
            "  \"ok\": true,\n",
            "  \"none\": null,\n",
            "  \"list\": [\n",
            "    1,\n",
            "    []\n",
            "  ],\n",
            "  \"inline\": {\"a\": 1, \"b\": 2},\n",
            "  \"empty\": {}\n",
            "}",
        );
        assert_eq!(v.to_pretty_with(&|k| k == "inline"), pretty);
        assert_eq!(
            v.to_pretty(),
            pretty.replace("{\"a\": 1, \"b\": 2}", "{\n    \"a\": 1,\n    \"b\": 2\n  }")
        );
    }

    #[test]
    fn parse_inverts_every_layout() {
        let v = sample();
        for text in [v.to_compact(), v.to_pretty(), v.to_pretty_with(&|_| true)] {
            assert_eq!(parse(&text), Ok(v.clone()), "{text}");
        }
        assert_eq!(parse(" \t\r\n-0.5e+3 \n"), Ok(Value::Num("-0.5e+3".into())));
        assert_eq!(parse(r#""\/\b\f😀é""#), Ok("/\u{8}\u{c}😀é".into()));
    }

    #[test]
    fn accessors_read_objects_strings_and_integers() {
        let v = sample();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(u64::MAX));
        assert_eq!(v.get("ratio").and_then(Value::as_u64), None);
        assert_eq!(v.get("name").and_then(Value::as_str), Some("a\"b\\c\u{1}é"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Num("18446744073709551616".into()).as_u64(), None);
        assert_eq!(Value::Num("-1".into()).as_u64(), None);
    }

    #[test]
    fn errors_name_line_and_column() {
        let err = |text: &str| parse(text).unwrap_err().to_string();
        assert_eq!(err(""), "1:1: expected a value, found end of input");
        assert_eq!(err("this is not json"), "1:1: expected a value, found `t`");
        assert_eq!(err("{\n  \"a\": 1,\n  \"b\" 2\n}"), "3:7: expected `:`, found `2`");
        assert_eq!(err("{\"é\": x}"), "1:7: expected a value, found `x`");
        assert_eq!(err("[1 2]"), "1:4: expected `,` or `]`, found `2`");
        assert_eq!(err("{\"a\":1,}"), "1:8: expected a string key, found `}`");
        assert_eq!(err("{} {}"), "1:4: expected end of input, found `{`");
        assert_eq!(err("\"a\nb\""), "1:3: unescaped control character '\\n' in string");
        assert_eq!(err("\"abc"), "1:5: unterminated string");
        assert_eq!(err("01"), "1:2: expected end of input, found `1`");
        assert_eq!(err("1."), "1:3: expected a digit, found end of input");
        assert_eq!(err("-"), "1:2: expected a digit, found end of input");
        assert_eq!(err("tru"), "1:1: expected a value, found `t`");
        assert_eq!(err(r#""\x""#), "1:3: expected an escape character, found `x`");
        assert_eq!(err(r#""\ud800""#), "1:8: lone surrogate `\\ud800`");
        assert_eq!(err(r#""\udc00""#), "1:8: lone surrogate `\\udc00`");
        assert_eq!(err(r#""\ud800\u0041""#), "1:14: `\\u0041` is not a low surrogate");
        assert_eq!(err(r#""\u12g4""#), "1:4: expected four hex digits, found `1`");
        assert_eq!(err(&"[".repeat(200)), "1:129: nesting deeper than 128");
        assert!(parse(&format!("{}{}", "[".repeat(128), "]".repeat(128))).is_ok());
    }
}
