//! Minimal self-contained JSON tree, emitter, and parser.
//!
//! The build environment vendors no serialization framework, so the JSON interchange used by
//! [`crate::export`] is implemented directly: a [`JsonValue`] tree with a pretty printer and
//! a strict recursive-descent parser.  Object key order is preserved (reports stay diffable),
//! and all string escapes required by RFC 8259 are handled on both paths.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

/// Error raised when parsing malformed JSON or reading a value with the wrong shape.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    message: String,
    /// Byte offset the parser had reached, when applicable.
    pub offset: usize,
}

impl JsonError {
    fn new(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset,
        }
    }

    /// A shape error (missing key, wrong type) detected while reading a parsed tree.
    pub fn shape(message: impl Into<String>) -> Self {
        JsonError::new(message, 0)
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required key, with a shape error naming the key on failure.
    pub fn require(&self, key: &str) -> Result<&JsonValue, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::shape(format!("missing key {key:?}")))
    }

    /// Reads the value as a float.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            JsonValue::Number(n) => Ok(*n),
            other => Err(JsonError::shape(format!("expected number, got {other:?}"))),
        }
    }

    /// Reads the value as a non-negative integer.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(JsonError::shape(format!("expected integer, got {n}")));
        }
        Ok(n as usize)
    }

    /// Reads the value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            JsonValue::String(s) => Ok(s),
            other => Err(JsonError::shape(format!("expected string, got {other:?}"))),
        }
    }

    /// Reads the value as an array slice.
    pub fn as_array(&self) -> Result<&[JsonValue], JsonError> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(JsonError::shape(format!("expected array, got {other:?}"))),
        }
    }

    /// Serializes the tree as pretty-printed JSON (two-space indent).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => out.push_str(&format_number(*n)),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::new("trailing characters", pos));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Formats a number the way serde_json does: integers without a fractional part.
fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        format!("{}", n as i64)
    } else {
        // `{}` on f64 is the shortest representation that round-trips.
        format!("{n}")
    }
}

/// Appends `s` to `out` as a quoted, RFC-8259-escaped JSON string literal.  Exposed so the
/// streaming JSON Lines sink ([`crate::export::JsonLinesSink`]) emits exactly the escapes
/// the tree emitter produces, without building a [`JsonValue`] per record.
pub fn escape_into(out: &mut String, s: &str) {
    write_escaped(out, s);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Maximum nesting depth accepted by the parser (matches serde_json's default recursion
/// cap): deeper documents return an error instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError::new("recursion limit exceeded", *pos));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::new("unexpected end of input", *pos)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(JsonError::new("expected ',' or ']'", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError::new("expected ':'", *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(entries));
                    }
                    _ => return Err(JsonError::new("expected ',' or '}'", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonError> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(JsonError::new(format!("expected {keyword:?}"), *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::new("expected string", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::new("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::new("truncated \\u escape", *pos))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::new("bad \\u escape", *pos))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::new("bad \\u escape", *pos))?;
                        // Surrogate pairs: only the BMP escapes our emitter produces are
                        // required; reject lone surrogates instead of silently corrupting.
                        let c = char::from_u32(cp)
                            .ok_or_else(|| JsonError::new("surrogate \\u escape", *pos))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(JsonError::new("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash as one slice: both
                // are ASCII, so a run never splits a UTF-8 sequence, and each byte is
                // validated once (the string parses in linear time).
                let start = *pos;
                let end = bytes[start..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |i| start + i);
                let run = std::str::from_utf8(&bytes[start..end])
                    .map_err(|_| JsonError::new("invalid utf-8", start))?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::new("invalid number", start))?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| JsonError::new(format!("invalid number {text:?}"), start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = JsonValue::Object(vec![
            ("name".into(), JsonValue::String("a \"b\"\n\t\\".into())),
            ("count".into(), JsonValue::Number(42.0)),
            ("ratio".into(), JsonValue::Number(0.125)),
            ("flag".into(), JsonValue::Bool(true)),
            ("nothing".into(), JsonValue::Null),
            (
                "items".into(),
                JsonValue::Array(vec![
                    JsonValue::Number(-3.0),
                    JsonValue::String("x".into()),
                    JsonValue::Object(vec![]),
                    JsonValue::Array(vec![]),
                ]),
            ),
        ]);
        let text = doc.to_pretty();
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(JsonValue::Number(42.0).to_pretty(), "42");
        assert_eq!(JsonValue::Number(0.5).to_pretty(), "0.5");
        assert_eq!(JsonValue::Number(-7.0).to_pretty(), "-7");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , \"\\u0041\\n\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_str().unwrap(),
            "A\n"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("\"abc").is_err());
        assert!(JsonValue::parse("12 34").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn shape_accessors_report_errors() {
        let v = JsonValue::parse("{\"n\": 1.5, \"s\": \"x\"}").unwrap();
        assert!(v.require("missing").is_err());
        assert!(v.get("n").unwrap().as_usize().is_err());
        assert!(v.get("s").unwrap().as_f64().is_err());
        assert_eq!(v.get("n").unwrap().as_f64().unwrap(), 1.5);
    }

    #[test]
    fn multi_megabyte_string_value_parses() {
        // One 4 MiB value mixing multi-byte characters with escapes: the parser must copy
        // runs, not rescan the rest of the document per character.
        let chunk = "log line — 日本 \"quoted\" \\ tab\t end\n";
        let value = chunk.repeat(4 * 1024 * 1024 / chunk.len());
        let doc = JsonValue::Object(vec![("payload".into(), JsonValue::String(value.clone()))]);
        let parsed = JsonValue::parse(&doc.to_pretty()).unwrap();
        assert_eq!(parsed.require("payload").unwrap().as_str().unwrap(), value);
    }

    #[test]
    fn unicode_survives_round_trip() {
        let doc = JsonValue::String("héllo — 日本 \u{1}".into());
        let text = doc.to_pretty();
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
    }
}
