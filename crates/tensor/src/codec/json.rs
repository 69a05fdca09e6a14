//! The workspace's one JSON implementation (no serde: the build is
//! offline): a tree, a recursive-descent parser, and the string escaper
//! every hand-built JSON line (trace events, served responses) goes
//! through.
//!
//! - **Deterministic emission.** [`Json::emit`] writes object members in
//!   stored order and numbers in shortest-roundtrip `{}` formatting, so
//!   identical trees serialize to identical bytes.
//! - **Roundtrip fidelity.** `parse(emit(v))` reproduces `v`; non-finite
//!   floats are emitted as quoted strings (`"NaN"`, `"inf"`), as the
//!   training trace does, and [`Json::as_f64`] parses them back.

use std::fmt::{self, Write as _};

/// A parsed or constructed JSON value. Object member order is preserved
/// (no map type), so emission is deterministic by construction.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Emitted via `{}` (shortest roundtrip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered member list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup (linear scan; ledger objects are small).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Num`, or a quoted non-finite float (`"NaN"`,
    /// `"inf"`, `"-inf"`) as emitted by [`emit_f64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// Integer view of a `Num` (exact for |v| ≤ 2^53, which covers every
    /// seed and count the ledger stores).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Set member `key` of an object: replace its value in place when the
    /// key exists, else append it. A non-object becomes a one-member
    /// object.
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Obj(members) = self else {
            *self = Json::Obj(vec![(key.to_string(), value)]);
            return;
        };
        match members.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => members.push((key.to_string(), value)),
        }
    }

    /// Render an object one top-level member per line, ending in a
    /// newline: the readable, diffable layout of the `BENCH_*.json`
    /// artifacts. Any other value renders as [`Json::emit`] plus a newline.
    pub fn emit_members_per_line(&self) -> String {
        let Json::Obj(members) = self else {
            return self.emit() + "\n";
        };
        let lines: Vec<String> = members
            .iter()
            .map(|(k, v)| format!("\n  {}: {}", json_str(k), v.emit()))
            .collect();
        format!("{{{}\n}}\n", lines.join(","))
    }

    /// Render as a single-line JSON document.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => out.push_str(&emit_f64(*v)),
            Json::Str(s) => push_json_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(out, k);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Format a float as a JSON value: shortest-roundtrip decimal, with
/// non-finite values quoted (JSON has no literal for them).
pub fn emit_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("\"{v}\"")
    }
}

/// Append `value` to `out` as a JSON string literal (including the
/// surrounding quotes), escaping `"`, `\`, and control characters per
/// RFC 8259. Everything else is passed through unchanged: the output is
/// UTF-8 JSON, not ASCII-armored.
pub fn push_json_str(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// [`push_json_str`] into a fresh `String`.
pub fn json_str(value: &str) -> String {
    let mut s = String::with_capacity(value.len() + 2);
    push_json_str(&mut s, value);
    s
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so without a bound one line of a few hundred
/// kilobytes of `[` overflows the thread's stack and aborts the process;
/// the documents this workspace writes nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Why [`parse`] rejected its input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Arrays and objects nest deeper than [`MAX_DEPTH`]; `pos` is the
    /// byte offset of the first bracket past the limit.
    TooDeep {
        /// Byte offset of that bracket.
        pos: usize,
    },
    /// Any other malformed input, described.
    Syntax(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooDeep { pos } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {pos}")
            }
            Self::Syntax(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<String> for ParseError {
    fn from(msg: String) -> Self {
        Self::Syntax(msg)
    }
}

impl From<&str> for ParseError {
    fn from(msg: &str) -> Self {
        Self::Syntax(msg.to_string())
    }
}

/// Callers that report errors as text (the ledger and lease replays) keep
/// using `?`.
impl From<ParseError> for String {
    fn from(e: ParseError) -> Self {
        e.to_string()
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}").into());
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// One value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(ParseError::TooDeep { pos: *pos }),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_str(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos).into())
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    token
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{token}' at byte {start}").into())
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Ledger strings are vocabulary words and labels:
                        // no surrogate pairs are ever emitted, so a lone
                        // surrogate is replaced rather than paired up.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape '\\{}'", other as char).into()),
                }
            }
            _ => {
                // Multi-byte UTF-8: re-sync on the char boundary.
                let ch_start = *pos - 1;
                let width = utf8_width(b);
                let end = ch_start + width;
                let s = bytes
                    .get(ch_start..end)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or("invalid UTF-8 in string")?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
}

fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos).into()),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos).into());
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos).into());
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos).into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decode a JSON string literal back to its value: the test-side
    /// inverse of [`push_json_str`], so escaping is verified by round
    /// trip rather than by eyeballing backslash counts.
    fn unescape(lit: &str) -> String {
        let inner = lit
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .expect("quoted literal");
        let mut out = String::new();
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                assert!(c as u32 >= 0x20, "unescaped control char {:#x}", c as u32);
                assert_ne!(c, '"', "unescaped quote inside literal");
                out.push(c);
                continue;
            }
            match chars.next().expect("escape payload") {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).map(|_| chars.next().expect("hex digit")).collect();
                    let code = u32::from_str_radix(&hex, 16).expect("hex escape");
                    out.push(char::from_u32(code).expect("BMP scalar"));
                }
                other => panic!("unexpected escape \\{other}"),
            }
        }
        out
    }

    #[test]
    fn round_trips_quotes_backslashes_and_control_chars() {
        for value in [
            "plain words",
            "a \"quoted\" phrase",
            "C:\\path\\to\\model",
            "trailing backslash \\",
            "newline\nand\ttab\rand\x01bell\x07",
            "unicode: naïve café 日本語",
            "mixed \\\" both \"\\ orders",
            "",
        ] {
            let lit = json_str(value);
            assert_eq!(unescape(&lit), value, "literal was {lit}");
            assert_eq!(parse(&lit).unwrap().as_str(), Some(value));
        }
    }

    #[test]
    fn exact_escapes() {
        assert_eq!(json_str(r#"say "hi""#), r#""say \"hi\"""#);
        assert_eq!(json_str(r"back\slash"), r#""back\\slash""#);
        assert_eq!(json_str("ctrl\x02"), r#""ctrl\u0002""#);
        assert_eq!(json_str("nl\n"), r#""nl\n""#);
    }

    #[test]
    fn set_replaces_in_place_or_appends() {
        let mut doc = parse(r#"{"a":{"gate":1},"b":"ke\"ep }","c":3}"#).unwrap();
        doc.set("a", Json::Arr(vec![Json::Num(9.0)]));
        doc.set("gate", Json::Num(7.0));
        assert_eq!(doc.emit(), r#"{"a":[9],"b":"ke\"ep }","c":3,"gate":7}"#);
        let mut not_obj = Json::Null;
        not_obj.set("k", Json::Bool(true));
        assert_eq!(not_obj.emit(), r#"{"k":true}"#);
    }

    #[test]
    fn members_per_line_parses_back() {
        let doc = parse(r#"{"runs":[{"p50":1.5}],"pass":true}"#).unwrap();
        let text = doc.emit_members_per_line();
        assert_eq!(
            text,
            "{\n  \"runs\": [{\"p50\":1.5}],\n  \"pass\": true\n}\n"
        );
        assert_eq!(parse(&text).unwrap(), doc);
        assert_eq!(Json::Obj(Vec::new()).emit_members_per_line(), "{\n}\n");
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        // 100 000 levels (200 KB) overflowed an 8 MB stack before the bound.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert_eq!(parse(&deep), Err(ParseError::TooDeep { pos: MAX_DEPTH }));
        let objects = "{\"a\":".repeat(100_000);
        assert!(matches!(parse(&objects), Err(ParseError::TooDeep { .. })));
        // Exactly `MAX_DEPTH` levels still parse; one more does not.
        let at_limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&at_limit).is_ok());
        let past = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = parse(&past).unwrap_err();
        assert_eq!(err, ParseError::TooDeep { pos: MAX_DEPTH });
        assert_eq!(
            String::from(err),
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        assert!(matches!(parse("[1,"), Err(ParseError::Syntax(_))));
    }
}
