//! Minimal JSON utilities shared by the exporters and the serving wire
//! protocol: string escaping, number formatting, and the workspace's one
//! JSON reader — a panic-free, depth-bounded value parser ([`parse`]) that
//! [`validate`] also runs.
//!
//! The grammar is full JSON minus two deliberate bounds: nesting depth is
//! capped at [`MAX_DEPTH`] (a hostile `[[[[…` cannot blow the stack) and
//! numbers are parsed through `f64::from_str` and must be finite (integers
//! above 2^53 lose precision, which no field needs). Every code path
//! returns `Err` on malformed input — the serve fuzz suite feeds arbitrary
//! bytes through [`parse`] and asserts it never panics.

/// Escapes `s` as a JSON string literal (including the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number; non-finite values become `null`
/// (JSON has no NaN/Infinity).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Validates that `s` is one complete JSON value (object, array, string,
/// finite number, `true`/`false`/`null`) nested at most [`MAX_DEPTH`]
/// deep, with nothing but whitespace after it.
///
/// # Errors
///
/// Returns [`parse`]'s message naming the offset of the first violation.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

/// Maximum nesting depth accepted by [`parse`].
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always held as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in source order (later duplicates win on
    /// [`JsonValue::get`] lookups only by being found first — we keep the
    /// first occurrence, matching a strict reading).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        // `u64::MAX as f64` rounds up to 2^64, one past the largest u64,
        // so the bound is strict.
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
        *pos += 1;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
            *pos += 1;
        }
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 number".to_string())?;
    // Reject the shapes from_str accepts but JSON does not.
    if text.is_empty()
        || text == "-"
        || text.ends_with('.')
        || text.ends_with(['e', 'E', '+', '-'])
        || text.contains(".e")
        || text.contains(".E")
        || text.starts_with('.')
        || text.starts_with("-.")
    {
        return Err(format!("invalid number at offset {start}"));
    }
    let v: f64 = text
        .parse()
        .map_err(|_| format!("invalid number at offset {start}"))?;
    if !v.is_finite() {
        return Err(format!("non-finite number at offset {start}"));
    }
    Ok(JsonValue::Num(v))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        // Exactly four hex digits: `from_str_radix` alone
                        // would also take a sign, as in `\u+041`.
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err("invalid \\u escape".to_string());
                        }
                        let hex = std::str::from_utf8(hex).map_err(|_| "non-utf8 \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                        // Surrogates are replaced rather than paired — no
                        // request field carries astral-plane text.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("invalid escape".to_string()),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err("control byte in string".to_string()),
            Some(_) => {
                // Copy the run up to the next quote, escape or control
                // byte. Those are ASCII, so the run ends on a UTF-8
                // boundary of the input &str.
                let start = *pos;
                while matches!(bytes.get(*pos), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20) {
                    *pos += 1;
                }
                let run =
                    std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 string")?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-3.25e-2",
            r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": []}}"#,
            "  {\n\"k\"\t: 1e9 }  ",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "{]",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "01x",
            "{} extra",
            "NaN",
            "{\"a\" 1}",
        ] {
            assert!(validate(doc).is_err(), "{doc:?} should be rejected");
        }
    }

    #[test]
    fn escape_round_trips_through_validate() {
        let s = escape("a\"b\\c\nd\u{1}e");
        validate(&s).unwrap();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001e\"");
    }

    #[test]
    fn as_u64_rejects_two_to_the_64() {
        // 2^64 itself used to pass `<= u64::MAX as f64` and saturate.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("1e20").unwrap().as_u64(), None);
        // The largest f64 below 2^64 is still an exact u64.
        assert_eq!(
            parse("18446744073709549568").unwrap().as_u64(),
            Some(18_446_744_073_709_549_568)
        );
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        // `u32::from_str_radix` takes a leading sign; the escape must not.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u04G1""#, r#""\u041""#] {
            assert!(parse(bad).is_err(), "parse must reject {bad}");
            assert!(validate(bad).is_err(), "validate must reject {bad}");
        }
        assert_eq!(parse(r#""\u004a\u004A""#).unwrap().as_str(), Some("JJ"));
    }

    #[test]
    fn validate_bounds_depth_and_rejects_non_finite_numbers() {
        assert!(validate("1e999").is_err());
        assert!(validate("[-1e400]").is_err());
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        assert!(validate(&deep).is_err());
        // Deep enough to overflow an unbounded recursive checker.
        let hostile = "[".repeat(1 << 20);
        assert!(validate(&hostile).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let s = "é".repeat(200_000);
        let doc = format!("{{\"k\": \"{s}\"}}");
        assert_eq!(
            parse(&doc).unwrap().get("k").and_then(JsonValue::as_str),
            Some(s.as_str())
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(1.5), "1.5");
    }
}
