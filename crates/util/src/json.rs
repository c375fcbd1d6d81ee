//! Hand-rolled JSON: the emission helpers and the reader behind every
//! artifact.
//!
//! The workspace writes every artifact (suite goldens, telemetry
//! snapshots, trace dumps) as hand-formatted JSON — no serde, per the no-new-deps
//! policy. [`escape`] and [`num`] are the only shared writer pieces:
//! everything else is plain `format!` at the call site, which keeps each
//! artifact's schema readable where it is produced.
//!
//! [`parse`] reads them back (`--check`, `paba report`):
//! a small recursive-descent parser for the full JSON grammar — objects,
//! arrays, strings with escapes, numbers, booleans, null — erring on the
//! side of strictness: trailing garbage, unterminated literals, and
//! malformed escapes are all hard errors naming the byte offset.

/// Escape a string for embedding in a JSON document (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Format a float as a JSON number; non-finite values become `null`
/// (JSON has no non-finite numbers; [`Json::as_f64`] maps `null` back to
/// NaN).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer token, kept exact (u64 seeds exceed the
    /// 2⁵³ range where doubles stay faithful).
    Int(u64),
    /// Any other number (doubles).
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order ([`Json::get`] returns the first
    /// match; our writer never emits duplicate keys).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, treating `null` as NaN (the writer emits `null` for
    /// non-finite statistics).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Exact unsigned integer value. `Int` tokens pass through losslessly;
    /// a `Num` qualifies only when it is integral and within the range
    /// doubles represent exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Nesting cap: recursion must return a parse error, not blow the stack,
/// on a corrupted/hostile document of `[[[[…`. Artifacts nest 3 deep.
const MAX_DEPTH: u32 = 64;

/// Parse a complete JSON document.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: u32) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos, depth),
        Some(b'[') => parse_arr(b, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number bytes");
    // Plain digit runs stay exact u64 (seeds overflow the f64-faithful
    // 2⁵³ range); everything else becomes a double.
    if text.bytes().all(|c| c.is_ascii_digit()) {
        if let Ok(i) = text.parse::<u64>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape")?,
                            16,
                        )
                        .map_err(|_| "invalid \\u escape")?;
                        // Surrogate pairs are not needed for our artifacts;
                        // reject rather than mis-decode.
                        out.push(
                            char::from_u32(code).ok_or("surrogate in \\u escape unsupported")?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&byte) if byte < 0x80 => {
                out.push(byte as char);
                *pos += 1;
            }
            Some(_) => {
                // Consume one multi-byte UTF-8 scalar. Validate at most the
                // next 4 bytes (a window cut mid-sequence still yields the
                // leading scalar via valid_up_to), keeping parsing linear.
                let chunk = &b[*pos..(*pos + 4).min(b.len())];
                let s = match std::str::from_utf8(chunk) {
                    Ok(s) => s,
                    Err(e) if e.valid_up_to() > 0 => {
                        std::str::from_utf8(&chunk[..e.valid_up_to()]).expect("validated prefix")
                    }
                    Err(_) => return Err("invalid utf-8 in string".into()),
                };
                let c = s.chars().next().expect("non-empty by valid_up_to guard");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: u32) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: u32) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn nested_structure() {
        let doc = r#"{"a": [1, 2, {"b": "x", "c": null}], "d": false}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("d").unwrap().as_bool(), Some(false));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_f64(), Some(2.0));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
        assert!(arr[2].get("c").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn string_escapes_round_trip() {
        let raw = "a\"b\\c\nd\te\u{1f}";
        let doc = format!("\"{}\"", escape(raw));
        assert_eq!(parse(&doc).unwrap(), Json::Str(raw.into()));
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(parse("\"λ≈é\"").unwrap(), Json::Str("λ≈é".into()));
        assert_eq!(parse("\"\\u03bb\"").unwrap(), Json::Str("λ".into()));
    }

    #[test]
    fn errors_are_loud() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("nulL").is_err());
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        // 2⁶⁴−1 would corrupt through an f64 detour; Int keeps it exact.
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        // as_u64 on doubles: integral-in-range passes, else None.
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
        assert_eq!(Json::Null.as_u64(), None);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{ }").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn pathological_nesting_errors_instead_of_overflowing() {
        // Within the cap: fine.
        let ok = format!("{}1{}", "[".repeat(60), "]".repeat(60));
        assert!(parse(&ok).is_ok());
        // Far beyond it: a parse error, not a stack overflow.
        let bomb = "[".repeat(200_000);
        let err = parse(&bomb).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let obj_bomb = "{\"k\":".repeat(100_000);
        assert!(parse(&obj_bomb).unwrap_err().contains("nesting"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn num_maps_non_finite_to_null() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn num_emits_null_for_nonfinite() {
        assert_eq!(num(1.25), "1.25");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }
}
