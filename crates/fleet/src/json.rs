//! A minimal JSON reader for the fleet's own wire formats.
//!
//! The workspace is dependency-free by design, so the orchestrator parses
//! agent metric lines (`fabric::metrics::MetricsSnapshot::to_json_line`),
//! and the tests read fleet summaries back, with this ~150-line
//! recursive-descent reader instead of serde. It accepts exactly the JSON the repo's tools emit:
//! objects, arrays, strings with the standard escapes, f64 numbers,
//! `true`/`false`/`null`. Object key order is preserved so re-rendering
//! stays deterministic.

/// A parsed JSON value. Numbers are kept as `f64`; every integer the
/// fleet's formats carry (bucket counts, virtual-ns totals) fits in the
/// 53-bit mantissa.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64` (must be a non-negative integral number).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse `text` as one JSON value (trailing whitespace allowed, trailing
/// garbage rejected). Errors carry a byte offset and a short reason.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => Ok(Json::Str(string(b, pos)?)),
        Some(b't') => literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => literal(b, pos, "null", Json::Null),
        Some(_) => number(b, pos),
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-utf8 number".to_string())?;
    s.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {s:?} at byte {start}"))
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
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
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        *pos += 4;
                        // Surrogates never appear in the fleet's formats;
                        // map them to the replacement character.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            Some(&c) => {
                // Multi-byte UTF-8 passes through unchanged.
                let ch_len = utf8_len(c);
                let chunk = b.get(*pos..*pos + ch_len).ok_or("truncated utf8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| "bad utf8".to_string())?);
                *pos += ch_len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(b[*pos], b'{');
    *pos += 1;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        members.push((key, value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(b[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(value(b, pos)?);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_metrics_line_shape() {
        let j = parse(
            r#"{"ranks":2,"counters":{"puts":3},"classes":[{"class":"put","count":3,"lat":[[5,2],[7,1]]}],"dropped":0}"#,
        )
        .unwrap();
        assert_eq!(j.get("ranks").unwrap().as_u64(), Some(2));
        let classes = j.get("classes").unwrap().as_arr().unwrap();
        assert_eq!(classes[0].get("class").unwrap().as_str(), Some("put"));
        let lat = classes[0].get("lat").unwrap().as_arr().unwrap();
        assert_eq!(lat[1].as_arr().unwrap()[0].as_u64(), Some(7));
    }

    #[test]
    fn strings_decode_escapes() {
        let j = parse(r#"{"k":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(j.get("k").unwrap().as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn numbers_and_literals() {
        let j = parse(r#"[0, -1.5, 2e3, true, false, null]"#).unwrap();
        let a = j.as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(0));
        assert_eq!(a[1].as_f64(), Some(-1.5));
        assert_eq!(a[2].as_f64(), Some(2000.0));
        assert_eq!(a[3], Json::Bool(true));
        assert_eq!(a[4], Json::Bool(false));
        assert_eq!(a[5], Json::Null);
        assert_eq!(a[1].as_u64(), None, "negative/fractional numbers are not u64");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "{\"a\":1} x", "nul", "\"open"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn preserves_object_key_order() {
        let j = parse(r#"{"z":1,"a":2}"#).unwrap();
        match j {
            Json::Obj(m) => {
                assert_eq!(m[0].0, "z");
                assert_eq!(m[1].0, "a");
            }
            _ => panic!("expected object"),
        }
    }
}
