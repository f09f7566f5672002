//! A minimal JSON value and renderer (the workspace vendors no JSON
//! crate). Numbers keep every digit Rust's shortest round-trip
//! formatting gives them; non-finite numbers render as `null`.

use std::fmt::Write;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A floating-point number.
    Num(f64),
    /// A whole number.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Renders compactly on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => {
                // `{:?}` keeps a fractional part on whole floats (1.0),
                // which JSON readers accept either way.
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
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

#[cfg(test)]
pub mod check {
    //! A strict recursive-descent JSON parser for the self-tests: proves
    //! that what the benchmark prints parses, and reads `BENCHMARK.json`.

    use super::Json;

    /// Parses one complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\n' | b'\r' | b'\t') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit} at {pos}"))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
            Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
            Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
            Some(b'"') => string(b, pos).map(Json::Str),
            Some(b'[') => {
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
                        _ => return Err(format!("bad array at {pos}")),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut pairs = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    skip_ws(b, pos);
                    let k = string(b, pos)?;
                    skip_ws(b, pos);
                    expect(b, pos, ":")?;
                    pairs.push((k, value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("bad object at {pos}")),
                    }
                }
            }
            Some(_) => number(b, pos),
            None => Err("unexpected end".into()),
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, "\"")?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = *b.get(*pos + 1).ok_or("bad escape")?;
                    *pos += 2;
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
                            let hex =
                                std::str::from_utf8(b.get(*pos..*pos + 4).ok_or("short \\u")?)
                                    .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad code point")?);
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at {pos}")),
                    }
                }
                Some(&c) if c < 0x20 => return Err("control byte in string".into()),
                Some(_) => {
                    let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    *pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let digits = |pos: &mut usize| {
            let s = *pos;
            while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            *pos > s
        };
        if !digits(pos) {
            return Err(format!("bad number at {start}"));
        }
        if b.get(*pos) == Some(&b'.') {
            *pos += 1;
            if !digits(pos) {
                return Err(format!("bad fraction at {start}"));
            }
        }
        if matches!(b.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(b.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            if !digits(pos) {
                return Err(format!("bad exponent at {start}"));
            }
        }
        let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::check::parse;
    use super::*;

    #[test]
    fn rendered_values_parse_back() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("value", Json::Num(1.2034)),
            ("tiny", Json::Num(3.5e-7)),
            ("whole", Json::Num(2.0)),
            ("nan", Json::Num(f64::NAN)),
            (
                "text",
                Json::str("quote \" slash \\ tab \t nl \n ctl \u{1}"),
            ),
            ("list", Json::Arr(vec![Json::Null, Json::Int(0)])),
            ("empty", Json::obj(Vec::<(String, Json)>::new())),
        ]);
        let text = v.render();
        assert!(!text.contains('\n'));
        let back = parse(&text).unwrap();
        let Json::Obj(pairs) = back else {
            panic!("not an object")
        };
        assert_eq!(pairs.len(), 9);
        assert_eq!(pairs[2].1, Json::Num(1.2034));
        assert_eq!(pairs[3].1, Json::Num(3.5e-7));
        assert_eq!(pairs[5].1, Json::Null);
        assert_eq!(
            pairs[6].1,
            Json::str("quote \" slash \\ tab \t nl \n ctl \u{1}")
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "01x", "\"open", "{} {}", "1."] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
