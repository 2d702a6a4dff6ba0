//! Offline stand-in for `serde_json`: a JSON printer and parser over the
//! vendored `serde` crate's [`Value`] data model.
//!
//! Provides the functions this workspace calls — [`to_string`],
//! [`to_string_pretty`], [`from_str`] — plus the [`Value`] re-export used
//! with `#[serde(flatten)]`. Number formatting uses Rust's shortest
//! round-trip float printing, so `f32` payloads survive a write/read cycle
//! exactly.

use std::fmt;

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// JSON serialization / parse error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error(e.to_string())
    }
}

fn escape_into(s: &str, out: &mut String) {
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

fn number_into(n: f64, out: &mut String) {
    if n.is_finite() {
        if n == n.trunc() && n.abs() < 1e15 {
            out.push_str(&format!("{}", n as i64));
        } else {
            out.push_str(&format!("{n}"));
        }
    } else {
        // JSON has no NaN/Inf; mirror serde_json's lossy-but-valid `null`.
        out.push_str("null");
    }
}

fn write_value(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => number_into(*n, out),
        // Exact at any magnitude — `Int` exists precisely so counters
        // above 2^53 don't round through f64.
        Value::Int(i) => out.push_str(&format!("{i}")),
        Value::String(s) => escape_into(s, out),
        Value::Array(vs) => {
            if vs.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in vs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(w) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * (depth + 1)));
                }
                write_value(item, indent, depth + 1, out);
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
            out.push(']');
        }
        Value::Object(kvs) => {
            if kvs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in kvs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(w) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * (depth + 1)));
                }
                escape_into(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, depth + 1, out);
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
            out.push('}');
        }
    }
}

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize_cow(), None, 0, &mut out);
    Ok(out)
}

/// Serialize a value to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize_cow(), Some(2), 0, &mut out);
    Ok(out)
}

/// Deepest array/object nesting [`from_str`] accepts, as in real
/// serde_json. The parser recurses once per level, so without a bound a
/// short line of `[`s from an untrusted client overflows the stack.
pub const RECURSION_LIMIT: usize = 128;

/// Parse JSON text into any [`Deserialize`] type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(T::deserialize_owned(v)?)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[' | b'{') => {
                if self.depth == RECURSION_LIMIT {
                    return Err(Error(format!(
                        "recursion limit exceeded at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| Error(e.to_string()))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| Error(format!("bad number {text:?}: {e}")))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(Error("unterminated string".into()));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error("unterminated escape".into()));
                    };
                    self.pos += 1;
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
                            if self.pos + 4 > self.bytes.len() {
                                return Err(Error("truncated \\u escape".into()));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|e| Error(e.to_string()))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|e| Error(e.to_string()))?;
                            self.pos += 4;
                            // Surrogate pairs: read the low half if present.
                            let cp = if (0xD800..0xDC00).contains(&cp)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                let hex2 = self
                                    .bytes
                                    .get(self.pos + 2..self.pos + 6)
                                    .ok_or_else(|| Error("truncated \\u escape".into()))?;
                                let hex2 = std::str::from_utf8(hex2)
                                    .map_err(|e| Error(e.to_string()))?;
                                let low = u32::from_str_radix(hex2, 16)
                                    .map_err(|e| Error(e.to_string()))?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(Error(
                                        "lone leading surrogate in \\u escape".into(),
                                    ));
                                }
                                self.pos += 6;
                                0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                cp
                            };
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(Error(format!("bad escape \\{}", other as char)))
                        }
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the byte before.
                    // A char is at most 4 bytes; validating all of the
                    // rest instead would make a line of non-ASCII text
                    // quadratic to parse.
                    let end = (self.pos + 3).min(self.bytes.len());
                    let rest = &self.bytes[self.pos - 1..end];
                    let s = std::str::from_utf8(rest)
                        .or_else(|e| {
                            std::str::from_utf8(&rest[..e.valid_up_to()])
                        })
                        .map_err(|e| Error(e.to_string()))?;
                    let ch = s.chars().next().ok_or_else(|| Error("bad utf8".into()))?;
                    out.push(ch);
                    self.pos += ch.len_utf8() - 1;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected , or ] at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error(format!("expected , or }} at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = Value::Object(vec![
            ("name".into(), Value::String("a \"b\"\n".into())),
            (
                "xs".into(),
                Value::Array(vec![Value::Number(1.5), Value::Number(-2.0), Value::Null]),
            ),
            ("ok".into(), Value::Bool(true)),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Value = from_str(&text).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn value_lines_round_trip_byte_for_byte() {
        let line = r#"{"a":{"title":"kodak esp","price":"12.5"},"b":{"title":"x \"y\"\n"},"id":7,"xs":[1.5,-2,null,true,[]],"o":{}}"#;
        let v: Value = from_str(line).unwrap();
        assert_eq!(to_string(&v).unwrap(), line);

        // A `Value` prints and parses without a copy; a type that builds
        // its tree gets the same bytes and the same tree.
        struct Built(Value);
        impl Serialize for Built {
            fn serialize_value(&self) -> Value {
                self.0.clone()
            }
        }
        struct Cloned(Value);
        impl Deserialize for Cloned {
            fn deserialize_value(v: &Value) -> Result<Cloned, serde::Error> {
                Ok(Cloned(v.clone()))
            }
        }
        let built = Built(v.clone());
        assert_eq!(to_string(&built).unwrap(), line);
        assert_eq!(to_string_pretty(&built).unwrap(), to_string_pretty(&v).unwrap());
        assert_eq!(from_str::<Cloned>(line).unwrap().0, v);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(from_str::<Value>(&pretty).unwrap(), v);
    }

    #[test]
    fn f32_payloads_survive() {
        let xs: Vec<f32> = vec![0.1, -1e-7, 3.4e38, 1.0 / 3.0];
        let text = to_string(&xs).unwrap();
        let back: Vec<f32> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn integers_print_without_exponent() {
        assert_eq!(to_string(&vec![1usize, 42, 1_000_000]).unwrap(), "[1,42,1000000]");
    }

    #[test]
    fn int_values_are_exact_beyond_2_pow_53() {
        // 2^53 + 1 is unrepresentable in f64 — the whole reason Int exists.
        let exact = (1i64 << 53) + 1;
        assert_eq!(to_string(&Value::Int(exact)).unwrap(), "9007199254740993");
        assert_eq!(to_string(&exact).unwrap(), "9007199254740993");
        assert_eq!(to_string(&u64::MAX.to_string()).unwrap(), "\"18446744073709551615\"");
        // An f64 of the same magnitude rounds: the two paths really differ.
        assert_eq!(to_string(&Value::Number(exact as f64)).unwrap(), "9007199254740992");
        // Parsed numbers still come back as Number; as_i64 recovers small ints.
        let v: Value = from_str("7").unwrap();
        assert_eq!(v.as_i64(), Some(7));
        assert!(matches!(v, Value::Number(_)));
    }

    #[test]
    fn unicode_strings() {
        let s = "héllo 𝒞 ≠ ascii".to_string();
        let text = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&text).unwrap(), s);
        assert_eq!(from_str::<String>("\"\\u0041\\ud835\\udcde\"").unwrap(), "A𝓞");
        // Linear in the text: each char is decoded from its own bytes, so
        // 200 KB of two-byte chars parses at once.
        let long = "é".repeat(100_000);
        assert_eq!(from_str::<String>(&to_string(&long).unwrap()).unwrap(), long);
    }

    #[test]
    fn nesting_past_the_recursion_limit_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str::<Value>(&nested(RECURSION_LIMIT)).is_ok());
        let err = from_str::<Value>(&nested(RECURSION_LIMIT + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // 50 KB of `[` once aborted the process; objects count too.
        assert!(from_str::<Value>(&"[".repeat(50_000)).is_err());
        assert!(from_str::<Value>(&"{\"a\":".repeat(50_000)).is_err());
        // The limit is on depth, not on size.
        let wide = format!("[{}0]", "0,".repeat(100_000));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    #[test]
    fn broken_surrogate_escapes_are_errors() {
        for text in [
            "\"\\ud835\\u\"",
            "\"\\ud835\\u12\"",
            "\"\\ud835\\u0041\"",
        ] {
            assert!(from_str::<String>(text).is_err(), "{text}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("true false").is_err());
    }
}
