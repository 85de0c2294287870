//! The JSON reader: a small recursive-descent parser producing an owned
//! [`Value`] tree, the same type the emitters build.
//!
//! It accepts any standard JSON document. A non-negative integer literal
//! that fits `u64` becomes [`Value::UInt`], so counters, addresses and
//! 64-bit seeds read back exactly; every other number becomes
//! [`Value::Float`].

use std::borrow::Cow;

use super::json::Value;

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a byte-offset-tagged description of the first syntax error,
/// including trailing garbage after the top-level value.
pub fn parse_json(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// Maximum container nesting accepted by [`parse_json`].
///
/// The parser is recursive-descent, so unbounded nesting is unbounded
/// stack: a document of a few hundred thousand `[` characters would
/// overflow the stack and *abort* the process — an uncatchable crash,
/// remotely triggerable once a network API feeds this parser. Every
/// artifact this repo emits nests a handful of levels; 128 is far past
/// any legitimate document.
pub const MAX_JSON_DEPTH: usize = 128;

/// Reads `text` through its bytes. `pos` only ever advances past ASCII
/// bytes or whole characters, so it always sits on a character boundary.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected {:?} at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // The scanned range contains only ASCII digit/sign/exponent
        // bytes, but fail soft rather than trusting that invariant on
        // arbitrary input.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::UInt(n));
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchanged;
                    // advance by whole characters, not bytes.
                    let Some(c) = self.text[self.pos..].chars().next() else {
                        return Err("unterminated string".to_string());
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_JSON_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((Cow::Owned(key), value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse_json(
            r#"{"schema":"tw-plan/v1","cells":[{"benchmark":"gcc","ns_per_cycle":12.5,"ok":true,"note":null}]}"#,
        )
        .unwrap();
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("tw-plan/v1"));
        let cells = v.get("cells").and_then(Value::as_array).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(
            cells[0].get("ns_per_cycle").and_then(Value::as_f64),
            Some(12.5)
        );
        assert_eq!(cells[0].get("ok"), Some(&Value::Bool(true)));
        assert_eq!(cells[0].get("note"), Some(&Value::Null));
    }

    #[test]
    fn decodes_escapes_and_negative_exponent_numbers() {
        let v = parse_json(r#"{"s":"a\"b\\c\ndA","n":-1.5e-2,"raw":"é€𝄞x"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\"b\\c\ndA"));
        assert!((v.get("n").and_then(Value::as_f64).unwrap() + 0.015).abs() < 1e-12);
        // Raw 2-, 3- and 4-byte characters pass through unchanged.
        assert_eq!(v.get("raw").and_then(Value::as_str), Some("é€𝄞x"));
    }

    #[test]
    fn integers_are_exact_and_other_numbers_are_floats() {
        let v = parse_json(
            r#"[0, 9007199254740993, 18446744073709551615, 18446744073709551616, -1, 1.0, 1e3]"#,
        )
        .unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0], Value::UInt(0));
        assert_eq!(items[1].as_u64(), Some((1 << 53) + 1));
        assert_eq!(items[2].as_u64(), Some(u64::MAX));
        for (i, want) in [
            (3, 18_446_744_073_709_551_616.0),
            (4, -1.0),
            (5, 1.0),
            (6, 1e3),
        ] {
            assert_eq!(items[i], Value::Float(want), "item {i}");
            assert_eq!(items[i].as_u64(), None, "item {i}");
        }
        assert_eq!(items[0].as_f64(), Some(0.0));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        // A recursive-descent parser fed 200k open brackets would blow
        // the stack and abort the process if nesting were unbounded;
        // the depth limit must turn that into an ordinary error.
        let bomb = "[".repeat(200_000);
        let err = parse_json(&bomb).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let obj_bomb = "{\"k\":".repeat(200_000);
        assert!(parse_json(&obj_bomb).unwrap_err().contains("nesting"));
    }

    #[test]
    fn nesting_at_the_limit_parses_and_siblings_do_not_accumulate() {
        // Depth is the *current* nesting, not a running total: a long
        // flat array of shallow objects must not trip the limit.
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(parse_json(&deep).is_ok());
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_JSON_DEPTH + 1),
            "]".repeat(MAX_JSON_DEPTH + 1)
        );
        assert!(parse_json(&over).is_err());
        let flat = format!("[{}{{}}]", "{},".repeat(10_000));
        assert!(parse_json(&flat).is_ok());
    }

    #[test]
    fn round_trips_emitted_reports() {
        // The emitter and parser must agree on the repo's own output.
        let text = crate::harness::Value::object([
            ("x", crate::harness::Value::Float(0.25)),
            ("y", crate::harness::Value::Str("hi \"there\"".to_string())),
        ])
        .pretty();
        let v = parse_json(&text).unwrap();
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(0.25));
        assert_eq!(v.get("y").and_then(Value::as_str), Some("hi \"there\""));
    }
}
