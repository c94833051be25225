//! The one JSON codec of the `BENCH_*.json` artifacts: a value type, the
//! writer that lays every artifact out, and the parser every reader goes
//! through.
//!
//! A [`Value::Num`] keeps the text it was written with, so a `u64` seed
//! above 2⁵³ and a fixed-decimal field (`{:.6}`) both reprint exactly, and
//! a committed artifact parses and reprints byte for byte. The artifacts
//! write no `true`, `false` or `null`, so the codec has none.
//!
//! The layout [`Value::pretty`] writes: two-space indent with one member
//! or element per line, `"key": value`, an array of scalars on one line
//! as `[a, b]`, and a final newline.

use std::fmt::Write as _;

/// Nesting beyond this depth is rejected, so a hostile file cannot
/// exhaust the parser's stack. The artifacts nest four deep.
const MAX_DEPTH: usize = 64;

/// A JSON value. Objects keep their members in written order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number, as the text it is written with.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object: `(key, value)` members in order.
    Obj(Vec<(String, Value)>),
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Self {
                Value::Num(x.to_string())
            }
        }
    )*};
}

from_integer!(u32, u64, usize);

/// A rate, in Rust's shortest round-trip `Display`: it reads back as the
/// same `f64`. A non-finite value writes as text [`parse`] rejects, so an
/// artifact validated before it is written never carries one.
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x.to_string())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// An object of `members`, in order.
pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

impl Value {
    /// `x` with `decimals` digits after the point, as `{:.N}` prints it.
    pub fn fixed(x: f64, decimals: usize) -> Value {
        Value::Num(format!("{x:.decimals$}"))
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The member `key`, or an error naming it. The typed accessors below
    /// also fail, naming `key`, on a member of another type.
    ///
    /// # Errors
    ///
    /// `key` is missing, or `self` is not an object.
    pub fn field(&self, key: &str) -> Result<&Value, String> {
        self.get(key).ok_or_else(|| format!("missing `{key}`"))
    }

    /// The string member `key`.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.field(key)? {
            Value::Str(s) => Ok(s),
            _ => Err(format!("`{key}` is not a string")),
        }
    }

    /// The unsigned-integer member `key`.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        match self.field(key)? {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
        .ok_or_else(|| format!("`{key}` is not an unsigned integer"))
    }

    /// The numeric member `key`, as the nearest `f64`.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        match self.field(key)? {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
        .ok_or_else(|| format!("`{key}` is not a number"))
    }

    /// The array member `key`.
    pub fn array_field(&self, key: &str) -> Result<&[Value], String> {
        match self.field(key)? {
            Value::Arr(items) => Ok(items),
            _ => Err(format!("`{key}` is not an array")),
        }
    }

    /// The value in the artifacts' layout, with a final newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        matches!(self, Value::Num(_) | Value::Str(_))
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Num(text) => out.push_str(text),
            Value::Str(s) => quote(out, s),
            Value::Arr(items) if items.iter().all(Value::is_scalar) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out, indent);
                }
                out.push(']');
            }
            Value::Arr(items) => write_block(out, indent, '[', ']', items, |out, item| {
                item.write(out, indent + 2);
            }),
            Value::Obj(members) => {
                write_block(out, indent, '{', '}', members, |out, (key, value)| {
                    quote(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 2);
                });
            }
        }
    }
}

/// Writes `items` between `open` and `close`, one per line at `indent + 2`.
fn write_block<T>(
    out: &mut String,
    indent: usize,
    open: char,
    close: char,
    items: &[T],
    mut item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, x) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&" ".repeat(indent + 2));
        item(out, x);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(close);
}

/// Writes `s` as a JSON string literal.
fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document.
///
/// # Errors
///
/// The first syntax error, with its byte offset: trailing bytes,
/// unterminated input, a missing `,` or `:`, a bad escape (a `\u` escape
/// of a surrogate among them), a number token that is not a JSON number
/// (such as `NaN`), or nesting beyond 64.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing bytes"));
    }
    Ok(value)
}

/// Parses a `BENCH_*.json` artifact and checks that its `schema` and
/// `mode` are the expected ones.
///
/// # Errors
///
/// A syntax error, or the first header field that differs.
pub fn parse_artifact(text: &str, schema: &str, mode: &str) -> Result<Value, String> {
    let report = parse(text)?;
    let found = report.str_field("schema")?;
    if found != schema {
        return Err(format!("expected schema {schema}, found {found}"));
    }
    if report.str_field("mode")? != mode {
        return Err(format!("expected a {mode}-mode report"));
    }
    Ok(report)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `b`.
    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.ws();
        match self.peek() {
            None => Err(self.error("unexpected end")),
            Some(b'{') => {
                let members = self.sequence(b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })?;
                Ok(Value::Obj(members))
            }
            Some(b'[') => Ok(Value::Arr(self.sequence(b']', |p| p.value(depth + 1))?)),
            Some(b'"') => self.string().map(Value::Str),
            Some(_) => self.number(),
        }
    }

    /// The comma-separated items after an opening bracket, through `close`.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                None => return Err(self.error("unexpected end")),
                Some(_) => return Err(self.error(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected '\"'"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            // The run stops at an ASCII byte or the end, both char
            // boundaries of the `&str` the bytes came from.
            let run = std::str::from_utf8(&self.bytes[start..self.pos]).expect("char boundary");
            out.push_str(run);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }

    /// The character of the escape after a `\`. A `\u` escape must name
    /// a Unicode scalar value: the writer never splits one into a
    /// surrogate pair.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => Some('"'),
            Some(b'\\') => Some('\\'),
            Some(b'/') => Some('/'),
            Some(b'b') => Some('\u{8}'),
            Some(b'f') => Some('\u{c}'),
            Some(b'n') => Some('\n'),
            Some(b'r') => Some('\r'),
            Some(b't') => Some('\t'),
            Some(b'u') => {
                let hex = self.bytes.get(self.pos + 1..self.pos + 5);
                let c = hex
                    .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|hex| u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok())
                    .and_then(char::from_u32);
                if c.is_some() {
                    self.pos += 4;
                }
                c
            }
            _ => None,
        };
        let c = c.ok_or_else(|| self.error("bad escape"))?;
        self.pos += 1;
        Ok(c)
    }

    /// A number token: the longest run of bytes that may belong to one,
    /// which must then be a JSON number.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(&b))
        {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII token");
        if is_json_number(token) {
            Ok(Value::Num(token.to_string()))
        } else if token.is_empty() {
            Err(self.error("unexpected byte"))
        } else {
            self.pos = start;
            Err(self.error(&format!("bad number `{token}`")))
        }
    }
}

/// Whether `token` is a number this codec accepts: digits with an
/// optional leading `-`, fraction and exponent, that Rust reads as an
/// `f64`. That rejects `NaN`, `inf`, `+1`, `.5` and `1.`.
fn is_json_number(token: &str) -> bool {
    let digit = |c: char| c.is_ascii_digit();
    token.chars().all(|c| digit(c) || "+-.eE".contains(c))
        && token.strip_prefix('-').unwrap_or(token).starts_with(digit)
        && token.ends_with(digit)
        && token.parse::<f64>().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_values_round_trip_in_the_artifact_layout() {
        let v = obj([
            ("schema", "s/v1".into()),
            ("ns", [8u32, 16].into_iter().collect()),
            ("empty", Value::Arr(Vec::new())),
            (
                "points",
                Value::Arr(vec![
                    obj([("rate", 2.5.into()), ("eff", Value::fixed(0.25, 4))]),
                    obj([("inner", obj([("k", Value::Arr(vec![obj([])]))]))]),
                ]),
            ),
        ]);
        let text = v.pretty();
        assert_eq!(
            text,
            "{\n  \"schema\": \"s/v1\",\n  \"ns\": [8, 16],\n  \"empty\": [],\n  \"points\": [\n    {\n      \"rate\": 2.5,\n      \"eff\": 0.2500\n    },\n    {\n      \"inner\": {\n        \"k\": [\n          {}\n        ]\n      }\n    }\n  ]\n}\n"
        );
        assert_eq!(parse(&text), Ok(v));
    }

    #[test]
    fn numbers_keep_their_text() {
        let v = parse("[18446744073709551615, 0.500000, 1e-3, -0]").unwrap();
        assert_eq!(v.pretty(), "[18446744073709551615, 0.500000, 1e-3, -0]\n");
        let seed = obj([("seed", u64::MAX.into())]);
        assert_eq!(
            parse(&seed.pretty()).unwrap().u64_field("seed"),
            Ok(u64::MAX)
        );
        let rate = obj([("r", (0.1 + 0.2).into())]);
        assert_eq!(parse(&rate.pretty()).unwrap().f64_field("r"), Ok(0.1 + 0.2));
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = "a\"b\\c\nd\te\r\u{1}\u{1f}é😀/";
        let text = Value::from(s).pretty();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\r\\u0001\\u001fé😀/\"\n");
        assert_eq!(parse(&text), Ok(Value::from(s)));
        assert_eq!(
            parse(r#""\/\b\f\u00e9\u0001""#),
            Ok(Value::from("/\u{8}\u{c}é\u{1}"))
        );
    }

    #[test]
    fn malformed_documents_are_rejected_with_their_offset() {
        for (bad, at) in [
            ("{", 1),
            ("[1,]", 3),
            ("{\"a\" 1}", 5),
            ("1 2", 2),
            ("\"open", 5),
            ("NaN", 0),
            ("[1 2]", 3),
            ("\"\\x\"", 2),
            ("\"\\ud83d\\ude00\"", 2),
            ("\"\\u12\"", 2),
            ("\"a\nb\"", 2),
            ("1.", 0),
            ("-", 0),
            ("true", 0),
            ("", 0),
            ("]", 0),
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.ends_with(&format!(" at byte {at}")), "{bad:?}: {err}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).unwrap_err().starts_with("nesting too deep"));
    }

    #[test]
    fn fields_are_typed() {
        let v = parse(r#"{"n": 3, "x": 2.5, "s": "t", "a": [1]}"#).unwrap();
        assert_eq!(v.u64_field("n"), Ok(3));
        assert_eq!(v.f64_field("x"), Ok(2.5));
        assert_eq!(v.str_field("s"), Ok("t"));
        assert_eq!(v.array_field("a").map(<[Value]>::len), Ok(1));
        assert_eq!(
            v.u64_field("x"),
            Err("`x` is not an unsigned integer".into())
        );
        assert_eq!(v.str_field("n"), Err("`n` is not a string".into()));
        assert_eq!(v.field("missing"), Err("missing `missing`".into()));
    }

    #[test]
    fn artifacts_are_checked_for_schema_and_mode() {
        let text = obj([("schema", "s/v2".into()), ("mode", "quick".into())]).pretty();
        assert!(parse_artifact(&text, "s/v2", "quick").is_ok());
        assert_eq!(
            parse_artifact(&text, "s/v3", "quick"),
            Err("expected schema s/v3, found s/v2".into())
        );
        assert_eq!(
            parse_artifact(&text, "s/v2", "full"),
            Err("expected a full-mode report".into())
        );
    }
}
