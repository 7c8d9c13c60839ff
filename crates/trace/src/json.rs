//! A small, self-contained JSON layer.
//!
//! The build environment is offline, so the workspace cannot lean on
//! `serde`/`serde_json`; this module is the hand-rolled replacement. It
//! deliberately mirrors serde_json's default data model:
//!
//! * unit enum variants serialize as `"VariantName"`,
//! * data-carrying variants as `{"VariantName": {...}}`,
//! * newtype wrappers (e.g. `Nanos`) as their inner value.
//!
//! Integers round-trip exactly up to the full `u64`/`i64` range (values are
//! held as `i128` internally), and floats use Rust's shortest round-trip
//! formatting.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts (guards against stack overflow
/// on adversarial input).
const MAX_DEPTH: usize = 128;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no `.`/`e`); `i128` covers all of `u64` + `i64`.
    Int(i128),
    /// A fractional or exponent-form number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved for stable output.
    Object(Vec<(String, JsonValue)>),
}

/// Errors from parsing or extracting typed values.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// Creates an error with a message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError::new(message))
}

/// [`err`] for a message worth formatting only once the input has failed:
/// kept out of line, so a parser's hot path carries none of it.
#[cold]
#[inline(never)]
fn fail<T>(message: impl FnOnce() -> String) -> Result<T, JsonError> {
    err(message())
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs.
    pub fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if `self` is not an object or lacks `key`.
    pub fn field(&self, key: &str) -> Result<&JsonValue, JsonError> {
        self.get(key).ok_or_else(|| missing_field(key))
    }

    /// The value as `bool`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on any other value kind.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        self.shallow().as_bool()
    }

    /// The value as `u64` (integers only).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] for non-integers or out-of-range values.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        self.shallow().as_u64()
    }

    /// The value as `i64`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] for non-integers or out-of-range values.
    pub fn as_i64(&self) -> Result<i64, JsonError> {
        self.shallow().as_i64()
    }

    /// The value as `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] for non-integers or out-of-range values.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        self.shallow().as_usize()
    }

    /// The value as `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] for non-integers or out-of-range values.
    pub(crate) fn as_u32(&self) -> Result<u32, JsonError> {
        self.shallow().as_u32()
    }

    /// The value as `f64` (accepts both number forms; `null` maps to NaN,
    /// mirroring how non-finite floats are written).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] for non-numeric values.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        self.shallow().as_f64()
    }

    /// The value as `&str`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] for non-string values.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => other.shallow().wrong_kind("string"),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] for non-array values.
    pub fn as_array(&self) -> Result<&[JsonValue], JsonError> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => other.shallow().wrong_kind("array"),
        }
    }

    /// For `{"Variant": payload}` enum encodings: the single key and its
    /// payload.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] unless the value is a one-field object.
    pub fn as_variant(&self) -> Result<(&str, &JsonValue), JsonError> {
        match self {
            JsonValue::Object(fields) if fields.len() == 1 => {
                Ok((fields[0].0.as_str(), &fields[0].1))
            }
            other => other.shallow().wrong_kind("single-variant object"),
        }
    }

    /// The value with its containers elided: what typed extraction reads.
    pub(crate) fn shallow(&self) -> Token<'_> {
        match self {
            JsonValue::Null => Token::Null,
            JsonValue::Bool(b) => Token::Bool(*b),
            JsonValue::Int(i) => Token::Int(*i),
            JsonValue::Float(f) => Token::Float(*f),
            JsonValue::Str(s) => Token::Str(Cow::Borrowed(s)),
            JsonValue::Array(_) => Token::Array,
            JsonValue::Object(_) => Token::Object,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Int(i) => write_int(out, *i),
            JsonValue::Float(f) => write_float(out, *f),
            JsonValue::Str(s) => write_escaped(out, s),
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
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] for malformed input or trailing garbage.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser::new(input);
        let value = parser.value(0)?;
        parser.finish()?;
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * level) {
            out.push(' ');
        }
    }
}

/// Appends `s` as a JSON string literal.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so the runs between them
    // are whole characters and go out in one copy.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `v` in decimal.
pub(crate) fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if let Ok(digits) = std::str::from_utf8(&digits[at..]) {
        out.push_str(digits);
    }
}

/// Appends `v` in decimal.
pub(crate) fn write_int(out: &mut String, v: i128) {
    if v < 0 {
        out.push('-');
    }
    match u64::try_from(v.unsigned_abs()) {
        Ok(magnitude) => write_u64(out, magnitude),
        // Wider than any integer type the workspace serializes; only a
        // parsed document can hold one.
        Err(_) => {
            let _ = write!(out, "{}", v.unsigned_abs());
        }
    }
}

/// Appends `f` in Rust's shortest round-trip form, `null` when not finite.
pub(crate) fn write_float(out: &mut String, f: f64) {
    if f.is_finite() {
        if f.fract() == 0.0 && f.abs() < 1e15 {
            // Keep a trailing ".0" so the value re-parses as a float,
            // matching serde_json's behaviour.
            let _ = write!(out, "{f:.1}");
        } else {
            let _ = write!(out, "{f}");
        }
    } else {
        // JSON has no NaN/Infinity literal.
        out.push_str("null");
    }
}

/// What one field of a flat record holds: the value side of a field
/// table such as `TraceEvent::fields`.
#[derive(Clone, Copy)]
pub(crate) enum Scalar<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(&'a str),
}

impl Scalar<'_> {
    /// Appends the value's JSON text.
    pub(crate) fn write(self, out: &mut String) {
        match self {
            Scalar::U64(v) => write_u64(out, v),
            Scalar::I64(v) => write_int(out, i128::from(v)),
            Scalar::F64(v) => write_float(out, v),
            Scalar::Bool(v) => out.push_str(if v { "true" } else { "false" }),
            Scalar::Str(v) => write_escaped(out, v),
        }
    }

    /// The same value in the tree model.
    pub(crate) fn to_json_value(self) -> JsonValue {
        match self {
            Scalar::U64(v) => JsonValue::Int(i128::from(v)),
            Scalar::I64(v) => JsonValue::Int(i128::from(v)),
            Scalar::F64(v) => JsonValue::Float(v),
            Scalar::Bool(v) => JsonValue::Bool(v),
            Scalar::Str(v) => JsonValue::Str(v.to_string()),
        }
    }
}

/// One JSON value with its containers elided: scalars in full, an array
/// or object by kind only. It is what the tokenizer yields per value
/// and what every typed accessor reads.
#[derive(Clone)]
pub(crate) enum Token<'a> {
    Null,
    Bool(bool),
    /// An integer literal of at most 19 digits: every one a detail log
    /// writes, held without widening.
    Uint(u64),
    Int(i128),
    Float(f64),
    /// Borrowed from the input unless it held an escape.
    Str(Cow<'a, str>),
    Array,
    Object,
}

impl Token<'_> {
    fn kind(&self) -> &'static str {
        match self {
            Token::Null => "null",
            Token::Bool(_) => "bool",
            Token::Uint(_) | Token::Int(_) => "integer",
            Token::Float(_) => "float",
            Token::Str(_) => "string",
            Token::Array => "array",
            Token::Object => "object",
        }
    }

    pub(crate) fn wrong_kind<T>(&self, expected: &str) -> Result<T, JsonError> {
        err(format!("expected {expected}, found {}", self.kind()))
    }

    pub(crate) fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Token::Bool(b) => Ok(*b),
            other => other.wrong_kind("bool"),
        }
    }

    pub(crate) fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Token::Uint(u) => Ok(*u),
            Token::Int(i) => {
                u64::try_from(*i).map_err(|_| JsonError::new(format!("{i} out of u64 range")))
            }
            other => other.wrong_kind("unsigned integer"),
        }
    }

    pub(crate) fn as_i64(&self) -> Result<i64, JsonError> {
        match self {
            Token::Uint(u) => Token::Int(i128::from(*u)).as_i64(),
            Token::Int(i) => {
                i64::try_from(*i).map_err(|_| JsonError::new(format!("{i} out of i64 range")))
            }
            other => other.wrong_kind("integer"),
        }
    }

    pub(crate) fn as_usize(&self) -> Result<usize, JsonError> {
        usize::try_from(self.as_u64()?).map_err(|_| JsonError::new("out of usize range"))
    }

    pub(crate) fn as_u32(&self) -> Result<u32, JsonError> {
        u32::try_from(self.as_u64()?).map_err(|_| JsonError::new("out of u32 range"))
    }

    pub(crate) fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Token::Uint(u) => Ok(*u as f64),
            Token::Int(i) => Ok(*i as f64),
            Token::Float(f) => Ok(*f),
            Token::Null => Ok(f64::NAN),
            other => other.wrong_kind("number"),
        }
    }

    pub(crate) fn into_string(self) -> Result<String, JsonError> {
        match self {
            Token::Str(s) => Ok(s.into_owned()),
            other => other.wrong_kind("string"),
        }
    }
}

/// The most members a decoder picks out of one object. The trace-event
/// declaration checks every variant against it at compile time.
pub(crate) const MAX_PICKED: usize = 5;

/// The members of one object a decoder asked for by key, each held as a
/// [`Token`] at its key's position: the first member with that key, as
/// [`JsonValue::field`] finds it. Every other member is left out.
pub(crate) struct Picked<'a> {
    keys: &'static [&'static str],
    values: [Option<Token<'a>>; MAX_PICKED],
}

impl<'a> Picked<'a> {
    /// The members of `value` with `keys` (at most `MAX_PICKED` of them);
    /// none when it is no object.
    pub(crate) fn of(keys: &'static [&'static str], value: &'a JsonValue) -> Self {
        let mut picked = Picked {
            keys,
            values: [const { None }; MAX_PICKED],
        };
        if let JsonValue::Object(fields) = value {
            for (key, member) in fields {
                picked.offer(key, member.shallow());
            }
        }
        picked
    }

    /// Keeps `token` if `key` is asked for and not yet seen.
    fn offer(&mut self, key: &str, token: Token<'a>) {
        if let Some(at) = self.keys.iter().position(|k| *k == key) {
            self.values[at].get_or_insert(token);
        }
    }

    /// Takes out the member with the `at`-th key.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the object had no such member.
    pub(crate) fn take(&mut self, at: usize) -> Result<Token<'a>, JsonError> {
        self.values[at]
            .take()
            .ok_or_else(|| missing_field(self.keys[at]))
    }
}

fn missing_field(key: &str) -> JsonError {
    JsonError::new(format!("missing field {key:?}"))
}

/// The one tokenizer: [`JsonValue::parse`] builds a tree from it
/// ([`Parser::value`]).
///
/// `depth` is the nesting level of the value about to be read, 0 for the
/// document itself.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser at the first non-blank byte of `src`.
    fn new(src: &'a str) -> Self {
        let mut parser = Parser { src, pos: 0 };
        parser.skip_ws();
        parser
    }

    /// Ends the document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if anything but whitespace is left.
    fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(())
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            let at = self.pos;
            fail(|| format!("expected {:?} at byte {at}", b as char))
        }
    }

    fn literal(&mut self, text: &str) -> bool {
        if self.src.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    /// Enters an array (`[`, `]`) or object (`{`, `}`); whether it has a
    /// first element.
    #[inline]
    fn open(&mut self, open: u8, close: u8) -> Result<bool, JsonError> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// Steps past an element; whether another follows before `close`.
    #[inline]
    fn next(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => {
                let at = self.pos;
                fail(|| format!("expected ',' or {:?} at byte {at}", close as char))
            }
        }
    }

    /// Reads `"key":` and stops at the member's value.
    #[inline]
    fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// Reads a scalar; an array or object is only announced, with the
    /// cursor left on its opening bracket.
    #[inline]
    fn scalar(&mut self, depth: usize) -> Result<Token<'a>, JsonError> {
        if depth > MAX_DEPTH {
            return err("document nests too deeply");
        }
        match self.peek() {
            None => err("unexpected end of input"),
            Some(b'n') if self.literal("null") => Ok(Token::Null),
            Some(b't') if self.literal("true") => Ok(Token::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Token::Bool(false)),
            Some(b'"') => Ok(Token::Str(self.string()?)),
            Some(b'[') => Ok(Token::Array),
            Some(b'{') => Ok(Token::Object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => {
                let at = self.pos;
                fail(|| format!("unexpected character {:?} at byte {at}", other as char))
            }
        }
    }

    /// Reads one value as a tree.
    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        Ok(match self.scalar(depth)? {
            Token::Null => JsonValue::Null,
            Token::Bool(b) => JsonValue::Bool(b),
            Token::Uint(u) => JsonValue::Int(i128::from(u)),
            Token::Int(i) => JsonValue::Int(i),
            Token::Float(f) => JsonValue::Float(f),
            Token::Str(s) => JsonValue::Str(s.into_owned()),
            Token::Array => {
                let mut items = Vec::new();
                let mut more = self.open(b'[', b']')?;
                while more {
                    items.push(self.value(depth + 1)?);
                    more = self.next(b']')?;
                }
                JsonValue::Array(items)
            }
            Token::Object => {
                let mut fields = Vec::new();
                let mut more = self.open(b'{', b'}')?;
                while more {
                    let key = self.key()?.into_owned();
                    fields.push((key, self.value(depth + 1)?));
                    more = self.next(b'}')?;
                }
                JsonValue::Object(fields)
            }
        })
    }

    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let run = self.run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        self.escaped(run.to_string())
    }

    /// The characters from the cursor up to the next quote, backslash or
    /// control byte. It ends only before an ASCII byte, so it is whole
    /// characters.
    #[inline]
    fn run(&mut self) -> &'a str {
        let rest = &self.src[self.pos..];
        let end = rest
            .bytes()
            .position(|b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
        self.pos += end;
        &rest[..end]
    }

    /// The rest of a string that holds an escape, `decoded` so far.
    #[cold]
    fn escaped(&mut self, mut decoded: String) -> Result<Cow<'a, str>, JsonError> {
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(decoded));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    decoded.push(self.escape()?);
                    decoded.push_str(self.run());
                }
                _ => return err("unterminated string"),
            }
        }
    }

    /// Decodes the escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let first = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&first) {
                    // A high surrogate is half a character: only a low
                    // one may follow.
                    if !self.literal("\\u") {
                        return err("unpaired surrogate");
                    }
                    let second = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&second) {
                        return err("unpaired surrogate");
                    }
                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                } else {
                    first
                };
                return char::from_u32(code).ok_or_else(|| JsonError::new("invalid \\u escape"));
            }
            _ => return err("invalid escape sequence"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
        let mut value = 0;
        for &b in digits {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| JsonError::new("invalid \\u escape"))?;
            value = value << 4 | digit;
        }
        self.pos += 4;
        Ok(value)
    }

    #[inline]
    fn number(&mut self) -> Result<Token<'a>, JsonError> {
        let start = self.pos;
        // A plain run of up to 19 digits cannot overflow a `u64`: almost
        // every number in a detail log, read without a second pass.
        let rest = &self.src.as_bytes()[start..];
        let (mut plain, mut digits) = (0u64, 0);
        while let Some(&b @ b'0'..=b'9') = rest.get(digits) {
            if digits == 19 {
                break;
            }
            plain = plain * 10 + u64::from(b - b'0');
            digits += 1;
        }
        let more = matches!(
            rest.get(digits),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        );
        if digits > 0 && !more {
            self.pos += digits;
            return Ok(Token::Uint(plain));
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                // A sign is consumed anywhere; `parse` below rejects one
                // that is out of place.
                b'-' if self.pos == start => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        let parsed = if is_float {
            text.parse().ok().map(Token::Float)
        } else {
            text.parse().ok().map(Token::Int)
        };
        parsed.ok_or_else(|| JsonError::new(format!("invalid number {text:?}")))
    }
}

/// A cursor over a document in the one form a flat-record encoder writes:
/// no whitespace, keys in written order, strings with nothing escaped,
/// integers as plain digit runs. Each read answers `None` at the first
/// byte that form would not hold, and the caller then reads the document
/// with [`Parser`] instead. It only answers where the tokenizer would
/// answer the same.
pub(crate) struct Canonical<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Canonical<'a> {
    /// A cursor at the first byte of `src`.
    pub(crate) fn new(src: &'a str) -> Self {
        Canonical { src, pos: 0 }
    }

    /// Steps past `text`.
    #[inline]
    pub(crate) fn literal(&mut self, text: &str) -> Option<()> {
        let end = self.pos + text.len();
        let here = self.src.as_bytes().get(self.pos..end)?;
        (here == text.as_bytes()).then(|| self.pos = end)
    }

    /// Ends the document: nothing but JSON whitespace is left.
    #[inline]
    pub(crate) fn end(&self) -> Option<()> {
        self.src.as_bytes()[self.pos..]
            .iter()
            .all(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .then_some(())
    }

    /// A run of 1 to 19 digits, which no `u64` overflows, not followed by
    /// anything that would make it a longer or a fractional number.
    #[inline]
    pub(crate) fn digits(&mut self) -> Option<u64> {
        let rest = &self.src.as_bytes()[self.pos..];
        let (mut value, mut len) = (0u64, 0);
        while let Some(&b @ b'0'..=b'9') = rest.get(len) {
            if len == 19 {
                return None;
            }
            value = value * 10 + u64::from(b - b'0');
            len += 1;
        }
        if len == 0 || matches!(rest.get(len), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
            return None;
        }
        self.pos += len;
        Some(value)
    }

    /// [`Canonical::digits`], after a `-` if there is one.
    #[inline]
    pub(crate) fn signed(&mut self) -> Option<i128> {
        let negative = self.literal("-").is_some();
        let magnitude = i128::from(self.digits()?);
        Some(if negative { -magnitude } else { magnitude })
    }

    /// `true` or `false`.
    #[inline]
    pub(crate) fn bool(&mut self) -> Option<bool> {
        if self.literal("true").is_some() {
            Some(true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// A string literal with no escape and no control byte in it.
    #[inline]
    pub(crate) fn plain_str(&mut self) -> Option<&'a str> {
        self.literal("\"")?;
        let rest = &self.src.as_bytes()[self.pos..];
        let len = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .filter(|&len| rest[len] == b'"')?;
        // The run ends before an ASCII byte, so it is whole characters.
        let run = self.src.get(self.pos..self.pos + len)?;
        self.pos += len + 1;
        Some(run)
    }
}

/// Conversion into the JSON data model.
pub trait ToJson {
    /// Builds the [`JsonValue`] representation.
    fn to_json_value(&self) -> JsonValue;

    /// Serializes compactly.
    fn to_json_string(&self) -> String {
        self.to_json_value().to_compact()
    }

    /// Serializes with indentation.
    fn to_json_pretty(&self) -> String {
        self.to_json_value().to_pretty()
    }
}

/// Conversion back out of the JSON data model.
pub trait FromJson: Sized {
    /// Reconstructs the value.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the document does not match the type.
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError>;

    /// Parses from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] for malformed input.
    fn from_json_str(input: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&JsonValue::parse(input)?)
    }
}

impl ToJson for bool {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

macro_rules! int_json {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json_value(&self) -> JsonValue {
                JsonValue::Int(*self as i128)
            }
        }
        impl FromJson for $ty {
            fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
                match value {
                    JsonValue::Int(i) => <$ty>::try_from(*i)
                        .map_err(|_| JsonError::new("integer out of range")),
                    other => other.shallow().wrong_kind("integer"),
                }
            }
        }
    )*};
}

int_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        value.as_f64()
    }
}

impl ToJson for String {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(value.as_str()?.to_string())
    }
}

impl ToJson for str {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        value.as_array()?.iter().map(T::from_json_value).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json_value(&self) -> JsonValue {
        match self {
            Some(inner) => inner.to_json_value(),
            None => JsonValue::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        match value {
            JsonValue::Null => Ok(None),
            other => Ok(Some(T::from_json_value(other)?)),
        }
    }
}

impl<K: ToString, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json_value()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        for text in ["null", "true", "false", "0", "-7", "18446744073709551615"] {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.to_compact(), text);
        }
        assert_eq!(JsonValue::parse("1.5").unwrap(), JsonValue::Float(1.5));
    }

    #[test]
    fn u64_full_range_roundtrips() {
        let v = u64::MAX.to_json_value();
        let text = v.to_compact();
        assert_eq!(
            u64::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap(),
            u64::MAX
        );
    }

    #[test]
    fn string_escapes() {
        let s = "a\"b\\c\nd\te\u{1}f — ünïcode".to_string();
        let text = s.to_json_string();
        assert_eq!(String::from_json_str(&text).unwrap(), s);
    }

    #[test]
    fn unicode_escape_parsing() {
        assert_eq!(
            String::from_json_str("\"\\u0041\\ud83d\\ude00\"").unwrap(),
            "A😀"
        );
    }

    #[test]
    fn surrogates_must_pair_and_hex_must_be_hex() {
        let parse = |text: &str| JsonValue::parse(text).map_err(|e| e.to_string());
        // A high surrogate takes a low one and nothing else; a low one
        // cannot stand alone.
        for text in [
            r#""\ud800\ud800""#,
            r#""\ud800\u0041""#,
            r#""\ud800\ue000""#,
            r#""\ud800x""#,
            r#""\ud800""#,
        ] {
            assert_eq!(
                parse(text),
                Err("json error: unpaired surrogate".into()),
                "{text}"
            );
        }
        assert!(parse(r#""\udc00""#).is_err());
        // `from_str_radix` takes a sign; an escape does not.
        for text in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u00\u00e9""#,
            "\"\\u00é\"",
        ] {
            assert_eq!(
                parse(text),
                Err("json error: invalid \\u escape".into()),
                "{text}"
            );
        }
        assert!(parse(r#""\u004""#).is_err());
        assert_eq!(
            parse(r#""\uDBFF\uDFFF\u00E9\ud83d\ude00""#),
            Ok(JsonValue::Str("\u{10FFFF}é😀".into()))
        );
    }

    #[test]
    fn nested_structures() {
        let text = r#"{"a": [1, 2.5, {"b": null}], "c": "x"}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.field("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.field("c").unwrap().as_str().unwrap(), "x");
        let reparsed = JsonValue::parse(&v.to_pretty()).unwrap();
        assert_eq!(reparsed, v);
    }

    #[test]
    fn float_formatting_reparses_as_float() {
        let v = JsonValue::Float(2.0);
        assert_eq!(v.to_compact(), "2.0");
        assert_eq!(JsonValue::parse("2.0").unwrap(), JsonValue::Float(2.0));
    }

    #[test]
    fn malformed_documents_rejected() {
        for text in ["{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(JsonValue::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(JsonValue::parse(&deep).is_err());
    }

    #[test]
    fn variant_accessor() {
        let v = JsonValue::parse(r#"{"Server":{"qps":10.0}}"#).unwrap();
        let (name, payload) = v.as_variant().unwrap();
        assert_eq!(name, "Server");
        assert_eq!(payload.field("qps").unwrap().as_f64().unwrap(), 10.0);
    }

    #[test]
    fn option_and_vec() {
        let v: Option<u32> = None;
        assert_eq!(v.to_json_string(), "null");
        let items = vec![1u32, 2, 3];
        assert_eq!(items.to_json_string(), "[1,2,3]");
        assert_eq!(Vec::<u32>::from_json_str("[1,2,3]").unwrap(), items);
    }
}
