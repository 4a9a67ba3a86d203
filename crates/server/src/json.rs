//! A minimal, strict, serde-free JSON parser for the wire protocol.
//!
//! The repo renders JSON lines without serde (`splitting_api`'s
//! `to_json_line` family); this module is the matching ingest half. It is
//! deliberately strict — no trailing commas, no comments, no `NaN` /
//! `Infinity` tokens, a hard nesting-depth cap — because every accepted
//! frame must round-trip through the renderer byte-for-byte.
//!
//! One [`Cursor`] reads everything, two ways:
//!
//! * [`parse`] — full recursive parse into a [`Json`] tree, for the
//!   small values of a frame (envelope fields, the problem object);
//! * [`Cursor::object`] — one pass over an object that skips each value
//!   or decodes it in place, the way ingest reads a whole frame: the
//!   edge lists that dominate a frame's bytes are decoded by
//!   [`Cursor::edge_list`] in the same traversal that finds their end.
//!   [`scan_top_level`] is the walk that skips every value.

use std::fmt;

/// Maximum nesting depth accepted by the parser and the scanner. Frames
/// in this protocol nest at most ~4 levels; the cap only guards stack
/// safety against adversarial input.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (see [`Number`] for integer-exactness guarantees).
    Number(Number),
    /// A string, with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source field order (duplicate keys are rejected at
    /// parse time).
    Object(Vec<(String, Json)>),
}

/// A JSON number. Unsigned and signed integers that fit in 64 bits are
/// kept exact (the protocol's `seed` field spans all of `u64`); anything
/// else falls back to `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer ≤ `u64::MAX`, exact.
    Unsigned(u64),
    /// A negative integer ≥ `i64::MIN`, exact.
    Signed(i64),
    /// Everything else (fractions, exponents, out-of-range integers).
    Float(f64),
}

impl Number {
    /// The value as `f64` (lossy for huge integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::Unsigned(u) => u as f64,
            Number::Signed(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The value as `u64`, if it is exactly a non-negative integer.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::Unsigned(u) => Some(u),
            Number::Signed(_) => None,
            // `u64::MAX as f64` rounds up to 2^64 exactly, so the bound
            // must be strict: `f as u64` would silently saturate any
            // float in [2^64 - 1, 2^64] to u64::MAX.
            Number::Float(f) if f >= 0.0 && f < u64::MAX as f64 && f.fract() == 0.0 => {
                Some(f as u64)
            }
            Number::Float(_) => None,
        }
    }

    /// The value as `usize`, if it is exactly a non-negative integer in
    /// range.
    pub fn as_usize(self) -> Option<usize> {
        self.as_u64().and_then(|u| usize::try_from(u).ok())
    }

    /// The value as `u32`, if it is exactly a non-negative integer in
    /// range.
    pub fn as_u32(self) -> Option<u32> {
        self.as_u64().and_then(|u| u32::try_from(u).ok())
    }
}

impl Json {
    /// The string contents, when this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when this value is one.
    pub fn as_number(&self) -> Option<Number> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The bool, when this value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(xs) => Some(xs),
            _ => None,
        }
    }

    /// The fields, when this value is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up a field by key, when this value is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// A short name for the value's type (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }
}

/// A parse failure, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for ParseError {}

/// A cursor over one input: the module's only reader. [`parse`] builds
/// a [`Json`] tree with it; ingest walks one object value by value with
/// it, without a tree. Walked values are skipped by default — structure
/// is validated (string escapes, balanced nesting, comma placement,
/// depth), grammar inside skipped values is not — or decoded in place
/// by the caller's callback, in the same pass that finds each value's
/// end.
///
/// Decoding never changes which inputs a walk accepts: a value that
/// fails to decode is skipped like any other, and its decode error is
/// handed back to the caller to report later. Offsets in every error are
/// byte offsets into the cursor's input.
pub struct Cursor<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Cursor {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, reason: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            reason: reason.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!(
                "expected '{}', found {}",
                b as char,
                self.found_desc()
            ))
        }
    }

    fn found_desc(&self) -> String {
        match self.peek() {
            Some(b) if b.is_ascii_graphic() => format!("'{}'", b as char),
            Some(b) => format!("byte 0x{b:02x}"),
            None => "end of input".into(),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.tree_object(depth),
            Some(b'[') => self.tree_array(depth),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => Ok(Json::Number(self.number()?)),
            _ => self.err(format!("expected a value, found {}", self.found_desc())),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.err(format!("expected '{text}'"))
        }
    }

    fn tree_object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return self.err(format!("duplicate key \"{key}\""));
            }
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return self.err(format!("expected ',' or '}}', found {}", self.found_desc())),
            }
        }
    }

    fn tree_array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return self.err(format!("expected ',' or ']', found {}", self.found_desc())),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // surrogate pairs: a high surrogate must be
                            // followed by \uXXXX with a low surrogate
                            if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return self.err("unpaired surrogate");
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return self.err("unpaired surrogate");
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                match char::from_u32(c) {
                                    Some(c) => out.push(c),
                                    None => return self.err("invalid surrogate pair"),
                                }
                            } else {
                                match char::from_u32(cp) {
                                    Some(c) => out.push(c),
                                    None => return self.err("invalid \\u escape"),
                                }
                            }
                        }
                        _ => return self.err(format!("invalid escape '\\{}'", esc as char)),
                    }
                }
                0x00..=0x1f => return self.err("unescaped control character in string"),
                _ => {
                    // multi-byte UTF-8: the input is already a valid &str,
                    // so copy the char its leading byte starts
                    let start = self.pos - 1;
                    self.pos = start + utf8_len(b);
                    out.push_str(&self.input[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return self.err("truncated \\u escape");
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return self.err("invalid \\u escape digit"),
            };
            cp = cp * 16 + digit;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Number, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // integer part: one zero, or a nonzero digit followed by digits
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return self.err("malformed number"),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.err("malformed number: digits required after '.'");
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.err("malformed number: digits required in exponent");
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.input[start..self.pos];
        if integral {
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Number::Signed(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::Unsigned(u));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Number::Float(f)),
            _ => self.err("number out of range"),
        }
    }
}

fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`ParseError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Cursor::new(input);
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after the value");
    }
    Ok(v)
}

// ------------------------------------------------------------- cursor scan

/// Byte range of a key's contents or of a value's text in the scanned
/// input.
pub type Span = std::ops::Range<usize>;

/// A `[[u,v],...]` edge list decoded in place by [`Cursor::edge_list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    /// The `(u, v)` endpoint pairs, in source order.
    pub pairs: Vec<(usize, usize)>,
    /// `false` when some endpoint used a valid non-canonical spelling
    /// (`2.0`, `2e0`, `-0.0`) instead of plain decimal digits.
    pub canonical: bool,
}

impl<'a> Cursor<'a> {
    /// Walks the input as one object and returns its `(key, value)`
    /// spans in source order. Keys are raw (escapes unresolved):
    /// protocol keys are plain ASCII identifiers, so an escaped key
    /// simply fails exact-match lookups downstream. `value(cursor, key)`
    /// runs with the cursor on each value's first byte and returns
    /// `true` if it consumed exactly that value, `false` to have it
    /// skipped. A repeated key, or anything but whitespace after the
    /// object, is an error.
    ///
    /// # Errors
    ///
    /// [`ParseError`] when the input is not a single structurally valid
    /// object, or from `value`.
    pub fn object(
        &mut self,
        value: impl FnMut(&mut Self, &'a str) -> Result<bool, ParseError>,
    ) -> Result<Vec<(Span, Span)>, ParseError> {
        self.skip_ws();
        self.expect(b'{')?;
        let fields = self.walk(0, None, value)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return self.err("trailing characters after the object");
        }
        Ok(fields)
    }

    /// [`Cursor::object`] for a value nested at `depth` that should be
    /// an object. The value's structure is judged exactly as a skip of
    /// it would be (the outer `Err`). What a skip would pass but an
    /// object scan rejects — a value that is not an object, or a
    /// repeated key — comes back as the inner `Err`, with the value
    /// consumed, for the caller to report later.
    ///
    /// # Errors
    ///
    /// As [`Cursor::object`], for structural faults only.
    #[allow(clippy::type_complexity)]
    pub fn nested_object(
        &mut self,
        depth: usize,
        value: impl FnMut(&mut Self, &'a str) -> Result<bool, ParseError>,
    ) -> Result<Result<Vec<(Span, Span)>, ParseError>, ParseError> {
        if let Err(e) = self.expect(b'{') {
            skip_value(self, depth)?;
            return Ok(Err(e));
        }
        let mut duplicate = None;
        let fields = self.walk(depth, Some(&mut duplicate), value)?;
        Ok(duplicate.map_or(Ok(fields), Err))
    }

    /// Decodes the `[[u,v],...]` edge list at the cursor (a value nested
    /// at `depth`) with the strict pair grammar: every element is a
    /// two-element array of non-negative integers, in any valid
    /// spelling. The outer `Err` is a structural fault of the value,
    /// judged exactly as a skip of it would be; the inner `Err` is the
    /// first violation of the pair grammar, with the value consumed.
    ///
    /// # Errors
    ///
    /// [`ParseError`] for structural faults only.
    pub fn edge_list(&mut self, depth: usize) -> Result<Result<EdgeList, ParseError>, ParseError> {
        let start = self.pos;
        match edge_pairs(self) {
            Ok(list) => Ok(Ok(list)),
            Err(e) => {
                self.pos = start;
                skip_value(self, depth)?;
                Ok(Err(e))
            }
        }
    }

    /// The object walk shared by [`Cursor::object`] and
    /// [`Cursor::nested_object`], from just past the opening `{`: values
    /// are skipped at `depth`, and a repeated key is fatal unless
    /// `duplicate` collects the first one.
    fn walk(
        &mut self,
        depth: usize,
        mut duplicate: Option<&mut Option<ParseError>>,
        mut value: impl FnMut(&mut Self, &'a str) -> Result<bool, ParseError>,
    ) -> Result<Vec<(Span, Span)>, ParseError> {
        let input = self.input;
        let mut fields: Vec<(Span, Span)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            self.skip_ws();
            let key_start = self.pos + 1;
            skip_string(self)?;
            let key_span = key_start..self.pos - 1;
            let key = &input[key_span.clone()];
            if fields.iter().any(|(k, _)| &input[k.clone()] == key) {
                let e = ParseError {
                    offset: self.pos,
                    reason: format!("duplicate key \"{key}\""),
                };
                match duplicate.as_deref_mut() {
                    None => return Err(e),
                    Some(first) => {
                        first.get_or_insert(e);
                    }
                }
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value_start = self.pos;
            if !value(self, key)? {
                skip_value(self, depth)?;
            }
            fields.push((key_span, value_start..self.pos));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return self.err(format!("expected ',' or '}}', found {}", self.found_desc())),
            }
        }
    }
}

/// Splits one top-level JSON object into `(key, raw-value)` pairs without
/// building any values: a [`Cursor`] walk that skips every value. Reply
/// decoding and tests use it to extract embedded payloads byte-exactly.
///
/// # Errors
///
/// [`ParseError`] when the input is not a single top-level object.
pub fn scan_top_level(input: &str) -> Result<Vec<(&str, &str)>, ParseError> {
    let fields = Cursor::new(input).object(|_, _| Ok(false))?;
    Ok(fields
        .into_iter()
        .map(|(k, v)| (&input[k], &input[v]))
        .collect())
}

fn skip_string(p: &mut Cursor<'_>) -> Result<(), ParseError> {
    p.expect(b'"')?;
    loop {
        match p.peek() {
            None => return p.err("unterminated string"),
            Some(b'"') => {
                p.pos += 1;
                return Ok(());
            }
            Some(b'\\') => {
                p.pos += 1;
                if p.peek().is_none() {
                    return p.err("unterminated escape");
                }
                p.pos += 1;
            }
            Some(_) => p.pos += 1,
        }
    }
}

/// Attempts to skip an array whose bytes are all numbers, separators,
/// nested brackets, or whitespace, checking bracket balance alone.
/// Returns `false` (with `p.pos` untouched) on any other byte, on
/// nesting past [`MAX_DEPTH`], or on end of input, so other content
/// takes [`skip_value`]'s general loop. This leniency is part of the
/// frame grammar: a number-only array is judged structurally here and
/// only by whoever decodes it.
fn skip_numeric_array(p: &mut Cursor<'_>, depth: usize) -> bool {
    let mut open = 1usize;
    for (i, &b) in p.bytes[p.pos + 1..].iter().enumerate() {
        match b {
            b'[' => {
                open += 1;
                if depth + open > MAX_DEPTH {
                    return false;
                }
            }
            b']' => {
                open -= 1;
                if open == 0 {
                    p.pos += i + 2;
                    return true;
                }
            }
            b'0'..=b'9' | b',' | b'-' | b'+' | b'.' | b'e' | b'E' => {}
            b' ' | b'\t' | b'\n' | b'\r' => {}
            _ => return false,
        }
    }
    false
}

fn skip_value(p: &mut Cursor<'_>, depth: usize) -> Result<(), ParseError> {
    if depth > MAX_DEPTH {
        return p.err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    p.skip_ws();
    match p.peek() {
        Some(b'"') => skip_string(p),
        Some(b'{') => {
            p.pos += 1;
            p.skip_ws();
            if p.peek() == Some(b'}') {
                p.pos += 1;
                return Ok(());
            }
            loop {
                p.skip_ws();
                skip_string(p)?;
                p.skip_ws();
                p.expect(b':')?;
                skip_value(p, depth + 1)?;
                p.skip_ws();
                match p.peek() {
                    Some(b',') => p.pos += 1,
                    Some(b'}') => {
                        p.pos += 1;
                        return Ok(());
                    }
                    _ => return p.err(format!("expected ',' or '}}', found {}", p.found_desc())),
                }
            }
        }
        Some(b'[') => {
            if skip_numeric_array(p, depth) {
                return Ok(());
            }
            p.pos += 1;
            p.skip_ws();
            if p.peek() == Some(b']') {
                p.pos += 1;
                return Ok(());
            }
            loop {
                skip_value(p, depth + 1)?;
                p.skip_ws();
                match p.peek() {
                    Some(b',') => p.pos += 1,
                    Some(b']') => {
                        p.pos += 1;
                        return Ok(());
                    }
                    _ => return p.err(format!("expected ',' or ']', found {}", p.found_desc())),
                }
            }
        }
        Some(_) => {
            // literal or number: consume until a structural delimiter
            let start = p.pos;
            while let Some(b) = p.peek() {
                if matches!(b, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r') {
                    break;
                }
                p.pos += 1;
            }
            if p.pos == start {
                return p.err("expected a value");
            }
            Ok(())
        }
        None => p.err("expected a value, found end of input"),
    }
}

/// The strict pair grammar behind [`Cursor::edge_list`], read with a
/// local index: edge lists are most of a frame's bytes. Stops at the
/// list's closing `]`; whatever follows is the walk's business.
fn edge_pairs(p: &mut Cursor<'_>) -> Result<EdgeList, ParseError> {
    let bytes = p.bytes;
    let mut i = p.pos;
    let mut pairs = Vec::new();
    let mut canonical = true;
    // where the grammar stops, the byte it wanted there (`None`: a
    // separator or the end, after a pair)
    let want = 'grammar: {
        if bytes.get(i) != Some(&b'[') {
            break 'grammar Some(b'[');
        }
        i += 1;
        skip_ws_at(bytes, &mut i);
        if bytes.get(i) == Some(&b']') {
            p.pos = i + 1;
            return Ok(EdgeList { pairs, canonical });
        }
        // canonical renderings spend ≥ 6 bytes per pair (`[a,b],`), so
        // this preallocation never reallocates on the hot path
        pairs.reserve((bytes.len() - i) / 6 + 1);
        loop {
            skip_ws_at(bytes, &mut i);
            if bytes.get(i) != Some(&b'[') {
                break 'grammar Some(b'[');
            }
            i += 1;
            skip_ws_at(bytes, &mut i);
            let (u, next, plain) = endpoint(p, i)?;
            (i, canonical) = (next, canonical && plain);
            skip_ws_at(bytes, &mut i);
            if bytes.get(i) != Some(&b',') {
                break 'grammar Some(b',');
            }
            i += 1;
            skip_ws_at(bytes, &mut i);
            let (v, next, plain) = endpoint(p, i)?;
            (i, canonical) = (next, canonical && plain);
            skip_ws_at(bytes, &mut i);
            if bytes.get(i) != Some(&b']') {
                break 'grammar Some(b']');
            }
            i += 1;
            pairs.push((u, v));
            skip_ws_at(bytes, &mut i);
            match bytes.get(i) {
                Some(b',') => i += 1,
                Some(b']') => {
                    p.pos = i + 1;
                    return Ok(EdgeList { pairs, canonical });
                }
                _ => break 'grammar None,
            }
        }
    };
    p.pos = i;
    let want = match want {
        Some(b) => format!("'{}'", b as char),
        None => "',' or ']'".to_owned(),
    };
    p.err(format!("expected {want}, found {}", p.found_desc()))
}

#[inline]
fn skip_ws_at(bytes: &[u8], i: &mut usize) {
    while matches!(bytes.get(*i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *i += 1;
    }
}

/// One edge endpoint at `i`: its value, the index past it, and whether
/// it was spelled canonically. Plain decimal digits are read inline; a
/// leading zero ends the token after the `0`, exactly as the number
/// grammar does. Anything else — a sign, a fraction, an exponent, a
/// value past `usize::MAX`, or no digit at all — is re-read at this
/// token by [`Cursor::number`], which accepts exact non-negative
/// integers in any spelling and names every other fault.
#[inline]
fn endpoint(p: &mut Cursor<'_>, i: usize) -> Result<(usize, usize, bool), ParseError> {
    let bytes = p.bytes;
    let mut j = i;
    let mut value = 0usize;
    match bytes.get(j) {
        Some(b'0') => j += 1,
        Some(&d @ b'1'..=b'9') => {
            value = usize::from(d - b'0');
            j += 1;
            while let Some(&d) = bytes.get(j) {
                if !d.is_ascii_digit() {
                    break;
                }
                match value
                    .checked_mul(10)
                    .and_then(|v| v.checked_add(usize::from(d - b'0')))
                {
                    Some(v) => value = v,
                    None => return spelled_endpoint(p, i),
                }
                j += 1;
            }
        }
        _ => return spelled_endpoint(p, i),
    }
    if matches!(bytes.get(j), Some(b'.' | b'e' | b'E')) {
        return spelled_endpoint(p, i);
    }
    Ok((value, j, true))
}

#[cold]
fn spelled_endpoint(p: &mut Cursor<'_>, i: usize) -> Result<(usize, usize, bool), ParseError> {
    p.pos = i;
    let Some(value) = p.number()?.as_usize() else {
        return p.err("edge endpoints must be non-negative integers");
    };
    Ok((value, p.pos, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes a standalone edge list the way the frame scan does.
    fn edge_list(input: &str) -> Result<EdgeList, ParseError> {
        Cursor::new(input).edge_list(0).and_then(|decoded| decoded)
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("42").unwrap(), Json::Number(Number::Unsigned(42)));
        assert_eq!(parse("-7").unwrap(), Json::Number(Number::Signed(-7)));
        assert_eq!(parse("1.5e3").unwrap(), Json::Number(Number::Float(1500.0)));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::String("a\nb".into()));
    }

    #[test]
    fn u64_seeds_stay_exact() {
        let v = parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v.as_number().unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn objects_keep_order_and_reject_duplicates() {
        let v = parse(r#"{"b":1,"a":[2,3],"c":{"d":null}}"#).unwrap();
        let fields = v.as_object().unwrap();
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Json::Null));
        assert!(parse(r#"{"a":1,"a":2}"#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "nul",
            "NaN",
            "Infinity",
            "01",
            "1.",
            "+1",
            "\"unterminated",
            "\"bad\\q\"",
            "{\"a\":1}x",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_cap_holds() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        assert!(scan_top_level(&format!("{{\"a\":{deep}}}")).is_err());
    }

    #[test]
    fn unicode_and_surrogates() {
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Json::String("é".into()));
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::String("😀".into())
        );
        assert!(parse("\"\\ud83d\"").is_err());
        assert_eq!(parse("\"héllo\"").unwrap(), Json::String("héllo".into()));
    }

    #[test]
    fn scanner_returns_raw_slices() {
        let line = r#"{"v":1,"type":"request","instance":{"kind":"host","edges":[[0,1]]}}"#;
        let fields = scan_top_level(line).unwrap();
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0], ("v", "1"));
        assert_eq!(fields[1], ("type", "\"request\""));
        assert_eq!(
            fields[2],
            ("instance", r#"{"kind":"host","edges":[[0,1]]}"#)
        );
    }

    #[test]
    fn scanner_rejects_garbage() {
        for bad in ["", "[]", "{\"a\" 1}", "{\"a\":1} trailing", "{\"a\":{}"] {
            assert!(scan_top_level(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integer_accessors_hold_at_the_u64_boundary() {
        // `u64::MAX as f64` rounds up to 2^64; both it and the issue's
        // decimal form must be rejected, not saturated to u64::MAX
        let two64 = u64::MAX as f64;
        assert_eq!(Number::Float(two64).as_u64(), None);
        assert_eq!(Number::Float(two64).as_usize(), None);
        let n = parse("1.8446744073709552e19").unwrap().as_number().unwrap();
        assert_eq!(n.as_u64(), None);
        // u64::MAX itself is not f64-representable: its float spelling
        // also rounds to 2^64 and must be rejected on the float path
        let n = parse("18446744073709551615.0")
            .unwrap()
            .as_number()
            .unwrap();
        assert_eq!(n.as_u64(), None);
        // ...while the integer spelling stays exact
        let n = parse("18446744073709551615").unwrap().as_number().unwrap();
        assert_eq!(n.as_u64(), Some(u64::MAX));
        // MAX+1 overflows u64 and lands in the float branch → rejected
        let n = parse("18446744073709551616").unwrap().as_number().unwrap();
        assert_eq!(n.as_u64(), None);
        // nearest representable float below 2^64 is 2^64 - 2048: in range
        let below = 18_446_744_073_709_549_568.0_f64;
        assert!(below < two64);
        assert_eq!(
            Number::Float(below).as_u64(),
            Some(18_446_744_073_709_549_568)
        );
        // MAX-1 as integer stays exact
        let n = parse("18446744073709551614").unwrap().as_number().unwrap();
        assert_eq!(n.as_u64(), Some(u64::MAX - 1));
        // non-integers and negatives never pass
        assert_eq!(Number::Float(1.5).as_u64(), None);
        assert_eq!(Number::Float(-1.0).as_u64(), None);
        // as_u32 narrows with the same exactness
        assert_eq!(
            Number::Unsigned(u64::from(u32::MAX)).as_u32(),
            Some(u32::MAX)
        );
        assert_eq!(Number::Unsigned(u64::from(u32::MAX) + 1).as_u32(), None);
        assert_eq!(Number::Float(4_294_967_295.0).as_u32(), Some(u32::MAX));
        assert_eq!(Number::Float(4_294_967_296.0).as_u32(), None);
    }

    #[test]
    fn exponent_extremes_are_pinned() {
        // overflow to ±inf violates the strict contract: typed rejection
        for bad in ["1e999", "-1e999", "2e308", "123e100000"] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.reason, "number out of range", "{bad}");
        }
        // underflow rounds to 0.0 and is accepted
        assert_eq!(parse("1e-999").unwrap(), Json::Number(Number::Float(0.0)));
        // `-0` stays an exact signed integer, and signed numbers are
        // never valid edge endpoints
        assert_eq!(parse("-0").unwrap(), Json::Number(Number::Signed(0)));
        assert_eq!(Number::Signed(0).as_u64(), None);
        assert!(edge_list("[[-0,1]]").is_err());
        // `-0.0` is a float equal to zero (IEEE) and converts to 0
        let n = parse("-0.0").unwrap().as_number().unwrap();
        assert_eq!(n, Number::Float(-0.0));
        assert_eq!(n.as_u64(), Some(0));
    }

    #[test]
    fn edge_lists_decode_in_place() {
        let canonical = edge_list("[[0,1],[2, 3]]").unwrap();
        assert_eq!(canonical.pairs, vec![(0, 1), (2, 3)]);
        assert!(canonical.canonical);
        assert_eq!(edge_list("[]").unwrap().pairs, vec![]);
        // valid non-canonical spellings decode, flagged
        let spelled = edge_list("[[0,1],[2,3.0],[2e1,-0.0]]").unwrap();
        assert_eq!(spelled.pairs, vec![(0, 1), (2, 3), (20, 0)]);
        assert!(!spelled.canonical);
        // the decoder stops at the list's end, and a malformed list is
        // skipped like any value: the walk goes on past both
        let mut decoded = Vec::new();
        let fields = Cursor::new(r#"{"a":[[0,1]] ,"b":[[0,,1]]}"#)
            .object(|c, _| {
                decoded.push(c.edge_list(0)?);
                Ok(true)
            })
            .unwrap();
        assert_eq!(fields.len(), 2);
        assert!(decoded[0].is_ok() && decoded[1].is_err());
        for (bad, offset, reason) in [
            ("[[0]]", 3, "expected ',', found ']'"),
            ("[[0,1,2]]", 5, "expected ']', found ','"),
            (
                "[[0,-1]]",
                6,
                "edge endpoints must be non-negative integers",
            ),
            (
                "[[0,1.5]]",
                7,
                "edge endpoints must be non-negative integers",
            ),
            ("[[01,2]]", 3, "expected ',', found '1'"),
            ("[[0,,1]]", 4, "malformed number"),
            ("[0,1]", 1, "expected '[', found '0'"),
            ("[[1e400,1]]", 7, "number out of range"),
            (
                "[[18446744073709551616,0]]",
                22,
                "edge endpoints must be non-negative integers",
            ),
        ] {
            let err = edge_list(bad).unwrap_err();
            assert_eq!((err.offset, err.reason.as_str()), (offset, reason), "{bad}");
        }
        // while a structural fault of the list is the walk's
        assert!(Cursor::new("[[0,1]").edge_list(0).is_err());
    }
}
