//! A minimal, strict, serde-free JSON reader for the wire protocol.
//!
//! The repo renders JSON lines without serde (`splitting_api`'s
//! `to_json_line` family); this module is the matching ingest half. It is
//! deliberately strict — no trailing commas, no comments, no `NaN` /
//! `Infinity` tokens, a hard nesting-depth cap — because every accepted
//! frame must round-trip through the renderer byte-for-byte.
//!
//! One [`Cursor`] reads everything, and builds no tree:
//!
//! * [`Cursor::object`] — one pass over an object that skips each value
//!   or decodes it in place, the way ingest reads a whole frame into
//!   `(key, value)` spans: the edge lists that dominate a frame's bytes
//!   are decoded by [`Cursor::edge_list`] in the same traversal that
//!   finds their end;
//! * [`Fields`] — the one field reader over those spans, with the typed
//!   scalar readers [`Cursor::string_at`], [`Cursor::number_at`] and
//!   [`Cursor::bool_at`];
//! * [`Cursor::check`] — the full strict grammar over one small value,
//!   keeping nothing (the frame's `problem` object).
//!
//! Keys match byte for byte, escapes unresolved, everywhere: protocol
//! keys are plain ASCII identifiers, so an escaped spelling of one is a
//! different key.

use std::fmt;

/// Maximum nesting depth accepted by every walk and check. Frames
/// in this protocol nest at most ~4 levels; the cap only guards stack
/// safety against adversarial input.
pub const MAX_DEPTH: usize = 64;

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

/// A cursor over one input: the module's only reader. Ingest walks one
/// object value by value with it. Walked values are skipped by default —
/// structure is validated (string escapes, balanced nesting, comma
/// placement, depth), grammar inside skipped values is not — or decoded
/// in place by the caller's callback, in the same pass that finds each
/// value's end; a field's scalar value is read later, at its span.
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

    /// The byte at the cursor, if any.
    pub fn peek(&self) -> Option<u8> {
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

    fn literal(&mut self, text: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            self.err(format!("expected '{text}'"))
        }
    }

    fn boolean(&mut self) -> Result<bool, ParseError> {
        let value = self.peek() == Some(b't');
        self.literal(if value { "true" } else { "false" })?;
        Ok(value)
    }

    /// Reads the one value that fills `span`, whitespace around it
    /// allowed.
    fn read_at<T>(
        &mut self,
        span: Span,
        read: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.pos = span.start;
        self.skip_ws();
        let value = read(self)?;
        self.skip_ws();
        if self.pos != span.end {
            return self.err("trailing characters after the value");
        }
        Ok(value)
    }

    /// The string that fills `span`, escapes resolved.
    pub fn string_at(&mut self, span: Span) -> Result<String, ParseError> {
        self.read_at(span, Self::string)
    }

    /// The number that fills `span`.
    pub fn number_at(&mut self, span: Span) -> Result<Number, ParseError> {
        self.read_at(span, Self::number)
    }

    /// The `true` or `false` that fills `span`.
    pub fn bool_at(&mut self, span: Span) -> Result<bool, ParseError> {
        self.read_at(span, Self::boolean)
    }

    /// Checks that the input is one value in the full strict grammar —
    /// every string decoded, every literal and number exact, no repeated
    /// key — keeping nothing. A walk judges structure only; a small value
    /// gets this check before its fields are read, so its first
    /// malformed byte is the one reported.
    pub fn check(mut self) -> Result<(), ParseError> {
        self.read_at(0..self.bytes.len(), |c| c.check_value(0))
    }

    fn check_value(&mut self, depth: usize) -> Result<(), ParseError> {
        if depth > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        let close = match self.peek() {
            Some(b'{') => b'}',
            Some(b'[') => b']',
            Some(b'"') => return self.string().map(drop),
            Some(b't' | b'f') => return self.boolean().map(drop),
            Some(b'n') => return self.literal("null"),
            Some(b'-' | b'0'..=b'9') => return self.number().map(drop),
            _ => return self.err(format!("expected a value, found {}", self.found_desc())),
        };
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        let mut keys: Vec<Span> = Vec::new();
        loop {
            if close == b'}' {
                self.skip_ws();
                let start = self.pos + 1;
                self.string()?;
                let key = start..self.pos - 1;
                if keys
                    .iter()
                    .any(|k| self.input[k.clone()] == self.input[key.clone()])
                {
                    return self.err(format!("duplicate key \"{}\"", &self.input[key]));
                }
                keys.push(key);
                self.skip_ws();
                self.expect(b':')?;
            }
            self.check_value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return self.err(format!(
                        "expected ',' or '{}', found {}",
                        close as char,
                        self.found_desc()
                    ))
                }
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

    /// [`Cursor::object`] for a value nested at `depth` (the depth a
    /// walk skips it at, as for [`Cursor::edge_list`]) that should be an
    /// object. The value's structure is judged exactly as a skip of it
    /// would be (the outer `Err`), whatever its type. What a skip would
    /// pass but an object scan rejects — a value that is not an object,
    /// or a repeated key — comes back as the inner `Err`, with the value
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
        let fields = self.walk(depth + 1, Some(&mut duplicate), value)?;
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

/// The JSON type of a value that starts with byte `first`.
fn type_name(first: u8) -> &'static str {
    match first {
        b'"' => "string",
        b'{' => "object",
        b'[' => "array",
        b't' | b'f' => "bool",
        b'n' => "null",
        _ => "number",
    }
}

/// The one field reader over a walked object's `(key, value)` spans, for
/// every wire object. Keys match byte for byte, escapes unresolved. A
/// typed read of an absent key is `Ok(None)`; of a value that does not
/// read as the asked type, `Err` with the JSON type its first byte
/// starts (`"string"`, `"number"`, `"bool"`, `"null"`, `"array"`,
/// `"object"`).
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a> {
    input: &'a str,
    spans: &'a [(Span, Span)],
}

impl<'a> Fields<'a> {
    /// The fields `spans` of a walk over `input`.
    pub fn new(input: &'a str, spans: &'a [(Span, Span)]) -> Self {
        Fields { input, spans }
    }

    /// The value span of `key`.
    pub fn span(&self, key: &str) -> Option<Span> {
        self.spans
            .iter()
            .find(|(k, _)| &self.input[k.clone()] == key)
            .map(|(_, v)| v.clone())
    }

    /// The raw value text of `key`.
    pub fn raw(&self, key: &str) -> Option<&'a str> {
        self.span(key).map(|v| &self.input[v])
    }

    fn read<T>(
        &self,
        key: &str,
        read: impl FnOnce(&mut Cursor<'a>, Span) -> Result<T, ParseError>,
    ) -> Result<Option<T>, &'static str> {
        let Some(span) = self.span(key) else {
            return Ok(None);
        };
        let first = self.input.as_bytes()[span.start];
        read(&mut Cursor::new(self.input), span)
            .map(Some)
            .map_err(|_| type_name(first))
    }

    /// The string value of `key`, escapes resolved.
    pub fn str(&self, key: &str) -> Result<Option<String>, &'static str> {
        self.read(key, Cursor::string_at)
    }

    /// The number value of `key`.
    pub fn number(&self, key: &str) -> Result<Option<Number>, &'static str> {
        self.read(key, Cursor::number_at)
    }

    /// The bool value of `key`.
    pub fn bool(&self, key: &str) -> Result<Option<bool>, &'static str> {
        self.read(key, Cursor::bool_at)
    }

    /// The value of `key` as a non-negative integer in range; a number
    /// that is not one fails as `"number"`.
    pub fn usize(&self, key: &str) -> Result<Option<usize>, &'static str> {
        self.number(key)?
            .map(|n| n.as_usize().ok_or("number"))
            .transpose()
    }

    /// Checks the key set: `Err` with the first key not in `allowed`.
    pub fn only(&self, allowed: &[&str]) -> Result<(), &'a str> {
        let mut keys = self.spans.iter().map(|(k, _)| &self.input[k.clone()]);
        keys.find(|key| !allowed.contains(key)).map_or(Ok(()), Err)
    }
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
#[path = "../tests/support/json_tree.rs"]
mod json_tree;

#[cfg(test)]
mod tests {
    use super::json_tree::{parse, Json};
    use super::*;

    /// Decodes a standalone edge list the way the frame scan does.
    fn edge_list(input: &str) -> Result<EdgeList, ParseError> {
        Cursor::new(input).edge_list(0).and_then(|decoded| decoded)
    }

    fn string(input: &str) -> Result<String, ParseError> {
        Cursor::new(input).string_at(0..input.len())
    }

    fn number(input: &str) -> Result<Number, ParseError> {
        Cursor::new(input).number_at(0..input.len())
    }

    fn check(input: &str) -> Result<(), ParseError> {
        Cursor::new(input).check()
    }

    /// Walks `input` as one object, skipping every value.
    fn walk(input: &str) -> Result<Vec<(Span, Span)>, ParseError> {
        Cursor::new(input).object(|_, _| Ok(false))
    }

    #[test]
    fn reads_scalars() {
        assert_eq!(Cursor::new("true").bool_at(0..4), Ok(true));
        assert_eq!(Cursor::new(" false ").bool_at(0..7), Ok(false));
        assert!(Cursor::new("null").bool_at(0..4).is_err());
        assert_eq!(number("42"), Ok(Number::Unsigned(42)));
        assert_eq!(number("-7"), Ok(Number::Signed(-7)));
        assert_eq!(number("1.5e3"), Ok(Number::Float(1500.0)));
        assert_eq!(string("\"a\\nb\""), Ok("a\nb".into()));
        // a span holds exactly one value
        let err = number("1 2").unwrap_err();
        assert_eq!(
            (err.offset, err.reason.as_str()),
            (2, "trailing characters after the value")
        );
        assert!(string("\"a\" ,").is_err());
    }

    #[test]
    fn u64_seeds_stay_exact() {
        let n = number(&u64::MAX.to_string()).unwrap();
        assert_eq!(n.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn fields_read_by_exact_key() {
        let line = r#"{"b":1,"a":[2,3],"c":{"d":null},"s":"x\u0041","t":true}"#;
        let spans = walk(line).unwrap();
        let fields = Fields::new(line, &spans);
        assert_eq!(fields.raw("a"), Some("[2,3]"));
        assert_eq!(fields.raw("c"), Some(r#"{"d":null}"#));
        assert_eq!(fields.usize("b"), Ok(Some(1)));
        assert_eq!(fields.str("s"), Ok(Some("xA".into())));
        assert_eq!(fields.bool("t"), Ok(Some(true)));
        assert_eq!(fields.str("missing"), Ok(None));
        // a wrong-typed read names the type the value starts with
        assert_eq!(fields.str("b"), Err("number"));
        assert_eq!(fields.number("a"), Err("array"));
        assert_eq!(fields.bool("c"), Err("object"));
        assert_eq!(fields.usize("s"), Err("string"));
        assert_eq!(fields.only(&["a", "b", "c", "s", "t"]), Ok(()));
        assert_eq!(fields.only(&["a", "b"]), Err("c"));
        // keys match byte for byte: an escaped key is a different key
        let line = r#"{"\u0061":1}"#;
        let spans = walk(line).unwrap();
        let fields = Fields::new(line, &spans);
        assert_eq!(fields.raw("a"), None);
        assert_eq!(fields.only(&["a"]), Err("\\u0061"));
        let negative = r#"{"n":-1}"#;
        let spans = walk(negative).unwrap();
        assert_eq!(Fields::new(negative, &spans).usize("n"), Err("number"));
    }

    #[test]
    fn check_rejects_what_the_tree_rejects() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1,\"a\":2}",
            "{\"a\":[{\"b\":1,\"b\":2}]}",
            "nul",
            "NaN",
            "Infinity",
            "01",
            "1.",
            "+1",
            "[1 2]",
            "{\"a\":truex}",
            "\"unterminated",
            "\"bad\\q\"",
            "{\"a\":1}x",
            "\u{1}",
        ] {
            let tree = parse(bad).unwrap_err();
            assert_eq!(check(bad), Err(tree), "{bad:?}");
        }
        for good in [
            "{}",
            "[]",
            r#"{"a":[1,{"b":"\u00e9"}],"c":-0.5e3}"#,
            " true ",
        ] {
            assert!(parse(good).is_ok() && check(good).is_ok(), "{good:?}");
        }
    }

    #[test]
    fn depth_cap_holds() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(check(&deep).is_err());
        assert!(walk(&format!("{{\"a\":{deep}}}")).is_err());
    }

    #[test]
    fn unicode_and_surrogates() {
        assert_eq!(string("\"\\u00e9\""), Ok("é".into()));
        assert_eq!(string("\"\\ud83d\\ude00\""), Ok("😀".into()));
        assert!(string("\"\\ud83d\"").is_err());
        assert_eq!(string("\"héllo\""), Ok("héllo".into()));
    }

    #[test]
    fn walk_returns_raw_spans() {
        let line = r#"{"v":1,"type":"request","instance":{"kind":"host","edges":[[0,1]]}}"#;
        let spans = walk(line).unwrap();
        let text: Vec<(&str, &str)> = spans
            .iter()
            .map(|(k, v)| (&line[k.clone()], &line[v.clone()]))
            .collect();
        assert_eq!(
            text,
            [
                ("v", "1"),
                ("type", "\"request\""),
                ("instance", r#"{"kind":"host","edges":[[0,1]]}"#),
            ]
        );
    }

    #[test]
    fn walk_rejects_garbage() {
        for bad in ["", "[]", "{\"a\" 1}", "{\"a\":1} trailing", "{\"a\":{}"] {
            assert!(walk(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integer_accessors_hold_at_the_u64_boundary() {
        // `u64::MAX as f64` rounds up to 2^64; both it and the issue's
        // decimal form must be rejected, not saturated to u64::MAX
        let two64 = u64::MAX as f64;
        assert_eq!(Number::Float(two64).as_u64(), None);
        assert_eq!(Number::Float(two64).as_usize(), None);
        assert_eq!(number("1.8446744073709552e19").unwrap().as_u64(), None);
        // u64::MAX itself is not f64-representable: its float spelling
        // also rounds to 2^64 and must be rejected on the float path
        assert_eq!(number("18446744073709551615.0").unwrap().as_u64(), None);
        // ...while the integer spelling stays exact
        assert_eq!(
            number("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        // MAX+1 overflows u64 and lands in the float branch → rejected
        assert_eq!(number("18446744073709551616").unwrap().as_u64(), None);
        // nearest representable float below 2^64 is 2^64 - 2048: in range
        let below = 18_446_744_073_709_549_568.0_f64;
        assert!(below < two64);
        assert_eq!(
            Number::Float(below).as_u64(),
            Some(18_446_744_073_709_549_568)
        );
        // MAX-1 as integer stays exact
        assert_eq!(
            number("18446744073709551614").unwrap().as_u64(),
            Some(u64::MAX - 1)
        );
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
            let err = number(bad).unwrap_err();
            assert_eq!(err.reason, "number out of range", "{bad}");
        }
        // underflow rounds to 0.0 and is accepted
        assert_eq!(number("1e-999"), Ok(Number::Float(0.0)));
        // `-0` stays an exact signed integer, and signed numbers are
        // never valid edge endpoints
        assert_eq!(number("-0"), Ok(Number::Signed(0)));
        assert_eq!(Number::Signed(0).as_u64(), None);
        assert!(edge_list("[[-0,1]]").is_err());
        // `-0.0` is a float equal to zero (IEEE) and converts to 0
        let n = number("-0.0").unwrap();
        assert_eq!(n, Number::Float(-0.0));
        assert_eq!(n.as_u64(), Some(0));
        // the reference tree reads the same numbers
        assert_eq!(parse("-0.0"), Ok(Json::Number(n)));
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

/// The typed scalar readers and the strict check against the reference
/// tree parser, over scalar soup. CI runs this module with
/// `PROPTEST_CASES=2048`.
#[cfg(test)]
mod scalar_props {
    use super::json_tree::{parse, Json};
    use super::*;
    use proptest::prelude::*;

    /// Scalar soup: string pieces (escapes, surrogate halves and pairs,
    /// multi-byte and control characters), number pieces (the u64 and
    /// i64 boundaries, exponent extremes), the literals and their near
    /// misses, and whitespace.
    const FRAGMENTS: &[&str] = &[
        "\"",
        "\\",
        "\\\"",
        "\\\\",
        "\\/",
        "\\n",
        "\\t",
        "\\u",
        "\\u00e9",
        "\\ud83d",
        "\\ude00",
        "\\uD800",
        "\\uDC00",
        "\\u12",
        "\\x",
        "a",
        "é",
        "😀",
        "\u{1}",
        " ",
        "\n",
        "0",
        "1",
        "9",
        "-",
        "+",
        ".",
        "e",
        "E",
        "-0",
        "18446744073709551615",
        "18446744073709551616",
        "9223372036854775807",
        "-9223372036854775808",
        "-9223372036854775809",
        "1e308",
        "1e309",
        "e-400",
        "e+",
        "1.7976931348623157e308",
        "true",
        "false",
        "null",
        "tru",
        "fals",
        "nul",
        "True",
        "NaN",
        ",",
        "]",
        "}",
    ];

    /// Whole, valid scalars for the mutation property.
    const SCALARS: &[&str] = &[
        "\"plain\"",
        "\"esc \\\" \\\\ \\/ \\b \\f \\n \\r \\t\"",
        "\"\\u00e9\\ud83d\\ude00é\"",
        "18446744073709551615",
        "-9223372036854775808",
        "-0.0",
        "1.5e-300",
        "1.7976931348623157e308",
        "true",
        "false",
        "null",
    ];

    /// A byte of each class the soup can stray into.
    const BYTES: &[u8] = b"\"\\u0123456789abcdefxABCDEF-+.eE tfnrl,";

    fn agree(input: &str) {
        let tree = parse(input);
        let first = input
            .trim_start_matches([' ', '\t', '\n', '\r'])
            .bytes()
            .next();
        let whole = 0..input.len();
        let string = Cursor::new(input).string_at(whole.clone());
        let number = Cursor::new(input).number_at(whole.clone());
        let boolean = Cursor::new(input).bool_at(whole);
        match first {
            Some(b'"') => assert_eq!(
                string,
                tree.clone()
                    .map(|j| j.as_str().expect("a string").to_owned()),
                "string reader vs tree on {input:?}"
            ),
            _ => assert!(string.is_err(), "string reader accepted {input:?}"),
        }
        match first {
            Some(b'-' | b'0'..=b'9') => assert_eq!(
                number,
                tree.clone().map(|j| j.as_number().expect("a number")),
                "number reader vs tree on {input:?}"
            ),
            _ => assert!(number.is_err(), "number reader accepted {input:?}"),
        }
        match first {
            Some(b't' | b'f') => assert_eq!(
                boolean,
                tree.clone().map(|j| j.as_bool().expect("a bool")),
                "bool reader vs tree on {input:?}"
            ),
            _ => assert!(boolean.is_err(), "bool reader accepted {input:?}"),
        }
        assert_eq!(
            Cursor::new(input).check(),
            tree.clone().map(drop),
            "check vs tree on {input:?}"
        );
        // whatever the tree reads, exactly one reader reads the same
        if let Ok(value) = tree {
            let read = match value {
                Json::String(_) => string.is_ok(),
                Json::Number(_) => number.is_ok(),
                Json::Bool(_) => boolean.is_ok(),
                _ => true,
            };
            assert!(read, "no reader accepted {input:?}");
        }
    }

    proptest! {
        #[test]
        fn scalar_soup_agrees(
            picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..8)
        ) {
            let input: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            agree(&input);
        }

        // a valid scalar with one character replaced, dropped, or
        // followed by a stray byte
        #[test]
        fn mutated_scalars_agree(
            (which, at, byte, how) in (0usize..SCALARS.len(), 0usize..64, 0usize..BYTES.len(), 0usize..3)
        ) {
            let scalar = SCALARS[which];
            agree(scalar);
            let at = at % scalar.chars().count();
            let stray = BYTES[byte] as char;
            let mutated: String = match how {
                0 => scalar
                    .chars()
                    .enumerate()
                    .map(|(i, c)| if i == at { stray } else { c })
                    .collect(),
                1 => scalar
                    .chars()
                    .enumerate()
                    .filter(|&(i, _)| i != at)
                    .map(|(_, c)| c)
                    .collect(),
                _ => format!("{scalar}{stray}"),
            };
            agree(&mutated);
        }
    }
}
