//! Serde-free JSON-line rendering helpers.
//!
//! The service-log and wire format is newline-delimited JSON with a
//! stable field order; this module provides the tiny escaping/assembly
//! layer every `to_json_line` implementation shares, so no external
//! serialization dependency is needed. It is public because the
//! `splitting-server` wire layer assembles its protocol frames with the
//! same builder — one renderer, one byte-level convention (see
//! `docs/PROTOCOL.md`).

use std::fmt::Write as _;

/// Escapes `s` into `out` as JSON string contents (without the quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Renders an `f64` the way the rest of the JSON reports do: finite
/// numbers verbatim, non-finite as `null` (JSON has no NaN/Inf).
pub fn number(x: f64) -> String {
    if x == 0.0 {
        // normalize -0.0: round-trips as 0 and keeps log lines diffable
        "0".into()
    } else if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// An incrementally-built single-line JSON object with stable field order.
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// Starts an empty object (`{`).
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Adds a string field.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Adds a raw (pre-rendered) JSON value — a number, bool, or nested
    /// object the caller already assembled.
    pub fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn uint(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, &value.to_string())
    }

    /// Adds a float field (`null` when non-finite).
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        let n = number(value);
        self.raw(key, &n)
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Closes the object and returns the line.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_assembles_in_order() {
        let mut o = JsonObject::new();
        o.string("a", "x\"y")
            .uint("b", 7)
            .float("c", 1.5)
            .bool("d", true);
        assert_eq!(
            o.finish(),
            "{\"a\":\"x\\\"y\",\"b\":7,\"c\":1.5,\"d\":true}"
        );
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(0.25), "0.25");
    }

    #[test]
    fn control_chars_escape() {
        let mut s = String::new();
        escape_into(&mut s, "a\x01b\nc\"d\\e");
        assert_eq!(s, "a\\u0001b\\nc\\\"d\\\\e");
    }
}
