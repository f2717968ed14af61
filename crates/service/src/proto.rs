//! JSON-lines request/response protocol.
//!
//! One request object per line in, one response object per line out —
//! the transport `freqywm serve` (stdin/stdout) and `freqywm batch`
//! (file) speak. Ops:
//!
//! | op | fields | response |
//! |---|---|---|
//! | `register` | `tenant`, `secret` (hex) \| `secret_label` | `ledger_index` |
//! | `embed` | `tenant`, `counts` \| `tokens`, `budget?`, `z?`, `exclude_free_pairs?` | report fields |
//! | `detect` | `tenant`, `counts` \| `tokens`, `t?`, `k?`, `scale?` | verdict fields |
//! | `maintain` | `tenant`, `updates`, `replenish?` | maintenance report |
//! | `dispute` | `a`, `b`, `t?`, `quorum?` | winner + protocol detail |
//! | `quota` | `tenant`, `embed?`, `detect?`, `maintain?`, `window_ms?` | budgets + window usage |
//! | `metrics` | — | full metrics snapshot |
//! | `history` | `last?` | retained snapshot ring + window rates |
//! | `trace` | `trace?`, `tenant?`, `for_op?`, `min_ms?`, `limit?` | recent stage spans |
//! | `hello` | `token?` | handshake / auth / liveness ack |
//! | `shutdown` | — | ack (stops `serve`) |
//!
//! Every request may carry a `"trace"` string: an end-to-end trace id
//! threaded through the router, the engine queue and the worker, and
//! echoed in every span the request produces. Requests without one get
//! an id minted at the first tier that sees them.
//!
//! With an auth token configured on the transport, a connection must
//! present it before anything else runs: `{"op":"hello","token":"…"}`
//! unlocks the session, or an individual request may carry a matching
//! `"auth"` field (see [`Session::with_auth`]).
//!
//! `counts` is `[["token", count], …]`, `tokens` is `["token", …]`,
//! `updates` is `[["token", delta], …]`. Every response carries
//! `"ok"`; requests may carry an `"id"` which is echoed back. No serde
//! in the dependency whitelist, so [`json`] is a small hand-rolled
//! parser/writer.

use crate::engine::Engine;
use crate::error::ServiceError;
use crate::framing::{LineEvent, LineFramer};
use crate::job::{JobData, JobKind, JobOutput, JobPayload, JobSpec, JobState};
use crate::metrics::M;
use crate::registry::CountRows;
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_crypto::prf::Secret;
use freqywm_data::token::Token;
use freqywm_obs::{OpKind, Span, Stage, TraceFilter};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default input frame-size cap shared by the pipe and socket
/// transports: one JSON-lines request may not exceed this many bytes.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

pub mod json {
    //! Minimal JSON: parse into a [`Value`] tree, escape strings out.
    //!
    //! One scanner serves every reader of request text: [`parse`] builds
    //! a whole tree, while [`super::Envelope`] builds only the top-level
    //! fields. The router's envelope steps over the bulk arrays with
    //! `Parser::skip_value`, which checks them exactly as [`parse`]
    //! would, error text included; a shard's decodes them into rows in
    //! the same pass, through `Parser::decode_value`.

    use std::borrow::Cow;

    /// A parsed JSON value. Numbers are `f64` (counts fit exactly up to
    /// 2^53, far beyond any realistic token frequency).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        pub fn as_i64(&self) -> Option<i64> {
            match self {
                Value::Num(n) if n.fract() == 0.0 => Some(*n as i64),
                _ => None,
            }
        }

        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }
    }

    /// Renders a [`Value`] back to compact JSON. Integer-valued numbers
    /// print without a fractional part (f64 `Display` already does
    /// this), so counters survive a parse→write round trip unchanged.
    pub fn write(value: &Value) -> String {
        match value {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => format!("{n}"),
            Value::Str(s) => format!("\"{}\"", escape(s)),
            Value::Arr(items) => {
                let parts: Vec<String> = items.iter().map(write).collect();
                format!("[{}]", parts.join(","))
            }
            Value::Obj(fields) => {
                let parts: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", escape(k), write(v)))
                    .collect();
                format!("{{{}}}", parts.join(","))
            }
        }
    }

    pub use freqywm_obs::family::escape_json as escape;

    /// Deepest array/object nesting [`parse`] accepts. The parser
    /// recurses once per level, so without a cap one long line of `[`
    /// from the network would overflow the stack of the process.
    pub const MAX_DEPTH: usize = 64;

    /// Parses one JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser::new(input);
        let v = p.value()?;
        p.finish()?;
        Ok(v)
    }

    /// The scanner behind [`parse`]. Its entry points build a [`Value`]
    /// ([`Parser::value`]), check a value without building anything
    /// ([`Parser::skip_value`]), or hand each object field / array item
    /// to a callback ([`Parser::object`], [`Parser::array`],
    /// [`Parser::decode_value`]) so a caller can decode straight into
    /// its own types. All of them accept and refuse the same text with
    /// the same errors.
    pub(super) struct Parser<'a> {
        input: &'a str,
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects currently open.
        depth: usize,
    }

    impl<'a> Parser<'a> {
        pub(super) fn new(input: &'a str) -> Self {
            Parser {
                input,
                bytes: input.as_bytes(),
                pos: 0,
                depth: 0,
            }
        }

        /// Refuses anything but whitespace after the document.
        pub(super) fn finish(&mut self) -> Result<(), String> {
            self.skip_ws();
            if self.pos != self.bytes.len() {
                return Err(format!("trailing bytes at offset {}", self.pos));
            }
            Ok(())
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

        /// The next non-whitespace byte, not consumed.
        pub(super) fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| "unexpected end of input".to_string())
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek()? == b {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at offset {}", b as char, self.pos))
            }
        }

        fn literal(&mut self, lit: &str) -> Result<(), String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(())
            } else {
                Err(format!("bad literal at offset {}", self.pos))
            }
        }

        /// Builds the next value as a tree.
        pub(super) fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                b'{' => {
                    let mut fields = Vec::new();
                    self.object(|p, key| {
                        fields.push((key.into_owned(), p.value()?));
                        Ok(())
                    })?;
                    Ok(Value::Obj(fields))
                }
                b'[' => {
                    let mut items = Vec::new();
                    self.array(|p| {
                        items.push(p.value()?);
                        Ok(())
                    })?;
                    Ok(Value::Arr(items))
                }
                b'"' => Ok(Value::Str(self.string()?.into_owned())),
                b't' => self.literal("true").map(|()| Value::Bool(true)),
                b'f' => self.literal("false").map(|()| Value::Bool(false)),
                b'n' => self.literal("null").map(|()| Value::Null),
                _ => {
                    let (start, text) = self.number_text();
                    text.parse::<f64>()
                        .map(Value::Num)
                        .map_err(|_| bad_number(text, start))
                }
            }
        }

        /// Checks the next value exactly as [`Parser::value`] would and
        /// returns its text, building nothing (an object key inside it
        /// is decoded only if it carries an escape).
        pub(super) fn skip_value(&mut self) -> Result<&'a str, String> {
            let first = self.peek()?;
            let start = self.pos;
            match first {
                b'{' => self.object(|p, _| p.skip_value().map(drop))?,
                b'[' => self.array(|p| p.skip_value().map(drop))?,
                b'"' => {
                    self.scan_string(None)?;
                }
                b't' => self.literal("true")?,
                b'f' => self.literal("false")?,
                b'n' => self.literal("null")?,
                _ => {
                    let (at, text) = self.number_text();
                    // Plain digits always parse; skip the float parse.
                    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
                        text.parse::<f64>().map_err(|_| bad_number(text, at))?;
                    }
                }
            }
            Ok(&self.input[start..self.pos])
        }

        /// Opens one array or object level (the next byte is its bracket).
        fn nested(
            &mut self,
            body: impl FnOnce(&mut Self) -> Result<(), String>,
        ) -> Result<(), String> {
            if self.depth == MAX_DEPTH {
                return Err(format!(
                    "nesting deeper than {MAX_DEPTH} at offset {}",
                    self.pos
                ));
            }
            self.depth += 1;
            let result = body(self);
            self.depth -= 1;
            result
        }

        /// Scans an object, calling `field` with each key once the
        /// parser stands on that key's value; `field` must consume it.
        pub(super) fn object(
            &mut self,
            mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
        ) -> Result<(), String> {
            self.nested(|p| {
                p.expect(b'{')?;
                if p.peek()? == b'}' {
                    p.pos += 1;
                    return Ok(());
                }
                loop {
                    p.skip_ws();
                    let key = p.string()?;
                    p.expect(b':')?;
                    field(p, key)?;
                    match p.peek()? {
                        b',' => p.pos += 1,
                        b'}' => {
                            p.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", p.pos)),
                    }
                }
            })
        }

        /// Scans an array, calling `item` when the parser stands on each
        /// element; `item` must consume it.
        pub(super) fn array(
            &mut self,
            mut item: impl FnMut(&mut Self) -> Result<(), String>,
        ) -> Result<(), String> {
            self.nested(|p| {
                p.expect(b'[')?;
                if p.peek()? == b']' {
                    p.pos += 1;
                    return Ok(());
                }
                loop {
                    item(p)?;
                    match p.peek()? {
                        b',' => p.pos += 1,
                        b']' => {
                            p.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", p.pos)),
                    }
                }
            })
        }

        /// Scans a string, borrowing its text from the input unless it
        /// carries an escape.
        pub(super) fn string(&mut self) -> Result<Cow<'a, str>, String> {
            let from = self.pos;
            let (raw, escaped) = self.scan_string(None)?;
            if !escaped {
                return Ok(Cow::Borrowed(raw));
            }
            self.pos = from;
            let mut out = String::with_capacity(raw.len());
            self.scan_string(Some(&mut out))?;
            Ok(Cow::Owned(out))
        }

        /// Scans one string literal, checking every escape, and appends
        /// its decoded text to `out` when given. Returns the raw text
        /// between the quotes and whether it held an escape.
        fn scan_string(&mut self, mut out: Option<&mut String>) -> Result<(&'a str, bool), String> {
            self.expect(b'"')?;
            let start = self.pos;
            let mut run = start;
            let mut escaped = false;
            loop {
                // The input is a `str`: no byte of a multi-byte character
                // is a quote or a backslash, so scanning bytes is exact.
                let Some(off) = self.bytes[self.pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                else {
                    self.pos = self.bytes.len();
                    return Err("unterminated string".to_string());
                };
                let at = self.pos + off;
                self.pos = at + 1;
                if let Some(out) = out.as_deref_mut() {
                    out.push_str(&self.input[run..at]);
                }
                if self.bytes[at] == b'"' {
                    return Ok((&self.input[start..at], escaped));
                }
                escaped = true;
                let e = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                self.pos += 1;
                let c = match e {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'u' => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        self.pos += 4;
                        // Surrogate pairs unsupported (BMP only) —
                        // tokens in this protocol are ordinary text.
                        char::from_u32(code).ok_or("surrogate \\u escape unsupported")?
                    }
                    _ => return Err(format!("bad escape at offset {}", self.pos)),
                };
                if let Some(out) = out.as_deref_mut() {
                    out.push(c);
                }
                run = self.pos;
            }
        }

        /// Decodes the value the parser stands on with `decode`, which
        /// must check all it accepts as [`Parser::skip_value`] would.
        /// A value `decode` refuses is scanned again by `skip_value`: a
        /// syntax error in it is the outer error, and beats the refusal,
        /// the inner one.
        pub(super) fn decode_value<T>(
            &mut self,
            decode: impl FnOnce(&mut Self) -> Result<T, String>,
        ) -> Result<Result<T, String>, String> {
            let start = self.pos;
            match decode(self) {
                Ok(v) => Ok(Ok(v)),
                Err(refusal) => {
                    self.pos = start;
                    self.skip_value()?;
                    Ok(Err(refusal))
                }
            }
        }

        /// Bytes of input not yet scanned.
        pub(super) fn remaining(&self) -> usize {
            self.bytes.len() - self.pos
        }

        /// Scans the characters a number may hold; returns where it
        /// started and its text, unchecked.
        pub(super) fn number_text(&mut self) -> (usize, &'a str) {
            self.skip_ws();
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            (start, &self.input[start..self.pos])
        }
    }

    fn bad_number(text: &str, start: usize) -> String {
        format!("bad number {text:?} at offset {start}")
    }
}

use json::{escape, Value};

/// Renders the protocol's error response (with the request id echoed
/// when one was parsed).
pub fn err_response(id: Option<&Value>, msg: &str) -> String {
    let id_part = id_echo(id);
    format!("{{\"ok\":false{id_part},\"error\":\"{}\"}}", escape(msg))
}

/// The error response for a frame that exceeded the transport's size
/// cap (at least one byte, as [`LineFramer::new`] clamps it). No id
/// echo — an oversized frame is never parsed.
pub fn frame_too_large_response(max_frame: usize) -> String {
    err_response(None, &format!("frame exceeds {} bytes", max_frame.max(1)))
}

/// Renders the `,"id":…` echo fragment for a response (empty when the
/// request carried no id). Public for front-end tiers (the shard
/// router) that synthesise responses outside [`render_job_state`].
pub fn id_echo(id: Option<&Value>) -> String {
    match id {
        Some(Value::Num(n)) => format!(",\"id\":{n}"),
        Some(Value::Str(s)) => format!(",\"id\":\"{}\"", escape(s)),
        _ => String::new(),
    }
}

/// A request line decoded for routing and planning. Every top-level
/// field is a [`Value`] except the bulk arrays (`counts`, `tokens`,
/// `updates`). The router's envelope ([`Envelope::parse`]) only checks
/// those for syntax. A shard's ([`Envelope::decode`]) decodes them into
/// their rows in the same scan, keeping the first faulty row's error
/// for [`plan`] to report only if the op needs that array.
pub struct Envelope {
    /// The non-bulk fields, in request order, as a [`Value::Obj`].
    fields: Value,
    /// The op the `op` field names, resolved once as the line is read:
    /// `Other` when it names none.
    op: OpKind,
    counts: Option<Result<CountRows, String>>,
    tokens: Option<Result<Vec<Token>, String>>,
    updates: Option<Result<Vec<(Token, i64)>, String>>,
}

impl Envelope {
    /// The router's envelope: the top-level fields, with the bulk
    /// arrays checked for syntax and dropped. Accepts and refuses
    /// exactly the lines [`json::parse`] does, with the same error
    /// text. A repeated key keeps its first value, as [`Value::get`]
    /// does; a top-level value that is not an object has no fields.
    pub fn parse(line: &str) -> Result<Self, String> {
        Envelope::scan(line, false)
    }

    /// A shard's envelope: [`Envelope::parse`], with the bulk arrays
    /// decoded while their syntax is checked, so each byte of the line
    /// is scanned once. A syntax error anywhere in the line is still
    /// the error returned here, and beats every decode error.
    pub fn decode(line: &str) -> Result<Self, String> {
        Envelope::scan(line, true)
    }

    fn scan(line: &str, decode: bool) -> Result<Self, String> {
        let mut p = json::Parser::new(line);
        let mut fields = Vec::new();
        let (mut counts, mut tokens, mut updates) = (None, None, None);
        if p.peek()? == b'{' {
            p.object(|p, key| {
                match &*key {
                    "counts" if decode && counts.is_none() => counts = Some(decode_counts(p)?),
                    "tokens" if decode && tokens.is_none() => tokens = Some(decode_tokens(p)?),
                    "updates" if decode && updates.is_none() => updates = Some(decode_updates(p)?),
                    "counts" | "tokens" | "updates" => {
                        p.skip_value()?;
                    }
                    _ => fields.push((key.into_owned(), p.value()?)),
                }
                Ok(())
            })?;
        } else {
            p.skip_value()?;
        }
        p.finish()?;
        let fields = Value::Obj(fields);
        Ok(Envelope {
            op: fields
                .get("op")
                .and_then(Value::as_str)
                .map_or(OpKind::Other, OpKind::from_wire),
            fields,
            counts,
            tokens,
            updates,
        })
    }

    /// A non-bulk top-level field.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.get(key)
    }

    /// Every non-bulk top-level field, as a [`Value::Obj`].
    pub fn fields(&self) -> &Value {
        &self.fields
    }

    /// The refusal of a line whose op is `Other`.
    fn op_refusal(&self) -> String {
        match self.get("op").and_then(Value::as_str) {
            Some(op) => format!("unknown op {op:?}"),
            None => "missing string field \"op\"".to_string(),
        }
    }
}

/// One `[token, value]` row of a bulk array: the token, and the value's
/// text when it is a number. Anything but a two-element array led by a
/// string is the `shape` error.
fn token_row<'a>(
    p: &mut json::Parser<'a>,
    shape: &str,
) -> Result<(Cow<'a, str>, Option<&'a str>), String> {
    if p.peek()? != b'[' {
        return Err(shape.to_string());
    }
    let (mut token, mut number, mut len) = (None, None, 0);
    p.array(|p| {
        len += 1;
        match (len, p.peek()?) {
            (1, b'"') => token = Some(p.string()?),
            (2, b'{' | b'[' | b'"' | b't' | b'f' | b'n') => {
                p.skip_value()?;
            }
            (2, _) => number = Some(p.number_text().1),
            _ => return Err(shape.to_string()),
        }
        Ok(())
    })?;
    match token {
        Some(token) if len == 2 => Ok((token, number)),
        _ => Err(shape.to_string()),
    }
}

/// Up to 15 decimal digits, optionally negated: exact in an `f64`, so
/// equal to what the float route gives.
fn small_int(text: &str) -> Option<i64> {
    let digits = text.strip_prefix('-').unwrap_or(text);
    if digits.is_empty() || digits.len() > 15 {
        return None;
    }
    let mut n = 0i64;
    for b in digits.bytes() {
        if !b.is_ascii_digit() {
            return None;
        }
        n = n * 10 + i64::from(b - b'0');
    }
    Some(if digits.len() < text.len() { -n } else { n })
}

/// The number `text` read as [`Value::as_u64`] reads it.
fn count_of(text: &str) -> Option<u64> {
    match small_int(text) {
        Some(n) => u64::try_from(n).ok(),
        None => Value::Num(text.parse().ok()?).as_u64(),
    }
}

/// The number `text` read as [`Value::as_i64`] reads it.
fn delta_of(text: &str) -> Option<i64> {
    small_int(text).or_else(|| Value::Num(text.parse().ok()?).as_i64())
}

/// Scans the bulk array `field` the parser stands on, handing each
/// row to `row` until one is refused. The refused row is scanned again
/// for syntax only, and so is every row after it. The outer error is a
/// syntax error anywhere in the array; the inner one is the refusal of
/// the first faulty row, or of a value that is not an array.
fn bulk_rows<'a>(
    p: &mut json::Parser<'a>,
    field: &str,
    mut row: impl FnMut(&mut json::Parser<'a>) -> Result<(), String>,
) -> Result<Result<(), String>, String> {
    if p.peek()? != b'[' {
        p.skip_value()?;
        return Ok(Err(format!("{field} must be an array")));
    }
    let mut refusal = None;
    p.array(|p| {
        if refusal.is_none() {
            refusal = p.decode_value(&mut row)?.err();
        } else {
            p.skip_value()?;
        }
        Ok(())
    })?;
    Ok(refusal.map_or(Ok(()), Err))
}

/// Decodes a `counts` array into packed rows, for embed and detect
/// alike. A repeated token is refused as its row is pushed: two rows of
/// one token would corrupt a histogram's rank invariants.
fn decode_counts(p: &mut json::Parser<'_>) -> Result<Result<CountRows, String>, String> {
    let mut rows = CountRows::with_capacity(p.remaining());
    let decoded = bulk_rows(p, "counts", |p| {
        let (token, count) = token_row(p, "counts entries must be [token, count]")?;
        let c = count
            .and_then(count_of)
            .ok_or("count must be a non-negative integer")?;
        if !rows.push(&token, c) {
            return Err(format!("duplicate token {token:?} in counts"));
        }
        Ok(())
    })?;
    Ok(decoded.map(|()| rows))
}

/// Decodes an `updates` array into `(token, delta)` rows.
fn decode_updates(p: &mut json::Parser<'_>) -> Result<Result<Vec<(Token, i64)>, String>, String> {
    let mut rows = Vec::new();
    let decoded = bulk_rows(p, "updates", |p| {
        let (token, n) = token_row(p, "updates entries must be [token, delta]")?;
        let d = n.and_then(delta_of).ok_or("delta must be an integer")?;
        rows.push((Token::new(token), d));
        Ok(())
    })?;
    Ok(decoded.map(|()| rows))
}

/// Decodes a `tokens` array.
fn decode_tokens(p: &mut json::Parser<'_>) -> Result<Result<Vec<Token>, String>, String> {
    let mut tokens = Vec::new();
    let decoded = bulk_rows(p, "tokens", |p| {
        if p.peek()? != b'"' {
            return Err("tokens entries must be strings".to_string());
        }
        tokens.push(Token::new(p.string()?));
        Ok(())
    })?;
    Ok(decoded.map(|()| tokens))
}

/// The decoded `counts`, else the decoded `tokens`, of an embed or
/// detect request.
fn job_data(
    counts: Option<Result<CountRows, String>>,
    tokens: Option<Result<Vec<Token>, String>>,
) -> Result<JobData, String> {
    match (counts, tokens) {
        (Some(rows), _) => rows.map(JobData::Rows),
        (None, Some(tokens)) => tokens.map(JobData::Tokens),
        (None, None) => Err("request needs \"counts\" or \"tokens\"".to_string()),
    }
}

fn req_str<'a>(req: &'a Value, key: &str) -> Result<&'a str, String> {
    req.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// An optional request field: `None` when absent, `read`'s value when
/// it accepts what is there, and otherwise the error `"<key> must be
/// <must_be>"` — a mistyped or out-of-range field is refused, never
/// replaced by its default.
fn opt_field<'a, T>(
    req: &'a Value,
    key: &str,
    read: impl FnOnce(&'a Value) -> Option<T>,
    must_be: &str,
) -> Result<Option<T>, String> {
    req.get(key)
        .map(|v| read(v).ok_or_else(|| format!("{key} must be {must_be}")))
        .transpose()
}

/// [`opt_field`] for a non-negative integer.
fn opt_u64(req: &Value, key: &str) -> Result<Option<u64>, String> {
    opt_field(req, key, Value::as_u64, "a non-negative integer")
}

/// [`opt_field`] for `true` or `false`.
fn opt_bool(req: &Value, key: &str) -> Result<Option<bool>, String> {
    opt_field(req, key, Value::as_bool, "true or false")
}

/// [`opt_field`] for a string.
fn opt_str<'a>(req: &'a Value, key: &str) -> Result<Option<&'a str>, String> {
    opt_field(req, key, Value::as_str, "a string")
}

/// Renders a terminal [`JobState`] as the protocol response line.
pub fn render_job_state(state: JobState, id: Option<&Value>) -> String {
    let id_part = id_echo(id);
    match state {
        JobState::Completed(JobOutput::Embed(e)) => {
            let r = &e.report;
            format!(
                concat!(
                    "{{\"ok\":true{},\"op\":\"embed\",\"tenant\":\"{}\",",
                    "\"chosen_pairs\":{},\"eligible_pairs\":{},",
                    "\"similarity_pct\":{:.6},\"total_change\":{},",
                    "\"ranking_preserved\":{},\"ledger_index\":{}}}"
                ),
                id_part,
                escape(&e.tenant),
                r.chosen_pairs,
                r.eligible_pairs,
                r.similarity_pct,
                r.total_change,
                r.ranking_preserved,
                e.ledger_index,
            )
        }
        JobState::Completed(JobOutput::Detect(d)) => {
            let o = &d.outcome;
            format!(
                concat!(
                    "{{\"ok\":true{},\"op\":\"detect\",\"tenant\":\"{}\",",
                    "\"accepted\":{},\"accepted_pairs\":{},\"present_pairs\":{},",
                    "\"total_pairs\":{},\"accept_rate\":{:.6}}}"
                ),
                id_part,
                escape(&d.tenant),
                o.accepted,
                o.accepted_pairs,
                o.present_pairs,
                o.total_pairs,
                o.accept_rate(),
            )
        }
        JobState::Completed(JobOutput::Maintain(m)) => {
            let r = &m.report;
            format!(
                concat!(
                    "{{\"ok\":true{},\"op\":\"maintain\",\"tenant\":\"{}\",",
                    "\"intact\":{},\"repaired\":{},\"retired\":{},\"added\":{},",
                    "\"total_change\":{},\"ledger_index\":{}}}"
                ),
                id_part,
                escape(&m.tenant),
                r.intact,
                r.repaired,
                r.retired,
                r.added,
                r.total_change,
                m.ledger_index,
            )
        }
        // A quota refusal is machine-actionable (clients back off for
        // `retry_after_ms`), so it gets typed fields on top of the
        // plain error string every failure carries.
        JobState::Failed(ServiceError::QuotaExhausted {
            kind,
            retry_after_ms,
        }) => {
            let e = ServiceError::QuotaExhausted {
                kind,
                retry_after_ms,
            };
            format!(
                concat!(
                    "{{\"ok\":false{},\"error\":\"{}\",",
                    "\"error_kind\":\"quota_exhausted\",\"op_class\":\"{}\",",
                    "\"retry_after_ms\":{}}}"
                ),
                id_part,
                escape(&e.to_string()),
                kind.op().as_str(),
                retry_after_ms,
            )
        }
        JobState::Failed(e) => err_response(id, &e.to_string()),
        JobState::Cancelled => err_response(id, "job cancelled"),
    }
}

/// A parsed request: a job to schedule on the pool, a synchronous op
/// run by [`run_op`], or shutdown. Parsing never touches the engine, so
/// the transport controls *when* ordered ops run.
pub enum Planned {
    Op(OpCall),
    Job(JobSpec),
    Shutdown,
}

/// Runs one synchronous op: its response line, or its refusal.
type OpFn = fn(&Engine, &Value) -> Result<String, String>;

/// A planned synchronous op: the request's fields and the handler its
/// op named.
pub struct OpCall {
    op: OpKind,
    run: OpFn,
    req: Value,
}

/// Parses one request line into its echoed id and execution plan.
pub fn plan(line: &str) -> (Option<Value>, Result<Planned, String>) {
    match Envelope::decode(line) {
        Ok(env) => plan_envelope(env),
        Err(e) => (None, Err(format!("bad json: {e}"))),
    }
}

/// [`plan`] over an already-decoded request (the auth gate decodes
/// before planning).
fn plan_envelope(env: Envelope) -> (Option<Value>, Result<Planned, String>) {
    let id = env.get("id").cloned();
    let planned = plan_request(env);
    (id, planned)
}

/// The id a request line carries, if it parses: what a refusal that
/// never plans the request echoes.
pub fn request_id(line: &str) -> Option<Value> {
    Envelope::parse(line).ok()?.get("id").cloned()
}

fn plan_request(env: Envelope) -> Result<Planned, String> {
    let run: OpFn = match env.op {
        OpKind::Register => register,
        OpKind::Dispute => dispute,
        OpKind::Quota => quota,
        OpKind::Metrics => metrics,
        OpKind::History => history,
        OpKind::Trace => trace,
        OpKind::Hello => hello,
        OpKind::Replicate => replicate,
        OpKind::Promote => promote,
        OpKind::Embed => return plan_job(env, JobKind::Embed),
        OpKind::Detect => return plan_job(env, JobKind::Detect),
        OpKind::Maintain => return plan_job(env, JobKind::Maintain),
        OpKind::Shutdown => return Ok(Planned::Shutdown),
        OpKind::Other => return Err(env.op_refusal()),
    };
    Ok(Planned::Op(OpCall {
        op: env.op,
        run,
        req: env.fields,
    }))
}

/// Where a request must execute, extracted without touching the engine
/// — the routing metadata the shard router tier keys on.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteInfo {
    /// Keyed by one tenant id: hash it onto a shard.
    Tenant(String),
    /// Keyed by two tenant ids (`dispute`): routable only when both
    /// hash to the same shard.
    TenantPair(String, String),
    /// Tenant-agnostic: fan out to every shard and merge the answers.
    Broadcast(FanoutKind),
    /// Handled by whatever tier received it (`hello`).
    Local,
    /// Cannot be routed; answer with this protocol error.
    Unroutable(String),
}

/// The tenant-agnostic ops, which the router sends to every live shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FanoutKind {
    /// Sends a canonical `metrics` probe and merges the tier's view.
    Metrics,
    /// Forwards the client's line (it carries `last`) and returns one
    /// series per shard.
    History,
    /// Forwards the client's line (it carries the filters) and merges
    /// the spans into one timeline.
    Trace,
    /// Sends `shutdown`, then drains the tier.
    Shutdown,
}

/// Classifies a parsed request for routing.
pub fn route_of(req: &Envelope) -> RouteInfo {
    let tenant_field = |key: &str| -> Result<String, RouteInfo> {
        req.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| RouteInfo::Unroutable(format!("missing string field {key:?}")))
    };
    match req.op {
        OpKind::Register | OpKind::Embed | OpKind::Detect | OpKind::Maintain | OpKind::Quota => {
            match tenant_field("tenant") {
                Ok(t) => RouteInfo::Tenant(t),
                Err(e) => e,
            }
        }
        OpKind::Dispute => match (tenant_field("a"), tenant_field("b")) {
            (Ok(a), Ok(b)) => RouteInfo::TenantPair(a, b),
            (Err(e), _) | (_, Err(e)) => e,
        },
        OpKind::Metrics => RouteInfo::Broadcast(FanoutKind::Metrics),
        OpKind::History => RouteInfo::Broadcast(FanoutKind::History),
        OpKind::Trace => RouteInfo::Broadcast(FanoutKind::Trace),
        OpKind::Shutdown => RouteInfo::Broadcast(FanoutKind::Shutdown),
        OpKind::Hello => RouteInfo::Local,
        // Replication management addresses one specific engine, not a
        // tenant hash: followers dial their primary directly, and the
        // router issues `promote` itself during failover. A client
        // sending these through the router is confused — refuse.
        op @ (OpKind::Replicate | OpKind::Promote) => RouteInfo::Unroutable(format!(
            "op {:?} is shard-direct: send it to an engine address, not the router",
            op.as_str()
        )),
        OpKind::Other => RouteInfo::Unroutable(req.op_refusal()),
    }
}

fn plan_job(env: Envelope, kind: JobKind) -> Result<Planned, String> {
    let Envelope {
        fields: ref req,
        counts,
        tokens,
        updates,
        ..
    } = env;
    let tenant = req_str(req, "tenant")?.to_string();
    let payload = match kind {
        JobKind::Embed => {
            // Embed sweeps a full histogram: build it at plan time, so
            // the worker runs only `WM_Generate`.
            let data = match job_data(counts, tokens)? {
                JobData::Rows(rows) => JobData::Histogram(rows.to_histogram()),
                data => data,
            };
            let mut params = GenerationParams::default();
            if let Some(b) = opt_field(req, "budget", Value::as_f64, "a number")? {
                params = params.with_budget(b);
            }
            if let Some(z) = opt_u64(req, "z")? {
                params = params.with_z(z);
            }
            if let Some(x) = opt_bool(req, "exclude_free_pairs")? {
                params = params.with_exclude_free_pairs(x);
            }
            JobPayload::Embed {
                tenant,
                data,
                params,
            }
        }
        JobKind::Detect => {
            let data = job_data(counts, tokens)?;
            let mut params = DetectionParams::default();
            if let Some(t) = opt_u64(req, "t")? {
                params = params.with_t(t);
            }
            if let Some(k) = opt_u64(req, "k")? {
                params = params.with_k(k as usize);
            }
            // Refused here when not positive and finite: the worker
            // would assert on it.
            let scale = |v: &Value| v.as_f64().filter(|s| s.is_finite() && *s > 0.0);
            if let Some(s) = opt_field(req, "scale", scale, "a positive finite number")? {
                params = params.with_scale(s);
            }
            JobPayload::Detect {
                tenant,
                data,
                params,
            }
        }
        JobKind::Maintain => JobPayload::Maintain {
            tenant,
            updates: updates.ok_or("missing \"updates\"")??,
            replenish: opt_bool(req, "replenish")?.unwrap_or(false),
        },
    };
    let mut spec = JobSpec::new(payload);
    // A maintain takes no `timeout_ms`: it runs under the engine's
    // default deadline.
    if kind != JobKind::Maintain {
        if let Some(ms) = opt_u64(req, "timeout_ms")? {
            spec = spec.with_timeout(Duration::from_millis(ms));
        }
    }
    if let Some(t) = opt_str(req, "trace")? {
        spec = spec.with_trace(t);
    }
    Ok(Planned::Job(spec))
}

fn register(engine: &Engine, req: &Value) -> Result<String, String> {
    let tenant = req_str(req, "tenant")?;
    let hex = |v: &Value| v.as_str().and_then(Secret::from_hex);
    let secret = opt_field(req, "secret", hex, "64 hex chars")?;
    let label = opt_str(req, "secret_label")?;
    let secret = match (secret, label) {
        (Some(secret), _) => secret,
        // Deterministic; for tests and demos only.
        (None, Some(label)) => Secret::from_label(label),
        (None, None) => Secret::generate(&mut rand::rngs::OsRng),
    };
    let index = engine
        .register_tenant(tenant, secret)
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "{{\"ok\":true,\"op\":\"register\",\"tenant\":\"{}\",\"ledger_index\":{}}}",
        escape(tenant),
        index
    ))
}

fn dispute(engine: &Engine, req: &Value) -> Result<String, String> {
    let a = req_str(req, "a")?;
    let b = req_str(req, "b")?;
    let mut params = DetectionParams::default();
    if let Some(t) = opt_u64(req, "t")? {
        params = params.with_t(t);
    }
    let fraction = |v: &Value| v.as_f64().filter(|q| (0.0..=1.0).contains(q));
    let quorum = opt_field(req, "quorum", fraction, "a number from 0 to 1")?.unwrap_or(0.25);
    // Quorum: fraction of the smaller claimant's pair count.
    {
        let registry = engine.registry();
        let pa = registry
            .require_watermark(a)
            .map_err(|e| e.to_string())?
            .secrets
            .len();
        let pb = registry
            .require_watermark(b)
            .map_err(|e| e.to_string())?
            .secrets
            .len();
        let k = ((pa.min(pb) as f64) * quorum).ceil().max(1.0) as usize;
        params = params.with_k(k);
    }
    let outcome = engine.dispute(a, b, &params).map_err(|e| e.to_string())?;
    let verdict = match outcome.ruling.verdict {
        freqywm_core::judge::Verdict::FirstParty => "first_party",
        freqywm_core::judge::Verdict::SecondParty => "second_party",
        freqywm_core::judge::Verdict::Inconclusive => "inconclusive",
    };
    Ok(format!(
        concat!(
            "{{\"ok\":true,\"op\":\"dispute\",\"a\":\"{}\",\"b\":\"{}\",",
            "\"protocol_verdict\":\"{}\",\"winner\":\"{}\",",
            "\"decisive_protocol\":{},\"a_on_b_accepted\":{},",
            "\"b_on_a_accepted\":{}}}"
        ),
        escape(a),
        escape(b),
        verdict,
        escape(&outcome.winner),
        outcome.decisive_protocol,
        outcome.ruling.a_on_b.accepted,
        outcome.ruling.b_on_a.accepted,
    ))
}

/// Per-tenant budget tier: read or set the sliding-window quota.
/// Carrying any of `embed`/`detect`/`maintain`/`window_ms` makes it a
/// set (write path: primary only, persisted and replicated through the
/// registry log); absent classes mean "unlimited". A bare
/// `{"op":"quota","tenant":…}` is a read and works on followers too.
/// Either way the response reports the effective budgets, current
/// window consumption and admission counters.
fn quota(engine: &Engine, req: &Value) -> Result<String, String> {
    use crate::quota::{QuotaLimits, UNLIMITED};
    let tenant = req_str(req, "tenant")?;
    let embed = opt_u64(req, "embed")?;
    let detect = opt_u64(req, "detect")?;
    let maintain = opt_u64(req, "maintain")?;
    let window_ms = opt_u64(req, "window_ms")?;
    let setting = [embed, detect, maintain, window_ms]
        .iter()
        .any(Option::is_some);
    if setting {
        let limits = QuotaLimits {
            embed: embed.unwrap_or(UNLIMITED),
            detect: detect.unwrap_or(UNLIMITED),
            maintain: maintain.unwrap_or(UNLIMITED),
        };
        engine
            .set_quota(tenant, limits, window_ms)
            .map_err(|e| e.to_string())?;
    }
    let status = engine.quota_status(tenant).map_err(|e| e.to_string())?;
    let budget = |v: u64| {
        if v == UNLIMITED {
            "null".to_string()
        } else {
            v.to_string()
        }
    };
    let (admitted, refused) = engine
        .metrics()
        .per_tenant
        .iter()
        .find(|r| r.tenant == tenant)
        .map(|r| (r.ops[M::TenantAdmitted], r.ops[M::TenantQuotaRefused]))
        .unwrap_or((0, 0));
    Ok(format!(
        concat!(
            "{{\"ok\":true,\"op\":\"quota\",\"tenant\":\"{}\",\"set\":{},",
            "\"source\":\"{}\",\"window_ms\":{},",
            "\"budgets\":{{\"embed\":{},\"detect\":{},\"maintain\":{}}},",
            "\"used\":{{\"embed\":{},\"detect\":{},\"maintain\":{}}},",
            "\"admitted\":{},\"refused\":{}}}"
        ),
        escape(tenant),
        setting,
        if status.explicit {
            "explicit"
        } else {
            "default"
        },
        status.window_ms,
        budget(status.limits.embed),
        budget(status.limits.detect),
        budget(status.limits.maintain),
        status.used[0],
        status.used[1],
        status.used[2],
        admitted,
        refused,
    ))
}

fn metrics(engine: &Engine, _req: &Value) -> Result<String, String> {
    Ok(format!(
        "{{\"ok\":true,\"op\":\"metrics\",\"metrics\":{}}}",
        engine.metrics().to_json()
    ))
}

/// The `"shard":"…",` member a shard's answer leads with, if labelled.
fn shard_member(engine: &Engine) -> String {
    engine
        .shard_label()
        .map(|s| format!("\"shard\":\"{}\",", escape(s)))
        .unwrap_or_default()
}

/// Retained metrics snapshots from the sampler ring, plus a fresh `now`
/// sample and window rates between the oldest retained sample and now.
/// `last` trims to the newest N samples; the window always spans what
/// is returned.
fn history(engine: &Engine, req: &Value) -> Result<String, String> {
    let last = opt_u64(req, "last")?;
    let report = engine.history();
    let mut samples: &[(u64, crate::metrics::HistorySample)] = &report.samples;
    if let Some(n) = last {
        let n = (n as usize).max(1);
        if samples.len() > n {
            samples = &samples[samples.len() - n..];
        }
    }
    let oldest = samples.first().unwrap_or(&report.now);
    let rates =
        crate::metrics::history_rates_json((oldest.0, &oldest.1), (report.now.0, &report.now.1));
    Ok(format!(
        concat!(
            "{{\"ok\":true,\"op\":\"history\",{}",
            "\"retain\":{{\"capacity\":{},\"interval_ms\":{}}},",
            "\"count\":{},\"samples\":[{}],\"now\":{},\"rates\":{}}}"
        ),
        shard_member(engine),
        report.capacity,
        report.interval_ms,
        samples.len(),
        samples
            .iter()
            .map(|(t, s)| s.to_json(*t))
            .collect::<Vec<_>>()
            .join(","),
        report.now.1.to_json(report.now.0),
        rates,
    ))
}

/// Recent stage spans from the engine's ring, filtered by trace id /
/// tenant / op label / minimum duration. A filter that matches nothing
/// (an unknown tenant, a `for_op` that names no span label) is an empty
/// result, not an error — the ring is a window, not an index.
fn trace(engine: &Engine, req: &Value) -> Result<String, String> {
    let mut filter = TraceFilter {
        trace: opt_str(req, "trace")?.map(str::to_string),
        tenant: opt_str(req, "tenant")?.map(str::to_string),
        ..TraceFilter::default()
    };
    // `Some(None)`: a `for_op` that names no span label.
    let for_op = opt_str(req, "for_op")?.map(OpKind::from_name);
    filter.op = for_op.flatten();
    let min_us = opt_u64(req, "min_us")?;
    let min_ms = opt_field(req, "min_ms", Value::as_f64, "a number")?;
    filter.min_dur_us = min_ms.map_or(min_us.unwrap_or(0), |ms| (ms * 1e3) as u64);
    if let Some(n) = opt_u64(req, "limit")? {
        filter.limit = (n as usize).max(1);
    }
    let spans = match for_op {
        Some(None) => Vec::new(),
        _ => engine.trace_query(&filter),
    };
    Ok(format!(
        "{{\"ok\":true,\"op\":\"trace\",{}\"count\":{},\"spans\":[{}]}}",
        shard_member(engine),
        spans.len(),
        spans.iter().map(span_json).collect::<Vec<_>>().join(","),
    ))
}

/// Replication stream (see `crate::replica`): sealed log events from
/// `from_seq` as hex strings, or a full snapshot when the primary
/// compacted past that point. Followers answer too, so either side of a
/// pair can be audited or chained from.
fn replicate(engine: &Engine, req: &Value) -> Result<String, String> {
    let from_seq = opt_u64(req, "from_seq")?.unwrap_or(0);
    let batch = engine.replicate(from_seq).map_err(|e| e.to_string())?;
    let events: Vec<String> = batch
        .events
        .iter()
        .map(|ev| format!("\"{}\"", freqywm_crypto::hex::encode(ev)))
        .collect();
    let snapshot = batch
        .snapshot
        .as_ref()
        .map(|s| format!(",\"snapshot\":\"{}\"", freqywm_crypto::hex::encode(s)))
        .unwrap_or_default();
    Ok(format!(
        concat!(
            "{{\"ok\":true,\"op\":\"replicate\",\"from_seq\":{},",
            "\"next_seq\":{},\"head\":\"{}\",\"events\":[{}]{}}}"
        ),
        batch.from_seq,
        batch.next_seq,
        freqywm_crypto::hex::encode(&batch.head),
        events.join(","),
        snapshot,
    ))
}

/// Failover: flip a follower into a full primary after its replicated
/// chain re-proves itself. Idempotent — promoting a primary reports its
/// current head (`was_follower: false`).
fn promote(engine: &Engine, _req: &Value) -> Result<String, String> {
    let report = engine.promote().map_err(|e| e.to_string())?;
    Ok(format!(
        concat!(
            "{{\"ok\":true,\"op\":\"promote\",\"was_follower\":{},",
            "\"entries\":{},\"seq\":{},\"head\":\"{}\"}}"
        ),
        report.was_follower,
        report.entries,
        report.next_seq,
        freqywm_crypto::hex::encode(&report.head),
    ))
}

/// Connection handshake / liveness probe. With an auth token configured
/// the Session consumes `hello` itself (it carries the token); an open
/// session answers here so clients can probe either way — and learn
/// which shard they reached.
fn hello(engine: &Engine, _req: &Value) -> Result<String, String> {
    let shard = engine
        .shard_label()
        .map(|s| format!(",\"shard\":\"{}\"", escape(s)))
        .unwrap_or_default();
    Ok(format!("{{\"ok\":true,\"op\":\"hello\"{shard}}}"))
}

/// Renders one span as a JSON object — the element type of the `trace`
/// op's `spans` array (public so front-end tiers can synthesise or
/// merge span lists in the same shape).
pub fn span_json(span: &Span) -> String {
    format!(
        concat!(
            "{{\"trace\":\"{}\",\"tenant\":\"{}\",\"op\":\"{}\",",
            "\"stage\":\"{}\",\"start_us\":{},\"dur_us\":{}}}"
        ),
        escape(&span.trace),
        escape(&span.tenant),
        span.op.as_str(),
        span.stage.as_str(),
        span.start_us,
        span.dur_us,
    )
}

/// Executes a synchronous op and renders its response line.
pub fn run_op(engine: &Engine, call: &OpCall, id: Option<&Value>) -> String {
    match (call.run)(engine, &call.req) {
        Ok(resp) => inject_id(resp, id),
        Err(e) => err_response(id, &e),
    }
}

/// Executes one parsed request synchronously; returns `(response,
/// stop)` where `stop` is set only by the `shutdown` op.
fn respond(
    engine: &Engine,
    id: Option<&Value>,
    planned: Result<Planned, String>,
) -> (String, bool) {
    match planned {
        Err(e) => (err_response(id, &e), false),
        Ok(Planned::Op(call)) => (run_op(engine, &call, id), false),
        Ok(Planned::Shutdown) => (
            inject_id("{\"ok\":true,\"op\":\"shutdown\"}".to_string(), id),
            true,
        ),
        Ok(Planned::Job(spec)) => (render_job_state(engine.run(spec), id), false),
    }
}

/// Executes one request line synchronously; returns the response line.
pub fn handle_line(engine: &Engine, line: &str) -> String {
    let started = Instant::now();
    let (id, mut planned) = plan(line);
    let ctx = observe_parse(engine, &mut planned, started);
    let resp = respond(engine, id.as_ref(), planned).0;
    engine.obs().record(&Span::ending_now(
        &ctx.trace,
        &ctx.tenant,
        ctx.op,
        Stage::Respond,
        ctx.received.elapsed().as_micros() as u64,
    ));
    resp
}

fn inject_id(resp: String, id: Option<&Value>) -> String {
    let echo = id_echo(id);
    if echo.is_empty() {
        resp
    } else {
        resp.replacen("{\"ok\":true", &format!("{{\"ok\":true{echo}"), 1)
    }
}

fn shutdown_response(id: Option<&Value>) -> String {
    inject_id("{\"ok\":true,\"op\":\"shutdown\"}".to_string(), id)
}

/// Span context carried by a pending request slot: enough to record
/// the `respond` stage span when the response finally renders.
struct SpanCtx {
    trace: String,
    tenant: String,
    op: OpKind,
    received: Instant,
}

/// Records the `parse` span for a freshly planned request and builds
/// its [`SpanCtx`]. Ensures every planned job carries a trace id (the
/// request's own, or one minted here) so the engine-side spans
/// correlate with the transport-side ones.
fn observe_parse(
    engine: &Engine,
    planned: &mut Result<Planned, String>,
    started: Instant,
) -> SpanCtx {
    let (trace, tenant, op) = match planned {
        Ok(Planned::Job(spec)) => (
            spec.trace
                .get_or_insert_with(freqywm_obs::next_trace_id)
                .clone(),
            spec.payload.tenant().to_string(),
            spec.payload.kind().op(),
        ),
        Ok(Planned::Op(OpCall { op, req, .. })) => {
            let op = *op;
            // On a `trace` *query* the "trace" and "tenant" fields are
            // filters, not this request's identity — mint a fresh id
            // and leave the tenant blank, so the query's own spans
            // never match the filter they carry. `history` carries no
            // identity fields at all; same treatment.
            let (trace, tenant) = if op == OpKind::Trace || op == OpKind::History {
                (freqywm_obs::next_trace_id(), String::new())
            } else {
                (
                    req.get("trace")
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .unwrap_or_else(freqywm_obs::next_trace_id),
                    req.get("tenant")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            };
            (trace, tenant, op)
        }
        Ok(Planned::Shutdown) => (
            freqywm_obs::next_trace_id(),
            String::new(),
            OpKind::Shutdown,
        ),
        Err(_) => (freqywm_obs::next_trace_id(), String::new(), OpKind::Other),
    };
    engine.obs().record(&Span::ending_now(
        &trace,
        &tenant,
        op,
        Stage::Parse,
        started.elapsed().as_micros() as u64,
    ));
    SpanCtx {
        trace,
        tenant,
        op,
        received: started,
    }
}

/// One response slot, in request order.
enum Slot {
    /// Response rendered, waiting for the transport to take it.
    Ready(String),
    /// Still being produced (job in flight, or the request is deferred
    /// behind one); holds the echoed request id for rendering later,
    /// and the span context for the `respond` stage span.
    Pending { id: Option<Value>, ctx: SpanCtx },
}

/// A transport-agnostic, order-preserving, pipelined protocol session.
///
/// Every engine front-end — the stdin/stdout pipe of `freqywm serve`,
/// the request file of `freqywm batch` and each TCP connection of the
/// `freqywm-net` reactor — feeds request lines in and takes response
/// lines out, while jobs run on the engine's worker pool without the
/// transport ever blocking on them. The session guarantees:
///
/// * **responses come back in request order**, whatever order jobs
///   complete in;
/// * **detect requests pipeline**: consecutive detects run concurrently
///   on the pool;
/// * **mutating requests are barriers**: an embed/maintain launches
///   only once every earlier job finished, and register / dispute /
///   metrics / shutdown ops execute only with no job in flight — so a
///   pipelined `embed` → `detect` always detects against the new
///   watermark.
///
/// Each job the session submits delivers its end to the session's own
/// inbox and then calls the transport's wake-up (see
/// [`Session::with_wake`]); the transport answers it with
/// [`Session::collect`]. [`Session::drain_blocking`] settles everything
/// synchronously instead (a batch file).
#[derive(Default)]
pub struct Session {
    /// Responses not yet taken, in request order; absolute sequence of
    /// `slots[0]` is `base`.
    slots: VecDeque<Slot>,
    base: usize,
    /// Requests planned but not yet launched, each pointing at its
    /// reserved slot.
    deferred: VecDeque<(usize, Option<Value>, Planned)>,
    /// Jobs submitted whose end has not been collected yet.
    in_flight: usize,
    /// The job in flight is an embed or maintain, which never runs
    /// beside another job.
    mutating: bool,
    inbox: Arc<Inbox>,
    /// The inbox's buffer, swapped out to collect it.
    collected: Vec<(usize, JobState)>,
    shutdown: bool,
    gate: AuthGate,
}

/// Where a session's jobs deliver: each job's `(slot seq, end)`, then
/// the transport's wake-up.
#[derive(Default)]
struct Inbox {
    results: Mutex<Vec<(usize, JobState)>>,
    arrived: Condvar,
    wake: Option<Box<dyn Fn() + Send + Sync>>,
}

impl Inbox {
    fn deliver(&self, seq: usize, state: JobState) {
        self.results
            .lock()
            .expect("inbox lock poisoned")
            .push((seq, state));
        self.arrived.notify_one();
        if let Some(wake) = &self.wake {
            wake();
        }
    }
}

/// Constant-time auth-token comparison (leaks length only).
fn token_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    a.len() == b.len() && a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// One connection's shared-secret gate, in every front-end tier: until a
/// `hello` op presents the token, only requests carrying it as `"auth"`
/// run.
#[derive(Default)]
pub struct AuthGate {
    token: Option<String>,
    authed: bool,
    /// Extra members of the hello ack (the router adds `"router":true`).
    ack_extra: &'static str,
}

impl AuthGate {
    /// A gate on `token` (`None`: always open) whose hello ack ends
    /// with `ack_extra`, e.g. `,"router":true`.
    pub fn new(token: Option<String>, ack_extra: &'static str) -> Self {
        AuthGate {
            token,
            authed: false,
            ack_extra,
        }
    }

    /// A token is set and no `hello` has presented it yet.
    pub fn locked(&self) -> bool {
        self.token.is_some() && !self.authed
    }

    /// `None` admits `req`. `Some` is the answer in its place: the
    /// hello ack if `req` unlocked the gate, else a refusal.
    pub fn check(&mut self, req: &Envelope) -> Option<String> {
        let token = self.token.as_deref().filter(|_| !self.authed)?;
        let id = req.get("id");
        if req.op == OpKind::Hello {
            let presented = req.get("token").and_then(Value::as_str).unwrap_or("");
            if !token_eq(presented, token) {
                return Some(err_response(id, "hello: bad auth token"));
            }
            self.authed = true;
            return Some(format!(
                "{{\"ok\":true{},\"op\":\"hello\",\"authenticated\":true{}}}",
                id_echo(id),
                self.ack_extra
            ));
        }
        let presented = req.get("auth").and_then(Value::as_str);
        if presented.is_some_and(|p| token_eq(p, token)) {
            return None;
        }
        Some(err_response(
            id,
            "authentication required: send {\"op\":\"hello\",\"token\":…} first",
        ))
    }
}

impl Session {
    pub fn new() -> Self {
        Session::default()
    }

    /// A session behind an [`AuthGate`] on `auth_token`; `None` behaves
    /// like [`Session::new`].
    pub fn with_auth(auth_token: Option<String>) -> Self {
        Session {
            gate: AuthGate::new(auth_token, ""),
            ..Session::default()
        }
    }

    /// This session with `wake` called on the worker thread after each
    /// of its jobs delivers to the inbox: the transport's cue to
    /// [`Session::collect`]. `wake` must not block. Set it before the
    /// first request.
    pub fn with_wake(mut self, wake: impl Fn() + Send + Sync + 'static) -> Self {
        self.inbox = Arc::new(Inbox {
            wake: Some(Box::new(wake)),
            ..Inbox::default()
        });
        self
    }

    /// Feeds one request line. Blank lines and `#` comments are
    /// ignored; everything else reserves exactly one response slot.
    pub fn push_line(&mut self, engine: &Engine, line: &str) {
        let started = Instant::now();
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return;
        }
        if self.shutdown {
            // The transport normally stops feeding after shutdown; a
            // pipelined straggler still gets an orderly refusal (with
            // its id echoed, so pipelining clients can match it up).
            self.slots.push_back(Slot::Ready(err_response(
                request_id(line).as_ref(),
                "session shutting down",
            )));
            return;
        }
        if self.gate.locked() {
            match Envelope::decode(line) {
                Err(e) => {
                    self.slots
                        .push_back(Slot::Ready(err_response(None, &format!("bad json: {e}"))));
                }
                Ok(req) => self.push_locked(engine, req, started),
            }
            return;
        }
        let (id, planned) = plan(line);
        self.push_planned(engine, id, planned, started);
    }

    /// One request on a locked session, through the [`AuthGate`].
    fn push_locked(&mut self, engine: &Engine, req: Envelope, started: Instant) {
        // Every request handled on a locked session pays an auth check;
        // record it as its own span so auth overhead is visible in
        // traces separately from parse/run time.
        engine.obs().record(&Span::ending_now(
            req.get("trace").and_then(Value::as_str).unwrap_or(""),
            req.get("tenant").and_then(Value::as_str).unwrap_or(""),
            req.op,
            Stage::Auth,
            started.elapsed().as_micros() as u64,
        ));
        match self.gate.check(&req) {
            None => {
                let (id, planned) = plan_envelope(req);
                self.push_planned(engine, id, planned, started);
            }
            Some(resp) => self.slots.push_back(Slot::Ready(resp)),
        }
    }

    fn push_planned(
        &mut self,
        engine: &Engine,
        id: Option<Value>,
        mut planned: Result<Planned, String>,
        started: Instant,
    ) {
        let ctx = observe_parse(engine, &mut planned, started);
        let seq = self.base + self.slots.len();
        match planned {
            Err(e) => self
                .slots
                .push_back(Slot::Ready(err_response(id.as_ref(), &e))),
            Ok(p) => {
                self.slots.push_back(Slot::Pending {
                    id: id.clone(),
                    ctx,
                });
                self.deferred.push_back((seq, id, p));
            }
        }
        self.launch(engine);
    }

    /// Queues a transport-level error response (oversized frame, …)
    /// that occupies the next slot like any request would.
    pub fn push_transport_error(&mut self, response: String) {
        self.slots.push_back(Slot::Ready(response));
    }

    /// Moves the ends its jobs delivered into their response slots and
    /// launches the requests they held back.
    pub fn collect(&mut self, engine: &Engine) {
        let mut collected = std::mem::take(&mut self.collected);
        std::mem::swap(
            &mut collected,
            &mut *self.inbox.results.lock().expect("inbox lock poisoned"),
        );
        for (seq, state) in collected.drain(..) {
            self.in_flight -= 1;
            self.resolve(engine, seq, state);
        }
        self.collected = collected;
        if self.in_flight == 0 {
            self.mutating = false;
        }
        self.launch(engine);
    }

    /// Takes the maximal run of in-order ready responses.
    pub fn take_ready(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        while matches!(self.slots.front(), Some(Slot::Ready(_))) {
            let Some(Slot::Ready(resp)) = self.slots.pop_front() else {
                unreachable!("front checked above");
            };
            self.base += 1;
            out.push(resp);
        }
        out
    }

    /// True once a `shutdown` op has been answered.
    pub fn wants_shutdown(&self) -> bool {
        self.shutdown
    }

    /// No jobs in flight and no deferred requests.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0 && self.deferred.is_empty()
    }

    /// Idle *and* every response has been taken — nothing left to do.
    pub fn is_settled(&self) -> bool {
        self.is_idle() && self.slots.is_empty()
    }

    /// Synchronously settles the session: waits for every in-flight
    /// job, launching deferred requests as their barriers clear, until
    /// nothing is pending: how [`run_batch`] settles its file, with no
    /// in-flight response dropped.
    pub fn drain_blocking(&mut self, engine: &Engine) {
        loop {
            // With nothing in flight, every deferred request launches
            // (or is refused behind a shutdown).
            self.collect(engine);
            if self.in_flight == 0 {
                return;
            }
            let results = self.inbox.results.lock().expect("inbox lock poisoned");
            drop(
                self.inbox
                    .arrived
                    .wait_while(results, |r| r.is_empty())
                    .expect("inbox lock poisoned"),
            );
        }
    }

    fn resolve(&mut self, engine: &Engine, seq: usize, state: JobState) {
        let idx = seq - self.base;
        let id = match &self.slots[idx] {
            Slot::Pending { id, .. } => id.clone(),
            Slot::Ready(_) => None,
        };
        let resp = render_job_state(state, id.as_ref());
        self.finish_slot(engine, idx, resp);
    }

    /// Renders a pending slot Ready, recording the `respond` span
    /// (duration = receipt of the request line to response rendering,
    /// i.e. the request's whole transport-side lifetime).
    fn finish_slot(&mut self, engine: &Engine, idx: usize, resp: String) {
        if let Slot::Pending { ctx, .. } = &self.slots[idx] {
            engine.obs().record(&Span::ending_now(
                &ctx.trace,
                &ctx.tenant,
                ctx.op,
                Stage::Respond,
                ctx.received.elapsed().as_micros() as u64,
            ));
        }
        self.slots[idx] = Slot::Ready(resp);
    }

    /// Launches deferred requests from the front while their barrier
    /// conditions hold (see the type docs for the rules).
    fn launch(&mut self, engine: &Engine) {
        while !self.shutdown {
            let launchable = match self.deferred.front() {
                None => break,
                Some((_, _, Planned::Job(spec))) if spec.payload.kind() == JobKind::Detect => {
                    !self.mutating
                }
                Some(_) => self.in_flight == 0,
            };
            if !launchable {
                break;
            }
            let (seq, id, planned) = self.deferred.pop_front().expect("front checked above");
            match planned {
                Planned::Job(spec) => {
                    let mutating = spec.payload.kind() != JobKind::Detect;
                    let inbox = Arc::clone(&self.inbox);
                    let sink = Box::new(move |state| inbox.deliver(seq, state));
                    match engine.submit_to(spec, sink) {
                        Ok(()) => {
                            self.in_flight += 1;
                            self.mutating |= mutating;
                        }
                        Err(e) => self.resolve(engine, seq, JobState::Failed(e)),
                    }
                }
                Planned::Op(call) => {
                    let resp = run_op(engine, &call, id.as_ref());
                    let idx = seq - self.base;
                    self.finish_slot(engine, idx, resp);
                }
                Planned::Shutdown => {
                    let idx = seq - self.base;
                    self.finish_slot(engine, idx, shutdown_response(id.as_ref()));
                    self.shutdown = true;
                    // Requests pipelined behind the shutdown op will
                    // never launch; refuse them now so their reserved
                    // slots resolve and the session can settle —
                    // otherwise a drain would stall on Pending slots
                    // until its deadline.
                    while let Some((seq, id, _)) = self.deferred.pop_front() {
                        let idx = seq - self.base;
                        self.finish_slot(
                            engine,
                            idx,
                            err_response(id.as_ref(), "session shutting down"),
                        );
                    }
                }
            }
        }
    }
}

enum ServeEvent {
    Input(LineEvent),
    Eof,
    /// A job delivered to the session's inbox.
    Wake,
}

/// Frames `reader` into lines capped at `max_frame` bytes and hands each
/// to `emit` until EOF, a read error, or `emit` returning `false`. An
/// unterminated tail at EOF is delivered as a final line.
fn read_frames<R: BufRead>(
    reader: &mut R,
    max_frame: usize,
    mut emit: impl FnMut(LineEvent) -> bool,
) {
    let mut framer = LineFramer::new(max_frame);
    let mut open = true;
    while open {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if chunk.is_empty() {
            framer.finish(|e| {
                emit(e);
            });
            break;
        }
        framer.push(chunk, |e| open &= emit(e));
        let n = chunk.len();
        reader.consume(n);
    }
}

/// Serves JSON-lines over arbitrary reader/writer until EOF or a
/// `shutdown` op. A request line longer than `max_frame` bytes is
/// answered with one error and skipped; with `auth_token` set, requests
/// are refused until the client authenticates (see
/// [`Session::with_auth`]).
///
/// Requests are pipelined through a [`Session`]: jobs run on the worker
/// pool while the reader keeps feeding, responses stream back in
/// request order as they complete (not once per input line), and EOF
/// takes the graceful-drain path — every in-flight and deferred request
/// still produces its response before `serve` returns. The reader runs
/// on a helper thread, and the session's wake-up shares its channel, so
/// results are written while the input is idle.
pub fn serve<R, W>(
    engine: &Engine,
    mut reader: R,
    mut writer: W,
    max_frame: usize,
    auth_token: Option<String>,
) -> std::io::Result<()>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    let (tx, rx) = std::sync::mpsc::channel::<ServeEvent>();
    let wake_tx = tx.clone();
    std::thread::spawn(move || {
        read_frames(&mut reader, max_frame, |e| {
            tx.send(ServeEvent::Input(e)).is_ok()
        });
        let _ = tx.send(ServeEvent::Eof);
    });

    let mut session = Session::with_auth(auth_token).with_wake(move || {
        let _ = wake_tx.send(ServeEvent::Wake);
    });
    let mut eof = false;
    loop {
        let ready = session.take_ready();
        if !ready.is_empty() {
            for resp in ready {
                writeln!(writer, "{resp}")?;
            }
            writer.flush()?;
        }
        if session.wants_shutdown() || (eof && session.is_settled()) {
            return Ok(());
        }
        match rx.recv() {
            Err(_) => return Ok(()),
            Ok(ServeEvent::Input(LineEvent::Line(line))) => session.push_line(engine, &line),
            Ok(ServeEvent::Input(LineEvent::Oversized)) => {
                session.push_transport_error(frame_too_large_response(max_frame))
            }
            Ok(ServeEvent::Eof) => eof = true,
            Ok(ServeEvent::Wake) => session.collect(engine),
        }
    }
}

/// Runs a file of requests through one [`Session`], under the pipe and
/// socket transports' rules: consecutive detects run together on the
/// worker pool, mutating requests and ordered ops are barriers, and
/// requests after a `shutdown` are refused. Responses come back in
/// request order.
pub fn run_batch(engine: &Engine, lines: &[String]) -> Vec<String> {
    let mut session = Session::new();
    let mut out = Vec::new();
    for (lineno, line) in lines.iter().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if session.wants_shutdown() {
            // Refused with `session shutting down`, unparsed.
            session.push_line(engine, line);
        } else {
            let started = Instant::now();
            let (id, planned) = plan(line);
            // Batch inputs are files: name the offending 1-based line so
            // a malformed request is findable (and the run exits nonzero).
            let planned = planned.map_err(|e| format!("line {}: {e}", lineno + 1));
            session.push_planned(engine, id, planned, started);
        }
        if !session.deferred.is_empty() {
            // A barrier waits on in-flight jobs: settle them before
            // reading on, so the file is not planned ahead into memory.
            session.drain_blocking(engine);
        }
        out.extend(session.take_ready());
    }
    session.drain_blocking(engine);
    out.extend(session.take_ready());
    out
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::*;
    use crate::engine::{Engine, EngineConfig};

    #[test]
    fn json_round_trip_basics() {
        let v = parse(r#"{"op":"detect","t":3,"scale":2.5,"ok":true,"x":null,"arr":[["a",1]]}"#)
            .unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("detect"));
        assert_eq!(v.get("t").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("scale").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("x"), Some(&Value::Null));
        let arr = v.get("arr").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_arr().unwrap()[0].as_str(), Some("a"));
    }

    #[test]
    fn json_strings_with_escapes_and_unicode() {
        let v = parse(r#"{"s":"a\"b\\c\ndAé"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\ndAé"));
        assert_eq!(super::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
    }

    #[test]
    fn json_nesting_is_capped_not_a_stack_overflow() {
        let engine = test_engine();
        // ~500 KB each: fits under the 1 MiB frame cap.
        for deep in ["[".repeat(500_000), "{\"a\":".repeat(100_000)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.contains("nesting deeper than 64"), "{err}");
            let resp = handle_line(&engine, &deep);
            assert!(resp.starts_with("{\"ok\":false"), "{resp}");
            assert!(resp.contains("bad json: nesting"), "{resp}");
        }
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(json::MAX_DEPTH)).is_ok());
        assert!(parse(&nested(json::MAX_DEPTH + 1)).is_err());
        engine.shutdown();
    }

    fn test_engine() -> Engine {
        Engine::start(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        })
    }

    fn counts_json(n: usize) -> String {
        // A power-law-ish profile with enough spread to embed.
        let entries: Vec<String> = (0..n)
            .map(|i| format!("[\"tk{i:03}\",{}]", 4_000 / (i + 1) + 7 * (n - i)))
            .collect();
        format!("[{}]", entries.join(","))
    }

    #[test]
    fn protocol_register_embed_detect_metrics() {
        let engine = test_engine();
        let r = handle_line(
            &engine,
            r#"{"op":"register","tenant":"acme","secret_label":"proto-test","id":1}"#,
        );
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"id\":1"), "{r}");
        let embed = handle_line(
            &engine,
            &format!(
                r#"{{"op":"embed","tenant":"acme","z":101,"counts":{}}}"#,
                counts_json(80)
            ),
        );
        assert!(embed.contains("\"ok\":true"), "{embed}");
        assert!(embed.contains("\"chosen_pairs\":"), "{embed}");
        // Detect the registry-stored watermarked version of the data:
        // re-detection of the watermarked histogram must fully verify.
        let wm = engine
            .registry()
            .require_watermark("acme")
            .unwrap()
            .watermarked
            .to_histogram();
        let counts: Vec<String> = wm
            .entries()
            .iter()
            .map(|(t, c)| format!("[\"{}\",{}]", t.as_str(), c))
            .collect();
        let detect = handle_line(
            &engine,
            &format!(
                r#"{{"op":"detect","tenant":"acme","t":0,"k":1,"counts":[{}]}}"#,
                counts.join(",")
            ),
        );
        assert!(detect.contains("\"accepted\":true"), "{detect}");
        let metrics = handle_line(&engine, r#"{"op":"metrics"}"#);
        assert!(metrics.contains("\"completed\":2"), "{metrics}");
        engine.shutdown();
    }

    #[test]
    fn history_op_returns_retained_samples_and_rates() {
        let engine = Engine::start(EngineConfig {
            workers: 2,
            retain_snapshots: 8,
            retain_interval_ms: 20,
            ..EngineConfig::default()
        });
        handle_line(
            &engine,
            r#"{"op":"register","tenant":"hist","secret_label":"hist-test"}"#,
        );
        let embed = handle_line(
            &engine,
            &format!(
                r#"{{"op":"embed","tenant":"hist","counts":{}}}"#,
                counts_json(60)
            ),
        );
        assert!(embed.contains("\"ok\":true"), "{embed}");
        // Let the sampler tick a few times so the ring holds history.
        std::thread::sleep(std::time::Duration::from_millis(70));
        let resp = handle_line(&engine, r#"{"op":"history","id":9}"#);
        let v = parse(&resp).expect(&resp);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{resp}");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(9));
        let retain = v.get("retain").expect("retain");
        assert_eq!(retain.get("capacity").and_then(Value::as_u64), Some(8));
        assert_eq!(retain.get("interval_ms").and_then(Value::as_u64), Some(20));
        let samples = v.get("samples").and_then(Value::as_arr).expect("samples");
        assert!(samples.len() >= 2, "{resp}");
        assert_eq!(
            v.get("count").and_then(Value::as_u64),
            Some(samples.len() as u64)
        );
        // Timestamps are monotone and each sample carries the counters.
        let times: Vec<u64> = samples
            .iter()
            .map(|s| s.get("t_ms").and_then(Value::as_u64).unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        let now = v.get("now").expect("now");
        assert_eq!(now.get("completed").and_then(Value::as_u64), Some(1));
        let rates = v.get("rates").expect("rates");
        assert!(rates.get("window_s").and_then(Value::as_f64).unwrap() > 0.0);
        assert!(rates
            .get("completed_per_s")
            .and_then(Value::as_f64)
            .is_some());
        // `last` trims to the newest N samples; rates re-window.
        let trimmed = handle_line(&engine, r#"{"op":"history","last":1}"#);
        let tv = parse(&trimmed).expect(&trimmed);
        assert_eq!(tv.get("count").and_then(Value::as_u64), Some(1));
        assert_eq!(
            tv.get("samples").and_then(Value::as_arr).map(|s| s.len()),
            Some(1)
        );
        engine.shutdown();
    }

    #[test]
    fn duplicate_tokens_in_counts_rejected() {
        let engine = test_engine();
        handle_line(
            &engine,
            r#"{"op":"register","tenant":"d","secret_label":"dup"}"#,
        );
        let r = handle_line(
            &engine,
            r#"{"op":"embed","tenant":"d","counts":[["a",500],["a",300],["b",100]]}"#,
        );
        assert!(r.contains("duplicate token"), "{r}");
        engine.shutdown();
    }

    #[test]
    fn a_counts_line_near_the_frame_cap_plans_and_its_repeated_first_token_is_refused() {
        // 50 000 distinct tokens sharing a long prefix, in one line
        // just under the 1 MiB frame cap.
        let rows = 50_000;
        let prefix = "q".repeat(7);
        let counts: Vec<String> = (0..rows)
            .map(|i| format!("[\"{prefix}{i:05}\",{}]", i % 10))
            .collect();
        let line = |counts: &[String]| {
            format!(
                r#"{{"op":"detect","tenant":"t","counts":[{}]}}"#,
                counts.join(",")
            )
        };
        let big = line(&counts);
        assert!(
            big.len() > DEFAULT_MAX_FRAME * 9 / 10,
            "{} bytes",
            big.len()
        );
        assert!(big.len() < DEFAULT_MAX_FRAME, "{} bytes", big.len());
        match plan(&big).1 {
            Ok(Planned::Job(spec)) => match spec.payload {
                JobPayload::Detect {
                    data: JobData::Rows(planned),
                    ..
                } => {
                    assert_eq!(planned.len(), rows);
                    assert_eq!(planned.get(&format!("{prefix}49999")), Some(9));
                    assert_eq!(planned.get(&prefix), None);
                }
                other => panic!("not a detect of rows: {other:?}"),
            },
            Err(e) => panic!("{e}"),
            Ok(_) => panic!("not a job"),
        }
        let mut repeated = counts;
        repeated.push(format!("[\"{prefix}00000\",3]"));
        let repeated = line(&repeated);
        assert!(repeated.len() < DEFAULT_MAX_FRAME);
        assert_eq!(
            plan(&repeated).1.err(),
            Some(format!("duplicate token \"{prefix}00000\" in counts"))
        );
    }

    #[test]
    fn detect_scale_must_be_positive_and_finite() {
        let engine = test_engine();
        handle_line(
            &engine,
            r#"{"op":"register","tenant":"sc","secret_label":"scale"}"#,
        );
        let embed = handle_line(
            &engine,
            &format!(
                r#"{{"op":"embed","tenant":"sc","z":101,"counts":{}}}"#,
                counts_json(80)
            ),
        );
        assert!(embed.contains("\"ok\":true"), "{embed}");
        // Refused as a bad request before any worker sees it.
        for scale in ["0", "-1", "1e400", "-0"] {
            let r = handle_line(
                &engine,
                &format!(
                    r#"{{"op":"detect","tenant":"sc","scale":{scale},"id":5,"counts":{}}}"#,
                    counts_json(80)
                ),
            );
            assert_eq!(
                r, r#"{"ok":false,"id":5,"error":"scale must be a positive finite number"}"#,
                "scale {scale}"
            );
        }
        let ok = handle_line(
            &engine,
            &format!(
                r#"{{"op":"detect","tenant":"sc","scale":1,"counts":{}}}"#,
                counts_json(80)
            ),
        );
        assert!(ok.contains("\"op\":\"detect\""), "{ok}");
        assert_eq!(engine.metrics()[M::Failed], 0);
        engine.shutdown();
    }

    #[test]
    fn mistyped_optional_fields_are_refused_not_defaulted() {
        let engine = test_engine();
        handle_line(
            &engine,
            r#"{"op":"register","tenant":"ty","secret_label":"types"}"#,
        );
        let counts = counts_json(80);
        let embed = |extra: &str| {
            handle_line(
                &engine,
                &format!(r#"{{"op":"embed","tenant":"ty","id":1,{extra}"counts":{counts}}}"#),
            )
        };
        let refused = |field: &str, must_be: &str| {
            format!(r#"{{"ok":false,"id":1,"error":"{field} must be {must_be}"}}"#)
        };
        for (extra, field, must_be) in [
            (r#""z":"1031","#, "z", "a non-negative integer"),
            (r#""z":1031.5,"#, "z", "a non-negative integer"),
            (r#""z":-7,"#, "z", "a non-negative integer"),
            (r#""budget":"5","#, "budget", "a number"),
            (
                r#""exclude_free_pairs":"true","#,
                "exclude_free_pairs",
                "true or false",
            ),
            (
                r#""timeout_ms":"5000","#,
                "timeout_ms",
                "a non-negative integer",
            ),
            (r#""trace":7,"#, "trace", "a string"),
        ] {
            assert_eq!(embed(extra), refused(field, must_be), "{extra}");
        }
        // The same fields, well typed, still embed.
        let ok = embed(r#""z":101,"budget":5,"exclude_free_pairs":true,"#);
        assert!(ok.contains("\"ok\":true"), "{ok}");
        let detect = |extra: &str| {
            handle_line(
                &engine,
                &format!(r#"{{"op":"detect","tenant":"ty","id":1,{extra}"counts":{counts}}}"#),
            )
        };
        for (extra, field, must_be) in [
            (r#""t":-1,"#, "t", "a non-negative integer"),
            (r#""k":"3","#, "k", "a non-negative integer"),
            (r#""scale":"0.5","#, "scale", "a positive finite number"),
            (
                r#""timeout_ms":-1,"#,
                "timeout_ms",
                "a non-negative integer",
            ),
            (r#""trace":["t-1"],"#, "trace", "a string"),
        ] {
            assert_eq!(detect(extra), refused(field, must_be), "{extra}");
        }
        let ok = detect(r#""t":2,"k":1,"scale":0.5,"#);
        assert!(ok.contains("\"op\":\"detect\""), "{ok}");
        let r = handle_line(
            &engine,
            r#"{"op":"maintain","tenant":"ty","id":1,"updates":[["t0",1]],"replenish":1}"#,
        );
        assert_eq!(r, refused("replenish", "true or false"));
        for (extra, field, must_be) in [
            (r#""t":"2""#, "t", "a non-negative integer"),
            (r#""quorum":"0.5""#, "quorum", "a number from 0 to 1"),
            (r#""quorum":2"#, "quorum", "a number from 0 to 1"),
        ] {
            let r = handle_line(
                &engine,
                &format!(r#"{{"op":"dispute","a":"ty","b":"ty","id":1,{extra}}}"#),
            );
            assert_eq!(r, refused(field, must_be), "{extra}");
        }
        let r = handle_line(
            &engine,
            r#"{"op":"maintain","tenant":"ty","id":1,"updates":[["t0",1]],"trace":1}"#,
        );
        assert_eq!(r, refused("trace", "a string"));
        // A mistyped secret never registers a random one in its place.
        for (extra, field, must_be) in [
            (r#""secret":123"#, "secret", "64 hex chars"),
            (r#""secret":"zz""#, "secret", "64 hex chars"),
            (r#""secret_label":5"#, "secret_label", "a string"),
        ] {
            let r = handle_line(
                &engine,
                &format!(r#"{{"op":"register","tenant":"ty2","id":1,{extra}}}"#),
            );
            assert_eq!(r, refused(field, must_be), "{extra}");
        }
        let r = handle_line(&engine, r#"{"op":"quota","tenant":"ty2"}"#);
        assert!(r.contains("unknown tenant"), "ty2 stayed unregistered: {r}");
        // A mistyped budget never turns a quota set into a read.
        for field in ["embed", "detect", "maintain", "window_ms"] {
            let r = handle_line(
                &engine,
                &format!(r#"{{"op":"quota","tenant":"ty","id":1,"{field}":"5"}}"#),
            );
            assert_eq!(r, refused(field, "a non-negative integer"), "{field}");
        }
        let r = handle_line(&engine, r#"{"op":"quota","tenant":"ty"}"#);
        assert!(
            r.contains("\"source\":\"default\""),
            "no quota was set: {r}"
        );
        for (op, extra, field, must_be) in [
            ("history", r#""last":"2""#, "last", "a non-negative integer"),
            ("trace", r#""trace":1"#, "trace", "a string"),
            ("trace", r#""tenant":false"#, "tenant", "a string"),
            ("trace", r#""for_op":3"#, "for_op", "a string"),
            (
                "trace",
                r#""min_us":"1""#,
                "min_us",
                "a non-negative integer",
            ),
            ("trace", r#""min_ms":"1""#, "min_ms", "a number"),
            ("trace", r#""limit":-1"#, "limit", "a non-negative integer"),
            (
                "replicate",
                r#""from_seq":"0""#,
                "from_seq",
                "a non-negative integer",
            ),
        ] {
            let r = handle_line(&engine, &format!(r#"{{"op":"{op}","id":1,{extra}}}"#));
            assert_eq!(r, refused(field, must_be), "{op} {extra}");
        }
        assert_eq!(engine.metrics()[M::Failed], 0);
        engine.shutdown();
    }

    #[test]
    fn protocol_errors() {
        let engine = test_engine();
        assert!(handle_line(&engine, "not json").contains("\"ok\":false"));
        assert!(handle_line(&engine, r#"{"op":"fly"}"#).contains("unknown op"));
        assert!(
            handle_line(&engine, r#"{"op":"embed","tenant":"ghost","counts":[]}"#)
                .contains("\"ok\":false")
        );
        let r = handle_line(
            &engine,
            r#"{"op":"detect","tenant":"ghost","counts":[["a",1]],"id":"x7"}"#,
        );
        assert!(r.contains("unknown tenant"), "{r}");
        assert!(r.contains("\"id\":\"x7\""), "{r}");
        engine.shutdown();
    }

    #[test]
    fn embed_past_the_modulus_bound_is_an_error_response() {
        let engine = test_engine();
        handle_line(
            &engine,
            r#"{"op":"register","tenant":"big","secret_label":"e"}"#,
        );
        let embed = |top: u64, z: u64| {
            let counts = format!(r#"[["a",{top}],["b",{}],["c",3]]"#, 1u64 << 63);
            handle_line(
                &engine,
                &format!(r#"{{"op":"embed","tenant":"big","id":1,"z":{z},"counts":{counts}}}"#),
            )
        };
        for z in [u64::MAX, 1 << 63] {
            let r = embed(u64::MAX, z);
            assert!(r.starts_with(r#"{"ok":false,"id":1,"#), "{r}");
            assert!(r.contains(&format!("z={z} exceeds 2^61")), "{r}");
        }
        // At the bound, counts past i64::MAX embed without overflowing.
        let r = embed(3 << 62, 1 << 61);
        assert!(r.contains(r#""ok":true"#), "{r}");
        engine.shutdown();
    }

    #[test]
    fn quota_op_sets_budgets_and_refusals_are_typed() {
        let engine = test_engine();
        handle_line(
            &engine,
            r#"{"op":"register","tenant":"q","secret_label":"quota"}"#,
        );
        // A bare read reports the engine defaults: unlimited budgets.
        let read = handle_line(&engine, r#"{"op":"quota","tenant":"q"}"#);
        let v = parse(&read).expect(&read);
        assert_eq!(v.get("set").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("source").and_then(Value::as_str), Some("default"));
        assert_eq!(v.get("budgets").unwrap().get("embed"), Some(&Value::Null));
        // Setting one class caps it; the others stay unlimited.
        let set = handle_line(&engine, r#"{"op":"quota","tenant":"q","embed":1,"id":3}"#);
        let v = parse(&set).expect(&set);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{set}");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("set").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("source").and_then(Value::as_str), Some("explicit"));
        let budgets = v.get("budgets").unwrap();
        assert_eq!(budgets.get("embed").and_then(Value::as_u64), Some(1));
        assert_eq!(budgets.get("detect"), Some(&Value::Null));
        // First embed spends the window; the second is refused with the
        // typed error a client can back off on.
        let first = handle_line(
            &engine,
            &format!(
                r#"{{"op":"embed","tenant":"q","counts":{}}}"#,
                counts_json(60)
            ),
        );
        assert!(first.contains("\"ok\":true"), "{first}");
        let second = handle_line(
            &engine,
            &format!(
                r#"{{"op":"embed","tenant":"q","counts":{},"id":"r1"}}"#,
                counts_json(60)
            ),
        );
        let v = parse(&second).expect(&second);
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(false),
            "{second}"
        );
        assert_eq!(
            v.get("error_kind").and_then(Value::as_str),
            Some("quota_exhausted")
        );
        assert_eq!(v.get("op_class").and_then(Value::as_str), Some("embed"));
        assert!(v.get("retry_after_ms").and_then(Value::as_u64).unwrap() >= 1);
        assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
        // The refusal shows in the quota read and the engine counter.
        let after = handle_line(&engine, r#"{"op":"quota","tenant":"q"}"#);
        let v = parse(&after).expect(&after);
        assert_eq!(v.get("refused").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("admitted").and_then(Value::as_u64), Some(1));
        assert_eq!(
            v.get("used").unwrap().get("embed").and_then(Value::as_u64),
            Some(1)
        );
        let metrics = handle_line(&engine, r#"{"op":"metrics"}"#);
        let m = parse(&metrics).expect(&metrics);
        assert_eq!(
            m.get("metrics")
                .unwrap()
                .get("quota_refused")
                .and_then(Value::as_u64),
            Some(1)
        );
        // Budgets attach to registered tenants only.
        let ghost = handle_line(&engine, r#"{"op":"quota","tenant":"ghost","embed":5}"#);
        assert!(ghost.contains("unknown tenant"), "{ghost}");
        engine.shutdown();
    }

    #[test]
    fn serve_loop_and_shutdown_op() {
        let engine = test_engine();
        let input = concat!(
            "# comment line\n",
            "\n",
            "{\"op\":\"register\",\"tenant\":\"t\",\"secret_label\":\"s\"}\n",
            "{\"op\":\"metrics\"}\n",
            "{\"op\":\"shutdown\"}\n",
            "{\"op\":\"metrics\"}\n", // after shutdown: never processed
        );
        let mut out = Vec::new();
        serve(&engine, input.as_bytes(), &mut out, DEFAULT_MAX_FRAME, None).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("register"));
        assert!(lines[2].contains("shutdown"));
        engine.shutdown();
    }

    #[test]
    fn serve_flushes_in_flight_jobs_on_eof() {
        // No shutdown op: the input just ends. Every request — the ops,
        // the embed barrier and the pipelined detects — must still get
        // its response, in request order, via the graceful-drain path.
        let engine = test_engine();
        let mut input = String::new();
        input
            .push_str("{\"op\":\"register\",\"tenant\":\"t\",\"secret_label\":\"eof\",\"id\":0}\n");
        input.push_str(&format!(
            "{{\"op\":\"embed\",\"tenant\":\"t\",\"z\":101,\"id\":1,\"counts\":{}}}\n",
            counts_json(80)
        ));
        for i in 2..6 {
            input.push_str(&format!(
                "{{\"op\":\"detect\",\"tenant\":\"t\",\"t\":2,\"k\":1,\"id\":{i},\"counts\":{}}}\n",
                counts_json(80)
            ));
        }
        input.push_str("not json at all\n");
        let mut out = Vec::new();
        serve(
            &engine,
            std::io::Cursor::new(input),
            &mut out,
            DEFAULT_MAX_FRAME,
            None,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.trim().lines().collect();
        assert_eq!(lines.len(), 7, "{text}");
        for (i, line) in lines[..6].iter().enumerate() {
            assert!(line.contains(&format!("\"id\":{i}")), "order lost: {line}");
        }
        assert!(lines[1].contains("chosen_pairs"), "{}", lines[1]);
        for line in &lines[2..6] {
            assert!(line.contains("\"op\":\"detect\""), "{line}");
        }
        assert!(lines[6].contains("bad json"), "{}", lines[6]);
        engine.shutdown();
    }

    #[test]
    fn serve_rejects_oversized_frame_but_connection_stays_usable() {
        let engine = test_engine();
        let big = format!("{{\"op\":\"metrics\",\"pad\":\"{}\"}}", "x".repeat(512));
        let input = format!("{big}\n{{\"op\":\"metrics\"}}\n");
        let mut out = Vec::new();
        serve(&engine, std::io::Cursor::new(input), &mut out, 256, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.trim().lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("frame exceeds 256 bytes"), "{}", lines[0]);
        assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
        engine.shutdown();
    }

    #[test]
    fn frame_reader_caps_and_recovers() {
        let input = format!("short\n{}\nafter\nlast", "y".repeat(100));
        // A small read buffer makes the oversized frame span many chunks.
        let mut reader = std::io::BufReader::with_capacity(8, std::io::Cursor::new(input));
        let mut frames = Vec::new();
        read_frames(&mut reader, 16, |e| {
            frames.push(e);
            true
        });
        assert_eq!(
            frames,
            vec![
                LineEvent::Line("short".into()),
                LineEvent::Oversized,
                LineEvent::Line("after".into()),
                LineEvent::Line("last".into()),
            ]
        );
    }

    #[test]
    fn session_pipelines_with_barriers_and_preserves_order() {
        let engine = test_engine();
        let mut session = Session::new();
        session.push_line(
            &engine,
            r#"{"op":"register","tenant":"s","secret_label":"sess"}"#,
        );
        assert_eq!(session.take_ready().len(), 1, "ops answer immediately");
        // Embed is a mutation barrier: the detects pushed right behind
        // it must not launch until it completes.
        session.push_line(
            &engine,
            &format!(
                r#"{{"op":"embed","tenant":"s","z":101,"id":"e","counts":{}}}"#,
                counts_json(80)
            ),
        );
        for i in 0..3 {
            session.push_line(
                &engine,
                &format!(
                    r#"{{"op":"detect","tenant":"s","t":2,"k":1,"id":{i},"counts":{}}}"#,
                    counts_json(80)
                ),
            );
        }
        assert_eq!(engine.metrics()[M::Submitted], 1, "only the embed launched");
        assert!(session.take_ready().is_empty(), "nothing terminal yet");
        assert!(!session.is_idle());
        session.drain_blocking(&engine);
        assert!(session.is_idle());
        let ready = session.take_ready();
        assert_eq!(ready.len(), 4, "{ready:?}");
        assert!(ready[0].contains("\"id\":\"e\""), "{}", ready[0]);
        assert!(ready[0].contains("chosen_pairs"), "{}", ready[0]);
        for (i, resp) in ready[1..].iter().enumerate() {
            assert!(resp.contains(&format!("\"id\":{i}")), "order lost: {resp}");
            assert!(resp.contains("\"op\":\"detect\""), "{resp}");
        }
        assert!(session.is_settled());
        engine.shutdown();
    }

    #[test]
    fn session_refuses_requests_deferred_behind_shutdown() {
        let engine = test_engine();
        let mut session = Session::new();
        session.push_line(
            &engine,
            r#"{"op":"register","tenant":"z","secret_label":"sd"}"#,
        );
        // detect (job) → shutdown → metrics, all before the job ends:
        // shutdown and metrics both defer behind the in-flight detect.
        session.push_line(
            &engine,
            r#"{"op":"detect","tenant":"z","counts":[["a",5],["b",3]],"id":0}"#,
        );
        session.push_line(&engine, r#"{"op":"shutdown","id":1}"#);
        session.push_line(&engine, r#"{"op":"metrics","id":2}"#);
        session.drain_blocking(&engine);
        assert!(session.wants_shutdown());
        // register + detect(error: no watermark) + shutdown + refusal.
        let ready = session.take_ready();
        assert_eq!(ready.len(), 4, "{ready:?}");
        assert!(ready[2].contains("\"op\":\"shutdown\""), "{}", ready[2]);
        assert!(ready[3].contains("session shutting down"), "{}", ready[3]);
        assert!(
            session.is_settled(),
            "straggler slot left the session unsettled"
        );
        engine.shutdown();
    }

    #[test]
    fn json_write_round_trips() {
        let text =
            r#"{"op":"metrics","n":3,"f":2.5,"ok":true,"x":null,"arr":[["a",1],{}],"s":"q\"e"}"#;
        let v = parse(text).unwrap();
        let rendered = super::json::write(&v);
        assert_eq!(parse(&rendered).unwrap(), v, "{rendered}");
        // Integer-valued numbers stay integers through the round trip.
        assert!(rendered.contains("\"n\":3"), "{rendered}");
        assert!(rendered.contains("\"f\":2.5"), "{rendered}");
    }

    #[test]
    fn route_classification() {
        let route = |line: &str| super::route_of(&Envelope::parse(line).unwrap());
        assert_eq!(
            route(r#"{"op":"embed","tenant":"t1","counts":[]}"#),
            RouteInfo::Tenant("t1".into())
        );
        assert_eq!(
            route(r#"{"op":"register","tenant":"t2"}"#),
            RouteInfo::Tenant("t2".into())
        );
        assert_eq!(
            route(r#"{"op":"dispute","a":"x","b":"y"}"#),
            RouteInfo::TenantPair("x".into(), "y".into())
        );
        assert_eq!(
            route(r#"{"op":"quota","tenant":"t3","embed":100}"#),
            RouteInfo::Tenant("t3".into())
        );
        let broadcast = RouteInfo::Broadcast;
        assert_eq!(route(r#"{"op":"metrics"}"#), broadcast(FanoutKind::Metrics));
        assert_eq!(route(r#"{"op":"history"}"#), broadcast(FanoutKind::History));
        assert_eq!(route(r#"{"op":"trace"}"#), broadcast(FanoutKind::Trace));
        assert_eq!(
            route(r#"{"op":"shutdown"}"#),
            broadcast(FanoutKind::Shutdown)
        );
        assert_eq!(route(r#"{"op":"hello"}"#), RouteInfo::Local);
        assert!(matches!(
            route(r#"{"op":"detect"}"#),
            RouteInfo::Unroutable(_)
        ));
        assert!(matches!(route(r#"{"op":"fly"}"#), RouteInfo::Unroutable(_)));
        assert!(matches!(route(r#"{"x":1}"#), RouteInfo::Unroutable(_)));

        // Over every wire op in the op table, and two names that are
        // none, `route_of` calls an op unknown exactly when `plan` does.
        let unknown = |e: &str| e.starts_with("unknown op");
        let wire = OpKind::ALL.iter().filter(|&&op| op != OpKind::Other);
        for op in wire.map(|op| op.as_str()).chain(["fly", "other"]) {
            let line = format!(r#"{{"op":"{op}"}}"#);
            let planned = plan(&line).1;
            let routed = route(&line);
            let plan_unknown = matches!(&planned, Err(e) if unknown(e));
            let route_unknown = matches!(&routed, RouteInfo::Unroutable(e) if unknown(e));
            assert_eq!(
                plan_unknown,
                route_unknown,
                "{op}: plan {:?}, route {routed:?}",
                planned.as_ref().err()
            );
            assert_eq!(
                plan_unknown,
                op == "fly" || op == "other",
                "{op}: {:?}",
                planned.err()
            );
        }

        // A keyed op missing a routing field is refused by the router
        // with the text a shard answers the same line with.
        let engine = test_engine();
        let mut checked = 0;
        for &op in OpKind::ALL {
            let keys = [("tenant", "t"), ("a", "t"), ("b", "t")];
            let line = |skip: &str| {
                let fields: Vec<String> = keys
                    .iter()
                    .filter(|(k, _)| *k != skip)
                    .map(|(k, v)| format!(r#","{k}":"{v}""#))
                    .collect();
                format!(r#"{{"op":"{}"{}}}"#, op.as_str(), fields.concat())
            };
            if !matches!(
                route(&line("")),
                RouteInfo::Tenant(_) | RouteInfo::TenantPair(..)
            ) {
                continue;
            }
            for (skip, _) in keys {
                let line = line(skip);
                if let RouteInfo::Unroutable(msg) = route(&line) {
                    assert_eq!(handle_line(&engine, &line), err_response(None, &msg));
                    checked += 1;
                }
            }
        }
        // register, embed, detect, maintain and quota miss `tenant`;
        // dispute misses `a`, then `b`.
        assert_eq!(checked, 7);
        let RouteInfo::Unroutable(msg) = route(r#"{"x":1}"#) else {
            panic!("a line with no op routes nowhere");
        };
        assert_eq!(handle_line(&engine, r#"{"x":1}"#), err_response(None, &msg));
        engine.shutdown();
    }

    #[test]
    fn hello_op_acks_on_open_session() {
        let engine = test_engine();
        let r = handle_line(&engine, r#"{"op":"hello","id":9}"#);
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"op\":\"hello\""), "{r}");
        assert!(r.contains("\"id\":9"), "{r}");
        engine.shutdown();
    }

    #[test]
    fn auth_gate_locks_until_hello() {
        let engine = test_engine();
        let mut session = Session::with_auth(Some("sesame".into()));
        // Locked: ops are refused, wrong hello is refused.
        session.push_line(&engine, r#"{"op":"metrics","id":1}"#);
        session.push_line(&engine, r#"{"op":"hello","token":"wrong","id":2}"#);
        // Per-request auth admits a single request without unlocking.
        session.push_line(&engine, r#"{"op":"metrics","auth":"sesame","id":3}"#);
        session.push_line(&engine, r#"{"op":"metrics","id":4}"#);
        // The right hello unlocks the session for good.
        session.push_line(&engine, r#"{"op":"hello","token":"sesame","id":5}"#);
        session.push_line(&engine, r#"{"op":"metrics","id":6}"#);
        session.drain_blocking(&engine);
        let ready = session.take_ready();
        assert_eq!(ready.len(), 6, "{ready:?}");
        assert!(ready[0].contains("authentication required"), "{}", ready[0]);
        assert!(ready[1].contains("bad auth token"), "{}", ready[1]);
        assert!(ready[2].contains("\"op\":\"metrics\""), "{}", ready[2]);
        assert!(ready[2].contains("\"ok\":true"), "{}", ready[2]);
        assert!(ready[3].contains("authentication required"), "{}", ready[3]);
        assert!(ready[4].contains("\"authenticated\":true"), "{}", ready[4]);
        assert!(ready[5].contains("\"ok\":true"), "{}", ready[5]);
        engine.shutdown();
    }

    #[test]
    fn serve_auth_gates_the_pipe_transport() {
        let engine = test_engine();
        let input = concat!(
            "{\"op\":\"metrics\",\"id\":0}\n",
            "{\"op\":\"hello\",\"token\":\"k\",\"id\":1}\n",
            "{\"op\":\"metrics\",\"id\":2}\n",
        );
        let mut out = Vec::new();
        serve(
            &engine,
            input.as_bytes(),
            &mut out,
            DEFAULT_MAX_FRAME,
            Some("k".into()),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.trim().lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("authentication required"), "{}", lines[0]);
        assert!(lines[1].contains("\"authenticated\":true"), "{}", lines[1]);
        assert!(lines[2].contains("\"op\":\"metrics\""), "{}", lines[2]);
        engine.shutdown();
    }

    #[test]
    fn batch_reports_line_numbers_for_malformed_requests() {
        let engine = test_engine();
        let lines = vec![
            r#"{"op":"metrics"}"#.to_string(),
            String::new(),           // skipped, but still counts for numbering
            "# comment".to_string(), // likewise
            "{not json".to_string(),
            r#"{"op":"fly"}"#.to_string(),
        ];
        let out = run_batch(&engine, &lines);
        assert_eq!(out.len(), 3);
        assert!(out[1].contains("\"ok\":false"), "{}", out[1]);
        assert!(out[1].contains("line 4"), "{}", out[1]);
        assert!(out[1].contains("bad json"), "{}", out[1]);
        assert!(out[2].contains("line 5"), "{}", out[2]);
        engine.shutdown();
    }

    #[test]
    fn batch_pipelines_jobs_and_preserves_order() {
        let engine = test_engine();
        let mut lines = vec![
            r#"{"op":"register","tenant":"t","secret_label":"b"}"#.to_string(),
            format!(
                r#"{{"op":"embed","tenant":"t","z":101,"counts":{}}}"#,
                counts_json(80)
            ),
        ];
        // A wave of detects over the original data (partial verification).
        for i in 0..6 {
            lines.push(format!(
                r#"{{"op":"detect","tenant":"t","t":2,"k":1,"id":{i},"counts":{}}}"#,
                counts_json(80)
            ));
        }
        lines.push(r#"{"op":"metrics"}"#.to_string());
        let out = run_batch(&engine, &lines);
        assert_eq!(out.len(), lines.len());
        assert!(out[0].contains("register"));
        assert!(out[1].contains("chosen_pairs"));
        for (i, resp) in out[2..8].iter().enumerate() {
            assert!(resp.contains(&format!("\"id\":{i}")), "order lost: {resp}");
        }
        assert!(out[8].contains("\"completed\":7"), "{}", out[8]);
        engine.shutdown();
    }

    #[test]
    fn batch_refuses_requests_after_shutdown() {
        let engine = test_engine();
        let lines = vec![
            r#"{"op":"register","tenant":"t","secret_label":"sd"}"#.to_string(),
            r#"{"op":"shutdown"}"#.to_string(),
            r#"{"op":"metrics","id":7}"#.to_string(),
        ];
        let out = run_batch(&engine, &lines);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out[1].contains("\"op\":\"shutdown\""), "{}", out[1]);
        assert!(out[2].starts_with("{\"ok\":false"), "{}", out[2]);
        assert!(out[2].contains("\"id\":7"), "{}", out[2]);
        assert!(out[2].contains("session shutting down"), "{}", out[2]);
        engine.shutdown();
    }

    #[test]
    fn trace_op_returns_client_supplied_trace_with_stage_spans() {
        let engine = test_engine();
        handle_line(
            &engine,
            r#"{"op":"register","tenant":"tr","secret_label":"trace"}"#,
        );
        let embed = handle_line(
            &engine,
            &format!(
                r#"{{"op":"embed","tenant":"tr","z":101,"trace":"t-proto-42","counts":{}}}"#,
                counts_json(80)
            ),
        );
        assert!(embed.contains("\"ok\":true"), "{embed}");
        let r = handle_line(&engine, r#"{"op":"trace","trace":"t-proto-42"}"#);
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"op\":\"trace\""), "{r}");
        // The engine threads the id through the queue into the worker:
        // queue-wait and run are distinct spans, plus the PRF sweep
        // sub-span and the transport-side parse/respond spans.
        for stage in ["queue_wait", "run", "prf_sweep", "parse", "respond"] {
            assert!(
                r.contains(&format!("\"stage\":\"{stage}\"")),
                "{stage}: {r}"
            );
        }
        assert!(r.contains("\"trace\":\"t-proto-42\""), "{r}");
        assert!(r.contains("\"tenant\":\"tr\""), "{r}");
        engine.shutdown();
    }

    #[test]
    fn trace_op_filters_are_narrowing_not_errors() {
        let engine = test_engine();
        handle_line(
            &engine,
            r#"{"op":"register","tenant":"tf","secret_label":"tf"}"#,
        );
        let embed = handle_line(
            &engine,
            &format!(
                r#"{{"op":"embed","tenant":"tf","z":101,"trace":"t-filter-1","counts":{}}}"#,
                counts_json(80)
            ),
        );
        assert!(embed.contains("\"ok\":true"), "{embed}");
        // Unknown tenant: empty result, still ok — observability reads
        // must never fail a pipeline.
        let r = handle_line(&engine, r#"{"op":"trace","tenant":"nobody"}"#);
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"count\":0"), "{r}");
        assert!(r.contains("\"spans\":[]"), "{r}");
        // Op filter narrows to the embed's spans only.
        let r = handle_line(&engine, r#"{"op":"trace","for_op":"embed"}"#);
        assert!(r.contains("\"op\":\"embed\""), "{r}");
        assert!(!r.contains("\"op\":\"register\""), "{r}");
        // An absurd duration floor filters everything out.
        let r = handle_line(&engine, r#"{"op":"trace","min_ms":3600000}"#);
        assert!(r.contains("\"count\":0"), "{r}");
        // Limit caps the span list.
        let r = handle_line(&engine, r#"{"op":"trace","limit":1}"#);
        assert!(r.contains("\"count\":1"), "{r}");
        // A `for_op` that labels no span matches nothing, while every
        // op's spans carry its own label: a quota op's parse and
        // respond spans, a shutdown's, and `other` for a line that
        // names no op.
        handle_line(&engine, r#"{"op":"quota","tenant":"tf"}"#);
        let r = handle_line(&engine, r#"{"op":"trace","for_op":"fly"}"#);
        assert!(r.contains("\"count\":0"), "{r}");
        handle_line(&engine, r#"{"op":"shutdown"}"#);
        handle_line(&engine, r#"{"op":"fly"}"#);
        for op in ["quota", "shutdown", "other"] {
            let r = handle_line(&engine, &format!(r#"{{"op":"trace","for_op":"{op}"}}"#));
            assert!(r.contains("\"count\":2"), "{op}: {r}");
            assert!(r.contains(&format!("\"op\":\"{op}\"")), "{op}: {r}");
        }
        engine.shutdown();
    }

    #[test]
    fn serve_transport_threads_trace_ids_end_to_end() {
        // Same assertion as the handle_line test but over the pipe
        // transport: the trace id rides the request line through the
        // Session (parse → queue → worker → respond) and comes back out
        // of a pipelined `trace` query.
        let engine = test_engine();
        let mut input = String::new();
        input.push_str("{\"op\":\"register\",\"tenant\":\"sv\",\"secret_label\":\"sv\"}\n");
        input.push_str(&format!(
            "{{\"op\":\"embed\",\"tenant\":\"sv\",\"z\":101,\"trace\":\"t-serve-9\",\"counts\":{}}}\n",
            counts_json(80)
        ));
        input.push_str("{\"op\":\"trace\",\"trace\":\"t-serve-9\"}\n");
        let mut out = Vec::new();
        serve(
            &engine,
            std::io::Cursor::new(input),
            &mut out,
            DEFAULT_MAX_FRAME,
            None,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.trim().lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        let trace = lines[2];
        assert!(trace.contains("\"ok\":true"), "{trace}");
        assert!(trace.contains("\"trace\":\"t-serve-9\""), "{trace}");
        for stage in ["queue_wait", "run"] {
            assert!(
                trace.contains(&format!("\"stage\":\"{stage}\"")),
                "{stage}: {trace}"
            );
        }
        engine.shutdown();
    }
}
