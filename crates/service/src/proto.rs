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
use crate::job::{JobData, JobId, JobKind, JobOutput, JobPayload, JobSpec, JobState};
use crate::metrics::M;
use crate::registry::CountRows;
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_crypto::prf::Secret;
use freqywm_data::token::Token;
use freqywm_obs::{OpKind, Span, Stage, TraceFilter};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

/// Default input frame-size cap shared by the pipe and socket
/// transports: one JSON-lines request may not exceed this many bytes.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

pub mod json {
    //! Minimal JSON: parse into a [`Value`] tree, escape strings out.
    //!
    //! One scanner serves every reader of request text: [`parse`] builds
    //! a whole tree, while [`super::Envelope`] builds only the top-level
    //! fields and steps over the bulk arrays with `Parser::skip_value`,
    //! which checks them exactly as [`parse`] would, error text included.

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
    /// to a callback ([`Parser::object`], [`Parser::array`]) so a caller
    /// can decode straight into its own types. All of them accept and
    /// refuse the same text with the same errors.
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
/// cap. No id echo — an oversized frame is never parsed.
pub fn frame_too_large_response(max_frame: usize) -> String {
    err_response(None, &format!("frame exceeds {max_frame} bytes"))
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
/// `updates`): those are checked for syntax and kept as slices of the
/// line. A shard decodes the slices straight into rows when it plans
/// the job; the router never decodes them.
pub struct Envelope<'a> {
    /// The non-bulk fields, in request order, as a [`Value::Obj`].
    fields: Value,
    counts: Option<&'a str>,
    tokens: Option<&'a str>,
    updates: Option<&'a str>,
}

impl<'a> Envelope<'a> {
    /// Accepts and refuses exactly the lines [`json::parse`] does, with
    /// the same error text. A repeated key keeps its first value, as
    /// [`Value::get`] does; a top-level value that is not an object
    /// has no fields.
    pub fn parse(line: &'a str) -> Result<Self, String> {
        let mut p = json::Parser::new(line);
        let mut fields = Vec::new();
        let (mut counts, mut tokens, mut updates) = (None, None, None);
        if p.peek()? == b'{' {
            p.object(|p, key| {
                let bulk = match &*key {
                    "counts" => &mut counts,
                    "tokens" => &mut tokens,
                    "updates" => &mut updates,
                    _ => {
                        fields.push((key.into_owned(), p.value()?));
                        return Ok(());
                    }
                };
                let raw = p.skip_value()?;
                bulk.get_or_insert(raw);
                Ok(())
            })?;
        } else {
            p.skip_value()?;
        }
        p.finish()?;
        Ok(Envelope {
            fields: Value::Obj(fields),
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

/// A parser over a checked bulk slice, refusing anything but an array.
fn bulk_array<'a>(raw: &'a str, field: &str) -> Result<json::Parser<'a>, String> {
    let mut p = json::Parser::new(raw);
    if p.peek()? != b'[' {
        return Err(format!("{field} must be an array"));
    }
    Ok(p)
}

/// Decodes a checked `counts` slice into packed rows, for embed and
/// detect alike.
fn decode_counts(raw: &str) -> Result<CountRows, String> {
    let mut p = bulk_array(raw, "counts")?;
    let mut rows = CountRows::with_capacity(raw.len());
    let decoded = p.array(|p| {
        let (token, count) = token_row(p, "counts entries must be [token, count]")?;
        let c = count
            .and_then(count_of)
            .ok_or("count must be a non-negative integer")?;
        rows.push(&token, c);
        Ok(())
    });
    // A duplicate token would put two rows into the histogram and
    // corrupt its rank invariants. Rows decode in order up to the first
    // malformed one, so whichever fault comes first in the array wins.
    let mut seen = HashSet::with_capacity(rows.len());
    if let Some((token, _)) = rows.iter().find(|(t, _)| !seen.insert(*t)) {
        return Err(format!("duplicate token {token:?} in counts"));
    }
    decoded.map(|()| rows)
}

/// Decodes a checked `updates` slice into `(token, delta)` rows.
fn decode_updates(raw: &str) -> Result<Vec<(Token, i64)>, String> {
    let mut p = bulk_array(raw, "updates")?;
    let mut rows = Vec::new();
    p.array(|p| {
        let (token, n) = token_row(p, "updates entries must be [token, delta]")?;
        let d = n.and_then(delta_of).ok_or("delta must be an integer")?;
        rows.push((Token::new(token), d));
        Ok(())
    })?;
    Ok(rows)
}

/// Decodes a checked `tokens` slice.
fn decode_tokens(raw: &str) -> Result<Vec<Token>, String> {
    let mut p = bulk_array(raw, "tokens")?;
    let mut tokens = Vec::new();
    p.array(|p| {
        if p.peek()? != b'"' {
            return Err("tokens entries must be strings".to_string());
        }
        tokens.push(Token::new(p.string()?));
        Ok(())
    })?;
    Ok(tokens)
}

fn parse_data(env: &Envelope<'_>) -> Result<JobData, String> {
    if let Some(raw) = env.counts {
        return Ok(JobData::Rows(decode_counts(raw)?));
    }
    if let Some(raw) = env.tokens {
        return Ok(JobData::Tokens(decode_tokens(raw)?));
    }
    Err("request needs \"counts\" or \"tokens\"".to_string())
}

fn req_str<'a>(req: &'a Value, key: &str) -> Result<&'a str, String> {
    req.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn job_timeout(req: &Value) -> Option<Duration> {
    req.get("timeout_ms")
        .and_then(Value::as_u64)
        .map(Duration::from_millis)
}

fn job_trace(req: &Value) -> Option<String> {
    req.get("trace").and_then(Value::as_str).map(str::to_string)
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
                crate::quota::class_name(kind),
                retry_after_ms,
            )
        }
        JobState::Failed(e) => err_response(id, &e.to_string()),
        JobState::Cancelled => err_response(id, "job cancelled"),
        JobState::Queued | JobState::Running => err_response(id, "internal: job not terminal"),
    }
}

/// A parsed request: a job to schedule on the pool, a synchronous op
/// executed via [`execute_op`], or shutdown. Parsing never touches the
/// engine, so the transport controls *when* ordered ops run.
pub enum Planned {
    Op(Value),
    Job(JobSpec),
    Shutdown,
}

/// Parses one request line into its echoed id and execution plan.
pub fn plan(line: &str) -> (Option<Value>, Result<Planned, String>) {
    match Envelope::parse(line) {
        Ok(env) => plan_envelope(env),
        Err(e) => (None, Err(format!("bad json: {e}"))),
    }
}

/// [`plan`] over an already-parsed request (the auth gate parses
/// before planning).
fn plan_envelope(env: Envelope<'_>) -> (Option<Value>, Result<Planned, String>) {
    let id = env.get("id").cloned();
    let planned = plan_request(env);
    (id, planned)
}

/// The id a request line carries, if it parses: what a refusal that
/// never plans the request echoes.
pub fn request_id(line: &str) -> Option<Value> {
    Envelope::parse(line).ok()?.get("id").cloned()
}

fn plan_request(env: Envelope<'_>) -> Result<Planned, String> {
    match req_str(env.fields(), "op")? {
        "register" | "dispute" | "quota" | "metrics" | "history" | "trace" | "hello"
        | "replicate" | "promote" => Ok(Planned::Op(env.fields)),
        "shutdown" => Ok(Planned::Shutdown),
        "embed" | "detect" | "maintain" => plan_job(&env),
        other => Err(format!("unknown op {other:?}")),
    }
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
    /// Tenant-agnostic read (`metrics`, `history`, `trace`): fan out
    /// to every shard and merge.
    Broadcast,
    /// `shutdown`: fan out, then drain the tier.
    Shutdown,
    /// Handled by whatever tier received it (`hello`).
    Local,
    /// Cannot be routed; answer with this protocol error.
    Unroutable(String),
}

/// Classifies a parsed request for routing. Mirrors [`plan`]'s op table
/// — an op added there must be classified here, or the router will
/// refuse it before a shard ever sees it.
pub fn route_of(req: &Envelope<'_>) -> RouteInfo {
    let Some(op) = req.get("op").and_then(Value::as_str) else {
        return RouteInfo::Unroutable("missing string field \"op\"".to_string());
    };
    let tenant_field = |key: &str| -> Result<String, RouteInfo> {
        req.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| RouteInfo::Unroutable(format!("missing string field {key:?}")))
    };
    match op {
        "register" | "embed" | "detect" | "maintain" | "quota" => match tenant_field("tenant") {
            Ok(t) => RouteInfo::Tenant(t),
            Err(e) => e,
        },
        "dispute" => match (tenant_field("a"), tenant_field("b")) {
            (Ok(a), Ok(b)) => RouteInfo::TenantPair(a, b),
            (Err(e), _) | (_, Err(e)) => e,
        },
        "metrics" | "history" | "trace" => RouteInfo::Broadcast,
        "shutdown" => RouteInfo::Shutdown,
        "hello" => RouteInfo::Local,
        // Replication management addresses one specific engine, not a
        // tenant hash: followers dial their primary directly, and the
        // router issues `promote` itself during failover. A client
        // sending these through the router is confused — refuse.
        "replicate" | "promote" => RouteInfo::Unroutable(format!(
            "op {op:?} is shard-direct: send it to an engine address, not the router"
        )),
        other => RouteInfo::Unroutable(format!("unknown op {other:?}")),
    }
}

fn plan_job(env: &Envelope<'_>) -> Result<Planned, String> {
    let req = env.fields();
    let op = req_str(req, "op")?;
    match op {
        "embed" => {
            let tenant = req_str(req, "tenant")?.to_string();
            // Embed sweeps a full histogram: build it at plan time, so
            // the worker runs only `WM_Generate`.
            let data = match parse_data(env)? {
                JobData::Rows(rows) => JobData::Histogram(rows.to_histogram()),
                data => data,
            };
            let mut params = GenerationParams::default();
            if let Some(b) = req.get("budget").and_then(Value::as_f64) {
                params = params.with_budget(b);
            }
            if let Some(z) = req.get("z").and_then(Value::as_u64) {
                params = params.with_z(z);
            }
            if let Some(x) = req.get("exclude_free_pairs").and_then(Value::as_bool) {
                params = params.with_exclude_free_pairs(x);
            }
            let mut spec = JobSpec::new(JobPayload::Embed {
                tenant,
                data,
                params,
            });
            if let Some(t) = job_timeout(req) {
                spec = spec.with_timeout(t);
            }
            if let Some(t) = job_trace(req) {
                spec = spec.with_trace(t);
            }
            Ok(Planned::Job(spec))
        }
        "detect" => {
            let tenant = req_str(req, "tenant")?.to_string();
            let data = parse_data(env)?;
            let mut params = DetectionParams::default();
            if let Some(t) = req.get("t").and_then(Value::as_u64) {
                params = params.with_t(t);
            }
            if let Some(k) = req.get("k").and_then(Value::as_u64) {
                params = params.with_k(k as usize);
            }
            if let Some(s) = req.get("scale").and_then(Value::as_f64) {
                // Refused here: the worker would assert on it.
                if !(s.is_finite() && s > 0.0) {
                    return Err("scale must be a positive finite number".to_string());
                }
                params = params.with_scale(s);
            }
            let mut spec = JobSpec::new(JobPayload::Detect {
                tenant,
                data,
                params,
            });
            if let Some(t) = job_timeout(req) {
                spec = spec.with_timeout(t);
            }
            if let Some(t) = job_trace(req) {
                spec = spec.with_trace(t);
            }
            Ok(Planned::Job(spec))
        }
        "maintain" => {
            let tenant = req_str(req, "tenant")?.to_string();
            let updates = decode_updates(env.updates.ok_or("missing \"updates\"")?)?;
            let replenish = req
                .get("replenish")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            let mut spec = JobSpec::new(JobPayload::Maintain {
                tenant,
                updates,
                replenish,
            });
            if let Some(t) = job_trace(req) {
                spec = spec.with_trace(t);
            }
            Ok(Planned::Job(spec))
        }
        other => Err(format!("not a job op: {other:?}")),
    }
}

/// Executes a synchronous (non-job) op: `register`, `dispute`,
/// `metrics`.
fn execute_op(engine: &Engine, req: &Value) -> Result<String, String> {
    let op = req_str(req, "op")?;
    match op {
        "register" => {
            let tenant = req_str(req, "tenant")?;
            let secret = if let Some(hex) = req.get("secret").and_then(Value::as_str) {
                Secret::from_hex(hex).ok_or("secret must be 64 hex chars")?
            } else if let Some(label) = req.get("secret_label").and_then(Value::as_str) {
                // Deterministic; for tests and demos only.
                Secret::from_label(label)
            } else {
                Secret::generate(&mut rand::rngs::OsRng)
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
        "dispute" => {
            let a = req_str(req, "a")?;
            let b = req_str(req, "b")?;
            let mut params = DetectionParams::default();
            if let Some(t) = req.get("t").and_then(Value::as_u64) {
                params = params.with_t(t);
            }
            let quorum = req.get("quorum").and_then(Value::as_f64).unwrap_or(0.25);
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
        // Per-tenant budget tier: read or set the sliding-window quota.
        // Carrying any of `embed`/`detect`/`maintain`/`window_ms` makes
        // it a set (write path: primary only, persisted and replicated
        // through the registry log); absent classes mean "unlimited".
        // A bare `{"op":"quota","tenant":…}` is a read and works on
        // followers too. Either way the response reports the effective
        // budgets, current window consumption and admission counters.
        "quota" => {
            let tenant = req_str(req, "tenant")?;
            let class = |key: &str| req.get(key).and_then(Value::as_u64);
            let window_ms = req.get("window_ms").and_then(Value::as_u64);
            let setting = window_ms.is_some()
                || ["embed", "detect", "maintain"]
                    .iter()
                    .any(|k| class(k).is_some());
            if setting {
                let limits = crate::quota::QuotaLimits {
                    embed: class("embed").unwrap_or(crate::quota::UNLIMITED),
                    detect: class("detect").unwrap_or(crate::quota::UNLIMITED),
                    maintain: class("maintain").unwrap_or(crate::quota::UNLIMITED),
                };
                engine
                    .set_quota(tenant, limits, window_ms)
                    .map_err(|e| e.to_string())?;
            }
            let status = engine.quota_status(tenant).map_err(|e| e.to_string())?;
            let budget = |v: u64| {
                if v == crate::quota::UNLIMITED {
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
        "metrics" => Ok(format!(
            "{{\"ok\":true,\"op\":\"metrics\",\"metrics\":{}}}",
            engine.metrics().to_json()
        )),
        // Retained metrics snapshots from the sampler ring, plus a
        // fresh `now` sample and window rates between the oldest
        // retained sample and now. `last` trims to the newest N
        // samples; the window always spans what is returned.
        "history" => {
            let report = engine.history();
            let mut samples: &[(u64, crate::metrics::HistorySample)] = &report.samples;
            if let Some(n) = req.get("last").and_then(Value::as_u64) {
                let n = (n as usize).max(1);
                if samples.len() > n {
                    samples = &samples[samples.len() - n..];
                }
            }
            let oldest = samples.first().unwrap_or(&report.now);
            let rates = crate::metrics::history_rates_json(
                (oldest.0, &oldest.1),
                (report.now.0, &report.now.1),
            );
            let shard = engine
                .shard_label()
                .map(|s| format!("\"shard\":\"{}\",", escape(s)))
                .unwrap_or_default();
            Ok(format!(
                concat!(
                    "{{\"ok\":true,\"op\":\"history\",{}",
                    "\"retain\":{{\"capacity\":{},\"interval_ms\":{}}},",
                    "\"count\":{},\"samples\":[{}],\"now\":{},\"rates\":{}}}"
                ),
                shard,
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
        // Recent stage spans from the engine's ring, filtered by trace
        // id / tenant / op / minimum duration. A filter that matches
        // nothing (e.g. an unknown tenant) is an empty result, not an
        // error — the ring is a window, not an index.
        "trace" => {
            let mut filter = TraceFilter::default();
            if let Some(t) = req.get("trace").and_then(Value::as_str) {
                filter.trace = Some(t.to_string());
            }
            if let Some(t) = req.get("tenant").and_then(Value::as_str) {
                filter.tenant = Some(t.to_string());
            }
            if let Some(o) = req.get("for_op").and_then(Value::as_str) {
                filter.op = Some(OpKind::from_op(o));
            }
            if let Some(us) = req.get("min_us").and_then(Value::as_u64) {
                filter.min_dur_us = us;
            }
            if let Some(ms) = req.get("min_ms").and_then(Value::as_f64) {
                filter.min_dur_us = (ms * 1e3) as u64;
            }
            if let Some(n) = req.get("limit").and_then(Value::as_u64) {
                filter.limit = (n as usize).max(1);
            }
            let spans = engine.trace_query(&filter);
            let shard = engine
                .shard_label()
                .map(|s| format!("\"shard\":\"{}\",", escape(s)))
                .unwrap_or_default();
            Ok(format!(
                "{{\"ok\":true,\"op\":\"trace\",{}\"count\":{},\"spans\":[{}]}}",
                shard,
                spans.len(),
                spans.iter().map(span_json).collect::<Vec<_>>().join(","),
            ))
        }
        // Replication stream (see `crate::replica`): sealed log events
        // from `from_seq` as hex strings, or a full snapshot when the
        // primary compacted past that point. Followers answer too, so
        // either side of a pair can be audited or chained from.
        "replicate" => {
            let from_seq = req.get("from_seq").and_then(Value::as_u64).unwrap_or(0);
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
        // Failover: flip a follower into a full primary after its
        // replicated chain re-proves itself. Idempotent — promoting a
        // primary reports its current head (`was_follower: false`).
        "promote" => {
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
        // Connection handshake / liveness probe. With an auth token
        // configured the Session consumes `hello` itself (it carries
        // the token); an open session answers here so clients can probe
        // either way — and learn which shard they reached.
        "hello" => {
            let shard = engine
                .shard_label()
                .map(|s| format!(",\"shard\":\"{}\"", escape(s)))
                .unwrap_or_default();
            Ok(format!("{{\"ok\":true,\"op\":\"hello\"{shard}}}"))
        }
        other => Err(format!("not a synchronous op: {other:?}")),
    }
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
pub fn run_op(engine: &Engine, req: &Value, id: Option<&Value>) -> String {
    match execute_op(engine, req) {
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
        Ok(Planned::Op(req)) => (run_op(engine, &req, id), false),
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

fn job_op_kind(kind: JobKind) -> OpKind {
    match kind {
        JobKind::Embed => OpKind::Embed,
        JobKind::Detect => OpKind::Detect,
        JobKind::Maintain => OpKind::Maintain,
    }
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
            job_op_kind(spec.payload.kind()),
        ),
        Ok(Planned::Op(req)) => {
            let op_name = req.get("op").and_then(Value::as_str).unwrap_or("");
            let op = OpKind::from_op(op_name);
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
        Ok(Planned::Shutdown) | Err(_) => {
            (freqywm_obs::next_trace_id(), String::new(), OpKind::Other)
        }
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
/// Both front-ends — the stdin/stdout pipe of `freqywm serve` and each
/// TCP connection of the `freqywm-net` reactor — feed request lines in
/// and take response lines out, while jobs run on the engine's worker
/// pool without the transport ever blocking on them. The session
/// guarantees:
///
/// * **responses come back in request order**, whatever order jobs
///   complete in;
/// * **detect requests pipeline**: consecutive detects run concurrently
///   on the pool;
/// * **mutating requests are barriers**: an embed/maintain launches
///   only once every earlier job finished, and register / dispute /
///   metrics / shutdown ops execute only with no job in flight — so a
///   pipelined `embed` → `detect` always detects against the new
///   watermark, exactly like `freqywm batch`.
///
/// The driving transport must deliver [`Session::on_job_done`] for
/// every id surfaced by [`Session::take_new_jobs`] (wired to
/// [`Engine::set_completion_hook`]), and may call
/// [`Session::drain_blocking`] to settle everything synchronously (EOF
/// on a pipe, forced server drain).
#[derive(Default)]
pub struct Session {
    /// Responses not yet taken, in request order; absolute sequence of
    /// `slots[0]` is `base`.
    slots: VecDeque<Slot>,
    base: usize,
    /// Requests planned but not yet launched, each pointing at its
    /// reserved slot.
    deferred: VecDeque<(usize, Option<Value>, Planned)>,
    /// In-flight jobs: id → (slot seq, is-mutating).
    pending: HashMap<JobId, (usize, bool)>,
    pending_mutations: usize,
    new_jobs: Vec<JobId>,
    shutdown: bool,
    /// Shared-secret gate: until a `hello` op (or a per-request `auth`
    /// field) presents this token, every request is refused.
    auth_token: Option<String>,
    authed: bool,
}

/// Constant-time auth-token comparison (leaks length only). Public so
/// every front-end tier (the engine serve, the shard router) gates on
/// the same implementation.
pub fn token_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    a.len() == b.len() && a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

impl Session {
    pub fn new() -> Self {
        Session::default()
    }

    /// A session gated on a shared secret: requests are refused until
    /// the client authenticates with `{"op":"hello","token":"…"}` (the
    /// connection stays unlocked afterwards) or carries a matching
    /// per-request `"auth"` field. `None` behaves like [`Session::new`].
    pub fn with_auth(auth_token: Option<String>) -> Self {
        Session {
            auth_token,
            ..Session::default()
        }
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
        if let Some(token) = self.auth_token.clone() {
            if !self.authed {
                match Envelope::parse(line) {
                    Err(e) => {
                        self.slots
                            .push_back(Slot::Ready(err_response(None, &format!("bad json: {e}"))));
                    }
                    Ok(req) => self.push_locked(engine, req, &token, started),
                }
                return;
            }
        }
        let (id, planned) = plan(line);
        self.push_planned(engine, id, planned, started);
    }

    /// One request on a locked session: a `hello` op with the right
    /// token unlocks it, a matching per-request `auth` field admits
    /// just this request, anything else is refused.
    fn push_locked(&mut self, engine: &Engine, req: Envelope<'_>, token: &str, started: Instant) {
        // Every request handled on a locked session pays an auth check;
        // record it as its own span so auth overhead is visible in
        // traces separately from parse/run time.
        engine.obs().record(&Span::ending_now(
            req.get("trace").and_then(Value::as_str).unwrap_or(""),
            req.get("tenant").and_then(Value::as_str).unwrap_or(""),
            OpKind::from_op(req.get("op").and_then(Value::as_str).unwrap_or("")),
            Stage::Auth,
            started.elapsed().as_micros() as u64,
        ));
        let id = req.get("id").cloned();
        let is_hello = req.get("op").and_then(Value::as_str) == Some("hello");
        if is_hello {
            let presented = req.get("token").and_then(Value::as_str).unwrap_or("");
            let resp = if token_eq(presented, token) {
                self.authed = true;
                inject_id(
                    "{\"ok\":true,\"op\":\"hello\",\"authenticated\":true}".to_string(),
                    id.as_ref(),
                )
            } else {
                err_response(id.as_ref(), "hello: bad auth token")
            };
            self.slots.push_back(Slot::Ready(resp));
            return;
        }
        let presented = req.get("auth").and_then(Value::as_str);
        if presented.is_some_and(|p| token_eq(p, token)) {
            // Stateless per-request auth: this request runs, the
            // session stays locked.
            let (id, planned) = plan_envelope(req);
            self.push_planned(engine, id, planned, started);
            return;
        }
        self.slots.push_back(Slot::Ready(err_response(
            id.as_ref(),
            "authentication required: send {\"op\":\"hello\",\"token\":…} first",
        )));
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

    /// Notifies the session that a job completed. Returns `false` when
    /// the id is not one of this session's in-flight jobs.
    pub fn on_job_done(&mut self, engine: &Engine, id: JobId) -> bool {
        let Some((seq, mutating)) = self.pending.remove(&id) else {
            return false;
        };
        if mutating {
            self.pending_mutations -= 1;
        }
        let state = engine.try_take(id).unwrap_or_else(|| {
            JobState::Failed(ServiceError::Internal(format!(
                "job {id} signalled completion but its result is gone"
            )))
        });
        self.resolve(engine, seq, state);
        self.launch(engine);
        true
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

    /// Job ids submitted since the last call — the transport maps these
    /// back to this session for completion routing.
    pub fn take_new_jobs(&mut self) -> Vec<JobId> {
        std::mem::take(&mut self.new_jobs)
    }

    /// Ids of this session's in-flight jobs (for cleanup when a
    /// connection dies with work outstanding).
    pub fn pending_job_ids(&self) -> Vec<JobId> {
        self.pending.keys().copied().collect()
    }

    /// True once a `shutdown` op has been answered.
    pub fn wants_shutdown(&self) -> bool {
        self.shutdown
    }

    /// No jobs in flight and no deferred requests.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.deferred.is_empty()
    }

    /// Idle *and* every response has been taken — nothing left to do.
    pub fn is_settled(&self) -> bool {
        self.is_idle() && self.slots.is_empty()
    }

    /// Synchronously settles the session: waits for every in-flight
    /// job, launching deferred requests as their barriers clear, until
    /// nothing is pending. This is the graceful-drain path for pipe EOF
    /// and forced server shutdown — no in-flight response is dropped.
    pub fn drain_blocking(&mut self, engine: &Engine) {
        loop {
            self.launch(engine);
            let Some(&id) = self.pending.keys().next() else {
                if self.deferred.is_empty() || self.shutdown {
                    return;
                }
                continue;
            };
            let (seq, mutating) = self.pending.remove(&id).expect("key taken from map");
            if mutating {
                self.pending_mutations -= 1;
            }
            let state = engine.wait(id);
            self.resolve(engine, seq, state);
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
                Some((_, _, Planned::Job(spec))) => match spec.payload.kind() {
                    JobKind::Detect => self.pending_mutations == 0,
                    JobKind::Embed | JobKind::Maintain => self.pending.is_empty(),
                },
                Some((_, _, Planned::Op(_) | Planned::Shutdown)) => self.pending.is_empty(),
            };
            if !launchable {
                break;
            }
            let (seq, id, planned) = self.deferred.pop_front().expect("front checked above");
            match planned {
                Planned::Job(spec) => {
                    let mutating = !matches!(spec.payload.kind(), JobKind::Detect);
                    match engine.submit(spec) {
                        Ok(job_id) => {
                            self.pending.insert(job_id, (seq, mutating));
                            if mutating {
                                self.pending_mutations += 1;
                            }
                            self.new_jobs.push(job_id);
                        }
                        Err(e) => self.resolve(engine, seq, JobState::Failed(e)),
                    }
                }
                Planned::Op(req) => {
                    let resp = run_op(engine, &req, id.as_ref());
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

/// One framing unit read from a byte stream.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (without the trailing newline).
    Line(String),
    /// A line longer than the cap; its bytes were discarded through the
    /// terminating newline (or EOF).
    Oversized,
    /// End of stream.
    Eof,
}

/// Newline-delimited framing with a size cap, for blocking readers (the
/// pipe transport; the reactor does its own non-blocking equivalent).
/// An oversized line is consumed and reported as [`Frame::Oversized`]
/// instead of aborting the stream, so one bad frame costs one error
/// response, not the connection.
pub struct FrameReader<R: BufRead> {
    inner: R,
    max_frame: usize,
}

impl<R: BufRead> FrameReader<R> {
    pub fn new(inner: R, max_frame: usize) -> Self {
        FrameReader { inner, max_frame }
    }

    pub fn next_frame(&mut self) -> std::io::Result<Frame> {
        let mut buf: Vec<u8> = Vec::new();
        let mut skipping = false;
        loop {
            let chunk = self.inner.fill_buf()?;
            if chunk.is_empty() {
                return Ok(if skipping {
                    Frame::Oversized
                } else if buf.is_empty() {
                    Frame::Eof
                } else {
                    // Final line without a trailing newline.
                    Frame::Line(String::from_utf8_lossy(&buf).into_owned())
                });
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if skipping {
                        self.inner.consume(pos + 1);
                        return Ok(Frame::Oversized);
                    }
                    buf.extend_from_slice(&chunk[..pos]);
                    self.inner.consume(pos + 1);
                    if buf.len() > self.max_frame {
                        return Ok(Frame::Oversized);
                    }
                    return Ok(Frame::Line(String::from_utf8_lossy(&buf).into_owned()));
                }
                None => {
                    let len = chunk.len();
                    if !skipping {
                        buf.extend_from_slice(chunk);
                        if buf.len() > self.max_frame {
                            skipping = true;
                            buf.clear();
                        }
                    }
                    self.inner.consume(len);
                }
            }
        }
    }
}

enum ServeEvent {
    Frame(Frame),
    JobDone(JobId),
}

/// Serves JSON-lines over arbitrary reader/writer until EOF or a
/// `shutdown` op, with [`DEFAULT_MAX_FRAME`] as the input frame cap.
/// Blank lines and `#` comments are skipped.
pub fn serve<R, W>(engine: &Engine, reader: R, writer: W) -> std::io::Result<()>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    serve_with(engine, reader, writer, DEFAULT_MAX_FRAME)
}

/// [`serve`] with an explicit input frame-size cap.
///
/// Requests are pipelined through a [`Session`]: jobs run on the worker
/// pool while the reader keeps feeding, responses stream back in
/// request order as they complete (not once per input line), and EOF
/// takes the graceful-drain path — every in-flight and deferred request
/// still produces its response before `serve` returns. The reader runs
/// on a helper thread so completions can be written while the transport
/// is idle; the engine's completion hook is used for wakeups and is
/// released on return.
pub fn serve_with<R, W>(
    engine: &Engine,
    reader: R,
    writer: W,
    max_frame: usize,
) -> std::io::Result<()>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    serve_with_auth(engine, reader, writer, max_frame, None)
}

/// [`serve_with`] behind the shared-secret auth gate (see
/// [`Session::with_auth`]).
pub fn serve_with_auth<R, W>(
    engine: &Engine,
    reader: R,
    mut writer: W,
    max_frame: usize,
    auth_token: Option<String>,
) -> std::io::Result<()>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    let (tx, rx) = std::sync::mpsc::channel::<ServeEvent>();
    let hook_tx = tx.clone();
    engine.set_completion_hook(move |id| {
        let _ = hook_tx.send(ServeEvent::JobDone(id));
    });
    std::thread::spawn(move || {
        let mut frames = FrameReader::new(reader, max_frame);
        loop {
            match frames.next_frame() {
                Ok(Frame::Eof) | Err(_) => {
                    let _ = tx.send(ServeEvent::Frame(Frame::Eof));
                    break;
                }
                Ok(frame) => {
                    if tx.send(ServeEvent::Frame(frame)).is_err() {
                        break;
                    }
                }
            }
        }
    });

    let mut session = Session::with_auth(auth_token);
    let mut eof = false;
    let result = (|| -> std::io::Result<()> {
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
            // Job ids need no routing map here: one session owns them all.
            session.take_new_jobs();
            match rx.recv() {
                Err(_) => return Ok(()),
                Ok(ServeEvent::Frame(Frame::Line(line))) => session.push_line(engine, &line),
                Ok(ServeEvent::Frame(Frame::Oversized)) => {
                    session.push_transport_error(frame_too_large_response(max_frame))
                }
                Ok(ServeEvent::Frame(Frame::Eof)) => eof = true,
                Ok(ServeEvent::JobDone(id)) => {
                    session.on_job_done(engine, id);
                }
            }
        }
    })();
    engine.clear_completion_hook();
    result
}

/// Batch execution with pipelined reads: consecutive `detect` requests
/// are submitted together and awaited in order, so a file of N detect
/// requests saturates the worker pool instead of running serially.
/// State-changing requests (`register`, `embed`, `maintain`,
/// `dispute`, `metrics`) are barriers — every in-flight job completes
/// before they run, so a detect after an embed always sees the new
/// watermark. Responses come back in request order.
pub fn run_batch(engine: &Engine, lines: &[String]) -> Vec<String> {
    enum Slot {
        Ready(String),
        Pending { id: Option<Value> },
    }
    let mut slots: Vec<Slot> = Vec::with_capacity(lines.len());
    let mut pending: Vec<(usize, Result<crate::job::JobId, ServiceError>)> = Vec::new();

    let flush = |pending: &mut Vec<(usize, Result<crate::job::JobId, ServiceError>)>,
                 slots: &mut Vec<Slot>| {
        for (slot_idx, submitted) in pending.drain(..) {
            let Slot::Pending { id } = &slots[slot_idx] else {
                continue;
            };
            let id = id.clone();
            let resp = match submitted {
                Ok(job_id) => render_job_state(engine.wait(job_id), id.as_ref()),
                Err(e) => err_response(id.as_ref(), &e.to_string()),
            };
            slots[slot_idx] = Slot::Ready(resp);
        }
    };

    for (lineno, line) in lines.iter().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (id, planned) = plan(line);
        // Batch inputs are files: name the offending 1-based line so a
        // malformed request is findable (and the run exits nonzero).
        let planned = planned.map_err(|e| format!("line {}: {e}", lineno + 1));
        match planned {
            Ok(Planned::Job(spec)) if matches!(spec.payload, JobPayload::Detect { .. }) => {
                let idx = slots.len();
                slots.push(Slot::Pending { id });
                let submitted = engine.submit(spec);
                pending.push((idx, submitted));
            }
            Ok(Planned::Job(spec)) => {
                // Embed/maintain mutate the tenant's registry state that
                // later jobs read; run them as barriers.
                flush(&mut pending, &mut slots);
                slots.push(Slot::Ready(render_job_state(engine.run(spec), id.as_ref())));
            }
            other => {
                // Ordered ops (register/dispute/metrics) act as
                // barriers: all in-flight jobs complete first.
                flush(&mut pending, &mut slots);
                let resp = match other {
                    Err(e) => err_response(id.as_ref(), &e),
                    Ok(Planned::Op(req)) => run_op(engine, &req, id.as_ref()),
                    Ok(Planned::Shutdown) => {
                        inject_id("{\"ok\":true,\"op\":\"shutdown\"}".to_string(), id.as_ref())
                    }
                    Ok(Planned::Job(_)) => unreachable!(),
                };
                slots.push(Slot::Ready(resp));
            }
        }
    }
    flush(&mut pending, &mut slots);
    slots
        .into_iter()
        .map(|s| match s {
            Slot::Ready(r) => r,
            Slot::Pending { id } => err_response(id.as_ref(), "internal: unflushed job"),
        })
        .collect()
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
        serve(&engine, input.as_bytes(), &mut out).unwrap();
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
        serve(&engine, std::io::Cursor::new(input), &mut out).unwrap();
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
        serve_with(&engine, std::io::Cursor::new(input), &mut out, 256).unwrap();
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
        let mut frames = FrameReader::new(std::io::Cursor::new(input), 16);
        assert_eq!(frames.next_frame().unwrap(), Frame::Line("short".into()));
        assert_eq!(frames.next_frame().unwrap(), Frame::Oversized);
        assert_eq!(frames.next_frame().unwrap(), Frame::Line("after".into()));
        assert_eq!(frames.next_frame().unwrap(), Frame::Line("last".into()));
        assert_eq!(frames.next_frame().unwrap(), Frame::Eof);
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
        assert_eq!(session.take_new_jobs().len(), 1, "only the embed launched");
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
        assert_eq!(route(r#"{"op":"metrics"}"#), RouteInfo::Broadcast);
        assert_eq!(route(r#"{"op":"history"}"#), RouteInfo::Broadcast);
        assert_eq!(route(r#"{"op":"shutdown"}"#), RouteInfo::Shutdown);
        assert_eq!(route(r#"{"op":"hello"}"#), RouteInfo::Local);
        assert!(matches!(
            route(r#"{"op":"detect"}"#),
            RouteInfo::Unroutable(_)
        ));
        assert!(matches!(route(r#"{"op":"fly"}"#), RouteInfo::Unroutable(_)));
        assert!(matches!(route(r#"{"x":1}"#), RouteInfo::Unroutable(_)));
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
    fn serve_with_auth_gates_the_pipe_transport() {
        let engine = test_engine();
        let input = concat!(
            "{\"op\":\"metrics\",\"id\":0}\n",
            "{\"op\":\"hello\",\"token\":\"k\",\"id\":1}\n",
            "{\"op\":\"metrics\",\"id\":2}\n",
        );
        let mut out = Vec::new();
        serve_with_auth(
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
        serve(&engine, std::io::Cursor::new(input), &mut out).unwrap();
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
