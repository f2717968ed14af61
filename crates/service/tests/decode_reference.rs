//! The request decoder against an independent copy of itself.
//!
//! `decode.rs` checks [`proto::plan`] and [`Envelope::parse`] against
//! [`json::parse`], which shares their scanner: a fault in that scanner
//! would pass it on both sides. The [`reference`] module here is a
//! frozen copy of the scanner and row decoders as they stood before the
//! fixed-shape row fast path and the word-at-a-time quote finder, with
//! nothing shared with the crate but the [`Value`] type. Every line
//! below must give, on both sides, the same echoed id and the same
//! decoded rows and parameters, or the same error text byte for byte;
//! and the router's envelope must hold the same fields or refuse with
//! the same error.
//!
//! Cases come from fixed seeds, so every run replays the same lines.

use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_data::histogram::Histogram;
use freqywm_data::token::Token;
use freqywm_obs::OpKind;
use freqywm_service::job::{JobData, JobPayload};
use freqywm_service::proto::json::{self, Value};
use freqywm_service::proto::{self, Envelope, Planned};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Duration;

mod reference {
    //! The scanner, bulk-row decoders and envelope as they were before
    //! the row fast path: a byte-at-a-time scan, kept here unchanged as
    //! the oracle.

    use freqywm_service::proto::json::{Value, MAX_DEPTH};
    use std::borrow::Cow;
    use std::collections::HashSet;

    pub struct Parser<'a> {
        input: &'a str,
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
    }

    impl<'a> Parser<'a> {
        pub fn new(input: &'a str) -> Self {
            Parser {
                input,
                bytes: input.as_bytes(),
                pos: 0,
                depth: 0,
            }
        }

        pub fn finish(&mut self) -> Result<(), String> {
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

        pub fn peek(&mut self) -> Result<u8, String> {
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

        pub fn value(&mut self) -> Result<Value, String> {
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

        pub fn skip_value(&mut self) -> Result<&'a str, String> {
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
                    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
                        text.parse::<f64>().map_err(|_| bad_number(text, at))?;
                    }
                }
            }
            Ok(&self.input[start..self.pos])
        }

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

        pub fn object(
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

        pub fn array(
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

        pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
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

        fn scan_string(&mut self, mut out: Option<&mut String>) -> Result<(&'a str, bool), String> {
            self.expect(b'"')?;
            let start = self.pos;
            let mut run = start;
            let mut escaped = false;
            loop {
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

        pub fn decode_value<T>(
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

        pub fn number_text(&mut self) -> (usize, &'a str) {
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

    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser::new(input);
        let v = p.value()?;
        p.finish()?;
        Ok(v)
    }

    fn token_row<'a>(
        p: &mut Parser<'a>,
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

    fn count_of(text: &str) -> Option<u64> {
        match small_int(text) {
            Some(n) => u64::try_from(n).ok(),
            None => Value::Num(text.parse().ok()?).as_u64(),
        }
    }

    fn delta_of(text: &str) -> Option<i64> {
        small_int(text).or_else(|| Value::Num(text.parse().ok()?).as_i64())
    }

    fn bulk_rows<'a>(
        p: &mut Parser<'a>,
        field: &str,
        mut row: impl FnMut(&mut Parser<'a>) -> Result<(), String>,
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

    pub type Counts = Vec<(String, u64)>;
    pub type Updates = Vec<(String, i64)>;

    fn decode_counts(p: &mut Parser<'_>) -> Result<Result<Counts, String>, String> {
        let mut rows = Vec::new();
        let mut seen = HashSet::new();
        let decoded = bulk_rows(p, "counts", |p| {
            let (token, count) = token_row(p, "counts entries must be [token, count]")?;
            let c = count
                .and_then(count_of)
                .ok_or("count must be a non-negative integer")?;
            if !seen.insert(token.to_string()) {
                return Err(format!("duplicate token {token:?} in counts"));
            }
            rows.push((token.into_owned(), c));
            Ok(())
        })?;
        Ok(decoded.map(|()| rows))
    }

    fn decode_updates(p: &mut Parser<'_>) -> Result<Result<Updates, String>, String> {
        let mut rows = Vec::new();
        let decoded = bulk_rows(p, "updates", |p| {
            let (token, n) = token_row(p, "updates entries must be [token, delta]")?;
            let d = n.and_then(delta_of).ok_or("delta must be an integer")?;
            rows.push((token.into_owned(), d));
            Ok(())
        })?;
        Ok(decoded.map(|()| rows))
    }

    fn decode_tokens(p: &mut Parser<'_>) -> Result<Result<Vec<String>, String>, String> {
        let mut tokens = Vec::new();
        let decoded = bulk_rows(p, "tokens", |p| {
            if p.peek()? != b'"' {
                return Err("tokens entries must be strings".to_string());
            }
            tokens.push(p.string()?.into_owned());
            Ok(())
        })?;
        Ok(decoded.map(|()| tokens))
    }

    /// A request line's top-level fields, with the bulk arrays decoded
    /// (`decode`) or only checked.
    pub struct Envelope {
        pub fields: Value,
        pub counts: Option<Result<Counts, String>>,
        pub tokens: Option<Result<Vec<String>, String>>,
        pub updates: Option<Result<Updates, String>>,
    }

    pub fn scan(line: &str, decode: bool) -> Result<Envelope, String> {
        let mut p = Parser::new(line);
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
        Ok(Envelope {
            fields: Value::Obj(fields),
            counts,
            tokens,
            updates,
        })
    }
}

// ---- both sides in one shape ------------------------------------------

/// What a line plans to: a job's data and parameters, or a non-job op.
#[derive(Debug, PartialEq)]
enum Decoded {
    /// An embed's histogram, as its entries.
    Embed(Vec<(String, u64)>, GenerationParams),
    /// A detect's rows, in request order.
    DetectRows(Vec<(String, u64)>, DetectionParams),
    DetectTokens(Vec<String>, DetectionParams),
    EmbedTokens(Vec<String>, GenerationParams),
    Maintain(Vec<(String, i64)>, bool),
    NotAJob,
}

type Outcome = (Option<Value>, Result<(Decoded, Option<Duration>), String>);

fn rows_of(h: &Histogram) -> Vec<(String, u64)> {
    h.entries()
        .iter()
        .map(|(t, c)| (t.as_str().to_string(), *c))
        .collect()
}

fn strings(tokens: &[Token]) -> Vec<String> {
    tokens.iter().map(|t| t.as_str().to_string()).collect()
}

fn crate_path(line: &str) -> Outcome {
    let (id, planned) = proto::plan(line);
    let decoded = planned.map(|p| match p {
        Planned::Job(spec) => {
            let timeout = spec.timeout;
            let decoded = match spec.payload {
                JobPayload::Embed { data, params, .. } => match data {
                    JobData::Histogram(h) => Decoded::Embed(rows_of(&h), params),
                    JobData::Rows(rows) => Decoded::Embed(rows_of(&rows.to_histogram()), params),
                    JobData::Tokens(t) => Decoded::EmbedTokens(strings(&t), params),
                },
                JobPayload::Detect { data, params, .. } => match data {
                    JobData::Rows(rows) => Decoded::DetectRows(
                        rows.iter().map(|(t, c)| (t.to_string(), c)).collect(),
                        params,
                    ),
                    JobData::Histogram(h) => Decoded::DetectRows(rows_of(&h), params),
                    JobData::Tokens(t) => Decoded::DetectTokens(strings(&t), params),
                },
                JobPayload::Maintain {
                    updates, replenish, ..
                } => Decoded::Maintain(
                    updates
                        .into_iter()
                        .map(|(t, d)| (t.as_str().to_string(), d))
                        .collect(),
                    replenish,
                ),
            };
            (decoded, timeout)
        }
        Planned::Op(_) | Planned::Shutdown => (Decoded::NotAJob, None),
    });
    (id, decoded)
}

fn opt<'a, T>(
    req: &'a Value,
    key: &str,
    read: impl FnOnce(&'a Value) -> Option<T>,
    must_be: &str,
) -> Result<Option<T>, String> {
    req.get(key)
        .map(|v| read(v).ok_or_else(|| format!("{key} must be {must_be}")))
        .transpose()
}

/// The plan the reference envelope leads to, refusal for refusal in the
/// order the planner checks fields.
fn reference_path(line: &str) -> Outcome {
    let env = match reference::scan(line, true) {
        Ok(env) => env,
        Err(e) => return (None, Err(format!("bad json: {e}"))),
    };
    let id = env.fields.get("id").cloned();
    (id, reference_plan(env))
}

fn reference_plan(env: reference::Envelope) -> Result<(Decoded, Option<Duration>), String> {
    let req = &env.fields;
    let op = match req.get("op").and_then(Value::as_str) {
        Some(op) => OpKind::from_wire(op),
        None => return Err("missing string field \"op\"".to_string()),
    };
    let (embed, detect) = match op {
        OpKind::Embed => (true, false),
        OpKind::Detect => (false, true),
        OpKind::Maintain => (false, false),
        OpKind::Other => {
            let name = req.get("op").and_then(Value::as_str).unwrap_or_default();
            return Err(format!("unknown op {name:?}"));
        }
        _ => return Ok((Decoded::NotAJob, None)),
    };
    req.get("tenant")
        .and_then(Value::as_str)
        .ok_or("missing string field \"tenant\"")?;
    let u64_field = |key: &str| opt(req, key, Value::as_u64, "a non-negative integer");
    let bool_field = |key: &str| opt(req, key, Value::as_bool, "true or false");
    let data = || match (env.counts.clone(), env.tokens.clone()) {
        (Some(rows), _) => rows.map(Ok),
        (None, Some(tokens)) => tokens.map(Err),
        (None, None) => Err("request needs \"counts\" or \"tokens\"".to_string()),
    };
    let decoded = if embed {
        let data = data()?;
        let mut params = GenerationParams::default();
        if let Some(b) = opt(req, "budget", Value::as_f64, "a number")? {
            params = params.with_budget(b);
        }
        if let Some(z) = u64_field("z")? {
            params = params.with_z(z);
        }
        if let Some(x) = bool_field("exclude_free_pairs")? {
            params = params.with_exclude_free_pairs(x);
        }
        match data {
            Ok(rows) => {
                let h = Histogram::from_counts(rows.into_iter().map(|(t, c)| (Token::new(t), c)));
                Decoded::Embed(rows_of(&h), params)
            }
            Err(tokens) => Decoded::EmbedTokens(tokens, params),
        }
    } else if detect {
        let data = data()?;
        let mut params = DetectionParams::default();
        if let Some(t) = u64_field("t")? {
            params = params.with_t(t);
        }
        if let Some(k) = u64_field("k")? {
            params = params.with_k(k as usize);
        }
        let scale = |v: &Value| v.as_f64().filter(|s| s.is_finite() && *s > 0.0);
        if let Some(s) = opt(req, "scale", scale, "a positive finite number")? {
            params = params.with_scale(s);
        }
        match data {
            Ok(rows) => Decoded::DetectRows(rows, params),
            Err(tokens) => Decoded::DetectTokens(tokens, params),
        }
    } else {
        let updates = env.updates.clone().ok_or("missing \"updates\"")??;
        Decoded::Maintain(updates, bool_field("replenish")?.unwrap_or(false))
    };
    let mut timeout = None;
    if embed || detect {
        if let Some(ms) = u64_field("timeout_ms")? {
            timeout = Some(Duration::from_millis(ms));
        }
    }
    opt(req, "trace", Value::as_str, "a string")?;
    Ok((decoded, timeout))
}

/// Runs one line through the crate and the reference: the shard's plan,
/// the router's envelope and the tree parse.
fn check_line(line: &str) {
    assert_eq!(crate_path(line), reference_path(line), "plan of: {line}");
    match (Envelope::parse(line), reference::scan(line, false)) {
        (Ok(env), Ok(reference)) => {
            assert_eq!(env.fields(), &reference.fields, "envelope of: {line}")
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "envelope of: {line}"),
        (a, b) => panic!(
            "envelope {:?} but reference {:?} for {line}",
            a.err(),
            b.err()
        ),
    }
    assert_eq!(json::parse(line), reference::parse(line), "tree of: {line}");
}

// ---- generators (as in decode.rs) ---------------------------------------

const TOKENS: &[&str] = &[
    "a",
    "b",
    "A",
    "\\u0041",
    "\\u00e9",
    "é",
    "中文",
    "q\\\"t",
    "back\\\\slash",
    "s\\/l",
    "tab\\t",
    "nl\\n",
    "\\b\\f\\r",
    "",
    " ",
    "\\u+041",
];

const BAD_TOKENS: &[&str] = &["\\ud800", "\\x", "\\u12", "\\u00zz"];

const NUMBERS: &[&str] = &[
    "0",
    "1",
    "7",
    "42",
    "1000",
    "123456789012345",
    "1234567890123456",
    "12345678901234567890",
    "-0",
    "-1",
    "-42",
    "5.0",
    "12.0",
    "1e3",
    "1E2",
    "2.5",
    "0.0",
    "007",
    "+1",
    "1.",
    ".5",
    "1e400",
    "-1e400",
    "9007199254740993",
    "18446744073709551616",
    "-9223372036854775809",
    "1.5e1",
];

const BAD_NUMBERS: &[&str] = &["1e", "--1", "-", "e5"];

const OTHERS: &[&str] = &["\"5\"", "null", "true", "false", "[1]", "{}", "{\"a\":1}"];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from.choose(rng).expect("non-empty table")
}

fn ws(rng: &mut StdRng) -> &'static str {
    pick(rng, &[" ", "", "", "", "\n", "\t ", "\r\n"])
}

fn token(rng: &mut StdRng) -> String {
    let text = match rng.gen_range(0..100) {
        0 => pick(rng, BAD_TOKENS).to_string(),
        1..=15 => pick(rng, TOKENS).to_string(),
        // Plain tokens of every length around the 8-byte word edges.
        16..=40 => "x".repeat(rng.gen_range(0..=40)),
        _ => format!("tk{}", rng.gen_range(0..400)),
    };
    format!("\"{text}\"")
}

fn number(rng: &mut StdRng) -> String {
    match rng.gen_range(0..100) {
        0 => pick(rng, BAD_NUMBERS).to_string(),
        1 => pick(rng, OTHERS).to_string(),
        2..=6 => pick(rng, NUMBERS).to_string(),
        _ => rng.gen_range(0..100_000u64).to_string(),
    }
}

fn entry(rng: &mut StdRng) -> String {
    let (tok, num) = (token(rng), number(rng));
    match rng.gen_range(0..100) {
        0 => format!("[{tok}]"),
        1 => format!("[{num},{tok}]"),
        2 => format!("[{tok},{num},{num}]"),
        3 => "[]".to_string(),
        4 => tok,
        5 => num,
        // Most rows in the fixed shape, some with whitespace inside.
        6..=40 => format!("[{}{tok}{},{}{num}{}]", ws(rng), ws(rng), ws(rng), ws(rng)),
        _ => format!("[{tok},{num}]"),
    }
}

fn bulk(rng: &mut StdRng, strings: bool) -> String {
    if rng.gen_bool(0.02) {
        return pick(rng, OTHERS).to_string();
    }
    let n = rng.gen_range(0..16);
    let items: Vec<String> = (0..n)
        .map(|_| {
            if strings && rng.gen_bool(0.98) {
                token(rng)
            } else {
                entry(rng)
            }
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn request(rng: &mut StdRng) -> String {
    let op = pick(
        rng,
        &["detect", "detect", "embed", "maintain", "metrics", "fly"],
    );
    let mut fields = vec![format!("\"op\":\"{op}\"")];
    if rng.gen_bool(0.97) {
        fields.push("\"tenant\":\"t\"".to_string());
    }
    if rng.gen_bool(0.5) {
        fields.push(format!("\"id\":{}", rng.gen_range(0..1000)));
    }
    if rng.gen_bool(0.2) {
        fields.push("\"k\":2,\"t\":1,\"z\":131".to_string());
    }
    for _ in 0..rng.gen_range(1..=2) {
        let kind = match (op, rng.gen_range(0..10)) {
            (_, 0) => pick(rng, &["counts", "tokens", "updates"]),
            ("maintain", _) => "updates",
            (_, 1..=3) => "tokens",
            _ => "counts",
        };
        fields.push(format!("\"{kind}\":{}", bulk(rng, kind == "tokens")));
    }
    fields.shuffle(rng);
    let sep = format!("{},{}", ws(rng), ws(rng));
    format!("{}{{{}}}{}", ws(rng), fields.join(&sep), ws(rng))
}

const NOISE: &[char] = &[
    '[', ']', '{', '}', '"', ',', ':', '\\', 'u', '0', '9', 'e', '.', '-', '+', ' ', 'a', 'n', 't',
    'é', '中',
];

fn mutate(rng: &mut StdRng, line: &str) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for _ in 0..rng.gen_range(1..=3) {
        let at = rng.gen_range(0..=chars.len());
        let noise = *NOISE.choose(rng).expect("non-empty table");
        match rng.gen_range(0..4) {
            0 => chars.truncate(at),
            1 if at < chars.len() => {
                chars.remove(at);
            }
            2 => chars.insert(at, noise),
            _ if at < chars.len() => chars[at] = noise,
            _ => chars.push(noise),
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Generated lines and their mutations plan alike on both sides.
    #[test]
    fn generated_and_mutated_lines_match_the_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = request(&mut rng);
        check_line(&line);
        for _ in 0..3 {
            check_line(&mutate(&mut rng, &line));
        }
    }

    /// Lines of scanner-significant noise, bare and as a `counts` value.
    #[test]
    fn noise_lines_match_the_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let body: String = (0..rng.gen_range(0..40))
            .map(|_| *NOISE.choose(&mut rng).expect("non-empty table"))
            .collect();
        check_line(&body);
        check_line(&format!("{{\"op\":\"detect\",\"tenant\":\"t\",\"counts\":{body}}}"));
        check_line(&format!("{{\"op\":\"maintain\",\"tenant\":\"t\",\"updates\":[{body}]}}"));
    }
}

// ---- pinned cases -------------------------------------------------------

fn with_rows(op: &str, field: &str, rows: &str) -> String {
    format!(r#"{{"op":"{op}","tenant":"t","id":1,"{field}":{rows}}}"#)
}

/// Every bulk field of every job op around one `rows` text.
fn check_rows(rows: &str) {
    for (op, field) in [
        ("detect", "counts"),
        ("embed", "counts"),
        ("maintain", "updates"),
        ("detect", "tokens"),
    ] {
        check_line(&with_rows(op, field, rows));
    }
}

#[test]
fn tokens_and_quotes_straddle_every_word_edge() {
    for len in 0..=40 {
        for lead in 0..8 {
            // `lead` shifts the row's quote across the words of the line.
            let pad = "p".repeat(lead);
            let tok = "t".repeat(len);
            check_rows(&format!(
                r#"[["{pad}",1],["{tok}",{len}],["{tok}{len}",7]]"#
            ));
            check_rows(&format!(r#"[["{tok}\"{pad}",2]]"#));
            check_rows(&format!(r#"[["{tok}\\",2],["{pad}é{tok}",3]]"#));
            check_rows(&format!(r#"[["{tok}","{pad}"]]"#));
            check_rows(&format!(r#"[["{tok}]]"#));
        }
    }
}

#[test]
fn escaped_and_non_ascii_tokens_match_the_reference() {
    for tok in [
        r#"a\"b"#,
        r#"\\"#,
        r#"\/"#,
        r#"A"#,
        r#"é中"#,
        r#"\ud800"#,
        r#"\u12"#,
        r#"\x"#,
        r#"\"#,
        "é",
        "中文",
        "🦀",
        "tab\\there",
        "A",
    ] {
        check_rows(&format!(r#"[["{tok}",1],["A",2],["A",3]]"#));
        check_rows(&format!(r#"[["{tok}",-1]]"#));
        check_rows(&format!(r#"["{tok}","x"]"#));
    }
}

#[test]
fn whitespace_inside_rows_matches_the_reference() {
    for row in [
        r#"[ "a",1]"#,
        r#"["a" ,1]"#,
        r#"["a", 1]"#,
        r#"["a",1 ]"#,
        "[\"a\",\t1]",
        "[\"a\",\r\n1]",
        r#" ["a",1] "#,
        r#"[ "a" , -2 ]"#,
    ] {
        check_rows(&format!("[{row},[\"b\",2]]"));
        check_rows(&format!("[[\"b\",2],{row}]"));
    }
}

#[test]
fn number_forms_match_the_reference() {
    for n in [
        "0",
        "00",
        "007",
        "-0",
        "-007",
        "1e3",
        "1E3",
        "12.0",
        "-12.0",
        "1.5",
        "123456789012345",
        "-123456789012345",
        "999999999999999",
        "1234567890123456",
        "-1234567890123456",
        "12345678901234567890",
        "99999999999999999999",
        "+1",
        "-",
        "--1",
        "1-",
        "1e",
        ".5",
        "1.",
        "0x10",
        "1 2",
        "",
    ] {
        check_rows(&format!(r#"[["a",{n}],["b",1]]"#));
        check_rows(&format!(r#"[["b",1],["a",{n}]]"#));
    }
}

#[test]
fn duplicate_tokens_match_the_reference() {
    for rows in [
        r#"[["a",1],["a",2]]"#,
        r#"[["a",1],["a",2]]"#,
        r#"[["a",1],["a",-2],["b",1]]"#,
        r#"[["a",1],["b",-2],["a",1]]"#,
        r#"[["a",1],["b"],["a",1]]"#,
        r#"[["a",1],["a",2],["c",1e]]"#,
    ] {
        check_rows(rows);
    }
}

#[test]
fn the_depth_cap_matches_the_reference() {
    for n in [1, 2, 30, 60, 61, 62, 63, 64, 65, 200] {
        let open = "[".repeat(n);
        let close = "]".repeat(n);
        check_rows(&format!(r#"{open}"a",1{close}"#));
        check_rows(&format!(r#"[{open}["a",1]{close}]"#));
        check_line(&format!(r#"{open}["a",1]{close}"#));
        check_line(&format!(r#"{{"op":"metrics","x":{open}["a",1]{close}}}"#));
    }
}

#[test]
fn a_valid_line_truncated_at_every_byte_of_its_first_rows_matches_the_reference() {
    for (op, field) in [
        ("detect", "counts"),
        ("maintain", "updates"),
        ("embed", "counts"),
    ] {
        let line = format!(
            r#"{{"op":"{op}","tenant":"t","id":"mé","{field}":[["alpha",12],["b\"q",3],["中文",1e1],["d",4]],"k":1}}"#
        );
        let first = line.find("[[").expect("rows") + 1;
        let third_end = line.find("1e1]").expect("third row") + 4;
        for at in first..=third_end {
            if line.is_char_boundary(at) {
                check_line(&line[..at]);
            }
        }
    }
}

#[test]
fn long_lines_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for _ in 0..20 {
        let rows: Vec<String> = (0..rng.gen_range(100..700))
            .map(|i| {
                if rng.gen_bool(0.9) {
                    format!("[\"p3s1-{i}\",{}]", rng.gen_range(0..100_000u64))
                } else {
                    entry(&mut rng)
                }
            })
            .collect();
        let rows = format!("[{}]", rows.join(","));
        check_rows(&rows);
        let line = with_rows("detect", "counts", &rows);
        check_line(&mutate(&mut rng, &line));
    }
}
