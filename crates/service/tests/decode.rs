//! Decoder differential and hostile-input suite.
//!
//! A request line is decoded once: [`Envelope::parse`] reads the
//! top-level fields and only syntax-checks the bulk arrays (`counts`,
//! `tokens`, `updates`), which [`proto::plan`] then decodes straight
//! into rows. This suite keeps the tree decoder those replaced — a full
//! [`json::parse`] read field by field — as the reference, and checks on
//! generated, mutated and hostile lines that both give the same echoed
//! id, the same rows or the same error text; that nothing panics; and
//! that the router's envelope refuses exactly the lines a shard refuses
//! as bad JSON.
//!
//! Cases come from the proptest shim's fixed per-test seeds, so every
//! run replays the same lines.

use freqywm_data::histogram::Histogram;
use freqywm_data::token::Token;
use freqywm_service::job::{JobData, JobPayload};
use freqywm_service::proto::json::{self, Value};
use freqywm_service::proto::{self, Envelope, Planned};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// What a request line decodes to, in a shape both paths can produce.
#[derive(Debug, PartialEq)]
enum Decoded {
    Counts(Histogram),
    Tokens(Vec<Token>),
    Updates(Vec<(Token, i64)>),
    NotAJob,
}

type Outcome = (Option<Value>, Result<Decoded, String>);

fn new_path(line: &str) -> Outcome {
    let (id, planned) = proto::plan(line);
    let decoded = planned.map(|p| match p {
        Planned::Job(spec) => match spec.payload {
            JobPayload::Embed { data, .. } | JobPayload::Detect { data, .. } => match data {
                JobData::Histogram(h) => Decoded::Counts(h),
                JobData::Rows(rows) => Decoded::Counts(rows.to_histogram()),
                JobData::Tokens(t) => Decoded::Tokens(t),
            },
            JobPayload::Maintain { updates, .. } => Decoded::Updates(updates),
        },
        Planned::Op(_) | Planned::Shutdown => Decoded::NotAJob,
    });
    (id, decoded)
}

// ---- reference: the whole tree, then a field-by-field read ----------

fn reference_path(line: &str) -> Outcome {
    let req = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return (None, Err(format!("bad json: {e}"))),
    };
    (req.get("id").cloned(), reference_plan(&req))
}

fn field<'a>(req: &'a Value, key: &str) -> Result<&'a str, String> {
    req.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn reference_plan(req: &Value) -> Result<Decoded, String> {
    match field(req, "op")? {
        "register" | "dispute" | "quota" | "metrics" | "history" | "trace" | "hello"
        | "replicate" | "promote" | "shutdown" => Ok(Decoded::NotAJob),
        "embed" | "detect" => {
            field(req, "tenant")?;
            if let Some(counts) = req.get("counts") {
                return reference_counts(counts)
                    .map(|c| Decoded::Counts(Histogram::from_counts(c)));
            }
            if let Some(tokens) = req.get("tokens") {
                let arr = tokens.as_arr().ok_or("tokens must be an array")?;
                return arr
                    .iter()
                    .map(|t| {
                        t.as_str()
                            .map(Token::new)
                            .ok_or_else(|| "tokens entries must be strings".to_string())
                    })
                    .collect::<Result<_, _>>()
                    .map(Decoded::Tokens);
            }
            Err("request needs \"counts\" or \"tokens\"".to_string())
        }
        "maintain" => {
            field(req, "tenant")?;
            reference_updates(req.get("updates").ok_or("missing \"updates\"")?)
                .map(Decoded::Updates)
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

fn reference_counts(v: &Value) -> Result<Vec<(Token, u64)>, String> {
    let arr = v.as_arr().ok_or("counts must be an array")?;
    let mut seen = std::collections::HashSet::with_capacity(arr.len());
    arr.iter()
        .map(|pair| {
            let p = pair
                .as_arr()
                .ok_or("counts entries must be [token, count]")?;
            match p {
                [Value::Str(tok), n] => {
                    let c = n.as_u64().ok_or("count must be a non-negative integer")?;
                    if !seen.insert(tok.clone()) {
                        return Err(format!("duplicate token {tok:?} in counts"));
                    }
                    Ok((Token::new(tok.clone()), c))
                }
                _ => Err("counts entries must be [token, count]".to_string()),
            }
        })
        .collect()
}

fn reference_updates(v: &Value) -> Result<Vec<(Token, i64)>, String> {
    let arr = v.as_arr().ok_or("updates must be an array")?;
    arr.iter()
        .map(|pair| {
            let p = pair
                .as_arr()
                .ok_or("updates entries must be [token, delta]")?;
            match p {
                [Value::Str(tok), n] => {
                    let d = n.as_i64().ok_or("delta must be an integer")?;
                    Ok((Token::new(tok.clone()), d))
                }
                _ => Err("updates entries must be [token, delta]".to_string()),
            }
        })
        .collect()
}

/// The tree's top-level fields without the bulk arrays: what the
/// envelope must hold.
fn without_bulk(tree: &Value) -> Value {
    match tree {
        Value::Obj(fields) => Value::Obj(
            fields
                .iter()
                .filter(|(k, _)| !matches!(k.as_str(), "counts" | "tokens" | "updates"))
                .cloned()
                .collect(),
        ),
        _ => Value::Obj(Vec::new()),
    }
}

/// Runs one line through both decoders and the router's envelope.
fn check_line(line: &str) {
    let new = new_path(line);
    assert_eq!(new, reference_path(line), "line: {line}");
    let envelope = Envelope::parse(line);
    match (&envelope, json::parse(line)) {
        (Err(a), Err(b)) => assert_eq!(a, &b, "line: {line}"),
        (Ok(env), Ok(tree)) => assert_eq!(env.fields(), &without_bulk(&tree), "line: {line}"),
        (a, b) => panic!("envelope {:?} but tree {b:?} for {line}", a.as_ref().err()),
    }
    let shard_refuses = matches!(&new.1, Err(e) if e.starts_with("bad json: "));
    assert_eq!(envelope.is_err(), shard_refuses, "line: {line}");
}

// ---- generators ------------------------------------------------------

/// Token texts as they appear between quotes: plain, escaped, `\u`
/// forms (two of them spell the same token as a plain one, so
/// duplicates hide behind escapes) and multi-byte.
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

/// Escapes the scanner refuses.
const BAD_TOKENS: &[&str] = &["\\ud800", "\\x", "\\u12", "\\u00zz"];

/// Number texts: integers, the float forms a count may take (`5.0`,
/// `1e3`, `-0`), negatives, fractions, and values past 2^53, past `u64`
/// and past `f64`.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "7",
    "42",
    "1000",
    "123456789012345",
    "1234567890123456",
    "-0",
    "-1",
    "-42",
    "5.0",
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

/// Number texts the scanner refuses.
const BAD_NUMBERS: &[&str] = &["1e", "--1", "-", "e5"];

/// Values that are not numbers.
const OTHERS: &[&str] = &["\"5\"", "null", "true", "false", "[1]", "{}", "{\"a\":1}"];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from.choose(rng).expect("non-empty table")
}

fn ws(rng: &mut StdRng) -> &'static str {
    pick(rng, &[" ", "", "", "", "\n", "\t ", "\r\n"])
}

/// A quoted token: mostly distinct plain ones, sometimes from the
/// escape table, rarely a bad escape.
fn token(rng: &mut StdRng) -> String {
    let text = match rng.gen_range(0..100) {
        0 => pick(rng, BAD_TOKENS).to_string(),
        1..=15 => pick(rng, TOKENS).to_string(),
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

/// One bulk-array entry: mostly `[token, number]`, rarely the wrong
/// shape.
fn entry(rng: &mut StdRng) -> String {
    let (tok, num) = (token(rng), number(rng));
    match rng.gen_range(0..100) {
        0 => format!("[{tok}]"),
        1 => format!("[{num},{tok}]"),
        2 => format!("[{tok},{num},{num}]"),
        3 => "[]".to_string(),
        4 => tok,
        5 => num,
        _ => format!("[{}{tok}{},{}{num}{}]", ws(rng), ws(rng), ws(rng), ws(rng)),
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

/// A whole request line: shuffled fields, random whitespace, sometimes
/// a missing, repeated or mismatched field.
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

/// Characters that matter to the scanner, for mutations and noise.
const NOISE: &[char] = &[
    '[', ']', '{', '}', '"', ',', ':', '\\', 'u', '0', '9', 'e', '.', '-', '+', ' ', 'a', 'n', 't',
    'é', '中',
];

/// Truncates, deletes, inserts or replaces characters of `line`.
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

    /// Generated lines and their mutations decode identically on both
    /// paths, and the envelope refuses exactly what the tree refuses.
    #[test]
    fn generated_and_mutated_lines_decode_like_the_tree(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = request(&mut rng);
        check_line(&line);
        for _ in 0..3 {
            check_line(&mutate(&mut rng, &line));
        }
    }

    /// Lines of scanner-significant noise: never a panic, always the
    /// same verdict.
    #[test]
    fn noise_lines_decode_like_the_tree(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let body: String = (0..rng.gen_range(0..40))
            .map(|_| *NOISE.choose(&mut rng).expect("non-empty table"))
            .collect();
        check_line(&body);
        check_line(&format!("{{\"op\":\"detect\",\"tenant\":\"t\",\"counts\":{body}}}"));
    }
}

fn detect(counts: &str) -> String {
    format!(r#"{{"op":"detect","tenant":"t","id":1,"counts":{counts}}}"#)
}

#[test]
fn count_number_forms_match_the_float_route() {
    let rows = |counts: &str| match new_path(&detect(counts)).1 {
        Ok(Decoded::Counts(h)) => h.entries().to_vec(),
        other => panic!("{counts}: {other:?}"),
    };
    let one = |c: u64| vec![(Token::new("a"), c)];
    assert_eq!(rows(r#"[["a",5.0]]"#), one(5));
    assert_eq!(rows(r#"[["a",1e3]]"#), one(1000));
    assert_eq!(rows(r#"[["a",-0]]"#), one(0));
    assert_eq!(rows(r#"[["a",+7]]"#), one(7));
    // Past 2^53 the float route rounds; the decoder must round alike.
    assert_eq!(
        rows(r#"[["a",9007199254740993]]"#),
        one(9_007_199_254_740_992)
    );
    assert_eq!(rows(r#"[["a",1e30]]"#), one(u64::MAX));
    for bad in ["1.5", "-1", "1e400", "\"5\"", "null"] {
        let (_, r) = new_path(&detect(&format!(r#"[["a",{bad}]]"#)));
        assert_eq!(
            r,
            Err("count must be a non-negative integer".to_string()),
            "{bad}"
        );
    }
    for line in [r#"[["a",1e3],["b",2]]"#, r#"[["a",9007199254740993]]"#] {
        check_line(&detect(line));
    }
}

#[test]
fn duplicates_hide_behind_escapes_and_the_first_fault_wins() {
    let err = |counts: &str| new_path(&detect(counts)).1.expect_err(counts);
    assert_eq!(
        err(r#"[["A",1],["A",2]]"#),
        "duplicate token \"A\" in counts"
    );
    // The duplicate comes first: it wins over a later bad count ...
    assert_eq!(
        err(r#"[["a",1],["a",2],["b",-1]]"#),
        "duplicate token \"a\" in counts"
    );
    // ... and loses to an earlier one.
    assert_eq!(
        err(r#"[["a",1],["b",-1],["a",2]]"#),
        "count must be a non-negative integer"
    );
    assert_eq!(
        err(r#"[["a",1],["b"],["a",2]]"#),
        "counts entries must be [token, count]"
    );
    for counts in [
        r#"[["A",1],["A",2]]"#,
        r#"[["a",1],["a",2],["b",-1]]"#,
        r#"[["a",1],["b",-1],["a",2]]"#,
    ] {
        check_line(&detect(counts));
    }
}

#[test]
fn nesting_inside_bulk_arrays_is_capped_with_the_tree_error() {
    // The request object is one level, so 63 more fit and 64 do not.
    let nested = |n: usize| detect(&format!("{}{}", "[".repeat(n), "]".repeat(n)));
    let at_cap = nested(json::MAX_DEPTH - 1);
    assert_eq!(
        new_path(&at_cap).1,
        Err("counts entries must be [token, count]".to_string())
    );
    check_line(&at_cap);
    for n in [json::MAX_DEPTH, json::MAX_DEPTH + 1, 500_000] {
        let line = nested(n);
        let err = new_path(&line).1.expect_err("over the cap");
        assert!(err.starts_with("bad json: nesting deeper than 64"), "{err}");
        assert!(Envelope::parse(&line).is_err());
        check_line(&line);
    }
    // Unclosed, as a hostile client would send it.
    let open = detect(&"[".repeat(500_000));
    check_line(&open);
}

#[test]
fn truncations_of_a_valid_line_decode_like_the_tree() {
    let line = r#"{"op":"maintain","tenant":"t","id":"mé","updates":[["a",3],["b\"q",-2],["中",1e1]],"replenish":true}"#;
    assert_eq!(
        new_path(line).1,
        Ok(Decoded::Updates(vec![
            (Token::new("a"), 3),
            (Token::new("b\"q"), -2),
            (Token::new("中"), 10),
        ]))
    );
    let cuts: Vec<usize> = line.char_indices().map(|(i, _)| i).collect();
    for at in cuts {
        check_line(&line[..at]);
    }
}

#[test]
fn bad_escapes_in_tokens_keep_their_error_text() {
    for tok in ["\\ud800", "\\x", "\\u12", "\\u00zz", "\\"] {
        let line = detect(&format!("[[\"{tok}\",1]]"));
        let err = new_path(&line).1.expect_err(tok);
        assert!(err.starts_with("bad json: "), "{tok}: {err}");
        check_line(&line);
    }
}
