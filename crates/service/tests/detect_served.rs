//! The served detect against the library.
//!
//! A `detect` request's `counts` decode into packed rows with a keyed
//! row index, and the worker looks each stored pair's tokens up in
//! that index; `tokens` are counted first and the stored tokens looked
//! up in their histogram. Either way the response's verdict totals must equal [`detect_histogram`]
//! on the same data, for every request shape: marked, unmarked
//! control, a 25% subsample, and marked with stored tokens removed or
//! unknown tokens added; with and without `scale`; and with tokens
//! written as `\u` escapes.

use freqywm_core::detect::detect_histogram;
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_core::secret::SecretList;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_data::token::Token;
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::job::{JobData, JobOutput, JobPayload, JobSpec, JobState};
use freqywm_service::metrics::M;
use freqywm_service::proto::handle_line;
use freqywm_service::proto::json::{self, escape, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tenant `k`: a power-law histogram whose tokens carry a per-tenant
/// prefix. Tenant 2's tokens are 30+ bytes, past the one-block PRF
/// messages, so the per-pair fallback is served too.
fn tenant(k: usize) -> (String, Histogram, GenerationParams) {
    let vocab = [120, 180, 140][k];
    let counts = power_law_counts(&PowerLawConfig {
        distinct_tokens: vocab,
        sample_size: vocab * 60,
        alpha: [0.5, 0.7, 0.6][k],
    });
    let prefix = ["a", "tenant-b/", "https://example.org/landing/"][k];
    let hist = Histogram::from_counts(
        counts
            .into_iter()
            .map(|(t, c)| (Token::new(format!("{prefix}{}", t.as_str())), c)),
    );
    let params = GenerationParams::default()
        .with_z([31, 131, 1031][k])
        .with_exclude_free_pairs(true);
    (format!("served-{k}"), hist, params)
}

/// The request shapes for one tenant, each with its name.
fn shapes(
    original: &Histogram,
    marked: &Histogram,
    secrets: &SecretList,
    rng: &mut StdRng,
) -> Vec<(&'static str, Histogram)> {
    let subsample = Histogram::from_counts(
        marked
            .entries()
            .iter()
            .map(|(t, c)| (t.clone(), (c + rng.gen_range(0..4)) / 4)),
    );
    let stored: Vec<&Token> = secrets.pairs.iter().flat_map(|(a, b)| [a, b]).collect();
    let removed = Histogram::from_counts(
        marked
            .entries()
            .iter()
            .filter(|(t, _)| !stored.iter().step_by(3).any(|s| *s == t))
            .cloned(),
    );
    let added = Histogram::from_counts(
        marked
            .entries()
            .iter()
            .cloned()
            .chain((0..25).map(|i| (Token::new(format!("unknown-{i}")), 3 + 7 * i))),
    );
    vec![
        ("marked", marked.clone()),
        ("control", original.clone()),
        ("subsample", subsample),
        ("stored tokens removed", removed),
        ("unknown tokens added", added),
    ]
}

/// A JSON string for `token`; every `every`-th one (by `k`) has each
/// character written as a `\u` escape.
fn quoted(token: &str, k: usize, every: usize) -> String {
    if k.is_multiple_of(every) {
        let escaped: String = token
            .encode_utf16()
            .map(|u| format!("\\u{u:04x}"))
            .collect();
        format!("\"{escaped}\"")
    } else {
        format!("\"{}\"", escape(token))
    }
}

/// The `counts` and the `tokens` request for `hist`, in rank order
/// reversed so request order differs from the stored order.
fn requests(tenant: &str, hist: &Histogram, params: &str) -> [String; 2] {
    let rows: Vec<String> = hist
        .entries()
        .iter()
        .rev()
        .enumerate()
        .map(|(k, (t, c))| format!("[{},{c}]", quoted(t.as_str(), k, 4)))
        .collect();
    let tokens: Vec<String> = hist
        .entries()
        .iter()
        .enumerate()
        .flat_map(|(k, (t, c))| (0..*c).map(move |n| quoted(t.as_str(), k + n as usize, 5)))
        .collect();
    [
        format!(
            r#"{{"op":"detect","tenant":"{tenant}"{params},"counts":[{}]}}"#,
            rows.join(",")
        ),
        format!(
            r#"{{"op":"detect","tenant":"{tenant}"{params},"tokens":[{}]}}"#,
            tokens.join(",")
        ),
    ]
}

#[test]
fn served_detect_totals_equal_the_library() {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(0x5e7ed);
    let mut accepted_shapes = 0;
    for k in 0..3 {
        let (name, original, gen_params) = tenant(k);
        engine
            .register_tenant(&name, Secret::from_label(&name))
            .expect("fresh tenant registers");
        let marked = match engine.run(JobSpec::new(JobPayload::Embed {
            tenant: name.clone(),
            data: JobData::Histogram(original.clone()),
            params: gen_params,
        })) {
            JobState::Completed(JobOutput::Embed(out)) => out.watermarked,
            other => panic!("embed for {name} did not complete: {other:?}"),
        };
        let secrets = engine
            .registry()
            .require_watermark(&name)
            .expect("embedded")
            .secrets
            .to_secret_list();
        let (t, threshold) = (1, secrets.len() / 2);
        for (shape, hist) in shapes(&original, &marked, &secrets, &mut rng) {
            for scale in [None, Some(0.25), Some(0.5), Some(3.7)] {
                let mut params = DetectionParams::default().with_t(t).with_k(threshold);
                let mut fields = format!(r#","t":{t},"k":{threshold}"#);
                if let Some(f) = scale {
                    params = params.with_scale(f);
                    fields.push_str(&format!(r#","scale":{f}"#));
                }
                let want = detect_histogram(&hist, &secrets, &params);
                accepted_shapes += usize::from(want.accepted);
                for (form, line) in ["counts", "tokens"]
                    .iter()
                    .zip(requests(&name, &hist, &fields))
                {
                    let response = handle_line(&engine, &line);
                    let got = json::parse(&response).expect("response parses");
                    let field = |key: &str| got.get(key).cloned();
                    let context = format!("{name} {shape} as {form}, scale {scale:?}: {response}");
                    assert_eq!(field("ok"), Some(Value::Bool(true)), "{context}");
                    assert_eq!(
                        field("accepted"),
                        Some(Value::Bool(want.accepted)),
                        "{context}"
                    );
                    for (key, n) in [
                        ("accepted_pairs", want.accepted_pairs),
                        ("present_pairs", want.present_pairs),
                        ("total_pairs", want.total_pairs),
                    ] {
                        assert_eq!(
                            field(key).and_then(|v| v.as_u64()),
                            Some(n as u64),
                            "{key}, {context}"
                        );
                    }
                }
            }
        }
    }
    // The shapes exercise both verdicts.
    assert!(accepted_shapes > 0 && accepted_shapes < 3 * 5 * 4);
    engine.shutdown();
}

#[test]
fn escaped_duplicates_are_refused_before_any_detect_runs() {
    let engine = Engine::start(EngineConfig::default());
    let (name, original, gen_params) = tenant(0);
    engine
        .register_tenant(&name, Secret::from_label(&name))
        .expect("fresh tenant registers");
    match engine.run(JobSpec::new(JobPayload::Embed {
        tenant: name.clone(),
        data: JobData::Histogram(original.clone()),
        params: gen_params,
    })) {
        JobState::Completed(JobOutput::Embed(_)) => {}
        other => panic!("embed for {name} did not complete: {other:?}"),
    }
    let (token, count) = &original.entries()[0];
    let line = format!(
        r#"{{"op":"detect","tenant":"{name}","counts":[[{},{count}],["x",1],[{},2]]}}"#,
        quoted(token.as_str(), 0, 1),
        quoted(token.as_str(), 1, 1),
    );
    let submitted = engine.metrics()[M::Submitted];
    let response = json::parse(&handle_line(&engine, &line)).expect("response parses");
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some(format!("duplicate token {:?} in counts", token.as_str()).as_str()),
        "{response:?}"
    );
    assert_eq!(
        engine.metrics()[M::Submitted],
        submitted,
        "refused at plan time"
    );
    engine.shutdown();
}
