//! Criterion: request decoding — what a served detect costs before the
//! detect itself runs. A 575-token detect line (the size the tier
//! benchmark's pool averages, ~9.8 KB) through the full tree parse, the
//! router's envelope scan, and a shard's whole plan: one scan of the
//! envelope that decodes `counts` into indexed rows.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_service::proto::{self, json, Envelope, Planned};

const TOKENS: usize = 575;

/// `{"op":"detect",…,"counts":[["p3s1-0",…],…]}` over a power-law
/// histogram, 1000 samples per token.
fn detect_line() -> String {
    let hist = Histogram::from_counts(
        power_law_counts(&PowerLawConfig {
            distinct_tokens: TOKENS,
            sample_size: TOKENS * 1000,
            alpha: 0.6,
        })
        .into_iter()
        .enumerate()
        .map(|(i, (_, c))| (freqywm_data::token::Token::new(format!("p3s1-{i}")), c)),
    );
    let counts: Vec<String> = hist
        .entries()
        .iter()
        .map(|(t, c)| format!("[\"{}\",{c}]", t.as_str()))
        .collect();
    format!(
        "{{\"op\":\"detect\",\"tenant\":\"p7-3-1-0\",\"t\":0,\"k\":1,\"counts\":[{}]}}",
        counts.join(",")
    )
}

fn bench_decode(c: &mut Criterion) {
    let line = detect_line();
    let mut g = c.benchmark_group("decode_detect_575");
    g.throughput(Throughput::Bytes(line.len() as u64));
    g.bench_function("json_parse_tree", |b| {
        b.iter(|| json::parse(black_box(&line)).expect("well-formed"))
    });
    g.bench_function("envelope_router", |b| {
        b.iter(|| Envelope::parse(black_box(&line)).expect("well-formed"))
    });
    g.bench_function("plan_shard", |b| {
        b.iter(|| match proto::plan(black_box(&line)) {
            (_, Ok(Planned::Job(spec))) => spec,
            _ => panic!("a detect job"),
        })
    });
    g.finish();
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
