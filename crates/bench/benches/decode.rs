//! Criterion: request decoding — what a served detect costs before the
//! detect itself runs. A 575-token detect line (the size the tier
//! benchmark's pool averages, ~9.8 KB) through the full tree parse, the
//! router's envelope scan, a shard's whole plan (one scan of the
//! envelope that decodes `counts` into indexed rows), and the framer
//! that cuts it from the byte stream and checks its UTF-8. The same
//! line with escaped and non-ASCII tokens times the general path that
//! rows outside the fixed `["token",count]` shape take.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_service::framing::{LineEvent, LineFramer};
use freqywm_service::proto::{self, json, Envelope, Planned};

const TOKENS: usize = 575;

/// `{"op":"detect",…,"counts":[["<token>",…],…]}` over a power-law
/// histogram, 1000 samples per token, the `i`th token's text (as it
/// stands between the quotes) given by `token`.
fn detect_line(token: impl Fn(usize) -> String) -> String {
    let hist = Histogram::from_counts(
        power_law_counts(&PowerLawConfig {
            distinct_tokens: TOKENS,
            sample_size: TOKENS * 1000,
            alpha: 0.6,
        })
        .into_iter()
        .enumerate()
        .map(|(i, (_, c))| (freqywm_data::token::Token::new(format!("{i}")), c)),
    );
    let counts: Vec<String> = hist
        .entries()
        .iter()
        .map(|(t, c)| {
            let i: usize = t.as_str().parse().expect("an index");
            format!("[\"{}\",{c}]", token(i))
        })
        .collect();
    format!(
        "{{\"op\":\"detect\",\"tenant\":\"p7-3-1-0\",\"t\":0,\"k\":1,\"counts\":[{}]}}",
        counts.join(",")
    )
}

fn bench_line(c: &mut Criterion, group: &str, line: &str, tree: bool) {
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Bytes(line.len() as u64));
    if tree {
        g.bench_function("json_parse_tree", |b| {
            b.iter(|| json::parse(black_box(line)).expect("well-formed"))
        });
    }
    g.bench_function("envelope_router", |b| {
        b.iter(|| Envelope::parse(black_box(line)).expect("well-formed"))
    });
    g.bench_function("plan_shard", |b| {
        b.iter(|| match proto::plan(black_box(line)) {
            (_, Ok(Planned::Job(spec))) => spec,
            _ => panic!("a detect job"),
        })
    });
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let line = detect_line(|i| format!("p3s1-{i}"));
    bench_line(c, "decode_detect_575", &line, true);
    // One framed line per push, as a socket read of a whole request
    // delivers it: the newline search and the UTF-8 check.
    let framed = format!("{line}\n");
    let mut g = c.benchmark_group("decode_detect_575");
    g.throughput(Throughput::Bytes(framed.len() as u64));
    g.bench_function("frame_line", |b| {
        let mut framer = LineFramer::new(proto::DEFAULT_MAX_FRAME);
        b.iter(|| {
            let mut len = 0;
            framer.push(black_box(framed.as_bytes()), |e| match e {
                LineEvent::Line(text) => len += text.len(),
                LineEvent::Oversized => panic!("under the cap"),
            });
            len
        })
    });
    g.finish();
    // Every token carries an escape, and a third non-ASCII text too, so
    // no row takes the fixed-shape path.
    let escaped = detect_line(|i| match i % 3 {
        0 => format!("p3s1-{i}\\u00e9"),
        1 => format!("p3\\\"s1-{i}"),
        _ => format!("中文\\/{i}"),
    });
    bench_line(c, "decode_detect_575_escaped", &escaped, false);
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
