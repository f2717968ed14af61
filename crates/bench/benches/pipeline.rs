//! Criterion: end-to-end generation and detection latency — the Gen /
//! Detect columns of Table II, across dataset scales and selectors.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use freqywm_core::detect::detect_histogram;
use freqywm_core::eligible::eligible_pairs;
use freqywm_core::generate::Watermarker;
use freqywm_core::params::{DetectionParams, GenerationParams, Selection};
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_service::{CountRows, StoredSecrets};

fn zipf(tokens: usize, samples: usize, alpha: f64) -> Histogram {
    Histogram::from_counts(power_law_counts(&PowerLawConfig {
        distinct_tokens: tokens,
        sample_size: samples,
        alpha,
    }))
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);
    for (name, hist) in [
        ("adult-73t", zipf(73, 32_561, 0.6)),
        ("zipf-1k", zipf(1_000, 1_000_000, 0.5)),
        ("zipf-4k", zipf(4_000, 4_000_000, 0.5)),
    ] {
        for (sel_name, sel) in [
            ("optimal", Selection::Optimal),
            ("greedy", Selection::Greedy),
        ] {
            let params = GenerationParams::default().with_z(131).with_selection(sel);
            group.bench_with_input(BenchmarkId::new(sel_name, name), &hist, |b, h| {
                b.iter(|| {
                    Watermarker::new(params)
                        .generate_histogram(black_box(h), Secret::from_label("bench"))
                        .expect("eligible pairs exist")
                })
            });
        }
    }
    group.finish();
}

fn bench_detection(c: &mut Criterion) {
    let hist = zipf(1_000, 1_000_000, 0.5);
    let out = Watermarker::new(GenerationParams::default().with_z(131))
        .generate_histogram(&hist, Secret::from_label("bench"))
        .expect("eligible pairs exist");
    let params = DetectionParams::default()
        .with_t(0)
        .with_k(out.secrets.len());
    c.bench_function("detection/zipf-1k", |b| {
        b.iter(|| detect_histogram(black_box(&out.watermarked), &out.secrets, &params))
    });
}

fn bench_eligible(c: &mut Criterion) {
    let hist = zipf(1_000, 1_000_000, 0.5);
    let secret = Secret::from_label("bench");
    c.bench_function("eligible_pairs/zipf-1k", |b| {
        b.iter(|| eligible_pairs(black_box(&hist), &secret, 131))
    });
}

/// A served detect after decoding, on a detect_hot-sized tenant (617
/// tokens): `histogram` is the path that builds a `Histogram` from the
/// request rows and decodes the stored pairs into a `SecretList`;
/// `served_rows` streams packed rows against the stored pairs.
fn bench_served_detect(c: &mut Criterion) {
    let hist = zipf(617, 617_000, 0.6);
    let out = Watermarker::new(GenerationParams::default().with_z(131))
        .generate_histogram(&hist, Secret::from_label("bench"))
        .expect("eligible pairs exist");
    let params = DetectionParams::default();
    let stored = StoredSecrets::new(&out.secrets);
    let rows: Vec<_> = out.watermarked.entries().to_vec();
    let mut packed = CountRows::with_capacity(0);
    for (token, count) in &rows {
        packed.push(token.as_str(), *count);
    }
    let mut group = c.benchmark_group("detect");
    group.bench_function("histogram", |b| {
        b.iter(|| {
            let hist = Histogram::from_counts(black_box(&rows).iter().cloned());
            detect_histogram(&hist, &stored.to_secret_list(), &params).accepted
        })
    });
    group.bench_function("served_rows", |b| {
        b.iter(|| {
            let stored = stored.clone();
            stored
                .detect_rows(black_box(&packed).iter(), &params)
                .accepted
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_detection,
    bench_served_detect,
    bench_eligible
);
criterion_main!(benches);
