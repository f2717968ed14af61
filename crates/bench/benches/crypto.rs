//! Criterion: SHA-256 / HMAC / pair-PRF throughput — the inner loop of
//! eligible-pair generation (Table II's Gen column is dominated by it).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use freqywm_crypto::hmac::hmac_sha256;
use freqywm_crypto::prf::{inner_digest, outer_moduli, pair_moduli, pair_modulus, Secret};
use freqywm_crypto::sha256::sha256;

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    for size in [64usize, 1024, 65_536] {
        let data = vec![0xABu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}B"), |b| b.iter(|| sha256(black_box(&data))));
    }
    g.finish();
}

fn bench_hmac(c: &mut Criterion) {
    c.bench_function("hmac_sha256/64B", |b| {
        let key = [7u8; 32];
        let msg = [1u8; 64];
        b.iter(|| hmac_sha256(black_box(&key), black_box(&msg)))
    });
}

/// `pair_modulus` hashes `R ‖ tk_j` and `tk_i ‖ H(R ‖ tk_j)`: with
/// tokens of 23 bytes or less both messages fit one SHA-256 block; a
/// 40-byte token makes each message two blocks.
fn bench_pair_modulus(c: &mut Criterion) {
    let secret = Secret::from_label("bench");
    let mut g = c.benchmark_group("pair_modulus");
    let cases: [(&str, &[u8], &[u8]); 2] = [
        ("one_block", b"youtube.com", b"instagram.com"),
        (
            "two_block",
            b"https://www.example.org/landing/page-001",
            b"https://www.example.org/landing/page-002",
        ),
    ];
    for (name, tk_i, tk_j) in cases {
        g.bench_function(name, |b| {
            b.iter(|| {
                pair_modulus(
                    black_box(&secret),
                    black_box(tk_i),
                    black_box(tk_j),
                    black_box(131),
                )
            })
        });
    }
    // One sweep row as the eligible-pair sweep runs it: an embed-sized
    // row of 128 inner digests against a 9-byte token (report ns/pair
    // as time per iteration over 128).
    let inners: Vec<_> = (0..128)
        .map(|j| inner_digest(&secret, format!("e7c0-{j}").as_bytes()))
        .collect();
    let mut row = Vec::with_capacity(inners.len());
    g.throughput(Throughput::Elements(inners.len() as u64));
    g.bench_function("row", |b| {
        b.iter(|| {
            outer_moduli(black_box(b"e7c0-417"), black_box(&inners), 1031, &mut row);
            black_box(row.len())
        })
    });
    // A served detect's PRF work: 134 stored pairs (the detect_hot pool
    // mean) through the batched kernel, against `pair_modulus` per pair.
    let tokens: Vec<String> = (0..268).map(|k| format!("e7c0-{k}")).collect();
    let pairs: Vec<(&[u8], &[u8])> = tokens
        .chunks(2)
        .map(|p| (p[0].as_bytes(), p[1].as_bytes()))
        .collect();
    let mut moduli = Vec::with_capacity(pairs.len());
    g.throughput(Throughput::Elements(pairs.len() as u64));
    g.bench_function("detect_batch", |b| {
        b.iter(|| {
            pair_moduli(&secret, black_box(&pairs), 1031, &mut moduli);
            black_box(moduli.len())
        })
    });
    g.bench_function("detect_per_pair", |b| {
        b.iter(|| {
            moduli.clear();
            moduli.extend(
                black_box(&pairs)
                    .iter()
                    .map(|(a, b)| pair_modulus(&secret, a, b, 1031)),
            );
            black_box(moduli.len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sha256, bench_hmac, bench_pair_modulus);
criterion_main!(benches);
