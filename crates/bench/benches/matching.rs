//! Criterion: blossom maximum-weight matching vs the greedy heuristic
//! on eligible-pair graphs of increasing size — the optimal-vs-
//! heuristic runtime trade-off behind Fig. 2.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use freqywm_core::eligible::eligible_pairs;
use freqywm_core::params::GenerationParams;
use freqywm_core::select::select_pairs;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_matching::blossom::max_weight_matching;
use freqywm_matching::graph::Graph;
use freqywm_matching::greedy::greedy_matching;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_graph(vertices: usize, edges: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(vertices);
    let mut added = 0usize;
    while added < edges {
        let u = rng.gen_range(0..vertices);
        let v = rng.gen_range(0..vertices);
        if u != v {
            g.add_edge(u, v, rng.gen_range(1..1_000));
            added += 1;
        }
    }
    g
}

fn bench_matchers(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    group.sample_size(10);
    for (v, e) in [(100usize, 400usize), (400, 1_600), (1_000, 4_000)] {
        let g = random_graph(v, e, 42);
        group.bench_with_input(
            BenchmarkId::new("blossom", format!("{v}v{e}e")),
            &g,
            |b, g| b.iter(|| max_weight_matching(black_box(g), false)),
        );
        group.bench_with_input(
            BenchmarkId::new("greedy", format!("{v}v{e}e")),
            &g,
            |b, g| b.iter(|| greedy_matching(black_box(g))),
        );
    }
    group.finish();
}

/// `OptMatch` at the size of a served embed, on every power-law shape
/// the embed workload draws (625 tokens at α 0.4 and 0.7, 1000 tokens
/// at α 0.9, 1000 samples per token) at z = 131 and z = 1031, with free
/// pairs excluded — the graph build, blossom and the budget knapsack
/// together. 625 tokens at α 0.4, z = 131 gives about 1300 edges.
fn bench_select_optimal(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_pairs");
    group.sample_size(10);
    for (tokens, alpha) in [(625usize, 0.4), (625, 0.7), (1000, 0.9)] {
        let hist = Histogram::from_counts(power_law_counts(&PowerLawConfig {
            distinct_tokens: tokens,
            sample_size: tokens * 1000,
            alpha,
        }));
        for z in [131u64, 1031] {
            let params = GenerationParams::default()
                .with_z(z)
                .with_exclude_free_pairs(true);
            let eligible = eligible_pairs(&hist, &Secret::from_label("select-bench"), z);
            group.bench_with_input(
                BenchmarkId::new("optimal", format!("{tokens}t-a{alpha}-z{z}")),
                &eligible,
                |b, eligible| {
                    b.iter(|| select_pairs(black_box(&hist), black_box(eligible), &params))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_matchers, bench_select_optimal);
criterion_main!(benches);
