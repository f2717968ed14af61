//! Pins every decision the blossom matcher makes.
//!
//! On graphs with many equal weights a maximum-weight matching is far
//! from unique, and which optimum comes back depends on the matcher's
//! tie-breaking orders: the LIFO scan queue, the blossom-id pool,
//! first-index-wins on equal slack, the delta-type priority, and the
//! order of each blossom's least-slack edge list. A faster matcher must
//! keep all of them, so this oracle hashes the `mate` vectors of seeded
//! batches in both `max_cardinality` modes and compares the hashes with
//! `fixtures/mates.txt`.
//!
//! * `tiny`, `small` and `medium` are tie-heavy, near-perfect,
//!   single-component graphs: a random spanning tree plus extra edges,
//!   weighted `T − rm` with `rm` drawn from a few values, the shape of
//!   `OptMatch`'s weights.
//! * `powerlaw` are eligible-pair graphs of 250–1000-token power-law
//!   histograms, built the way `select_pairs` builds them (boundary
//!   rule, free pairs excluded, vertices numbered by first appearance,
//!   `T = max s + 1`), with the pair moduli drawn from the seeded
//!   generator in place of the keyed PRF.
//!
//! On a mismatch the rendered text is written to `mates-actual.txt`
//! under the test target directory.

use freqywm_crypto::hex;
use freqywm_crypto::sha256::Sha256;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_matching::blossom::{max_weight_matching, verify_matching};
use freqywm_matching::graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/mates.txt");

/// A connected graph on `lo..hi` vertices: a random spanning tree plus
/// up to twice as many extra edges, weighted `t − rm` with `rm` from
/// one of a few small value sets.
fn tie_heavy(rng: &mut StdRng, lo: usize, hi: usize) -> Graph {
    const RM_SETS: [&[i64]; 5] = [
        &[0],
        &[0, 1],
        &[0, 1, 2],
        &[1, 3, 5, 7],
        &[0, 2, 4, 6, 8, 10],
    ];
    let n = rng.gen_range(lo..hi);
    let rms = RM_SETS[rng.gen_range(0..RM_SETS.len())];
    let t = rms[rms.len() - 1] + rng.gen_range(1..4);
    let weight = |rng: &mut StdRng| t - rms[rng.gen_range(0..rms.len())];
    let mut g = Graph::new(n);
    for v in 1..n {
        let u = rng.gen_range(0..v);
        let w = weight(rng);
        g.add_edge(u, v, w);
    }
    for _ in 0..rng.gen_range(0..2 * n) {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            let w = weight(rng);
            g.add_edge(u, v, w);
        }
    }
    g
}

/// The eligible-pair graph of a power-law histogram of `250..=1000`
/// tokens with 1000 samples per token, at z = 131 or 1031.
fn power_law(rng: &mut StdRng) -> Graph {
    let tokens = rng.gen_range(250..1001);
    let alpha = [0.4, 0.55, 0.7, 0.9][rng.gen_range(0..4)];
    let z: u64 = [131, 1031][rng.gen_range(0..2)];
    let counts: Vec<u64> = power_law_counts(&PowerLawConfig {
        distinct_tokens: tokens,
        sample_size: tokens * 1000,
        alpha,
    })
    .into_iter()
    .map(|(_, c)| c)
    .collect();
    // The boundary rule: a pair may move each token by ceil(s/2).
    let min_bound: Vec<u64> = (0..counts.len())
        .map(|k| {
            let upper = if k == 0 {
                u64::MAX
            } else {
                counts[k - 1] - counts[k]
            };
            let lower = counts.get(k + 1).map_or(counts[k], |b| counts[k] - b);
            upper.min(lower).min(counts[k].saturating_sub(1))
        })
        .collect();
    let candidates: Vec<usize> = (0..counts.len()).filter(|&k| min_bound[k] >= 1).collect();
    let mut pairs = Vec::new();
    for (a, &i) in candidates.iter().enumerate() {
        for &j in &candidates[a + 1..] {
            let s = rng.gen_range(0..z);
            if s < 2 || s.div_ceil(2) > min_bound[i].min(min_bound[j]) {
                continue;
            }
            let rm = (counts[i] - counts[j]) % s;
            if rm != 0 {
                pairs.push((i, j, s, rm));
            }
        }
    }
    let mut vertex_of = vec![usize::MAX; counts.len()];
    let mut vertices = 0;
    for &(i, j, _, _) in &pairs {
        for rank in [i, j] {
            if vertex_of[rank] == usize::MAX {
                vertex_of[rank] = vertices;
                vertices += 1;
            }
        }
    }
    let t_big = pairs.iter().map(|p| p.2 as i64).max().unwrap_or(0) + 1;
    let mut g = Graph::new(vertices);
    for (i, j, _, rm) in pairs {
        g.add_edge(vertex_of[i], vertex_of[j], t_big - rm as i64);
    }
    g
}

/// One fixture line per mode: graphs, total vertices, matched edges,
/// matched weight and a SHA-256 over every `mate` vector.
fn render_batch(out: &mut String, name: &str, graphs: &[Graph]) {
    let vertices: usize = graphs.iter().map(Graph::num_vertices).sum();
    for max_cardinality in [false, true] {
        let mut hash = Sha256::new();
        let (mut matched, mut weight) = (0usize, 0i64);
        for g in graphs {
            let mate = max_weight_matching(g, max_cardinality);
            assert!(verify_matching(g, &mate));
            hash.update(&(mate.len() as u32).to_le_bytes());
            for m in &mate {
                hash.update(&m.map_or(u32::MAX, |w| w as u32).to_le_bytes());
            }
            for e in g.edges() {
                if mate[e.u] == Some(e.v) {
                    matched += 1;
                    weight += e.weight;
                }
            }
        }
        writeln!(
            out,
            "{name} graphs={} vertices={vertices} max_cardinality={max_cardinality} \
             matched={matched} weight={weight} sha256={}",
            graphs.len(),
            hex::encode(&hash.finalize())
        )
        .unwrap();
    }
}

fn render() -> String {
    let mut out = String::new();
    let mut rng = StdRng::seed_from_u64(0x6d_a7_c4);
    let batch = |rng: &mut StdRng, count: usize, lo: usize, hi: usize| -> Vec<Graph> {
        (0..count).map(|_| tie_heavy(rng, lo, hi)).collect()
    };
    let tiny = batch(&mut rng, 5000, 2, 12);
    render_batch(&mut out, "tiny", &tiny);
    let small = batch(&mut rng, 4000, 12, 40);
    render_batch(&mut out, "small", &small);
    let medium = batch(&mut rng, 1000, 40, 160);
    render_batch(&mut out, "medium", &medium);
    let powerlaw: Vec<Graph> = (0..200).map(|_| power_law(&mut rng)).collect();
    render_batch(&mut out, "powerlaw", &powerlaw);
    out
}

#[test]
fn mates_match_the_fixture() {
    let actual = render();
    if actual != FIXTURE {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("mates-actual.txt");
        std::fs::write(&path, &actual).expect("write actual mates");
        panic!(
            "matchings differ from the fixture; actual written to {}\n{actual}",
            path.display()
        );
    }
}
