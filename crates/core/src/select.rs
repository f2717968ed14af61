//! Pair selection under the similarity budget (`OptMatch`, Sec. III-B2).
//!
//! * **Optimal** — edge weights `T − rm` feed the blossom
//!   maximum-weight matcher; the matched edges then pass through the
//!   equally-valued knapsack, admitting pairs in ascending cost while
//!   the (non-additive) similarity budget holds.
//! * **Greedy** — eligible pairs ascending by remainder; admit while
//!   vertex-disjoint and within budget.
//! * **Random** — same admission loop over a seeded shuffle.
//!
//! The budget is tracked incrementally: for cosine (the default) the
//! dot product and norms are updated in O(1) per admitted pair; other
//! metrics are re-evaluated on the current count vector.

use crate::eligible::EligiblePair;
use crate::modify::pair_deltas;
use crate::params::{GenerationParams, Selection, WeightScheme};
use freqywm_data::histogram::Histogram;
use freqywm_matching::blossom::max_weight_matching;
use freqywm_matching::graph::Graph;
use freqywm_stats::similarity::{Similarity, SimilarityMetric};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Outcome of the selection stage.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// The chosen pairs `L_wm` (vertex-disjoint, within budget).
    pub chosen: Vec<EligiblePair>,
    /// Edges surviving the matching stage (before the knapsack);
    /// equals `chosen.len()` for the heuristics.
    pub matched: usize,
    /// Similarity (in %) of the watermarked histogram after applying
    /// the chosen pairs.
    pub similarity_pct: f64,
}

/// Tracks the similarity constraint as pair modifications are applied.
struct BudgetTracker {
    orig: Vec<u64>,
    cur: Vec<u64>,
    metric: SimilarityMetric,
    min_similarity: f64,
    // Incremental cosine state.
    dot: f64,
    normsq_o: f64,
    normsq_c: f64,
}

impl BudgetTracker {
    fn new(counts: &[u64], metric: SimilarityMetric, budget_pct: f64) -> Self {
        let normsq_o: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
        BudgetTracker {
            orig: counts.to_vec(),
            cur: counts.to_vec(),
            metric,
            min_similarity: (100.0 - budget_pct) / 100.0,
            dot: normsq_o,
            normsq_c: normsq_o,
            normsq_o,
        }
    }

    fn similarity(&self) -> f64 {
        match self.metric {
            SimilarityMetric::Cosine => {
                if self.normsq_o == 0.0 && self.normsq_c == 0.0 {
                    1.0
                } else if self.normsq_o == 0.0 || self.normsq_c == 0.0 {
                    0.0
                } else {
                    (self.dot / (self.normsq_o.sqrt() * self.normsq_c.sqrt())).clamp(0.0, 1.0)
                }
            }
            m => m.similarity(&self.orig, &self.cur),
        }
    }

    fn apply_delta(&mut self, idx: usize, d: i64) {
        let old = self.cur[idx] as f64;
        let new = self.cur[idx]
            .checked_add_signed(d)
            .expect("the eligibility bound keeps counts in range");
        self.cur[idx] = new;
        let new = new as f64;
        self.dot += self.orig[idx] as f64 * (new - old);
        self.normsq_c += new * new - old * old;
    }

    /// Tentatively applies the pair's modification; keeps it if the
    /// similarity constraint still holds, otherwise rolls back.
    fn try_admit(&mut self, pair: &EligiblePair) -> bool {
        // Pairs are vertex-disjoint, so cur == orig for this pair's
        // tokens, and rank order guarantees f_i >= f_j.
        debug_assert!(self.cur[pair.i] >= self.cur[pair.j]);
        let (di, dj) = pair_deltas(self.cur[pair.i], self.cur[pair.j], pair.s);
        self.apply_delta(pair.i, di);
        self.apply_delta(pair.j, dj);
        if self.similarity() + 1e-12 >= self.min_similarity {
            true
        } else {
            self.apply_delta(pair.i, -di);
            self.apply_delta(pair.j, -dj);
            false
        }
    }
}

fn knapsack_cost(pair: &EligiblePair, scheme: WeightScheme) -> u64 {
    match scheme {
        WeightScheme::PaperRemainder => pair.rm,
        WeightScheme::EffectiveCost => pair.effective_cost(),
    }
}

/// Runs the configured selection strategy over the eligible pairs.
pub fn select_pairs(
    hist: &Histogram,
    eligible: &[EligiblePair],
    params: &GenerationParams,
) -> SelectionResult {
    let filtered: Vec<EligiblePair>;
    let eligible: &[EligiblePair] = if params.exclude_free_pairs {
        filtered = eligible.iter().filter(|p| p.rm != 0).copied().collect();
        &filtered
    } else {
        eligible
    };
    let counts = hist.counts();
    match params.selection {
        Selection::Optimal => select_optimal(&counts, eligible, params),
        Selection::Greedy => {
            let mut order: Vec<usize> = (0..eligible.len()).collect();
            order.sort_by_key(|&e| (knapsack_cost(&eligible[e], params.weights), e));
            select_sequential(&counts, eligible, &order, params)
        }
        Selection::Random { seed } => {
            let mut order: Vec<usize> = (0..eligible.len()).collect();
            order.shuffle(&mut StdRng::seed_from_u64(seed));
            select_sequential(&counts, eligible, &order, params)
        }
    }
}

fn select_optimal(
    counts: &[u64],
    eligible: &[EligiblePair],
    params: &GenerationParams,
) -> SelectionResult {
    if eligible.is_empty() {
        return SelectionResult {
            chosen: Vec::new(),
            matched: 0,
            similarity_pct: 100.0,
        };
    }
    // Compress the vertex space to ranks that actually occur, numbered
    // in order of first appearance.
    let mut vertex_of = vec![usize::MAX; counts.len()];
    let mut vertices = 0;
    for p in eligible {
        for rank in [p.i, p.j] {
            if vertex_of[rank] == usize::MAX {
                vertex_of[rank] = vertices;
                vertices += 1;
            }
        }
    }
    // T must exceed every subtracted cost so all edge weights stay
    // positive and MWM maximises cardinality first (paper: T > C).
    let t_big = eligible.iter().map(|p| p.s as i64).max().unwrap_or(0) + 1;
    let mut graph = Graph::new(vertices);
    for p in eligible {
        graph.add_edge(
            vertex_of[p.i],
            vertex_of[p.j],
            p.weight(params.weights, t_big),
        );
    }
    let mate = max_weight_matching(&graph, false);
    // Recover matched eligible pairs.
    let mut matched: Vec<&EligiblePair> = eligible
        .iter()
        .filter(|p| mate[vertex_of[p.i]] == Some(vertex_of[p.j]))
        .collect();
    let matched_count = matched.len();
    // Equally-valued knapsack: ascending cost, admit under the budget.
    matched.sort_by_key(|p| (knapsack_cost(p, params.weights), p.i, p.j));
    let mut tracker = BudgetTracker::new(counts, params.metric, params.budget_pct);
    let mut chosen = Vec::with_capacity(matched.len());
    for p in matched {
        if tracker.try_admit(p) {
            chosen.push(*p);
        }
    }
    SelectionResult {
        chosen,
        matched: matched_count,
        similarity_pct: tracker.similarity() * 100.0,
    }
}

fn select_sequential(
    counts: &[u64],
    eligible: &[EligiblePair],
    order: &[usize],
    params: &GenerationParams,
) -> SelectionResult {
    let mut used = vec![false; counts.len()];
    let mut tracker = BudgetTracker::new(counts, params.metric, params.budget_pct);
    let mut chosen = Vec::new();
    for &e in order {
        let p = &eligible[e];
        if used[p.i] || used[p.j] {
            continue;
        }
        if tracker.try_admit(p) {
            used[p.i] = true;
            used[p.j] = true;
            chosen.push(*p);
        }
    }
    let matched = chosen.len();
    SelectionResult {
        chosen,
        matched,
        similarity_pct: tracker.similarity() * 100.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eligible::eligible_pairs;
    use freqywm_crypto::prf::Secret;
    use freqywm_data::token::Token;

    fn hist(counts: &[u64]) -> Histogram {
        Histogram::from_counts(
            counts
                .iter()
                .enumerate()
                .map(|(i, &c)| (Token::new(format!("tk{i:03}")), c)),
        )
    }

    fn well_spaced() -> Histogram {
        hist(&[
            10_000, 9_000, 8_100, 7_300, 6_600, 6_000, 5_500, 5_100, 4_800, 4_600,
        ])
    }

    fn params(sel: Selection) -> GenerationParams {
        GenerationParams::default().with_z(23).with_selection(sel)
    }

    #[test]
    fn pairs_are_vertex_disjoint() {
        let h = well_spaced();
        let secret = Secret::from_label("select");
        let el = eligible_pairs(&h, &secret, 23);
        assert!(!el.is_empty());
        for sel in [
            Selection::Optimal,
            Selection::Greedy,
            Selection::Random { seed: 3 },
        ] {
            let r = select_pairs(&h, &el, &params(sel));
            let mut seen = std::collections::HashSet::new();
            for p in &r.chosen {
                assert!(seen.insert(p.i), "{sel:?}: vertex {} reused", p.i);
                assert!(seen.insert(p.j), "{sel:?}: vertex {} reused", p.j);
            }
        }
    }

    #[test]
    fn optimal_never_worse_than_heuristics() {
        let h = well_spaced();
        let secret = Secret::from_label("optimal-vs-heuristic");
        let el = eligible_pairs(&h, &secret, 23);
        let opt = select_pairs(&h, &el, &params(Selection::Optimal));
        let grd = select_pairs(&h, &el, &params(Selection::Greedy));
        let rnd = select_pairs(&h, &el, &params(Selection::Random { seed: 1 }));
        assert!(opt.chosen.len() >= grd.chosen.len());
        assert!(opt.chosen.len() >= rnd.chosen.len());
    }

    #[test]
    fn budget_is_respected() {
        let h = well_spaced();
        let secret = Secret::from_label("budget");
        let el = eligible_pairs(&h, &secret, 23);
        for b in [0.001, 0.5, 2.0, 50.0] {
            let p = params(Selection::Optimal).with_budget(b);
            let r = select_pairs(&h, &el, &p);
            assert!(
                r.similarity_pct + 1e-9 >= 100.0 - b,
                "b={b}: similarity {}",
                r.similarity_pct
            );
        }
    }

    #[test]
    fn larger_budget_admits_at_least_as_many_pairs() {
        let h = well_spaced();
        let secret = Secret::from_label("monotone-budget");
        let el = eligible_pairs(&h, &secret, 23);
        let mut prev = 0usize;
        for b in [0.0001, 0.01, 1.0, 10.0] {
            let r = select_pairs(&h, &el, &params(Selection::Optimal).with_budget(b));
            assert!(r.chosen.len() >= prev, "b={b}");
            prev = r.chosen.len();
        }
    }

    #[test]
    fn empty_eligible_set() {
        let h = hist(&[5, 5, 5]);
        let r = select_pairs(&h, &[], &params(Selection::Optimal));
        assert!(r.chosen.is_empty());
        assert_eq!(r.matched, 0);
        assert_eq!(r.similarity_pct, 100.0);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let h = well_spaced();
        let secret = Secret::from_label("rand-det");
        let el = eligible_pairs(&h, &secret, 23);
        let a = select_pairs(&h, &el, &params(Selection::Random { seed: 42 }));
        let b = select_pairs(&h, &el, &params(Selection::Random { seed: 42 }));
        assert_eq!(a.chosen, b.chosen);
    }

    #[test]
    fn incremental_cosine_matches_recomputation() {
        let h = well_spaced();
        let secret = Secret::from_label("cosine-check");
        let el = eligible_pairs(&h, &secret, 23);
        let r = select_pairs(&h, &el, &params(Selection::Optimal));
        // Recompute from scratch by applying the chosen deltas.
        let counts = h.counts();
        let mut cur = counts.clone();
        for p in &r.chosen {
            let (di, dj) = pair_deltas(counts[p.i], counts[p.j], p.s);
            cur[p.i] = (cur[p.i] as i64 + di) as u64;
            cur[p.j] = (cur[p.j] as i64 + dj) as u64;
        }
        let direct = freqywm_stats::similarity::cosine_similarity(&counts, &cur) * 100.0;
        assert!(
            (direct - r.similarity_pct).abs() < 1e-6,
            "incremental {} vs direct {}",
            r.similarity_pct,
            direct
        );
    }

    #[test]
    fn tiny_budget_still_admits_free_pairs() {
        // Pairs whose remainder is already 0 cost nothing and must be
        // admitted even under a near-zero budget.
        let h = hist(&[1_000, 897, 104]);
        let secret = Secret::from_label("free-pairs");
        // Find a z that gives some pair rm = 0… brute force tiny z.
        for z in 3..50u64 {
            let el = eligible_pairs(&h, &secret, z);
            if let Some(free) = el.iter().find(|p| p.rm == 0) {
                let p = GenerationParams::default()
                    .with_z(z)
                    .with_budget(1e-9)
                    .with_selection(Selection::Greedy);
                let r = select_pairs(&h, &el, &p);
                assert!(
                    r.chosen.iter().any(|c| c.i == free.i && c.j == free.j),
                    "free pair must be selected at z={z}"
                );
                return;
            }
        }
    }
}
