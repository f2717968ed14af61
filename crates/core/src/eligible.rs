//! Eligible-pair generation (`Eligible`, Sec. III-B1).
//!
//! A candidate pair `(tk_i, tk_j)` (indices in rank order, `i < j`) is
//! *eligible* iff
//!
//! * `s_ij ≥ 2` (modulo 0 is undefined, modulo 1 trivial), and
//! * all four rank boundaries `u_i, l_i, u_j, l_j` are ≥ `⌈s_ij/2⌉`,
//!
//! which guarantees the modification rule can zero the pair's remainder
//! in either direction without inverting any ranking.
//!
//! Complexity: pairs whose tokens have a zero boundary are pruned
//! before hashing (tied tails — the dominant case on flat data), and
//! the inner digest `H(R ‖ tk_j)` is computed once per token, so the
//! O(n²) sweep costs one outer SHA-256 per surviving pair — a single
//! compression when `tk_i` is at most 23 bytes. The sweep runs a row
//! (one `tk_i` against every later candidate) at a time through
//! [`outer_moduli`], which pads the row's block once and hashes two
//! pairs at a time.

use crate::params::WeightScheme;
use freqywm_crypto::prf::{inner_digest, outer_moduli, PrfProvider, Secret};
use freqywm_crypto::Digest;
use freqywm_data::histogram::Histogram;

/// An eligible pair, in histogram-rank coordinates (`i < j`, so
/// `f_i ≥ f_j`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EligiblePair {
    /// Rank of the higher-frequency token.
    pub i: usize,
    /// Rank of the lower-frequency token.
    pub j: usize,
    /// The pair modulus `s_ij`.
    pub s: u64,
    /// Current remainder `(f_i − f_j) mod s_ij`.
    pub rm: u64,
}

impl EligiblePair {
    /// The cost the modification rule actually pays:
    /// `min(rm, s − rm)` split across the two tokens.
    pub fn effective_cost(&self) -> u64 {
        self.rm.min(self.s - self.rm)
    }

    /// Matching edge weight under the chosen scheme, with offset `t_big`.
    pub fn weight(&self, scheme: WeightScheme, t_big: i64) -> i64 {
        match scheme {
            WeightScheme::PaperRemainder => t_big - self.rm as i64,
            WeightScheme::EffectiveCost => t_big - self.effective_cost() as i64,
        }
    }
}

/// Enumerates all eligible pairs of `hist` under secret `secret` and
/// modulo base `z`. Pairs are returned in `(i, j)` lexicographic order.
pub fn eligible_pairs(hist: &Histogram, secret: &Secret, z: u64) -> Vec<EligiblePair> {
    eligible_pairs_with_min(hist, secret, z, 2)
}

/// [`eligible_pairs`] with an additional modulus floor: pairs with
/// `s_ij < min_s` are rejected.
///
/// Two deliberate deviations from the paper's rule:
///
/// * the lower boundary of the **last** token is capped at
///   `f_last − 1` instead of `f_last`, so no token can be erased from
///   the dataset entirely (a vanished token makes its pair
///   undetectable in a materialised dataset);
/// * `min_s > 2` lets the owner skip tiny moduli, whose pairs verify
///   trivially once the detection tolerance `t` reaches `s/2` and so
///   raise the false-positive rate on unmarked data (`exp_ablation`
///   measures the trade-off).
pub fn eligible_pairs_with_min(
    hist: &Histogram,
    secret: &Secret,
    z: u64,
    min_s: u64,
) -> Vec<EligiblePair> {
    eligible_pairs_parallel(hist, secret, z, min_s, 1)
}

/// [`eligible_pairs_with_min`] split across `threads` scoped threads
/// (`threads ≤ 1` sweeps on the calling thread). Results are identical
/// to the sequential sweep, in the same `(i, j)` order. Worth it from
/// roughly 10⁶ candidate pairs (the Chicago-Taxi regime, where the SHA
/// sweep dominates Table II's generation time).
pub fn eligible_pairs_parallel(
    hist: &Histogram,
    secret: &Secret,
    z: u64,
    min_s: u64,
    threads: usize,
) -> Vec<EligiblePair> {
    let Some(sweep) = Sweep::prepare(hist, z, min_s) else {
        return Vec::new();
    };
    let entries = hist.entries();
    // Inner digests in candidate order, so row `a` hashes against the
    // contiguous tail `inner[a + 1..]`.
    let inner: Vec<Digest> = sweep
        .candidates
        .iter()
        .map(|&j| inner_digest(secret, entries[j].0.as_bytes()))
        .collect();
    let row = |a: usize, out: &mut Vec<u64>| {
        let tk_i = entries[sweep.candidates[a]].0.as_bytes();
        outer_moduli(tk_i, &inner[a + 1..], z, out)
    };
    let threads = threads.clamp(1, sweep.candidates.len());
    if threads == 1 {
        return sweep.rows(0, 1, row);
    }
    let mut out: Vec<EligiblePair> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let sweep = &sweep;
                let row = &row;
                scope.spawn(move || sweep.rows(t, threads, row))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("eligibility worker panicked"))
            .collect()
    });
    out.sort_unstable_by_key(|p| (p.i, p.j));
    out
}

/// [`eligible_pairs_with_min`] with every `s_ij` drawn from a
/// [`PrfProvider`], called exactly once per swept pair — for callers
/// that count or interpose on the PRF. The direct sweep is faster: it
/// computes each token's inner digest `H(R ‖ tk_j)` once, where a
/// provider recomputes it for every pair.
pub fn eligible_pairs_with_prf<P: PrfProvider + ?Sized>(
    hist: &Histogram,
    secret: &Secret,
    z: u64,
    min_s: u64,
    prf: &P,
) -> Vec<EligiblePair> {
    let Some(sweep) = Sweep::prepare(hist, z, min_s) else {
        return Vec::new();
    };
    let entries = hist.entries();
    let candidates = &sweep.candidates;
    sweep.rows(0, 1, |a, out: &mut Vec<u64>| {
        let tk_i = entries[candidates[a]].0.as_bytes();
        out.clear();
        out.extend(
            candidates[a + 1..]
                .iter()
                .map(|&j| prf.pair_modulus(secret, tk_i, entries[j].0.as_bytes(), z)),
        );
    })
}

/// The candidate set of one sweep: rank counts, the per-token minimum
/// boundary, and the indices that can participate in any pair at all.
///
/// A token with min-boundary `m` can only participate with
/// `ceil(s/2) <= m`, i.e. `s <= 2m`; `m == 0` rules the token out
/// entirely (`s >= 2` always needs `m >= 1`), so pairs of tied tokens
/// are pruned before hashing.
struct Sweep {
    counts: Vec<u64>,
    min_bound: Vec<u64>,
    candidates: Vec<usize>,
    min_s: u64,
}

impl Sweep {
    fn prepare(hist: &Histogram, z: u64, min_s: u64) -> Option<Sweep> {
        let counts = hist.counts();
        let bounds = hist.boundaries();
        if counts.len() < 2 || z < 2 {
            return None;
        }
        let min_bound: Vec<u64> = bounds
            .iter()
            .zip(&counts)
            .map(|(b, &c)| b.upper.min(b.lower.min(c.saturating_sub(1))))
            .collect();
        let candidates: Vec<usize> = (0..counts.len()).filter(|&i| min_bound[i] >= 1).collect();
        if candidates.len() < 2 {
            return None;
        }
        Some(Sweep {
            counts,
            min_bound,
            candidates,
            min_s: min_s.max(2),
        })
    }

    /// The eligible pairs whose first token is candidate `a` for
    /// `a = first, first + stride, …` (a strided split balances the
    /// triangular workload across threads), in `(i, j)` order.
    /// `row(a, out)` fills `out` with the moduli `s_ij` of `i =
    /// candidates[a]` against every later candidate `j`, in order.
    fn rows(
        &self,
        first: usize,
        stride: usize,
        row: impl Fn(usize, &mut Vec<u64>),
    ) -> Vec<EligiblePair> {
        let mut out = Vec::new();
        let mut moduli = Vec::with_capacity(self.candidates.len());
        for a in (first..self.candidates.len()).step_by(stride) {
            let i = self.candidates[a];
            row(a, &mut moduli);
            debug_assert_eq!(moduli.len(), self.candidates.len() - a - 1);
            for (&j, &s) in self.candidates[a + 1..].iter().zip(&moduli) {
                // ceil(s/2) <= cap, in integers (cap may be u64::MAX).
                let cap = self.min_bound[i].min(self.min_bound[j]);
                if s < self.min_s || s.div_ceil(2) > cap {
                    continue;
                }
                let rm = (self.counts[i] - self.counts[j]) % s;
                out.push(EligiblePair { i, j, s, rm });
            }
        }
        out
    }
}

/// The paper's `r_max` (Sec. IV-A1): the largest frequency difference,
/// which upper-bounds the useful range of `z`.
pub fn r_max(hist: &Histogram) -> u64 {
    let counts = hist.counts();
    match (counts.first(), counts.last()) {
        (Some(&hi), Some(&lo)) => hi - lo,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freqywm_data::token::Token;

    fn secret() -> Secret {
        Secret::from_label("eligible-tests")
    }

    fn hist(counts: &[(&str, u64)]) -> Histogram {
        Histogram::from_counts(counts.iter().map(|(t, c)| (Token::new(*t), *c)))
    }

    #[test]
    fn uniform_has_no_eligible_pairs() {
        let h = hist(&[("a", 100), ("b", 100), ("c", 100), ("d", 100)]);
        assert!(eligible_pairs(&h, &secret(), 131).is_empty());
    }

    #[test]
    fn single_token_has_no_pairs() {
        let h = hist(&[("a", 100)]);
        assert!(eligible_pairs(&h, &secret(), 131).is_empty());
    }

    #[test]
    fn z_below_two_yields_nothing() {
        let h = hist(&[("a", 1000), ("b", 500), ("c", 100)]);
        assert!(eligible_pairs(&h, &secret(), 1).is_empty());
        assert!(eligible_pairs(&h, &secret(), 0).is_empty());
    }

    #[test]
    fn well_separated_tokens_are_eligible() {
        // Boundaries are in the hundreds; z = 11 keeps s small, so every
        // pair should pass the boundary rule (given s >= 2).
        let h = hist(&[("a", 10_000), ("b", 8_000), ("c", 6_000), ("d", 4_000)]);
        let pairs = eligible_pairs(&h, &secret(), 11);
        assert!(!pairs.is_empty());
        for p in &pairs {
            assert!(p.i < p.j);
            assert!(p.s >= 2 && p.s < 11);
            assert!(p.rm < p.s);
            let counts = h.counts();
            assert_eq!(p.rm, (counts[p.i] - counts[p.j]) % p.s);
        }
    }

    #[test]
    fn matches_public_prf() {
        // s values must agree with the crypto crate's pair_modulus using
        // the histogram-rank token order.
        let h = hist(&[("alpha", 900), ("beta", 500), ("gamma", 100)]);
        let s = secret();
        let pairs = eligible_pairs(&h, &s, 97);
        for p in pairs {
            let tki = &h.entries()[p.i].0;
            let tkj = &h.entries()[p.j].0;
            let expect = freqywm_crypto::prf::pair_modulus(&s, tki.as_bytes(), tkj.as_bytes(), 97);
            assert_eq!(p.s, expect);
        }
    }

    #[test]
    fn boundary_rule_excludes_tight_pairs() {
        // Adjacent counts differ by 1 -> boundaries 1 -> only s <= 2 pass.
        let h = hist(&[("a", 103), ("b", 102), ("c", 101), ("d", 100)]);
        let pairs = eligible_pairs(&h, &secret(), 1_000);
        for p in pairs {
            assert!(
                p.s <= 2,
                "pair ({}, {}) with s={} should be excluded",
                p.i,
                p.j,
                p.s
            );
        }
    }

    #[test]
    fn tied_tokens_never_pair() {
        let h = hist(&[("a", 500), ("b", 300), ("c", 300), ("d", 50)]);
        let pairs = eligible_pairs(&h, &secret(), 131);
        // Ranks 1 and 2 are tied (boundary 0): they may not appear.
        for p in pairs {
            assert!(p.i != 1 && p.j != 1 && p.i != 2 && p.j != 2);
        }
    }

    #[test]
    fn effective_cost_and_weights() {
        let p = EligiblePair {
            i: 0,
            j: 1,
            s: 100,
            rm: 70,
        };
        assert_eq!(p.effective_cost(), 30);
        assert_eq!(p.weight(WeightScheme::PaperRemainder, 1000), 930);
        assert_eq!(p.weight(WeightScheme::EffectiveCost, 1000), 970);
        let q = EligiblePair {
            i: 0,
            j: 1,
            s: 100,
            rm: 20,
        };
        assert_eq!(q.effective_cost(), 20);
    }

    #[test]
    fn r_max_is_extreme_difference() {
        let h = hist(&[("a", 1_000), ("b", 400), ("c", 37)]);
        assert_eq!(r_max(&h), 963);
        assert_eq!(r_max(&hist(&[])), 0);
        assert_eq!(r_max(&hist(&[("only", 5)])), 0);
    }

    #[test]
    fn min_modulus_filters_small_s() {
        let h = hist(&[
            ("a", 10_000),
            ("b", 8_000),
            ("c", 6_000),
            ("d", 4_000),
            ("e", 2_500),
        ]);
        let all = eligible_pairs(&h, &secret(), 257);
        let floored = eligible_pairs_with_min(&h, &secret(), 257, 50);
        assert!(floored.len() <= all.len());
        assert!(floored.iter().all(|p| p.s >= 50));
        // Every floored pair also appears in the unfloored set.
        for p in &floored {
            assert!(all.contains(p));
        }
    }

    #[test]
    fn last_token_never_driven_to_zero() {
        // Token "d" has f = 6; its paper lower-boundary would be 6
        // (remove everything). Our cap keeps at least one instance:
        // any pair involving the last token must have ceil(s/2) <= 5.
        let h = hist(&[("a", 5_000), ("b", 3_000), ("c", 1_000), ("d", 6)]);
        let pairs = eligible_pairs(&h, &secret(), 1_000);
        for p in pairs {
            if p.j == 3 {
                assert!(p.s.div_ceil(2) <= 5, "pair with last token has s={}", p.s);
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let h = hist(&[
            ("a", 90_000),
            ("b", 81_500),
            ("c", 74_000),
            ("d", 66_000),
            ("e", 59_000),
            ("f", 52_500),
            ("g", 47_000),
            ("h", 41_000),
            ("i", 36_000),
            ("j", 31_000),
            ("k", 27_000),
            ("l", 23_000),
            ("m", 19_500),
            ("n", 16_000),
            ("o", 13_000),
        ]);
        for min_s in [2u64, 8] {
            let seq = eligible_pairs_with_min(&h, &secret(), 257, min_s);
            for threads in [1usize, 2, 4, 7] {
                let par = eligible_pairs_parallel(&h, &secret(), 257, min_s, threads);
                assert_eq!(par, seq, "threads={threads} min_s={min_s}");
            }
        }
    }

    #[test]
    fn provider_sweep_matches_direct() {
        use freqywm_crypto::prf::DirectPrf;
        let h = hist(&[
            ("a", 10_000),
            ("b", 8_000),
            ("c", 6_000),
            ("d", 4_000),
            ("e", 2_500),
            ("f", 1_200),
        ]);
        for min_s in [2u64, 8] {
            let want = eligible_pairs_with_min(&h, &secret(), 257, min_s);
            let got = eligible_pairs_with_prf(&h, &secret(), 257, min_s, &DirectPrf);
            assert_eq!(got, want, "provider sweep diverged");
        }
    }

    #[test]
    fn row_sweep_matches_provider_across_token_lengths() {
        use freqywm_crypto::prf::DirectPrf;
        // Tokens of 1 to 41 bytes: rows on both sides of the 23-byte
        // one-block limit, and odd and even row lengths.
        let counts: Vec<(Token, u64)> = (0..40u64)
            .map(|k| {
                let token = format!("{k}{}", "x".repeat(k as usize));
                (Token::new(token), 50_000 - 1_100 * k)
            })
            .collect();
        let h = Histogram::from_counts(counts);
        for (z, min_s) in [(257u64, 2u64), (1031, 8)] {
            let want = eligible_pairs_with_prf(&h, &secret(), z, min_s, &DirectPrf);
            assert!(!want.is_empty());
            for threads in [1usize, 2, 4] {
                let got = eligible_pairs_parallel(&h, &secret(), z, min_s, threads);
                assert_eq!(got, want, "threads={threads} z={z}");
            }
        }
    }

    #[test]
    fn parallel_degenerate_inputs() {
        let h = hist(&[("a", 5), ("b", 5)]);
        assert!(eligible_pairs_parallel(&h, &secret(), 131, 2, 4).is_empty());
        let h = hist(&[("only", 5)]);
        assert!(eligible_pairs_parallel(&h, &secret(), 131, 2, 4).is_empty());
        let h = hist(&[("a", 1000), ("b", 500)]);
        assert!(eligible_pairs_parallel(&h, &secret(), 1, 2, 4).is_empty());
    }

    #[test]
    fn pair_count_bounded_by_n_choose_2() {
        let h = hist(&[("a", 1000), ("b", 800), ("c", 500), ("d", 200), ("e", 90)]);
        let pairs = eligible_pairs(&h, &secret(), 7);
        assert!(pairs.len() <= 10);
        // Deterministic for a fixed secret.
        assert_eq!(pairs, eligible_pairs(&h, &secret(), 7));
    }
}
