//! Frequency histograms and rank boundaries (Sec. III-B1).
//!
//! `Preprocess(D_o)` builds the histogram: unique tokens sorted in
//! descending frequency order. For each rank `i` the paper defines
//!
//! * upper boundary `u_0 = ∞`, `u_i = f_{i−1} − f_i`,
//! * lower boundary `l_i = f_i − f_{i+1}`, `l_last = f_last`,
//!
//! i.e. how far a token's frequency may move without touching its
//! neighbours' frequencies — the eligibility rule checks the boundaries
//! against `⌈s_ij/2⌉` to guarantee the Ranking Constraint.

use crate::token::Token;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Movement allowance of one histogram entry. `upper == u64::MAX`
/// encodes the unbounded allowance of the top-ranked token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Boundaries {
    pub upper: u64,
    pub lower: u64,
}

/// A token-frequency histogram sorted descending by frequency
/// (ties broken by token text for determinism).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    entries: Vec<(Token, u64)>,
    index: HashMap<Token, usize>,
}

impl Histogram {
    /// Builds a histogram by counting tokens.
    pub fn from_tokens<I>(tokens: I) -> Self
    where
        I: IntoIterator<Item = Token>,
    {
        let mut counts: HashMap<Token, u64> = HashMap::new();
        for t in tokens {
            *counts.entry(t).or_insert(0) += 1;
        }
        Self::from_counts(counts)
    }

    /// Builds a histogram from precomputed counts. Tokens with zero
    /// count are kept (a watermark may drive a count to zero and
    /// detection must still see the token).
    pub fn from_counts<I>(counts: I) -> Self
    where
        I: IntoIterator<Item = (Token, u64)>,
    {
        let mut entries: Vec<(Token, u64)> = counts.into_iter().collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let index = entries
            .iter()
            .enumerate()
            .map(|(i, (t, _))| (t.clone(), i))
            .collect();
        Histogram { entries, index }
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of all frequencies (the dataset size).
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|(_, c)| c).sum()
    }

    /// `(token, frequency)` pairs in rank order.
    pub fn entries(&self) -> &[(Token, u64)] {
        &self.entries
    }

    /// Frequency of `token`, if present; looked up by a `&Token` or by
    /// its text as a `&str`.
    pub fn count<Q>(&self, token: &Q) -> Option<u64>
    where
        Token: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.index.get(token).map(|&i| self.entries[i].1)
    }

    /// Rank (0 = most frequent) of `token`, if present.
    pub fn rank_of(&self, token: &Token) -> Option<usize> {
        self.index.get(token).copied()
    }

    /// The frequency vector in rank order.
    pub fn counts(&self) -> Vec<u64> {
        self.entries.iter().map(|(_, c)| *c).collect()
    }

    /// Tokens in rank order.
    pub fn tokens(&self) -> impl Iterator<Item = &Token> {
        self.entries.iter().map(|(t, _)| t)
    }

    /// Boundaries of the entry at `rank`, read from its two
    /// neighbours' counts: `(∞, f)` for a single entry. Panics if
    /// `rank` is out of range.
    pub fn boundaries_at(&self, rank: usize) -> Boundaries {
        let f = self.entries[rank].1;
        let upper = match rank.checked_sub(1) {
            Some(above) => self.entries[above].1 - f,
            None => u64::MAX,
        };
        let lower = match self.entries.get(rank + 1) {
            Some((_, below)) => f - below,
            None => f,
        };
        Boundaries { upper, lower }
    }

    /// Rank boundaries per entry (see module docs). Empty histogram
    /// yields an empty vector.
    pub fn boundaries(&self) -> Vec<Boundaries> {
        (0..self.len()).map(|i| self.boundaries_at(i)).collect()
    }

    /// Sets `token`'s count, inserting the token if it is unknown, and
    /// moves its entry to the rank [`Self::from_counts`] would give it
    /// (count descending, ties by token text). Only the entries between
    /// the old and the new rank shift, and only theirs are re-indexed.
    pub fn set_count(&mut self, token: &Token, count: u64) {
        let from = match self.index.get(token) {
            Some(&i) => i,
            None => {
                self.index.insert(token.clone(), self.entries.len());
                self.entries.push((token.clone(), count));
                self.entries.len() - 1
            }
        };
        self.entries[from].1 = count;
        // Every other entry is still in rank order, so each side of
        // `from` splits into "ranks before `token`" and "after".
        let before = |(t, c): &(Token, u64)| *c > count || (*c == count && t < token);
        let up = self.entries[..from].partition_point(before);
        let down = from + self.entries[from + 1..].partition_point(before);
        let moved = if up < from {
            self.entries[up..=from].rotate_right(1);
            up..from + 1
        } else if down > from {
            self.entries[from..=down].rotate_left(1);
            from..down + 1
        } else {
            return;
        };
        for i in moved {
            *self.index.get_mut(&self.entries[i].0).expect("indexed") = i;
        }
    }

    /// Drops every token whose count is zero (they rank last).
    pub fn drop_zero_counts(&mut self) {
        let keep = self.entries.partition_point(|(_, c)| *c > 0);
        for (t, _) in self.entries.drain(keep..) {
            self.index.remove(&t);
        }
    }

    /// Returns a histogram with the given signed count changes applied,
    /// each moving its token to its new rank. Panics if a change would
    /// drive a count negative (or past `u64::MAX`) or references an
    /// unknown token.
    pub fn with_changes(&self, changes: &[(Token, i64)]) -> Histogram {
        let mut out = self.clone();
        for (t, d) in changes {
            let c = out
                .count(t)
                .unwrap_or_else(|| panic!("unknown token in change set: {t}"));
            let next = c
                .checked_add_signed(*d)
                .unwrap_or_else(|| panic!("change drives count of {t} negative or out of range"));
            out.set_count(t, next);
        }
        out
    }

    /// Scales every count by `factor` (rounding to nearest), the
    /// detector's counter-move against sampling attacks (Sec. V-B).
    pub fn scaled(&self, factor: f64) -> Histogram {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        Histogram::from_counts(
            self.entries
                .iter()
                .map(|(t, c)| (t.clone(), (*c as f64 * factor).round() as u64)),
        )
    }

    /// Paired count vectors over the token union of `self` and `other`
    /// (self's rank order first, then tokens unique to `other`).
    /// Missing tokens count 0 — the input for any [`Similarity`] metric.
    ///
    /// [`Similarity`]: https://docs.rs/freqywm-stats
    pub fn paired_counts(&self, other: &Histogram) -> (Vec<u64>, Vec<u64>) {
        let mut a = Vec::with_capacity(self.len());
        let mut b = Vec::with_capacity(self.len());
        for (t, c) in &self.entries {
            a.push(*c);
            b.push(other.count(t).unwrap_or(0));
        }
        for (t, c) in &other.entries {
            if self.count(t).is_none() {
                a.push(0);
                b.push(*c);
            }
        }
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tk(s: &str) -> Token {
        Token::new(s)
    }

    fn running_example() -> Histogram {
        // Figure 1 of the paper.
        Histogram::from_counts([
            (tk("Youtube"), 1098),
            (tk("Facebook"), 980),
            (tk("Google"), 674),
            (tk("Instagram"), 537),
            (tk("BBC"), 64),
            (tk("CNN"), 53),
            (tk("El Pais"), 53),
        ])
    }

    #[test]
    fn sorted_descending_with_deterministic_ties() {
        let h = running_example();
        let tokens: Vec<&str> = h.tokens().map(|t| t.as_str()).collect();
        assert_eq!(
            tokens,
            vec![
                "Youtube",
                "Facebook",
                "Google",
                "Instagram",
                "BBC",
                "CNN",
                "El Pais"
            ]
        );
    }

    #[test]
    fn counting_from_tokens() {
        let h = Histogram::from_tokens(["a", "b", "a", "c", "a", "b"].into_iter().map(Token::new));
        assert_eq!(h.count(&tk("a")), Some(3));
        assert_eq!(h.count(&tk("b")), Some(2));
        assert_eq!(h.count(&tk("c")), Some(1));
        assert_eq!(h.count(&tk("zzz")), None);
        assert_eq!(h.total(), 6);
        assert_eq!(h.rank_of(&tk("a")), Some(0));
    }

    #[test]
    fn boundaries_match_paper_rules() {
        let h = running_example();
        let b = h.boundaries();
        // u_0 = ∞
        assert_eq!(b[0].upper, u64::MAX);
        // l_0 = 1098 - 980
        assert_eq!(b[0].lower, 118);
        // u_1 = 1098 - 980, l_1 = 980 - 674
        assert_eq!(b[1].upper, 118);
        assert_eq!(b[1].lower, 306);
        // Tied tail: CNN and El Pais both 53 -> boundary 0 between them.
        assert_eq!(b[5].lower, 0);
        assert_eq!(b[6].upper, 0);
        // Last lower boundary = its own frequency.
        assert_eq!(b[6].lower, 53);
    }

    #[test]
    fn single_entry_boundaries() {
        let h = Histogram::from_counts([(tk("only"), 42)]);
        let b = h.boundaries();
        assert_eq!(
            b,
            vec![Boundaries {
                upper: u64::MAX,
                lower: 42
            }]
        );
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::from_counts(std::iter::empty::<(Token, u64)>());
        assert!(h.is_empty());
        assert!(h.boundaries().is_empty());
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn uniform_histogram_has_zero_interior_boundaries() {
        // The paper: uniform frequencies leave no eligible pairs.
        let h = Histogram::from_counts((0..10).map(|i| (tk(&format!("t{i}")), 100)));
        let b = h.boundaries();
        for (i, bi) in b.iter().enumerate() {
            if i > 0 {
                assert_eq!(bi.upper, 0);
            }
            if i + 1 < b.len() {
                assert_eq!(bi.lower, 0);
            }
        }
    }

    #[test]
    fn with_changes_applies_the_running_example() {
        let h = running_example();
        let w = h.with_changes(&[(tk("Youtube"), -23), (tk("Instagram"), 22)]);
        assert_eq!(w.count(&tk("Youtube")), Some(1075));
        assert_eq!(w.count(&tk("Instagram")), Some(559));
        // Ranking preserved.
        assert_eq!(w.rank_of(&tk("Youtube")), Some(0));
        assert_eq!(w.rank_of(&tk("Instagram")), Some(3));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn with_changes_rejects_negative_counts() {
        running_example().with_changes(&[(tk("CNN"), -100)]);
    }

    #[test]
    #[should_panic(expected = "unknown token")]
    fn with_changes_rejects_unknown_token() {
        running_example().with_changes(&[(tk("nope"), 1)]);
    }

    #[test]
    fn scaled_rounds_counts() {
        let h = Histogram::from_counts([(tk("a"), 10), (tk("b"), 5)]);
        let s = h.scaled(10.0);
        assert_eq!(s.count(&tk("a")), Some(100));
        assert_eq!(s.count(&tk("b")), Some(50));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_rejects_nonpositive() {
        running_example().scaled(0.0);
    }

    #[test]
    fn paired_counts_over_union() {
        let a = Histogram::from_counts([(tk("x"), 5), (tk("y"), 3)]);
        let b = Histogram::from_counts([(tk("y"), 2), (tk("z"), 7)]);
        let (va, vb) = a.paired_counts(&b);
        // a's order: x(5), y(3); then b-only z.
        assert_eq!(va, vec![5, 3, 0]);
        assert_eq!(vb, vec![0, 2, 7]);
    }

    proptest! {
        #[test]
        fn boundaries_are_consistent(counts in proptest::collection::vec(0u64..1000, 1..50)) {
            let h = Histogram::from_counts(
                counts.iter().enumerate().map(|(i, &c)| (tk(&format!("t{i}")), c)),
            );
            let f = h.counts();
            let b = h.boundaries();
            for i in 0..f.len() {
                if i > 0 {
                    prop_assert_eq!(b[i].upper, f[i-1] - f[i]);
                    prop_assert_eq!(b[i].upper, b[i-1].lower);
                }
                if i + 1 == f.len() {
                    prop_assert_eq!(b[i].lower, f[i]);
                }
            }
            // Sorted descending.
            for w in f.windows(2) {
                prop_assert!(w[0] >= w[1]);
            }
        }

        #[test]
        fn in_place_moves_equal_a_rebuild(
            start in proptest::collection::vec(0u64..8, 0..30),
            moves in proptest::collection::vec((0usize..40, 0u64..8), 0..60),
        ) {
            // Few distinct counts, so most moves cross tie runs; token
            // ids past `start` insert, and zero counts stay in.
            let name = |i: usize| tk(&format!("t{i:02}"));
            let mut h = Histogram::from_counts(
                start.iter().enumerate().map(|(i, &c)| (name(i), c)),
            );
            let mut counts: std::collections::BTreeMap<Token, u64> =
                h.entries().iter().cloned().collect();
            for (i, c) in moves {
                h.set_count(&name(i), c);
                counts.insert(name(i), c);
                prop_assert_eq!(&h, &Histogram::from_counts(counts.clone()));
            }
            h.drop_zero_counts();
            counts.retain(|_, c| *c > 0);
            prop_assert_eq!(&h, &Histogram::from_counts(counts));
        }

        #[test]
        fn total_preserved_by_counting(tokens in proptest::collection::vec(0u8..20, 0..200)) {
            let h = Histogram::from_tokens(tokens.iter().map(|t| tk(&format!("t{t}"))));
            prop_assert_eq!(h.total() as usize, tokens.len());
        }
    }
}
