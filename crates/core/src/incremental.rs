//! Incremental FreqyWM (Sec. VI, "Incremental FreqyWM" — the paper's
//! future work, here implemented).
//!
//! A live dataset keeps changing after it was watermarked: new rows
//! arrive, old rows are purged. Re-running full generation after every
//! batch is wasteful (and would mint a brand-new secret list each
//! time). [`IncrementalWatermarker`] maintains an existing watermark
//! under a stream of count updates:
//!
//! 1. check the whole update batch, then apply it to the histogram:
//!    each updated token moves to its new rank in place
//!    ([`Histogram::set_count`]) and tokens at zero are dropped;
//! 2. **repair** every stored pair whose congruence the batch broke,
//!    by re-running the frequency-modification rule on the pair —
//!    provided the repair respects the pair's *current* rank
//!    boundaries, read from the neighbours' counts (the watermark must
//!    never start inverting ranks) — and move both tokens in place;
//! 3. **retire** pairs that can no longer be repaired (a token
//!    vanished, or the boundaries got too tight) — detection simply
//!    loses those pairs;
//! 4. optionally **replenish** retired capacity by selecting fresh
//!    eligible pairs among tokens not already carrying the watermark,
//!    under the original secret and a per-call distortion budget (this
//!    is the "dynamic matching" the paper gestures at; a greedy
//!    re-match of the free vertices is exact for the equally-valued
//!    objective restricted to the unmatched subgraph).
//!
//! The owner's secret list and the histogram are updated in place and
//! never rebuilt, so a batch costs O(updates × rank distance + stored
//! pairs), plus one eligible-pair sweep when replenishing. Detection
//! afterwards is plain [`crate::detect`].

use crate::eligible::{eligible_pairs_with_min, EligiblePair};
use crate::error::{Error, Result};
use crate::modify::pair_deltas;
use crate::params::GenerationParams;
use crate::secret::SecretList;
use freqywm_crypto::prf::pair_moduli;
use freqywm_data::histogram::Histogram;
use freqywm_data::token::Token;
use std::collections::{HashMap, HashSet};

/// Outcome of one incremental maintenance step.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenanceReport {
    /// Pairs whose congruence survived the batch untouched.
    pub intact: usize,
    /// Pairs re-modified to restore the congruence.
    pub repaired: usize,
    /// Pairs dropped (token gone or repair would break the ranking).
    pub retired: usize,
    /// Fresh pairs added from the replenish step.
    pub added: usize,
    /// Total token-instance changes the repairs/additions cost.
    pub total_change: u64,
}

/// Maintains a watermark across histogram updates.
#[derive(Debug, Clone)]
pub struct IncrementalWatermarker {
    params: GenerationParams,
    secrets: SecretList,
    histogram: Histogram,
}

impl IncrementalWatermarker {
    /// Adopts an existing watermarked histogram and its secret list.
    pub fn new(params: GenerationParams, secrets: SecretList, histogram: Histogram) -> Self {
        IncrementalWatermarker {
            params,
            secrets,
            histogram,
        }
    }

    /// Current secret list (pass to [`crate::detect::detect_histogram`]).
    pub fn secrets(&self) -> &SecretList {
        &self.secrets
    }

    /// Current (maintained) histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// The maintained secret list and histogram, by value (what a
    /// caller commits after [`Self::apply_updates`]).
    pub fn into_parts(self) -> (SecretList, Histogram) {
        (self.secrets, self.histogram)
    }

    /// Applies a batch of signed count updates (`(token, delta)`;
    /// unknown tokens with positive deltas are inserted) and repairs
    /// the watermark. `replenish` controls whether retired capacity is
    /// refilled with fresh pairs. A refused batch (a running count
    /// leaving `0..=u64::MAX`, or nothing left) changes nothing.
    pub fn apply_updates(
        &mut self,
        updates: &[(Token, i64)],
        replenish: bool,
    ) -> Result<MaintenanceReport> {
        // 1. Validate the whole batch first: each token's running
        //    count, in batch order, stays in range, and some token
        //    keeps a positive count.
        let hist = &mut self.histogram;
        let mut next: HashMap<&Token, u64> = HashMap::with_capacity(updates.len());
        for (t, d) in updates {
            let count = next.entry(t).or_insert_with(|| hist.count(t).unwrap_or(0));
            *count = count
                .checked_add_signed(*d)
                .ok_or_else(|| Error::CountOutOfRange {
                    token: t.to_string(),
                    count: *count,
                    delta: *d,
                })?;
        }
        let mut positive = hist.entries().partition_point(|(_, c)| *c > 0);
        for (t, &c) in &next {
            let was = hist.count(*t).unwrap_or(0);
            match (was > 0, c > 0) {
                (true, false) => positive -= 1,
                (false, true) => positive += 1,
                _ => {}
            }
        }
        if positive == 0 {
            return Err(Error::EmptyDataset);
        }
        // Then move each updated token to its new rank and drop every
        // token at zero (purged now or already at zero before).
        for (t, c) in next {
            hist.set_count(t, c);
        }
        hist.drop_zero_counts();

        // 2./3. Repair or retire the stored pairs. `s_ij` depends on
        //    the tokens only, so every pair's is hashed up front in one
        //    batch.
        let moduli = {
            let pairs: Vec<(&[u8], &[u8])> = self
                .secrets
                .pairs
                .iter()
                .map(|(a, b)| (a.as_bytes(), b.as_bytes()))
                .collect();
            let mut moduli = Vec::with_capacity(pairs.len());
            pair_moduli(&self.secrets.secret, &pairs, self.secrets.z, &mut moduli);
            moduli
        };
        let mut intact = 0usize;
        let mut repaired = 0usize;
        let mut retired = 0usize;
        let mut total_change = 0u64;
        let mut kept: Vec<(Token, Token)> = Vec::with_capacity(self.secrets.pairs.len());
        for ((a, b), s) in std::mem::take(&mut self.secrets.pairs)
            .into_iter()
            .zip(moduli)
        {
            let (Some(fa), Some(fb)) = (hist.count(&a), hist.count(&b)) else {
                retired += 1;
                continue;
            };
            if s < 2 {
                retired += 1;
                continue;
            }
            if fa.abs_diff(fb) % s == 0 {
                intact += 1;
                kept.push((a, b));
                continue;
            }
            // Re-run the modification rule on the *current* counts;
            // the repair is only legal if it fits the current
            // boundaries of both tokens (ranking must stay intact).
            let (hi_tok, lo_tok, hi, lo) = if fa >= fb {
                (&a, &b, fa, fb)
            } else {
                (&b, &a, fb, fa)
            };
            let (d_hi, d_lo) = pair_deltas(hi, lo, s);
            match (
                repaired_count(hist, hi_tok, d_hi),
                repaired_count(hist, lo_tok, d_lo),
            ) {
                (Some(new_hi), Some(new_lo)) => {
                    total_change += d_hi.unsigned_abs() + d_lo.unsigned_abs();
                    hist.set_count(hi_tok, new_hi);
                    hist.set_count(lo_tok, new_lo);
                    repaired += 1;
                    kept.push((a, b));
                }
                _ => retired += 1,
            }
        }
        self.secrets.pairs = kept;

        // 4. Replenish: greedy re-match over vertices not already used.
        let mut added = 0usize;
        if replenish && retired > 0 {
            let used: HashSet<&Token> = self
                .secrets
                .pairs
                .iter()
                .flat_map(|(a, b)| [a, b])
                .collect();
            let eligible = eligible_pairs_with_min(
                hist,
                &self.secrets.secret,
                self.secrets.z,
                self.params.min_modulus,
            );
            let mut fresh: Vec<EligiblePair> = eligible
                .into_iter()
                .filter(|p| {
                    let ta = &hist.entries()[p.i].0;
                    let tb = &hist.entries()[p.j].0;
                    !used.contains(ta)
                        && !used.contains(tb)
                        && (!self.params.exclude_free_pairs || p.rm != 0)
                })
                .collect();
            fresh.sort_by_key(|p| (p.effective_cost(), p.i, p.j));
            let mut claimed: HashSet<usize> = HashSet::new();
            let mut new_counts: Vec<(Token, u64)> = Vec::new();
            for p in fresh {
                if added >= retired {
                    break;
                }
                if claimed.contains(&p.i) || claimed.contains(&p.j) {
                    continue;
                }
                let (ta, ci) = hist.entries()[p.i].clone();
                let (tb, cj) = hist.entries()[p.j].clone();
                let (di, dj) = pair_deltas(ci, cj, p.s);
                total_change += di.unsigned_abs() + dj.unsigned_abs();
                let moved = |c: u64, d| c.checked_add_signed(d).expect("eligible moves fit");
                new_counts.push((ta.clone(), moved(ci, di)));
                new_counts.push((tb.clone(), moved(cj, dj)));
                claimed.insert(p.i);
                claimed.insert(p.j);
                self.secrets.pairs.push((ta, tb));
                added += 1;
            }
            // The fresh pairs are chosen on the counts before any of
            // them moves, then moved together.
            for (t, c) in &new_counts {
                hist.set_count(t, *c);
            }
        }

        Ok(MaintenanceReport {
            intact,
            repaired,
            retired,
            added,
            total_change,
        })
    }
}

/// `token`'s count after moving it by `delta`, if that keeps it inside
/// its current rank boundaries (weak ranking preserved) and above zero.
fn repaired_count(hist: &Histogram, token: &Token, delta: i64) -> Option<u64> {
    let rank = hist.rank_of(token)?;
    let count = hist.entries()[rank].1;
    let b = hist.boundaries_at(rank);
    let fits = if delta >= 0 {
        b.upper == u64::MAX || delta.unsigned_abs() <= b.upper
    } else {
        delta.unsigned_abs() <= b.lower.min(count.saturating_sub(1))
    };
    count.checked_add_signed(delta).filter(|_| fits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_histogram;
    use crate::generate::Watermarker;
    use crate::params::DetectionParams;
    use freqywm_crypto::prf::Secret;
    use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};

    fn setup() -> IncrementalWatermarker {
        let hist = Histogram::from_counts(power_law_counts(&PowerLawConfig {
            distinct_tokens: 150,
            sample_size: 300_000,
            alpha: 0.6,
        }));
        let params = GenerationParams::default().with_z(101);
        let out = Watermarker::new(params)
            .generate_histogram(&hist, Secret::from_label("incremental"))
            .unwrap();
        IncrementalWatermarker::new(params, out.secrets, out.watermarked)
    }

    fn verify_all(inc: &IncrementalWatermarker) -> bool {
        let params = DetectionParams::default()
            .with_t(0)
            .with_k(inc.secrets().len());
        detect_histogram(inc.histogram(), inc.secrets(), &params).accepted
    }

    #[test]
    fn no_op_batch_keeps_everything_intact() {
        let mut inc = setup();
        let n = inc.secrets().len();
        let report = inc.apply_updates(&[], false).unwrap();
        assert_eq!(report.intact, n);
        assert_eq!(report.repaired + report.retired + report.added, 0);
        assert!(verify_all(&inc));
    }

    #[test]
    fn small_updates_get_repaired() {
        let mut inc = setup();
        // Nudge the two hottest watermarked tokens by +1 each: their
        // pairs break and must be repaired.
        let victims: Vec<Token> = inc.secrets().pairs[..3]
            .iter()
            .map(|(a, _)| a.clone())
            .collect();
        let updates: Vec<(Token, i64)> = victims.into_iter().map(|t| (t, 1)).collect();
        let report = inc.apply_updates(&updates, false).unwrap();
        assert!(report.repaired >= 1, "{report:?}");
        assert!(verify_all(&inc), "all surviving pairs must verify exactly");
    }

    #[test]
    fn organic_growth_then_detection() {
        let mut inc = setup();
        let before_pairs = inc.secrets().len();
        // Simulate organic growth: every 5th token gains 0.5% volume.
        let updates: Vec<(Token, i64)> = inc
            .histogram()
            .entries()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 5 == 0)
            .map(|(_, (t, c))| (t.clone(), ((*c / 200) + 1) as i64))
            .collect();
        let report = inc.apply_updates(&updates, true).unwrap();
        assert_eq!(
            report.intact + report.repaired + report.retired,
            before_pairs
        );
        assert!(verify_all(&inc));
        // The maintained watermark retains most of its capacity.
        assert!(
            inc.secrets().len() * 10 >= before_pairs * 7,
            "{} of {before_pairs} pairs survive",
            inc.secrets().len()
        );
    }

    #[test]
    fn vanished_token_retires_its_pair_and_replenishes() {
        let mut inc = setup();
        let before = inc.secrets().len();
        // Purge one watermarked token entirely.
        let (victim, _) = inc.secrets().pairs[0].clone();
        let count = inc.histogram().count(&victim).unwrap();
        let report = inc
            .apply_updates(&[(victim.clone(), -(count as i64))], true)
            .unwrap();
        assert!(report.retired >= 1);
        assert!(inc.histogram().count(&victim).is_none());
        // Replenishment keeps capacity close to the original.
        assert!(inc.secrets().len() + report.retired >= before, "{report:?}");
        assert!(verify_all(&inc));
    }

    #[test]
    fn ranking_never_breaks_across_batches() {
        let mut inc = setup();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..5 {
            let snapshot = inc.histogram().clone();
            let mut updates: Vec<(Token, i64)> = Vec::new();
            for (t, c) in snapshot.entries() {
                if rng.gen::<f64>() < 0.1 {
                    updates.push((t.clone(), rng.gen_range(0..=(*c / 100 + 2)) as i64));
                }
            }
            inc.apply_updates(&updates, true).unwrap();
            assert!(verify_all(&inc));
        }
    }

    #[test]
    fn negative_update_below_zero_is_an_error() {
        let mut inc = setup();
        let (t, c) = inc.histogram().entries()[0].clone();
        let err = inc
            .apply_updates(&[(t, -(c as i64) - 10)], false)
            .unwrap_err();
        assert!(matches!(err, Error::CountOutOfRange { .. }));
    }

    #[test]
    fn counts_past_i64_max_neither_wrap_nor_refuse() {
        // A stored count of 10^19 takes +1, and +9·10^18 on it (past
        // u64::MAX) is refused naming the token, leaving state as is.
        let big = Token::new("big");
        let hist = Histogram::from_counts([
            (big.clone(), 10_000_000_000_000_000_000),
            (Token::new("small"), 5),
        ]);
        let secrets = SecretList::new(Vec::new(), Secret::from_label("big"), 101);
        let mut inc = IncrementalWatermarker::new(GenerationParams::default(), secrets, hist);
        inc.apply_updates(&[(big.clone(), 1)], false).unwrap();
        assert_eq!(
            inc.histogram().count(&big),
            Some(10_000_000_000_000_000_001)
        );
        let before = inc.histogram().clone();
        let err = inc
            .apply_updates(&[(big.clone(), 9_000_000_000_000_000_000)], false)
            .unwrap_err();
        assert_eq!(
            err,
            Error::CountOutOfRange {
                token: "big".into(),
                count: 10_000_000_000_000_000_001,
                delta: 9_000_000_000_000_000_000,
            }
        );
        assert_eq!(inc.histogram(), &before);
    }

    /// The maintenance algorithm as it was before the in-place moves:
    /// the histogram is rebuilt from a count map after the batch and
    /// after every repair, and every boundary check reads a full
    /// `boundaries()` vector. Its errors are only compared for
    /// presence.
    fn rebuild_reference(
        params: &GenerationParams,
        secrets: &mut SecretList,
        histogram: &mut Histogram,
        updates: &[(Token, i64)],
        replenish: bool,
    ) -> Result<MaintenanceReport> {
        fn rebuilt(hist: &Histogram, changes: &[(Token, i64)]) -> Histogram {
            let mut counts: HashMap<Token, u64> = hist.entries().iter().cloned().collect();
            for (t, d) in changes {
                let c = counts.get_mut(t).unwrap();
                *c = (*c as i64 + d) as u64;
            }
            Histogram::from_counts(counts)
        }
        fn fits(hist: &Histogram, token: &Token, delta: i64) -> bool {
            let Some(rank) = hist.rank_of(token) else {
                return false;
            };
            if delta == 0 {
                return true;
            }
            let b = hist.boundaries()[rank];
            let count = hist.count(token).unwrap();
            if delta > 0 {
                b.upper == u64::MAX || delta as u64 <= b.upper
            } else {
                (-delta) as u64 <= b.lower.min(count.saturating_sub(1))
            }
        }
        let mut counts: HashMap<Token, u64> = histogram.entries().iter().cloned().collect();
        for (t, d) in updates {
            let entry = counts.entry(t.clone()).or_insert(0);
            let next = (*entry as i64).checked_add(*d).ok_or(Error::EmptyDataset)?;
            if next < 0 {
                return Err(Error::MalformedSecret(format!("{t} below zero")));
            }
            *entry = next as u64;
        }
        counts.retain(|_, c| *c > 0);
        let mut hist = Histogram::from_counts(counts);
        if hist.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let (mut intact, mut repaired, mut retired, mut total_change) = (0, 0, 0, 0u64);
        let mut kept = Vec::new();
        for (a, b) in std::mem::take(&mut secrets.pairs) {
            let s = freqywm_crypto::prf::pair_modulus(
                &secrets.secret,
                a.as_bytes(),
                b.as_bytes(),
                secrets.z,
            );
            let (Some(fa), Some(fb)) = (hist.count(&a), hist.count(&b)) else {
                retired += 1;
                continue;
            };
            if s < 2 {
                retired += 1;
                continue;
            }
            if fa.abs_diff(fb) % s == 0 {
                intact += 1;
                kept.push((a, b));
                continue;
            }
            let (hi_tok, lo_tok, hi, lo) = if fa >= fb {
                (&a, &b, fa, fb)
            } else {
                (&b, &a, fb, fa)
            };
            let (d_hi, d_lo) = pair_deltas(hi, lo, s);
            if fits(&hist, hi_tok, d_hi) && fits(&hist, lo_tok, d_lo) {
                total_change += d_hi.unsigned_abs() + d_lo.unsigned_abs();
                hist = rebuilt(&hist, &[(hi_tok.clone(), d_hi), (lo_tok.clone(), d_lo)]);
                repaired += 1;
                kept.push((a, b));
            } else {
                retired += 1;
            }
        }
        secrets.pairs = kept;
        let mut added = 0;
        if replenish && retired > 0 {
            let used: HashSet<Token> = secrets
                .pairs
                .iter()
                .flat_map(|(a, b)| [a.clone(), b.clone()])
                .collect();
            let mut fresh: Vec<EligiblePair> =
                eligible_pairs_with_min(&hist, &secrets.secret, secrets.z, params.min_modulus)
                    .into_iter()
                    .filter(|p| {
                        !used.contains(&hist.entries()[p.i].0)
                            && !used.contains(&hist.entries()[p.j].0)
                            && (!params.exclude_free_pairs || p.rm != 0)
                    })
                    .collect();
            fresh.sort_by_key(|p| (p.effective_cost(), p.i, p.j));
            let mut claimed: HashSet<usize> = HashSet::new();
            let mut changes = Vec::new();
            for p in fresh {
                if added >= retired {
                    break;
                }
                if claimed.contains(&p.i) || claimed.contains(&p.j) {
                    continue;
                }
                let counts = hist.counts();
                let (di, dj) = pair_deltas(counts[p.i], counts[p.j], p.s);
                let ta = hist.entries()[p.i].0.clone();
                let tb = hist.entries()[p.j].0.clone();
                total_change += di.unsigned_abs() + dj.unsigned_abs();
                changes.push((ta.clone(), di));
                changes.push((tb.clone(), dj));
                claimed.insert(p.i);
                claimed.insert(p.j);
                secrets.pairs.push((ta, tb));
                added += 1;
            }
            hist = rebuilt(&hist, &changes);
        }
        *histogram = hist;
        Ok(MaintenanceReport {
            intact,
            repaired,
            retired,
            added,
            total_change,
        })
    }

    /// A seeded batch over `hist`: raises, cuts and purges of known
    /// tokens (some repeated within the batch), newcomers, updates of
    /// tokens at zero and, now and then, a cut below zero.
    fn random_batch(
        rng: &mut rand::rngs::StdRng,
        hist: &Histogram,
        round: usize,
    ) -> Vec<(Token, i64)> {
        use rand::Rng;
        let entries = hist.entries();
        let mut batch: Vec<(Token, i64)> = Vec::new();
        for _ in 0..rng.gen_range(0..12usize) {
            let (t, c) = &entries[rng.gen_range(0..entries.len())];
            let c = *c as i64;
            let d = match rng.gen_range(0..10u32) {
                0 => -c,
                1 if c > 0 => -rng.gen_range(0..c),
                2 => -(c + 1),
                3 => 0,
                _ => rng.gen_range(1..=c / 20 + 4),
            };
            batch.push((t.clone(), d));
            if rng.gen_bool(0.2) {
                // The same token again, within the batch.
                batch.push((t.clone(), rng.gen_range(-3..=3i64)));
            }
        }
        if rng.gen_bool(0.3) {
            let n = rng.gen_range(1..4usize);
            for k in 0..n {
                let d = if rng.gen_bool(0.8) {
                    rng.gen_range(1..4000i64)
                } else {
                    0
                };
                batch.push((Token::new(format!("new-{round}-{k}")), d));
            }
        }
        // Keep refusals rare, so most rounds exercise the repairs.
        if rng.gen_bool(0.85) {
            batch.retain(|(t, d)| hist.count(t).unwrap_or(0) as i64 + d >= 0 || *d >= 0);
        }
        batch
    }

    /// Two histograms to maintain: a generated watermark over distinct
    /// power-law counts, and random pairs over counts in tie runs with
    /// tokens already at zero.
    fn equivalence_starts() -> Vec<(GenerationParams, SecretList, Histogram)> {
        use rand::{Rng, SeedableRng};
        let inc = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let tied = Histogram::from_counts((0..120).map(|i| {
            let c = if i % 10 == 0 {
                0
            } else {
                50 * rng.gen_range(0..12u64) + rng.gen_range(0..3u64)
            };
            (Token::new(format!("tie-{i:03}")), c)
        }));
        let tokens: Vec<Token> = tied.tokens().cloned().collect();
        let pairs = (0..30)
            .map(|k| {
                (
                    tokens[2 * k].clone(),
                    tokens[2 * k + 1 + rng.gen_range(0..40usize)].clone(),
                )
            })
            .filter(|(a, b)| a != b)
            .collect();
        vec![
            (inc.params, inc.secrets, inc.histogram),
            (
                GenerationParams::default().with_z(31),
                SecretList::new(pairs, Secret::from_label("ties"), 31),
                tied,
            ),
        ]
    }

    #[test]
    fn in_place_maintenance_equals_the_rebuild_algorithm() {
        use rand::SeedableRng;
        let mut outcomes = [0usize; 3];
        for (start, (params, secrets, hist)) in equivalence_starts().into_iter().enumerate() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(40 + start as u64);
            let mut inc = IncrementalWatermarker::new(params, secrets.clone(), hist.clone());
            let (mut ref_secrets, mut ref_hist) = (secrets, hist);
            for round in 0..150 {
                let batch = random_batch(&mut rng, inc.histogram(), round);
                let replenish = round % 3 == 0;
                let before = (inc.secrets().clone(), inc.histogram().clone());
                let got = inc.apply_updates(&batch, replenish);
                let want =
                    rebuild_reference(&params, &mut ref_secrets, &mut ref_hist, &batch, replenish);
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got, want, "start {start} round {round}: {batch:?}");
                        outcomes[usize::from(got.repaired > 0)] += 1;
                    }
                    (Err(_), Err(_)) => {
                        assert_eq!((inc.secrets(), inc.histogram()), (&before.0, &before.1));
                        outcomes[2] += 1;
                    }
                    (got, want) => panic!("start {start} round {round}: {got:?} vs {want:?}"),
                }
                assert_eq!(inc.secrets(), &ref_secrets, "start {start} round {round}");
                assert_eq!(inc.histogram(), &ref_hist, "start {start} round {round}");
            }
        }
        // Every kind of outcome occurred: no repair, repairs, refusals.
        assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
    }

    #[test]
    fn purging_every_token_is_refused_and_changes_nothing() {
        let mut inc = setup();
        let before = inc.clone();
        let purge: Vec<(Token, i64)> = inc
            .histogram()
            .entries()
            .iter()
            .map(|(t, c)| (t.clone(), -(*c as i64)))
            .collect();
        assert_eq!(inc.apply_updates(&purge, true), Err(Error::EmptyDataset));
        assert_eq!(inc.histogram(), before.histogram());
        assert_eq!(inc.secrets(), before.secrets());
    }

    #[test]
    fn a_repair_that_would_empty_a_token_retires_its_pair() {
        let (hi, lo) = (Token::new("hi"), Token::new("lo"));
        let secret = Secret::from_label("empty");
        let s = freqywm_crypto::prf::pair_modulus(&secret, hi.as_bytes(), lo.as_bytes(), 101);
        assert!(s > 4, "s = {s}");
        // A difference of 2s − 2 leaves rm = s − 2 > s/2: the repair
        // asks the last-ranked token for −1, its whole count.
        let hist = Histogram::from_counts([(hi.clone(), 2 * s - 1), (lo.clone(), 1)]);
        let secrets = SecretList::new(vec![(hi, lo)], secret, 101);
        let mut inc =
            IncrementalWatermarker::new(GenerationParams::default(), secrets, hist.clone());
        let report = inc.apply_updates(&[], false).unwrap();
        assert_eq!(report.retired, 1, "{report:?}");
        assert_eq!(inc.histogram(), &hist);
    }

    #[test]
    fn new_tokens_can_join_the_watermark() {
        let mut inc = setup();
        // Retire a pair by purging a token, then add brand-new tokens
        // with comfortable counts; replenish may pick them up.
        let (victim, _) = inc.secrets().pairs[0].clone();
        let count = inc.histogram().count(&victim).unwrap();
        let mut updates: Vec<(Token, i64)> = vec![(victim, -(count as i64))];
        for i in 0..10 {
            updates.push((Token::new(format!("newcomer-{i}")), 5_000 + 137 * i));
        }
        let report = inc.apply_updates(&updates, true).unwrap();
        assert!(report.added >= 1, "{report:?}");
        assert!(verify_all(&inc));
    }
}
