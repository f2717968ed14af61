//! Incremental FreqyWM (Sec. VI, "Incremental FreqyWM" — the paper's
//! future work, here implemented).
//!
//! A live dataset keeps changing after it was watermarked: new rows
//! arrive, old rows are purged. Re-running full generation after every
//! batch is wasteful (and would mint a brand-new secret list each
//! time). [`IncrementalWatermarker`] maintains an existing watermark
//! under a stream of count updates:
//!
//! 1. apply the raw update batch to the histogram;
//! 2. **repair** every stored pair whose congruence the batch broke,
//!    by re-running the frequency-modification rule on the pair —
//!    provided the repair respects the pair's *current* rank
//!    boundaries (the watermark must never start inverting ranks);
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
//! The owner's secret list is updated in place; detection afterwards is
//! plain [`crate::detect`].

use crate::eligible::{eligible_pairs_with_min, EligiblePair};
use crate::error::{Error, Result};
use crate::modify::pair_deltas;
use crate::params::GenerationParams;
use crate::secret::SecretList;
use freqywm_crypto::prf::pair_moduli;
use freqywm_data::histogram::Histogram;
use freqywm_data::token::Token;
use std::collections::HashSet;

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

    /// Applies a batch of signed count updates (`(token, delta)`;
    /// unknown tokens with positive deltas are inserted) and repairs
    /// the watermark. `replenish` controls whether retired capacity is
    /// refilled with fresh pairs.
    pub fn apply_updates(
        &mut self,
        updates: &[(Token, i64)],
        replenish: bool,
    ) -> Result<MaintenanceReport> {
        // 1. Raw batch -> new histogram (clamping at zero; a purge
        //    below zero is a caller bug we surface loudly).
        let mut counts: std::collections::HashMap<Token, u64> =
            self.histogram.entries().iter().cloned().collect();
        for (t, d) in updates {
            let entry = counts.entry(t.clone()).or_insert(0);
            let next = (*entry as i64).checked_add(*d).ok_or(Error::EmptyDataset)?;
            if next < 0 {
                return Err(Error::MalformedSecret(format!(
                    "update drives count of {t} below zero"
                )));
            }
            *entry = next as u64;
        }
        counts.retain(|_, c| *c > 0);
        let mut hist = Histogram::from_counts(counts);
        if hist.is_empty() {
            return Err(Error::EmptyDataset);
        }

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
            if self.repair_fits(&hist, hi_tok, d_hi) && self.repair_fits(&hist, lo_tok, d_lo) {
                total_change += d_hi.unsigned_abs() + d_lo.unsigned_abs();
                hist = hist.with_changes(&[(hi_tok.clone(), d_hi), (lo_tok.clone(), d_lo)]);
                repaired += 1;
                kept.push((a, b));
            } else {
                retired += 1;
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
                &hist,
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
            let mut new_changes: Vec<(Token, i64)> = Vec::new();
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
                if di != 0 {
                    new_changes.push((ta.clone(), di));
                }
                if dj != 0 {
                    new_changes.push((tb.clone(), dj));
                }
                claimed.insert(p.i);
                claimed.insert(p.j);
                self.secrets.pairs.push((ta, tb));
                added += 1;
            }
            if !new_changes.is_empty() {
                hist = hist.with_changes(&new_changes);
            }
        }

        self.histogram = hist;
        Ok(MaintenanceReport {
            intact,
            repaired,
            retired,
            added,
            total_change,
        })
    }

    /// Would moving `token` by `delta` keep it inside its current rank
    /// boundaries (weak ranking preserved)?
    fn repair_fits(&self, hist: &Histogram, token: &Token, delta: i64) -> bool {
        let Some(rank) = hist.rank_of(token) else {
            return false;
        };
        if delta == 0 {
            return true;
        }
        let bounds = hist.boundaries();
        let b = bounds[rank];
        let count = hist.count(token).expect("rank implies presence");
        if delta > 0 {
            b.upper == u64::MAX || delta as u64 <= b.upper
        } else {
            let need = (-delta) as u64;
            need <= b.lower.min(count.saturating_sub(1))
        }
    }
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
        assert!(matches!(err, Error::MalformedSecret(_)));
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
