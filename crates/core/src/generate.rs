//! `WM_Generate` (Algorithm I).
//!
//! Pipeline: histogram → eligible pairs → selection under budget →
//! frequency modification → data transformation. The histogram-level
//! entry point [`Watermarker::generate_histogram`] is the workhorse
//! (all experiments operate on histograms); the dataset/table entry
//! points additionally materialise the add/remove token edits with
//! secret-keyed placement.

use crate::eligible::{eligible_pairs_parallel, r_max};
use crate::error::{Error, Result};
use crate::modify::pair_deltas;
use crate::params::GenerationParams;
use crate::secret::SecretList;
use crate::select::select_pairs;
use freqywm_crypto::prf::{KeyStream, Secret};
use freqywm_data::dataset::{Dataset, Table};
use freqywm_data::histogram::Histogram;
use freqywm_data::token::Token;

/// The largest modulo base `z` generation accepts. Every pair modulus
/// is below `z`, so the matching weights `T − rm` stay within
/// `1..=2^61`, the range in which the blossom matcher's duals, slacks
/// and doubled weights fit in an i64.
pub const MAX_MODULO_BASE: u64 = 1 << 61;

/// Statistics of one generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationReport {
    /// Distinct tokens in the input histogram.
    pub distinct_tokens: usize,
    /// |L_e| — eligible pairs found.
    pub eligible_pairs: usize,
    /// Pairs surviving the matching stage (= chosen for heuristics).
    pub matched_pairs: usize,
    /// |L_wm| — pairs actually watermarked.
    pub chosen_pairs: usize,
    /// Similarity (%) between original and watermarked histograms.
    pub similarity_pct: f64,
    /// Total token instances added plus removed.
    pub total_change: u64,
    /// Whether the (weak) frequency ranking survived — FreqyWM
    /// guarantees this by construction for the chosen pairs.
    pub ranking_preserved: bool,
}

/// Result of histogram-level generation.
#[derive(Debug, Clone)]
pub struct GenerationOutput {
    pub watermarked: Histogram,
    pub secrets: SecretList,
    pub report: GenerationReport,
}

/// The `WM_Generate` engine.
#[derive(Debug, Clone, Default)]
pub struct Watermarker {
    params: GenerationParams,
}

impl Watermarker {
    pub fn new(params: GenerationParams) -> Self {
        Watermarker { params }
    }

    pub fn params(&self) -> &GenerationParams {
        &self.params
    }

    fn validate(&self, hist: &Histogram) -> Result<()> {
        if hist.is_empty() {
            return Err(Error::EmptyDataset);
        }
        if !(self.params.budget_pct > 0.0 && self.params.budget_pct <= 100.0) {
            return Err(Error::InvalidBudget(self.params.budget_pct));
        }
        if self.params.z < 2 {
            return Err(Error::InvalidModuloBase {
                z: self.params.z,
                r_max: r_max(hist),
            });
        }
        if self.params.z > MAX_MODULO_BASE {
            return Err(Error::ModulusTooLarge { z: self.params.z });
        }
        Ok(())
    }

    /// Runs Algorithm I on a histogram and returns the watermarked
    /// histogram, the secret list and a report.
    ///
    /// Errors: [`Error::NoEligiblePairs`] when the frequency variation
    /// is insufficient (e.g. uniform data), [`Error::BudgetExhausted`]
    /// when eligible pairs exist but none fits the budget.
    pub fn generate_histogram(&self, hist: &Histogram, secret: Secret) -> Result<GenerationOutput> {
        self.validate(hist)?;
        let eligible = eligible_pairs_parallel(
            hist,
            &secret,
            self.params.z,
            self.params.min_modulus,
            self.params.threads,
        );
        if eligible.is_empty() {
            return Err(Error::NoEligiblePairs);
        }
        let selection = select_pairs(hist, &eligible, &self.params);
        if selection.chosen.is_empty() {
            return Err(Error::BudgetExhausted);
        }
        let counts = hist.counts();
        let mut changes: Vec<(Token, i64)> = Vec::with_capacity(selection.chosen.len() * 2);
        let mut pairs: Vec<(Token, Token)> = Vec::with_capacity(selection.chosen.len());
        let mut total_change = 0u64;
        for p in &selection.chosen {
            let (di, dj) = pair_deltas(counts[p.i], counts[p.j], p.s);
            let tk_i = hist.entries()[p.i].0.clone();
            let tk_j = hist.entries()[p.j].0.clone();
            total_change += di.unsigned_abs() + dj.unsigned_abs();
            if di != 0 {
                changes.push((tk_i.clone(), di));
            }
            if dj != 0 {
                changes.push((tk_j.clone(), dj));
            }
            pairs.push((tk_i, tk_j));
        }
        let watermarked = hist.with_changes(&changes);
        let (before, after) = hist.paired_counts(&watermarked);
        let ranking_preserved = freqywm_stats::rank::ranking_preserved(&before, &after);
        let report = GenerationReport {
            distinct_tokens: hist.len(),
            eligible_pairs: eligible.len(),
            matched_pairs: selection.matched,
            chosen_pairs: selection.chosen.len(),
            similarity_pct: selection.similarity_pct,
            total_change,
            ranking_preserved,
        };
        let secrets = SecretList::new(pairs, secret, self.params.z);
        Ok(GenerationOutput {
            watermarked,
            secrets,
            report,
        })
    }

    /// Full Algorithm I over a token dataset: generates the watermark
    /// and materialises the add/remove edits at secret-keyed random
    /// positions. Returns `(D_w, L_sc, report)`.
    pub fn watermark_dataset(
        &self,
        dataset: &Dataset,
        secret: Secret,
    ) -> Result<(Dataset, SecretList, GenerationReport)> {
        if dataset.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let hist = dataset.histogram();
        let out = self.generate_histogram(&hist, secret)?;
        let mut rng = KeyStream::new(&out.secrets.secret, b"freqywm/placement/v1");
        let mut data = dataset.clone();
        for (token, want) in out.watermarked.entries() {
            let have = hist.count(token).unwrap_or(0);
            match want.cmp(&have) {
                std::cmp::Ordering::Greater => data.insert_instances(token, want - have, &mut rng),
                std::cmp::Ordering::Less => data.remove_instances(token, have - want, &mut rng),
                std::cmp::Ordering::Equal => {}
            }
        }
        debug_assert_eq!(data.histogram(), out.watermarked);
        Ok((data, out.secrets, out.report))
    }

    /// Multi-dimensional variant (Sec. IV-C): tokens are the (possibly
    /// composite) values of `cols`; added instances duplicate the
    /// remaining fields of a random carrier row.
    pub fn watermark_table(
        &self,
        table: &Table,
        cols: &[&str],
        secret: Secret,
    ) -> Result<(Table, SecretList, GenerationReport)> {
        if table.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let tokens = table.tokens_over(cols);
        let hist = tokens.histogram();
        let out = self.generate_histogram(&hist, secret)?;
        let mut rng = KeyStream::new(&out.secrets.secret, b"freqywm/placement/v1");
        let mut result = table.clone();
        for (token, want) in out.watermarked.entries() {
            let have = hist.count(token).unwrap_or(0);
            match want.cmp(&have) {
                std::cmp::Ordering::Greater => {
                    result.add_token_rows(cols, token, want - have, &mut rng)
                }
                std::cmp::Ordering::Less => {
                    result.remove_token_rows(cols, token, have - want, &mut rng)
                }
                std::cmp::Ordering::Equal => {}
            }
        }
        Ok((result, out.secrets, out.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Selection;
    use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};

    fn secret() -> Secret {
        Secret::from_label("generate-tests")
    }

    fn zipf_hist(alpha: f64, tokens: usize, samples: usize) -> Histogram {
        Histogram::from_counts(power_law_counts(&PowerLawConfig {
            distinct_tokens: tokens,
            sample_size: samples,
            alpha,
        }))
    }

    #[test]
    fn generates_on_skewed_data() {
        let h = zipf_hist(0.7, 100, 100_000);
        let wm = Watermarker::new(GenerationParams::default().with_z(31));
        let out = wm.generate_histogram(&h, secret()).unwrap();
        assert!(out.report.chosen_pairs > 0);
        assert!(out.report.similarity_pct >= 98.0);
        assert!(out.report.ranking_preserved);
        assert_eq!(out.secrets.pairs.len(), out.report.chosen_pairs);
        // Every chosen pair satisfies the embedding rule exactly.
        for (a, b) in &out.secrets.pairs {
            let fa = out.watermarked.count(a).unwrap();
            let fb = out.watermarked.count(b).unwrap();
            let s = freqywm_crypto::prf::pair_modulus(
                &out.secrets.secret,
                a.as_bytes(),
                b.as_bytes(),
                out.secrets.z,
            );
            assert_eq!(fa.abs_diff(fb) % s, 0, "pair ({a}, {b}) not watermarked");
        }
    }

    #[test]
    fn uniform_data_is_rejected() {
        let h = Histogram::from_counts((0..50).map(|i| (Token::new(format!("t{i}")), 1_000)));
        let wm = Watermarker::default();
        assert!(matches!(
            wm.generate_histogram(&h, secret()),
            Err(Error::NoEligiblePairs)
        ));
    }

    #[test]
    fn empty_and_invalid_inputs() {
        let wm = Watermarker::default();
        let empty = Histogram::from_counts(std::iter::empty::<(Token, u64)>());
        assert!(matches!(
            wm.generate_histogram(&empty, secret()),
            Err(Error::EmptyDataset)
        ));

        let h = zipf_hist(0.5, 20, 10_000);
        let bad_budget = Watermarker::new(GenerationParams::default().with_budget(0.0));
        assert!(matches!(
            bad_budget.generate_histogram(&h, secret()),
            Err(Error::InvalidBudget(_))
        ));
        let bad_z = Watermarker::new(GenerationParams::default().with_z(1));
        assert!(matches!(
            bad_z.generate_histogram(&h, secret()),
            Err(Error::InvalidModuloBase { .. })
        ));
    }

    #[test]
    fn dataset_transformation_matches_histogram() {
        let cfg = PowerLawConfig {
            distinct_tokens: 40,
            sample_size: 20_000,
            alpha: 0.8,
        };
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let data = freqywm_data::synthetic::power_law_dataset(&cfg, &mut rng);
        let wm = Watermarker::new(GenerationParams::default().with_z(19));
        let (wdata, secrets, report) = wm.watermark_dataset(&data, secret()).unwrap();
        // The transformed dataset's histogram IS the watermarked histogram.
        let hist_out = wm
            .generate_histogram(&data.histogram(), secrets.secret.clone())
            .unwrap();
        assert_eq!(wdata.histogram(), hist_out.watermarked);
        // Size changed by exactly the net delta.
        let (before, after) = data.histogram().paired_counts(&wdata.histogram());
        let net: i64 = before
            .iter()
            .zip(&after)
            .map(|(&b, &a)| a as i64 - b as i64)
            .sum();
        assert_eq!(wdata.len() as i64 - data.len() as i64, net);
        assert!(report.total_change > 0);
    }

    #[test]
    fn transformation_is_deterministic_per_secret() {
        let cfg = PowerLawConfig {
            distinct_tokens: 30,
            sample_size: 5_000,
            alpha: 0.9,
        };
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(6);
        let data = freqywm_data::synthetic::power_law_dataset(&cfg, &mut rng);
        let wm = Watermarker::new(GenerationParams::default().with_z(17));
        let (w1, _, _) = wm.watermark_dataset(&data, secret()).unwrap();
        let (w2, _, _) = wm.watermark_dataset(&data, secret()).unwrap();
        assert_eq!(w1, w2, "same secret must give identical placement");
    }

    #[test]
    fn table_watermarking_multidim() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let table = freqywm_data::realworld::adult(8_000, &mut rng);
        let wm = Watermarker::new(GenerationParams::default().with_z(31));
        let (wtable, secrets, report) = wm
            .watermark_table(&table, &["age", "workclass"], secret())
            .unwrap();
        assert!(report.chosen_pairs > 0);
        // Watermark holds on the multi-dim histogram.
        let h = wtable.tokens_over(&["age", "workclass"]).histogram();
        for (a, b) in &secrets.pairs {
            let fa = h.count(a).unwrap();
            let fb = h.count(b).unwrap();
            let s = freqywm_crypto::prf::pair_modulus(
                &secrets.secret,
                a.as_bytes(),
                b.as_bytes(),
                secrets.z,
            );
            assert_eq!(fa.abs_diff(fb) % s, 0);
        }
        // Rows still have all columns (semantic integrity of templates).
        assert!(wtable.rows().iter().all(|r| r.len() == 3));
    }

    #[test]
    fn heuristics_choose_fewer_or_equal_pairs() {
        let h = zipf_hist(0.7, 200, 200_000);
        let z = 101;
        let opt = Watermarker::new(GenerationParams::default().with_z(z))
            .generate_histogram(&h, secret())
            .unwrap();
        let grd = Watermarker::new(
            GenerationParams::default()
                .with_z(z)
                .with_selection(Selection::Greedy),
        )
        .generate_histogram(&h, secret())
        .unwrap();
        let rnd = Watermarker::new(
            GenerationParams::default()
                .with_z(z)
                .with_selection(Selection::Random { seed: 9 }),
        )
        .generate_histogram(&h, secret())
        .unwrap();
        assert!(opt.report.chosen_pairs >= grd.report.chosen_pairs);
        assert!(opt.report.chosen_pairs >= rnd.report.chosen_pairs);
        assert_eq!(opt.report.eligible_pairs, grd.report.eligible_pairs);
    }

    #[test]
    fn threaded_generation_matches_sequential() {
        let h = zipf_hist(0.6, 150, 150_000);
        let seq = Watermarker::new(GenerationParams::default().with_z(101))
            .generate_histogram(&h, secret())
            .unwrap();
        let par = Watermarker::new(GenerationParams::default().with_z(101).with_threads(4))
            .generate_histogram(&h, secret())
            .unwrap();
        assert_eq!(seq.watermarked, par.watermarked);
        assert_eq!(seq.secrets, par.secrets);
    }

    #[test]
    fn provider_backed_generation_matches_direct() {
        use crate::eligible::eligible_pairs_with_prf;
        use freqywm_crypto::prf::DirectPrf;
        let h = zipf_hist(0.6, 120, 120_000);
        let params = GenerationParams::default().with_z(101);
        let provided = eligible_pairs_with_prf(&h, &secret(), 101, params.min_modulus, &DirectPrf);
        let chosen: Vec<(Token, Token)> = select_pairs(&h, &provided, &params)
            .chosen
            .iter()
            .map(|p| (h.entries()[p.i].0.clone(), h.entries()[p.j].0.clone()))
            .collect();
        for threads in [1usize, 4] {
            let direct = Watermarker::new(params.with_threads(threads))
                .generate_histogram(&h, secret())
                .unwrap();
            assert_eq!(direct.report.eligible_pairs, provided.len());
            assert_eq!(direct.secrets.pairs, chosen);
        }
    }

    /// Counts and moduli near the top of u64 once overflowed the
    /// selection's i64 weights, slacks and budget arithmetic (a panic
    /// with overflow checks, a silent wrap without them).
    #[test]
    fn moduli_past_2_pow_61_are_refused_and_huge_counts_do_not_overflow() {
        let hist = |top: u64| {
            Histogram::from_counts([
                (Token::new("a"), top),
                (Token::new("b"), 1 << 63),
                (Token::new("c"), 3),
            ])
        };
        let h = hist(u64::MAX);
        let secrets = ["a", "b", "c", "d", "e", "f", "g", "h"];
        for z in [u64::MAX, 1 << 63, MAX_MODULO_BASE + 1] {
            for s in secrets {
                let wm = Watermarker::new(GenerationParams::default().with_z(z));
                assert_eq!(
                    wm.generate_histogram(&h, Secret::from_label(s)).err(),
                    Some(Error::ModulusTooLarge { z })
                );
            }
        }
        // Every accepted z runs without overflow, whether the top token
        // sits at u64::MAX or has headroom to grow.
        let mut generated = 0;
        for (h, z) in [hist(u64::MAX), hist(3 << 62)]
            .iter()
            .flat_map(|h| [MAX_MODULO_BASE, MAX_MODULO_BASE - 1, 1 << 40, 131].map(|z| (h, z)))
        {
            for s in secrets {
                let wm = Watermarker::new(GenerationParams::default().with_z(z));
                let out = match wm.generate_histogram(h, Secret::from_label(s)) {
                    Ok(out) => out,
                    Err(e) => {
                        assert_eq!(e, Error::NoEligiblePairs, "z={z}");
                        continue;
                    }
                };
                generated += 1;
                assert!(out.report.ranking_preserved);
                for (a, b) in &out.secrets.pairs {
                    let fa = out.watermarked.count(a).unwrap();
                    let fb = out.watermarked.count(b).unwrap();
                    let s = freqywm_crypto::prf::pair_modulus(
                        &out.secrets.secret,
                        a.as_bytes(),
                        b.as_bytes(),
                        z,
                    );
                    assert_eq!(fa.abs_diff(fb) % s, 0, "z={z}: ({a}, {b}) not watermarked");
                }
            }
        }
        assert!(generated > 0);
    }

    #[test]
    fn different_secrets_different_watermarks() {
        let h = zipf_hist(0.6, 100, 50_000);
        let wm = Watermarker::new(GenerationParams::default().with_z(31));
        let o1 = wm
            .generate_histogram(&h, Secret::from_label("owner-1"))
            .unwrap();
        let o2 = wm
            .generate_histogram(&h, Secret::from_label("owner-2"))
            .unwrap();
        assert_ne!(o1.secrets.pairs, o2.secrets.pairs);
    }
}
