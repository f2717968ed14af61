//! `WM_Detect` (Algorithm II).
//!
//! For every stored pair present in the suspect histogram the detector
//! re-derives `s_ij = H(tk_i ‖ H(R ‖ tk_j)) mod z` and accepts the
//! pair if its remainder is within tolerance `t`; the dataset is
//! declared watermarked when at least `k` pairs verify. Runs in time
//! linear in `|L_wm|` (one lookup + two hashes per pair) — the paper's
//! "very fast, linear time complexity" verification.

use crate::params::{DetectionParams, DetectionRule};
use crate::secret::SecretList;
use freqywm_crypto::prf::{pair_moduli, Secret};
use freqywm_data::dataset::Dataset;
use freqywm_data::histogram::Histogram;
use freqywm_data::token::Token;

/// Per-pair detection detail.
#[derive(Debug, Clone, PartialEq)]
pub struct PairVerdict {
    pub tokens: (Token, Token),
    /// Both tokens present in the suspect histogram?
    pub present: bool,
    /// The re-derived modulus (when present).
    pub s: Option<u64>,
    /// The observed remainder `(f_i − f_j) mod s` (non-negative).
    pub remainder: Option<u64>,
    /// Did the pair verify under the rule and tolerance?
    pub accepted: bool,
}

/// Result of `WM_Detect`.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionOutcome {
    /// The final accept/reject decision (`accepted_pairs ≥ k`).
    pub accepted: bool,
    /// Number of pairs that verified.
    pub accepted_pairs: usize,
    /// Number of stored pairs whose tokens were both present.
    pub present_pairs: usize,
    /// Total stored pairs checked.
    pub total_pairs: usize,
    /// Per-pair details, in stored order.
    pub verdicts: Vec<PairVerdict>,
}

impl DetectionOutcome {
    /// Fraction of stored pairs that verified, in `[0, 1]` — the
    /// "percentage of verified pairs" metric of Figs. 4 and 5.
    pub fn accept_rate(&self) -> f64 {
        accept_rate(self.accepted_pairs, self.total_pairs)
    }
}

/// The verdict of `WM_Detect` without per-pair detail: what a served
/// detect answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectTotals {
    /// The final accept/reject decision (`accepted_pairs ≥ k`).
    pub accepted: bool,
    /// Number of pairs that verified.
    pub accepted_pairs: usize,
    /// Number of stored pairs whose tokens were both present.
    pub present_pairs: usize,
    /// Total stored pairs checked.
    pub total_pairs: usize,
}

impl DetectTotals {
    /// Fraction of stored pairs that verified, in `[0, 1]`.
    pub fn accept_rate(&self) -> f64 {
        accept_rate(self.accepted_pairs, self.total_pairs)
    }
}

fn accept_rate(accepted: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        accepted as f64 / total as f64
    }
}

/// The check of one present pair, as [`verify_pairs`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairCheck {
    /// The re-derived modulus `s_ij`.
    pub s: u64,
    /// The observed remainder `(f_i − f_j) mod s`; `None` when `s < 2`.
    pub remainder: Option<u64>,
    /// Did the pair verify under the rule and tolerance?
    pub accepted: bool,
}

/// A count scaled as [`Histogram::scaled`] scales it.
fn scaled(count: u64, scale: Option<f64>) -> u64 {
    match scale {
        Some(f) => (count as f64 * f).round() as u64,
        None => count,
    }
}

/// One stored pair as [`verify_pairs`] takes it: its tokens, and their
/// counts in the suspect data (unscaled) when both occur there.
pub type PairCounts<'t> = ((&'t [u8], &'t [u8]), Option<(u64, u64)>);

/// Algorithm II over the stored pairs' counts, `pairs` in stored
/// order. Only the present pairs are hashed, in one [`pair_moduli`]
/// batch; `on_pair` then sees every stored pair's check in order,
/// `None` for a pair that is not present.
///
/// Panics if `params.scale` is not positive and finite, as
/// [`Histogram::scaled`] does.
pub fn verify_pairs<'t>(
    secret: &Secret,
    z: u64,
    pairs: impl IntoIterator<Item = PairCounts<'t>>,
    params: &DetectionParams,
    mut on_pair: impl FnMut(Option<PairCheck>),
) -> DetectTotals {
    if let Some(f) = params.scale {
        assert!(f.is_finite() && f > 0.0, "scale factor must be positive");
    }
    let mut present = Vec::new();
    let counts: Vec<Option<(u64, u64)>> = pairs
        .into_iter()
        .map(|(tokens, counts)| {
            if counts.is_some() {
                present.push(tokens);
            }
            counts
        })
        .collect();
    let mut moduli = Vec::new();
    pair_moduli(secret, &present, z, &mut moduli);
    let mut moduli = moduli.into_iter();
    let mut accepted_pairs = 0usize;
    for pair_counts in &counts {
        let check = pair_counts.map(|(fa, fb)| {
            let s = moduli.next().expect("one modulus per present pair");
            // s < 2 cannot happen for pairs produced by generation;
            // treat a corrupted secret conservatively as non-verifying.
            if s < 2 {
                return PairCheck {
                    s,
                    remainder: None,
                    accepted: false,
                };
            }
            let (fa, fb) = (scaled(fa, params.scale), scaled(fb, params.scale));
            // Signed difference mod s, reduced to [0, s).
            let rm = (fa as i128 - fb as i128).rem_euclid(s as i128) as u64;
            let distance = match params.rule {
                DetectionRule::Strict => rm,
                DetectionRule::Symmetric => rm.min(s - rm),
            };
            PairCheck {
                s,
                remainder: Some(rm),
                accepted: distance <= params.t,
            }
        });
        accepted_pairs += usize::from(check.is_some_and(|c| c.accepted));
        on_pair(check);
    }
    DetectTotals {
        accepted: accepted_pairs >= params.k,
        accepted_pairs,
        present_pairs: present.len(),
        total_pairs: counts.len(),
    }
}

/// Runs Algorithm II on a suspect histogram.
pub fn detect_histogram(
    hist: &Histogram,
    secrets: &SecretList,
    params: &DetectionParams,
) -> DetectionOutcome {
    let mut verdicts = Vec::with_capacity(secrets.pairs.len());
    let mut tokens = secrets.pairs.iter();
    let totals = verify_pairs(
        &secrets.secret,
        secrets.z,
        secrets.pairs.iter().map(|(a, b)| {
            let counts = hist.count(a).zip(hist.count(b));
            ((a.as_bytes(), b.as_bytes()), counts)
        }),
        params,
        |check| {
            let (a, b) = tokens.next().expect("one check per stored pair");
            verdicts.push(PairVerdict {
                tokens: (a.clone(), b.clone()),
                present: check.is_some(),
                s: check.map(|c| c.s),
                remainder: check.and_then(|c| c.remainder),
                accepted: check.is_some_and(|c| c.accepted),
            });
        },
    );
    DetectionOutcome {
        accepted: totals.accepted,
        accepted_pairs: totals.accepted_pairs,
        present_pairs: totals.present_pairs,
        total_pairs: totals.total_pairs,
        verdicts,
    }
}

/// Convenience: detection over a raw token dataset.
pub fn detect_dataset(
    dataset: &Dataset,
    secrets: &SecretList,
    params: &DetectionParams,
) -> DetectionOutcome {
    detect_histogram(&dataset.histogram(), secrets, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::Watermarker;
    use crate::params::GenerationParams;
    use freqywm_crypto::prf::{pair_modulus, Secret};
    use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
    use proptest::prelude::*;

    fn zipf_hist(alpha: f64, tokens: usize, samples: usize) -> Histogram {
        Histogram::from_counts(power_law_counts(&PowerLawConfig {
            distinct_tokens: tokens,
            sample_size: samples,
            alpha,
        }))
    }

    fn watermark(
        alpha: f64,
        z: u64,
    ) -> (Histogram, crate::generate::GenerationOutput, Watermarker) {
        let h = zipf_hist(alpha, 120, 120_000);
        let wm = Watermarker::new(GenerationParams::default().with_z(z));
        let out = wm
            .generate_histogram(&h, Secret::from_label("detect-tests"))
            .unwrap();
        (h, out, wm)
    }

    #[test]
    fn round_trip_fragile_detection() {
        let (_h, out, _) = watermark(0.7, 31);
        let n = out.secrets.len();
        // t = 0, k = all pairs: the freshly watermarked data verifies fully.
        let params = DetectionParams::default().with_t(0).with_k(n);
        let d = detect_histogram(&out.watermarked, &out.secrets, &params);
        assert!(d.accepted);
        assert_eq!(d.accepted_pairs, n);
        assert_eq!(d.present_pairs, n);
        assert!((d.accept_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn original_data_does_not_verify_fully() {
        // The original (non-watermarked) histogram should verify far
        // fewer pairs at t = 0 than the watermarked one.
        let (h, out, _) = watermark(0.7, 101);
        let params = DetectionParams::default()
            .with_t(0)
            .with_k(out.secrets.len());
        let d = detect_histogram(&h, &out.secrets, &params);
        assert!(
            !d.accepted,
            "original data must not carry the full watermark"
        );
        assert!(d.accepted_pairs < out.secrets.len());
    }

    #[test]
    fn wrong_secret_rejects() {
        let (_h, out, _) = watermark(0.7, 101);
        let mut forged = out.secrets.clone();
        forged.secret = Secret::from_label("attacker");
        let k = (out.secrets.len() / 2).max(1);
        let params = DetectionParams::default().with_t(0).with_k(k);
        let d = detect_histogram(&out.watermarked, &forged, &params);
        assert!(
            !d.accepted,
            "forged secret verified {}/{} pairs",
            d.accepted_pairs, d.total_pairs
        );
    }

    #[test]
    fn missing_tokens_counted_as_absent() {
        let (_h, out, _) = watermark(0.7, 31);
        // Remove one watermarked token entirely.
        let victim = out.secrets.pairs[0].0.clone();
        let reduced = Histogram::from_counts(
            out.watermarked
                .entries()
                .iter()
                .filter(|(t, _)| *t != victim)
                .cloned(),
        );
        let params = DetectionParams::default().with_t(0).with_k(1);
        let d = detect_histogram(&reduced, &out.secrets, &params);
        assert_eq!(d.present_pairs, d.total_pairs - 1);
        assert!(!d.verdicts[0].present);
        assert!(!d.verdicts[0].accepted);
    }

    #[test]
    fn tolerance_is_monotone() {
        let (_h, out, _) = watermark(0.5, 101);
        // Perturb the watermarked histogram slightly.
        let mut noisy = out.watermarked.clone();
        let changes: Vec<(Token, i64)> = noisy
            .entries()
            .iter()
            .enumerate()
            .filter(|(i, (_, c))| i % 3 == 0 && *c > 2)
            .map(|(_, (t, _))| (t.clone(), 1i64))
            .collect();
        noisy = noisy.with_changes(&changes);
        let mut prev = 0usize;
        for t in [0u64, 1, 2, 4, 10, 100] {
            let d = detect_histogram(
                &noisy,
                &out.secrets,
                &DetectionParams::default().with_t(t).with_k(1),
            );
            assert!(d.accepted_pairs >= prev, "t={t}");
            prev = d.accepted_pairs;
        }
    }

    #[test]
    fn symmetric_rule_catches_wraparound() {
        // remainder s-1 is "one step below zero": symmetric accepts at
        // t=1, strict does not.
        let secret = Secret::from_label("wrap");
        let z = 1_000;
        // Find token names whose pair modulus is comfortably large.
        let (a, b, s) = (0..100)
            .map(|i| {
                let a = Token::new(format!("alpha-{i}"));
                let b = Token::new(format!("beta-{i}"));
                let s = pair_modulus(&secret, a.as_bytes(), b.as_bytes(), z);
                (a, b, s)
            })
            .find(|(_, _, s)| *s > 3)
            .expect("some pair modulus above 3 in 100 draws");
        let hist = Histogram::from_counts([(a.clone(), 1_000 + s - 1), (b.clone(), 1_000)]);
        let secrets = SecretList::new(vec![(a, b)], secret, z);
        let sym = detect_histogram(
            &hist,
            &secrets,
            &DetectionParams::default().with_t(1).with_k(1),
        );
        assert!(
            sym.accepted,
            "symmetric rule must accept remainder s-1 at t=1"
        );
        let strict = detect_histogram(
            &hist,
            &secrets,
            &DetectionParams {
                t: 1,
                k: 1,
                rule: DetectionRule::Strict,
                scale: None,
            },
        );
        assert!(
            !strict.accepted,
            "strict rule must reject remainder s-1 at t=1"
        );
    }

    #[test]
    fn scaled_detection_counters_sampling() {
        let (_h, out, _) = watermark(0.5, 31);
        // Simulate a 25% sample by dividing every count by 4 (ideal,
        // noise-free subsample), then detect with scale 4.
        let quarter = out.watermarked.scaled(0.25);
        let params = DetectionParams::default()
            .with_t(2)
            .with_k(1)
            .with_scale(4.0);
        let d = detect_histogram(&quarter, &out.secrets, &params);
        assert!(d.accepted);
        // Most pairs come back under a small tolerance.
        assert!(
            d.accept_rate() > 0.5,
            "scaled detection rate {}",
            d.accept_rate()
        );
    }

    #[test]
    fn k_zero_always_accepts_and_k_above_pairs_never() {
        let (_h, out, _) = watermark(0.7, 31);
        let d0 = detect_histogram(
            &out.watermarked,
            &out.secrets,
            &DetectionParams::default().with_t(0).with_k(0),
        );
        assert!(d0.accepted, "k = 0 accepts trivially (P(S >= 0) = 1)");
        let dbig = detect_histogram(
            &out.watermarked,
            &out.secrets,
            &DetectionParams::default()
                .with_t(0)
                .with_k(out.secrets.len() + 1),
        );
        assert!(!dbig.accepted);
    }

    #[test]
    fn empty_secret_list() {
        let hist = zipf_hist(0.5, 10, 1_000);
        let secrets = SecretList::new(Vec::new(), Secret::from_label("none"), 31);
        let d = detect_histogram(&hist, &secrets, &DetectionParams::default().with_k(1));
        assert!(!d.accepted);
        assert_eq!(d.total_pairs, 0);
        assert_eq!(d.accept_rate(), 0.0);
    }

    /// The per-pair loop `detect_histogram` ran before it was built on
    /// [`verify_pairs`]: scale the whole histogram, then look up and
    /// hash one pair at a time.
    fn reference_detect(
        hist: &Histogram,
        secrets: &SecretList,
        params: &DetectionParams,
    ) -> DetectionOutcome {
        let hist = params
            .scale
            .map_or_else(|| hist.clone(), |f| hist.scaled(f));
        let verdicts: Vec<PairVerdict> = secrets
            .pairs
            .iter()
            .map(|(a, b)| {
                let (Some(fa), Some(fb)) = (hist.count(a), hist.count(b)) else {
                    return PairVerdict {
                        tokens: (a.clone(), b.clone()),
                        present: false,
                        s: None,
                        remainder: None,
                        accepted: false,
                    };
                };
                let s = pair_modulus(&secrets.secret, a.as_bytes(), b.as_bytes(), secrets.z);
                let rm = (s >= 2).then(|| (fa as i128 - fb as i128).rem_euclid(s as i128) as u64);
                let accepted = rm.is_some_and(|rm| {
                    let distance = match params.rule {
                        DetectionRule::Strict => rm,
                        DetectionRule::Symmetric => rm.min(s - rm),
                    };
                    distance <= params.t
                });
                PairVerdict {
                    tokens: (a.clone(), b.clone()),
                    present: true,
                    s: Some(s),
                    remainder: rm,
                    accepted,
                }
            })
            .collect();
        let accepted_pairs = verdicts.iter().filter(|v| v.accepted).count();
        DetectionOutcome {
            accepted: accepted_pairs >= params.k,
            accepted_pairs,
            present_pairs: verdicts.iter().filter(|v| v.present).count(),
            total_pairs: verdicts.len(),
            verdicts,
        }
    }

    #[test]
    fn detect_matches_the_per_pair_reference() {
        let (h, out, _) = watermark(0.6, 131);
        // Long tokens take the fallback hash; z = 2 makes s < 2 pairs.
        let long = |t: &Token| Token::new(format!("{}-{}", t.as_str(), "x".repeat(30)));
        let mut mixed = out.secrets.clone();
        for pair in mixed.pairs.iter_mut().step_by(3) {
            pair.1 = long(&pair.1);
        }
        let renamed = Histogram::from_counts(out.watermarked.entries().iter().map(|(t, c)| {
            let renamed = mixed.pairs.iter().step_by(3).any(|(_, b)| *b == long(t));
            (if renamed { long(t) } else { t.clone() }, *c)
        }));
        let mut tiny_z = out.secrets.clone();
        tiny_z.z = 2;
        let dropped = Histogram::from_counts(
            out.watermarked
                .entries()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 4 != 1)
                .map(|(_, e)| e.clone()),
        );
        let cases = [
            (&out.watermarked, &out.secrets),
            (&h, &out.secrets),
            (&dropped, &out.secrets),
            (&renamed, &mixed),
            (&out.watermarked, &mixed),
            (&out.watermarked, &tiny_z),
        ];
        for (hist, secrets) in cases {
            for scale in [None, Some(0.25), Some(0.5), Some(3.7)] {
                for rule in [DetectionRule::Symmetric, DetectionRule::Strict] {
                    let params = DetectionParams {
                        t: 1,
                        k: secrets.len() / 2,
                        rule,
                        scale,
                    };
                    assert_eq!(
                        detect_histogram(hist, secrets, &params),
                        reference_detect(hist, secrets, &params),
                        "scale {scale:?}, rule {rule:?}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Generate → detect round-trips across parameters.
        #[test]
        fn generated_watermarks_always_verify(
            alpha in 0.3f64..1.0,
            z in proptest::sample::select(vec![11u64, 31, 101, 331]),
            seed in 0u64..1_000,
        ) {
            let h = zipf_hist(alpha, 80, 60_000);
            let wm = Watermarker::new(GenerationParams::default().with_z(z));
            let secret = Secret::from_label(&format!("prop-{seed}"));
            match wm.generate_histogram(&h, secret) {
                Ok(out) => {
                    let params = DetectionParams::default()
                        .with_t(0)
                        .with_k(out.secrets.len());
                    let d = detect_histogram(&out.watermarked, &out.secrets, &params);
                    prop_assert!(d.accepted);
                    prop_assert_eq!(d.accepted_pairs, out.secrets.len());
                }
                Err(crate::error::Error::NoEligiblePairs)
                | Err(crate::error::Error::BudgetExhausted) => {
                    // Legitimate outcome on unlucky parameter draws.
                }
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
    }
}
