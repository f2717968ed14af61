//! The re-watermarking dispute protocol (Sec. V-D).
//!
//! A pirate can always run `WM_Generate` on stolen watermarked data
//! `D_w` and present the doubly watermarked `D_A` with its own secret —
//! creating an ownership dispute. The paper's arbitration: a judge runs
//! detection for *each secret on each dataset* (four runs). Only the
//! genuine owner's secret verifies on **both** datasets, because the
//! pirate's watermark was inserted after `D_w` existed and therefore
//! cannot be present in it.

use crate::detect::{detect_histogram, DetectionOutcome};
use crate::params::DetectionParams;
use crate::secret::SecretList;
use freqywm_data::histogram::Histogram;

/// One party's ownership claim: the dataset version it holds plus the
/// secret list it reveals to the judge.
#[derive(Debug, Clone)]
pub struct Claim {
    pub histogram: Histogram,
    pub secrets: SecretList,
}

/// The judge's ruling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Claimant A's secret verified on both datasets; B's did not.
    FirstParty,
    /// Claimant B's secret verified on both datasets; A's did not.
    SecondParty,
    /// Neither or both secrets verified on both datasets — the
    /// evidence is insufficient.
    Inconclusive,
}

/// Detailed result of the four detection runs.
#[derive(Debug, Clone)]
pub struct Ruling {
    pub verdict: Verdict,
    /// A's secret on A's data / A's secret on B's data.
    pub a_on_a: DetectionOutcome,
    pub a_on_b: DetectionOutcome,
    /// B's secret on B's data / B's secret on A's data.
    pub b_on_b: DetectionOutcome,
    pub b_on_a: DetectionOutcome,
}

/// Arbitrates an ownership dispute between two claims.
pub fn judge_dispute(a: &Claim, b: &Claim, params: &DetectionParams) -> Ruling {
    let a_on_a = detect_histogram(&a.histogram, &a.secrets, params);
    let a_on_b = detect_histogram(&b.histogram, &a.secrets, params);
    let b_on_b = detect_histogram(&b.histogram, &b.secrets, params);
    let b_on_a = detect_histogram(&a.histogram, &b.secrets, params);
    let a_wins = a_on_a.accepted && a_on_b.accepted;
    let b_wins = b_on_b.accepted && b_on_a.accepted;
    let verdict = match (a_wins, b_wins) {
        (true, false) => Verdict::FirstParty,
        (false, true) => Verdict::SecondParty,
        _ => Verdict::Inconclusive,
    };
    Ruling {
        verdict,
        a_on_a,
        a_on_b,
        b_on_b,
        b_on_a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::Watermarker;
    use crate::params::GenerationParams;
    use freqywm_crypto::prf::Secret;
    use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};

    fn base_hist() -> Histogram {
        Histogram::from_counts(power_law_counts(&PowerLawConfig {
            distinct_tokens: 400,
            sample_size: 800_000,
            alpha: 0.5,
        }))
    }

    /// Builds the canonical dispute: owner watermarks the original,
    /// pirate re-watermarks the owner's output. Both run with
    /// free-pair exclusion — without it the pirate's watermark largely
    /// pre-exists in the owner's data and the four-run protocol cannot
    /// discriminate (`exp_paper rewatermark` measures both settings).
    fn dispute() -> (Claim, Claim) {
        let wm = Watermarker::new(
            GenerationParams::default()
                .with_z(101)
                .with_exclude_free_pairs(true),
        );
        let owner_out = wm
            .generate_histogram(&base_hist(), Secret::from_label("honest-owner"))
            .unwrap();
        let pirate_out = wm
            .generate_histogram(&owner_out.watermarked, Secret::from_label("pirate"))
            .unwrap();
        let owner = Claim {
            histogram: owner_out.watermarked.clone(),
            secrets: owner_out.secrets,
        };
        let pirate = Claim {
            histogram: pirate_out.watermarked.clone(),
            secrets: pirate_out.secrets,
        };
        (owner, pirate)
    }

    fn judge_params(owner: &Claim) -> DetectionParams {
        // The paper's Sec. V-D experiment runs the dispute at t = 0;
        // a quarter of the pairs is a comfortable threshold (the
        // genuine owner retains ~half its pairs on the re-marked copy,
        // the pirate retains none on the earlier copy).
        DetectionParams::default()
            .with_t(0)
            .with_k((owner.secrets.len() / 4).max(1))
    }

    #[test]
    fn owner_wins_rewatermarking_dispute() {
        let (owner, pirate) = dispute();
        let params = judge_params(&owner);
        let ruling = judge_dispute(&owner, &pirate, &params);
        assert_eq!(ruling.verdict, Verdict::FirstParty);
        // The discriminating run: pirate's secret must fail on the
        // owner's (earlier) version.
        assert!(!ruling.b_on_a.accepted);
        assert!(
            ruling.a_on_b.accepted,
            "owner's mark survives re-watermarking"
        );
    }

    #[test]
    fn roles_swapped_second_party_wins() {
        let (owner, pirate) = dispute();
        let params = judge_params(&owner);
        let ruling = judge_dispute(&pirate, &owner, &params);
        assert_eq!(ruling.verdict, Verdict::SecondParty);
    }

    #[test]
    fn unrelated_claims_are_inconclusive() {
        // Two parties watermark two *independent* datasets: neither
        // secret verifies on the other's data.
        let wm = Watermarker::new(
            GenerationParams::default()
                .with_z(101)
                .with_exclude_free_pairs(true),
        );
        let a_out = wm
            .generate_histogram(&base_hist(), Secret::from_label("party-a"))
            .unwrap();
        let other = Histogram::from_counts(power_law_counts(&PowerLawConfig {
            distinct_tokens: 400,
            sample_size: 700_000,
            alpha: 0.7,
        }));
        let b_out = wm
            .generate_histogram(&other, Secret::from_label("party-b"))
            .unwrap();
        let a = Claim {
            histogram: a_out.watermarked,
            secrets: a_out.secrets,
        };
        let b = Claim {
            histogram: b_out.watermarked,
            secrets: b_out.secrets,
        };
        let params = DetectionParams::default()
            .with_t(0)
            .with_k((a.secrets.len().min(b.secrets.len()) * 3 / 4).max(1));
        let ruling = judge_dispute(&a, &b, &params);
        assert_eq!(ruling.verdict, Verdict::Inconclusive);
    }
}
