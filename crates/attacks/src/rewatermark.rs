//! The re-watermarking / false-claim attack (Sec. V-D).
//!
//! The pirate runs the public `WM_Generate` on the stolen watermarked
//! data and presents the result with its own secret. [`rewatermark_attack`]
//! produces the pirate's claim; the dispute itself is arbitrated by
//! [`freqywm_core::judge`].

use freqywm_core::error::Result;
use freqywm_core::generate::Watermarker;
use freqywm_core::judge::Claim;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;

/// Mounts the attack: watermark the (already watermarked) `stolen`
/// histogram with the pirate's own secret and return the pirate's
/// claim as it would be presented to a judge.
pub fn rewatermark_attack(
    stolen: &Histogram,
    pirate_watermarker: &Watermarker,
    pirate_secret: Secret,
) -> Result<Claim> {
    let out = pirate_watermarker.generate_histogram(stolen, pirate_secret)?;
    Ok(Claim {
        histogram: out.watermarked,
        secrets: out.secrets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use freqywm_core::detect::detect_histogram;
    use freqywm_core::judge::{judge_dispute, Verdict};
    use freqywm_core::params::{DetectionParams, GenerationParams};
    use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};

    fn owner_setup() -> (Histogram, Claim, Watermarker) {
        let h = Histogram::from_counts(power_law_counts(&PowerLawConfig {
            distinct_tokens: 400,
            sample_size: 800_000,
            alpha: 0.5,
        }));
        let wm = Watermarker::new(
            GenerationParams::default()
                .with_z(131)
                .with_exclude_free_pairs(true),
        );
        let out = wm
            .generate_histogram(&h, Secret::from_label("rightful-owner"))
            .unwrap();
        let claim = Claim {
            histogram: out.watermarked,
            secrets: out.secrets,
        };
        (h, claim, wm)
    }

    #[test]
    fn first_watermark_survives_rewatermarking() {
        let (_, owner, wm) = owner_setup();
        let pirate =
            rewatermark_attack(&owner.histogram, &wm, Secret::from_label("pirate")).unwrap();
        // Paper: first watermark detected with ~92% of pairs at t = 0
        // on the doubly watermarked data.
        let params = DetectionParams::default().with_t(0).with_k(1);
        let d = detect_histogram(&pirate.histogram, &owner.secrets, &params);
        assert!(
            d.accept_rate() > 0.3,
            "owner pair survival {} too low",
            d.accept_rate()
        );
    }

    #[test]
    fn judge_rules_for_the_owner() {
        let (_, owner, wm) = owner_setup();
        let pirate =
            rewatermark_attack(&owner.histogram, &wm, Secret::from_label("pirate")).unwrap();
        let params = DetectionParams::default()
            .with_t(0)
            .with_k((owner.secrets.len() / 4).max(1));
        let ruling = judge_dispute(&owner, &pirate, &params);
        assert_eq!(ruling.verdict, Verdict::FirstParty);
    }

    #[test]
    fn double_rewatermarking_never_flips_to_the_pirate() {
        // Pirate stacks two of its own watermarks. Each extra round
        // erodes the judge's margin (both cross-rates drift toward each
        // other, as each round turns more pairs free), so we only
        // assert the safety property: the pirate never *wins*.
        let (_, owner, wm) = owner_setup();
        let p1 = rewatermark_attack(&owner.histogram, &wm, Secret::from_label("pirate-1")).unwrap();
        let p2 = rewatermark_attack(&p1.histogram, &wm, Secret::from_label("pirate-2")).unwrap();
        let params = DetectionParams::default()
            .with_t(0)
            .with_k((owner.secrets.len() / 4).max(1));
        let ruling = judge_dispute(&owner, &p2, &params);
        assert_ne!(ruling.verdict, Verdict::SecondParty);
    }
}
