//! Executable versions of the paper's headline claims, at CI-friendly
//! scale. `exp_paper` in `crates/bench` prints the full-scale numbers;
//! these tests pin the *shapes* so a regression that breaks a
//! reproduced result fails the suite, not just the experiment report.

use freqywm::prelude::*;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};

fn zipf_hist(alpha: f64, tokens: usize, samples: usize) -> Histogram {
    Histogram::from_counts(power_law_counts(&PowerLawConfig {
        distinct_tokens: tokens,
        sample_size: samples,
        alpha,
    }))
}

fn chosen_pairs(hist: &Histogram, params: GenerationParams, label: &str) -> usize {
    Watermarker::new(params)
        .generate_histogram(hist, Secret::from_label(label))
        .map(|o| o.report.chosen_pairs)
        .unwrap_or(0)
}

/// Fig. 2a shape: pairs ~0 at alpha ~0, rise to an interior maximum,
/// decline toward alpha = 1.
#[test]
fn fig2a_shape_interior_peak() {
    let params = GenerationParams::default().with_z(257).with_budget(2.0);
    let counts: Vec<usize> = [0.05, 0.5, 0.7, 1.0]
        .iter()
        .map(|&a| chosen_pairs(&zipf_hist(a, 300, 300_000), params, "fig2a-shape"))
        .collect();
    assert!(
        counts[0] < counts[1] / 4,
        "near-uniform data yields few pairs: {counts:?}"
    );
    assert!(counts[2] >= counts[1], "growth toward the peak: {counts:?}");
    assert!(counts[3] <= counts[2], "decline after the peak: {counts:?}");
}

/// Fig. 2b shape: smaller z, more pairs; heuristic gap closes at tiny z.
#[test]
fn fig2b_shape_z_monotone() {
    let hist = zipf_hist(0.5, 300, 300_000);
    let base = GenerationParams::default().with_budget(2.0);
    let at = |z: u64, sel: Selection| {
        chosen_pairs(&hist, base.with_z(z).with_selection(sel), "fig2b-shape")
    };
    let opt_small = at(10, Selection::Optimal);
    let opt_large = at(1031, Selection::Optimal);
    assert!(opt_small > opt_large, "{opt_small} vs {opt_large}");
    // Heuristic within 5% of optimal at z = 10 (paper: "very close").
    let grd_small = at(10, Selection::Greedy);
    assert!(
        grd_small * 100 >= opt_small * 95,
        "greedy {grd_small} vs optimal {opt_small} at z=10"
    );
}

/// Sec. IV-D shape: FreqyWM's distortion is orders of magnitude below
/// both baselines, and it alone preserves the ranking.
#[test]
fn baselines_lose_on_distortion_and_ranking() {
    use freqywm::baselines::{WmObt, WmObtConfig, WmRvs, WmRvsConfig};
    use freqywm::stats::rank::rank_churn;
    use freqywm::stats::similarity::cosine_similarity;

    let hist = zipf_hist(0.5, 300, 300_000);
    let fw = Watermarker::new(GenerationParams::default().with_z(131))
        .generate_histogram(&hist, Secret::from_label("claims-fw"))
        .unwrap();
    let (a, b) = hist.paired_counts(&fw.watermarked);
    let fw_dist = 1.0 - cosine_similarity(&a, &b);
    assert_eq!(rank_churn(&a, &b), 0, "FreqyWM preserves every rank");

    let obt = WmObt::new(WmObtConfig::default(), b"claims-obt");
    let marked = obt.embed(&hist);
    let (a, b) = hist.paired_counts(&marked);
    let obt_dist = 1.0 - cosine_similarity(&a, &b);
    assert!(rank_churn(&a, &b) > hist.len() / 10);

    let rvs = WmRvs::new(WmRvsConfig::default(), b"claims-rvs");
    let (marked, _) = rvs.embed(&hist);
    let (a, b) = hist.paired_counts(&marked);
    let rvs_dist = 1.0 - cosine_similarity(&a, &b);
    assert!(rank_churn(&a, &b) > hist.len() / 10);

    assert!(
        fw_dist * 100.0 < obt_dist && fw_dist * 100.0 < rvs_dist,
        "FreqyWM {fw_dist:.2e} must be >=100x below OBT {obt_dist:.2e} / RVS {rvs_dist:.2e}"
    );
}

/// Sec. V-B headline: at a 20% sample with a modest tolerance, the
/// detection rate clears 90%.
#[test]
fn sampling_20pct_exceeds_90pct_with_tolerance() {
    use freqywm::attacks::sampling::{detect_scaled, thin_histogram};
    use rand::SeedableRng;
    let hist = zipf_hist(0.5, 500, 500_000);
    let out = Watermarker::new(GenerationParams::default().with_z(131))
        .generate_histogram(&hist, Secret::from_label("claims-sampling"))
        .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let sample = thin_histogram(&out.watermarked, 0.2, &mut rng);
    let d = detect_scaled(
        &sample,
        &out.secrets,
        &DetectionParams::default().with_t(10).with_k(1),
        0.2,
    );
    assert!(d.accept_rate() > 0.9, "rate {}", d.accept_rate());
}

/// Sec. V-C headline: a watermark costing ~1e-4 % distortion survives a
/// 90 %-modification re-ordering attack that destroys the data's
/// ranking utility.
#[test]
fn destroy_90pct_watermark_outlives_data() {
    use freqywm::attacks::destroy::destroy_with_reordering;
    use freqywm::stats::rank::rank_churn;
    use rand::SeedableRng;
    let hist = zipf_hist(0.5, 500, 500_000);
    let out = Watermarker::new(GenerationParams::default().with_z(131))
        .generate_histogram(&hist, Secret::from_label("claims-destroy"))
        .unwrap();
    assert!(
        100.0 - out.report.similarity_pct < 1e-3,
        "tiny embedding distortion: {}",
        100.0 - out.report.similarity_pct
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let attacked = destroy_with_reordering(&out.watermarked, 90.0, &mut rng);
    let d = detect_histogram(
        &attacked,
        &out.secrets,
        &DetectionParams::default()
            .with_t(4)
            .with_k(out.secrets.len() / 2),
    );
    assert!(
        d.accepted,
        "watermark survives: {}/{}",
        d.accepted_pairs, d.total_pairs
    );
    let (a, b) = out.watermarked.paired_counts(&attacked);
    assert!(
        rank_churn(&a, &b) > a.len() * 8 / 10,
        "…while the attack destroyed the ranking"
    );
}

/// Sec. VI headline: ten stacked watermarks cost far less than
/// 10 × budget.
#[test]
fn ten_watermarks_cost_far_below_linear() {
    let hist = zipf_hist(0.5, 300, 300_000);
    let wm = Watermarker::new(GenerationParams::default().with_z(131).with_budget(2.0));
    let secrets = (0..10)
        .map(|i| Secret::from_label(&format!("claims-multi-{i}")))
        .collect();
    let multi = multi_watermark(&wm, &hist, secrets).unwrap();
    assert!(multi.rounds.len() >= 8);
    let d = multi.cumulative_distortion_pct(&hist);
    assert!(d < 0.2, "cumulative distortion {d}% (10 x b would be 20%)");
}

/// Sec. III-B4 headline: the false-positive probability collapses as k
/// grows and as t shrinks.
#[test]
fn false_positive_limits() {
    use freqywm::stats::poisson_binomial::{pair_false_positive_prob, PoissonBinomial};
    let s_values: Vec<u64> = (0..50).map(|i| 2 + (i * 37) % 129).collect();
    let tail = |t: u64, k: usize| {
        let probs: Vec<f64> = s_values
            .iter()
            .map(|&s| pair_false_positive_prob(t, s))
            .collect();
        PoissonBinomial::new(probs).survival(k)
    };
    // In k: monotone collapse to ~0 at k = n.
    assert!(tail(4, 10) > tail(4, 25));
    assert!(tail(4, 50) < 1e-6);
    // In t: monotone collapse to 0 at t = 0.
    assert!(tail(0, 1) == 0.0);
    assert!(tail(1, 10) < tail(8, 10));
}

/// Guess-attack headline: forged secrets never reach a majority quorum.
#[test]
fn guess_attack_hopeless() {
    use freqywm::attacks::guess::guess_attack;
    use rand::SeedableRng;
    let hist = zipf_hist(0.5, 300, 300_000);
    let out = Watermarker::new(GenerationParams::default().with_z(131))
        .generate_histogram(&hist, Secret::from_label("claims-guess"))
        .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let k = (out.secrets.len() / 2).max(1);
    let report = guess_attack(
        &out.watermarked,
        out.secrets.z,
        &DetectionParams::default().with_t(0).with_k(k),
        300,
        out.secrets.len(),
        &mut rng,
    );
    assert_eq!(report.successes, 0);
    assert!(report.best_accepted_pairs < k);
}
