//! A data-marketplace scenario on the simulated eyeWnder click-stream:
//! the seller watermarks the browsing log before listing it, a buyer
//! re-sells a pirated copy, and the marketplace detects the watermark
//! — even though the log's analytic value (trend / seasonality /
//! daily-volume features, Sec. VI) is untouched.
//!
//! ```sh
//! cargo run --release --example clickstream_marketplace
//! ```

use freqywm::prelude::*;
use freqywm_data::realworld::eyewnder;
use freqywm_stats::decompose::{decompose_additive, max_abs_diff, series_correlation};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    // 120k browsing events over 84 days, 11.5k distinct URLs.
    let log = eyewnder(120_000, &mut rng);
    let urls = log.urls();
    println!(
        "eyeWnder-style click-stream: {} events, {} distinct URLs, {} days",
        urls.len(),
        urls.histogram().len(),
        log.span_days()
    );

    // Seller watermarks the URL frequencies (z = 131, b = 2 as in the
    // paper's real-data validation), with two hardening knobs beyond
    // the paper: free-pair exclusion (pairs that hold by chance carry
    // no evidence) and a modulus floor (pairs with tiny s_ij verify on
    // anything once t reaches s/2, so they are false-positive noise).
    let params = GenerationParams::default()
        .with_z(131)
        .with_budget(2.0)
        .with_exclude_free_pairs(true)
        .with_min_modulus(8);
    let secret = Secret::from_label("marketplace-listing-001");
    let out = Watermarker::new(params)
        .generate_histogram(&urls.histogram(), secret)
        .expect("click-streams are heavy-tailed");
    println!(
        "\nwatermark: |Le| = {}, chosen pairs = {}, similarity = {:.6}%",
        out.report.eligible_pairs, out.report.chosen_pairs, out.report.similarity_pct
    );

    // Carry the watermark through to the timestamped log.
    let watermarked_log = log.with_url_counts(&out.watermarked, &mut rng);

    // --- Utility check: the features an analyst buys the data for ---
    let days = log.span_days();
    let before = log.daily_counts(days);
    let after = watermarked_log.daily_counts(days);
    let d_before = decompose_additive(&before, 7);
    let d_after = decompose_additive(&after, 7);
    println!("\nanalytic utility after watermarking (daily series, weekly period):");
    println!(
        "  daily volume   : correlation {:.6}, max abs diff {:.1} visits",
        series_correlation(&before, &after),
        max_abs_diff(&before, &after)
    );
    println!(
        "  trend          : correlation {:.6}",
        series_correlation(&d_before.trend, &d_after.trend)
    );
    println!(
        "  seasonality    : correlation {:.6}",
        series_correlation(&d_before.seasonal, &d_after.seasonal)
    );

    // --- Piracy: the buyer re-lists the full log on a rival market ---
    // (Heavily subsampled copies of THIS dataset are a different story:
    // its tail counts are small, so sampling noise swamps the moduli —
    // the paper's Sec. V-B sampling results live in the 1M-sample
    // synthetic regime; see `exp_paper large`.)
    let pirated = watermarked_log.urls();
    println!(
        "\npirate re-lists the full watermarked log: {} events",
        pirated.len()
    );
    let detection = DetectionParams::default()
        .with_t(0)
        .with_k((out.secrets.len() / 2).max(1));
    let verdict = detect_dataset(&pirated, &out.secrets, &detection);
    println!(
        "marketplace detection on the pirated copy: {} ({}/{} pairs exact, k = {})",
        if verdict.accepted {
            "ACCEPT — pirated copy identified"
        } else {
            "REJECT"
        },
        verdict.accepted_pairs,
        verdict.total_pairs,
        detection.k
    );
    assert!(
        verdict.accepted,
        "a verbatim copy must carry the full watermark"
    );

    // An innocent third-party click-stream (different popularity law)
    // does not trigger detection.
    let innocent = eyewnder(120_000, &mut StdRng::seed_from_u64(999));
    let innocent_check = detect_dataset(&innocent.urls(), &out.secrets, &detection);
    println!(
        "detection on an unrelated click-stream   : {} ({}/{} pairs exact)",
        if innocent_check.accepted {
            "ACCEPT (!)"
        } else {
            "REJECT — no false claim"
        },
        innocent_check.accepted_pairs,
        innocent_check.total_pairs
    );
    assert!(!innocent_check.accepted);
}
