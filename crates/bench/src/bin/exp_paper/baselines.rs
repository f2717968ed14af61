//! Fig. 3 + Sec. IV-D — FreqyWM vs the numeric database baselines
//! WM-OBT (Shehab et al.) and WM-RVS (Li et al.) applied to the same
//! histogram: similarity, mean/std of introduced changes, ranking
//! churn, and run time.
//!
//! Paper numbers (1K tokens, 1M samples, α = 0.5, b = 2, z = 131):
//! FreqyWM 99.9998% similarity, 0 rank changes; WM-OBT 54.28%, 998/1000
//! changed; WM-RVS 96%, 987/1000 changed. WM-OBT change stats 444 ±
//! 855.91; WM-RVS −69.43 ± 414.10.
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_paper -- baselines
//! ```

use freqywm_baselines::{WmObt, WmObtConfig, WmRvs, WmRvsConfig};
use freqywm_bench::{paper_zipf, print_header, print_row, timed};
use freqywm_core::generate::Watermarker;
use freqywm_core::params::GenerationParams;
use freqywm_crypto::prf::Secret;
use freqywm_stats::moments::change_stats;
use freqywm_stats::rank::rank_churn;
use freqywm_stats::similarity::cosine_similarity;

pub fn run() {
    let hist = paper_zipf(0.5);
    println!(
        "\nFig. 3 / Sec. IV-D — FreqyWM vs WM-OBT vs WM-RVS (alpha = 0.5, 1K tokens, 1M samples)"
    );
    let widths = [9, 13, 12, 12, 14, 9];
    print_header(
        &[
            "scheme",
            "similarity%",
            "mean change",
            "std change",
            "rank churn",
            "time(s)",
        ],
        &widths,
    );

    // FreqyWM, b = 2, z = 131.
    let (fw, t_fw) = timed(|| {
        Watermarker::new(GenerationParams::default().with_z(131).with_budget(2.0))
            .generate_histogram(&hist, Secret::from_label("fig3"))
            .expect("skewed data")
    });
    let (a, b) = hist.paired_counts(&fw.watermarked);
    let (mc, sc) = change_stats(&a, &b);
    print_row(
        &[
            "FreqyWM".into(),
            format!("{:.6}", cosine_similarity(&a, &b) * 100.0),
            format!("{mc:.2}"),
            format!("{sc:.2}"),
            format!("{}/{}", rank_churn(&a, &b), hist.len()),
            format!("{t_fw:.2}"),
        ],
        &widths,
    );

    // WM-OBT: 20 partitions, bits [1,1,0,1,0], GA optimisation.
    let obt = WmObt::new(WmObtConfig::default(), b"fig3-obt-key");
    let (marked_obt, t_obt) = timed(|| obt.embed(&hist));
    let (a, b) = hist.paired_counts(&marked_obt);
    let (mc, sc) = change_stats(&a, &b);
    let threshold = obt.calibrate_threshold(&marked_obt);
    print_row(
        &[
            "WM-OBT".into(),
            format!("{:.2}", cosine_similarity(&a, &b) * 100.0),
            format!("{mc:.2}"),
            format!("{sc:.2}"),
            format!("{}/{}", rank_churn(&a, &b), hist.len()),
            format!("{t_obt:.2}"),
        ],
        &widths,
    );
    assert!(
        obt.detect_with(&marked_obt, threshold),
        "WM-OBT must decode its own bits (threshold {threshold:.4})"
    );

    // WM-RVS: keyed low-significant-digit substitution.
    let rvs = WmRvs::new(WmRvsConfig::default(), b"fig3-rvs-key");
    let ((marked_rvs, _recovery), t_rvs) = timed(|| rvs.embed(&hist));
    let (a, b) = hist.paired_counts(&marked_rvs);
    let (mc, sc) = change_stats(&a, &b);
    print_row(
        &[
            "WM-RVS".into(),
            format!("{:.2}", cosine_similarity(&a, &b) * 100.0),
            format!("{mc:.2}"),
            format!("{sc:.2}"),
            format!("{}/{}", rank_churn(&a, &b), hist.len()),
            format!("{t_rvs:.2}"),
        ],
        &widths,
    );
    assert!(rvs.detect(&marked_rvs, 0.9));

    println!(
        "\npaper: FreqyWM 99.9998% / 0 rank changes; WM-OBT 54.28% / 998 changed (444 ± 855.91, >30 min);"
    );
    println!("       WM-RVS 96% / 987 changed (-69.43 ± 414.10, seconds)");
    println!("WM-OBT decoding threshold (calibrated, cf. paper's 0.0966): {threshold:.4}");
}
