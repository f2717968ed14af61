//! Multi-watermarking (Sec. VI): ten successive watermarks on the
//! eyeWnder-style click-stream.
//!
//! * `discrepancy` — cumulative histogram distortion after 10 rounds
//!   (paper: 0.003% despite a 2% budget per round) and detectability of
//!   every round on the final version;
//! * `decompose` — Figs. 6–8: trend / seasonality / residual of the
//!   daily-visit series before vs after (insignificant change);
//! * `history` — Fig. 9: the daily browser-history volume itself.
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_paper -- discrepancy
//! cargo run --release -p freqywm-bench --bin exp_paper -- decompose
//! cargo run --release -p freqywm-bench --bin exp_paper -- history
//! ```

use freqywm_bench::{print_header, print_row};
use freqywm_core::detect::detect_histogram;
use freqywm_core::generate::Watermarker;
use freqywm_core::multiwm::{multi_watermark, MultiWatermark};
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_crypto::prf::Secret;
use freqywm_data::realworld::{eyewnder, ClickStream};
use freqywm_stats::decompose::{decompose_additive, max_abs_diff, series_correlation};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUNDS: usize = 10;

fn testbed() -> (ClickStream, MultiWatermark, ClickStream) {
    let mut rng = StdRng::seed_from_u64(6);
    let log = eyewnder(220_000, &mut rng);
    let wm = Watermarker::new(GenerationParams::default().with_z(131).with_budget(2.0));
    let secrets = (0..ROUNDS)
        .map(|i| Secret::from_label(&format!("multiwm-round-{i}")))
        .collect();
    let multi = multi_watermark(&wm, &log.urls().histogram(), secrets).expect("generates");
    let final_hist = multi.final_histogram().expect("at least one round").clone();
    let wlog = log.with_url_counts(&final_hist, &mut rng);
    (log, multi, wlog)
}

pub fn discrepancy() {
    let (log, multi, _) = &testbed();
    let original = log.urls().histogram();
    println!(
        "\nSec. VI — {} successive watermarks (budget 2% each), per-round view",
        multi.rounds.len()
    );
    let widths = [7, 9, 13, 18, 15];
    print_header(
        &[
            "round",
            "pairs",
            "round sim%",
            "detect on final",
            "pairs verified",
        ],
        &widths,
    );
    let fin = multi.final_histogram().expect("rounds exist");
    for (i, round) in multi.rounds.iter().enumerate() {
        let params = DetectionParams::default()
            .with_t(4)
            .with_k((round.secrets.len() / 2).max(1));
        let d = detect_histogram(fin, &round.secrets, &params);
        print_row(
            &[
                (i + 1).to_string(),
                round.secrets.len().to_string(),
                format!("{:.5}", round.report.similarity_pct),
                if d.accepted {
                    "ACCEPT".into()
                } else {
                    "REJECT".into()
                },
                format!("{}/{}", d.accepted_pairs, d.total_pairs),
            ],
            &widths,
        );
    }
    println!(
        "\ncumulative distortion after {} rounds: {:.5}% (paper: ~0.003%, i.e. far below rounds x b)",
        multi.rounds.len(),
        multi.cumulative_distortion_pct(&original)
    );
}

pub fn decompose() {
    let (log, _, wlog) = &testbed();
    let days = log.span_days();
    let before = log.daily_counts(days);
    let after = wlog.daily_counts(days);
    let db = decompose_additive(&before, 7);
    let da = decompose_additive(&after, 7);
    println!("\nFigs. 6-8 — feature analysis of the daily-visit series (weekly period)");
    let widths = [13, 13, 15, 15];
    print_header(
        &["component", "correlation", "max |diff|", "mean level"],
        &widths,
    );
    for (name, b, a) in [
        ("trend", &db.trend, &da.trend),
        ("seasonality", &db.seasonal, &da.seasonal),
        ("residual", &db.residual, &da.residual),
    ] {
        print_row(
            &[
                name.to_string(),
                format!("{:.6}", series_correlation(b, a)),
                format!("{:.2}", max_abs_diff(b, a)),
                format!("{:.1}", b.iter().sum::<f64>() / b.len() as f64),
            ],
            &widths,
        );
    }
    println!("paper: multi-watermarks introduce an insignificant change to all three components");
}

pub fn history() {
    let (log, _, wlog) = &testbed();
    let days = log.span_days();
    let before = log.daily_counts(days);
    let after = wlog.daily_counts(days);
    println!(
        "\nFig. 9 — daily browser-history volume, original vs 10x-watermarked (first 28 days)"
    );
    let widths = [6, 12, 12, 8];
    print_header(&["day", "original", "marked", "diff"], &widths);
    for d in 0..28usize.min(days as usize) {
        print_row(
            &[
                d.to_string(),
                format!("{:.0}", before[d]),
                format!("{:.0}", after[d]),
                format!("{:+.0}", after[d] - before[d]),
            ],
            &widths,
        );
    }
    println!(
        "full-series correlation: {:.6}, max |diff|: {:.0} visits/day",
        series_correlation(&before, &after),
        max_abs_diff(&before, &after)
    );
}
