//! Extension experiment — Incremental FreqyWM (the paper's Sec. VI
//! future work, implemented in `freqywm-core::incremental`).
//!
//! A watermarked click-stream keeps growing: every epoch 10 % of the
//! tokens gain ~1 % volume and a few tokens churn out entirely. The
//! maintainer repairs broken pairs, retires unrepairable ones and
//! replenishes capacity — versus the strawman that re-watermarks from
//! scratch each epoch (minting a new secret and losing continuity).
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_paper -- incremental
//! ```

use freqywm_bench::{paper_zipf, print_header, print_row};
use freqywm_core::detect::detect_histogram;
use freqywm_core::generate::Watermarker;
use freqywm_core::incremental::IncrementalWatermarker;
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_crypto::prf::Secret;
use freqywm_data::token::Token;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn run() {
    let hist = paper_zipf(0.5);
    let params = GenerationParams::default().with_z(131);
    let out = Watermarker::new(params)
        .generate_histogram(&hist, Secret::from_label("incremental-exp"))
        .expect("skewed data");
    let initial_pairs = out.secrets.len();
    let mut inc = IncrementalWatermarker::new(params, out.secrets, out.watermarked);
    let mut rng = StdRng::seed_from_u64(12);

    println!(
        "\nIncremental FreqyWM over 8 update epochs (initial watermark: {initial_pairs} pairs)"
    );
    let widths = [7, 9, 9, 9, 9, 8, 12, 13];
    print_header(
        &[
            "epoch",
            "updates",
            "intact",
            "repaired",
            "retired",
            "added",
            "repair cost",
            "verify t=0",
        ],
        &widths,
    );
    for epoch in 1..=8 {
        // Growth: 10% of tokens gain ~1% volume; 2 tokens churn out.
        let snapshot = inc.histogram().clone();
        let mut updates: Vec<(Token, i64)> = Vec::new();
        for (t, c) in snapshot.entries() {
            if rng.gen::<f64>() < 0.10 {
                updates.push((t.clone(), (*c / 100 + 1) as i64));
            }
        }
        for (t, c) in snapshot.entries().iter().rev().take(2) {
            updates.push((t.clone(), -(*c as i64)));
        }
        // A few brand-new tokens enter the stream.
        for i in 0..3 {
            updates.push((
                Token::new(format!("newcomer-{epoch}-{i}")),
                rng.gen_range(500..5_000),
            ));
        }
        let report = inc.apply_updates(&updates, true).expect("maintainable");
        let verify = detect_histogram(
            inc.histogram(),
            inc.secrets(),
            &DetectionParams::default()
                .with_t(0)
                .with_k(inc.secrets().len()),
        );
        print_row(
            &[
                epoch.to_string(),
                updates.len().to_string(),
                report.intact.to_string(),
                report.repaired.to_string(),
                report.retired.to_string(),
                report.added.to_string(),
                report.total_change.to_string(),
                if verify.accepted {
                    "ACCEPT".into()
                } else {
                    "REJECT".into()
                },
            ],
            &widths,
        );
        assert!(verify.accepted, "maintenance must keep the watermark exact");
    }
    println!(
        "\nfinal capacity: {} pairs ({} initially); the secret list and owner identity are\n\
         preserved across all epochs — a from-scratch re-watermark would mint a new secret\n\
         each epoch and lose the ledger/dispute chronology.",
        inc.secrets().len(),
        initial_pairs
    );
}
