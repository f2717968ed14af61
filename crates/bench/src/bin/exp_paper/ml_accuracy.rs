//! Sec. VI — effect of (multi-)watermarking on ML model accuracy.
//!
//! The paper trains a next-URL predictor (embedding + LSTM + output
//! layer, 10 epochs, batch 128) on the original and the
//! 10×-watermarked eyeWnder click-stream: 82.33% vs 82.34% accuracy —
//! parity. We repeat the experiment with the from-scratch LSTM in
//! `freqywm-ml` on the simulated click-stream.
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_paper -- ml_accuracy
//! ```

use freqywm_bench::{print_header, print_row, timed};
use freqywm_core::generate::Watermarker;
use freqywm_core::multiwm::multi_watermark;
use freqywm_core::params::GenerationParams;
use freqywm_crypto::prf::Secret;
use freqywm_data::token::Token;
use freqywm_ml::{train_and_evaluate, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run() {
    let mut rng = StdRng::seed_from_u64(9);
    let log = freqywm_data::realworld::eyewnder(150_000, &mut rng);
    // Ten successive watermarks, as in the paper's experiment.
    let wm = Watermarker::new(GenerationParams::default().with_z(131).with_budget(2.0));
    let secrets = (0..10)
        .map(|i| Secret::from_label(&format!("ml-round-{i}")))
        .collect();
    let multi = multi_watermark(&wm, &log.urls().histogram(), secrets).expect("rounds");
    let final_hist = multi.final_histogram().expect("rounds").clone();
    let wlog = log.with_url_counts(&final_hist, &mut rng);

    let original: Vec<Token> = log.urls().tokens().to_vec();
    let marked: Vec<Token> = wlog.urls().tokens().to_vec();
    println!(
        "\nSec. VI — next-URL prediction, original vs {}x-watermarked ({} vs {} events)",
        multi.rounds.len(),
        original.len(),
        marked.len()
    );
    let cfg = TrainConfig {
        window: 6,
        epochs: 10,
        batch_size: 128,
        vocab_size: 64,
        embedding: 16,
        hidden: 32,
        max_examples: 20_000,
        ..Default::default()
    };
    let (rep_orig, t_orig) = timed(|| train_and_evaluate(&original, &cfg));
    let (rep_mark, t_mark) = timed(|| train_and_evaluate(&marked, &cfg));

    let widths = [14, 12, 12, 12, 12, 10];
    print_header(
        &[
            "dataset",
            "train ex.",
            "test ex.",
            "final loss",
            "accuracy%",
            "time(s)",
        ],
        &widths,
    );
    print_row(
        &[
            "original".into(),
            rep_orig.train_examples.to_string(),
            rep_orig.test_examples.to_string(),
            format!("{:.4}", rep_orig.final_train_loss),
            format!("{:.2}", rep_orig.test_accuracy * 100.0),
            format!("{t_orig:.1}"),
        ],
        &widths,
    );
    print_row(
        &[
            "watermarked".into(),
            rep_mark.train_examples.to_string(),
            rep_mark.test_examples.to_string(),
            format!("{:.4}", rep_mark.final_train_loss),
            format!("{:.2}", rep_mark.test_accuracy * 100.0),
            format!("{t_mark:.1}"),
        ],
        &widths,
    );
    let gap = (rep_orig.test_accuracy - rep_mark.test_accuracy).abs() * 100.0;
    println!("\naccuracy gap: {gap:.2} percentage points (paper: 82.33% vs 82.34% — parity)");
    assert!(gap < 5.0, "watermarking must not move accuracy materially");
}
