//! Sec. IV-C — multi-dimensional watermarking on the Adult dataset:
//! the composite token [Age, WorkClass] (paper: 481 distinct values,
//! 20 pairs chosen) versus the single-attribute Age token, including
//! the row-level transformation with carrier-row duplication.
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_paper -- multidim
//! ```

use freqywm_bench::{print_header, print_row};
use freqywm_core::detect::detect_histogram;
use freqywm_core::generate::Watermarker;
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_crypto::prf::Secret;
use freqywm_data::realworld;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run() {
    let mut rng = StdRng::seed_from_u64(4);
    let table = realworld::adult(realworld::ADULT_DEFAULT_ROWS, &mut rng);
    println!("\nSec. IV-C — multi-dimensional tokens on the (simulated) Adult dataset");
    println!("rows: {}, z = 131, b = 2\n", table.len());
    let widths = [20, 10, 8, 9, 13, 13];
    print_header(
        &[
            "token",
            "distinct",
            "|Le|",
            "chosen",
            "similarity%",
            "round-trip",
        ],
        &widths,
    );
    let params = GenerationParams::default().with_z(131).with_budget(2.0);
    for cols in [vec!["age"], vec!["age", "workclass"]] {
        let label = format!("[{}]", cols.join(", "));
        let hist = table.tokens_over(&cols).histogram();
        let (wtable, secrets, report) = Watermarker::new(params)
            .watermark_table(&table, &cols, Secret::from_label(&label))
            .expect("adult histograms are skewed");
        // Detection on the *transformed table*, not just the histogram.
        let suspect = wtable.tokens_over(&cols).histogram();
        let d = detect_histogram(
            &suspect,
            &secrets,
            &DetectionParams::default().with_t(0).with_k(secrets.len()),
        );
        print_row(
            &[
                label,
                hist.len().to_string(),
                report.eligible_pairs.to_string(),
                report.chosen_pairs.to_string(),
                format!("{:.4}", report.similarity_pct),
                if d.accepted {
                    "ACCEPT".into()
                } else {
                    "REJECT".into()
                },
            ],
            &widths,
        );
        assert!(d.accepted);
        // Semantic integrity: every row keeps the full column set.
        assert!(wtable
            .rows()
            .iter()
            .all(|r| r.len() == table.columns().len()));
    }
    println!("\npaper: [Age] 73 distinct -> 21 pairs; [Age, WorkClass] 481 distinct -> 20 pairs");
}
