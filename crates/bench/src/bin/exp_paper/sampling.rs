//! Sampling attack (Sec. V-B, Fig. 4).
//!
//! * `large` panel — samples 1%–90% with thresholds t ∈ {0,1,2,4,10}:
//!   the paper reports ~36% of pairs at t = 0 and 72%–99.5% as t grows
//!   from 1 to 10, roughly independent of the sample size once the
//!   sample exceeds the number of distinct tokens.
//! * `fig4` panel — extreme sample sizes 0.0007%–0.5% of 1M where the
//!   subsample may miss tokens entirely; detection stabilises once the
//!   sample exceeds ~5× the distinct-token count.
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_paper -- large
//! cargo run --release -p freqywm-bench --bin exp_paper -- fig4
//! ```

use freqywm_attacks::sampling::{detect_scaled, thin_histogram};
use freqywm_bench::{mean, paper_zipf, print_header, print_row};
use freqywm_core::generate::Watermarker;
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_core::secret::SecretList;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use rand::rngs::StdRng;
use rand::SeedableRng;

const REPEATS: usize = 10;

fn testbed() -> (Histogram, SecretList) {
    // Paper: alpha = 0.5, 1K tokens, 1M samples, z = 131, b = 2 -> 139 pairs.
    let hist = paper_zipf(0.5);
    let out = Watermarker::new(GenerationParams::default().with_z(131).with_budget(2.0))
        .generate_histogram(&hist, Secret::from_label("sampling"))
        .expect("skewed data");
    (out.watermarked, out.secrets)
}

fn rate_at(
    wm: &Histogram,
    secrets: &SecretList,
    fraction: f64,
    t: u64,
    rng: &mut StdRng,
) -> (f64, f64) {
    let mut rates = Vec::with_capacity(REPEATS);
    let mut distinct = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let sample = thin_histogram(wm, fraction, rng);
        distinct.push(sample.len() as f64);
        let d = detect_scaled(
            &sample,
            secrets,
            &DetectionParams::default().with_t(t).with_k(1),
            fraction,
        );
        rates.push(d.accept_rate());
    }
    (mean(&rates), mean(&distinct))
}

pub fn large() {
    let (wm, secrets) = &testbed();
    println!(
        "\nSec. V-B — sampling attack, large samples ({} pairs, mean of {REPEATS} runs)",
        secrets.len()
    );
    let widths = [9, 9, 9, 9, 9, 9];
    print_header(&["sample%", "t=0", "t=1", "t=2", "t=4", "t=10"], &widths);
    let mut rng = StdRng::seed_from_u64(1);
    for pct in [90.0, 50.0, 20.0, 10.0, 5.0, 1.0] {
        let mut cells = vec![format!("{pct:.0}")];
        for t in [0u64, 1, 2, 4, 10] {
            let (rate, _) = rate_at(wm, secrets, pct / 100.0, t, &mut rng);
            cells.push(format!("{:.1}", rate * 100.0));
        }
        print_row(&cells, &widths);
    }
    println!("paper: t=0 ~36%; t=1..10 -> 72%..99.5% (roughly size-independent above 1K tokens)");
}

pub fn fig4() {
    let (wm, secrets) = &testbed();
    println!("\nFig. 4 — sampling attack at very low sample sizes (alpha = 0.5, 1M tokens)");
    let widths = [10, 11, 12, 9, 9, 9];
    print_header(
        &["sample%", "~tokens", "distinct", "t=2", "t=4", "t=10"],
        &widths,
    );
    let mut rng = StdRng::seed_from_u64(2);
    for pct in [0.0007, 0.0015, 0.003, 0.007, 0.015, 0.05, 0.1, 0.5] {
        let frac = pct / 100.0;
        let mut cells = vec![format!("{pct}"), format!("{:.0}", wm.total() as f64 * frac)];
        let mut distinct_seen = 0.0;
        for t in [2u64, 4, 10] {
            let (rate, distinct) = rate_at(wm, secrets, frac, t, &mut rng);
            distinct_seen = distinct;
            cells.push(format!("{:.1}", rate * 100.0));
        }
        cells.insert(2, format!("{distinct_seen:.0}"));
        print_row(&cells, &widths);
    }
    println!(
        "paper: detection stabilises once the sample holds >5x the 1K distinct tokens; below ~2x it \
         degrades quickly (and the sample has little utility left)"
    );
}
