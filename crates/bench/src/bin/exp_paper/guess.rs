//! Guess (brute-force) attack (Sec. V-A): empirical success rate of
//! forged secrets vs the owner's thresholds, plus the per-pair
//! false-positive probability feeding the Sec. III-B4 analysis.
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_paper -- guess
//! ```

use freqywm_attacks::guess::{empirical_pair_fp_probability, guess_attack};
use freqywm_bench::{paper_zipf, print_header, print_row};
use freqywm_core::generate::Watermarker;
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_crypto::prf::Secret;
use freqywm_stats::poisson_binomial::{markov_bound, PoissonBinomial};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run() {
    let hist = paper_zipf(0.5);
    let out = Watermarker::new(GenerationParams::default().with_z(131).with_budget(2.0))
        .generate_histogram(&hist, Secret::from_label("guess"))
        .expect("skewed data");
    let n = out.secrets.len();
    println!("\nSec. V-A — guess attack against a {n}-pair watermark (z = 131)");

    // Empirical per-pair FP probability for a random secret/pair.
    let mut rng = StdRng::seed_from_u64(3);
    println!("\nper-pair acceptance probability of a random guess:");
    let widths = [6, 12, 22, 22];
    print_header(
        &["t", "empirical", "P(S_n >= n/2) exact", "Markov bound"],
        &widths,
    );
    for t in [0u64, 1, 2, 4] {
        let p = empirical_pair_fp_probability(&out.watermarked, 131, t, 5_000, &mut rng);
        let pb = PoissonBinomial::new(vec![p; n]);
        print_row(
            &[
                t.to_string(),
                format!("{p:.4}"),
                format!("{:.3e}", pb.survival(n / 2)),
                format!("{:.3e}", markov_bound(pb.mean(), n / 2)),
            ],
            &widths,
        );
    }

    // The attack itself, at the owner's strict threshold.
    println!("\nmounting the attack (forged R + random pairs, t = 0, k = n/2):");
    let widths = [10, 12, 12, 18];
    print_header(
        &["attempts", "successes", "best pairs", "needed (k)"],
        &widths,
    );
    let k = n / 2;
    let params = DetectionParams::default().with_t(0).with_k(k);
    for attempts in [100usize, 1_000] {
        let report = guess_attack(&out.watermarked, 131, &params, attempts, n, &mut rng);
        print_row(
            &[
                attempts.to_string(),
                report.successes.to_string(),
                report.best_accepted_pairs.to_string(),
                k.to_string(),
            ],
            &widths,
        );
        assert_eq!(report.successes, 0);
    }
    println!(
        "\npaper: success probability negligible in the security parameter lambda (= 256 here);\n\
         the owner-side verification runs in linear time (see `cargo bench` pipeline results)."
    );
}
