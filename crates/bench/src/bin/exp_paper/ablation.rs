//! Ablations over this implementation's deviations from the paper:
//!
//! 1. **Matching weights** — the paper's `T − rm` versus the effective
//!    cost `T − min(rm, s−rm)`: pairs chosen, realised distortion.
//! 2. **Detection rule** — strict `rm ≤ t` versus symmetric
//!    `min(rm, s−rm) ≤ t` under the ±1% destroy attack.
//! 3. **Modulus floor** — `min_modulus ∈ {2, 8, 16, 32}`: how the
//!    choice trades pair count against the false-positive corridor
//!    (verified % on attacked data vs on non-watermarked data) and
//!    restores the paper's declining reorder curve.
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_paper -- ablation
//! ```

use freqywm_attacks::destroy::{destroy_percentage, destroy_with_reordering};
use freqywm_bench::{mean, paper_zipf, print_header, print_row};
use freqywm_core::detect::detect_histogram;
use freqywm_core::generate::Watermarker;
use freqywm_core::params::{DetectionParams, DetectionRule, GenerationParams, WeightScheme};
use freqywm_crypto::prf::Secret;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run() {
    let hist = paper_zipf(0.5);

    // --- 1. weight scheme ---
    println!("\nAblation 1 — matching weight scheme (alpha = 0.5, z = 131, b = 2)");
    let widths = [18, 9, 9, 14, 14];
    print_header(
        &[
            "weights",
            "matched",
            "chosen",
            "distortion%",
            "total change",
        ],
        &widths,
    );
    for (name, scheme) in [
        ("T - rm (paper)", WeightScheme::PaperRemainder),
        ("T - min(rm,s-rm)", WeightScheme::EffectiveCost),
    ] {
        let out = Watermarker::new(GenerationParams::default().with_z(131).with_weights(scheme))
            .generate_histogram(&hist, Secret::from_label("abl-weights"))
            .expect("skewed data");
        print_row(
            &[
                name.to_string(),
                out.report.matched_pairs.to_string(),
                out.report.chosen_pairs.to_string(),
                format!("{:.6}", 100.0 - out.report.similarity_pct),
                out.report.total_change.to_string(),
            ],
            &widths,
        );
    }

    // --- 2. detection rule under attack ---
    println!("\nAblation 2 — detection rule under the ±1% destroy attack (10 draws)");
    let out = Watermarker::new(GenerationParams::default().with_z(131))
        .generate_histogram(&hist, Secret::from_label("abl-rule"))
        .expect("skewed data");
    let widths = [6, 14, 14];
    print_header(&["t", "strict%", "symmetric%"], &widths);
    for t in [0u64, 1, 2, 4] {
        let mut strict = Vec::new();
        let mut symmetric = Vec::new();
        for rep in 0..10 {
            let mut rng = StdRng::seed_from_u64(40 + rep);
            let attacked = destroy_percentage(&out.watermarked, 1.0, &mut rng);
            let base = DetectionParams::default().with_t(t).with_k(1);
            strict.push(
                detect_histogram(
                    &attacked,
                    &out.secrets,
                    &base.with_rule(DetectionRule::Strict),
                )
                .accept_rate(),
            );
            symmetric.push(detect_histogram(&attacked, &out.secrets, &base).accept_rate());
        }
        print_row(
            &[
                t.to_string(),
                format!("{:.1}", mean(&strict) * 100.0),
                format!("{:.1}", mean(&symmetric) * 100.0),
            ],
            &widths,
        );
    }
    println!("(the symmetric rule catches remainders just below the modulus — paper's relaxation)");

    // --- 3. modulus floor ---
    println!(
        "\nAblation 3 — modulus floor: pairs vs the false-positive corridor (t = 4, k = 1)\n\
         and the Sec. V-C2 reorder curve (verified % at 90% noise)"
    );
    let dnon = paper_zipf(0.7);
    let widths = [8, 8, 13, 13, 13, 15];
    print_header(
        &[
            "min_s",
            "pairs",
            "D_w t=4 %",
            "D_non t=4 %",
            "±1%atk t=4 %",
            "reorder90 t=4 %",
        ],
        &widths,
    );
    for min_s in [2u64, 8, 16, 32] {
        let out = Watermarker::new(
            GenerationParams::default()
                .with_z(131)
                .with_min_modulus(min_s),
        )
        .generate_histogram(&hist, Secret::from_label("abl-floor"))
        .expect("skewed data");
        let t4 = DetectionParams::default().with_t(4).with_k(1);
        let self_rate = detect_histogram(&out.watermarked, &out.secrets, &t4).accept_rate();
        let fp_rate = detect_histogram(&dnon, &out.secrets, &t4).accept_rate();
        let mut atk = Vec::new();
        let mut reorder = Vec::new();
        for rep in 0..10 {
            let mut rng = StdRng::seed_from_u64(70 + rep);
            let attacked = destroy_percentage(&out.watermarked, 1.0, &mut rng);
            atk.push(detect_histogram(&attacked, &out.secrets, &t4).accept_rate());
            let re = destroy_with_reordering(&out.watermarked, 90.0, &mut rng);
            reorder.push(detect_histogram(&re, &out.secrets, &t4).accept_rate());
        }
        print_row(
            &[
                min_s.to_string(),
                out.report.chosen_pairs.to_string(),
                format!("{:.1}", self_rate * 100.0),
                format!("{:.1}", fp_rate * 100.0),
                format!("{:.1}", mean(&atk) * 100.0),
                format!("{:.1}", mean(&reorder) * 100.0),
            ],
            &widths,
        );
    }
    println!(
        "(min_s = 2 is paper-faithful: many pairs but D_non saturates at t >= 1; raising the floor\n\
         re-opens the corridor between attacked-data and non-watermarked-data verification rates)"
    );
}
