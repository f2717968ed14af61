//! Figure 2 (a/b/c): how skew α, modulo base z, and budget b affect the
//! number of chosen pairs for Optimal / Greedy / Random selection.
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_paper -- fig2a   # or fig2b, fig2c
//! ```

use freqywm_bench::{paper_zipf, print_header, print_row};
use freqywm_core::generate::Watermarker;
use freqywm_core::params::{GenerationParams, Selection};
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;

fn chosen(hist: &Histogram, params: GenerationParams, label: &str) -> usize {
    let wm = Watermarker::new(params);
    match wm.generate_histogram(hist, Secret::from_label(label)) {
        Ok(out) => out.report.chosen_pairs,
        Err(_) => 0, // uniform-ish data / exhausted budget -> no pairs
    }
}

/// One row of Fig. 2a/2b: `first`, then the pairs Optimal, Greedy and
/// Random (seeded `seed`) choose at b = 2 and modulo base `z`, then
/// `|Le|` (0 when no selector finds a pair).
fn selector_row(first: String, hist: &Histogram, z: u64, label: &str, seed: u64) -> Vec<String> {
    let mut cells = vec![first];
    let mut eligible = 0usize;
    for sel in [
        Selection::Optimal,
        Selection::Greedy,
        Selection::Random { seed },
    ] {
        let params = GenerationParams::default()
            .with_budget(2.0)
            .with_z(z)
            .with_selection(sel);
        let n = match Watermarker::new(params).generate_histogram(hist, Secret::from_label(label)) {
            Ok(out) => {
                eligible = out.report.eligible_pairs;
                out.report.chosen_pairs
            }
            Err(_) => 0,
        };
        cells.push(n.to_string());
    }
    cells.push(eligible.to_string());
    cells
}

pub fn fig2a() {
    println!("\nFig. 2a — chosen pairs vs skewness alpha (1K tokens, 1M samples, b = 2, z = 1031)");
    let widths = [7, 9, 9, 9, 10];
    print_header(&["alpha", "optimal", "greedy", "random", "|Le|"], &widths);
    for alpha in [0.05, 0.2, 0.5, 0.7, 0.9, 1.0] {
        let cells = selector_row(format!("{alpha:.2}"), &paper_zipf(alpha), 1031, "fig2a", 7);
        print_row(&cells, &widths);
    }
}

pub fn fig2b() {
    println!("\nFig. 2b — chosen pairs vs modulo base z (alpha = 0.5, b = 2)");
    let hist = paper_zipf(0.5);
    let widths = [7, 9, 9, 9, 10];
    print_header(&["z", "optimal", "greedy", "random", "|Le|"], &widths);
    for z in [10u64, 131, 521, 1031, 2053, 4099] {
        print_row(&selector_row(z.to_string(), &hist, z, "fig2b", 11), &widths);
    }
}

pub fn fig2c() {
    println!("\nFig. 2c — heuristics vs optimal as the budget grows (alpha = 0.7, z = 1031)");
    let hist = paper_zipf(0.7);
    let widths = [9, 9, 9, 9, 13, 13];
    print_header(
        &[
            "budget",
            "optimal",
            "greedy",
            "random",
            "greedy/opt",
            "random/opt",
        ],
        &widths,
    );
    // The similarity budget only starts to bind around 1e-5 % on this
    // testbed (the knapsack admits cheapest pairs first, and a full
    // matching costs ~2e-5 % cosine distortion), so the sweep is
    // logarithmic; the paper's linear axis hides this regime.
    for b in [1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 2.0] {
        let opt = chosen(
            &hist,
            GenerationParams::default().with_budget(b).with_z(1031),
            "fig2c",
        );
        let grd = chosen(
            &hist,
            GenerationParams::default()
                .with_budget(b)
                .with_z(1031)
                .with_selection(Selection::Greedy),
            "fig2c",
        );
        let rnd = chosen(
            &hist,
            GenerationParams::default()
                .with_budget(b)
                .with_z(1031)
                .with_selection(Selection::Random { seed: 5 }),
            "fig2c",
        );
        let ratio = |x: usize| {
            if opt == 0 {
                "-".to_string()
            } else {
                format!("{:.2}", x as f64 / opt as f64)
            }
        };
        print_row(
            &[
                format!("{b:.0e}"),
                opt.to_string(),
                grd.to_string(),
                rnd.to_string(),
                ratio(grd),
                ratio(rnd),
            ],
            &widths,
        );
    }
}
