//! Sec. III-B4 — the false-positive analysis: `P(S_n ≥ k)` for n = 50
//! pairs with `p_m ~ U[0,1]`, evaluated exactly via the DFT of the
//! Poisson–Binomial characteristic function (the paper's method),
//! cross-checked with the exact DP, and bounded by Markov's inequality.
//! Also prints the limit behaviour in t (via `p_m = t/s`).
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_paper -- false_positive
//! ```

use freqywm_bench::{print_header, print_row};
use freqywm_stats::poisson_binomial::{markov_bound, pair_false_positive_prob, PoissonBinomial};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn run() {
    let n = 50usize;
    let mut rng = StdRng::seed_from_u64(50);
    let probs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let pb = PoissonBinomial::new(probs);
    let mu = pb.mean();
    println!("\nSec. III-B4 — survival P(S_n >= k), n = {n}, p_m ~ U[0,1] (mu = {mu:.2})");
    let widths = [5, 14, 14, 14];
    print_header(&["k", "P (DFT)", "P (exact DP)", "Markov mu/k"], &widths);
    for k in [0usize, 1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50] {
        print_row(
            &[
                k.to_string(),
                format!("{:.3e}", pb.survival_dft(k)),
                format!("{:.3e}", pb.survival(k)),
                format!("{:.3e}", markov_bound(mu, k)),
            ],
            &widths,
        );
    }
    println!(
        "\nsurvival at k = n: {:.3e} (paper: \"0 when k goes to 50\")",
        pb.survival(n)
    );

    // Limit in t: p_m = t/s_ij with the moduli a watermark actually
    // uses (s drawn uniformly from [2, 131)).
    println!("\nlimit in t — P(S_n >= k) as the tolerance t shrinks (s ~ U[2,131), k = 10):");
    let widths = [6, 12, 14, 14];
    print_header(&["t", "mean p_m", "P(S>=10)", "Markov"], &widths);
    let s_draws: Vec<u64> = (0..n).map(|_| rng.gen_range(2u64..131)).collect();
    for t in [0u64, 1, 2, 4, 8, 16, 32] {
        let probs: Vec<f64> = s_draws
            .iter()
            .map(|&s| pair_false_positive_prob(t, s))
            .collect();
        let pb = PoissonBinomial::new(probs.clone());
        let mu = pb.mean();
        print_row(
            &[
                t.to_string(),
                format!("{:.4}", mu / n as f64),
                format!("{:.3e}", pb.survival(10)),
                format!("{:.3e}", markov_bound(mu, 10)),
            ],
            &widths,
        );
    }
    println!(
        "\nboth limits match the paper: P -> 0 as t -> 0 (mu -> 0) and as k -> n; P = 1 at k = 0."
    );
}
