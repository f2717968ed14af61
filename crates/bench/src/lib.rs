//! Shared helpers for the paper's experiments, which the `exp_paper`
//! binary (`src/bin/exp_paper/`) runs one per module.
//!
//! Every experiment regenerates one table or figure of the paper (its
//! module doc names which) and prints the same rows/series the paper
//! reports.

use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use std::time::Instant;

/// The paper's synthetic testbed at its default scale: 1K distinct
/// tokens, 1M draws, skew `alpha`, as a deterministic expected-count
/// histogram.
pub fn paper_zipf(alpha: f64) -> Histogram {
    Histogram::from_counts(power_law_counts(&PowerLawConfig {
        distinct_tokens: 1_000,
        sample_size: 1_000_000,
        alpha,
    }))
}

/// Runs `f` and returns `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a header row plus a separator.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
