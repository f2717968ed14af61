//! Shared helpers for the experiment runners (`src/bin/exp_*.rs`).
//!
//! Every runner regenerates one table or figure of the paper (its
//! module doc names which) and prints the same rows/series the paper
//! reports.

use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use std::time::Instant;

/// The paper's synthetic testbed: `tokens` distinct tokens, `samples`
/// draws, skew `alpha`, as a deterministic expected-count histogram.
pub fn zipf_hist(alpha: f64, tokens: usize, samples: usize) -> Histogram {
    Histogram::from_counts(power_law_counts(&PowerLawConfig {
        distinct_tokens: tokens,
        sample_size: samples,
        alpha,
    }))
}

/// The paper's default synthetic scale (1K tokens, 1M samples).
pub fn paper_zipf(alpha: f64) -> Histogram {
    zipf_hist(alpha, 1_000, 1_000_000)
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

/// Returns the path passed via `--json-out PATH`, if the flag is
/// present on the command line. Runners that support machine-readable
/// output call this once at startup.
pub fn json_out_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json-out" {
            return Some(args.next().expect("--json-out needs a path").into());
        }
    }
    None
}

/// Renders one JSON object from `(key, already-rendered-value)` pairs.
/// Values must be valid JSON fragments (numbers, quoted strings, ...).
pub fn json_obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Writes `{"bench":NAME,"rows":[...]}` to `path`, one row per line so
/// baselines diff cleanly, and announces the write on stdout.
pub fn write_json_report(path: &std::path::Path, bench: &str, rows: &[String]) {
    let body = format!(
        "{{\"bench\":\"{bench}\",\"rows\":[\n  {}\n]}}\n",
        rows.join(",\n  ")
    );
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("# wrote {}", path.display());
}

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
