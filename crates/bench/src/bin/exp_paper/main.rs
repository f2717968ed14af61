//! The paper's experiments behind one binary.
//!
//! Each module regenerates a table or figure of FreqyWM (its module doc
//! names which, and the claim the printed rows are read against) with
//! fixed seeds. `exp_paper <name>` runs one entry of [`EXPERIMENTS`] and
//! `exp_paper all` runs every entry in table order; each entry ends
//! with a `[name: seconds]` line, and `all` with `[all: seconds]`. A
//! missing or unknown name prints the list and exits 2.
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_paper -- all
//! cargo run --release -p freqywm-bench --bin exp_paper -- fig5
//! ```

mod ablation;
mod baselines;
mod destroy;
mod false_positive;
mod fig2;
mod guess;
mod incremental;
mod ml_accuracy;
mod multidim;
mod multiwm;
mod rewatermark;
mod sampling;
mod table2;

use freqywm_bench::timed;

/// Every experiment, in the order `all` runs them: its name on the
/// command line and its runner. Each module doc says what of the paper
/// the entry reproduces.
const EXPERIMENTS: &[(&str, fn())] = &[
    ("table2", table2::run),
    ("fig2a", fig2::fig2a),
    ("fig2b", fig2::fig2b),
    ("fig2c", fig2::fig2c),
    ("baselines", baselines::run),
    ("multidim", multidim::run),
    ("false_positive", false_positive::run),
    ("guess", guess::run),
    ("large", sampling::large),
    ("fig4", sampling::fig4),
    ("fig5", destroy::fig5),
    ("reorder", destroy::reorder),
    ("rewatermark", rewatermark::run),
    ("discrepancy", multiwm::discrepancy),
    ("decompose", multiwm::decompose),
    ("history", multiwm::history),
    ("ml_accuracy", ml_accuracy::run),
    ("incremental", incremental::run),
    ("ablation", ablation::run),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let picked: Vec<_> = match args.as_slice() {
        [all] if all == "all" => EXPERIMENTS.iter().collect(),
        [name] => EXPERIMENTS.iter().filter(|(n, _)| n == name).collect(),
        _ => Vec::new(),
    };
    if picked.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "usage: exp_paper <name|all>\nexperiments: {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let ((), total) = timed(|| {
        for (name, run) in &picked {
            let ((), secs) = timed(run);
            println!("\n[{name}: {secs:.1}s]");
        }
    });
    if picked.len() > 1 {
        println!("\n[all: {total:.1}s]");
    }
}
