//! `tierbench`: the end-to-end benchmark of the served FreqyWM tier.
//!
//! ```sh
//! # one run (from the repository root)
//! cargo run --release -q --manifest-path tierbench/Cargo.toml -- \
//!     --workload detect_hot --seed 1 --seconds 15 --trace 0
//! # compare two sets of result files
//! cargo run --release -q --manifest-path tierbench/Cargo.toml -- \
//!     compare old-results/ new-results/
//! ```
//!
//! A run prints its header and a table of every metric, writes the full
//! record under `--out` (default `.tierbench/results`), and ends with one
//! JSON line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! It exits 1 if any answer was wrong, 2 if the run could not complete.

use std::path::PathBuf;
use tierbench::bench::{self, Config, OPEN_LOOP_RATE};
use tierbench::report::{self, Header, RunResult};
use tierbench::workload::Workload;

const USAGE: &str = "usage: tierbench --workload <embed_cold|detect_hot|detect_maintain_mix> \
--seed <n> --seconds <n> --trace <0|1> [--out <dir>]\n       tierbench compare <old> <new> [--benchmark BENCHMARK.json]";

struct RunArgs {
    config: Config,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".tierbench/results");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))? != 0)
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?.max(2);
    let trace = trace.unwrap_or(false);
    Ok(RunArgs {
        config: Config {
            workload,
            seed,
            seconds,
            trace,
            work: PathBuf::from(format!(
                ".tierbench/work/{}-{seed}-{}",
                workload.name(),
                std::process::id()
            )),
        },
        out,
    })
}

fn run(args: RunArgs) -> Result<bool, String> {
    let cfg = &args.config;
    let header = Header::collect(
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        OPEN_LOOP_RATE,
    );
    header.print();
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    let outcome = if cfg.trace {
        bench::run_traced(cfg, &args.out.join(format!("{stem}-spans.jsonl")))
    } else {
        bench::run_untraced(cfg)
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    let outcome = outcome.map_err(|e| format!("run failed: {e}"))?;
    let result = RunResult {
        header,
        correct: outcome.tally.failed == 0,
        attempted: outcome.tally.attempted.max(1),
        failed: outcome.tally.failed,
        metrics: outcome.metrics,
        gated: outcome.gated,
        problems: outcome.tally.problems,
    };
    result.print_table();
    let path = args.out.join(format!("{stem}.json"));
    std::fs::write(&path, result.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", result.last_line());
    Ok(result.correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(code) = tierbench::tier::run_as_tier_process(&args) {
        std::process::exit(code);
    }
    let code = match args.first().map(String::as_str) {
        Some("compare") => {
            let benchmark = match args.get(3).map(String::as_str) {
                Some("--benchmark") => args.get(4).cloned().unwrap_or_default(),
                _ => "BENCHMARK.json".to_string(),
            };
            match (args.get(1), args.get(2)) {
                (Some(old), Some(new)) => {
                    match report::compare(old.as_ref(), new.as_ref(), benchmark.as_ref()) {
                        Ok(table) => {
                            print!("{table}");
                            0
                        }
                        Err(e) => {
                            eprintln!("error: {e}");
                            2
                        }
                    }
                }
                _ => {
                    eprintln!("{USAGE}");
                    2
                }
            }
        }
        _ => match parse_run(&args) {
            Ok(run_args) => match run(run_args) {
                Ok(true) => 0,
                Ok(false) => 1,
                Err(e) => {
                    eprintln!("error: {e}");
                    2
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}
