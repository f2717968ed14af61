//! Run header, result files, the printed tables, and `compare`.

use crate::stats::quartiles;
use freqywm_service::proto::json::{self, escape, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Raw samples behind a quantile or rate.
    pub n: Option<usize>,
    /// For per-layer metrics: the end-to-end metric and workload it
    /// should move.
    pub moves: Option<&'static str>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            n: None,
            moves: None,
        }
    }

    pub fn with_n(mut self, n: usize) -> Metric {
        self.n = Some(n);
        self
    }
}

/// A JSON number with all its digits; non-finite values (which no
/// metric should produce) become `null` rather than invalid JSON.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host and run description recorded with every result.
#[derive(Debug, Clone)]
pub struct Header {
    pub fields: Vec<(&'static str, String)>,
}

impl Header {
    pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool, rate: f64) -> Header {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let flags: Vec<&str> = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("flags"))
            .map(|l| {
                l.trim_start_matches([' ', '\t', ':'])
                    .split_whitespace()
                    .collect()
            })
            .unwrap_or_default();
        let cpu_flags: Vec<String> = ["sha_ni", "avx2", "avx512f"]
            .iter()
            .map(|f| format!("{f}={}", flags.contains(f)))
            .collect();
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        Header {
            fields: vec![
                ("workload", workload.to_string()),
                ("seed", seed.to_string()),
                ("seconds", seconds.to_string()),
                ("trace", u8::from(trace).to_string()),
                (
                    "git_rev",
                    // Only this checkout's own .git, never a parent's.
                    command_output("git", &["--git-dir=.git", "rev-parse", "HEAD"])
                        .unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
                ),
                ("nproc", nproc.to_string()),
                ("cpu_flags", cpu_flags.join(" ")),
                (
                    "rustc",
                    command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
                ),
                (
                    "profile",
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }
                    .to_string(),
                ),
                ("open_loop_rate_per_s", num(rate)),
            ],
        }
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    pub fn print(&self) {
        for (k, v) in &self.fields {
            println!("# {k}: {v}");
        }
    }
}

fn metrics_json(metrics: &[Metric], with_detail: bool) -> String {
    let parts: Vec<String> = metrics
        .iter()
        .map(|m| {
            let mut s = format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                m.name,
                num(m.value),
                m.unit
            );
            if with_detail {
                if let Some(n) = m.n {
                    let _ = write!(s, ",\"n\":{n}");
                }
                if let Some(moves) = m.moves {
                    let _ = write!(s, ",\"moves\":\"{}\"", escape(moves));
                }
            }
            s.push('}');
            s
        })
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Everything one run produced.
pub struct RunResult {
    pub header: Header,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the run reports, by the names the workload uses.
    pub metrics: Vec<Metric>,
    /// The subset, under the benchmark's own names, that goes on the
    /// last line.
    pub gated: Vec<Metric>,
    pub problems: Vec<String>,
}

impl RunResult {
    pub fn print_table(&self) {
        println!(
            "{:<28} {:>16} {:<8} {:>8}  moves",
            "metric", "value", "unit", "n"
        );
        for m in &self.metrics {
            println!(
                "{:<28} {:>16.4} {:<8} {:>8}  {}",
                m.name,
                m.value,
                m.unit,
                m.n.map_or(String::new(), |n| n.to_string()),
                m.moves.unwrap_or("")
            );
        }
        for p in &self.problems {
            println!("! {p}");
        }
        println!(
            "# correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
    }

    /// The full record, as written under the results directory.
    pub fn to_json(&self) -> String {
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", escape(p)))
            .collect();
        format!(
            "{{\"header\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{},\"gated_metrics\":{},\"problems\":[{}]}}",
            self.header.to_json(),
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics, true),
            metrics_json(&self.gated, false),
            problems.join(",")
        )
    }

    /// The last line of standard output.
    pub fn last_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.gated, false)
        )
    }
}

// ---- compare ------------------------------------------------------------

/// Bound for metrics BENCHMARK.json does not gate: the largest it may
/// set.
const UNGATED_BOUND: f64 = 0.25;

/// `(bound, higher_is_better)` per metric name, from BENCHMARK.json.
fn bounds(benchmark: &Value) -> BTreeMap<String, (f64, bool)> {
    let mut out = BTreeMap::new();
    if let Some(list) = benchmark.get("end_to_end").and_then(Value::as_arr) {
        for m in list {
            if let (Some(name), Some(bound), Some(better)) = (
                m.get("name").and_then(Value::as_str),
                m.get("bound").and_then(Value::as_f64),
                m.get("better").and_then(Value::as_str),
            ) {
                out.insert(name.to_string(), (bound, better == "higher"));
            }
        }
    }
    out
}

/// A metric's bound and direction: its BENCHMARK.json entry; otherwise
/// rates are better higher and everything else lower, held to
/// [`UNGATED_BOUND`]. Failures have no tolerance.
fn bound_of(name: &str, gated: &BTreeMap<String, (f64, bool)>) -> (f64, bool) {
    if name == "failed_frac" {
        return (0.0, false);
    }
    gated.get(name).copied().unwrap_or((
        UNGATED_BOUND,
        name.ends_with("_per_s") || name.ends_with("_rps"),
    ))
}

/// `(workload, metric) → [(seed, value)]` over the untraced runs in
/// `path` (a results directory or one result file).
type Runs = BTreeMap<(String, String), Vec<(String, f64)>>;

fn load_runs(path: &Path) -> Result<Runs, String> {
    let files: Vec<std::path::PathBuf> = if path.is_dir() {
        let mut f: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        f.sort();
        f
    } else {
        vec![path.to_path_buf()]
    };
    let mut runs = Runs::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let v = json::parse(text.trim()).map_err(|e| format!("{}: {e}", file.display()))?;
        let field = |k: &str| {
            v.get("header")
                .and_then(|h| h.get(k))
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        let (Some(workload), Some(seed), Some(trace)) =
            (field("workload"), field("seed"), field("trace"))
        else {
            continue;
        };
        if trace != "0" {
            continue;
        }
        if let Some(Value::Obj(metrics)) = v.get("metrics") {
            for (name, m) in metrics {
                if let Some(value) = m.get("value").and_then(Value::as_f64) {
                    runs.entry((workload.clone(), name.clone()))
                        .or_default()
                        .push((seed.clone(), value));
                }
            }
        }
    }
    Ok(runs)
}

/// `compare <old> <new>`: per (workload, metric), both sides' medians
/// and quartiles, pair wins over runs with the same seed, and a label
/// against the bounds in `benchmark`.
pub fn compare(old: &Path, new: &Path, benchmark: &Path) -> Result<String, String> {
    let bench_text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let bounds =
        bounds(&json::parse(bench_text.trim()).map_err(|e| format!("BENCHMARK.json: {e}"))?);
    let old_runs = load_runs(old)?;
    let new_runs = load_runs(new)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<20} {:>32} {:>32} {:>7} {:>6}  label",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "wins", "bound"
    );
    for ((workload, metric), old_vals) in &old_runs {
        let Some(new_vals) = new_runs.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (bound, higher_better) = bound_of(metric, &bounds);
        let ov: Vec<f64> = old_vals.iter().map(|(_, v)| *v).collect();
        let nv: Vec<f64> = new_vals.iter().map(|(_, v)| *v).collect();
        let (oq1, om, oq3) = quartiles(&ov);
        let (nq1, nm, nq3) = quartiles(&nv);
        let better = |a: f64, b: f64| if higher_better { a > b } else { a < b };
        let mut pairs = 0;
        let mut wins = 0;
        for (seed, o) in old_vals {
            if let Some((_, n)) = new_vals.iter().find(|(s, _)| s == seed) {
                pairs += 1;
                wins += usize::from(better(*n, *o));
            }
        }
        let worse_by = if higher_better { om - nm } else { nm - om };
        let label = if worse_by > bound * om.abs() {
            "regressed"
        } else if pairs > 0
            && wins * 10 >= pairs * 9
            && (nm - om).abs() > (oq3 - oq1)
            && better(nm, om)
        {
            "improved"
        } else {
            "unresolved"
        };
        let _ = writeln!(
            out,
            "{:<20} {:<20} {:>32} {:>32} {:>7} {:>6}  {label}",
            workload,
            metric,
            format!("{om:.4} [{oq1:.4}, {oq3:.4}]"),
            format!("{nm:.4} [{nq1:.4}, {nq3:.4}]"),
            format!("{wins}/{pairs}"),
            bound,
        );
    }
    Ok(out)
}
