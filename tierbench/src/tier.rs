//! The tier under test, as real processes: `freqywm router` in front of
//! two `freqywm serve` shards, each with one worker and its own durable
//! `--data-dir`.
//!
//! The processes run the `freqywm` command line through its library
//! (`freqywm_cli::parse_args` + `run`, exactly what the `freqywm`
//! binary's `main` does): this benchmark's executable re-executes itself
//! with `serve …` / `router …`, so the harness and the program come from
//! one build of the same sources.

use crate::client::Conn;
use crate::workload::SHARDS;
use freqywm_service::proto::json::{self, Value};
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long the tier may take to come up or to drain.
const START_TIMEOUT: Duration = Duration::from_secs(30);
const STOP_TIMEOUT: Duration = Duration::from_secs(30);

/// Set in the environment of the tier processes this harness spawns.
const TIER_ENV: &str = "TIERBENCH_TIER_PROCESS";

/// Runs `freqywm <args>` in this process when the benchmark executable
/// was started as a tier process. Returns `None` for any other
/// invocation.
pub fn run_as_tier_process(args: &[String]) -> Option<i32> {
    if std::env::var_os(TIER_ENV).is_some() {
        // The harness holds our stdin open for as long as it lives; if
        // it dies without stopping the tier, stop with it.
        std::thread::spawn(|| {
            let _ = io::copy(&mut io::stdin(), &mut io::sink());
            std::process::exit(3);
        });
    }
    match args.first().map(String::as_str) {
        Some("serve") | Some("router") => Some(match freqywm_cli::parse_args(args) {
            Ok(cmd) => freqywm_cli::run(cmd, &mut std::io::stdout()),
            Err(e) => {
                eprintln!("error: {e}");
                2
            }
        }),
        _ => None,
    }
}

struct Proc {
    name: String,
    child: Child,
    /// Held open for the child's lifetime: closing it tells the child
    /// the harness is gone.
    _stdin: ChildStdin,
    /// Held open so late announcements never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

/// A running tier. Dropping it kills and reaps whatever is still up;
/// [`Tier::shutdown`] is the graceful path.
pub struct Tier {
    procs: Vec<Proc>,
    pub router: String,
    pub shards: Vec<String>,
    pub dir: PathBuf,
}

fn spawn(name: &str, args: &[String]) -> io::Result<(Proc, String)> {
    let exe = std::env::current_exe()?;
    let mut child = Command::new(exe)
        .args(args)
        .env(TIER_ENV, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdin = child.stdin.take().expect("stdin is piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    stdout.read_line(&mut line)?;
    let proc = Proc {
        name: name.to_string(),
        child,
        _stdin: stdin,
        _stdout: stdout,
    };
    match line.trim().strip_prefix("listening on ") {
        Some(addr) => Ok((proc, addr.to_string())),
        None => {
            let mut proc = proc;
            let _ = proc.child.kill();
            let _ = proc.child.wait();
            Err(io::Error::other(format!(
                "{name} did not announce its address (got {line:?})"
            )))
        }
    }
}

impl Tier {
    /// Starts two durable shards and the router over fresh data-dirs
    /// under `dir`, and waits until the router sees both shards up.
    pub fn start(dir: &Path) -> io::Result<Tier> {
        std::fs::create_dir_all(dir)?;
        let mut tier = Tier {
            procs: Vec::new(),
            router: String::new(),
            shards: Vec::new(),
            dir: dir.to_path_buf(),
        };
        for i in 0..SHARDS {
            let data_dir = tier.shard_dir(i);
            let args: Vec<String> = [
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--data-dir",
                &data_dir.to_string_lossy(),
                "--shard-id",
                &format!("{i}/{SHARDS}"),
            ]
            .map(str::to_string)
            .to_vec();
            let (proc, addr) = spawn(&format!("shard {i}"), &args)?;
            tier.procs.push(proc);
            tier.shards.push(addr);
        }
        let mut args = vec![
            "router".to_string(),
            "--listen".into(),
            "127.0.0.1:0".into(),
        ];
        for addr in &tier.shards {
            args.push("--shard".into());
            args.push(addr.clone());
        }
        let (proc, addr) = spawn("router", &args)?;
        tier.procs.push(proc);
        tier.router = addr;
        tier.wait_ready()?;
        Ok(tier)
    }

    pub fn shard_dir(&self, i: usize) -> PathBuf {
        self.dir.join(format!("shard{i}"))
    }

    fn wait_ready(&self) -> io::Result<()> {
        let deadline = Instant::now() + START_TIMEOUT;
        let mut conn = Conn::connect(&self.router)?;
        loop {
            let m = self.metrics_via(&mut conn)?;
            if m.get("shards_up").and_then(Value::as_u64) == Some(SHARDS as u64) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("the router never saw every shard up"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn metrics_via(&self, conn: &mut Conn) -> io::Result<Value> {
        let line = conn.request("{\"op\":\"metrics\"}\n")?;
        json::parse(&line)
            .ok()
            .and_then(|v| v.get("metrics").cloned())
            .ok_or_else(|| io::Error::other(format!("bad metrics response: {line}")))
    }

    /// The router's merged metrics (`totals`, `per_shard`, …).
    pub fn metrics(&self) -> io::Result<Value> {
        self.metrics_via(&mut Conn::connect(&self.router)?)
    }

    /// Peak resident set (VmHWM) summed over the router and the shards,
    /// in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let mut kib = 0u64;
        for p in &self.procs {
            let status = std::fs::read_to_string(format!("/proc/{}/status", p.child.id()))?;
            kib += status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
                .ok_or_else(|| io::Error::other(format!("no VmHWM for {}", p.name)))?;
        }
        Ok(kib as f64 / 1024.0)
    }

    /// CPU time (user + system) the router and the shards have used so
    /// far, in seconds.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        /// `USER_HZ`, the unit of `/proc/<pid>/stat` times on Linux.
        const TICKS_PER_S: f64 = 100.0;
        let mut ticks = 0u64;
        for p in &self.procs {
            let stat = std::fs::read_to_string(format!("/proc/{}/stat", p.child.id()))?;
            // Fields after the parenthesised command name; utime and
            // stime are the 12th and 13th of them.
            let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
            let fields: Vec<&str> = rest.split_whitespace().collect();
            for i in [11, 12] {
                ticks += fields
                    .get(i)
                    .and_then(|f| f.parse::<u64>().ok())
                    .ok_or_else(|| io::Error::other(format!("bad /proc stat for {}", p.name)))?;
            }
        }
        Ok(ticks as f64 / TICKS_PER_S)
    }

    /// Graceful stop: a `shutdown` op through the router drains the
    /// whole tier (shards checkpoint their data-dirs). Processes that
    /// have not exited by the stop timeout are killed, and that is an
    /// error.
    pub fn shutdown(mut self) -> io::Result<()> {
        let ack =
            Conn::connect(&self.router).and_then(|mut c| c.request("{\"op\":\"shutdown\"}\n"));
        let deadline = Instant::now() + STOP_TIMEOUT;
        let mut result = match ack {
            Ok(a) if a.starts_with("{\"ok\":true") => Ok(()),
            Ok(a) => Err(io::Error::other(format!("shutdown refused: {a}"))),
            Err(e) => Err(e),
        };
        for mut p in std::mem::take(&mut self.procs) {
            loop {
                match p.child.try_wait()? {
                    Some(status) if status.success() => break,
                    Some(status) => {
                        result = result.and(Err(io::Error::other(format!(
                            "{} exited with {status}",
                            p.name
                        ))));
                        break;
                    }
                    None if Instant::now() > deadline => {
                        let _ = p.child.kill();
                        let _ = p.child.wait();
                        result =
                            result.and(Err(io::Error::other(format!("{} did not drain", p.name))));
                        break;
                    }
                    None => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
        result
    }
}

impl Drop for Tier {
    fn drop(&mut self) {
        for p in &mut self.procs {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
    }
}
