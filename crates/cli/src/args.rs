//! Hand-rolled argument parser (keeps the dependency set whitelisted).

use freqywm_core::params::Selection;
use std::collections::HashMap;

/// Parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Generate {
        input: String,
        output: String,
        secret_out: String,
        budget: f64,
        z: u64,
        selection: Selection,
        exclude_free_pairs: bool,
        /// Optional deterministic secret label (testing only).
        secret_label: Option<String>,
    },
    Detect {
        input: String,
        secret: String,
        t: u64,
        k: usize,
        scale: Option<f64>,
    },
    Inspect {
        input: String,
        z: u64,
    },
    Attack {
        input: String,
        output: String,
        kind: AttackKind,
        /// Sample fraction (0–1] or noise percentage, per kind.
        param: f64,
        seed: u64,
    },
    /// Arbitrates an ownership dispute between two (data, secret) claims.
    Judge {
        a_input: String,
        a_secret: String,
        b_input: String,
        b_secret: String,
        t: u64,
        /// Quorum as a fraction of each claimant's pair count.
        quorum: f64,
    },
    /// Runs the multi-tenant engine over JSON-lines — on stdin/stdout,
    /// or over TCP via the epoll reactor when `--listen` is given.
    Serve {
        engine: EngineOpts,
        net: ServeNetOpts,
    },
    /// Runs the consistent-hash router tier: accepts the JSON-lines
    /// protocol and forwards each request to one of N backend engine
    /// shards by tenant-id hash.
    Router {
        listen: String,
        /// Primary backend addresses in shard order (`--shard`,
        /// repeatable).
        shards: Vec<String>,
        /// Optional standby per shard (`--shard primary,standby`),
        /// promoted when the primary's connection dies.
        standbys: Vec<Option<String>>,
        opts: RouterOpts,
    },
    /// One-shot metrics client: fetches the `metrics` protocol op as
    /// JSON, or (with `--prom`) scrapes a `--metrics-listen` HTTP
    /// endpoint and prints the Prometheus text exposition.
    Metrics {
        connect: String,
        /// HTTP scrape of a `--metrics-listen` port instead of the
        /// JSON protocol op.
        prom: bool,
        /// Validate the exposition with the in-repo parser and append
        /// a `# exposition OK` comment line.
        check: bool,
        /// Per-request auth token (JSON mode only).
        auth: Option<String>,
    },
    /// Live tier dashboard: polls `metrics` + `history` on a running
    /// engine or router and redraws a terminal frame.
    Top {
        connect: String,
        /// Milliseconds between frames.
        interval_ms: u64,
        /// Print a single frame (no ANSI clearing) and exit.
        once: bool,
        /// Per-request auth token.
        auth: Option<String>,
    },
    /// One-shot quota client: reads or sets a tenant's per-op-class
    /// admission budgets via the `quota` protocol op, on an engine
    /// directly or through the router (the op routes by tenant hash).
    Quota {
        connect: String,
        tenant: String,
        /// Embed-budget per window; omitted classes stay unlimited
        /// when setting.
        embed: Option<u64>,
        detect: Option<u64>,
        maintain: Option<u64>,
        window_ms: Option<u64>,
        /// Per-request auth token.
        auth: Option<String>,
    },
    /// Queries recent spans from a running `serve --listen` engine or
    /// a `router` tier over TCP (the `trace` protocol op).
    Trace {
        connect: String,
        /// Exact trace-id filter.
        trace: Option<String>,
        /// Tenant filter.
        tenant: Option<String>,
        /// Op filter (embed/detect/maintain/…).
        for_op: Option<String>,
        /// Only spans at least this many milliseconds long.
        min_ms: Option<u64>,
        /// Span-count cap.
        limit: Option<u64>,
        /// Per-request auth token (for `--auth-token` servers).
        auth: Option<String>,
    },
    /// Recovers a data-dir (snapshot + log replay) and verifies the
    /// registration hash chain end to end.
    LedgerVerify {
        data_dir: String,
        ledger_key: Option<String>,
    },
    /// Processes a JSON-lines request file through the engine
    /// (detect waves run concurrently on the worker pool).
    Batch {
        input: String,
        engine: EngineOpts,
    },
    Help,
}

/// Worker-pool flags shared by `serve` and `batch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineOpts {
    pub workers: usize,
    pub queue: usize,
    /// Durable registry data-dir; `None` keeps state in memory.
    pub data_dir: Option<String>,
    /// Registry mutations between snapshot/compaction cycles.
    pub snapshot_every: usize,
    /// Ledger HMAC key override (UTF-8 bytes).
    pub ledger_key: Option<String>,
    /// `(i, n)` from `--shard-id i/n`: this engine serves only tenants
    /// that jump-hash to shard `i` of `n` and refuses the rest.
    pub shard_id: Option<(usize, usize)>,
    /// Requests slower than this (queue wait + run) are logged as JSON
    /// lines on stderr; `Some(0)` logs every request, `None` disables.
    pub slow_ms: Option<u64>,
    /// Capacity of the in-process metrics retention ring (the
    /// `history` op's window is `retain_snapshots × retain_interval`).
    pub retain_snapshots: usize,
    /// Milliseconds between retained metrics snapshots.
    pub retain_interval_ms: u64,
    /// Default per-tenant embed budget per quota window; `None` is
    /// unlimited. Tenants can be overridden live via the `quota` op.
    pub quota_embed: Option<u64>,
    /// Default per-tenant detect budget per quota window.
    pub quota_detect: Option<u64>,
    /// Default per-tenant maintain budget per quota window.
    pub quota_maintain: Option<u64>,
    /// Width of the quota sliding window in milliseconds.
    pub quota_window_ms: Option<u64>,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            workers: 4,
            queue: 1024,
            data_dir: None,
            snapshot_every: 256,
            ledger_key: None,
            shard_id: None,
            slow_ms: None,
            retain_snapshots: 240,
            retain_interval_ms: 1000,
            quota_embed: None,
            quota_detect: None,
            quota_maintain: None,
            quota_window_ms: None,
        }
    }
}

/// Network front-end flags (`serve` only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeNetOpts {
    /// TCP listen address (e.g. `127.0.0.1:7700`, port 0 for
    /// ephemeral); `None` serves stdin/stdout.
    pub listen: Option<String>,
    /// Extra HTTP listener serving `GET /metrics` (Prometheus text)
    /// from the same reactor; announced as `metrics on <addr>`.
    pub metrics_listen: Option<String>,
    /// Concurrent connection cap.
    pub max_conns: usize,
    /// Idle connection timeout in seconds; 0 disables reaping.
    pub idle_timeout_secs: u64,
    /// Input frame-size cap in bytes (shared with the pipe transport).
    pub max_frame: usize,
    /// Shared-secret front-end auth: connections must `hello` with
    /// this token (or send it per-request as `"auth"`) first.
    pub auth_token: Option<String>,
    /// Primary address to replicate from: the engine starts as a
    /// read-only follower tailing this primary's ledger log, serving
    /// reads until a `promote` op flips it to a full primary.
    pub follow: Option<String>,
    /// Token presented to the primary's front-end when following
    /// (its `--auth-token`).
    pub follow_token: Option<String>,
}

impl Default for ServeNetOpts {
    fn default() -> Self {
        ServeNetOpts {
            listen: None,
            metrics_listen: None,
            max_conns: 1024,
            idle_timeout_secs: 0,
            max_frame: 1 << 20,
            auth_token: None,
            follow: None,
            follow_token: None,
        }
    }
}

/// Router-tier flags (`freqywm router`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterOpts {
    pub max_conns: usize,
    pub max_frame: usize,
    /// Extra HTTP listener serving `GET /metrics` with the router's
    /// own exposition (per-shard roles, lag, RTT histograms).
    pub metrics_listen: Option<String>,
    /// Client-side shared-secret auth (like `serve --auth-token`).
    pub auth_token: Option<String>,
    /// Token the router presents to backends (their `--auth-token`).
    pub shard_auth_token: Option<String>,
    /// Seconds between health probes of idle backends.
    pub probe_interval_secs: u64,
    /// Drain bound in seconds (shutdown op / SIGTERM).
    pub drain_timeout_secs: u64,
    /// How long requests park while a standby promotes before they
    /// error out (seconds).
    pub failover_timeout_secs: u64,
}

impl Default for RouterOpts {
    fn default() -> Self {
        RouterOpts {
            max_conns: 1024,
            max_frame: 1 << 20,
            metrics_listen: None,
            auth_token: None,
            shard_auth_token: None,
            probe_interval_secs: 2,
            drain_timeout_secs: 10,
            failover_timeout_secs: 10,
        }
    }
}

/// Parses `--shard-id i/n` (e.g. `0/4`).
pub fn parse_shard_id(s: &str) -> Result<(usize, usize), String> {
    let err = || format!("bad value for --shard-id: {s:?} (expected i/n, e.g. 0/4)");
    let (i, n) = s.split_once('/').ok_or_else(err)?;
    let i: usize = i.parse().map_err(|_| err())?;
    let n: usize = n.parse().map_err(|_| err())?;
    if n == 0 || i >= n {
        return Err(format!("bad value for --shard-id: {s:?} (need 0 <= i < n)"));
    }
    Ok((i, n))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    Sample,
    Destroy,
    Reorder,
}

/// Usage text shown by `freqywm help` and on errors.
pub const USAGE: &str = "\
freqywm — frequency watermarking for token datasets (FreqyWM, ICDE'24)

USAGE:
  freqywm generate --input <tokens.txt> --output <wm.txt> --secret-out <secret.fwm>
                   [--budget 2.0] [--z 131] [--selection optimal|greedy|random]
                   [--seed N] [--exclude-free-pairs] [--secret-label L]
  freqywm detect   --input <suspect.txt> --secret <secret.fwm> [--t 0] [--k 1]
                   [--scale F]
  freqywm inspect  --input <tokens.txt> [--z 131]
  freqywm attack   --input <wm.txt> --output <attacked.txt>
                   --kind sample|destroy|reorder --param <x> [--seed N]
  freqywm judge    --a-input <a.txt> --a-secret <a.fwm>
                   --b-input <b.txt> --b-secret <b.fwm> [--t 0] [--quorum 0.25]
  freqywm serve    [--listen <addr>] [--metrics-listen <addr>]
                   [--max-conns 1024] [--idle-timeout SECS]
                   [--max-frame BYTES] [--auth-token T] [--shard-id i/N]
                   [--workers 4] [--queue 1024] [--slow-ms MS]
                   [--retain-snapshots 240] [--retain-interval-ms 1000]
                   [--data-dir <dir>] [--snapshot-every 256] [--ledger-key K]
                   [--follow <primary-addr>] [--follow-token T]
                   [--quota-embed N] [--quota-detect N] [--quota-maintain N]
                   [--quota-window-ms 60000]
  freqywm router   --listen <addr> --shard <addr>[,<standby>]
                   [--shard <addr>[,<standby>] ...]
                   [--metrics-listen <addr>]
                   [--max-conns 1024] [--max-frame BYTES] [--auth-token T]
                   [--shard-auth-token T] [--probe-interval 2]
                   [--drain-timeout 10] [--failover-timeout 10]
  freqywm metrics  --connect <addr> [--prom] [--check] [--auth TOKEN]
  freqywm top      --connect <addr> [--interval-ms 1000] [--once]
                   [--auth TOKEN]
  freqywm quota    --connect <addr> --tenant T [--embed N] [--detect N]
                   [--maintain N] [--window-ms MS] [--auth TOKEN]
  freqywm trace    --connect <addr> [--trace ID] [--tenant T] [--for-op OP]
                   [--min-ms MS] [--limit N] [--auth TOKEN]
  freqywm batch    --input <requests.jsonl> [--workers 4] [--queue 1024]
                   [--data-dir <dir>] [--snapshot-every 256] [--ledger-key K]
  freqywm ledger verify --data-dir <dir> [--ledger-key K]
  freqywm help

Token files contain one token per line. `detect` exits 0 on accept,
1 on reject, 2 on error.

`serve` reads one JSON request per line on stdin and writes one JSON
response per line on stdout (ops: register, embed, detect, maintain,
dispute, metrics, shutdown). With `--listen <addr>` it instead serves
the same protocol over TCP from a non-blocking epoll reactor: one
reactor thread plus the worker pool handle every connection (the bound
address is printed as `listening on <addr>` on startup; `--idle-timeout
0` disables idle reaping; a `shutdown` op drains gracefully — stop
accepting, flush in-flight responses, close). `batch` runs the protocol
over a file, running consecutive detect requests concurrently on the
worker pool.

`router` scales the same protocol across processes: each request is
forwarded to one of N backend `serve --listen` shards by
jump-consistent hash on the tenant id (`metrics` fans out to every
shard and merges; `shutdown` drains the whole tier; SIGTERM drains the
router only, leaving backends up). Give each backend `--shard-id i/N`
(matching its position in the router's --shard list) so a misrouted
tenant is refused, and its own --data-dir so durability stays per
partition. `--auth-token` on serve or router locks the socket behind a
hello handshake; the router presents `--shard-auth-token` to its
backends.

`serve --follow <primary-addr>` starts the engine as a read-only
standby: it tails the primary's ledger log over the `replicate`
protocol op into its own --data-dir, serves reads (detect, dispute,
metrics, trace) while refusing mutations, and becomes a full primary
when it receives a `promote` op. Give each router shard a standby as
`--shard <primary>,<standby>`: when the primary's connection dies the
router promotes the standby and redirects that shard's traffic to it
(requests arriving during promotion park for up to --failover-timeout
seconds; only requests in flight at the instant of death error). See
docs/replication.md.

`serve --metrics-listen <addr>` (and the router's flag of the same
name) adds an HTTP listener on the same reactor answering `GET
/metrics` with the Prometheus text exposition (0.0.4); every other
target is 404 and connections are one-shot. `freqywm metrics --connect
<addr>` fetches the JSON `metrics` op (or, with `--prom`, scrapes the
HTTP endpoint; `--check` validates the exposition with the in-repo
parser). The engine also retains a ring of periodic metrics snapshots
(`--retain-snapshots` × `--retain-interval-ms` deep) served by the
`history` protocol op with derived window rates; `freqywm top
--connect <addr>` polls `metrics` + `history` into a refreshing
per-shard dashboard (`--once` prints a single frame for scripts). See
docs/observability.md.

`serve --quota-embed/--quota-detect/--quota-maintain N` cap every
tenant at N jobs of that class per sliding `--quota-window-ms` window
(default 60 s); an omitted class is unlimited. Jobs over budget are
refused at admission with a typed `quota_exhausted` error carrying a
`retry_after_ms` hint — they never occupy the queue. `freqywm quota
--connect <addr> --tenant T` reads a tenant's effective budgets and
window usage; adding `--embed/--detect/--maintain/--window-ms` sets
them live (persisted in the registry log, replicated to standbys; an
omitted class becomes unlimited for that tenant). Works against an
engine or the router. See docs/quotas.md.

`trace` connects to a running `serve --listen` engine (or a `router`,
which fans the query out to every shard) and prints the recent stage
spans — parse, auth, queue_wait, run, prf_sweep, respond — matching the
given filters, one JSON response on stdout. Every protocol request may
carry a `\"trace\":\"id\"` field; the router mints one when absent, so
a single id follows a request from client to router to shard to worker.
`serve --slow-ms N` additionally logs any request whose queue wait plus
run time reaches N milliseconds as a JSON line on stderr (0 logs every
request).

With `--data-dir` the registry and its hash-chained ledger live in an
append-only, fsync'd, checksummed log (plus periodic snapshots), so
registration chronology survives restarts and crashes; `ledger verify`
recovers a data-dir read-only and re-proves the whole chain (exit 0
verified / 1 corrupt or unrecoverable).";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {a:?}"))?;
        // Boolean flags take no value.
        if matches!(key, "exclude-free-pairs" | "prom" | "check" | "once") {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn req(flags: &HashMap<String, String>, key: &str) -> Result<String, String> {
    flags
        .get(key)
        .cloned()
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn opt_parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for --{key}: {v:?}")),
        None => Ok(default),
    }
}

fn parse_engine_opts(f: &HashMap<String, String>) -> Result<EngineOpts, String> {
    let defaults = EngineOpts::default();
    Ok(EngineOpts {
        workers: opt_parse(f, "workers", defaults.workers)?,
        queue: opt_parse(f, "queue", defaults.queue)?,
        data_dir: f.get("data-dir").cloned(),
        snapshot_every: opt_parse(f, "snapshot-every", defaults.snapshot_every)?,
        ledger_key: f.get("ledger-key").cloned(),
        shard_id: f.get("shard-id").map(|s| parse_shard_id(s)).transpose()?,
        slow_ms: f
            .get("slow-ms")
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for --slow-ms: {v:?}"))
            })
            .transpose()?,
        retain_snapshots: opt_parse(f, "retain-snapshots", defaults.retain_snapshots)?,
        retain_interval_ms: opt_parse(f, "retain-interval-ms", defaults.retain_interval_ms)?,
        quota_embed: opt_u64(f, "quota-embed")?,
        quota_detect: opt_u64(f, "quota-detect")?,
        quota_maintain: opt_u64(f, "quota-maintain")?,
        quota_window_ms: opt_u64(f, "quota-window-ms")?,
    })
}

fn opt_u64(f: &HashMap<String, String>, key: &str) -> Result<Option<u64>, String> {
    f.get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad value for --{key}: {v:?}"))
        })
        .transpose()
}

/// Parses the command line (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let f = parse_flags(rest)?;
            let selection = match f.get("selection").map(|s| s.as_str()).unwrap_or("optimal") {
                "optimal" => Selection::Optimal,
                "greedy" => Selection::Greedy,
                "random" => Selection::Random {
                    seed: opt_parse(&f, "seed", 0u64)?,
                },
                other => return Err(format!("unknown selection {other:?}")),
            };
            Ok(Command::Generate {
                input: req(&f, "input")?,
                output: req(&f, "output")?,
                secret_out: req(&f, "secret-out")?,
                budget: opt_parse(&f, "budget", 2.0f64)?,
                z: opt_parse(&f, "z", 131u64)?,
                selection,
                exclude_free_pairs: f.contains_key("exclude-free-pairs"),
                secret_label: f.get("secret-label").cloned(),
            })
        }
        "detect" => {
            let f = parse_flags(rest)?;
            let scale = match f.get("scale") {
                Some(v) => {
                    let s: f64 = v
                        .parse()
                        .map_err(|_| format!("bad value for --scale: {v:?}"))?;
                    // The protocol refuses the same values; detect
                    // would assert on them.
                    if !(s.is_finite() && s > 0.0) {
                        return Err("scale must be a positive finite number".to_string());
                    }
                    Some(s)
                }
                None => None,
            };
            Ok(Command::Detect {
                input: req(&f, "input")?,
                secret: req(&f, "secret")?,
                t: opt_parse(&f, "t", 0u64)?,
                k: opt_parse(&f, "k", 1usize)?,
                scale,
            })
        }
        "inspect" => {
            let f = parse_flags(rest)?;
            Ok(Command::Inspect {
                input: req(&f, "input")?,
                z: opt_parse(&f, "z", 131u64)?,
            })
        }
        "attack" => {
            let f = parse_flags(rest)?;
            let kind = match req(&f, "kind")?.as_str() {
                "sample" => AttackKind::Sample,
                "destroy" => AttackKind::Destroy,
                "reorder" => AttackKind::Reorder,
                other => return Err(format!("unknown attack kind {other:?}")),
            };
            Ok(Command::Attack {
                input: req(&f, "input")?,
                output: req(&f, "output")?,
                kind,
                param: req(&f, "param")?
                    .parse()
                    .map_err(|_| "bad value for --param".to_string())?,
                seed: opt_parse(&f, "seed", 0u64)?,
            })
        }
        "serve" => {
            let f = parse_flags(rest)?;
            let net_defaults = ServeNetOpts::default();
            Ok(Command::Serve {
                engine: parse_engine_opts(&f)?,
                net: ServeNetOpts {
                    listen: f.get("listen").cloned(),
                    metrics_listen: f.get("metrics-listen").cloned(),
                    max_conns: opt_parse(&f, "max-conns", net_defaults.max_conns)?,
                    idle_timeout_secs: opt_parse(
                        &f,
                        "idle-timeout",
                        net_defaults.idle_timeout_secs,
                    )?,
                    max_frame: opt_parse(&f, "max-frame", net_defaults.max_frame)?,
                    auth_token: f.get("auth-token").cloned(),
                    follow: f.get("follow").cloned(),
                    follow_token: f.get("follow-token").cloned(),
                },
            })
        }
        "router" => {
            // `--shard` repeats (once per backend, in shard order), so
            // it is collected before the single-value flag parser runs.
            // Each value is `<primary>[,<standby>]`: the optional
            // second address is a read-only follower the router
            // promotes when the primary's connection dies.
            let mut shards: Vec<String> = Vec::new();
            let mut standbys: Vec<Option<String>> = Vec::new();
            let mut flag_args: Vec<String> = Vec::new();
            let mut i = 0;
            while i < rest.len() {
                if rest[i] == "--shard" {
                    let v = rest
                        .get(i + 1)
                        .ok_or_else(|| "flag --shard needs a value".to_string())?;
                    let (primary, standby) = match v.split_once(',') {
                        Some((p, s)) => (p.trim(), Some(s.trim())),
                        None => (v.trim(), None),
                    };
                    // An empty entry would silently shift every
                    // index in the shard map off its --shard-id, or
                    // promote into the void on failover.
                    if primary.is_empty()
                        || standby == Some("")
                        || standby.is_some_and(|s| s.contains(','))
                    {
                        return Err(format!(
                            "bad --shard {v:?} (expected <primary>[,<standby>])"
                        ));
                    }
                    shards.push(primary.to_string());
                    standbys.push(standby.map(str::to_string));
                    i += 2;
                } else {
                    flag_args.push(rest[i].clone());
                    i += 1;
                }
            }
            let f = parse_flags(&flag_args)?;
            if shards.is_empty() {
                return Err(format!(
                    "router needs at least one --shard <addr>\n\n{USAGE}"
                ));
            }
            let defaults = RouterOpts::default();
            Ok(Command::Router {
                listen: req(&f, "listen")?,
                shards,
                standbys,
                opts: RouterOpts {
                    max_conns: opt_parse(&f, "max-conns", defaults.max_conns)?,
                    max_frame: opt_parse(&f, "max-frame", defaults.max_frame)?,
                    metrics_listen: f.get("metrics-listen").cloned(),
                    auth_token: f.get("auth-token").cloned(),
                    shard_auth_token: f.get("shard-auth-token").cloned(),
                    probe_interval_secs: opt_parse(
                        &f,
                        "probe-interval",
                        defaults.probe_interval_secs,
                    )?,
                    drain_timeout_secs: opt_parse(
                        &f,
                        "drain-timeout",
                        defaults.drain_timeout_secs,
                    )?,
                    failover_timeout_secs: opt_parse(
                        &f,
                        "failover-timeout",
                        defaults.failover_timeout_secs,
                    )?,
                },
            })
        }
        "batch" => {
            let f = parse_flags(rest)?;
            Ok(Command::Batch {
                input: req(&f, "input")?,
                engine: parse_engine_opts(&f)?,
            })
        }
        "metrics" => {
            let f = parse_flags(rest)?;
            let prom = f.contains_key("prom");
            let check = f.contains_key("check");
            if check && !prom {
                return Err("--check requires --prom (it validates the HTTP exposition)".into());
            }
            Ok(Command::Metrics {
                connect: req(&f, "connect")?,
                prom,
                check,
                auth: f.get("auth").cloned(),
            })
        }
        "top" => {
            let f = parse_flags(rest)?;
            Ok(Command::Top {
                connect: req(&f, "connect")?,
                interval_ms: opt_parse(&f, "interval-ms", 1000u64)?,
                once: f.contains_key("once"),
                auth: f.get("auth").cloned(),
            })
        }
        "quota" => {
            let f = parse_flags(rest)?;
            Ok(Command::Quota {
                connect: req(&f, "connect")?,
                tenant: req(&f, "tenant")?,
                embed: opt_u64(&f, "embed")?,
                detect: opt_u64(&f, "detect")?,
                maintain: opt_u64(&f, "maintain")?,
                window_ms: opt_u64(&f, "window-ms")?,
                auth: f.get("auth").cloned(),
            })
        }
        "trace" => {
            let f = parse_flags(rest)?;
            let parse_u64 = |key: &str| -> Result<Option<u64>, String> {
                f.get(key)
                    .map(|v| {
                        v.parse()
                            .map_err(|_| format!("bad value for --{key}: {v:?}"))
                    })
                    .transpose()
            };
            Ok(Command::Trace {
                connect: req(&f, "connect")?,
                trace: f.get("trace").cloned(),
                tenant: f.get("tenant").cloned(),
                for_op: f.get("for-op").cloned(),
                min_ms: parse_u64("min-ms")?,
                limit: parse_u64("limit")?,
                auth: f.get("auth").cloned(),
            })
        }
        "ledger" => {
            let Some((sub, rest)) = rest.split_first() else {
                return Err(format!("ledger needs a subcommand (verify)\n\n{USAGE}"));
            };
            if sub != "verify" {
                return Err(format!("unknown ledger subcommand {sub:?}\n\n{USAGE}"));
            }
            let f = parse_flags(rest)?;
            Ok(Command::LedgerVerify {
                data_dir: req(&f, "data-dir")?,
                ledger_key: f.get("ledger-key").cloned(),
            })
        }
        "judge" => {
            let f = parse_flags(rest)?;
            Ok(Command::Judge {
                a_input: req(&f, "a-input")?,
                a_secret: req(&f, "a-secret")?,
                b_input: req(&f, "b-input")?,
                b_secret: req(&f, "b-secret")?,
                t: opt_parse(&f, "t", 0u64)?,
                quorum: opt_parse(&f, "quorum", 0.25f64)?,
            })
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&v(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&v(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn generate_defaults() {
        let c = parse_args(&v(&[
            "generate",
            "--input",
            "in.txt",
            "--output",
            "out.txt",
            "--secret-out",
            "s.fwm",
        ]))
        .unwrap();
        match c {
            Command::Generate {
                budget,
                z,
                selection,
                exclude_free_pairs,
                ..
            } => {
                assert_eq!(budget, 2.0);
                assert_eq!(z, 131);
                assert_eq!(selection, Selection::Optimal);
                assert!(!exclude_free_pairs);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn generate_full_flags() {
        let c = parse_args(&v(&[
            "generate",
            "--input",
            "a",
            "--output",
            "b",
            "--secret-out",
            "c",
            "--budget",
            "0.5",
            "--z",
            "1031",
            "--selection",
            "random",
            "--seed",
            "7",
            "--exclude-free-pairs",
            "--secret-label",
            "demo",
        ]))
        .unwrap();
        match c {
            Command::Generate {
                budget,
                z,
                selection,
                exclude_free_pairs,
                secret_label,
                ..
            } => {
                assert_eq!(budget, 0.5);
                assert_eq!(z, 1031);
                assert_eq!(selection, Selection::Random { seed: 7 });
                assert!(exclude_free_pairs);
                assert_eq!(secret_label.as_deref(), Some("demo"));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn detect_with_scale() {
        let c = parse_args(&v(&[
            "detect", "--input", "x", "--secret", "s", "--t", "4", "--k", "10", "--scale", "5.0",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Detect {
                input: "x".into(),
                secret: "s".into(),
                t: 4,
                k: 10,
                scale: Some(5.0)
            }
        );
    }

    #[test]
    fn detect_refuses_a_non_positive_or_non_finite_scale() {
        for bad in ["0", "-1", "NaN", "inf"] {
            let err = parse_args(&v(&[
                "detect", "--input", "x", "--secret", "s", "--scale", bad,
            ]))
            .unwrap_err();
            assert_eq!(
                err, "scale must be a positive finite number",
                "--scale {bad}"
            );
        }
    }

    #[test]
    fn attack_kinds() {
        for (s, k) in [
            ("sample", AttackKind::Sample),
            ("destroy", AttackKind::Destroy),
            ("reorder", AttackKind::Reorder),
        ] {
            let c = parse_args(&v(&[
                "attack", "--input", "a", "--output", "b", "--kind", s, "--param", "0.5",
            ]))
            .unwrap();
            match c {
                Command::Attack {
                    kind, param, seed, ..
                } => {
                    assert_eq!(kind, k);
                    assert_eq!(param, 0.5);
                    assert_eq!(seed, 0);
                }
                _ => panic!("wrong command"),
            }
        }
    }

    #[test]
    fn judge_flags() {
        let c = parse_args(&v(&[
            "judge",
            "--a-input",
            "a.txt",
            "--a-secret",
            "a.fwm",
            "--b-input",
            "b.txt",
            "--b-secret",
            "b.fwm",
            "--quorum",
            "0.5",
        ]))
        .unwrap();
        match c {
            Command::Judge {
                t, quorum, a_input, ..
            } => {
                assert_eq!(t, 0);
                assert_eq!(quorum, 0.5);
                assert_eq!(a_input, "a.txt");
            }
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&v(&["judge", "--a-input", "a.txt"])).is_err());
    }

    #[test]
    fn serve_and_batch_flags() {
        assert_eq!(
            parse_args(&v(&["serve"])).unwrap(),
            Command::Serve {
                engine: EngineOpts::default(),
                net: ServeNetOpts::default(),
            }
        );
        let c = parse_args(&v(&["serve", "--workers", "8", "--queue", "64"])).unwrap();
        match c {
            Command::Serve { engine, net } => {
                assert_eq!(engine.workers, 8);
                assert_eq!(engine.queue, 64);
                assert_eq!(net.listen, None);
            }
            _ => panic!("wrong command"),
        }
        let c = parse_args(&v(&["batch", "--input", "reqs.jsonl", "--workers", "2"])).unwrap();
        match c {
            Command::Batch { input, engine } => {
                assert_eq!(input, "reqs.jsonl");
                assert_eq!(engine.workers, 2);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&v(&["batch"])).is_err(), "batch needs --input");
        assert!(parse_args(&v(&["serve", "--workers", "x"])).is_err());
    }

    #[test]
    fn serve_network_flags() {
        let c = parse_args(&v(&[
            "serve",
            "--listen",
            "127.0.0.1:7700",
            "--max-conns",
            "2000",
            "--idle-timeout",
            "300",
            "--max-frame",
            "65536",
        ]))
        .unwrap();
        match c {
            Command::Serve { net, .. } => {
                assert_eq!(net.listen.as_deref(), Some("127.0.0.1:7700"));
                assert_eq!(net.max_conns, 2000);
                assert_eq!(net.idle_timeout_secs, 300);
                assert_eq!(net.max_frame, 65536);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&v(&["serve", "--max-conns", "many"])).is_err());
        assert!(parse_args(&v(&["serve", "--listen"])).is_err());
    }

    #[test]
    fn router_flags_collect_repeated_shards() {
        let c = parse_args(&v(&[
            "router",
            "--listen",
            "127.0.0.1:7700",
            "--shard",
            "127.0.0.1:7701",
            "--shard",
            "127.0.0.1:7702,127.0.0.1:7703",
            "--auth-token",
            "front",
            "--shard-auth-token",
            "back",
            "--probe-interval",
            "5",
        ]))
        .unwrap();
        match c {
            Command::Router {
                listen,
                shards,
                standbys,
                opts,
            } => {
                assert_eq!(listen, "127.0.0.1:7700");
                // One shard per --shard flag; a comma attaches a
                // standby to that shard rather than adding a shard.
                assert_eq!(shards, vec!["127.0.0.1:7701", "127.0.0.1:7702"]);
                assert_eq!(standbys, vec![None, Some("127.0.0.1:7703".to_string())]);
                assert_eq!(opts.auth_token.as_deref(), Some("front"));
                assert_eq!(opts.shard_auth_token.as_deref(), Some("back"));
                assert_eq!(opts.probe_interval_secs, 5);
                assert_eq!(opts.drain_timeout_secs, 10);
                assert_eq!(opts.failover_timeout_secs, 10);
            }
            _ => panic!("wrong command"),
        }
        assert!(
            parse_args(&v(&["router", "--listen", "x"])).is_err(),
            "router needs --shard"
        );
        assert!(
            parse_args(&v(&["router", "--shard", "a:1"])).is_err(),
            "router needs --listen"
        );
        // Empty addresses would shift every shard index off its
        // backend's --shard-id, or promote into the void on failover.
        assert!(
            parse_args(&v(&["router", "--listen", "x", "--shard", "a:1,"])).is_err(),
            "empty standby must be rejected"
        );
        assert!(
            parse_args(&v(&["router", "--listen", "x", "--shard", "a:1,,b:2"])).is_err(),
            "two commas must be rejected"
        );
        assert!(
            parse_args(&v(&["router", "--listen", "x", "--shard", ",b:2"])).is_err(),
            "empty primary must be rejected"
        );
    }

    #[test]
    fn serve_follow_flags() {
        let c = parse_args(&v(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--follow",
            "127.0.0.1:7701",
            "--follow-token",
            "hunter2",
        ]))
        .unwrap();
        match c {
            Command::Serve { net, .. } => {
                assert_eq!(net.follow.as_deref(), Some("127.0.0.1:7701"));
                assert_eq!(net.follow_token.as_deref(), Some("hunter2"));
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&v(&["serve"])).unwrap() {
            Command::Serve { net, .. } => assert_eq!(net.follow, None),
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn serve_shard_id_and_auth() {
        let c = parse_args(&v(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--shard-id",
            "1/4",
            "--auth-token",
            "secret",
        ]))
        .unwrap();
        match c {
            Command::Serve { engine, net } => {
                assert_eq!(engine.shard_id, Some((1, 4)));
                assert_eq!(net.auth_token.as_deref(), Some("secret"));
            }
            _ => panic!("wrong command"),
        }
        assert_eq!(parse_shard_id("0/2"), Ok((0, 2)));
        assert!(parse_shard_id("2/2").is_err(), "index out of range");
        assert!(parse_shard_id("0/0").is_err());
        assert!(parse_shard_id("x/2").is_err());
        assert!(parse_shard_id("3").is_err());
        assert!(parse_args(&v(&["serve", "--shard-id", "9/4"])).is_err());
    }

    #[test]
    fn slow_ms_and_trace_flags() {
        let c = parse_args(&v(&["serve", "--slow-ms", "250"])).unwrap();
        match c {
            Command::Serve { engine, .. } => assert_eq!(engine.slow_ms, Some(250)),
            _ => panic!("wrong command"),
        }
        let c = parse_args(&v(&["serve"])).unwrap();
        match c {
            Command::Serve { engine, .. } => assert_eq!(engine.slow_ms, None),
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&v(&["serve", "--slow-ms", "fast"])).is_err());

        let c = parse_args(&v(&[
            "trace",
            "--connect",
            "127.0.0.1:7700",
            "--tenant",
            "acme",
            "--for-op",
            "detect",
            "--min-ms",
            "5",
            "--limit",
            "20",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Trace {
                connect: "127.0.0.1:7700".into(),
                trace: None,
                tenant: Some("acme".into()),
                for_op: Some("detect".into()),
                min_ms: Some(5),
                limit: Some(20),
                auth: None,
            }
        );
        assert!(parse_args(&v(&["trace"])).is_err(), "trace needs --connect");
        assert!(parse_args(&v(&["trace", "--connect", "x", "--min-ms", "soon"])).is_err());
    }

    #[test]
    fn metrics_and_top_flags() {
        let c = parse_args(&v(&["metrics", "--connect", "127.0.0.1:9900"])).unwrap();
        assert_eq!(
            c,
            Command::Metrics {
                connect: "127.0.0.1:9900".into(),
                prom: false,
                check: false,
                auth: None,
            }
        );
        let c = parse_args(&v(&[
            "metrics",
            "--connect",
            "127.0.0.1:9900",
            "--prom",
            "--check",
            "--auth",
            "tok",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Metrics {
                connect: "127.0.0.1:9900".into(),
                prom: true,
                check: true,
                auth: Some("tok".into()),
            }
        );
        assert!(
            parse_args(&v(&["metrics", "--connect", "x", "--check"])).is_err(),
            "--check without --prom must be rejected"
        );
        assert!(parse_args(&v(&["metrics"])).is_err(), "needs --connect");

        let c = parse_args(&v(&["top", "--connect", "127.0.0.1:7700", "--once"])).unwrap();
        assert_eq!(
            c,
            Command::Top {
                connect: "127.0.0.1:7700".into(),
                interval_ms: 1000,
                once: true,
                auth: None,
            }
        );
        let c = parse_args(&v(&["top", "--connect", "x", "--interval-ms", "250"])).unwrap();
        match c {
            Command::Top {
                interval_ms, once, ..
            } => {
                assert_eq!(interval_ms, 250);
                assert!(!once);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&v(&["top"])).is_err(), "top needs --connect");
    }

    #[test]
    fn metrics_listen_and_retention_flags() {
        let c = parse_args(&v(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--metrics-listen",
            "127.0.0.1:9900",
            "--retain-snapshots",
            "16",
            "--retain-interval-ms",
            "50",
        ]))
        .unwrap();
        match c {
            Command::Serve { engine, net } => {
                assert_eq!(net.metrics_listen.as_deref(), Some("127.0.0.1:9900"));
                assert_eq!(engine.retain_snapshots, 16);
                assert_eq!(engine.retain_interval_ms, 50);
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&v(&["serve"])).unwrap() {
            Command::Serve { engine, net } => {
                assert_eq!(net.metrics_listen, None);
                assert_eq!(engine.retain_snapshots, 240);
                assert_eq!(engine.retain_interval_ms, 1000);
            }
            _ => panic!("wrong command"),
        }
        let c = parse_args(&v(&[
            "router",
            "--listen",
            "x",
            "--shard",
            "a:1",
            "--metrics-listen",
            "127.0.0.1:9901",
        ]))
        .unwrap();
        match c {
            Command::Router { opts, .. } => {
                assert_eq!(opts.metrics_listen.as_deref(), Some("127.0.0.1:9901"));
            }
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&v(&["serve", "--retain-snapshots", "lots"])).is_err());
    }

    #[test]
    fn quota_flags_on_serve_and_one_shot() {
        let c = parse_args(&v(&[
            "serve",
            "--quota-embed",
            "100",
            "--quota-window-ms",
            "5000",
        ]))
        .unwrap();
        match c {
            Command::Serve { engine, .. } => {
                assert_eq!(engine.quota_embed, Some(100));
                assert_eq!(engine.quota_detect, None);
                assert_eq!(engine.quota_maintain, None);
                assert_eq!(engine.quota_window_ms, Some(5000));
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&v(&["serve"])).unwrap() {
            Command::Serve { engine, .. } => {
                assert_eq!(engine.quota_embed, None);
                assert_eq!(engine.quota_window_ms, None);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&v(&["serve", "--quota-embed", "lots"])).is_err());

        let c = parse_args(&v(&[
            "quota",
            "--connect",
            "x:1",
            "--tenant",
            "acme",
            "--embed",
            "50",
            "--auth",
            "tok",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Quota {
                connect: "x:1".into(),
                tenant: "acme".into(),
                embed: Some(50),
                detect: None,
                maintain: None,
                window_ms: None,
                auth: Some("tok".into()),
            }
        );
        assert!(
            parse_args(&v(&["quota", "--connect", "x:1"])).is_err(),
            "quota needs --tenant"
        );
        assert!(
            parse_args(&v(&["quota", "--tenant", "t"])).is_err(),
            "quota needs --connect"
        );
    }

    #[test]
    fn durability_flags_and_ledger_verify() {
        let c = parse_args(&v(&[
            "serve",
            "--data-dir",
            "/var/lib/freqywm",
            "--snapshot-every",
            "16",
            "--ledger-key",
            "prod-key",
        ]))
        .unwrap();
        match c {
            Command::Serve { engine, .. } => {
                assert_eq!(engine.data_dir.as_deref(), Some("/var/lib/freqywm"));
                assert_eq!(engine.snapshot_every, 16);
                assert_eq!(engine.ledger_key.as_deref(), Some("prod-key"));
            }
            _ => panic!("wrong command"),
        }
        assert_eq!(
            parse_args(&v(&["ledger", "verify", "--data-dir", "d"])).unwrap(),
            Command::LedgerVerify {
                data_dir: "d".into(),
                ledger_key: None,
            }
        );
        assert!(parse_args(&v(&["ledger"])).is_err());
        assert!(parse_args(&v(&["ledger", "burn"])).is_err());
        assert!(
            parse_args(&v(&["ledger", "verify"])).is_err(),
            "needs --data-dir"
        );
    }

    #[test]
    fn errors() {
        assert!(parse_args(&v(&["generate", "--input", "a"])).is_err());
        assert!(parse_args(&v(&["nonsense"])).is_err());
        assert!(parse_args(&v(&["detect", "--input"])).is_err());
        assert!(parse_args(&v(&["detect", "badpositional"])).is_err());
        assert!(parse_args(&v(&[
            "generate",
            "--input",
            "a",
            "--output",
            "b",
            "--secret-out",
            "c",
            "--z",
            "notanumber"
        ]))
        .is_err());
        assert!(parse_args(&v(&[
            "attack", "--input", "a", "--output", "b", "--kind", "meteor", "--param", "1"
        ]))
        .is_err());
    }
}
