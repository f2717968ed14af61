//! Command-line parsing. Each subcommand declares its flags once, in one
//! table: a flag's name, the config field it writes and the placeholder
//! its synopsis shows. One parser fills the library configs straight
//! from those tables and refuses any flag a subcommand does not take;
//! [`usage`] renders the synopsis from the same tables, with the defaults
//! the library configs' `Default`s set. (Hand-rolled, to keep the
//! dependency set whitelisted.)

use freqywm_core::params::{DetectionParams, GenerationParams, Selection};
use freqywm_net::NetConfig;
use freqywm_service::engine::{EngineConfig, ShardGate};
use freqywm_service::FollowerConfig;
use freqywm_shard::RouterConfig;
use std::iter::Peekable;
use std::slice::Iter;
use std::time::Duration;

/// Parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Generate(Generate),
    Detect(Detect),
    Inspect(Inspect),
    Attack(Attack),
    Judge(Judge),
    Serve(Serve),
    Router(Router),
    Metrics(Metrics),
    Top(Top),
    Quota(Quota),
    Trace(Trace),
    LedgerVerify(LedgerVerify),
    Batch(Batch),
    Help,
}

/// Watermarks a token file, writing the watermarked file and the
/// secret list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Generate {
    pub input: String,
    pub output: String,
    pub secret_out: String,
    pub params: GenerationParams,
    /// Seed of `--selection random` (ignored by the other selections).
    pub seed: u64,
    /// Optional deterministic secret label (testing only).
    pub secret_label: Option<String>,
}

/// Verifies a suspect token file against a secret list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Detect {
    pub input: String,
    pub secret: String,
    pub params: DetectionParams,
}

/// Histogram statistics and watermark capacity of a token file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Inspect {
    pub input: String,
    /// Only `z` is read: the modulus the capacity probe uses.
    pub params: GenerationParams,
}

/// Replays one of the paper's attacks on a watermarked file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Attack {
    pub input: String,
    pub output: String,
    pub kind: AttackKind,
    /// Sample fraction (0–1] or noise percentage, per kind.
    pub param: f64,
    pub seed: u64,
}

/// Arbitrates an ownership dispute between two (data, secret) claims.
#[derive(Debug, Clone, PartialEq)]
pub struct Judge {
    pub a_input: String,
    pub a_secret: String,
    pub b_input: String,
    pub b_secret: String,
    pub t: u64,
    /// Quorum as a fraction of each claimant's pair count.
    pub quorum: f64,
}

impl Default for Judge {
    fn default() -> Self {
        Judge {
            a_input: String::new(),
            a_secret: String::new(),
            b_input: String::new(),
            b_secret: String::new(),
            t: DetectionParams::default().t,
            quorum: 0.25,
        }
    }
}

/// What `serve` and `batch` start an engine from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineStart {
    pub config: EngineConfig,
    /// Durable registry data-dir; `None` keeps state in memory.
    pub data_dir: Option<String>,
}

/// Runs the multi-tenant engine over JSON-lines — on stdin/stdout, or
/// over TCP via the epoll reactor when `--listen` is given.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Serve {
    pub engine: EngineStart,
    /// Reactor limits; the stdin/stdout pipe reads `max_frame` and
    /// `auth_token` too.
    pub net: NetConfig,
    /// TCP listen address (e.g. `127.0.0.1:7700`, port 0 for
    /// ephemeral); `None` serves stdin/stdout.
    pub listen: Option<String>,
    /// Extra HTTP listener serving `GET /metrics` (Prometheus text)
    /// from the same reactor; announced as `metrics on <addr>`.
    pub metrics_listen: Option<String>,
    /// Primary to replicate from: the engine starts as a read-only
    /// follower tailing its ledger log until a `promote` op.
    pub follow: Option<FollowerConfig>,
}

/// Processes a JSON-lines request file through the engine (detect
/// waves run concurrently on the worker pool).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Batch {
    pub input: String,
    pub engine: EngineStart,
}

/// Runs the consistent-hash router tier: accepts the JSON-lines
/// protocol and forwards each request to one of N backend engine
/// shards by tenant-id hash.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Router {
    pub listen: String,
    /// Extra HTTP listener serving `GET /metrics` with the router's
    /// own exposition (per-shard roles, lag, RTT histograms).
    pub metrics_listen: Option<String>,
    /// Shards (`--shard`, in shard order) with their optional standbys
    /// (`--shard primary,standby`).
    pub config: RouterConfig,
}

/// One-shot metrics client: fetches the `metrics` protocol op as JSON,
/// or (with `--prom`) scrapes a `--metrics-listen` HTTP endpoint and
/// prints the Prometheus text exposition.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics {
    pub connect: String,
    /// HTTP scrape of a `--metrics-listen` port instead of the JSON
    /// protocol op.
    pub prom: bool,
    /// Validate the exposition with the in-repo parser and append a
    /// `# exposition OK` comment line.
    pub check: bool,
    /// Per-request auth token (JSON mode only).
    pub auth: Option<String>,
}

/// Live tier dashboard: polls `metrics` + `history` on a running engine
/// or router and redraws a terminal frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Top {
    pub connect: String,
    /// Milliseconds between frames.
    pub interval_ms: u64,
    /// Print a single frame (no ANSI clearing) and exit.
    pub once: bool,
    /// Per-request auth token.
    pub auth: Option<String>,
}

impl Default for Top {
    fn default() -> Self {
        Top {
            connect: String::new(),
            interval_ms: 1000,
            once: false,
            auth: None,
        }
    }
}

/// One-shot quota client: reads or sets a tenant's per-op-class
/// admission budgets via the `quota` protocol op, on an engine directly
/// or through the router (the op routes by tenant hash).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Quota {
    pub connect: String,
    pub tenant: String,
    /// Embed budget per window; omitted classes stay unlimited when
    /// setting.
    pub embed: Option<u64>,
    pub detect: Option<u64>,
    pub maintain: Option<u64>,
    pub window_ms: Option<u64>,
    /// Per-request auth token.
    pub auth: Option<String>,
}

/// Queries recent spans from a running `serve --listen` engine or a
/// `router` tier over TCP (the `trace` protocol op).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    pub connect: String,
    /// Exact trace-id filter.
    pub trace: Option<String>,
    /// Tenant filter.
    pub tenant: Option<String>,
    /// Op filter (embed/detect/maintain/…).
    pub for_op: Option<String>,
    /// Only spans at least this many milliseconds long.
    pub min_ms: Option<u64>,
    /// Span-count cap.
    pub limit: Option<u64>,
    /// Per-request auth token (for `--auth-token` servers).
    pub auth: Option<String>,
}

/// Recovers a data-dir (snapshot + log replay) and verifies the
/// registration hash chain end to end.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerVerify {
    pub data_dir: String,
    /// Ledger HMAC key (UTF-8 bytes); `None` uses the engine default.
    pub ledger_key: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttackKind {
    #[default]
    Sample,
    Destroy,
    Reorder,
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

/// A config field a flag writes directly: its type says how the flag's
/// text parses, and whether the synopsis shows its default.
trait FlagValue {
    /// Parses `text` into the field; `Err` means "bad value".
    fn set(&mut self, text: &str) -> Result<(), ()>;
    /// The default the synopsis shows; `None` shows the placeholder.
    fn shown(&self) -> Option<String> {
        None
    }
    /// A switch takes no value: giving it sets the field.
    fn is_switch(&self) -> bool {
        false
    }
}

macro_rules! number_flag_value {
    ($($t:ty),*) => {$(
        impl FlagValue for $t {
            fn set(&mut self, text: &str) -> Result<(), ()> {
                *self = text.parse().map_err(drop)?;
                Ok(())
            }
            /// `MAX` is the library's "unlimited" sentinel, which the
            /// synopsis leaves as the placeholder.
            fn shown(&self) -> Option<String> {
                (*self != <$t>::MAX).then(|| self.to_string())
            }
        }
    )*};
}

number_flag_value!(u64, usize, f64);

impl FlagValue for String {
    fn set(&mut self, text: &str) -> Result<(), ()> {
        *self = text.to_string();
        Ok(())
    }
}

impl FlagValue for bool {
    fn set(&mut self, _: &str) -> Result<(), ()> {
        *self = true;
        Ok(())
    }

    fn is_switch(&self) -> bool {
        true
    }
}

/// Durations on the command line are whole seconds.
impl FlagValue for Duration {
    fn set(&mut self, text: &str) -> Result<(), ()> {
        *self = Duration::from_secs(text.parse().map_err(drop)?);
        Ok(())
    }

    fn shown(&self) -> Option<String> {
        Some(self.as_secs().to_string())
    }
}

impl<T: FlagValue + Default> FlagValue for Option<T> {
    fn set(&mut self, text: &str) -> Result<(), ()> {
        let mut value = T::default();
        value.set(text)?;
        *self = Some(value);
        Ok(())
    }
}

/// How a flag writes its config.
enum Write<C> {
    /// Into one field, parsed as that field's type.
    Field(fn(&mut C) -> &mut dyn FlagValue),
    /// Through its own parser, which reports its own errors.
    Parse(fn(&mut C, &str) -> Result<(), String>),
}

/// One flag of a subcommand's table.
struct Flag<C> {
    name: &'static str,
    /// The synopsis shows this for the value if no default.
    placeholder: &'static str,
    required: bool,
    /// May be given more than once (every other flag at most once).
    repeatable: bool,
    write: Write<C>,
}

/// An optional flag that writes one field.
const fn opt<C>(
    name: &'static str,
    placeholder: &'static str,
    field: fn(&mut C) -> &mut dyn FlagValue,
) -> Flag<C> {
    Flag {
        name,
        placeholder,
        required: false,
        repeatable: false,
        write: Write::Field(field),
    }
}

/// A required flag that writes one field.
const fn req<C>(
    name: &'static str,
    placeholder: &'static str,
    field: fn(&mut C) -> &mut dyn FlagValue,
) -> Flag<C> {
    Flag {
        required: true,
        ..opt(name, placeholder, field)
    }
}

/// An optional flag with its own parser.
const fn parse<C>(
    name: &'static str,
    placeholder: &'static str,
    parse: fn(&mut C, &str) -> Result<(), String>,
) -> Flag<C> {
    Flag {
        name,
        placeholder,
        required: false,
        repeatable: false,
        write: Write::Parse(parse),
    }
}

impl<C> Flag<C> {
    /// Writes this flag into `config`, taking its value from `args`.
    fn apply(&self, config: &mut C, args: &mut Peekable<Iter<String>>) -> Result<(), String> {
        let name = self.name;
        let value = match self.write {
            Write::Field(field) if field(config).is_switch() => "",
            _ => args
                .next_if(|v| !v.starts_with("--"))
                .ok_or_else(|| refuse(format!("flag --{name} needs a value")))?,
        };
        match self.write {
            Write::Field(field) => field(config)
                .set(value)
                .map_err(|()| format!("bad value for --{name}: {value:?}")),
            Write::Parse(parse) => parse(config, value),
        }
    }

    /// The flag as the synopsis shows it: `--name <placeholder>` when
    /// required, `[--name <default or placeholder>]` or `[--switch]`
    /// when optional, with ` ...` after a repeatable one. `defaults`
    /// is the config before any flag.
    fn synopsis(&self, defaults: &mut C) -> String {
        let mut item = format!("--{}", self.name);
        let shown = match self.write {
            Write::Field(field) if field(defaults).is_switch() => None,
            Write::Field(field) => Some(field(defaults).shown().filter(|_| !self.required)),
            Write::Parse(_) => Some(None),
        };
        if let Some(shown) = shown {
            item.push(' ');
            item.push_str(shown.as_deref().unwrap_or(self.placeholder));
        }
        if self.repeatable {
            item.push_str(" ...");
        }
        match self.required {
            true => item,
            false => format!("[{item}]"),
        }
    }
}

/// A subcommand: its flag table, and the command its config becomes.
struct Table<C: 'static> {
    flags: &'static [Flag<C>],
    /// Checks that span several flags, then wraps the config.
    wrap: fn(C) -> Result<Command, String>,
    /// Where [`ENGINE_FLAGS`] write, for the subcommands that take them.
    engine: Option<fn(&mut C) -> &mut EngineStart>,
}

const fn table<C>(flags: &'static [Flag<C>], wrap: fn(C) -> Result<Command, String>) -> Table<C> {
    Table {
        flags,
        wrap,
        engine: None,
    }
}

/// A subcommand whatever its config type.
trait Subcommand {
    fn parse(&self, args: &[String]) -> Result<Command, String>;
    /// Each flag's synopsis item, in table order.
    fn synopsis(&self) -> Vec<String>;
}

impl<C: Default> Subcommand for Table<C> {
    fn parse(&self, args: &[String]) -> Result<Command, String> {
        let mut config = C::default();
        let mut seen = Vec::new();
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(refuse(format!("expected --flag, got {arg:?}")));
            };
            let own = self.flags.iter().find(|f| f.name == name);
            let engine = self
                .engine
                .and_then(|engine| Some((engine, ENGINE_FLAGS.iter().find(|f| f.name == name)?)));
            if seen.contains(&name) && !own.is_some_and(|f| f.repeatable) {
                return Err(refuse(format!("flag --{name} given more than once")));
            }
            seen.push(name);
            match (own, engine) {
                (Some(flag), _) => flag.apply(&mut config, &mut args)?,
                (None, Some((engine, flag))) => flag.apply(engine(&mut config), &mut args)?,
                (None, None) => {
                    let hint = match name.contains('=') {
                        true => " (give the value as the next argument)",
                        false => "",
                    };
                    return Err(refuse(format!("unknown flag {arg}{hint}")));
                }
            }
        }
        if let Some(flag) = self
            .flags
            .iter()
            .find(|f| f.required && !seen.contains(&f.name))
        {
            return Err(refuse(format!("missing required flag --{}", flag.name)));
        }
        (self.wrap)(config)
    }

    fn synopsis(&self) -> Vec<String> {
        let mut defaults = C::default();
        let mut items: Vec<String> = self
            .flags
            .iter()
            .map(|f| f.synopsis(&mut defaults))
            .collect();
        if self.engine.is_some() {
            let mut defaults = EngineStart::default();
            items.extend(ENGINE_FLAGS.iter().map(|f| f.synopsis(&mut defaults)));
        }
        items
    }
}

/// A structural refusal: the command line does not fit the table.
fn refuse(why: String) -> String {
    format!("{why}\n\n{}", usage())
}

/// Every subcommand, in synopsis order.
const SUBCOMMANDS: [(&str, &dyn Subcommand); 13] = [
    ("generate", &table(GENERATE, generate_command)),
    ("detect", &table(DETECT, |d| Ok(Command::Detect(d)))),
    ("inspect", &table(INSPECT, |i| Ok(Command::Inspect(i)))),
    ("attack", &table(ATTACK, |a| Ok(Command::Attack(a)))),
    ("judge", &table(JUDGE, |j| Ok(Command::Judge(j)))),
    (
        "serve",
        &Table::<Serve> {
            engine: Some(|s| &mut s.engine),
            ..table(SERVE, serve_command)
        },
    ),
    ("router", &table(ROUTER, |r| Ok(Command::Router(r)))),
    ("metrics", &table(METRICS, metrics_command)),
    ("top", &table(TOP, |t| Ok(Command::Top(t)))),
    ("quota", &table(QUOTA, |q| Ok(Command::Quota(q)))),
    ("trace", &table(TRACE, |t| Ok(Command::Trace(t)))),
    (
        "batch",
        &Table::<Batch> {
            engine: Some(|b| &mut b.engine),
            ..table(BATCH, |b| Ok(Command::Batch(b)))
        },
    ),
    (
        "ledger verify",
        &table(LEDGER_VERIFY, |l| Ok(Command::LedgerVerify(l))),
    ),
];

const GENERATE: &[Flag<Generate>] = &[
    req("input", "<tokens.txt>", |g| &mut g.input),
    req("output", "<wm.txt>", |g| &mut g.output),
    req("secret-out", "<secret.fwm>", |g| &mut g.secret_out),
    opt("budget", "PCT", |g| &mut g.params.budget_pct),
    opt("z", "N", |g| &mut g.params.z),
    parse("selection", "optimal|greedy|random", |g, v| {
        g.params.selection = match v {
            "optimal" => Selection::Optimal,
            "greedy" => Selection::Greedy,
            "random" => Selection::Random { seed: 0 },
            other => return Err(format!("unknown selection {other:?}")),
        };
        Ok(())
    }),
    opt("seed", "N", |g| &mut g.seed),
    opt("exclude-free-pairs", "", |g| {
        &mut g.params.exclude_free_pairs
    }),
    opt("secret-label", "L", |g| &mut g.secret_label),
];

/// Gives `--selection random` its `--seed`, whichever came first.
fn generate_command(mut g: Generate) -> Result<Command, String> {
    if let Selection::Random { seed } = &mut g.params.selection {
        *seed = g.seed;
    }
    Ok(Command::Generate(g))
}

const DETECT: &[Flag<Detect>] = &[
    req("input", "<suspect.txt>", |d| &mut d.input),
    req("secret", "<secret.fwm>", |d| &mut d.secret),
    opt("t", "N", |d| &mut d.params.t),
    opt("k", "N", |d| &mut d.params.k),
    parse("scale", "F", |d, v| {
        let s: f64 = v
            .parse()
            .map_err(|_| format!("bad value for --scale: {v:?}"))?;
        // The protocol refuses the same values; detect would assert on
        // them.
        if !(s.is_finite() && s > 0.0) {
            return Err("scale must be a positive finite number".to_string());
        }
        d.params.scale = Some(s);
        Ok(())
    }),
];

const INSPECT: &[Flag<Inspect>] = &[
    req("input", "<tokens.txt>", |i| &mut i.input),
    opt("z", "N", |i| &mut i.params.z),
];

const ATTACK: &[Flag<Attack>] = &[
    req("input", "<wm.txt>", |a| &mut a.input),
    req("output", "<attacked.txt>", |a| &mut a.output),
    Flag {
        required: true,
        ..parse("kind", "sample|destroy|reorder", |a, v| {
            a.kind = match v {
                "sample" => AttackKind::Sample,
                "destroy" => AttackKind::Destroy,
                "reorder" => AttackKind::Reorder,
                other => return Err(format!("unknown attack kind {other:?}")),
            };
            Ok(())
        })
    },
    req("param", "<x>", |a| &mut a.param),
    opt("seed", "N", |a| &mut a.seed),
];

const JUDGE: &[Flag<Judge>] = &[
    req("a-input", "<a.txt>", |j| &mut j.a_input),
    req("a-secret", "<a.fwm>", |j| &mut j.a_secret),
    req("b-input", "<b.txt>", |j| &mut j.b_input),
    req("b-secret", "<b.fwm>", |j| &mut j.b_secret),
    opt("t", "N", |j| &mut j.t),
    opt("quorum", "F", |j| &mut j.quorum),
];

/// The engine flags `serve` and `batch` share.
const ENGINE_FLAGS: &[Flag<EngineStart>] = &[
    opt("workers", "N", |e| &mut e.config.workers),
    opt("queue", "N", |e| &mut e.config.queue_capacity),
    opt("data-dir", "<dir>", |e| &mut e.data_dir),
    opt("snapshot-every", "N", |e| &mut e.config.snapshot_every),
    parse("ledger-key", "K", |e, v| {
        e.config.ledger_key = v.as_bytes().to_vec();
        Ok(())
    }),
    parse("shard-id", "i/N", |e, v| {
        let (i, n) = parse_shard_id(v)?;
        let gate = ShardGate::new(format!("{i}/{n}"), move |tenant| {
            freqywm_shard::tenant_shard(tenant, n) == i
        });
        e.config.shard_gate = Some(gate);
        Ok(())
    }),
    opt("slow-ms", "MS", |e| &mut e.config.slow_ms),
    opt("retain-snapshots", "N", |e| &mut e.config.retain_snapshots),
    opt("retain-interval-ms", "MS", |e| {
        &mut e.config.retain_interval_ms
    }),
    opt("quota-embed", "N", |e| &mut e.config.quota.limits.embed),
    opt("quota-detect", "N", |e| &mut e.config.quota.limits.detect),
    opt("quota-maintain", "N", |e| {
        &mut e.config.quota.limits.maintain
    }),
    opt("quota-window-ms", "MS", |e| &mut e.config.quota.window_ms),
];

const SERVE: &[Flag<Serve>] = &[
    opt("listen", "<addr>", |s| &mut s.listen),
    opt("metrics-listen", "<addr>", |s| &mut s.metrics_listen),
    opt("max-conns", "N", |s| &mut s.net.max_conns),
    parse("idle-timeout", "SECS", |s, v| {
        let secs: u64 = v
            .parse()
            .map_err(|_| format!("bad value for --idle-timeout: {v:?}"))?;
        // 0 turns idle reaping off.
        s.net.idle_timeout = (secs > 0).then(|| Duration::from_secs(secs));
        Ok(())
    }),
    opt("max-frame", "BYTES", |s| &mut s.net.max_frame),
    opt("auth-token", "T", |s| &mut s.net.auth_token),
    parse("follow", "<primary-addr>", |s, v| {
        s.follow
            .get_or_insert_with(|| FollowerConfig::new(""))
            .primary = v.into();
        s.engine.config.follow = Some(v.into());
        Ok(())
    }),
    parse("follow-token", "T", |s, v| {
        s.follow
            .get_or_insert_with(|| FollowerConfig::new(""))
            .auth_token = Some(v.into());
        Ok(())
    }),
];

fn serve_command(s: Serve) -> Result<Command, String> {
    match s.engine.config.follow.is_none() && s.follow.is_some() {
        true => Err("--follow-token needs --follow".into()),
        false => Ok(Command::Serve(s)),
    }
}

const BATCH: &[Flag<Batch>] = &[req("input", "<requests.jsonl>", |b| &mut b.input)];

const ROUTER: &[Flag<Router>] = &[
    req("listen", "<addr>", |r| &mut r.listen),
    // Each value is `<primary>[,<standby>]`: the optional second address
    // is a read-only follower the router promotes when the primary's
    // connection dies.
    Flag {
        required: true,
        repeatable: true,
        ..parse("shard", "<addr>[,<standby>]", |r, v| {
            let (primary, standby) = match v.split_once(',') {
                Some((p, s)) => (p.trim(), Some(s.trim())),
                None => (v.trim(), None),
            };
            // An empty entry would silently shift every index in the
            // shard map off its --shard-id, or promote into the void on
            // failover.
            if primary.is_empty() || standby == Some("") || standby.is_some_and(|s| s.contains(','))
            {
                return Err(format!(
                    "bad --shard {v:?} (expected <primary>[,<standby>])"
                ));
            }
            r.config.shards.push(primary.to_string());
            r.config.standbys.push(standby.map(str::to_string));
            Ok(())
        })
    },
    opt("metrics-listen", "<addr>", |r| &mut r.metrics_listen),
    opt("max-conns", "N", |r| &mut r.config.max_conns),
    opt("max-frame", "BYTES", |r| &mut r.config.max_frame),
    opt("auth-token", "T", |r| &mut r.config.auth_token),
    opt("shard-auth-token", "T", |r| &mut r.config.shard_auth_token),
    opt("probe-interval", "SECS", |r| &mut r.config.probe_interval),
    opt("drain-timeout", "SECS", |r| &mut r.config.drain_timeout),
    opt("failover-timeout", "SECS", |r| {
        &mut r.config.failover_timeout
    }),
];

const METRICS: &[Flag<Metrics>] = &[
    req("connect", "<addr>", |m| &mut m.connect),
    opt("prom", "", |m| &mut m.prom),
    opt("check", "", |m| &mut m.check),
    opt("auth", "TOKEN", |m| &mut m.auth),
];

fn metrics_command(m: Metrics) -> Result<Command, String> {
    match m.check && !m.prom {
        true => Err("--check requires --prom (it validates the HTTP exposition)".into()),
        false => Ok(Command::Metrics(m)),
    }
}

const TOP: &[Flag<Top>] = &[
    req("connect", "<addr>", |t| &mut t.connect),
    opt("interval-ms", "MS", |t| &mut t.interval_ms),
    opt("once", "", |t| &mut t.once),
    opt("auth", "TOKEN", |t| &mut t.auth),
];

const QUOTA: &[Flag<Quota>] = &[
    req("connect", "<addr>", |q| &mut q.connect),
    req("tenant", "T", |q| &mut q.tenant),
    opt("embed", "N", |q| &mut q.embed),
    opt("detect", "N", |q| &mut q.detect),
    opt("maintain", "N", |q| &mut q.maintain),
    opt("window-ms", "MS", |q| &mut q.window_ms),
    opt("auth", "TOKEN", |q| &mut q.auth),
];

const TRACE: &[Flag<Trace>] = &[
    req("connect", "<addr>", |t| &mut t.connect),
    opt("trace", "ID", |t| &mut t.trace),
    opt("tenant", "T", |t| &mut t.tenant),
    opt("for-op", "OP", |t| &mut t.for_op),
    opt("min-ms", "MS", |t| &mut t.min_ms),
    opt("limit", "N", |t| &mut t.limit),
    opt("auth", "TOKEN", |t| &mut t.auth),
];

const LEDGER_VERIFY: &[Flag<LedgerVerify>] = &[
    req("data-dir", "<dir>", |l| &mut l.data_dir),
    opt("ledger-key", "K", |l| &mut l.ledger_key),
];

const PROSE: &str = "\
Token files contain one token per line. `detect` exits 0 on accept,
1 on reject, 2 on error. A flag a command does not take, a repeated
flag or a flag without its value is refused (exit 2).

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
tenant at N jobs of that class per sliding `--quota-window-ms` window;
an omitted class is unlimited. Jobs over budget are refused at
admission with a typed `quota_exhausted` error carrying a
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

/// Width the synopsis lines wrap at.
const SYNOPSIS_WIDTH: usize = 78;

/// Usage text shown by `freqywm help` and on errors: the synopsis,
/// rendered from the flag tables, then the prose.
pub fn usage() -> String {
    let indent = " ".repeat("  freqywm generate".len());
    let mut text = "freqywm — frequency watermarking for token datasets (FreqyWM, ICDE'24)\n\n\
                    USAGE:\n"
        .to_string();
    for (name, subcommand) in SUBCOMMANDS {
        let mut line = format!("  freqywm {name:<8}");
        for item in subcommand.synopsis() {
            if line.len() + 1 + item.len() > SYNOPSIS_WIDTH && line.len() > indent.len() {
                text.push_str(&line);
                text.push('\n');
                line = indent.clone();
            }
            line.push(' ');
            line.push_str(&item);
        }
        text.push_str(&line);
        text.push('\n');
    }
    text.push_str("  freqywm help\n\n");
    text.push_str(PROSE);
    text
}

/// Parses the command line (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let (name, rest) = match args {
        [] => return Ok(Command::Help),
        [cmd, ..] if matches!(cmd.as_str(), "help" | "--help" | "-h") => return Ok(Command::Help),
        [ledger, sub, rest @ ..] if ledger == "ledger" => (format!("ledger {sub}"), rest),
        [cmd, rest @ ..] => (cmd.clone(), rest),
    };
    match SUBCOMMANDS.iter().find(|(n, _)| *n == name) {
        Some((_, subcommand)) => subcommand.parse(rest),
        None => Err(format!("unknown command {name:?}\n\n{}", usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freqywm_service::quota::{DEFAULT_WINDOW_MS, UNLIMITED};

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn gate_label(engine: &EngineStart) -> Option<&str> {
        engine.config.shard_gate.as_ref().map(ShardGate::label)
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
            Command::Generate(Generate { params, .. }) => {
                assert_eq!(params.budget_pct, 2.0);
                assert_eq!(params.z, 131);
                assert_eq!(params.selection, Selection::Optimal);
                assert!(!params.exclude_free_pairs);
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
            Command::Generate(Generate {
                params,
                secret_label,
                ..
            }) => {
                assert_eq!(params.budget_pct, 0.5);
                assert_eq!(params.z, 1031);
                assert_eq!(params.selection, Selection::Random { seed: 7 });
                assert!(params.exclude_free_pairs);
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
            Command::Detect(Detect {
                input: "x".into(),
                secret: "s".into(),
                params: DetectionParams {
                    t: 4,
                    k: 10,
                    scale: Some(5.0),
                    ..DetectionParams::default()
                },
            })
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
                Command::Attack(Attack {
                    kind, param, seed, ..
                }) => {
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
            Command::Judge(Judge {
                t, quorum, a_input, ..
            }) => {
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
            Command::Serve(Serve::default())
        );
        let c = parse_args(&v(&["serve", "--workers", "8", "--queue", "64"])).unwrap();
        match c {
            Command::Serve(s) => {
                assert_eq!(s.engine.config.workers, 8);
                assert_eq!(s.engine.config.queue_capacity, 64);
                assert_eq!(s.listen, None);
            }
            _ => panic!("wrong command"),
        }
        let c = parse_args(&v(&["batch", "--input", "reqs.jsonl", "--workers", "2"])).unwrap();
        match c {
            Command::Batch(Batch { input, engine }) => {
                assert_eq!(input, "reqs.jsonl");
                assert_eq!(engine.config.workers, 2);
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
            Command::Serve(s) => {
                assert_eq!(s.listen.as_deref(), Some("127.0.0.1:7700"));
                assert_eq!(s.net.max_conns, 2000);
                assert_eq!(s.net.idle_timeout, Some(Duration::from_secs(300)));
                assert_eq!(s.net.max_frame, 65536);
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
            Command::Router(Router { listen, config, .. }) => {
                assert_eq!(listen, "127.0.0.1:7700");
                // One shard per --shard flag; a comma attaches a
                // standby to that shard rather than adding a shard.
                assert_eq!(config.shards, vec!["127.0.0.1:7701", "127.0.0.1:7702"]);
                assert_eq!(
                    config.standbys,
                    vec![None, Some("127.0.0.1:7703".to_string())]
                );
                assert_eq!(config.auth_token.as_deref(), Some("front"));
                assert_eq!(config.shard_auth_token.as_deref(), Some("back"));
                assert_eq!(config.probe_interval, Duration::from_secs(5));
                assert_eq!(config.drain_timeout, Duration::from_secs(10));
                assert_eq!(config.failover_timeout, Duration::from_secs(10));
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
            Command::Serve(s) => {
                let follow = s.follow.expect("follower config");
                assert_eq!(follow.primary, "127.0.0.1:7701");
                assert_eq!(follow.auth_token.as_deref(), Some("hunter2"));
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&v(&["serve"])).unwrap() {
            Command::Serve(s) => assert_eq!(s.follow, None),
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
            Command::Serve(s) => {
                assert_eq!(gate_label(&s.engine), Some("1/4"));
                assert_eq!(s.net.auth_token.as_deref(), Some("secret"));
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
            Command::Serve(s) => assert_eq!(s.engine.config.slow_ms, Some(250)),
            _ => panic!("wrong command"),
        }
        let c = parse_args(&v(&["serve"])).unwrap();
        match c {
            Command::Serve(s) => assert_eq!(s.engine.config.slow_ms, None),
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
            Command::Trace(Trace {
                connect: "127.0.0.1:7700".into(),
                trace: None,
                tenant: Some("acme".into()),
                for_op: Some("detect".into()),
                min_ms: Some(5),
                limit: Some(20),
                auth: None,
            })
        );
        assert!(parse_args(&v(&["trace"])).is_err(), "trace needs --connect");
        assert!(parse_args(&v(&["trace", "--connect", "x", "--min-ms", "soon"])).is_err());
    }

    #[test]
    fn metrics_and_top_flags() {
        let c = parse_args(&v(&["metrics", "--connect", "127.0.0.1:9900"])).unwrap();
        assert_eq!(
            c,
            Command::Metrics(Metrics {
                connect: "127.0.0.1:9900".into(),
                prom: false,
                check: false,
                auth: None,
            })
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
            Command::Metrics(Metrics {
                connect: "127.0.0.1:9900".into(),
                prom: true,
                check: true,
                auth: Some("tok".into()),
            })
        );
        assert!(
            parse_args(&v(&["metrics", "--connect", "x", "--check"])).is_err(),
            "--check without --prom must be rejected"
        );
        assert!(parse_args(&v(&["metrics"])).is_err(), "needs --connect");

        let c = parse_args(&v(&["top", "--connect", "127.0.0.1:7700", "--once"])).unwrap();
        assert_eq!(
            c,
            Command::Top(Top {
                connect: "127.0.0.1:7700".into(),
                interval_ms: 1000,
                once: true,
                auth: None,
            })
        );
        let c = parse_args(&v(&["top", "--connect", "x", "--interval-ms", "250"])).unwrap();
        match c {
            Command::Top(Top {
                interval_ms, once, ..
            }) => {
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
            Command::Serve(s) => {
                assert_eq!(s.metrics_listen.as_deref(), Some("127.0.0.1:9900"));
                assert_eq!(s.engine.config.retain_snapshots, 16);
                assert_eq!(s.engine.config.retain_interval_ms, 50);
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&v(&["serve"])).unwrap() {
            Command::Serve(s) => {
                assert_eq!(s.metrics_listen, None);
                assert_eq!(s.engine.config.retain_snapshots, 240);
                assert_eq!(s.engine.config.retain_interval_ms, 1000);
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
            Command::Router(r) => {
                assert_eq!(r.metrics_listen.as_deref(), Some("127.0.0.1:9901"));
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
            Command::Serve(s) => {
                let quota = s.engine.config.quota;
                assert_eq!(quota.limits.embed, 100);
                assert_eq!(quota.limits.detect, UNLIMITED);
                assert_eq!(quota.limits.maintain, UNLIMITED);
                assert_eq!(quota.window_ms, 5000);
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&v(&["serve"])).unwrap() {
            Command::Serve(s) => {
                let quota = s.engine.config.quota;
                assert_eq!(quota.limits.embed, UNLIMITED);
                assert_eq!(quota.window_ms, DEFAULT_WINDOW_MS);
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
            Command::Quota(Quota {
                connect: "x:1".into(),
                tenant: "acme".into(),
                embed: Some(50),
                detect: None,
                maintain: None,
                window_ms: None,
                auth: Some("tok".into()),
            })
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
            Command::Serve(s) => {
                assert_eq!(s.engine.data_dir.as_deref(), Some("/var/lib/freqywm"));
                assert_eq!(s.engine.config.snapshot_every, 16);
                assert_eq!(s.engine.config.ledger_key, b"prod-key");
            }
            _ => panic!("wrong command"),
        }
        assert_eq!(
            parse_args(&v(&["ledger", "verify", "--data-dir", "d"])).unwrap(),
            Command::LedgerVerify(LedgerVerify {
                data_dir: "d".into(),
                ledger_key: None,
            })
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

    /// A synopsis item read back: `--name value`, `[--name value]`,
    /// `[--switch]`, `--name value ...`.
    struct Item {
        name: String,
        value: Option<String>,
        required: bool,
        repeatable: bool,
    }

    fn read_item(item: &str) -> Item {
        let (required, body) = match item.strip_prefix('[') {
            Some(body) => (false, body.strip_suffix(']').expect(item)),
            None => (true, item),
        };
        let (body, repeatable) = match body.strip_suffix(" ...") {
            Some(body) => (body, true),
            None => (body, false),
        };
        let (flag, value) = match body.split_once(' ') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (body, None),
        };
        Item {
            name: flag.strip_prefix("--").expect(item).to_string(),
            value,
            required,
            repeatable,
        }
    }

    /// `--flag [value]` for each item, with a value its parser accepts
    /// read off the placeholder.
    fn flag_args<'a>(items: impl IntoIterator<Item = &'a Item>) -> Vec<String> {
        let mut args = Vec::new();
        for item in items {
            args.push(format!("--{}", item.name));
            match item.value.as_deref() {
                None => {}
                Some("i/N") => args.push("0/2".into()),
                Some(choices) if choices.contains('|') => {
                    args.push(choices.split('|').next().unwrap().into())
                }
                Some(_) => args.push("1".into()),
            }
        }
        args
    }

    #[test]
    fn every_table_parses_its_flags_and_refuses_the_rest() {
        for (name, subcommand) in SUBCOMMANDS {
            let synopsis = subcommand.synopsis();
            let items: Vec<Item> = synopsis.iter().map(|i| read_item(i)).collect();
            let parse = |flags: Vec<String>| {
                let mut args: Vec<String> = name.split(' ').map(str::to_string).collect();
                args.extend(flags);
                parse_args(&args)
            };
            let refused = |flags: Vec<String>, why: &str| {
                let err = parse(flags.clone()).expect_err(&format!("{name} {flags:?}"));
                assert!(err.contains(why), "{name} {flags:?}: {err}");
                assert!(
                    err.contains("USAGE:"),
                    "{name} {flags:?}: no usage in {err}"
                );
            };
            parse(flag_args(items.iter().filter(|i| i.required)))
                .unwrap_or_else(|e| panic!("{name} with its required flags: {e}"));
            // Every flag of the table at once.
            let all = flag_args(&items);
            parse(all.clone()).unwrap_or_else(|e| panic!("{name} {all:?}: {e}"));

            let mut bogus = all.clone();
            bogus.extend(v(&["--bogus", "1"]));
            refused(bogus, "unknown flag --bogus");
            for item in &items {
                let others = flag_args(items.iter().filter(|i| i.name != item.name));
                let flag = format!("--{}", item.name);
                let mut eq_form = others.clone();
                eq_form.push(format!("{flag}=1"));
                refused(eq_form, "unknown flag");
                if item.value.is_some() {
                    let mut valueless = others.clone();
                    valueless.push(flag.clone());
                    refused(valueless, "needs a value");
                }
                if !item.repeatable {
                    let mut twice = all.clone();
                    twice.extend(flag_args([item]));
                    refused(twice, "given more than once");
                }
            }
        }
    }

    #[test]
    fn each_synopsis_lists_exactly_its_tables_flags() {
        let usage = usage();
        let lines: Vec<&str> = usage.lines().collect();
        let indent = " ".repeat("  freqywm generate ".len());
        for (name, subcommand) in SUBCOMMANDS {
            let synopsis = subcommand.synopsis();
            let head = format!("  freqywm {name} ");
            let start = lines
                .iter()
                .position(|l| l.starts_with(&head))
                .unwrap_or_else(|| panic!("no synopsis for {name}"));
            let block = std::iter::once(lines[start]).chain(
                lines[start + 1..]
                    .iter()
                    .copied()
                    .take_while(|l| l.starts_with(&indent)),
            );
            let mut listed = Vec::new();
            for line in block {
                for word in line.split_whitespace() {
                    if let Some(flag) = word.trim_start_matches('[').strip_prefix("--") {
                        listed.push(flag.trim_end_matches(']').to_string());
                    }
                }
            }
            let table: Vec<String> = synopsis.iter().map(|i| read_item(i).name).collect();
            assert_eq!(listed, table, "synopsis of {name}");
        }
    }

    fn serve(edit: impl FnOnce(&mut Serve)) -> Command {
        let mut s = Serve::default();
        edit(&mut s);
        Command::Serve(s)
    }

    fn router(listen: &str, shards: &[&str], edit: impl FnOnce(&mut Router)) -> Command {
        let mut r = Router {
            listen: listen.into(),
            ..Router::default()
        };
        for shard in shards {
            let (primary, standby) = match shard.split_once(',') {
                Some((p, s)) => (p, Some(s.to_string())),
                None => (*shard, None),
            };
            r.config.shards.push(primary.into());
            r.config.standbys.push(standby);
        }
        edit(&mut r);
        Command::Router(r)
    }

    /// The gate `--shard-id i/n` installs (gates compare by label).
    fn gate(label: &str) -> Option<ShardGate> {
        Some(ShardGate::new(label, |_| true))
    }

    fn follower(primary: &str) -> Option<FollowerConfig> {
        Some(FollowerConfig::new(primary))
    }

    /// Every command line the tests, CI, README, docs and the tier
    /// benchmark run, with the configuration it parsed to before the
    /// flag tables (`--idle-timeout 300` as `Some(300 s)`, an omitted
    /// quota class as `UNLIMITED`, `--shard-id i/n` as a gate labelled
    /// `i/n`).
    #[test]
    fn command_lines_in_use_parse_as_before() {
        let table: Vec<(&str, Command)> =
            vec![
            // Tier benchmark: two durable shards and a router.
            (
                "serve --listen 127.0.0.1:0 --workers 1 --data-dir /tmp/t/shard-0 --shard-id 0/2",
                serve(|s| {
                    s.listen = Some("127.0.0.1:0".into());
                    s.engine.config.workers = 1;
                    s.engine.data_dir = Some("/tmp/t/shard-0".into());
                    s.engine.config.shard_gate = gate("0/2");
                }),
            ),
            (
                "router --listen 127.0.0.1:0 --shard 127.0.0.1:1 --shard 127.0.0.1:2",
                router("127.0.0.1:0", &["127.0.0.1:1", "127.0.0.1:2"], |_| {}),
            ),
            // CI smokes.
            (
                "serve --listen 127.0.0.1:0 --metrics-listen 127.0.0.1:9973 --workers 2",
                serve(|s| {
                    s.listen = Some("127.0.0.1:0".into());
                    s.metrics_listen = Some("127.0.0.1:9973".into());
                    s.engine.config.workers = 2;
                }),
            ),
            (
                "metrics --connect 127.0.0.1:9973 --prom --check",
                Command::Metrics(Metrics {
                    connect: "127.0.0.1:9973".into(),
                    prom: true,
                    check: true,
                    auth: None,
                }),
            ),
            (
                "serve --listen 127.0.0.1:0 --workers 1",
                serve(|s| {
                    s.listen = Some("127.0.0.1:0".into());
                    s.engine.config.workers = 1;
                }),
            ),
            (
                "router --listen 127.0.0.1:0 --shard 127.0.0.1:1 --metrics-listen 127.0.0.1:9974",
                router("127.0.0.1:0", &["127.0.0.1:1"], |r| {
                    r.metrics_listen = Some("127.0.0.1:9974".into())
                }),
            ),
            // crates/cli/tests.
            (
                "serve --listen 127.0.0.1:0 --workers 2 --queue 4096 --max-conns 256",
                serve(|s| {
                    s.listen = Some("127.0.0.1:0".into());
                    s.engine.config.workers = 2;
                    s.engine.config.queue_capacity = 4096;
                    s.net.max_conns = 256;
                }),
            ),
            (
                "serve --listen 127.0.0.1:0 --workers 2 --queue 4096 --data-dir d --shard-id 1/2",
                serve(|s| {
                    s.listen = Some("127.0.0.1:0".into());
                    s.engine.config.workers = 2;
                    s.engine.config.queue_capacity = 4096;
                    s.engine.data_dir = Some("d".into());
                    s.engine.config.shard_gate = gate("1/2");
                }),
            ),
            (
                "serve --listen 127.0.0.1:0 --workers 2 --queue 4096 --data-dir d --shard-id 0/2 \
                 --follow 127.0.0.1:7701",
                serve(|s| {
                    s.listen = Some("127.0.0.1:0".into());
                    s.engine.config.workers = 2;
                    s.engine.config.queue_capacity = 4096;
                    s.engine.data_dir = Some("d".into());
                    s.engine.config.shard_gate = gate("0/2");
                    s.engine.config.follow = Some("127.0.0.1:7701".into());
                    s.follow = follower("127.0.0.1:7701");
                }),
            ),
            (
                "router --listen 127.0.0.1:0 --shard 127.0.0.1:1,127.0.0.1:3 \
                 --shard 127.0.0.1:2,127.0.0.1:4",
                router(
                    "127.0.0.1:0",
                    &["127.0.0.1:1,127.0.0.1:3", "127.0.0.1:2,127.0.0.1:4"],
                    |_| {},
                ),
            ),
            (
                "ledger verify --data-dir d",
                Command::LedgerVerify(LedgerVerify {
                    data_dir: "d".into(),
                    ledger_key: None,
                }),
            ),
            (
                "serve --listen 127.0.0.1:0 --workers 2 --shard-id 0/2 --slow-ms 0",
                serve(|s| {
                    s.listen = Some("127.0.0.1:0".into());
                    s.engine.config.workers = 2;
                    s.engine.config.shard_gate = gate("0/2");
                    s.engine.config.slow_ms = Some(0);
                }),
            ),
            (
                "serve --listen 127.0.0.1:0 --workers 2 --shard-id 1/2 --slow-ms 60000",
                serve(|s| {
                    s.listen = Some("127.0.0.1:0".into());
                    s.engine.config.workers = 2;
                    s.engine.config.shard_gate = gate("1/2");
                    s.engine.config.slow_ms = Some(60000);
                }),
            ),
            (
                "trace --connect 127.0.0.1:7700 --trace t-42-0",
                Command::Trace(Trace {
                    connect: "127.0.0.1:7700".into(),
                    trace: Some("t-42-0".into()),
                    ..Trace::default()
                }),
            ),
            (
                "serve --listen 127.0.0.1:0 --metrics-listen 127.0.0.1:0 --workers 2 \
                 --retain-snapshots 64 --retain-interval-ms 100 --data-dir d --shard-id 0/2",
                serve(|s| {
                    s.listen = Some("127.0.0.1:0".into());
                    s.metrics_listen = Some("127.0.0.1:0".into());
                    s.engine.config.workers = 2;
                    s.engine.config.retain_snapshots = 64;
                    s.engine.config.retain_interval_ms = 100;
                    s.engine.data_dir = Some("d".into());
                    s.engine.config.shard_gate = gate("0/2");
                }),
            ),
            (
                "serve --listen 127.0.0.1:0 --metrics-listen 127.0.0.1:0 --workers 2 \
                 --retain-snapshots 64 --retain-interval-ms 100 --shard-id 1/2 \
                 --follow 127.0.0.1:7701",
                serve(|s| {
                    s.listen = Some("127.0.0.1:0".into());
                    s.metrics_listen = Some("127.0.0.1:0".into());
                    s.engine.config.workers = 2;
                    s.engine.config.retain_snapshots = 64;
                    s.engine.config.retain_interval_ms = 100;
                    s.engine.config.shard_gate = gate("1/2");
                    s.engine.config.follow = Some("127.0.0.1:7701".into());
                    s.follow = follower("127.0.0.1:7701");
                }),
            ),
            (
                "router --listen 127.0.0.1:0 --metrics-listen 127.0.0.1:0 --probe-interval 1 \
                 --shard 127.0.0.1:1,127.0.0.1:3",
                router("127.0.0.1:0", &["127.0.0.1:1,127.0.0.1:3"], |r| {
                    r.metrics_listen = Some("127.0.0.1:0".into());
                    r.config.probe_interval = Duration::from_secs(1);
                }),
            ),
            (
                "metrics --connect 127.0.0.1:7700",
                Command::Metrics(Metrics {
                    connect: "127.0.0.1:7700".into(),
                    ..Metrics::default()
                }),
            ),
            (
                "top --connect 127.0.0.1:7700 --once",
                Command::Top(Top {
                    connect: "127.0.0.1:7700".into(),
                    once: true,
                    ..Top::default()
                }),
            ),
            (
                "quota --connect 127.0.0.1:7700 --tenant greedy --embed 100 --window-ms 600000",
                Command::Quota(Quota {
                    connect: "127.0.0.1:7700".into(),
                    tenant: "greedy".into(),
                    embed: Some(100),
                    window_ms: Some(600000),
                    ..Quota::default()
                }),
            ),
            (
                "batch --input reqs.jsonl --data-dir d",
                Command::Batch(Batch {
                    input: "reqs.jsonl".into(),
                    engine: EngineStart {
                        data_dir: Some("d".into()),
                        ..EngineStart::default()
                    },
                }),
            ),
            (
                "batch --input reqs.jsonl --quota-embed 1",
                Command::Batch(Batch {
                    input: "reqs.jsonl".into(),
                    engine: EngineStart {
                        config: EngineConfig {
                            quota: freqywm_service::QuotaConfig {
                                limits: freqywm_service::QuotaLimits {
                                    embed: 1,
                                    ..freqywm_service::QuotaLimits::unlimited()
                                },
                                window_ms: DEFAULT_WINDOW_MS,
                            },
                            ..EngineConfig::default()
                        },
                        data_dir: None,
                    },
                }),
            ),
            (
                "generate --input in --output out --secret-out s --z 19 --secret-label cli-test \
                 --exclude-free-pairs",
                Command::Generate(Generate {
                    input: "in".into(),
                    output: "out".into(),
                    secret_out: "s".into(),
                    params: GenerationParams::default()
                        .with_z(19)
                        .with_exclude_free_pairs(true),
                    secret_label: Some("cli-test".into()),
                    ..Generate::default()
                }),
            ),
            (
                "attack --input wm --output at --kind sample --param 0.5 --seed 3",
                Command::Attack(Attack {
                    input: "wm".into(),
                    output: "at".into(),
                    kind: AttackKind::Sample,
                    param: 0.5,
                    seed: 3,
                }),
            ),
            (
                "detect --input at --secret s --t 6 --scale 2.0",
                Command::Detect(Detect {
                    input: "at".into(),
                    secret: "s".into(),
                    params: DetectionParams::default().with_t(6).with_scale(2.0),
                }),
            ),
            (
                "inspect --input in --z 19",
                Command::Inspect(Inspect {
                    input: "in".into(),
                    params: GenerationParams::default().with_z(19),
                }),
            ),
            (
                "ledger verify --data-dir d --ledger-key imposter",
                Command::LedgerVerify(LedgerVerify {
                    data_dir: "d".into(),
                    ledger_key: Some("imposter".into()),
                }),
            ),
            // README and docs.
            ("serve --workers 8", serve(|s| s.engine.config.workers = 8)),
            (
                "serve --listen 127.0.0.1:7700 --workers 8 --max-conns 4096 --idle-timeout 300",
                serve(|s| {
                    s.listen = Some("127.0.0.1:7700".into());
                    s.engine.config.workers = 8;
                    s.net.max_conns = 4096;
                    s.net.idle_timeout = Some(Duration::from_secs(300));
                }),
            ),
            (
                "serve --listen 127.0.0.1:7711 --shard-id 0/2 --data-dir /var/lib/freqywm/s0 \
                 --follow 127.0.0.1:7701",
                serve(|s| {
                    s.listen = Some("127.0.0.1:7711".into());
                    s.engine.config.shard_gate = gate("0/2");
                    s.engine.data_dir = Some("/var/lib/freqywm/s0".into());
                    s.engine.config.follow = Some("127.0.0.1:7701".into());
                    s.follow = follower("127.0.0.1:7701");
                }),
            ),
            (
                "serve --listen 127.0.0.1:7701 --data-dir /tmp/p0 --shard-id 0/1",
                serve(|s| {
                    s.listen = Some("127.0.0.1:7701".into());
                    s.engine.data_dir = Some("/tmp/p0".into());
                    s.engine.config.shard_gate = gate("0/1");
                }),
            ),
            (
                "router --listen 127.0.0.1:7700 --shard 127.0.0.1:7701,127.0.0.1:7711 \
                 --shard 127.0.0.1:7702",
                router(
                    "127.0.0.1:7700",
                    &["127.0.0.1:7701,127.0.0.1:7711", "127.0.0.1:7702"],
                    |_| {},
                ),
            ),
            (
                "serve --data-dir /var/lib/freqywm",
                serve(|s| s.engine.data_dir = Some("/var/lib/freqywm".into())),
            ),
            (
                "serve --listen 127.0.0.1:7700 --metrics-listen 127.0.0.1:9900",
                serve(|s| {
                    s.listen = Some("127.0.0.1:7700".into());
                    s.metrics_listen = Some("127.0.0.1:9900".into());
                }),
            ),
            (
                "metrics --connect 127.0.0.1:9900 --prom",
                Command::Metrics(Metrics {
                    connect: "127.0.0.1:9900".into(),
                    prom: true,
                    ..Metrics::default()
                }),
            ),
            (
                "top --connect 127.0.0.1:7700",
                Command::Top(Top {
                    connect: "127.0.0.1:7700".into(),
                    ..Top::default()
                }),
            ),
            (
                "quota --connect 127.0.0.1:7700 --tenant acme",
                Command::Quota(Quota {
                    connect: "127.0.0.1:7700".into(),
                    tenant: "acme".into(),
                    ..Quota::default()
                }),
            ),
            (
                "trace --connect 127.0.0.1:7700 --tenant acme --min-ms 5 --limit 50",
                Command::Trace(Trace {
                    connect: "127.0.0.1:7700".into(),
                    tenant: Some("acme".into()),
                    min_ms: Some(5),
                    limit: Some(50),
                    ..Trace::default()
                }),
            ),
            (
                "batch --input requests.jsonl",
                Command::Batch(Batch {
                    input: "requests.jsonl".into(),
                    ..Batch::default()
                }),
            ),
            (
                "quota --connect 127.0.0.1:7700 --tenant acme --embed 500",
                Command::Quota(Quota {
                    connect: "127.0.0.1:7700".into(),
                    tenant: "acme".into(),
                    embed: Some(500),
                    ..Quota::default()
                }),
            ),
            (
                "quota --connect 127.0.0.1:7700 --tenant acme --window-ms 60000",
                Command::Quota(Quota {
                    connect: "127.0.0.1:7700".into(),
                    tenant: "acme".into(),
                    window_ms: Some(60000),
                    ..Quota::default()
                }),
            ),
            (
                "judge --a-input a --a-secret as --b-input b --b-secret bs --quorum 0.25",
                Command::Judge(Judge {
                    a_input: "a".into(),
                    a_secret: "as".into(),
                    b_input: "b".into(),
                    b_secret: "bs".into(),
                    ..Judge::default()
                }),
            ),
            (
                "serve --listen 127.0.0.1:7702 --shard-id 1/2 --data-dir /var/lib/freqywm/s1",
                serve(|s| {
                    s.listen = Some("127.0.0.1:7702".into());
                    s.engine.config.shard_gate = gate("1/2");
                    s.engine.data_dir = Some("/var/lib/freqywm/s1".into());
                }),
            ),
            (
                "router --listen 127.0.0.1:7700 --shard 127.0.0.1:7701 --shard 127.0.0.1:7702",
                router("127.0.0.1:7700", &["127.0.0.1:7701", "127.0.0.1:7702"], |_| {}),
            ),
            (
                "serve --listen 127.0.0.1:7711 --data-dir /tmp/s0 --shard-id 0/1 \
                 --follow 127.0.0.1:7701",
                serve(|s| {
                    s.listen = Some("127.0.0.1:7711".into());
                    s.engine.data_dir = Some("/tmp/s0".into());
                    s.engine.config.shard_gate = gate("0/1");
                    s.engine.config.follow = Some("127.0.0.1:7701".into());
                    s.follow = follower("127.0.0.1:7701");
                }),
            ),
            (
                "router --listen 127.0.0.1:7700 --shard 127.0.0.1:7701,127.0.0.1:7711",
                router("127.0.0.1:7700", &["127.0.0.1:7701,127.0.0.1:7711"], |_| {}),
            ),
            (
                "quota --connect 127.0.0.1:7700 --tenant acme --embed 100",
                Command::Quota(Quota {
                    connect: "127.0.0.1:7700".into(),
                    tenant: "acme".into(),
                    embed: Some(100),
                    ..Quota::default()
                }),
            ),
            (
                "batch --input reqs.jsonl --workers 2",
                Command::Batch(Batch {
                    input: "reqs.jsonl".into(),
                    engine: EngineStart {
                        config: EngineConfig {
                            workers: 2,
                            ..EngineConfig::default()
                        },
                        data_dir: None,
                    },
                }),
            ),
            (
                "detect --input in --secret s --k 12",
                Command::Detect(Detect {
                    input: "in".into(),
                    secret: "s".into(),
                    params: DetectionParams::default().with_k(12),
                }),
            ),
            ("serve", serve(|_| {})),
        ];
        for (line, want) in table {
            let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            let got = parse_args(&args).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(got, want, "{line}");
        }
    }
}
