//! The router reactor: one thread multiplexing many JSON-lines clients
//! onto N backend engine shards.
//!
//! The router speaks the engine's exact protocol on its client side, so
//! clients cannot tell a router from a single engine. It enters through
//! the engine reactor's [`FrontDoor`] (listeners, wake pair, scrapes)
//! and adds an *outbound* side on the door's poller (level triggered,
//! nothing blocks):
//!
//! * **clients** — registered under never-reused ids, read and written
//!   through the shared [`LineStream`] behind the shared [`AuthGate`],
//!   responses kept in per-client ordered slots so pipelined requests
//!   answer in request order even when they fan out to different shards;
//! * **backends** — one multiplexed, pipelined connection per shard.
//!   Each forwarded request is pushed onto that backend's in-flight
//!   FIFO; the engine's `Session` answers in order per connection, so
//!   FIFO position is the whole correlation protocol. Dead backends
//!   get reconnect-with-backoff (a connector thread per attempt, never
//!   the reactor thread) and idle ones get periodic `metrics` health
//!   probes;
//! * **routing** — [`RouteInfo`] from the proto layer: tenant-keyed ops
//!   hash onto one shard ([`ShardMap::shard_of`]), `dispute` routes
//!   only when both tenants share a shard (else a protocol error),
//!   `metrics` fans out to every live shard and merges
//!   ([`aggregate_shard_metrics`]) with the router's own shard map
//!   attached, `shutdown` fans out and then drains the whole tier;
//! * **drain** — a `shutdown` op stops the listener, shuts every
//!   backend down, acks the client once all backends acked, flushes and
//!   exits. SIGTERM/SIGINT (when enabled) drain the *router only*:
//!   in-flight work finishes, clients close, backends stay up.

use crate::ring::ShardMap;
use crate::signal;
use freqywm_net::{token, Backend, Event, FrontDoor, Interest, LineEvent, LineStream};
use freqywm_obs::family::{
    counter, gauge, histogram, info, write_prom, JsonObject, LatencyHistogram, Val,
};
use freqywm_obs::prom::PromText;
use freqywm_service::metrics::{aggregate_shard_metrics, ShardMetricsPiece};
use freqywm_service::proto::{
    err_response, frame_too_large_response, id_echo, json, request_id, route_of, AuthGate,
    Envelope, FanoutKind, RouteInfo,
};
use json::Value;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Backend `i` registers as `TOKEN_BACKEND_BASE + i`; clients register
/// under their id, below it. Both sit under the door's
/// [`token::SCRAPE_BASE`].
const TOKEN_BACKEND_BASE: u64 = 1 << 40;

const SHARD_INFO: &str = "Shard address and replication role; value is always 1.";

freqywm_obs::families! {
    /// Every router metric: `ROUTER[r as usize]` declares `r`. Per-row
    /// families are one `shard_map` entry in JSON and one `{shard}`
    /// series in the exposition; [`Router::metric`] reads each value.
    pub enum R in ROUTER {
        RouterInfo => info("", "freqywm_router_info", "shards",
            "Router tier metadata; value is always 1."),
        ClientsAccepted => counter("router.clients_accepted",
            "freqywm_router_clients_accepted_total", "Client connections accepted."),
        ClientsActive => gauge("router.clients_active", "freqywm_router_clients_active",
            "Currently connected clients."),
        Forwarded => counter("router.forwarded", "freqywm_router_forwarded_total",
            "Requests forwarded to a shard."),
        Refused => counter("router.refused", "freqywm_router_refused_total",
            "Requests answered with a router-side error."),
        InflightFailed => counter("router.inflight_failed",
            "freqywm_router_inflight_failed_total",
            "Forwarded requests errored because their backend died."),
        Draining => gauge("router.draining", "freqywm_router_draining",
            "1 while the router is draining."),
        Addr => info("addr", "freqywm_router_shard_info", "addr", SHARD_INFO).per_row(),
        Role => info("role", "freqywm_router_shard_info", "role", SHARD_INFO).per_row(),
        Up => gauge("up", "freqywm_router_shard_up", "Backend connected.").per_row(),
        Healthy => gauge("healthy", "freqywm_router_shard_healthy",
            "Last probe answered successfully.").per_row(),
        Standby => info("standby", "", "standby", "Standby address, if one is configured.")
            .per_row(),
        Promoting => gauge("promoting", "", "A standby promotion is in progress.").per_row(),
        FailedOver => gauge("failed_over", "freqywm_router_shard_failed_over",
            "Shard is served by a promoted standby.").per_row(),
        StandbyUp => gauge("", "freqywm_router_shard_standby_up",
            "Configured standby answered its last probe.").per_row(),
        Routed => counter("routed", "freqywm_router_shard_routed_total",
            "Requests forwarded to this shard.").per_row(),
        LogSeq => gauge("log_seq", "freqywm_router_shard_log_seq",
            "Durable-log sequence the shard primary last reported.").per_row(),
        StandbyLogSeq => gauge("standby_log_seq", "freqywm_router_shard_standby_log_seq",
            "Durable-log sequence the shard standby last reported.").per_row(),
        ReplLag => gauge("repl_lag", "freqywm_router_shard_replication_lag",
            "Log events the standby trails its primary by (primary log_seq - standby log_seq).")
            .per_row(),
        Rtt => histogram("latency", "freqywm_router_shard_rtt_seconds",
            concat!("Router-observed request round-trip time per shard (send to response, ",
                "including the shard's own queueing and run time).")).per_row(),
    }
}

/// Backend response frames (metrics blobs) may exceed client request
/// caps; a response larger than this means the stream lost framing.
const BACKEND_MAX_FRAME: usize = 8 << 20;
/// Upper bound on one poller wait, so signal flags and timers are
/// observed promptly even if a wake byte is lost.
const MAX_POLL: Duration = Duration::from_millis(500);

/// Per-attempt bound on dialing a backend or standby, and on a standby
/// probe's read.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Slow-client eviction bound on unread response bytes.
const MAX_WRITE_BUFFER: usize = 4 << 20;

/// Poller backend: epoll on Linux, `poll(2)` elsewhere.
const POLLER: Backend = Backend::Auto;

/// Router tier configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Backend engine addresses; position in the vec is the shard id
    /// and must match each backend's `--shard-id i/N`.
    pub shards: Vec<String>,
    /// Optional standby address per shard (aligned with `shards`; a
    /// short vec is padded with `None`). When health handling declares
    /// a primary dead, the router dials the standby, issues `promote`,
    /// and redirects the shard's traffic — requests arriving during
    /// the switch are parked, not errored.
    pub standbys: Vec<Option<String>>,
    /// Concurrent client connection cap (at least 1).
    pub max_conns: usize,
    /// Client input frame cap (same semantics as the engine serve).
    pub max_frame: usize,
    /// Bound on a drain (shutdown op or SIGTERM) before remaining
    /// connections are closed forcibly (zero is taken as one second).
    pub drain_timeout: Duration,
    /// Idle gap after which a connected backend gets a `metrics`
    /// health probe (zero is taken as one second).
    pub probe_interval: Duration,
    /// Reconnect backoff range for dead backends.
    pub reconnect_min: Duration,
    pub reconnect_max: Duration,
    /// How long requests may park while a standby promotion is in
    /// progress before they error out (promotion itself keeps
    /// retrying past this; zero is taken as one second).
    pub failover_timeout: Duration,
    /// Client-side shared-secret auth (`hello` op / per-request
    /// `auth`), mirroring `freqywm serve --auth-token`.
    pub auth_token: Option<String>,
    /// Token the router presents to backends (their `--auth-token`),
    /// sent as a `hello` op right after each (re)connect.
    pub shard_auth_token: Option<String>,
    /// Install SIGTERM/SIGINT handlers that drain the router (the CLI
    /// turns this on; embedded/test routers leave it off).
    pub handle_signals: bool,
}

impl RouterConfig {
    pub fn new(shards: Vec<String>) -> Self {
        RouterConfig {
            shards,
            ..RouterConfig::default()
        }
    }
}

/// No shards: [`run_router`] refuses an empty shard map, so set
/// `shards` (or use [`RouterConfig::new`]).
impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: Vec::new(),
            standbys: Vec::new(),
            max_conns: 1024,
            max_frame: 1 << 20,
            drain_timeout: Duration::from_secs(10),
            probe_interval: Duration::from_secs(2),
            reconnect_min: Duration::from_millis(100),
            reconnect_max: Duration::from_secs(3),
            failover_timeout: Duration::from_secs(10),
            auth_token: None,
            shard_auth_token: None,
            handle_signals: false,
        }
    }
}

/// Runs the router until a `shutdown` op completes its tier drain (or a
/// drain signal, when enabled). The listener must already be bound —
/// callers announce the address themselves.
pub fn run_router(listener: TcpListener, config: RouterConfig) -> io::Result<()> {
    run_router_with_metrics(listener, None, config)
}

/// [`run_router`] with an optional second listener answering HTTP
/// `GET /metrics` with the router's tier exposition (router counters,
/// per-shard role / log_seq / replication lag / RTT) — `freqywm router
/// --metrics-listen`. The drain closes both listeners.
pub fn run_router_with_metrics(
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    config: RouterConfig,
) -> io::Result<()> {
    if config.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "router needs at least one --shard backend",
        ));
    }
    let mut router = Router::new(listener, metrics_listener, config)?;
    let result = router.run();
    signal::detach_drain_handler();
    result
}

enum CSlot {
    Ready(String),
    Pending,
}

struct ClientConn {
    io: LineStream,
    slots: VecDeque<CSlot>,
    base: usize,
    gate: AuthGate,
    interest: Interest,
}

impl ClientConn {
    fn new(stream: TcpStream, max_frame: usize, auth_token: Option<String>) -> Self {
        ClientConn {
            io: LineStream::new(stream, max_frame),
            slots: VecDeque::new(),
            base: 0,
            gate: AuthGate::new(auth_token, ",\"router\":true"),
            interest: Interest::READ,
        }
    }

    fn push_ready(&mut self, resp: String) {
        self.slots.push_back(CSlot::Ready(resp));
    }

    /// Reserves the next in-order response slot; returns its absolute
    /// sequence number.
    fn push_pending(&mut self) -> usize {
        let seq = self.base + self.slots.len();
        self.slots.push_back(CSlot::Pending);
        seq
    }

    fn resolve(&mut self, seq: usize, resp: String) {
        let idx = seq - self.base;
        self.slots[idx] = CSlot::Ready(resp);
    }

    /// Moves the maximal ready prefix into the write buffer.
    fn queue_ready(&mut self) {
        while matches!(self.slots.front(), Some(CSlot::Ready(_))) {
            let Some(CSlot::Ready(resp)) = self.slots.pop_front() else {
                unreachable!("front checked above");
            };
            self.base += 1;
            self.io.queue_line(&resp);
        }
    }

    fn settled(&self) -> bool {
        self.slots.is_empty() && self.io.buffered() == 0
    }
}

/// One request in flight on a backend connection, in FIFO order.
enum Pending {
    /// Forward the response line verbatim to this client slot.
    Client {
        client: u64,
        seq: usize,
        /// Prerendered id echo, for synthesising an error if the
        /// backend dies before answering.
        id_part: String,
    },
    /// One piece of a fan-out (`metrics` / `shutdown`).
    Fanout { fanout: u64 },
    /// Router-internal health probe: a *successful* response (and only
    /// that) proves the backend healthy and resets its reconnect
    /// backoff — an auth-error reply must do neither.
    Probe,
    /// Router-internal backend auth hello: consumed without touching
    /// health (the probe that follows it is the judge).
    Hello,
    /// `promote` issued during failover: the ack completes the
    /// promotion and releases this shard's parked requests.
    Promote,
}

/// A tenant request held while its shard fails over to a standby
/// (primary dead, promotion in flight) instead of erroring: flushed to
/// the promoted backend on ack, errored if promotion fails or the
/// failover deadline passes.
struct ParkedRequest {
    client: u64,
    seq: usize,
    id_part: String,
    line: String,
}

/// Bound on parked requests per shard during failover; beyond it new
/// arrivals error immediately (backpressure, not unbounded memory).
const MAX_PARKED: usize = 4096;

struct BackendConn {
    io: LineStream,
    /// Each entry is (send time, correlation); the send time feeds the
    /// per-backend latency histogram when the FIFO response arrives.
    inflight: VecDeque<(Instant, Pending)>,
    last_activity: Instant,
    interest: Interest,
}

impl BackendConn {
    fn new(stream: TcpStream) -> Self {
        BackendConn {
            io: LineStream::new(stream, BACKEND_MAX_FRAME),
            inflight: VecDeque::new(),
            last_activity: Instant::now(),
            interest: Interest::READ,
        }
    }
}

struct BackendSlot {
    addr: String,
    conn: Option<BackendConn>,
    /// A connector thread is dialing; don't spawn another.
    connecting: bool,
    /// Last exchange succeeded (any response line); false from connect
    /// until the first response and after any failure.
    healthy: bool,
    /// Requests forwarded to this shard over the router's lifetime.
    routed: u64,
    /// Send→response round-trip latency per request on this backend
    /// (includes the shard's own queueing and run time — this is the
    /// latency the *router* observes, surfaced in the shard map).
    latency: LatencyHistogram,
    backoff: Duration,
    next_attempt: Instant,
    /// Standby address for failover; consumed (moved into `addr`) when
    /// the primary is declared dead.
    standby: Option<String>,
    /// `Some(deadline)` while a standby promotion is in progress (dial
    /// plus `promote` op). Requests park until the deadline, then
    /// error; the promotion itself keeps retrying past it.
    promoting: Option<Instant>,
    /// This slot's `addr` is a promoted standby (for operators: the
    /// original primary is gone and unmonitored).
    failed_over: bool,
    /// Requests parked during failover, in arrival order.
    parked: VecDeque<ParkedRequest>,
    /// Replication role the backend last reported ("primary" /
    /// "follower"), refreshed by every health probe and metrics fanout.
    role: Option<String>,
    /// Durable-log sequence the backend last reported; with the
    /// standby prober's reading this yields the pair's replication lag.
    log_seq: Option<u64>,
}

/// What the background prober last learned about one standby.
#[derive(Debug, Clone, Copy, Default)]
struct StandbyProbe {
    /// The standby answered a metrics probe.
    up: bool,
    /// Its reported durable-log sequence.
    log_seq: Option<u64>,
}

/// Shared state between the reactor and the standby prober thread: the
/// addresses to probe (a standby is consumed on failover, at which
/// point its slot goes `None`) and the latest readings.
struct StandbyProberState {
    addrs: Mutex<Vec<Option<String>>>,
    probes: Mutex<Vec<StandbyProbe>>,
    stop: Mutex<bool>,
    stopped: Condvar,
}

/// The standby prober: the reactor never dials standbys (they serve no
/// traffic), so replication lag needs its own slow loop — every probe
/// interval, each configured standby gets one blocking `metrics`
/// request on a throwaway connection, and its `log_seq` lands in the
/// shared state for the shard map and the exposition to read.
fn standby_prober_loop(
    state: Arc<StandbyProberState>,
    interval: Duration,
    auth_token: Option<String>,
) {
    loop {
        let addrs: Vec<Option<String>> = state.addrs.lock().expect("prober addrs").clone();
        for (idx, addr) in addrs.iter().enumerate() {
            let probe = match addr {
                Some(addr) => probe_standby(addr, auth_token.as_deref()).unwrap_or_default(),
                None => StandbyProbe::default(),
            };
            state.probes.lock().expect("prober probes")[idx] = probe;
        }
        let guard = state.stop.lock().expect("prober stop");
        let (guard, _) = state
            .stopped
            .wait_timeout(guard, interval)
            .expect("prober stop");
        if *guard {
            return;
        }
    }
}

/// One blocking metrics exchange with a standby; `None` on any failure
/// (connect, timeout, bad response) — the standby is then just "down".
fn probe_standby(addr: &str, auth_token: Option<&str>) -> Option<StandbyProbe> {
    let stream = connect_backend(addr).ok()?;
    stream.set_read_timeout(Some(CONNECT_TIMEOUT)).ok()?;
    let mut writer = stream.try_clone().ok()?;
    let mut reader = BufReader::new(stream);
    let mut request = String::new();
    if let Some(token) = auth_token {
        request.push_str(&format!(
            "{{\"op\":\"hello\",\"token\":\"{}\"}}\n",
            json::escape(token)
        ));
    }
    request.push_str("{\"op\":\"metrics\"}\n");
    writer.write_all(request.as_bytes()).ok()?;
    let mut line = String::new();
    if auth_token.is_some() {
        reader.read_line(&mut line).ok()?; // hello ack
        line.clear();
    }
    reader.read_line(&mut line).ok()?;
    let v = json::parse(line.trim()).ok()?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return None;
    }
    let log_seq = v
        .get("metrics")
        .and_then(|m| m.get("log_seq"))
        .and_then(Value::as_u64);
    Some(StandbyProbe { up: true, log_seq })
}

struct Fanout {
    client: u64,
    seq: usize,
    id_part: String,
    kind: FanoutKind,
    remaining: usize,
    /// Shards the request was actually sent to (connected at creation).
    targets: Vec<usize>,
    /// Per-shard parsed responses (None: shard down or reply lost).
    pieces: Vec<Option<Value>>,
}

#[derive(Default)]
struct RouterStats {
    accepted: u64,
    forwarded: u64,
    refused: u64,
    /// Forwarded requests that died with their backend — every one was
    /// resolved with an error (never a hang). Failover tests assert
    /// client-visible errors ≤ this count.
    inflight_failed: u64,
}

struct Router {
    config: RouterConfig,
    map: ShardMap,
    door: FrontDoor,
    /// Write end of the door's wake pair (connector threads, signals).
    wake_tx: UnixStream,
    connect_rx: Receiver<(usize, io::Result<TcpStream>)>,
    connect_tx: Sender<(usize, io::Result<TcpStream>)>,
    /// Clients by id, which is also their poller token.
    clients: HashMap<u64, ClientConn>,
    next_client: u64,
    backends: Vec<BackendSlot>,
    fanouts: HashMap<u64, Fanout>,
    next_fanout: u64,
    drain: Option<Instant>,
    stats: RouterStats,
    /// Shared with the standby prober thread (None when no standbys).
    prober: Option<(Arc<StandbyProberState>, std::thread::JoinHandle<()>)>,
}

/// What the router's metric families read, borrowed field by field so
/// a scrape renders while the door holds the scrape connection.
struct TierView<'a> {
    backends: &'a [BackendSlot],
    stats: &'a RouterStats,
    clients: usize,
    draining: bool,
    prober: Option<&'a StandbyProberState>,
}

/// The [`TierView`] of a router.
macro_rules! tier_view {
    ($router:expr) => {
        TierView {
            backends: &$router.backends,
            stats: &$router.stats,
            clients: $router.clients.len(),
            draining: $router.drain.is_some(),
            prober: $router.prober.as_ref().map(|(state, _)| &**state),
        }
    };
}

impl<'a> TierView<'a> {
    /// The latest standby probe readings (empty default when no
    /// standbys are configured / no prober runs).
    fn standby_probes(&self) -> Vec<StandbyProbe> {
        match self.prober {
            Some(state) => state.probes.lock().expect("prober probes").clone(),
            None => vec![StandbyProbe::default(); self.backends.len()],
        }
    }

    /// Replication lag of shard `idx`: primary `log_seq` minus the
    /// standby's, when both sides have reported one.
    fn repl_lag(&self, idx: usize, probes: &[StandbyProbe]) -> Option<u64> {
        let primary = self.backends[idx].log_seq?;
        let standby = probes.get(idx).and_then(|p| p.log_seq)?;
        Some(primary.saturating_sub(standby))
    }

    /// The value of router family `i`, for shard `row` when the family
    /// is per-shard. The table says how each value renders; this says
    /// where it comes from.
    fn metric(&self, i: usize, row: Option<usize>, probes: &[StandbyProbe]) -> Val<'a> {
        let Some(s) = row else {
            return match R::ALL[i] {
                R::RouterInfo => Val::Str(self.backends.len().to_string().into()),
                R::ClientsAccepted => Val::Num(self.stats.accepted),
                R::ClientsActive => Val::Num(self.clients as u64),
                R::Forwarded => Val::Num(self.stats.forwarded),
                R::Refused => Val::Num(self.stats.refused),
                R::InflightFailed => Val::Num(self.stats.inflight_failed),
                R::Draining => Val::Bool(self.draining),
                _ => Val::Absent,
            };
        };
        let b = &self.backends[s];
        let num = |v: Option<u64>| v.map_or(Val::Null, Val::Num);
        match R::ALL[i] {
            R::Addr => Val::Str(b.addr.as_str().into()),
            R::Role => text(b.role.as_deref()),
            R::Up => Val::Bool(b.conn.is_some()),
            R::Healthy => Val::Bool(b.healthy),
            R::Standby => text(b.standby.as_deref()),
            R::Promoting => Val::Bool(b.promoting.is_some()),
            R::FailedOver => Val::Bool(b.failed_over),
            R::StandbyUp => Val::Bool(b.standby.is_some() && probes[s].up),
            R::Routed => Val::Num(b.routed),
            R::LogSeq => num(b.log_seq),
            R::StandbyLogSeq => num(probes[s].log_seq),
            R::ReplLag => num(self.repl_lag(s, probes)),
            R::Rtt => Val::Brief(b.latency.snapshot()),
            _ => Val::Absent,
        }
    }

    /// The router's own Prometheus exposition: tier counters plus one
    /// `{shard}` series per shard. Shard *engine* metrics are not
    /// re-exported here — scrape each engine's own `--metrics-listen`
    /// for those; this endpoint is the router's view of the tier.
    fn prom(&self) -> String {
        let probes = self.standby_probes();
        let shards: Vec<String> = (0..self.backends.len()).map(|i| i.to_string()).collect();
        let mut w = PromText::new();
        write_prom(&mut w, ROUTER, "shard", &shards, |i, row| {
            self.metric(i, row, &probes)
        });
        w.finish()
    }
}

/// Returns the request line with a router-minted `"trace"` field
/// inserted when the client did not supply one, so every tenant-routed
/// request is correlatable across the tier (client → router → shard).
/// A client-supplied `"trace"` is forwarded verbatim, mistyped or not,
/// for the shard to judge — the insert is textual (right after the
/// opening brace), never a reparse/rewrite.
fn ensure_trace(line: &str, req: &Envelope) -> String {
    if req.get("trace").is_some() {
        return line.to_string();
    }
    let Some(pos) = line.find('{') else {
        return line.to_string(); // unparseable lines never route here
    };
    let trace = freqywm_obs::next_trace_id();
    let rest = &line[pos + 1..];
    let comma = if rest.trim_start().starts_with('}') {
        ""
    } else {
        ","
    };
    format!("{}\"trace\":\"{}\"{}{}", &line[..=pos], trace, comma, rest)
}

/// Whether a backend response line reports success (`"ok": true`).
fn line_ok(line: &str) -> bool {
    json::parse(line)
        .map(|v| v.get("ok").and_then(Value::as_bool) == Some(true))
        .unwrap_or(false)
}

fn err_with_part(id_part: &str, msg: &str) -> String {
    format!(
        "{{\"ok\":false{id_part},\"error\":\"{}\"}}",
        json::escape(msg)
    )
}

/// An optional string value: `null` in JSON while unknown.
fn text(v: Option<&str>) -> Val<'_> {
    v.map_or(Val::Null, |t| Val::Str(t.into()))
}

fn connect_backend(addr: &str) -> io::Result<TcpStream> {
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("cannot resolve {addr}")))?;
    TcpStream::connect_timeout(&resolved, CONNECT_TIMEOUT)
}

impl Router {
    fn new(
        listener: TcpListener,
        metrics_listener: Option<TcpListener>,
        mut config: RouterConfig,
    ) -> io::Result<Self> {
        // A zero period would spin the prober, or end every drain and
        // failover park at once.
        for period in [
            &mut config.probe_interval,
            &mut config.drain_timeout,
            &mut config.failover_timeout,
        ] {
            if period.is_zero() {
                *period = Duration::from_secs(1);
            }
        }
        let (door, wake_tx) =
            FrontDoor::open(listener, metrics_listener, POLLER, config.max_conns, None)?;
        if config.handle_signals {
            signal::install_drain_handler(wake_tx.as_raw_fd());
        }
        let (connect_tx, connect_rx) = channel();
        let now = Instant::now();
        let mut standbys = config.standbys.clone();
        standbys.resize(config.shards.len(), None);
        let prober = if standbys.iter().any(Option::is_some) {
            let state = Arc::new(StandbyProberState {
                addrs: Mutex::new(standbys.clone()),
                probes: Mutex::new(vec![StandbyProbe::default(); config.shards.len()]),
                stop: Mutex::new(false),
                stopped: Condvar::new(),
            });
            let thread_state = Arc::clone(&state);
            let interval = config.probe_interval;
            let token = config.shard_auth_token.clone();
            let handle =
                std::thread::spawn(move || standby_prober_loop(thread_state, interval, token));
            Some((state, handle))
        } else {
            None
        };
        let backends = config
            .shards
            .iter()
            .zip(standbys)
            .map(|(addr, standby)| BackendSlot {
                addr: addr.clone(),
                conn: None,
                connecting: false,
                healthy: false,
                routed: 0,
                latency: LatencyHistogram::default(),
                backoff: config.reconnect_min,
                next_attempt: now,
                standby,
                promoting: None,
                failed_over: false,
                parked: VecDeque::new(),
                role: None,
                log_seq: None,
            })
            .collect();
        let map = ShardMap::new(config.shards.clone());
        Ok(Router {
            config,
            map,
            door,
            wake_tx,
            connect_rx,
            connect_tx,
            clients: HashMap::new(),
            next_client: 0,
            backends,
            fanouts: HashMap::new(),
            next_fanout: 1,
            drain: None,
            stats: RouterStats::default(),
            prober,
        })
    }

    fn run(&mut self) -> io::Result<()> {
        let result = self.run_inner();
        if let Some((state, handle)) = self.prober.take() {
            *state.stop.lock().expect("prober stop") = true;
            state.stopped.notify_all();
            let _ = handle.join();
        }
        result
    }

    fn run_inner(&mut self) -> io::Result<()> {
        for idx in 0..self.backends.len() {
            self.spawn_connector(idx);
        }
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = self.poll_timeout();
            self.door.poller.wait(&mut events, Some(timeout))?;
            // A client closed mid-batch leaves stale events behind; its
            // id is never reused, so they find no client and drop.
            for &ev in &events {
                match ev.token {
                    token::LISTENER => self.accept_ready(),
                    t if t >= token::SCRAPE_BASE => {
                        let tier = tier_view!(self);
                        self.door.event(ev, tier.clients, || tier.prom());
                    }
                    t if t >= TOKEN_BACKEND_BASE => {
                        self.backend_ready((t - TOKEN_BACKEND_BASE) as usize, ev)
                    }
                    id => self.client_ready(id, ev),
                }
            }
            self.drain_connector_results();
            if self.config.handle_signals && signal::drain_requested() && self.drain.is_none() {
                // Signal drain: router only. Backends stay up — the
                // shutdown op is the way to take the whole tier down.
                self.start_drain();
            }
            self.tick_reconnects();
            self.tick_probes();
            self.tick_failovers();
            self.door.reap_scrapes();
            if let Some(deadline) = self.drain {
                // Settled clients were closed as they drained; what's
                // left is either done or past the deadline.
                if self.clients.is_empty() || Instant::now() >= deadline {
                    for id in self.clients.keys().copied().collect::<Vec<_>>() {
                        self.close_client(id);
                    }
                    self.door.close_scrapes();
                    return Ok(());
                }
            }
        }
    }

    // ----- timers -----------------------------------------------------

    fn poll_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut timeout = MAX_POLL;
        if let Some(deadline) = self.drain {
            timeout = timeout.min(deadline.saturating_duration_since(now));
        }
        for b in &self.backends {
            if b.conn.is_none() && !b.connecting {
                timeout = timeout.min(b.next_attempt.saturating_duration_since(now));
            }
            if let Some(conn) = &b.conn {
                if conn.inflight.is_empty() {
                    let probe_at = conn.last_activity + self.config.probe_interval;
                    timeout = timeout.min(probe_at.saturating_duration_since(now));
                }
            }
            if let Some(deadline) = b.promoting {
                if !b.parked.is_empty() {
                    // Wake in time to error expired parked requests.
                    timeout = timeout.min(deadline.saturating_duration_since(now));
                }
            }
        }
        timeout
    }

    fn tick_reconnects(&mut self) {
        if self.drain.is_some() {
            return;
        }
        let now = Instant::now();
        for idx in 0..self.backends.len() {
            let b = &self.backends[idx];
            if b.conn.is_none() && !b.connecting && now >= b.next_attempt {
                self.spawn_connector(idx);
            }
        }
    }

    fn tick_probes(&mut self) {
        if self.drain.is_some() {
            return;
        }
        for idx in 0..self.backends.len() {
            let due = match &self.backends[idx].conn {
                Some(conn) => {
                    conn.inflight.is_empty()
                        && conn.last_activity.elapsed() >= self.config.probe_interval
                }
                None => false,
            };
            if due {
                self.send_backend(idx, "{\"op\":\"metrics\"}", Pending::Probe);
            }
        }
    }

    // ----- wakeup + connectors ----------------------------------------

    /// Dials shard `idx` on a throwaway thread; the result arrives via
    /// the channel + wake pipe. The reactor never blocks in connect(2).
    fn spawn_connector(&mut self, idx: usize) {
        self.backends[idx].connecting = true;
        let addr = self.backends[idx].addr.clone();
        let tx = self.connect_tx.clone();
        let wake = self.wake_tx.try_clone().ok();
        std::thread::spawn(move || {
            let result = connect_backend(&addr);
            let _ = tx.send((idx, result));
            if let Some(wake) = wake {
                let _ = (&wake).write(&[1]);
            }
        });
    }

    fn drain_connector_results(&mut self) {
        while let Ok((idx, result)) = self.connect_rx.try_recv() {
            self.backends[idx].connecting = false;
            match result {
                Ok(stream) if self.drain.is_none() => self.install_backend(idx, stream),
                Ok(_dropped_during_drain) => {}
                Err(_) => self.schedule_reconnect(idx),
            }
        }
    }

    fn install_backend(&mut self, idx: usize, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return self.schedule_reconnect(idx);
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        if self
            .door
            .poller
            .register(fd, TOKEN_BACKEND_BASE + idx as u64, Interest::READ)
            .is_err()
        {
            return self.schedule_reconnect(idx);
        }
        self.backends[idx].conn = Some(BackendConn::new(stream));
        // Backoff is NOT reset here: a crash-looping backend accepts
        // then dies before ever answering, and resetting on connect
        // would turn that into a tight dial loop. Only a successful
        // probe (or promote) response earns the reset.
        //
        // Authenticate, then (mid-failover) promote, then probe: the
        // probe response flips `healthy`.
        if let Some(token) = self.config.shard_auth_token.clone() {
            let hello = format!(
                "{{\"op\":\"hello\",\"token\":\"{}\"}}",
                json::escape(&token)
            );
            self.send_backend(idx, &hello, Pending::Hello);
        }
        if self.backends[idx].promoting.is_some() {
            self.send_backend(idx, "{\"op\":\"promote\"}", Pending::Promote);
        }
        self.send_backend(idx, "{\"op\":\"metrics\"}", Pending::Probe);
    }

    fn schedule_reconnect(&mut self, idx: usize) {
        let b = &mut self.backends[idx];
        b.next_attempt = Instant::now() + b.backoff;
        b.backoff = (b.backoff * 2).min(self.config.reconnect_max);
    }

    // ----- backend side -----------------------------------------------

    fn send_backend(&mut self, idx: usize, line: &str, pending: Pending) {
        let Some(conn) = self.backends[idx].conn.as_mut() else {
            return;
        };
        conn.io.queue_line(line);
        conn.inflight.push_back((Instant::now(), pending));
        conn.io.flush();
        conn.last_activity = Instant::now();
        if conn.io.failed {
            self.fail_backend(idx);
        } else {
            self.update_backend_interest(idx);
        }
    }

    fn backend_ready(&mut self, idx: usize, ev: Event) {
        if idx >= self.backends.len() {
            return;
        }
        let mut lines = Vec::new();
        {
            let Some(conn) = self.backends[idx].conn.as_mut() else {
                return;
            };
            if ev.readable {
                let mut oversized = false;
                // A backend tail with no newline is a response
                // truncated mid-write — never a deliverable line.
                conn.io.read_ready(false, |e| match e {
                    LineEvent::Line(line) => lines.push(line),
                    LineEvent::Oversized => oversized = true,
                });
                // A response that overflows the cap means the stream
                // lost framing; resync via reconnect.
                conn.io.failed |= oversized;
                conn.last_activity = Instant::now();
            }
            if ev.hangup {
                conn.io.eof = true;
            }
            if ev.writable && !conn.io.failed {
                conn.io.flush();
            }
        }
        for line in lines {
            self.backend_line(idx, line);
        }
        let dead = match self.backends[idx].conn.as_ref() {
            Some(conn) => conn.io.failed || conn.io.eof,
            None => false,
        };
        if dead {
            self.fail_backend(idx);
        } else {
            self.update_backend_interest(idx);
        }
    }

    fn backend_line(&mut self, idx: usize, line: String) {
        let pending = match self.backends[idx].conn.as_mut() {
            Some(conn) => conn.inflight.pop_front(),
            None => None,
        };
        let pending = pending.map(|(sent, pending)| {
            self.backends[idx].latency.record(sent.elapsed());
            pending
        });
        match pending {
            None => {
                // A response with nothing in flight: the stream is out
                // of sync; reconnect to resync.
                if let Some(conn) = self.backends[idx].conn.as_mut() {
                    conn.io.failed = true;
                }
            }
            Some(Pending::Client { client, seq, .. }) => {
                self.resolve_client_slot(client, seq, line)
            }
            Some(Pending::Fanout { fanout }) => self.fanout_piece(fanout, idx, Some(line)),
            Some(Pending::Probe) => {
                // Health is earned by a *successful* probe response.
                // Any line used to flip `healthy`, so a backend
                // rejecting the router's hello (wrong token) oscillated
                // healthy on its own error replies.
                let parsed = json::parse(&line).ok();
                let ok = parsed
                    .as_ref()
                    .and_then(|v| v.get("ok"))
                    .and_then(Value::as_bool)
                    == Some(true);
                self.backends[idx].healthy = ok;
                if ok {
                    // …and a successful probe is also what proves the
                    // backend actually serves, so the reconnect backoff
                    // resets here, not on mere TCP accept.
                    self.backends[idx].backoff = self.config.reconnect_min;
                    // The probe is a metrics response: keep the shard's
                    // replication view (role, log_seq) fresh from it.
                    if let Some(m) = parsed.as_ref().and_then(|v| v.get("metrics")) {
                        self.note_shard_metrics(idx, m);
                    }
                }
            }
            Some(Pending::Hello) => {}
            Some(Pending::Promote) => self.finish_promotion(idx, line_ok(&line)),
        }
    }

    /// Updates the cached replication view (role, log_seq) of shard
    /// `idx` from a metrics object it reported — every probe and every
    /// metrics fanout keeps these fresh without extra traffic.
    fn note_shard_metrics(&mut self, idx: usize, metrics: &Value) {
        if let Some(role) = metrics.get("role").and_then(Value::as_str) {
            self.backends[idx].role = Some(role.to_string());
        }
        if let Some(seq) = metrics.get("log_seq").and_then(Value::as_u64) {
            self.backends[idx].log_seq = Some(seq);
        }
    }

    /// The `promote` ack arrived: on success the standby is the new
    /// primary — release the shard's parked traffic to it. On refusal
    /// (corrupt chain, bad auth) the parked requests cannot succeed;
    /// error them and leave the backend serving whatever it still can
    /// (reads on a still-follower engine), with errors scoped per
    /// request rather than per shard.
    fn finish_promotion(&mut self, idx: usize, ok: bool) {
        self.backends[idx].promoting = None;
        let addr = self.backends[idx].addr.clone();
        if ok {
            self.backends[idx].healthy = true;
            self.backends[idx].backoff = self.config.reconnect_min;
            eprintln!(
                "{{\"event\":\"failover_promoted\",\"shard\":{idx},\"addr\":\"{}\",\"parked\":{}}}",
                json::escape(&addr),
                self.backends[idx].parked.len()
            );
            self.flush_parked(idx, None);
        } else {
            eprintln!(
                "{{\"event\":\"failover_promote_refused\",\"shard\":{idx},\"addr\":\"{}\"}}",
                json::escape(&addr)
            );
            self.flush_parked(
                idx,
                Some(format!(
                    "shard {idx} ({addr}) failover failed: promote refused"
                )),
            );
        }
    }

    /// Drains a shard's parked requests: forwards them in arrival order
    /// (`error: None`) or resolves each with `error`. If the connection
    /// dies mid-flush the remainder error too — a parked slot must
    /// never be dropped silently (the client would hang forever).
    fn flush_parked(&mut self, idx: usize, error: Option<String>) {
        let parked: Vec<ParkedRequest> = self.backends[idx].parked.drain(..).collect();
        for p in parked {
            let lost = error.is_none() && self.backends[idx].conn.is_none();
            match (&error, lost) {
                (None, false) => {
                    self.backends[idx].routed += 1;
                    self.stats.forwarded += 1;
                    self.send_backend(
                        idx,
                        &p.line,
                        Pending::Client {
                            client: p.client,
                            seq: p.seq,
                            id_part: p.id_part,
                        },
                    );
                }
                (None, true) => {
                    let msg = format!("shard {idx} ({}) connection lost", self.backends[idx].addr);
                    self.stats.refused += 1;
                    self.resolve_client_slot(p.client, p.seq, err_with_part(&p.id_part, &msg));
                }
                (Some(msg), _) => {
                    self.stats.refused += 1;
                    self.resolve_client_slot(p.client, p.seq, err_with_part(&p.id_part, msg));
                }
            }
        }
    }

    /// Tears down a backend connection: every in-flight request gets a
    /// protocol error (scoped to this shard's tenants — other shards
    /// are untouched), the fd is deregistered, and either a failover
    /// begins (standby configured) or a reconnect is scheduled with
    /// backoff. In-flight losses are counted (`inflight_failed`) so
    /// failover tests can assert errors ≤ in-flight at kill time.
    fn fail_backend(&mut self, idx: usize) {
        let Some(mut conn) = self.backends[idx].conn.take() else {
            return;
        };
        let _ = self.door.poller.deregister(conn.io.as_raw_fd());
        self.backends[idx].healthy = false;
        let addr = self.backends[idx].addr.clone();
        for (_sent, pending) in conn.inflight.drain(..) {
            match pending {
                Pending::Client {
                    client,
                    seq,
                    id_part,
                } => {
                    let msg = format!("shard {idx} ({addr}) connection lost");
                    self.stats.inflight_failed += 1;
                    self.resolve_client_slot(client, seq, err_with_part(&id_part, &msg));
                }
                Pending::Fanout { fanout } => self.fanout_piece(fanout, idx, None),
                Pending::Probe | Pending::Hello => {}
                // The promote ack died with the connection; `promoting`
                // stays set, so the next (re)connect re-issues it — the
                // op is idempotent on the engine.
                Pending::Promote => {}
            }
        }
        if self.drain.is_none() {
            if self.backends[idx].promoting.is_none() {
                if let Some(standby) = self.backends[idx].standby.take() {
                    return self.begin_failover(idx, standby);
                }
            }
            self.schedule_reconnect(idx);
        }
    }

    /// The primary died with a standby configured: the standby address
    /// takes over the slot, a promotion window opens (new requests park
    /// instead of erroring), and the dial starts immediately. The dead
    /// primary's address is dropped — after promotion the standby *is*
    /// the shard; seeding a replacement standby is an operator action.
    fn begin_failover(&mut self, idx: usize, standby: String) {
        // The standby is about to become the primary: stop probing it
        // as a standby (its slot in the prober's address list empties).
        if let Some((state, _)) = &self.prober {
            state.addrs.lock().expect("prober addrs")[idx] = None;
            state.probes.lock().expect("prober probes")[idx] = StandbyProbe::default();
        }
        let old = std::mem::replace(&mut self.backends[idx].addr, standby);
        self.backends[idx].promoting = Some(Instant::now() + self.config.failover_timeout);
        self.backends[idx].failed_over = true;
        self.backends[idx].backoff = self.config.reconnect_min;
        self.backends[idx].next_attempt = Instant::now();
        eprintln!(
            "{{\"event\":\"failover_started\",\"shard\":{idx},\"dead\":\"{}\",\"standby\":\"{}\"}}",
            json::escape(&old),
            json::escape(&self.backends[idx].addr)
        );
        self.spawn_connector(idx);
    }

    /// Errors out parked requests whose failover window expired. The
    /// promotion itself keeps retrying — only the waiting clients give
    /// up, exactly as if the shard were down.
    fn tick_failovers(&mut self) {
        let now = Instant::now();
        for idx in 0..self.backends.len() {
            let expired = self.backends[idx]
                .promoting
                .is_some_and(|deadline| now >= deadline)
                && !self.backends[idx].parked.is_empty();
            if expired {
                let msg = format!(
                    "shard {idx} ({}) failover timed out",
                    self.backends[idx].addr
                );
                self.flush_parked(idx, Some(msg));
            }
        }
    }

    fn update_backend_interest(&mut self, idx: usize) {
        let Some(conn) = self.backends[idx].conn.as_mut() else {
            return;
        };
        let want = Interest {
            readable: true,
            writable: conn.io.buffered() > 0,
        };
        let (fd, token) = (conn.io.as_raw_fd(), TOKEN_BACKEND_BASE + idx as u64);
        if !self.door.poller.update(fd, token, &mut conn.interest, want) {
            self.fail_backend(idx);
        }
    }

    // ----- client side ------------------------------------------------

    fn accept_ready(&mut self) {
        let next = &mut self.next_client;
        let clients = &mut self.clients;
        let config = &self.config;
        let report = self.door.accept(
            clients.len(),
            |_| {
                *next += 1;
                *next
            },
            |id, stream| {
                let conn = ClientConn::new(stream, config.max_frame, config.auth_token.clone());
                clients.insert(id, conn);
            },
        );
        self.stats.accepted += report.accepted;
    }

    fn client_ready(&mut self, client: u64, ev: Event) {
        let mut incoming = Vec::new();
        {
            let Some(conn) = self.clients.get_mut(&client) else {
                return;
            };
            if ev.readable && !conn.io.eof && self.drain.is_none() {
                conn.io.read_ready(true, |e| incoming.push(e));
            } else if ev.hangup {
                conn.io.eof = true;
            }
            if ev.writable && !conn.io.failed {
                conn.io.flush();
            }
        }
        for event in incoming {
            match event {
                LineEvent::Line(line) => self.handle_client_line(client, &line),
                LineEvent::Oversized => {
                    if let Some(conn) = self.clients.get_mut(&client) {
                        conn.push_ready(frame_too_large_response(self.config.max_frame));
                    }
                }
            }
        }
        self.pump_client(client);
    }

    fn handle_client_line(&mut self, client: u64, line: &str) {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return;
        }
        let Some(conn) = self.clients.get_mut(&client) else {
            return;
        };
        if self.drain.is_some() {
            conn.push_ready(err_response(request_id(line).as_ref(), "router draining"));
            self.stats.refused += 1;
            return;
        }
        // Only the envelope: the bulk arrays are checked for syntax but
        // never decoded here — the shard decodes them once.
        let req = match Envelope::parse(line) {
            Ok(v) => v,
            Err(e) => {
                conn.push_ready(err_response(None, &format!("bad json: {e}")));
                self.stats.refused += 1;
                return;
            }
        };
        if let Some(answer) = conn.gate.check(&req) {
            // Still locked after answering: a refusal, not a hello ack.
            self.stats.refused += u64::from(conn.gate.locked());
            conn.push_ready(answer);
            return;
        }
        let id = req.get("id").cloned();
        match route_of(&req) {
            RouteInfo::Tenant(tenant) => {
                let shard = self.map.shard_of(&tenant);
                let line = ensure_trace(line, &req);
                self.forward(client, shard, &line, id.as_ref());
            }
            RouteInfo::TenantPair(a, b) => {
                let (sa, sb) = (self.map.shard_of(&a), self.map.shard_of(&b));
                if sa == sb {
                    let line = ensure_trace(line, &req);
                    self.forward(client, sa, &line, id.as_ref());
                } else {
                    let msg = format!(
                        "unroutable dispute: tenants {a:?} (shard {sa}) and {b:?} \
                         (shard {sb}) live on different shards"
                    );
                    let Some(conn) = self.clients.get_mut(&client) else {
                        return;
                    };
                    conn.push_ready(err_response(id.as_ref(), &msg));
                    self.stats.refused += 1;
                }
            }
            RouteInfo::Broadcast(kind) => {
                // Broadcast ops fan out to every live shard. A shutdown
                // also drains the router, and the ack lands once every
                // live backend acked. The fanout reserves the
                // requester's response slot FIRST — start_drain closes
                // settled clients, and the requester must survive to
                // receive the ack.
                self.start_fanout(client, id.as_ref(), kind, line);
                if kind == FanoutKind::Shutdown {
                    self.start_drain();
                }
            }
            RouteInfo::Local => {
                let Some(conn) = self.clients.get_mut(&client) else {
                    return;
                };
                conn.push_ready(format!(
                    "{{\"ok\":true{},\"op\":\"hello\",\"router\":true,\"shards\":{}}}",
                    id_echo(id.as_ref()),
                    self.map.len()
                ));
            }
            RouteInfo::Unroutable(msg) => {
                let Some(conn) = self.clients.get_mut(&client) else {
                    return;
                };
                conn.push_ready(err_response(id.as_ref(), &msg));
                self.stats.refused += 1;
            }
        }
    }

    /// Forwards the raw request line to `shard`, reserving the client's
    /// next response slot. During a failover the request parks instead
    /// (released when the standby's promotion acks); a down shard with
    /// no failover in progress answers immediately with a protocol
    /// error — errors are scoped to the shard, never the tier.
    fn forward(&mut self, client: u64, shard: usize, line: &str, id: Option<&Value>) {
        let id_part = id_echo(id);
        let Some(conn) = self.clients.get_mut(&client) else {
            return;
        };
        let seq = conn.push_pending();
        if let Some(deadline) = self.backends[shard].promoting {
            if Instant::now() < deadline && self.backends[shard].parked.len() < MAX_PARKED {
                self.backends[shard].parked.push_back(ParkedRequest {
                    client,
                    seq,
                    id_part,
                    line: line.to_string(),
                });
                return;
            }
            let msg = format!(
                "shard {shard} ({}) failover in progress",
                self.backends[shard].addr
            );
            self.resolve_client_slot(client, seq, err_with_part(&id_part, &msg));
            self.stats.refused += 1;
            return;
        }
        if self.backends[shard].conn.is_none() {
            let msg = format!("shard {shard} ({}) unavailable", self.backends[shard].addr);
            self.resolve_client_slot(client, seq, err_with_part(&id_part, &msg));
            self.stats.refused += 1;
            return;
        }
        self.backends[shard].routed += 1;
        self.stats.forwarded += 1;
        let pending = Pending::Client {
            client,
            seq,
            id_part,
        };
        self.send_backend(shard, line, pending);
    }

    fn start_fanout(&mut self, client: u64, id: Option<&Value>, kind: FanoutKind, line: &str) {
        let id_part = id_echo(id);
        let Some(conn) = self.clients.get_mut(&client) else {
            return;
        };
        let seq = conn.push_pending();
        let connected: Vec<usize> = (0..self.backends.len())
            .filter(|&i| self.backends[i].conn.is_some())
            .collect();
        let fanout_id = self.next_fanout;
        self.next_fanout += 1;
        let request = match kind {
            FanoutKind::Metrics => "{\"op\":\"metrics\"}".to_string(),
            FanoutKind::Shutdown => "{\"op\":\"shutdown\"}".to_string(),
            // The shards need the client's filter/limit fields verbatim.
            FanoutKind::Trace | FanoutKind::History => line.to_string(),
        };
        self.fanouts.insert(
            fanout_id,
            Fanout {
                client,
                seq,
                id_part,
                kind,
                remaining: connected.len(),
                targets: connected.clone(),
                pieces: vec![None; self.backends.len()],
            },
        );
        for idx in connected {
            self.send_backend(idx, &request, Pending::Fanout { fanout: fanout_id });
        }
        self.try_finish_fanout(fanout_id);
    }

    fn fanout_piece(&mut self, fanout_id: u64, shard: usize, line: Option<String>) {
        let Some(f) = self.fanouts.get_mut(&fanout_id) else {
            return;
        };
        if let Some(line) = line {
            f.pieces[shard] = json::parse(&line).ok();
        }
        f.remaining = f.remaining.saturating_sub(1);
        self.try_finish_fanout(fanout_id);
    }

    fn try_finish_fanout(&mut self, fanout_id: u64) {
        let done = self
            .fanouts
            .get(&fanout_id)
            .is_some_and(|f| f.remaining == 0);
        if !done {
            return;
        }
        let f = self.fanouts.remove(&fanout_id).expect("checked above");
        let resp = match f.kind {
            FanoutKind::Shutdown => {
                // Honest ack: a backend that refused the shutdown op
                // (e.g. wrong --shard-auth-token) or died before
                // answering did NOT shut down — the router still
                // drains itself, but the client must not be told the
                // tier went down when it didn't.
                let unacked: Vec<String> = f
                    .targets
                    .iter()
                    .filter(|&&i| {
                        f.pieces[i]
                            .as_ref()
                            .and_then(|v| v.get("ok"))
                            .and_then(Value::as_bool)
                            != Some(true)
                    })
                    .map(|i| i.to_string())
                    .collect();
                if unacked.is_empty() {
                    format!("{{\"ok\":true{},\"op\":\"shutdown\"}}", f.id_part)
                } else {
                    err_with_part(
                        &f.id_part,
                        &format!(
                            "router draining, but shutdown was not acknowledged by \
                             shard(s) {}",
                            unacked.join(", ")
                        ),
                    )
                }
            }
            FanoutKind::Trace => {
                // Merge the shards' span arrays into one timeline:
                // every span gains a "shard" field, and the whole list
                // is ordered by start time so interleaved stages from
                // different shards read chronologically.
                let mut spans: Vec<(u64, String)> = Vec::new();
                for (i, piece) in f.pieces.iter().enumerate() {
                    let Some(arr) = piece
                        .as_ref()
                        .and_then(|v| v.get("spans"))
                        .and_then(Value::as_arr)
                    else {
                        continue;
                    };
                    for span in arr {
                        if let Value::Obj(fields) = span {
                            let start = span
                                .get("start_us")
                                .and_then(Value::as_u64)
                                .unwrap_or(u64::MAX);
                            let mut fields = fields.clone();
                            fields.push(("shard".to_string(), Value::Num(i as f64)));
                            spans.push((start, json::write(&Value::Obj(fields))));
                        }
                    }
                }
                spans.sort_by_key(|(start, _)| *start);
                let rendered: Vec<String> = spans.into_iter().map(|(_, s)| s).collect();
                format!(
                    "{{\"ok\":true{},\"op\":\"trace\",\"router\":true,\"count\":{},\"spans\":[{}]}}",
                    f.id_part,
                    rendered.len(),
                    rendered.join(",")
                )
            }
            FanoutKind::History => {
                // Per-shard series, each the shard's own history
                // response tagged with its index — rates and samples
                // stay per-shard (summing histories across shards
                // would blur exactly the skew `top` wants to show).
                let mut series: Vec<String> = Vec::new();
                for (i, piece) in f.pieces.iter().enumerate() {
                    let Some(Value::Obj(fields)) = piece else {
                        continue;
                    };
                    let mut fields: Vec<(String, Value)> = fields
                        .iter()
                        .filter(|(k, _)| k != "ok" && k != "op" && k != "id")
                        .cloned()
                        .collect();
                    fields.insert(0, ("shard_index".to_string(), Value::Num(i as f64)));
                    series.push(json::write(&Value::Obj(fields)));
                }
                format!(
                    "{{\"ok\":true{},\"op\":\"history\",\"router\":true,\"series\":[{}]}}",
                    f.id_part,
                    series.join(",")
                )
            }
            FanoutKind::Metrics => {
                // Fresh metrics in hand: refresh each shard's cached
                // replication view before rendering the map.
                for i in 0..self.backends.len() {
                    if let Some(m) = f.pieces[i].as_ref().and_then(|v| v.get("metrics")).cloned() {
                        self.note_shard_metrics(i, &m);
                    }
                }
                let tier = tier_view!(self);
                let probes = tier.standby_probes();
                let pieces: Vec<ShardMetricsPiece> = (0..self.backends.len())
                    .map(|i| ShardMetricsPiece {
                        index: i,
                        addr: self.backends[i].addr.clone(),
                        up: self.backends[i].conn.is_some(),
                        metrics: f.pieces[i].as_ref().and_then(|v| v.get("metrics").cloned()),
                    })
                    .collect();
                let mut top = JsonObject::default();
                top.families(ROUTER, false, |i| tier.metric(i, None, &probes));
                let shard_map: Vec<String> = (0..self.backends.len())
                    .map(|s| {
                        let mut row = JsonObject::default();
                        row.push("shard", s.to_string());
                        row.families(ROUTER, true, |i| tier.metric(i, Some(s), &probes));
                        row.render()
                    })
                    .collect();
                format!(
                    concat!(
                        "{{\"ok\":true{},\"op\":\"metrics\",\"scheme\":\"jump\",{},",
                        "\"shard_map\":[{}],\"metrics\":{}}}"
                    ),
                    f.id_part,
                    top.members(),
                    shard_map.join(","),
                    aggregate_shard_metrics(&pieces),
                )
            }
        };
        self.resolve_client_slot(f.client, f.seq, resp);
    }

    fn resolve_client_slot(&mut self, client: u64, seq: usize, resp: String) {
        let Some(conn) = self.clients.get_mut(&client) else {
            return; // client died before its response arrived
        };
        conn.resolve(seq, resp);
        self.pump_client(client);
    }

    fn pump_client(&mut self, client: u64) {
        let close = {
            let Some(conn) = self.clients.get_mut(&client) else {
                return;
            };
            conn.queue_ready();
            if !conn.io.failed {
                conn.io.flush();
            }
            conn.io.failed
                || conn.io.buffered() > MAX_WRITE_BUFFER
                || ((conn.io.eof || self.drain.is_some()) && conn.settled())
        };
        if close {
            self.close_client(client);
        } else {
            self.update_client_interest(client);
        }
    }

    fn update_client_interest(&mut self, client: u64) {
        let draining = self.drain.is_some();
        let Some(conn) = self.clients.get_mut(&client) else {
            return;
        };
        let want = Interest {
            readable: !conn.io.eof && !draining,
            writable: conn.io.buffered() > 0,
        };
        let fd = conn.io.as_raw_fd();
        if !self
            .door
            .poller
            .update(fd, client, &mut conn.interest, want)
        {
            self.close_client(client);
        }
    }

    fn close_client(&mut self, client: u64) {
        let Some(conn) = self.clients.remove(&client) else {
            return;
        };
        let _ = self.door.poller.deregister(conn.io.as_raw_fd());
        // Pending backend entries referencing this client stay in their
        // FIFOs (position is the correlation); their responses are
        // dropped at dispatch when the lookup fails.
    }

    /// Stops accepting and freezes client input; in-flight responses
    /// still flush, and clients close as they settle.
    fn start_drain(&mut self) {
        if self.drain.is_some() {
            return;
        }
        self.drain = Some(Instant::now() + self.config.drain_timeout);
        self.door.stop_accepting();
        // Parked requests can never complete during a drain (no
        // reconnects, no promotions run) — error them now so their
        // clients can settle and close instead of hitting the deadline.
        for idx in 0..self.backends.len() {
            if !self.backends[idx].parked.is_empty() {
                self.flush_parked(idx, Some("router draining".to_string()));
            }
        }
        for client in self.clients.keys().copied().collect::<Vec<_>>() {
            self.pump_client(client);
        }
    }
}
