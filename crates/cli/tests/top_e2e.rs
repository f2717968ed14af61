//! Multi-process observability end-to-end: the real `freqywm router`
//! binary in front of two primary/standby pairs, all with
//! `--metrics-listen` HTTP scrape ports and fast retention sampling.
//!
//! Acceptance (the tentpole's contract):
//!  * `GET /metrics` on a shard AND on the router returns an
//!    exposition the in-repo parser validates (`freqywm metrics
//!    --prom --check` exits 0), with the router's per-shard role,
//!    log_seq, replication lag and RTT families present;
//!  * the `history` op fans out through the router into per-shard
//!    series with derived rates;
//!  * `freqywm top --once` renders one row per shard with role, qps,
//!    p99 and replication lag, and a second frame under live traffic
//!    shows the history-derived counters moving.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 12;
const THREADS: usize = 4;

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp).expect("read response");
        assert!(n > 0, "server closed mid-request");
        resp.trim_end().to_string()
    }
}

fn counts_json(n: usize) -> String {
    let entries: Vec<String> = (0..n)
        .map(|i| format!("[\"tok{i:02}\",{}]", 2_000 / (i + 1) + 3 * (n - i)))
        .collect();
    format!("[{}]", entries.join(","))
}

/// Reads child stdout until both the `listening on <addr>` and
/// `metrics on <addr>` announcements arrive (the router interleaves
/// its shard-map dump between them), then drains in the background.
fn read_announcements(child: &mut Child, want_metrics: bool) -> (SocketAddr, Option<SocketAddr>) {
    let stdout = child.stdout.take().expect("captured stdout");
    let mut reader = BufReader::new(stdout);
    let (mut addr, mut metrics) = (None, None);
    for _ in 0..30 {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read announcement") == 0 {
            break;
        }
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            addr = Some(rest.parse().expect("parse bound address"));
        }
        if let Some(rest) = line.trim().strip_prefix("metrics on ") {
            metrics = Some(rest.parse().expect("parse metrics address"));
        }
        if addr.is_some() && (!want_metrics || metrics.is_some()) {
            break;
        }
    }
    let addr = addr.expect("no `listening on` announcement");
    assert!(
        !want_metrics || metrics.is_some(),
        "no `metrics on` announcement"
    );
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    (addr, metrics)
}

fn spawn_freqywm(args: &[String], want_metrics: bool) -> (Child, SocketAddr, Option<SocketAddr>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_freqywm"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn freqywm");
    let (addr, metrics) = read_announcements(&mut child, want_metrics);
    (child, addr, metrics)
}

/// A shard engine with fast retention sampling and a scrape port.
fn spawn_serve(
    shard: usize,
    follow: Option<SocketAddr>,
) -> (Child, SocketAddr, Option<SocketAddr>) {
    let mut args: Vec<String> = [
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--metrics-listen",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--retain-snapshots",
        "64",
        "--retain-interval-ms",
        "100",
        "--shard-id",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.push(format!("{shard}/2"));
    if let Some(primary) = follow {
        args.push("--follow".into());
        args.push(primary.to_string());
    }
    spawn_freqywm(&args, true)
}

fn spawn_router(pairs: &[(SocketAddr, SocketAddr)]) -> (Child, SocketAddr, SocketAddr) {
    let mut args: Vec<String> = [
        "router",
        "--listen",
        "127.0.0.1:0",
        "--metrics-listen",
        "127.0.0.1:0",
        "--probe-interval",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for (primary, standby) in pairs {
        args.push("--shard".into());
        args.push(format!("{primary},{standby}"));
    }
    let (child, addr, metrics) = spawn_freqywm(&args, true);
    (child, addr, metrics.expect("router metrics addr"))
}

fn run_cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_freqywm"))
        .args(args)
        .output()
        .expect("run freqywm");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn tenant_name(i: usize) -> String {
    format!("obs-tenant-{i:03}")
}

fn wait_until_shards_up(c: &mut Client, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let m = c.request(r#"{"op":"metrics"}"#);
        if m.contains(&format!("\"shards_up\":{want}")) {
            return;
        }
        assert!(Instant::now() < deadline, "shards never came up: {m}");
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// Splits the `freqywm top` row for `addr` into its whitespace
/// columns: shard, role, health, qps, refus/s, p50, p99, wait%,
/// log_seq, lag, addr.
fn top_row(frame: &str, addr: SocketAddr) -> Vec<String> {
    frame
        .lines()
        .find(|l| l.contains(&addr.to_string()) && !l.starts_with("tier:"))
        .unwrap_or_else(|| panic!("no row for {addr} in frame:\n{frame}"))
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

#[test]
fn scrape_history_and_top_against_a_replicated_tier() {
    let (mut primary0, p0, p0_metrics) = spawn_serve(0, None);
    let (mut primary1, p1, _p1_metrics) = spawn_serve(1, None);
    let (mut standby0, s0, _s0m) = spawn_serve(0, Some(p0));
    let (mut standby1, s1, _s1m) = spawn_serve(1, Some(p1));
    let (mut router, router_addr, router_metrics) = spawn_router(&[(p0, s0), (p1, s1)]);
    let p0_metrics = p0_metrics.expect("shard 0 metrics addr");

    let mut admin = Client::connect(router_addr);
    wait_until_shards_up(&mut admin, 2);

    // Onboard tenants through the router (register + embed touches
    // both shards and advances each primary's log_seq).
    for i in 0..TENANTS {
        let t = tenant_name(i);
        let r = admin.request(&format!(
            "{{\"op\":\"register\",\"tenant\":\"{t}\",\"secret_label\":\"obs-{t}\"}}"
        ));
        assert!(r.contains("\"ok\":true"), "register {t}: {r}");
        let r = admin.request(&format!(
            "{{\"op\":\"embed\",\"tenant\":\"{t}\",\"z\":19,\"counts\":{}}}",
            counts_json(40)
        ));
        assert!(r.contains("chosen_pairs"), "embed {t}: {r}");
    }

    // Live detect traffic while the dashboard frames are captured.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = Client::connect(router_addr);
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    let t = tenant_name(i % TENANTS);
                    i += 5;
                    let r = c.request(&format!(
                        "{{\"op\":\"detect\",\"tenant\":\"{t}\",\"t\":2,\"k\":1,\"counts\":{}}}",
                        counts_json(40)
                    ));
                    assert!(r.contains("\"ok\":true"), "detect {t}: {r}");
                }
            })
        })
        .collect();

    // Let the standby prober (1s interval) and the 100ms retention
    // samplers build up state before the first frame.
    std::thread::sleep(Duration::from_millis(2_500));

    let artifact_dir = std::env::var("FREQYWM_ARTIFACT_DIR").unwrap_or_else(|_| {
        let mut p = std::env::temp_dir();
        p.push(format!("freqywm-top-e2e-{}", std::process::id()));
        p.to_string_lossy().into_owned()
    });
    std::fs::create_dir_all(&artifact_dir).expect("artifact dir");

    // Scrape a shard's exposition and validate it with the parser.
    let (code, shard_prom) = run_cli(&[
        "metrics",
        "--connect",
        &p0_metrics.to_string(),
        "--prom",
        "--check",
    ]);
    assert_eq!(code, 0, "shard scrape failed: {shard_prom}");
    assert!(shard_prom.contains("# exposition OK"), "{shard_prom}");
    assert!(
        shard_prom.contains("freqywm_jobs_completed_total"),
        "{shard_prom}"
    );
    assert!(
        shard_prom.contains("freqywm_request_duration_seconds_bucket"),
        "{shard_prom}"
    );

    // Scrape the router's exposition: per-shard roles, log sequences,
    // replication lag and RTT histograms, parser-validated.
    let (code, router_prom) = run_cli(&[
        "metrics",
        "--connect",
        &router_metrics.to_string(),
        "--prom",
        "--check",
    ]);
    assert_eq!(code, 0, "router scrape failed: {router_prom}");
    assert!(router_prom.contains("# exposition OK"), "{router_prom}");
    for family in [
        "freqywm_router_shard_info",
        "freqywm_router_shard_log_seq",
        "freqywm_router_shard_standby_log_seq",
        "freqywm_router_shard_replication_lag",
        "freqywm_router_shard_rtt_seconds_bucket",
    ] {
        assert!(
            router_prom.contains(family),
            "{family} missing:\n{router_prom}"
        );
    }
    assert!(
        router_prom.contains("role=\"primary\""),
        "probed roles missing:\n{router_prom}"
    );
    std::fs::write(format!("{artifact_dir}/scrape-shard0.prom"), &shard_prom).unwrap();
    std::fs::write(format!("{artifact_dir}/scrape-router.prom"), &router_prom).unwrap();

    // The JSON `metrics` op (one-shot client) reports per-pair
    // replication lag in the shard map.
    let (code, metrics_json) = run_cli(&["metrics", "--connect", &router_addr.to_string()]);
    assert_eq!(code, 0, "{metrics_json}");
    assert!(metrics_json.contains("\"repl_lag\":"), "{metrics_json}");
    assert!(
        !metrics_json.contains("\"repl_lag\":null"),
        "lag unknown after probe warmup: {metrics_json}"
    );

    // The history op fans out into per-shard series with window rates.
    let hist = admin.request(r#"{"op":"history","last":4}"#);
    assert!(hist.contains("\"router\":true"), "{hist}");
    assert!(hist.contains("\"shard_index\":0"), "{hist}");
    assert!(hist.contains("\"shard_index\":1"), "{hist}");
    assert!(hist.contains("\"completed_per_s\":"), "{hist}");

    // Two dashboard frames under live traffic.
    let (code, frame1) = run_cli(&["top", "--connect", &router_addr.to_string(), "--once"]);
    assert_eq!(code, 0, "top frame 1 failed: {frame1}");
    std::thread::sleep(Duration::from_millis(800));
    let (code, frame2) = run_cli(&["top", "--connect", &router_addr.to_string(), "--once"]);
    assert_eq!(code, 0, "top frame 2 failed: {frame2}");
    std::fs::write(format!("{artifact_dir}/top-frame-1.txt"), &frame1).unwrap();
    std::fs::write(format!("{artifact_dir}/top-frame-2.txt"), &frame2).unwrap();

    assert!(frame1.contains("tier: 2 shards (2 up)"), "{frame1}");
    for (frame, label) in [(&frame1, "frame 1"), (&frame2, "frame 2")] {
        for addr in [p0, p1] {
            let row = top_row(frame, addr);
            assert_eq!(row[1], "primary", "{label} role: {row:?}");
            assert_eq!(row[2], "ok", "{label} health: {row:?}");
            let qps: f64 = row[3]
                .parse()
                .unwrap_or_else(|_| panic!("{label} qps not numeric: {row:?}"));
            assert!(qps > 0.0, "{label} idle under live traffic: {row:?}");
            row[4]
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("{label} refus/s not numeric: {row:?}"));
            row[6]
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{label} p99 not numeric: {row:?}"));
            row[8]
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{label} log_seq not numeric: {row:?}"));
            row[9]
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{label} repl lag not numeric: {row:?}"));
        }
    }
    assert!(frame1.contains("top tenants by ops:"), "{frame1}");
    assert!(frame1.contains(&tenant_name(0)), "{frame1}");
    // Live traffic between the frames: the history-derived view moved
    // (completed totals are strictly increasing counters).
    let completed = |frame: &str| -> u64 {
        let tier = frame
            .lines()
            .find(|l| l.starts_with("tier:"))
            .expect("tier line");
        let at = tier.find("completed ").expect("completed field") + "completed ".len();
        tier[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("completed count")
    };
    assert!(
        completed(&frame2) > completed(&frame1),
        "tier counters did not move between frames:\n{frame1}\n{frame2}"
    );

    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("traffic worker panicked");
    }

    // Tier drain: router + primaries ack and exit; the standbys are
    // not routed to (no failover happened) and get direct shutdowns.
    let ack = admin.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"ok\":true"), "{ack}");
    let mut rest = String::new();
    admin
        .reader
        .read_to_string(&mut rest)
        .expect("drain to EOF");
    assert!(router.wait().expect("router exit").success());
    assert!(primary0.wait().expect("primary 0 exit").success());
    assert!(primary1.wait().expect("primary 1 exit").success());
    for (child, addr) in [(&mut standby0, s0), (&mut standby1, s1)] {
        let mut direct = Client::connect(addr);
        let ack = direct.request(r#"{"op":"shutdown"}"#);
        assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
        drop(direct);
        assert!(child.wait().expect("standby exit").success());
    }
}
