//! In-process loopback tests for the router tier: real TCP, real
//! engines behind `freqywm-net` reactors, the router in between.
#![cfg(unix)]

use freqywm_net::{serve_listener, NetConfig};
use freqywm_service::engine::{Engine, EngineConfig, ShardGate};
use freqywm_service::metrics::M;
use freqywm_service::proto::json;
use freqywm_service::FollowerConfig;
use freqywm_shard::{run_router, run_router_with_metrics, tenant_shard, RouterConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Backend {
    engine: Arc<Engine>,
    addr: SocketAddr,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start_backend(shard_id: Option<(usize, usize)>, auth_token: Option<&str>) -> Backend {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 2,
        shard_gate: shard_id
            .map(|(i, n)| ShardGate::new(format!("{i}/{n}"), move |t| tenant_shard(t, n) == i)),
        ..EngineConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind backend");
    let addr = listener.local_addr().unwrap();
    let net = NetConfig {
        auth_token: auth_token.map(str::to_string),
        ..NetConfig::default()
    };
    let server_engine = Arc::clone(&engine);
    let handle = std::thread::spawn(move || serve_listener(&server_engine, listener, net));
    Backend {
        engine,
        addr,
        handle,
    }
}

fn start_router(
    backends: &[&Backend],
    tweak: impl FnOnce(&mut RouterConfig),
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let shards: Vec<String> = backends.iter().map(|b| b.addr.to_string()).collect();
    start_router_addrs(shards, tweak)
}

fn start_router_addrs(
    shards: Vec<String>,
    tweak: impl FnOnce(&mut RouterConfig),
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let addr = listener.local_addr().unwrap();
    let mut config = RouterConfig::new(shards);
    config.probe_interval = Duration::from_millis(200);
    config.reconnect_min = Duration::from_millis(50);
    config.reconnect_max = Duration::from_millis(200);
    tweak(&mut config);
    let handle = std::thread::spawn(move || run_router(listener, config));
    (addr, handle)
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
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
        assert!(n > 0, "connection closed while awaiting a response");
        resp.trim_end().to_string()
    }
}

fn counts_json(n: usize) -> String {
    let entries: Vec<String> = (0..n)
        .map(|i| format!("[\"tok{i:02}\",{}]", 2_000 / (i + 1) + 3 * (n - i)))
        .collect();
    format!("[{}]", entries.join(","))
}

/// Backends connect asynchronously (a request to a still-connecting
/// shard errors fast rather than queueing); poll the aggregated
/// metrics until the expected number of shards is up.
fn wait_until_shards_up(c: &mut Client, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = c.request(r#"{"op":"metrics"}"#);
        let up = json::parse(&m)
            .ok()
            .and_then(|v| v.get("metrics")?.get("shards_up")?.as_u64());
        if up == Some(want) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "router never reached {want} live shard(s): {m}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn onboard(c: &mut Client, tenant: &str) {
    let r = c.request(&format!(
        "{{\"op\":\"register\",\"tenant\":\"{tenant}\",\"secret_label\":\"lb-{tenant}\"}}"
    ));
    assert!(r.contains("\"ok\":true"), "register {tenant}: {r}");
    let r = c.request(&format!(
        "{{\"op\":\"embed\",\"tenant\":\"{tenant}\",\"z\":19,\"counts\":{}}}",
        counts_json(60)
    ));
    assert!(r.contains("chosen_pairs"), "embed {tenant}: {r}");
}

#[test]
fn routes_tenants_aggregates_metrics_and_drains() {
    let b0 = start_backend(Some((0, 2)), None);
    let b1 = start_backend(Some((1, 2)), None);
    let (router_addr, router) = start_router(&[&b0, &b1], |_| {});

    let tenants: Vec<String> = (0..20).map(|i| format!("tenant-{i:02}")).collect();
    let mut c = Client::connect(router_addr);
    wait_until_shards_up(&mut c, 2);
    for t in &tenants {
        onboard(&mut c, t);
        let r = c.request(&format!(
            "{{\"op\":\"detect\",\"tenant\":\"{t}\",\"t\":2,\"k\":1,\"counts\":{}}}",
            counts_json(60)
        ));
        assert!(r.contains("\"ok\":true"), "detect {t}: {r}");
        assert!(r.contains("\"op\":\"detect\""), "detect {t}: {r}");
    }

    // Placement is verifiable from outside: each backend's registry
    // holds exactly the tenants that hash to its shard.
    let expect0 = tenants.iter().filter(|t| tenant_shard(t, 2) == 0).count();
    let expect1 = tenants.len() - expect0;
    assert!(
        expect0 > 0 && expect1 > 0,
        "degenerate split {expect0}/{expect1}"
    );
    assert_eq!(b0.engine.metrics()[M::Tenants] as usize, expect0);
    assert_eq!(b1.engine.metrics()[M::Tenants] as usize, expect1);

    // Aggregated metrics: totals sum across shards, shard map attached.
    let m = c.request(r#"{"op":"metrics","id":"agg"}"#);
    assert!(m.contains("\"id\":\"agg\""), "{m}");
    let v = json::parse(&m).expect("metrics response parses");
    assert_eq!(v.get("scheme").unwrap().as_str(), Some("jump"));
    let agg = v.get("metrics").unwrap();
    assert_eq!(agg.get("shard_count").unwrap().as_u64(), Some(2));
    assert_eq!(agg.get("shards_up").unwrap().as_u64(), Some(2));
    let totals = agg.get("totals").unwrap();
    assert_eq!(totals.get("tenants").unwrap().as_u64(), Some(20));
    // 20 embeds + 20 detects.
    assert_eq!(totals.get("embed_jobs").unwrap().as_u64(), Some(20));
    assert_eq!(totals.get("detect_jobs").unwrap().as_u64(), Some(20));
    let shard_map = v.get("shard_map").unwrap().as_arr().unwrap();
    assert_eq!(shard_map.len(), 2);
    assert_eq!(shard_map[0].get("up").unwrap().as_bool(), Some(true));
    // Per-shard metrics carry the backend's own shard label.
    let per = agg.get("per_shard").unwrap().as_arr().unwrap();
    assert_eq!(
        per[1]
            .get("metrics")
            .unwrap()
            .get("shard")
            .unwrap()
            .as_str(),
        Some("1/2")
    );

    // Disputes: same-shard pairs route; cross-shard pairs are refused
    // with a protocol error (not a hang, not a tier failure).
    let shard0: Vec<&String> = tenants.iter().filter(|t| tenant_shard(t, 2) == 0).collect();
    let shard1: Vec<&String> = tenants.iter().filter(|t| tenant_shard(t, 2) == 1).collect();
    if shard0.len() >= 2 {
        let r = c.request(&format!(
            "{{\"op\":\"dispute\",\"a\":\"{}\",\"b\":\"{}\"}}",
            shard0[0], shard0[1]
        ));
        assert!(r.contains("\"winner\":"), "same-shard dispute: {r}");
    }
    let r = c.request(&format!(
        "{{\"op\":\"dispute\",\"a\":\"{}\",\"b\":\"{}\",\"id\":7}}",
        shard0[0], shard1[0]
    ));
    assert!(r.contains("\"ok\":false"), "{r}");
    assert!(r.contains("unroutable"), "{r}");
    assert!(r.contains("\"id\":7"), "{r}");

    // Misrouting directly to a backend is refused by its shard gate.
    let mut direct = Client::connect(b0.addr);
    let foreign = shard1[0];
    let r = direct.request(&format!(
        "{{\"op\":\"detect\",\"tenant\":\"{foreign}\",\"counts\":[[\"a\",1]]}}"
    ));
    assert!(r.contains("not owned by this shard"), "{r}");
    drop(direct);

    // Tier drain: one shutdown op through the router takes down both
    // backends and the router, acking after everyone drained.
    let ack = c.request(r#"{"op":"shutdown","id":"bye"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    assert!(ack.contains("\"id\":\"bye\""), "{ack}");
    let mut rest = String::new();
    c.reader.read_to_string(&mut rest).expect("drain to EOF");
    assert!(rest.is_empty(), "data after shutdown ack: {rest}");
    router.join().unwrap().expect("router exits cleanly");
    b0.handle.join().unwrap().expect("backend 0 drains");
    b1.handle.join().unwrap().expect("backend 1 drains");
    b0.engine.shutdown();
    b1.engine.shutdown();
}

#[test]
fn backend_death_scopes_errors_to_its_shard() {
    let b0 = start_backend(Some((0, 2)), None);
    let b1 = start_backend(Some((1, 2)), None);
    let (router_addr, router) = start_router(&[&b0, &b1], |_| {});

    let tenants: Vec<String> = (0..8).map(|i| format!("dt-{i}")).collect();
    let mut c = Client::connect(router_addr);
    wait_until_shards_up(&mut c, 2);
    for t in &tenants {
        onboard(&mut c, t);
    }

    // Kill shard 1 out from under the router (direct shutdown).
    let mut direct = Client::connect(b1.addr);
    let ack = direct.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    drop(direct);
    b1.handle.join().unwrap().expect("backend 1 drains");

    // Wait for the router to observe the death (EOF on the backend
    // connection); a shard-1 request then fails fast.
    let dead_tenant = tenants
        .iter()
        .find(|t| tenant_shard(t, 2) == 1)
        .expect("some tenant on shard 1");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = c.request(&format!(
            "{{\"op\":\"detect\",\"tenant\":\"{dead_tenant}\",\"t\":2,\"k\":1,\"counts\":{}}}",
            counts_json(60)
        ));
        if r.contains("\"ok\":false") {
            assert!(
                r.contains("shard 1") || r.contains("unavailable") || r.contains("connection lost"),
                "unexpected error shape: {r}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router never noticed the dead backend"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Shard-0 tenants are untouched.
    for t in tenants.iter().filter(|t| tenant_shard(t, 2) == 0) {
        let r = c.request(&format!(
            "{{\"op\":\"detect\",\"tenant\":\"{t}\",\"t\":2,\"k\":1,\"counts\":{}}}",
            counts_json(60)
        ));
        assert!(r.contains("\"ok\":true"), "shard 0 tenant {t} failed: {r}");
    }

    // Aggregated metrics degrade, they don't fail: shard 1 reports
    // down, totals cover the survivors.
    let m = c.request(r#"{"op":"metrics"}"#);
    let v = json::parse(&m).expect("metrics parses");
    let agg = v.get("metrics").unwrap();
    assert_eq!(agg.get("shards_up").unwrap().as_u64(), Some(1));
    let expect0 = tenants.iter().filter(|t| tenant_shard(t, 2) == 0).count();
    assert_eq!(
        agg.get("totals").unwrap().get("tenants").unwrap().as_u64(),
        Some(expect0 as u64)
    );

    let ack = c.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    router.join().unwrap().expect("router exits cleanly");
    b0.handle.join().unwrap().expect("backend 0 drains");
    b0.engine.shutdown();
    b1.engine.shutdown();
}

#[test]
fn reconnects_with_backoff_when_a_backend_comes_up_late() {
    // Reserve a port, then close the listener: the router's first
    // connect attempts fail and back off.
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let addr = placeholder.local_addr().unwrap();
    drop(placeholder);

    let (router_addr, router) = start_router_addrs(vec![addr.to_string()], |_| {});
    std::thread::sleep(Duration::from_millis(150));

    // Now the backend appears on the reserved address.
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    }));
    let listener = TcpListener::bind(addr).expect("rebind reserved port");
    let server_engine = Arc::clone(&engine);
    let handle =
        std::thread::spawn(move || serve_listener(&server_engine, listener, NetConfig::default()));

    // The router reconnects within its backoff schedule and traffic
    // flows.
    let mut c = Client::connect(router_addr);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = c.request(r#"{"op":"register","tenant":"late","secret_label":"late"}"#);
        if r.contains("\"ok\":true") {
            break;
        }
        assert!(r.contains("unavailable"), "unexpected error: {r}");
        assert!(Instant::now() < deadline, "router never reconnected");
        std::thread::sleep(Duration::from_millis(50));
    }

    let ack = c.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    router.join().unwrap().expect("router exits cleanly");
    handle.join().unwrap().expect("backend drains");
    engine.shutdown();
}

/// A standby engine: starts as a read-only follower tailing
/// `primary_addr`, served over its own reactor like any backend.
fn start_standby(primary_addr: SocketAddr) -> Backend {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 2,
        follow: Some(primary_addr.to_string()),
        ..EngineConfig::default()
    }));
    let mut follower = FollowerConfig::new(primary_addr.to_string());
    follower.poll_interval = Duration::from_millis(20);
    follower.reconnect_min = Duration::from_millis(20);
    follower.reconnect_max = Duration::from_millis(100);
    freqywm_service::spawn_follower(Arc::clone(&engine), follower);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind standby");
    let addr = listener.local_addr().unwrap();
    let server_engine = Arc::clone(&engine);
    let handle =
        std::thread::spawn(move || serve_listener(&server_engine, listener, NetConfig::default()));
    Backend {
        engine,
        addr,
        handle,
    }
}

#[test]
fn reconnect_backoff_grows_across_accept_then_close_cycles() {
    // A crash-looping backend: the TCP accept succeeds, then the
    // process "dies" before answering anything. The router used to
    // reset its backoff on plain connect success, hammering such a
    // backend at reconnect_min forever; only a successful probe
    // response may earn the reset.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = listener.local_addr().unwrap();
    let accepts: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&accepts);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            log.lock().unwrap().push(Instant::now());
            drop(stream);
        }
    });

    let (router_addr, router) = start_router_addrs(vec![addr.to_string()], |c| {
        c.reconnect_min = Duration::from_millis(50);
        c.reconnect_max = Duration::from_secs(2);
    });

    let deadline = Instant::now() + Duration::from_secs(20);
    while accepts.lock().unwrap().len() < 6 {
        assert!(Instant::now() < deadline, "router stopped redialing");
        std::thread::sleep(Duration::from_millis(20));
    }
    let times = accepts.lock().unwrap().clone();
    let first_gap = times[1] - times[0];
    let later_gap = times[5] - times[4];
    // The schedule doubles 50→100→200→400→800ms; with the reset bug
    // every gap sat at ~50ms.
    assert!(
        later_gap >= Duration::from_millis(400) && later_gap >= first_gap * 3,
        "backoff did not grow: first gap {first_gap:?}, later gap {later_gap:?}"
    );

    let mut c = Client::connect(router_addr);
    let ack = c.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    router.join().unwrap().expect("router exits cleanly");
}

#[test]
fn wrong_shard_auth_token_keeps_shard_unhealthy() {
    // The backend refuses every probe (wrong shard token), but keeps
    // the connection open. The router used to flip healthy=true on
    // ANY backend line — including the auth-error line itself — so a
    // misconfigured tier oscillated healthy. Health must be earned by
    // a *successful* probe response.
    let b0 = start_backend(None, Some("backend-secret"));
    let (router_addr, router) = start_router(&[&b0], |c| {
        c.shard_auth_token = Some("wrong-token".into());
    });

    let mut c = Client::connect(router_addr);
    let shard0 = |m: &str| -> (Option<bool>, Option<bool>) {
        let v = json::parse(m).expect("metrics parses");
        let s = &v.get("shard_map").unwrap().as_arr().unwrap()[0];
        (
            s.get("up").unwrap().as_bool(),
            s.get("healthy").unwrap().as_bool(),
        )
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = c.request(r#"{"op":"metrics"}"#);
        if shard0(&m).0 == Some(true) {
            break;
        }
        assert!(Instant::now() < deadline, "backend never connected: {m}");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Several probe intervals (and several refused probe lines) later
    // the link is still up and the shard is still NOT healthy.
    std::thread::sleep(Duration::from_millis(700));
    let m = c.request(r#"{"op":"metrics"}"#);
    assert_eq!(shard0(&m), (Some(true), Some(false)), "{m}");

    // Drain: the backend refuses the fan-out too (honest nack), the
    // router still drains itself.
    let r = c.request(r#"{"op":"shutdown"}"#);
    assert!(r.contains("not acknowledged by shard(s) 0"), "{r}");
    let mut rest = String::new();
    c.reader.read_to_string(&mut rest).expect("router closes");
    router.join().unwrap().expect("router exits cleanly");
    let mut direct = Client::connect(b0.addr);
    let r = direct.request(r#"{"op":"hello","token":"backend-secret"}"#);
    assert!(r.contains("\"authenticated\":true"), "{r}");
    direct.request(r#"{"op":"shutdown"}"#);
    b0.handle.join().unwrap().expect("backend drains");
    b0.engine.shutdown();
}

#[test]
fn inflight_requests_on_dead_backend_error_and_are_counted() {
    // A backend that answers probes, then dies with a client request
    // in flight: the request's slot must resolve to an error (never
    // hang) and the loss must surface as the router's inflight_failed
    // metric.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                if line.contains("\"op\":\"register\"") {
                    break; // die with the request unanswered
                }
                let ok = writer
                    .write_all(b"{\"ok\":true,\"op\":\"metrics\",\"metrics\":{\"completed\":0}}\n");
                if ok.is_err() {
                    break;
                }
            }
        }
    });

    let (router_addr, router) = start_router_addrs(vec![addr.to_string()], |_| {});
    let mut c = Client::connect(router_addr);
    wait_until_shards_up(&mut c, 1);

    let r = c.request(r#"{"op":"register","tenant":"doomed","secret_label":"s"}"#);
    assert!(r.contains("\"ok\":false"), "in-flight loss must error: {r}");
    assert!(
        r.contains("connection lost") || r.contains("unavailable") || r.contains("shard 0"),
        "unexpected error shape: {r}"
    );

    // fail_backend counted the lost slot before the error was even
    // delivered, so the very next metrics read sees it.
    let m = c.request(r#"{"op":"metrics"}"#);
    let v = json::parse(&m).expect("metrics parses");
    assert_eq!(
        v.get("router")
            .unwrap()
            .get("inflight_failed")
            .unwrap()
            .as_u64(),
        Some(1),
        "{m}"
    );

    let ack = c.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    router.join().unwrap().expect("router exits cleanly");
}

#[test]
fn failover_promotes_standby_and_redirects_traffic() {
    let primary = start_backend(None, None);
    let standby = start_standby(primary.addr);
    let standby_addr = standby.addr.to_string();
    let (router_addr, router) = start_router_addrs(vec![primary.addr.to_string()], |c| {
        c.standbys = vec![Some(standby_addr)];
        c.failover_timeout = Duration::from_secs(5);
    });

    let mut c = Client::connect(router_addr);
    wait_until_shards_up(&mut c, 1);
    let tenants: Vec<String> = (0..6).map(|i| format!("fo-{i}")).collect();
    for t in &tenants {
        onboard(&mut c, t);
    }

    // The standby catches up (the in-memory primary has no durable
    // log, so replicate ships a full authenticated snapshot).
    let want = primary.engine.replica_seq();
    assert!(want > 0, "primary logged no events");
    let deadline = Instant::now() + Duration::from_secs(10);
    while standby.engine.replica_seq() < want {
        assert!(Instant::now() < deadline, "standby never caught up");
        std::thread::sleep(Duration::from_millis(20));
    }

    // While following: mutations refused, reads served.
    let mut direct = Client::connect(standby.addr);
    let r = direct.request(r#"{"op":"register","tenant":"nope","secret_label":"x"}"#);
    assert!(r.contains("read-only follower"), "{r}");
    let r = direct.request(&format!(
        "{{\"op\":\"detect\",\"tenant\":\"{}\",\"t\":2,\"k\":1,\"counts\":{}}}",
        tenants[0],
        counts_json(60)
    ));
    assert!(r.contains("\"ok\":true"), "follower must serve reads: {r}");
    drop(direct);

    // Kill the primary out from under the router.
    let mut direct = Client::connect(primary.addr);
    let ack = direct.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    drop(direct);
    primary.handle.join().unwrap().expect("primary drains");

    // The router notices, promotes the standby, and this shard's
    // traffic converges back to success on the new address.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = c.request(&format!(
            "{{\"op\":\"detect\",\"tenant\":\"{}\",\"t\":2,\"k\":1,\"counts\":{}}}",
            tenants[0],
            counts_json(60)
        ));
        if r.contains("\"ok\":true") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "failover never completed; last error: {r}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(!standby.engine.is_follower(), "standby must be promoted");

    // Mutations land on the promoted standby through the router.
    onboard(&mut c, "post-failover");
    assert_eq!(
        standby.engine.metrics()[M::Tenants],
        tenants.len() as u64 + 1
    );

    // The shard map records the swap: the slot now points at the
    // consumed standby and is flagged failed_over.
    let m = c.request(r#"{"op":"metrics"}"#);
    let v = json::parse(&m).expect("metrics parses");
    let shard = &v.get("shard_map").unwrap().as_arr().unwrap()[0];
    assert_eq!(
        shard.get("addr").unwrap().as_str(),
        Some(standby.addr.to_string().as_str()),
        "{m}"
    );
    assert_eq!(shard.get("failed_over").unwrap().as_bool(), Some(true));
    assert_eq!(shard.get("standby").unwrap().as_str(), None, "consumed");

    let ack = c.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    router.join().unwrap().expect("router exits cleanly");
    standby.handle.join().unwrap().expect("standby drains");
    standby.engine.shutdown();
    primary.engine.shutdown();
}

#[test]
fn shutdown_ack_is_honest_when_backends_refuse() {
    // Backend requires auth; the router was (mis)configured without a
    // shard token, so its shutdown fan-out is refused — the client
    // must NOT be told the tier went down.
    let b0 = start_backend(None, Some("backend-secret"));
    let (router_addr, router) = start_router(&[&b0], |_| {});

    let mut c = Client::connect(router_addr);
    wait_until_shards_up(&mut c, 1);
    let r = c.request(r#"{"op":"shutdown","id":9}"#);
    assert!(r.contains("\"ok\":false"), "{r}");
    assert!(r.contains("not acknowledged by shard(s) 0"), "{r}");
    assert!(r.contains("\"id\":9"), "{r}");

    // The router still drains itself…
    let mut rest = String::new();
    c.reader.read_to_string(&mut rest).expect("router closes");
    router.join().unwrap().expect("router exits cleanly");

    // …while the backend keeps serving, untouched.
    let mut direct = Client::connect(b0.addr);
    let r = direct.request(r#"{"op":"hello","token":"backend-secret"}"#);
    assert!(r.contains("\"authenticated\":true"), "{r}");
    let ack = direct.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    b0.handle.join().unwrap().expect("backend drains");
    b0.engine.shutdown();
}

#[test]
fn auth_gates_clients_and_authenticates_to_backends() {
    let b0 = start_backend(None, Some("backend-secret"));
    let (router_addr, router) = start_router(&[&b0], |c| {
        c.auth_token = Some("front-secret".into());
        c.shard_auth_token = Some("backend-secret".into());
    });

    let mut c = Client::connect(router_addr);
    // Locked until hello.
    let r = c.request(r#"{"op":"metrics","id":1}"#);
    assert!(r.contains("authentication required"), "{r}");
    let r = c.request(r#"{"op":"hello","token":"wrong","id":2}"#);
    assert!(r.contains("bad auth token"), "{r}");
    // Unlock, then full traffic — through the backend's own auth gate,
    // which the router satisfied with its shard token.
    let r = c.request(r#"{"op":"hello","token":"front-secret","id":3}"#);
    assert!(r.contains("\"authenticated\":true"), "{r}");
    wait_until_shards_up(&mut c, 1);
    // A separate, still-locked connection: a per-request auth field
    // admits exactly that request.
    let mut locked = Client::connect(router_addr);
    let r = locked
        .request(r#"{"op":"register","tenant":"a1","secret_label":"s","auth":"front-secret"}"#);
    assert!(r.contains("\"ok\":true"), "{r}");
    let r = locked.request(r#"{"op":"metrics"}"#);
    assert!(r.contains("authentication required"), "{r}");
    drop(locked);
    let r = c.request(&format!(
        "{{\"op\":\"embed\",\"tenant\":\"a1\",\"z\":19,\"counts\":{}}}",
        counts_json(60)
    ));
    assert!(r.contains("chosen_pairs"), "{r}");

    let ack = c.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    router.join().unwrap().expect("router exits cleanly");
    b0.handle.join().unwrap().expect("backend drains");
    b0.engine.shutdown();
}

/// A ~500 KB line of `[` fits under the frame cap, and the recursive
/// JSON parser used to overflow the stack on it — before any auth
/// check, in the router and in every shard. Both now answer `ok:false`
/// and keep serving the same connection.
#[test]
fn deeply_nested_json_is_refused_and_both_tiers_keep_serving() {
    let b0 = start_backend(None, None);
    let (router_addr, router) = start_router(&[&b0], |_| {});
    let deep = "[".repeat(500_000);
    for addr in [router_addr, b0.addr] {
        let mut c = Client::connect(addr);
        let r = c.request(&deep);
        assert!(r.starts_with("{\"ok\":false"), "{r}");
        assert!(r.contains("bad json: nesting deeper than 64"), "{r}");
        let m = c.request(r#"{"op":"metrics"}"#);
        assert!(m.contains("\"ok\":true"), "{m}");
    }
    let mut c = Client::connect(router_addr);
    wait_until_shards_up(&mut c, 1);
    let ack = c.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    router.join().unwrap().expect("router exits cleanly");
    b0.handle.join().unwrap().expect("backend drains");
    b0.engine.shutdown();
}

#[path = "../../service/tests/wire/mod.rs"]
mod wire;

/// One blocking `GET /metrics`; returns the response body.
fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read scrape");
    let (_, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    body.to_string()
}

/// Pins the router's wire format: after a fixed script, the `metrics`
/// answer and the `GET /metrics` exposition must match fixtures
/// captured from a known-good build. Addresses, round-trip latencies,
/// probe-driven health and connection byte counts vary from run to run
/// and are checked for presence only.
#[test]
fn metrics_wire_format_matches_fixtures() {
    let b0 = start_backend(Some((0, 2)), None);
    let b1 = start_backend(Some((1, 2)), None);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let router_addr = listener.local_addr().unwrap();
    let metrics = TcpListener::bind("127.0.0.1:0").expect("bind metrics");
    let metrics_addr = metrics.local_addr().unwrap();
    let mut config = RouterConfig::new(vec![b0.addr.to_string(), b1.addr.to_string()]);
    config.probe_interval = Duration::from_millis(200);
    let router =
        std::thread::spawn(move || run_router_with_metrics(listener, Some(metrics), config));

    let mut c = Client::connect(router_addr);
    wait_until_shards_up(&mut c, 2);
    for t in ["wire-0", "wire-1", "wire-2", "wire-3", "wire-4", "wire-5"] {
        onboard(&mut c, t);
        let r = c.request(&format!(
            "{{\"op\":\"detect\",\"tenant\":\"{t}\",\"t\":2,\"k\":1,\"counts\":{}}}",
            counts_json(60)
        ));
        assert!(r.contains("\"ok\":true"), "detect {t}: {r}");
    }
    let dir = env!("CARGO_MANIFEST_DIR");
    let answer = c.request(r#"{"op":"metrics"}"#);
    let exposition = scrape(metrics_addr);
    wire::assert_json_matches(
        "router metrics op",
        &wire::fixture(dir, "router_metrics.json"),
        &answer,
        &[
            "shard_map[*].addr",
            "shard_map[*].healthy",
            "shard_map[*].latency.*",
            "metrics.per_shard[*].addr",
            "metrics.per_shard[*].metrics.uptime_s",
            "metrics.per_shard[*].metrics.*.mean_us",
            "metrics.per_shard[*].metrics.*.p50_us",
            "metrics.per_shard[*].metrics.*.p95_us",
            "metrics.per_shard[*].metrics.*.p99_us",
            "metrics.per_shard[*].metrics.*.buckets_us_pow2",
            "metrics.per_shard[*].metrics.per_tenant.*.latency_sum_us",
            "metrics.per_shard[*].metrics.net.*",
            "metrics.totals.net.*",
        ],
    );
    wire::assert_prom_matches(
        "router exposition",
        &wire::fixture(dir, "router.prom"),
        &exposition,
        &["freqywm_router_shard_info", "freqywm_router_shard_healthy"],
    );

    let ack = c.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    router.join().unwrap().expect("router exits cleanly");
    b0.handle.join().unwrap().expect("backend 0 drains");
    b1.handle.join().unwrap().expect("backend 1 drains");
    b0.engine.shutdown();
    b1.engine.shutdown();
}
