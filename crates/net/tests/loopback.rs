//! Loopback integration tests for the reactor front-end, including the
//! acceptance scenario: ≥ 1000 concurrent idle connections on a bounded
//! thread count while interleaved embed/detect traffic completes and a
//! slow reader is evicted without stalling anyone else.
#![cfg(unix)]

use freqywm_core::params::GenerationParams;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_net::{serve_listener, Backend, NetConfig};
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::job::{JobData, JobPayload, JobSpec, JobState};
use freqywm_service::metrics::M;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(
    engine_config: EngineConfig,
    net_config: NetConfig,
) -> (
    Arc<Engine>,
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let engine = Arc::new(Engine::start(engine_config));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let server_engine = Arc::clone(&engine);
    let handle = std::thread::spawn(move || serve_listener(&server_engine, listener, net_config));
    (engine, addr, handle)
}

/// A blocking request/response client over one connection.
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

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "connection closed while awaiting a response");
        line.trim_end().to_string()
    }

    fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// Reads until EOF; panics on any other error.
    fn expect_eof(&mut self) {
        let mut rest = String::new();
        self.reader.read_to_string(&mut rest).expect("drain to EOF");
        assert!(rest.is_empty(), "unexpected trailing data: {rest}");
    }
}

fn counts_json(n: usize) -> String {
    let entries: Vec<String> = (0..n)
        .map(|i| format!("[\"tk{i:03}\",{}]", 4_000 / (i + 1) + 7 * (n - i)))
        .collect();
    format!("[{}]", entries.join(","))
}

fn register(client: &mut Client, tenant: &str) {
    let r = client.request(&format!(
        "{{\"op\":\"register\",\"tenant\":\"{tenant}\",\"secret_label\":\"net-{tenant}\"}}"
    ));
    assert!(r.contains("\"ok\":true"), "{r}");
}

fn embed(client: &mut Client, tenant: &str) {
    let r = client.request(&format!(
        "{{\"op\":\"embed\",\"tenant\":\"{tenant}\",\"z\":101,\"counts\":{}}}",
        counts_json(80)
    ));
    assert!(r.contains("chosen_pairs"), "{r}");
}

fn detect(client: &mut Client, tenant: &str) -> String {
    let r = client.request(&format!(
        "{{\"op\":\"detect\",\"tenant\":\"{tenant}\",\"t\":2,\"k\":1,\"counts\":{}}}",
        counts_json(80)
    ));
    assert!(r.contains("\"op\":\"detect\""), "{r}");
    r
}

fn lifecycle(backend: Backend) {
    let (engine, addr, server) = start_server(
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        NetConfig {
            backend,
            ..NetConfig::default()
        },
    );
    let mut a = Client::connect(addr);
    register(&mut a, "alice");
    embed(&mut a, "alice");
    assert!(detect(&mut a, "alice").contains("\"accepted\":"));

    // Second tenant over its own connection, then a dispute.
    let mut b = Client::connect(addr);
    register(&mut b, "bob");
    embed(&mut b, "bob");
    let dispute = b.request(r#"{"op":"dispute","a":"alice","b":"bob"}"#);
    assert!(dispute.contains("\"winner\":"), "{dispute}");

    // Connection metrics flow through the metrics op.
    let metrics = a.request(r#"{"op":"metrics"}"#);
    assert!(
        metrics.contains("\"net\":{\"accepted\":2,\"active\":2"),
        "{metrics}"
    );
    assert!(metrics.contains("\"bytes_in\":"), "{metrics}");

    let ack = a.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    a.expect_eof();
    b.expect_eof();
    server.join().unwrap().unwrap();
    assert_eq!(engine.metrics()[M::NetActive], 0);
    engine.shutdown();
}

#[test]
fn lifecycle_over_tcp_default_backend() {
    lifecycle(Backend::Auto);
}

#[test]
fn lifecycle_over_tcp_poll_fallback() {
    lifecycle(Backend::Poll);
}

#[test]
fn pipelined_requests_preserve_order_and_barriers() {
    let (engine, addr, server) = start_server(
        EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        },
        NetConfig::default(),
    );
    let mut c = Client::connect(addr);
    // One burst: register, embed, four detects, metrics — no reads in
    // between. The embed is a barrier, so every detect must see the
    // watermark; responses must come back in request order.
    let mut burst = String::new();
    burst.push_str("{\"op\":\"register\",\"tenant\":\"p\",\"secret_label\":\"pipe\",\"id\":0}\n");
    burst.push_str(&format!(
        "{{\"op\":\"embed\",\"tenant\":\"p\",\"z\":101,\"id\":1,\"counts\":{}}}\n",
        counts_json(80)
    ));
    for i in 2..6 {
        burst.push_str(&format!(
            "{{\"op\":\"detect\",\"tenant\":\"p\",\"t\":2,\"k\":1,\"id\":{i},\"counts\":{}}}\n",
            counts_json(80)
        ));
    }
    burst.push_str("{\"op\":\"metrics\",\"id\":6}\n");
    c.writer.write_all(burst.as_bytes()).unwrap();
    for i in 0..7 {
        let resp = c.recv();
        assert!(
            resp.contains(&format!("\"id\":{i}")),
            "response {i} out of order: {resp}"
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        if (2..6).contains(&i) {
            assert!(resp.contains("\"op\":\"detect\""), "{resp}");
        }
    }
    c.request(r#"{"op":"shutdown"}"#);
    server.join().unwrap().unwrap();
    engine.shutdown();
}

#[test]
fn malformed_and_oversized_frames_leave_connection_usable() {
    let (engine, addr, server) = start_server(
        EngineConfig::default(),
        NetConfig {
            max_frame: 256,
            ..NetConfig::default()
        },
    );
    let mut c = Client::connect(addr);
    // Malformed JSON: an error response, not a disconnect.
    let r = c.request("this is not json");
    assert!(r.contains("\"ok\":false") && r.contains("bad json"), "{r}");

    // Oversized frame (cap 256): rejected with an error response...
    let big = format!("{{\"op\":\"metrics\",\"pad\":\"{}\"}}", "x".repeat(1024));
    let r = c.request(&big);
    assert!(r.contains("frame exceeds 256 bytes"), "{r}");

    // ...and the connection still serves the next request.
    let r = c.request(r#"{"op":"metrics"}"#);
    assert!(r.contains("\"ok\":true"), "{r}");

    c.request(r#"{"op":"shutdown"}"#);
    server.join().unwrap().unwrap();
    engine.shutdown();
}

#[test]
fn requests_pipelined_behind_shutdown_are_refused_and_drain_is_prompt() {
    let (engine, addr, server) = start_server(
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        NetConfig::default(),
    );
    let mut c = Client::connect(addr);
    register(&mut c, "sd");
    embed(&mut c, "sd");
    // One burst: a detect, the shutdown, and a straggler behind it.
    // The straggler must get an orderly refusal (not silence), and the
    // drain must complete promptly — not stall to the drain deadline
    // on its unresolved slot.
    let mut burst = String::new();
    burst.push_str(&format!(
        "{{\"op\":\"detect\",\"tenant\":\"sd\",\"t\":2,\"k\":1,\"id\":0,\"counts\":{}}}\n",
        counts_json(80)
    ));
    burst.push_str("{\"op\":\"shutdown\",\"id\":1}\n");
    burst.push_str("{\"op\":\"metrics\",\"id\":2}\n");
    let started = Instant::now();
    c.writer.write_all(burst.as_bytes()).unwrap();
    let r0 = c.recv();
    assert!(r0.contains("\"id\":0") && r0.contains("detect"), "{r0}");
    let r1 = c.recv();
    assert!(r1.contains("\"id\":1") && r1.contains("shutdown"), "{r1}");
    let r2 = c.recv();
    assert!(
        r2.contains("\"id\":2") && r2.contains("session shutting down"),
        "{r2}"
    );
    c.expect_eof();
    server.join().unwrap().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain stalled: {:?}",
        started.elapsed()
    );
    engine.shutdown();
}

#[test]
fn final_frame_without_newline_is_served_on_eof() {
    let (engine, addr, server) = start_server(EngineConfig::default(), NetConfig::default());
    let mut c = Client::connect(addr);
    // A complete request with no trailing newline, then half-close:
    // the TCP path must answer it like the pipe path does.
    c.writer
        .write_all(br#"{"op":"metrics","id":"tail"}"#)
        .unwrap();
    c.writer.shutdown(std::net::Shutdown::Write).unwrap();
    let r = c.recv();
    assert!(r.contains("\"id\":\"tail\""), "{r}");
    assert!(r.contains("\"ok\":true"), "{r}");
    c.expect_eof();

    let mut c2 = Client::connect(addr);
    c2.request(r#"{"op":"shutdown"}"#);
    server.join().unwrap().unwrap();
    engine.shutdown();
}

#[test]
fn idle_connections_are_reaped_on_timeout() {
    let (engine, addr, server) = start_server(
        EngineConfig::default(),
        NetConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..NetConfig::default()
        },
    );
    let mut idle = Client::connect(addr);
    let mut active = Client::connect(addr);
    // The idle one goes quiet; the active one keeps talking.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "idle connection never reaped");
        let r = active.request(r#"{"op":"metrics"}"#);
        assert!(r.contains("\"ok\":true"), "{r}");
        if engine.metrics()[M::NetTimedOutIdle] >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    idle.expect_eof();
    active.request(r#"{"op":"shutdown"}"#);
    server.join().unwrap().unwrap();
    engine.shutdown();
}

#[test]
fn graceful_drain_flushes_in_flight_work() {
    let (engine, addr, server) = start_server(
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        NetConfig::default(),
    );
    let mut c = Client::connect(addr);
    register(&mut c, "drain");
    embed(&mut c, "drain");
    // Pipeline detects followed immediately by shutdown: the shutdown
    // op is a barrier, so every detect completes and flushes first,
    // then the server drains and exits.
    let mut burst = String::new();
    for i in 0..4 {
        burst.push_str(&format!(
            "{{\"op\":\"detect\",\"tenant\":\"drain\",\"t\":2,\"k\":1,\"id\":{i},\"counts\":{}}}\n",
            counts_json(80)
        ));
    }
    burst.push_str("{\"op\":\"shutdown\",\"id\":4}\n");
    c.writer.write_all(burst.as_bytes()).unwrap();
    for i in 0..5 {
        let resp = c.recv();
        assert!(resp.contains(&format!("\"id\":{i}")), "{resp}");
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
    c.expect_eof();
    server.join().unwrap().unwrap();
    // The listener is gone: new connections are refused.
    assert!(TcpStream::connect(addr).is_err(), "listener survived drain");
    engine.shutdown();
}

#[test]
fn trace_op_over_the_socket_transport_returns_threaded_spans() {
    let (engine, addr, server) = start_server(
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        NetConfig::default(),
    );
    let mut c = Client::connect(addr);
    register(&mut c, "sock");
    // The trace id rides the request line through the reactor into the
    // engine's worker pool.
    let r = c.request(&format!(
        "{{\"op\":\"embed\",\"tenant\":\"sock\",\"z\":101,\"trace\":\"t-sock-7\",\"counts\":{}}}",
        counts_json(80)
    ));
    assert!(r.contains("chosen_pairs"), "{r}");
    // A second connection can read the spans: the ring is engine-wide,
    // not per-session.
    let mut other = Client::connect(addr);
    let t = other.request(r#"{"op":"trace","trace":"t-sock-7"}"#);
    assert!(t.contains("\"ok\":true"), "{t}");
    assert!(t.contains("\"trace\":\"t-sock-7\""), "{t}");
    assert!(t.contains("\"tenant\":\"sock\""), "{t}");
    for stage in ["queue_wait", "run", "prf_sweep"] {
        assert!(
            t.contains(&format!("\"stage\":\"{stage}\"")),
            "{stage}: {t}"
        );
    }
    // Tenant + op filters narrow; a miss is empty, never an error.
    let t = other.request(r#"{"op":"trace","tenant":"sock","for_op":"embed"}"#);
    assert!(t.contains("\"op\":\"embed\""), "{t}");
    assert!(!t.contains("\"op\":\"register\""), "{t}");
    let t = other.request(r#"{"op":"trace","tenant":"ghost"}"#);
    assert!(
        t.contains("\"count\":0") && t.contains("\"ok\":true"),
        "{t}"
    );
    c.request(r#"{"op":"shutdown"}"#);
    c.expect_eof();
    other.expect_eof();
    server.join().unwrap().unwrap();
    engine.shutdown();
}

/// Counts this process's threads (Linux); `None` elsewhere.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Raises the soft fd limit to the hard limit (the test needs ~2k fds:
/// 1000 server-side + 1000 client-side).
#[cfg(target_os = "linux")]
fn raise_fd_limit() {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    unsafe {
        let mut lim = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) == 0 && lim.cur < lim.max {
            lim.cur = lim.max;
            let _ = setrlimit(RLIMIT_NOFILE, &lim);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn raise_fd_limit() {}

/// The tentpole acceptance test: ≥ 1000 concurrent idle connections on
/// a bounded thread count (reactor + worker pool only — no
/// thread-per-connection), correct interleaved embed/detect traffic,
/// and a slow reader evicted without stalling the other connections.
#[test]
fn thousand_idle_connections_bounded_threads() {
    raise_fd_limit();
    const IDLE_CONNS: usize = 1000;
    const ACTIVE_CLIENTS: usize = 4;
    const DETECTS_PER_CLIENT: usize = 5;

    let (engine, addr, server) = start_server(
        EngineConfig {
            workers: 2,
            queue_capacity: 4096,
            ..EngineConfig::default()
        },
        NetConfig {
            max_conns: IDLE_CONNS + 64,
            max_write_buffer: 64 * 1024,
            ..NetConfig::default()
        },
    );
    let baseline_threads = thread_count();

    // A herd of idle connections. Plain sockets, no client threads —
    // idleness costs nothing on either side.
    let mut herd = Vec::with_capacity(IDLE_CONNS);
    for _ in 0..IDLE_CONNS {
        herd.push(TcpStream::connect(addr).expect("idle connect"));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.metrics()[M::NetActive] < IDLE_CONNS as u64 {
        assert!(Instant::now() < deadline, "reactor never accepted the herd");
        std::thread::sleep(Duration::from_millis(20));
    }

    // With 1000 connections held open, thread count must stay bounded:
    // reactor + worker pool + this test's own threads. Nothing close to
    // one-per-connection.
    if let (Some(before), Some(now)) = (baseline_threads, thread_count()) {
        assert!(
            now <= before + 4,
            "thread count grew with connections: {before} -> {now}"
        );
        assert!(now < 64, "unbounded threading: {now} threads");
    }

    // Interleaved real traffic across the idle herd.
    let mut owner = Client::connect(addr);
    register(&mut owner, "herd-owner");
    embed(&mut owner, "herd-owner");

    // A slow reader: pumps requests, never reads responses. It must be
    // evicted once its unread output exceeds the write-buffer cap...
    let mut slow = TcpStream::connect(addr).expect("slow connect");
    slow.set_nonblocking(true).unwrap();
    let req = b"{\"op\":\"metrics\"}\n";
    let mut slow_alive = true;
    let mut pumped = 0usize;
    // ...while concurrent clients keep completing embed/detect work.
    let workers: Vec<_> = (0..ACTIVE_CLIENTS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for _ in 0..DETECTS_PER_CLIENT {
                    let r = detect(&mut c, "herd-owner");
                    assert!(r.contains("\"ok\":true"), "client {w}: {r}");
                }
            })
        })
        .collect();

    let evict_deadline = Instant::now() + Duration::from_secs(60);
    while engine.metrics()[M::NetEvictedSlow] == 0 {
        assert!(
            Instant::now() < evict_deadline,
            "slow reader never evicted ({pumped} requests pumped)"
        );
        if slow_alive {
            match slow.write(req) {
                Ok(_) => pumped += 1,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Reset/broken pipe: the server already evicted us.
                Err(_) => slow_alive = false,
            }
        } else {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    for w in workers {
        w.join()
            .expect("active client failed while slow reader pending");
    }
    let snap = engine.metrics();
    assert!(snap[M::NetEvictedSlow] >= 1);
    assert!(
        snap[M::NetActive] >= IDLE_CONNS as u64,
        "idle herd was disturbed: {:?}",
        snap.values
    );
    assert_eq!(snap[M::Failed], 0, "jobs failed under load");

    // Clean drain with the herd still connected.
    let ack = owner.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    owner.expect_eof();
    server.join().unwrap().unwrap();
    for conn in &mut herd {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 8];
        // Drained server closed every idle connection.
        assert_eq!(conn.read(&mut buf).unwrap_or(0), 0);
    }
    assert_eq!(engine.metrics()[M::NetActive], 0);
    engine.shutdown();
}

/// CPU ticks (user + system) one thread of this process has used, from
/// `/proc/self/task/<tid>/stat`.
#[cfg(target_os = "linux")]
fn thread_cpu_ticks(tid: &str) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap();
    // After the parenthesised command name comes field 3 (state);
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..]
        .split_whitespace()
        .collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

/// A job the reactor did not submit (`Engine::run` from another thread)
/// reaches no connection, so the reactor has nothing to deliver and
/// goes back to sleep. Only the reactor thread is measured: the other
/// tests of this binary run beside it.
#[cfg(target_os = "linux")]
#[test]
fn a_foreign_engine_job_leaves_the_reactor_asleep() {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let (tid_tx, tid_rx) = std::sync::mpsc::channel();
    let server_engine = Arc::clone(&engine);
    let server = std::thread::spawn(move || {
        // `/proc/thread-self` links to `<pid>/task/<tid>`.
        let me = std::fs::read_link("/proc/thread-self").unwrap();
        let tid = me.file_name().unwrap().to_string_lossy().into_owned();
        tid_tx.send(tid).unwrap();
        serve_listener(&server_engine, listener, NetConfig::default())
    });
    let reactor = tid_rx.recv().unwrap();
    let mut c = Client::connect(addr);
    register(&mut c, "own");

    engine
        .register_tenant("foreign", Secret::from_label("foreign"))
        .unwrap();
    let state = engine.run(JobSpec::new(JobPayload::Embed {
        tenant: "foreign".into(),
        data: JobData::Histogram(Histogram::from_counts(power_law_counts(&PowerLawConfig {
            distinct_tokens: 100,
            sample_size: 50_000,
            alpha: 0.6,
        }))),
        params: GenerationParams::default().with_z(101),
    }));
    assert!(matches!(state, JobState::Completed(_)), "{state:?}");

    std::thread::sleep(Duration::from_millis(100));
    let before = thread_cpu_ticks(&reactor);
    std::thread::sleep(Duration::from_secs(1));
    let spent = thread_cpu_ticks(&reactor) - before;
    assert!(
        spent < 20,
        "the reactor burned {spent} ticks in the idle second after a foreign job"
    );

    assert!(c.request(r#"{"op":"metrics"}"#).contains("\"ok\":true"));
    let ack = c.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    c.expect_eof();
    server.join().unwrap().unwrap();
    engine.shutdown();
}

/// A connection that closes with detects in flight takes their results
/// with it: the next connection, most likely on the same fd, receives
/// its own responses and nothing else.
#[test]
fn results_of_a_closed_connection_never_reach_the_next_one() {
    let (engine, addr, server) = start_server(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        NetConfig::default(),
    );
    let mut owner = Client::connect(addr);
    register(&mut owner, "gone");
    embed(&mut owner, "gone");
    let detects = |tag: &str, n: usize| -> String {
        (0..n)
            .map(|i| {
                format!(
                    "{{\"op\":\"detect\",\"tenant\":\"gone\",\"t\":2,\"k\":1,\"id\":\"{tag}{i}\",\"counts\":{}}}\n",
                    counts_json(80)
                )
            })
            .collect()
    };

    // Embeds submitted straight to the engine hold its one worker, so
    // the socket's detects queue behind them.
    let blockers: Vec<_> = (0..2)
        .map(|i| {
            let tenant = format!("blocker-{i}");
            engine
                .register_tenant(&tenant, Secret::from_label(&tenant))
                .unwrap();
            engine
                .submit(JobSpec::new(JobPayload::Embed {
                    tenant,
                    data: JobData::Histogram(Histogram::from_counts(power_law_counts(
                        &PowerLawConfig {
                            distinct_tokens: 600,
                            sample_size: 600_000,
                            alpha: 0.5,
                        },
                    ))),
                    params: GenerationParams::default().with_z(101),
                }))
                .unwrap()
        })
        .collect();

    // An answer left unread makes the close a reset, which the server
    // sees at once, with the pipelined detects still queued.
    let mut gone = Client::connect(addr);
    gone.send(r#"{"op":"metrics"}"#);
    gone.writer.peek(&mut [0u8; 1]).unwrap();
    let submitted = engine.metrics()[M::Submitted];
    gone.writer.write_all(detects("a", 50).as_bytes()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.metrics()[M::Submitted] < submitted + 50 {
        assert!(
            Instant::now() < deadline,
            "the detects were never submitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(gone);
    while engine.metrics()[M::NetActive] > 1 {
        assert!(
            Instant::now() < deadline,
            "the server kept a reset connection"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut next = Client::connect(addr);
    let mut mine = detects("b", 3);
    mine.push_str("{\"op\":\"metrics\",\"id\":\"b3\"}\n");
    next.writer.write_all(mine.as_bytes()).unwrap();
    for i in 0..4 {
        let resp = next.recv();
        assert!(resp.contains(&format!("\"id\":\"b{i}\"")), "{resp}");
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
    for blocker in blockers {
        assert!(matches!(blocker.wait(), JobState::Completed(_)));
    }
    let ack = next.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    next.expect_eof();
    owner.expect_eof();
    server.join().unwrap().unwrap();
    engine.shutdown();
}
