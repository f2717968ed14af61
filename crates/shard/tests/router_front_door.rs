//! Loopback tests of the router's front door: the client cap, which
//! scrape connections share, and hostile request heads on the router's
//! scrape port.
#![cfg(unix)]

use freqywm_net::{serve_listener, NetConfig};
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::proto::json;
use freqywm_shard::{run_router_with_metrics, RouterConfig};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Tier {
    engine: Arc<Engine>,
    backend: std::thread::JoinHandle<std::io::Result<()>>,
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    router: std::thread::JoinHandle<std::io::Result<()>>,
}

/// One engine behind a router capped at `max_conns` connections.
fn start_tier(max_conns: usize) -> Tier {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind backend");
    let backend_addr = listener.local_addr().unwrap();
    let server_engine = Arc::clone(&engine);
    let backend =
        std::thread::spawn(move || serve_listener(&server_engine, listener, NetConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let metrics = TcpListener::bind("127.0.0.1:0").expect("bind metrics");
    let addr = listener.local_addr().unwrap();
    let metrics_addr = metrics.local_addr().unwrap();
    let mut config = RouterConfig::new(vec![backend_addr.to_string()]);
    config.max_conns = max_conns;
    let router =
        std::thread::spawn(move || run_router_with_metrics(listener, Some(metrics), config));
    Tier {
        engine,
        backend,
        addr,
        metrics_addr,
        router,
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
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
        resp
    }

    fn clients_accepted(&mut self) -> u64 {
        let m = self.request(r#"{"op":"metrics"}"#);
        json::parse(&m)
            .ok()
            .and_then(|v| v.get("router")?.get("clients_accepted")?.as_u64())
            .unwrap_or_else(|| panic!("no clients_accepted: {m}"))
    }
}

impl Tier {
    fn shutdown(self, mut client: Client) {
        let ack = client.request(r#"{"op":"shutdown"}"#);
        assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
        self.router.join().unwrap().expect("router exits cleanly");
        self.backend.join().unwrap().expect("backend drains");
        self.engine.shutdown();
    }
}

/// Sends `request`, half-closes, and reads until the server closes;
/// `None` when it closed without a byte of response (refused).
fn exchange(addr: SocketAddr, request: &[u8]) -> Option<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // A refused peer may already be gone: the write can fail too.
    let _ = stream.write_all(request);
    let _ = stream.shutdown(Shutdown::Write);
    let mut raw = Vec::new();
    match stream.read_to_end(&mut raw) {
        Ok(_) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => panic!("read: {e}"),
    }
    (!raw.is_empty()).then(|| String::from_utf8_lossy(&raw).into_owned())
}

const METRICS: &[u8] = b"{\"op\":\"metrics\"}\n";

/// Repeats `exchange(addr, METRICS)` until an attempt is admitted
/// (`admitted`) or refused (`!admitted`).
fn exchange_until(addr: SocketAddr, admitted: bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while exchange(addr, METRICS).is_some() != admitted {
        assert!(
            Instant::now() < deadline,
            "no attempt came out admitted={admitted}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn client_cap_counts_scrapes_refuses_at_once_and_frees_slots() {
    let tier = start_tier(2);
    // Slot 1: a client that stays open.
    let mut held = Client::connect(tier.addr);
    assert_eq!(held.clients_accepted(), 1);
    // Slot 2: a scrape connection that has sent nothing yet. The router
    // counts no scrapes, so wait for the first refused client instead.
    let scrape = TcpStream::connect(tier.metrics_addr).expect("connect scrape");
    exchange_until(tier.addr, false);

    // Past the cap, clients and scrapes are closed without an answer,
    // and refused clients are not counted as accepted.
    let accepted = held.clients_accepted();
    assert_eq!(exchange(tier.addr, METRICS), None);
    assert_eq!(
        exchange(tier.metrics_addr, b"GET /metrics HTTP/1.1\r\n\r\n"),
        None
    );
    assert_eq!(held.clients_accepted(), accepted);

    // Closing the scrape frees its slot for the next client.
    drop(scrape);
    exchange_until(tier.addr, true);
    assert_eq!(held.clients_accepted(), accepted + 1);
    tier.shutdown(held);
}

#[test]
fn hostile_scrape_heads_get_one_status_each() {
    let tier = start_tier(16);
    let mut huge = b"GET /metrics HTTP/1.1\r\n".to_vec();
    while huge.len() <= 8 * 1024 + 64 {
        huge.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    let resp = exchange(tier.metrics_addr, &huge).expect("431 response");
    assert!(
        resp.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        "{resp}"
    );
    assert_eq!(resp.matches("HTTP/1.1 ").count(), 1, "{resp}");

    let resp = exchange(tier.metrics_addr, b"GET /metrics HTTP/1.1\nHost: x\n\n").expect("200");
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
    assert!(resp.contains("freqywm_router_info"), "{resp}");

    let mut c = Client::connect(tier.addr);
    assert!(c.request(r#"{"op":"metrics"}"#).contains("\"ok\":true"));
    tier.shutdown(c);
}
