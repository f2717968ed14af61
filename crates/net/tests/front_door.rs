//! Loopback tests of the engine reactor's front door: the connection
//! cap, which scrape connections share with protocol clients, and
//! hostile request heads on the scrape port.
#![cfg(unix)]

use freqywm_net::{serve_listener_with_metrics, NetConfig};
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::metrics::M;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Server {
    engine: Arc<Engine>,
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start_server(max_conns: usize) -> Server {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind protocol");
    let metrics = TcpListener::bind("127.0.0.1:0").expect("bind metrics");
    let addr = listener.local_addr().unwrap();
    let metrics_addr = metrics.local_addr().unwrap();
    let config = NetConfig {
        max_conns,
        ..NetConfig::default()
    };
    let server_engine = Arc::clone(&engine);
    let handle = std::thread::spawn(move || {
        serve_listener_with_metrics(&server_engine, listener, Some(metrics), config)
    });
    Server {
        engine,
        addr,
        metrics_addr,
        handle,
    }
}

impl Server {
    fn net(&self, m: M) -> u64 {
        self.engine.metrics()[m]
    }

    /// Waits until counter `m` reads exactly `n`.
    fn wait_net(&self, m: M, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.net(m) != n {
            assert!(
                Instant::now() < deadline,
                "{m:?} stuck at {}, want {n}",
                self.net(m)
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn shutdown(self) {
        let mut c = TcpStream::connect(self.addr).expect("connect");
        c.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut ack = String::new();
        BufReader::new(c).read_line(&mut ack).unwrap();
        assert!(ack.contains("\"ok\":true"), "{ack}");
        self.handle.join().unwrap().expect("reactor drains");
        self.engine.shutdown();
    }
}

/// Sends `request` and reads until the server closes; `None` when the
/// server closed without a byte of response (a refused connection).
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

fn metrics_line() -> &'static [u8] {
    b"{\"op\":\"metrics\"}\n"
}

#[test]
fn connection_cap_counts_scrapes_refuses_at_once_and_frees_slots() {
    let server = start_server(2);
    // Slot 1: a protocol client that stays open.
    let held = TcpStream::connect(server.addr).expect("connect");
    // Slot 2: a scrape connection that has sent nothing yet.
    let scrape = TcpStream::connect(server.metrics_addr).expect("connect scrape");
    server.wait_net(M::NetActive, 2);

    // Past the cap, protocol and scrape connections alike are closed
    // without an answer, and each refusal counts once.
    let rejected = server.net(M::NetRejected);
    assert_eq!(exchange(server.addr, metrics_line()), None);
    server.wait_net(M::NetRejected, rejected + 1);
    assert_eq!(
        exchange(server.metrics_addr, b"GET /metrics HTTP/1.1\r\n\r\n"),
        None
    );
    server.wait_net(M::NetRejected, rejected + 2);
    assert_eq!(server.net(M::NetActive), 2);

    // Closing the scrape frees its slot for the next client.
    drop(scrape);
    server.wait_net(M::NetActive, 1);
    let resp = exchange(server.addr, metrics_line()).expect("admitted after a slot freed");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert_eq!(server.net(M::NetRejected), rejected + 2);

    drop(held);
    server.wait_net(M::NetActive, 0);
    server.shutdown();
}

#[test]
fn hostile_scrape_heads_get_one_status_each() {
    let server = start_server(16);
    // A head that never ends within 8 KiB: refused with 431.
    let mut huge = b"GET /metrics HTTP/1.1\r\n".to_vec();
    while huge.len() <= 8 * 1024 + 64 {
        huge.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    let resp = exchange(server.metrics_addr, &huge).expect("431 response");
    assert!(
        resp.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        "{resp}"
    );
    assert_eq!(resp.matches("HTTP/1.1 ").count(), 1, "{resp}");

    // A bare-LF head is a complete request.
    let resp = exchange(server.metrics_addr, b"GET /metrics HTTP/1.1\nHost: x\n\n").expect("200");
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
    assert!(resp.contains("freqywm_uptime_seconds"), "{resp}");

    // The server survived both and still answers its clients.
    let resp = exchange(server.addr, metrics_line()).expect("protocol answer");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    server.shutdown();
}
