//! Hostile input for `obs::prom::parse_exposition`, the parser that
//! `freqywm metrics --prom --check` runs on a remote scrape. Arbitrary
//! bytes, and mutations of a live engine's and a live router's
//! exposition, must come back `Ok` or `Err`, never as a panic; the
//! unmutated expositions must parse. The proptest shim seeds each
//! property from its test path, so every run replays the same cases.
#![cfg(unix)]

use freqywm_net::{serve_listener, NetConfig};
use freqywm_obs::prom::parse_exposition;
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::proto::handle_line;
use freqywm_service::proto::json::{self, Value};
use freqywm_shard::{run_router_with_metrics, RouterConfig};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Pieces of exposition syntax, spliced in whole so that mutations and
/// soups reach past the first syntax check.
const FRAGMENTS: &[&str] = &[
    "\n",
    " ",
    "# HELP ",
    "# TYPE ",
    "#",
    " counter",
    " gauge",
    " histogram",
    "freqywm_x",
    "freqywm_x_bucket",
    "freqywm_x_sum",
    "freqywm_x_count",
    "{",
    "}",
    "=",
    "\"",
    "\\",
    ",",
    "le=\"+Inf\"",
    "le=\"0.5\"",
    "shard=\"0\"",
    " 0",
    " 1",
    " -1",
    " 1e308",
    " +Inf",
    " -Inf",
    " NaN",
    "\u{e9}",
    "\u{3000}",
];

fn request(addr: SocketAddr, line: &str) -> Value {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut resp = String::new();
    BufReader::new(stream)
        .read_line(&mut resp)
        .expect("response");
    json::parse(resp.trim()).expect("response parses")
}

fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read scrape");
    let (_, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    body.to_string()
}

/// A live engine's exposition (after an embed, so its histograms hold
/// samples) and a live router's, with that engine as its one shard.
fn live() -> &'static [String; 2] {
    static LIVE: OnceLock<[String; 2]> = OnceLock::new();
    LIVE.get_or_init(|| {
        let engine = Arc::new(Engine::start(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        }));
        let counts: Vec<String> = (0..60)
            .map(|i| format!("[\"tk{i:03}\",{}]", 4_000 / (i + 1) + 7 * (60 - i)))
            .collect();
        for line in [
            r#"{"op":"register","tenant":"p","secret_label":"prom"}"#.to_string(),
            format!(
                r#"{{"op":"embed","tenant":"p","counts":[{}]}}"#,
                counts.join(",")
            ),
        ] {
            let resp = handle_line(&engine, &line);
            assert!(resp.contains("\"ok\":true"), "{resp}");
        }

        let backend = TcpListener::bind("127.0.0.1:0").expect("bind backend");
        let backend_addr = backend.local_addr().unwrap();
        let server_engine = Arc::clone(&engine);
        let server = std::thread::spawn(move || {
            serve_listener(&server_engine, backend, NetConfig::default())
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
        let router_addr = listener.local_addr().unwrap();
        let metrics_listener = TcpListener::bind("127.0.0.1:0").expect("bind metrics");
        let metrics_addr = metrics_listener.local_addr().unwrap();
        let config = RouterConfig::new(vec![backend_addr.to_string()]);
        let router = std::thread::spawn(move || {
            run_router_with_metrics(listener, Some(metrics_listener), config)
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let v = request(router_addr, r#"{"op":"metrics"}"#);
            let up = v.get("metrics").and_then(|m| m.get("shards_up"));
            if up.and_then(Value::as_u64) == Some(1) {
                break;
            }
            assert!(Instant::now() < deadline, "shard never came up: {v:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
        let router_text = scrape(metrics_addr);
        request(router_addr, r#"{"op":"shutdown"}"#);
        router.join().unwrap().expect("router exits cleanly");
        server.join().unwrap().expect("backend drains");
        let engine_text = engine.metrics().to_prom();
        engine.shutdown();
        [engine_text, router_text]
    })
}

/// Applies byte edits `(kind, position, byte)` to `text`: overwrite,
/// insert or delete a byte, truncate, or splice in a fragment.
fn mutate(text: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, at, byte) in edits {
        let at = at % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {
                let fragment = FRAGMENTS[byte as usize % FRAGMENTS.len()].as_bytes();
                bytes.splice(at..at, fragment.iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn live_expositions_parse() {
    for text in live() {
        let families = parse_exposition(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(!families.is_empty(), "{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_live_expositions_never_panic(
        which in 0usize..2,
        edits in proptest::collection::vec((0u8..5, 0usize..1 << 20, 0u8..=255), 1..8),
    ) {
        let _ = parse_exposition(&mutate(&live()[which], &edits));
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(0u8..=255, 0..2048),
    ) {
        let _ = parse_exposition(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn fragment_soups_never_panic(
        pieces in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..200),
    ) {
        let text: String = pieces.iter().map(|&i| FRAGMENTS[i]).collect();
        let _ = parse_exposition(&text);
    }
}
