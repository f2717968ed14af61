//! The metric family tables are the one declaration of every metric.
//! This walks both tables against live engine and router output, and
//! pins the family tables in `docs/observability.md` to them.
#![cfg(unix)]

use freqywm_net::{serve_listener, NetConfig};
use freqywm_obs::family::{Family, Kind};
use freqywm_obs::prom::parse_exposition;
use freqywm_service::engine::{Engine, EngineConfig, ShardGate};
use freqywm_service::metrics::ENGINE;
use freqywm_service::proto::handle_line;
use freqywm_service::proto::json::{self, Value};
use freqywm_service::{aggregate_shard_metrics, ShardMetricsPiece};
use freqywm_shard::{run_router_with_metrics, RouterConfig, ROUTER};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn at<'a>(v: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(v, |v, key| v.get(key))
}

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

/// Family names of one parser-validated `GET /metrics` scrape.
fn scrape(addr: SocketAddr) -> BTreeSet<String> {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read scrape");
    let (_, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    exposition_names(body)
}

fn exposition_names(text: &str) -> BTreeSet<String> {
    parse_exposition(text)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"))
        .into_iter()
        .map(|f| f.name)
        .collect()
}

/// `f` appears on each surface it declares: its JSON path under
/// `scope` and its name in the scrape.
fn check(f: &Family, scope: &Value, scraped: &BTreeSet<String>) {
    if !f.json.is_empty() {
        assert!(at(scope, f.json).is_some(), "JSON lacks {}", f.json);
    }
    if !f.prom.is_empty() {
        assert!(scraped.contains(f.prom), "scrape lacks {}", f.prom);
    }
}

#[test]
fn every_family_appears_on_its_declared_surfaces() {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 1,
        shard_gate: Some(ShardGate::new("0/1", |_| true)),
        ..EngineConfig::default()
    }));
    let counts: Vec<String> = (0..60)
        .map(|i| format!("[\"tk{i:03}\",{}]", 4_000 / (i + 1) + 7 * (60 - i)))
        .collect();
    for line in [
        r#"{"op":"register","tenant":"walk","secret_label":"walk"}"#.to_string(),
        format!(
            r#"{{"op":"embed","tenant":"walk","counts":[{}]}}"#,
            counts.join(",")
        ),
    ] {
        let resp = handle_line(&engine, &line);
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }

    // Engine: the metrics JSON (tenant rows under `per_tenant`), a
    // strict scrape, the history sample and the router totals.
    let answer = json::parse(&handle_line(&engine, r#"{"op":"metrics"}"#)).unwrap();
    let metrics = answer.get("metrics").expect("metrics object");
    let tenant = at(metrics, "per_tenant.walk").expect("tenant row");
    let scraped = exposition_names(&engine.metrics().to_prom());
    let history = json::parse(&handle_line(&engine, r#"{"op":"history"}"#)).unwrap();
    let sample = history.get("now").expect("history sample");
    let aggregate = json::parse(&aggregate_shard_metrics(&[ShardMetricsPiece {
        index: 0,
        addr: "shard-0".into(),
        up: true,
        metrics: Some(metrics.clone()),
    }]))
    .unwrap();
    let totals = aggregate.get("totals").expect("totals");
    for f in ENGINE {
        check(f, if f.row { tenant } else { metrics }, &scraped);
        if let Some(key) = f.history {
            let keys = match f.kind {
                Kind::Histogram => vec![format!("{key}_sum_us"), format!("{key}_count")],
                _ => vec![key.to_string()],
            };
            for k in keys {
                assert!(sample.get(&k).is_some(), "history sample lacks {k}");
            }
        }
        if f.totals {
            assert!(
                at(totals, f.json).is_some(),
                "router totals lack {}",
                f.json
            );
        }
    }

    // Router: the same engine as its one shard.
    let backend = TcpListener::bind("127.0.0.1:0").expect("bind backend");
    let backend_addr = backend.local_addr().unwrap();
    let server_engine = Arc::clone(&engine);
    let server =
        std::thread::spawn(move || serve_listener(&server_engine, backend, NetConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let router_addr = listener.local_addr().unwrap();
    let metrics_listener = TcpListener::bind("127.0.0.1:0").expect("bind metrics");
    let metrics_addr = metrics_listener.local_addr().unwrap();
    let config = RouterConfig::new(vec![backend_addr.to_string()]);
    let router = std::thread::spawn(move || {
        run_router_with_metrics(listener, Some(metrics_listener), config)
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    let answer = loop {
        let v = request(router_addr, r#"{"op":"metrics"}"#);
        if at(&v, "metrics.shards_up").and_then(Value::as_u64) == Some(1) {
            break v;
        }
        assert!(Instant::now() < deadline, "shard never came up: {v:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    let row = answer
        .get("shard_map")
        .and_then(Value::as_arr)
        .and_then(|rows| rows.first())
        .expect("shard row");
    let scraped = scrape(metrics_addr);
    for f in ROUTER {
        check(f, if f.row { row } else { &answer }, &scraped);
    }

    let ack = request(router_addr, r#"{"op":"shutdown"}"#);
    assert_eq!(
        ack.get("ok").and_then(Value::as_bool),
        Some(true),
        "{ack:?}"
    );
    router.join().unwrap().expect("router exits cleanly");
    server.join().unwrap().expect("backend drains");
    engine.shutdown();
}

#[test]
fn observability_doc_tables_name_exactly_the_declared_families() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/observability.md");
    let doc = std::fs::read_to_string(path).expect("read docs/observability.md");
    let mut documented = BTreeSet::new();
    for line in doc.lines().filter(|l| l.starts_with('|')) {
        let mut rest = line;
        while let Some(start) = rest.find("freqywm_") {
            let name: String = rest[start..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
                .collect();
            rest = &rest[start + name.len()..];
            documented.insert(name);
        }
    }
    let declared: BTreeSet<String> = ENGINE
        .iter()
        .chain(ROUTER)
        .filter(|f| !f.prom.is_empty())
        .map(|f| f.prom.to_string())
        .collect();
    assert_eq!(documented, declared);
}
