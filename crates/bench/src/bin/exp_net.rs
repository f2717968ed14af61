//! Network front-end throughput/latency — the epoll reactor under
//! loopback detect traffic, with and without an idle-connection herd.
//!
//! One in-process server (reactor + 2-worker engine) is driven by C
//! concurrent clients, each issuing R synchronous detect requests over
//! its own TCP connection. Reported: requests/sec and client-observed
//! p50/p99 round-trip latency. The final rows repeat the load with 500
//! extra idle connections parked on the reactor — epoll's wait cost is
//! O(ready), so the herd should cost no per-request work (on a
//! many-core box the rows match; a single-core runner shows scheduler
//! noise either way).
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_net
//! ```

use freqywm_bench::{
    json_obj, json_out_path, print_header, print_row, write_json_report, zipf_hist,
};
use freqywm_crypto::prf::Secret;
use freqywm_net::{serve_listener, NetConfig};
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::job::{JobData, JobPayload, JobSpec};
use freqywm_service::metrics::M;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

const REQUESTS_PER_CLIENT: usize = 100;
const TOKENS: usize = 150;
const IDLE_HERD: usize = 500;

fn counts_json(hist: &freqywm_data::histogram::Histogram) -> String {
    let entries: Vec<String> = hist
        .entries()
        .iter()
        .map(|(t, c)| format!("[\"{}\",{}]", t.as_str(), c))
        .collect();
    format!("[{}]", entries.join(","))
}

fn run_load(addr: SocketAddr, clients: usize, detect_line: &str) -> (f64, f64, f64) {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let line = detect_line.to_string();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut latencies = Vec::with_capacity(REQUESTS_PER_CLIENT);
                let mut resp = String::new();
                for _ in 0..REQUESTS_PER_CLIENT {
                    let t0 = Instant::now();
                    writer.write_all(line.as_bytes()).unwrap();
                    resp.clear();
                    reader.read_line(&mut resp).unwrap();
                    assert!(resp.contains("\"ok\":true"), "{resp}");
                    latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let throughput = (clients * REQUESTS_PER_CLIENT) as f64 / wall;
    (throughput, q(0.50), q(0.99))
}

fn main() {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 8192,
        ..EngineConfig::default()
    }));
    engine
        .register_tenant("bench", Secret::from_label("exp-net"))
        .expect("register");
    let hist = zipf_hist(0.6, TOKENS, 200_000);
    let state = engine.run(JobSpec::new(JobPayload::Embed {
        tenant: "bench".into(),
        data: JobData::Histogram(hist.clone()),
        params: freqywm_core::params::GenerationParams::default().with_z(101),
    }));
    assert!(
        matches!(state, freqywm_service::JobState::Completed(_)),
        "embed failed: {state:?}"
    );
    let detect_line = format!(
        "{{\"op\":\"detect\",\"tenant\":\"bench\",\"t\":2,\"k\":1,\"counts\":{}}}\n",
        counts_json(&hist)
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server_engine = Arc::clone(&engine);
    let server = std::thread::spawn(move || {
        serve_listener(
            &server_engine,
            listener,
            NetConfig {
                max_conns: IDLE_HERD + 128,
                ..NetConfig::default()
            },
        )
    });

    println!("# exp_net — reactor loopback detect load ({TOKENS} tokens, {REQUESTS_PER_CLIENT} req/client)");
    let widths = [14usize, 10, 12, 12, 12];
    print_header(
        &["idle conns", "clients", "req/s", "p50 ms", "p99 ms"],
        &widths,
    );
    let mut rows = Vec::new();
    let record =
        |rows: &mut Vec<String>, idle: usize, clients: usize, rps: f64, p50: f64, p99: f64| {
            print_row(
                &[
                    idle.to_string(),
                    clients.to_string(),
                    format!("{rps:.0}"),
                    format!("{p50:.3}"),
                    format!("{p99:.3}"),
                ],
                &widths,
            );
            rows.push(json_obj(&[
                ("idle_conns", idle.to_string()),
                ("clients", clients.to_string()),
                ("req_per_sec", format!("{rps:.1}")),
                ("p50_ms", format!("{p50:.3}")),
                ("p99_ms", format!("{p99:.3}")),
            ]));
        };
    for &clients in &[1usize, 4, 16] {
        let (rps, p50, p99) = run_load(addr, clients, &detect_line);
        record(&mut rows, 0, clients, rps, p50, p99);
    }

    // Park an idle herd on the reactor and repeat.
    let herd: Vec<TcpStream> = (0..IDLE_HERD)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();
    for &clients in &[4usize, 16] {
        let (rps, p50, p99) = run_load(addr, clients, &detect_line);
        record(&mut rows, IDLE_HERD, clients, rps, p50, p99);
    }
    drop(herd);
    if let Some(path) = json_out_path() {
        write_json_report(&path, "exp_net", &rows);
    }

    // Drain: one shutdown op, then the reactor thread exits cleanly.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    server
        .join()
        .expect("reactor thread")
        .expect("reactor exit");
    let snap = engine.metrics();
    println!(
        "# served {} conns, {} bytes in, {} bytes out, evicted {}",
        snap[M::NetAccepted],
        snap[M::NetBytesIn],
        snap[M::NetBytesOut],
        snap[M::NetEvictedSlow],
    );
    engine.shutdown();
}
