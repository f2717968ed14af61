//! Self-tests of the harness itself: open-loop accounting against a
//! stub server that stalls, the timing storage wrapper, and `compare`.
//! (Quantile code is checked against a brute-force sort in
//! `src/stats.rs`.)

use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::token::Token;
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::job::{JobData, JobOutput, JobPayload, JobSpec, JobState};
use freqywm_service::storage::{DiskLog, Storage};
use freqywm_service::DurableRegistry;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tierbench::client::{open_loop, Conn, Expect, Op, Request};
use tierbench::layers::TimedStorage;

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A server that answers every line with `{"ok":true}` but stops
/// reading for `stall` once it has read `stall_at` lines.
fn stalling_stub(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<Instant>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("stub addr").to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut line = Vec::new();
        let mut n = 0;
        let mut stall_end = Instant::now();
        while reader.read_until(b'\n', &mut line).expect("read") > 0 {
            n += 1;
            if n == stall_at {
                std::thread::sleep(stall);
                stall_end = Instant::now();
            }
            writer.write_all(b"{\"ok\":true}\n").expect("answer");
            line.clear();
        }
        stall_end
    });
    (addr, handle)
}

#[test]
fn open_loop_charges_a_stall_to_every_request_it_delays() {
    const REQUESTS: usize = 120;
    const STALL_AT: usize = 20;
    let stall = Duration::from_millis(300);
    let period = Duration::from_millis(5);
    let (addr, stub) = stalling_stub(STALL_AT, stall);
    // Large requests, so the stalled stub's socket buffers fill and the
    // generator itself falls behind schedule.
    let line: Arc<str> = format!(
        "{{\"op\":\"detect\",\"pad\":\"{}\"}}\n",
        "x".repeat(256 << 10)
    )
    .into();
    let mut conn = Conn::connect(&addr).expect("connect to stub");
    let start = Instant::now() + Duration::from_millis(20);
    let until = start + period.mul_f64(REQUESTS as f64);
    let samples = open_loop(&mut conn, start, Duration::ZERO, period, until, |n| {
        Request {
            op: Op::Detect,
            tenant: 0,
            seq: n,
            line: line.clone(),
            expect: Expect::Ok,
        }
    })
    .expect("open loop against the stub");
    drop(conn);
    let stall_end = stub.join().expect("stub thread");

    assert_eq!(
        samples.len(),
        REQUESTS,
        "every scheduled request is sent and answered"
    );
    assert!(samples.iter().all(|s| s.ok));
    for (k, s) in samples.iter().enumerate() {
        assert_eq!(
            s.start,
            start + period.mul_f64(k as f64),
            "latency counts from the due time"
        );
        assert!(s.latency >= s.late, "a late send is part of the latency");
        // Nothing due before the stall ended could be answered before it.
        if k + 1 >= STALL_AT && s.start < stall_end {
            assert!(
                s.start + s.latency >= stall_end,
                "request {k} answered before the stall ended"
            );
        }
    }
    let worst = samples.iter().map(|s| s.latency).max().expect("samples");
    assert!(
        worst >= stall,
        "the stalled request carries the whole stall: {worst:?}"
    );
    let latest = samples.iter().map(|s| s.late).max().expect("samples");
    assert!(
        latest >= Duration::from_millis(50),
        "the blocked generator reports how late it ran: {latest:?}"
    );
    // Before the stall the generator kept its schedule.
    assert!(samples[..STALL_AT - 1]
        .iter()
        .all(|s| s.late < Duration::from_millis(50)));
}

fn embed_spec(tenant: &str) -> JobSpec {
    let counts: Vec<(Token, u64)> = (0..40u64)
        .map(|i| (Token::new(format!("tok{i}")), 5000 / (i + 1) + 3 * i))
        .collect();
    JobSpec::new(JobPayload::Embed {
        tenant: tenant.to_string(),
        data: JobData::Histogram(Histogram::from_counts(counts)),
        params: freqywm_core::params::GenerationParams::default().with_z(131),
    })
}

#[test]
fn timed_storage_passes_bytes_through_and_replays_to_the_same_head() {
    let dir = temp_dir("timed-storage");
    let (timed, stats) = TimedStorage::new(DiskLog::open(&dir).expect("open data-dir"));
    let config = EngineConfig {
        workers: 1,
        snapshot_every: 0,
        ..EngineConfig::default()
    };
    let key = config.ledger_key.clone();
    let engine = Engine::open(config, Box::new(timed)).expect("engine over the wrapper");
    for tenant in ["alpha", "beta"] {
        engine
            .register_tenant(tenant, Secret::from_label(tenant))
            .expect("register");
        match engine.run(embed_spec(tenant)) {
            JobState::Completed(JobOutput::Embed(_)) => {}
            other => panic!("embed failed: {other:?}"),
        }
    }
    let live_head = engine.registry().ledger().head_hash();
    engine.shutdown();
    drop(engine);

    let stats = stats.lock().expect("stats").clone();
    let on_disk = DiskLog::open_read_only(&dir)
        .expect("reopen")
        .read_log()
        .expect("read log");
    assert_eq!(
        stats.bytes,
        on_disk.len() as u64,
        "every appended byte reached the log"
    );
    assert!(stats.durations_us.len() >= 4, "each mutation appended");

    let (wrapped, _) = TimedStorage::new(DiskLog::open_read_only(&dir).expect("reopen"));
    let via_wrapper =
        DurableRegistry::open_read_only(&key, Box::new(wrapped)).expect("replay via wrapper");
    let bare = DurableRegistry::open_read_only(
        &key,
        Box::new(DiskLog::open_read_only(&dir).expect("reopen")),
    )
    .expect("replay bare");
    assert_eq!(via_wrapper.ledger().head_hash(), live_head);
    assert_eq!(bare.ledger().head_hash(), live_head);
    let _ = std::fs::remove_dir_all(&dir);
}

fn result_file(dir: &std::path::Path, seed: u64, throughput: f64, p50: f64) {
    let json = format!(
        concat!(
            "{{\"header\":{{\"workload\":\"detect_hot\",\"seed\":\"{}\",\"trace\":\"0\"}},",
            "\"metrics\":{{\"detect_capacity_rps\":{{\"value\":{},\"unit\":\"req/s\"}},",
            "\"detect_p50_ms\":{{\"value\":{},\"unit\":\"ms\"}}}}}}"
        ),
        seed, throughput, p50
    );
    std::fs::write(dir.join(format!("detect_hot-seed{seed}-trace0.json")), json)
        .expect("write result");
}

#[test]
fn compare_labels_improved_regressed_and_unresolved() {
    let root = temp_dir("compare");
    let (old, new) = (root.join("old"), root.join("new"));
    std::fs::create_dir_all(&old).expect("old dir");
    std::fs::create_dir_all(&new).expect("new dir");
    for seed in 0..10u64 {
        let jitter = seed as f64 * 0.001;
        result_file(&old, seed, 1000.0 + jitter, 1.0 + jitter);
        // Throughput 20% better on every pair; p50 50% worse.
        result_file(&new, seed, 1200.0 + jitter, 1.5 + jitter);
    }
    let bench = root.join("BENCHMARK.json");
    std::fs::write(
        &bench,
        r#"{"end_to_end":[{"name":"detect_p50_ms","unit":"ms","better":"lower","bound":0.2}]}"#,
    )
    .expect("write benchmark");
    let table = tierbench::report::compare(&old, &new, &bench).expect("compare");
    let label = |metric: &str| {
        table
            .lines()
            .find(|l| l.contains(metric))
            .and_then(|l| l.split_whitespace().last())
            .map(str::to_string)
    };
    assert_eq!(
        label("detect_capacity_rps").as_deref(),
        Some("improved"),
        "{table}"
    );
    assert_eq!(
        label("detect_p50_ms").as_deref(),
        Some("regressed"),
        "{table}"
    );
    let same = tierbench::report::compare(&old, &old, &bench).expect("compare");
    assert!(
        same.lines().skip(1).all(|l| l.ends_with("unresolved")),
        "{same}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
