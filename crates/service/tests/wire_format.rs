//! Pins the engine's metrics wire format. A fixed script drives a real
//! engine; the `metrics` op, the `history` op, the `/metrics`
//! exposition and the router-side aggregation over fixed pieces must
//! match fixtures captured from a known-good build (`wire/mod.rs` says
//! what "match" means). Timing-derived fields are checked for presence
//! only.

mod wire;

use freqywm_service::engine::{Engine, EngineConfig, ShardGate};
use freqywm_service::proto::{handle_line, json};
use freqywm_service::{aggregate_shard_metrics, ShardMetricsPiece};

const DIR: &str = env!("CARGO_MANIFEST_DIR");

fn counts_json(n: usize) -> String {
    let entries: Vec<String> = (0..n)
        .map(|i| format!("[\"tk{i:03}\",{}]", 4_000 / (i + 1) + 7 * (n - i)))
        .collect();
    format!("[{}]", entries.join(","))
}

/// Two tenants behind a one-shard gate: `alpha` embeds, detects and
/// maintains; `beta` has an embed budget of one, spends it, and is
/// refused a second embed.
fn scripted_engine() -> Engine {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        // The sampler takes its first sample at start-up and no other
        // during the script.
        retain_interval_ms: 3_600_000,
        shard_gate: Some(ShardGate::new("0/1", |_| true)),
        ..EngineConfig::default()
    });
    let counts = counts_json(60);
    let register =
        |t: &str| format!(r#"{{"op":"register","tenant":"{t}","secret_label":"wire-{t}"}}"#);
    let embed = |t: &str| format!(r#"{{"op":"embed","tenant":"{t}","z":19,"counts":{counts}}}"#);
    let script = [
        (register("alpha"), true),
        (register("beta"), true),
        (
            r#"{"op":"quota","tenant":"beta","embed":1}"#.to_string(),
            true,
        ),
        (embed("alpha"), true),
        (embed("beta"), true),
        (embed("beta"), false),
        (
            format!(r#"{{"op":"detect","tenant":"alpha","t":2,"k":1,"counts":{counts}}}"#),
            true,
        ),
        (
            r#"{"op":"maintain","tenant":"alpha","updates":[["tk000",40],["tk059",-3]]}"#
                .to_string(),
            true,
        ),
    ];
    for (line, ok) in script {
        let resp = handle_line(&engine, &line);
        assert_eq!(resp.contains("\"ok\":true"), ok, "{line}\n→ {resp}");
    }
    engine
}

#[test]
fn engine_metrics_history_and_exposition_match_fixtures() {
    let engine = scripted_engine();
    let metrics = handle_line(&engine, r#"{"op":"metrics"}"#);
    let history = handle_line(&engine, r#"{"op":"history"}"#);
    let exposition = engine.metrics().to_prom();
    wire::assert_json_matches(
        "metrics op",
        &wire::fixture(DIR, "metrics.json"),
        &metrics,
        &[
            "metrics.uptime_s",
            "metrics.*.mean_us",
            "metrics.*.p50_us",
            "metrics.*.p95_us",
            "metrics.*.p99_us",
            "metrics.*.buckets_us_pow2",
            "metrics.per_tenant.*.latency_sum_us",
        ],
    );
    wire::assert_json_matches(
        "history op",
        &wire::fixture(DIR, "history.json"),
        &history,
        &["samples[*", "now.t_ms", "now.*_sum_us", "rates.*"],
    );
    wire::assert_prom_matches(
        "engine exposition",
        &wire::fixture(DIR, "engine.prom"),
        &exposition,
        &["freqywm_uptime_seconds"],
    );
    engine.shutdown();
}

#[test]
fn router_aggregation_of_fixed_pieces_matches_fixture() {
    let engine_metrics = json::parse(wire::fixture(DIR, "metrics.json").trim())
        .expect("fixture parses")
        .get("metrics")
        .cloned();
    let small = json::parse(
        r#"{"completed":4,"quota_refused":2,"tenants":3,"net":{"accepted":5,"active":1,"bytes_in":900}}"#,
    )
    .expect("literal parses");
    let piece = |index: usize, up: bool, metrics: Option<json::Value>| ShardMetricsPiece {
        index,
        addr: format!("127.0.0.1:77{index:02}"),
        up,
        metrics,
    };
    let aggregate = aggregate_shard_metrics(&[
        piece(0, true, engine_metrics),
        piece(1, true, Some(small)),
        piece(2, false, None),
    ]);
    wire::assert_json_matches(
        "aggregate",
        &wire::fixture(DIR, "aggregate.json"),
        &aggregate,
        &[],
    );
}
