//! `freqywm top` — a refreshing terminal dashboard over the `metrics`
//! and `history` protocol ops.
//!
//! Works against a single `serve --listen` engine (one row) or a
//! `router` tier (one row per shard, fed by the router's fanned-out
//! `metrics` shard map and per-shard `history` series). Rates (qps,
//! queue-wait share) come from the engines' retained
//! snapshot rings — `{"op":"history","last":2}` windows over the two
//! newest samples, so consecutive frames move with live traffic.
//!
//! `--once` prints a single frame with no ANSI escapes, for scripts
//! and tests; otherwise each frame home-clears the terminal
//! (`ESC[H ESC[2J`) and redraws every `--interval-ms`.

use crate::args::Top;
use crate::commands::one_shot_request;
use freqywm_service::proto::json::{self, Value};
use std::collections::HashMap;
use std::io::Write;

pub fn run_top(top: &Top, out: &mut dyn Write) -> Result<i32, String> {
    let auth_part = top
        .auth
        .as_ref()
        .map(|t| format!(",\"auth\":\"{}\"", json::escape(t)))
        .unwrap_or_default();
    let metrics_req = format!("{{\"op\":\"metrics\"{auth_part}}}");
    let history_req = format!("{{\"op\":\"history\",\"last\":2{auth_part}}}");
    let mut frame = 0u64;
    let mut failures = 0u32;
    loop {
        frame += 1;
        match fetch_frame(&top.connect, &metrics_req, &history_req, frame) {
            Ok(text) => {
                failures = 0;
                if !top.once {
                    write!(out, "\x1b[H\x1b[2J").ok();
                }
                write!(out, "{text}").ok();
            }
            Err(e) if top.once => return Err(e),
            Err(e) => {
                // A restarting router/engine should not kill the
                // dashboard; give transient failures a few frames.
                failures += 1;
                if failures >= 10 {
                    return Err(format!("{e} (10 consecutive failures)"));
                }
                writeln!(out, "freqywm top: {e} (retrying)").ok();
            }
        }
        out.flush().ok();
        if top.once {
            return Ok(0);
        }
        std::thread::sleep(std::time::Duration::from_millis(top.interval_ms.max(100)));
    }
}

/// Fetches `metrics` + `history` and renders one complete frame.
fn fetch_frame(
    connect: &str,
    metrics_req: &str,
    history_req: &str,
    frame: u64,
) -> Result<String, String> {
    let metrics = parse_ok(&one_shot_request(connect, metrics_req)?, "metrics")?;
    let history = parse_ok(&one_shot_request(connect, history_req)?, "history")?;
    let mut text = format!("freqywm top — {connect} — frame {frame}\n");
    if metrics.get("shard_map").is_some() {
        render_router(&mut text, &metrics, &history);
    } else {
        render_single(&mut text, connect, &metrics, &history);
    }
    render_tenants(&mut text, &metrics);
    Ok(text)
}

fn parse_ok(line: &str, op: &str) -> Result<Value, String> {
    let v = json::parse(line).map_err(|e| format!("bad {op} response: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        let err = v
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unknown error");
        return Err(format!("{op} op refused: {err}"));
    }
    Ok(v)
}

const ROW_HEADER: &str =
    " shard  role      health    qps  refus/s    p50_us    p99_us   wait%    log_seq    lag   addr";

#[allow(clippy::too_many_arguments)]
fn push_row(
    text: &mut String,
    shard: &str,
    role: &str,
    health: &str,
    qps: Option<f64>,
    refused_per_s: Option<f64>,
    p50: Option<u64>,
    p99: Option<u64>,
    wait_share: Option<f64>,
    log_seq: Option<u64>,
    lag: Option<u64>,
    addr: &str,
) {
    text.push_str(&format!(
        "{:>6}  {:<8}  {:<6}{:>7}  {:>7}  {:>8}  {:>8}  {:>6}  {:>9}  {:>5}   {}\n",
        shard,
        role,
        health,
        fmt_f(qps, 1),
        fmt_f(refused_per_s, 1),
        fmt_u(p50),
        fmt_u(p99),
        fmt_f(wait_share.map(|s| s * 100.0), 1),
        fmt_u(log_seq),
        fmt_u(lag),
        addr,
    ));
}

fn fmt_f(v: Option<f64>, prec: usize) -> String {
    v.map_or_else(|| "-".to_string(), |x| format!("{x:.prec$}"))
}

fn fmt_u(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| x.to_string())
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

fn get_f64(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// Router tier: header totals plus one row per shard, joining the
/// `metrics` shard map, the merged per-shard engine metrics, and the
/// per-shard `history` series (matched on `shard_index`).
fn render_router(text: &mut String, metrics: &Value, history: &Value) {
    let empty: Vec<Value> = Vec::new();
    let shard_map = metrics
        .get("shard_map")
        .and_then(Value::as_arr)
        .unwrap_or(&empty);
    // Per-shard engine metrics objects, by shard index.
    let mut engines: HashMap<u64, &Value> = HashMap::new();
    if let Some(per_shard) = metrics
        .get("metrics")
        .and_then(|m| m.get("per_shard"))
        .and_then(Value::as_arr)
    {
        for p in per_shard {
            if let (Some(i), Some(m)) = (get_u64(p, "shard"), p.get("metrics")) {
                engines.insert(i, m);
            }
        }
    }
    // Per-shard history rates, by shard index.
    let mut series: HashMap<u64, &Value> = HashMap::new();
    if let Some(arr) = history.get("series").and_then(Value::as_arr) {
        for s in arr {
            if let Some(i) = get_u64(s, "shard_index") {
                series.insert(i, s);
            }
        }
    }

    let up = shard_map
        .iter()
        .filter(|s| s.get("up").and_then(Value::as_bool) == Some(true))
        .count();
    let qps_total: f64 = series
        .values()
        .filter_map(|s| s.get("rates").and_then(|r| get_f64(r, "completed_per_s")))
        .sum();
    let totals = metrics.get("metrics").and_then(|m| m.get("totals"));
    let router = metrics.get("router");
    text.push_str(&format!(
        "tier: {} shards ({} up) · qps {:.1} · completed {} · failed {} · clients {} · inflight_failed {}{}\n\n",
        shard_map.len(),
        up,
        qps_total,
        fmt_u(totals.and_then(|t| get_u64(t, "completed"))),
        fmt_u(totals.and_then(|t| get_u64(t, "failed"))),
        fmt_u(router.and_then(|r| get_u64(r, "clients_active"))),
        fmt_u(router.and_then(|r| get_u64(r, "inflight_failed"))),
        if router.and_then(|r| r.get("draining").and_then(Value::as_bool)) == Some(true) {
            " · DRAINING"
        } else {
            ""
        },
    ));
    text.push_str(ROW_HEADER);
    text.push('\n');
    for s in shard_map {
        let idx = get_u64(s, "shard").unwrap_or(0);
        let up = s.get("up").and_then(Value::as_bool) == Some(true);
        let healthy = s.get("healthy").and_then(Value::as_bool) == Some(true);
        let failed_over = s.get("failed_over").and_then(Value::as_bool) == Some(true);
        let health = match (up, healthy, failed_over) {
            (false, _, _) => "down",
            (true, false, _) => "susp",
            (true, true, true) => "ok+fo",
            (true, true, false) => "ok",
        };
        let engine = engines.get(&idx);
        let rates = series.get(&idx).and_then(|s| s.get("rates"));
        let lat = engine.and_then(|m| m.get("latency"));
        push_row(
            text,
            &idx.to_string(),
            s.get("role").and_then(Value::as_str).unwrap_or("?"),
            health,
            rates.and_then(|r| get_f64(r, "completed_per_s")),
            rates.and_then(|r| get_f64(r, "quota_refused_per_s")),
            lat.and_then(|l| get_u64(l, "p50_us")),
            lat.and_then(|l| get_u64(l, "p99_us")),
            rates.and_then(|r| get_f64(r, "queue_wait_share")),
            get_u64(s, "log_seq"),
            get_u64(s, "repl_lag"),
            s.get("addr").and_then(Value::as_str).unwrap_or("?"),
        );
    }
}

/// Single engine: one totals line and one row, rates from the
/// engine's own `history` response.
fn render_single(text: &mut String, connect: &str, metrics: &Value, history: &Value) {
    let Some(m) = metrics.get("metrics") else {
        text.push_str("(metrics response carried no metrics object)\n");
        return;
    };
    let rates = history.get("rates");
    text.push_str(&format!(
        "engine: uptime {}s · qps {} · completed {} · failed {} · queue_depth {} · tenants {}\n\n",
        fmt_u(get_u64(m, "uptime_s")),
        fmt_f(rates.and_then(|r| get_f64(r, "completed_per_s")), 1),
        fmt_u(get_u64(m, "completed")),
        fmt_u(get_u64(m, "failed")),
        fmt_u(get_u64(m, "queue_depth")),
        fmt_u(get_u64(m, "tenants")),
    ));
    text.push_str(ROW_HEADER);
    text.push('\n');
    let lat = m.get("latency");
    push_row(
        text,
        m.get("shard").and_then(Value::as_str).unwrap_or("0"),
        m.get("role").and_then(Value::as_str).unwrap_or("single"),
        "ok",
        rates.and_then(|r| get_f64(r, "completed_per_s")),
        rates.and_then(|r| get_f64(r, "quota_refused_per_s")),
        lat.and_then(|l| get_u64(l, "p50_us")),
        lat.and_then(|l| get_u64(l, "p99_us")),
        rates.and_then(|r| get_f64(r, "queue_wait_share")),
        get_u64(m, "log_seq"),
        None,
        connect,
    );
}

/// Top-tenants-by-ops panel: per-tenant completed op counts plus
/// quota-refused counts, summed across shards when scraping a router.
/// A tenant with a climbing refused column and a flat ops column is
/// starving on its budget — the signal `docs/quotas.md` keys its
/// runbook on.
fn render_tenants(text: &mut String, metrics: &Value) {
    let mut acc: Vec<(String, u64, u64)> = Vec::new();
    let Some(m) = metrics.get("metrics") else {
        return;
    };
    match m.get("per_shard").and_then(Value::as_arr) {
        Some(per_shard) => {
            for p in per_shard {
                if let Some(sm) = p.get("metrics") {
                    accumulate_tenants(sm, &mut acc);
                }
            }
        }
        None => accumulate_tenants(m, &mut acc),
    }
    if acc.is_empty() {
        return;
    }
    acc.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    text.push_str(&format!(
        "\ntop tenants by ops:\n  {:<24} {:>8} {:>8}\n",
        "tenant", "ops", "refused"
    ));
    for (tenant, ops, refused) in acc.iter().take(8) {
        text.push_str(&format!("  {tenant:<24} {ops:>8} {refused:>8}\n"));
    }
}

fn accumulate_tenants(m: &Value, acc: &mut Vec<(String, u64, u64)>) {
    if let Some(Value::Obj(rows)) = m.get("per_tenant") {
        for (tenant, row) in rows {
            let ops: u64 = ["embed", "detect", "maintain"]
                .iter()
                .filter_map(|k| get_u64(row, k))
                .sum();
            let refused = get_u64(row, "quota_refused").unwrap_or(0);
            match acc.iter_mut().find(|(t, ..)| t == tenant) {
                Some((_, o, r)) => {
                    *o += ops;
                    *r += refused;
                }
                None => acc.push((tenant.clone(), ops, refused)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROUTER_METRICS: &str = concat!(
        "{\"ok\":true,\"op\":\"metrics\",\"scheme\":\"jump\",",
        "\"router\":{\"clients_accepted\":4,\"clients_active\":1,\"forwarded\":9,",
        "\"refused\":0,\"inflight_failed\":2,\"draining\":false},",
        "\"shard_map\":[",
        "{\"shard\":0,\"addr\":\"127.0.0.1:7701\",\"up\":true,\"healthy\":true,",
        "\"standby\":\"127.0.0.1:7703\",\"promoting\":false,\"failed_over\":false,",
        "\"role\":\"primary\",\"log_seq\":42,\"standby_log_seq\":40,\"repl_lag\":2,",
        "\"routed\":5,\"latency\":{\"count\":5,\"mean_us\":900,\"p50_us\":800,\"p99_us\":2000}},",
        "{\"shard\":1,\"addr\":\"127.0.0.1:7702\",\"up\":false,\"healthy\":false,",
        "\"standby\":null,\"promoting\":false,\"failed_over\":true,",
        "\"role\":null,\"log_seq\":null,\"standby_log_seq\":null,\"repl_lag\":null,",
        "\"routed\":4,\"latency\":{\"count\":0,\"mean_us\":0,\"p50_us\":0,\"p99_us\":0}}],",
        "\"metrics\":{\"shard_count\":2,\"shards_up\":1,",
        "\"totals\":{\"completed\":9,\"failed\":0},",
        "\"per_shard\":[{\"shard\":0,\"addr\":\"127.0.0.1:7701\",\"up\":true,",
        "\"metrics\":{\"latency\":{\"p50_us\":640,\"p99_us\":1700},",
        "\"per_tenant\":{\"acme\":{\"embed\":2,\"detect\":3,\"maintain\":0,",
        "\"rejected\":0,\"quota_refused\":4},",
        "\"globex\":{\"embed\":1,\"detect\":0,\"maintain\":0,\"rejected\":0}}}},",
        "{\"shard\":1,\"addr\":\"127.0.0.1:7702\",\"up\":false,\"metrics\":null}]}}",
    );

    const ROUTER_HISTORY: &str = concat!(
        "{\"ok\":true,\"op\":\"history\",\"router\":true,\"series\":[",
        "{\"shard_index\":0,\"retain\":{\"capacity\":240,\"interval_ms\":1000},",
        "\"count\":2,\"rates\":{\"window_s\":1.0,\"completed_per_s\":6.5,",
        "\"quota_refused_per_s\":1.5,",
        "\"queue_wait_share\":0.05}}]}",
    );

    #[test]
    fn router_frame_renders_rows_and_totals() {
        let metrics = json::parse(ROUTER_METRICS).unwrap();
        let history = json::parse(ROUTER_HISTORY).unwrap();
        let mut text = String::new();
        render_router(&mut text, &metrics, &history);
        render_tenants(&mut text, &metrics);
        assert!(text.contains("tier: 2 shards (1 up) · qps 6.5"), "{text}");
        assert!(text.contains("inflight_failed 2"), "{text}");
        // Shard 0: role, engine-side latency, lag, history rates.
        let row0 = text
            .lines()
            .find(|l| l.contains("127.0.0.1:7701"))
            .expect("shard 0 row");
        for needle in [
            "primary", "ok", "6.5", "1.5", "640", "1700", "5.0", "42", "2",
        ] {
            assert!(row0.contains(needle), "{needle:?} missing from {row0:?}");
        }
        // Shard 1 is down with no data: dashes, not zeros.
        let row1 = text
            .lines()
            .find(|l| l.contains("127.0.0.1:7702"))
            .expect("shard 1 row");
        assert!(row1.contains("down"), "{row1}");
        assert!(row1.contains('-'), "{row1}");
        // Tenants merge across shards, ordered by op count, with the
        // quota-refused count alongside.
        let acme_line = text.lines().find(|l| l.contains("acme")).unwrap();
        assert!(acme_line.contains('4'), "{acme_line}");
        let acme = text.lines().position(|l| l.contains("acme")).unwrap();
        let globex = text.lines().position(|l| l.contains("globex")).unwrap();
        assert!(acme < globex, "{text}");
    }

    #[test]
    fn single_engine_frame_renders_one_row() {
        let metrics = json::parse(concat!(
            "{\"ok\":true,\"op\":\"metrics\",\"metrics\":{",
            "\"uptime_s\":12,\"completed\":7,\"failed\":0,\"queue_depth\":0,",
            "\"tenants\":1,\"shard\":\"0/2\",\"role\":\"primary\",\"log_seq\":9,",
            "\"latency\":{\"p50_us\":500,\"p99_us\":1200},",
            "\"per_tenant\":{\"acme\":{\"embed\":1,\"detect\":6,\"maintain\":0}}}}",
        ))
        .unwrap();
        let history = json::parse(concat!(
            "{\"ok\":true,\"op\":\"history\",\"count\":2,\"rates\":{",
            "\"window_s\":1.0,\"completed_per_s\":3.0,",
            "\"queue_wait_share\":0.0}}",
        ))
        .unwrap();
        let mut text = String::new();
        render_single(&mut text, "127.0.0.1:7700", &metrics, &history);
        render_tenants(&mut text, &metrics);
        assert!(text.contains("engine: uptime 12s · qps 3.0"), "{text}");
        let row = text
            .lines()
            .find(|l| l.contains("127.0.0.1:7700"))
            .expect("engine row");
        for needle in ["0/2", "primary", "3.0", "500", "1200", "9"] {
            assert!(row.contains(needle), "{needle:?} missing from {row:?}");
        }
        assert!(text.contains("acme"), "{text}");
    }

    #[test]
    fn refused_op_is_an_error() {
        assert!(parse_ok("{\"ok\":true,\"op\":\"metrics\"}", "metrics").is_ok());
        let err = parse_ok("{\"ok\":false,\"error\":\"auth required\"}", "metrics").unwrap_err();
        assert!(err.contains("auth required"), "{err}");
        assert!(parse_ok("not json", "metrics").is_err());
    }
}
