//! Command implementations.

use crate::args::{AttackKind, Command, EngineOpts, RouterOpts, ServeNetOpts, USAGE};
use freqywm_attacks::destroy::{destroy_with_reordering, destroy_within_boundaries};
use freqywm_core::detect::detect_dataset;
use freqywm_core::eligible::{eligible_pairs, r_max};
use freqywm_core::generate::Watermarker;
use freqywm_core::judge::{judge_dispute, Claim, Verdict};
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_core::secret::SecretList;
use freqywm_crypto::hex;
use freqywm_crypto::prf::Secret;
use freqywm_data::dataset::Dataset;
use freqywm_data::token::Token;
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::persist::DurableRegistry;
use freqywm_service::proto;
use freqywm_service::storage::DiskLog;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;

fn ledger_key_bytes(key: &Option<String>) -> Vec<u8> {
    key.as_ref()
        .map(|k| k.as_bytes().to_vec())
        .unwrap_or_else(|| EngineConfig::default().ledger_key)
}

fn engine_config(opts: &EngineOpts) -> EngineConfig {
    EngineConfig {
        workers: opts.workers.max(1),
        queue_capacity: opts.queue.max(1),
        snapshot_every: opts.snapshot_every,
        ledger_key: ledger_key_bytes(&opts.ledger_key),
        shard_gate: opts.shard_id.map(|(i, n)| {
            freqywm_service::ShardGate::new(format!("{i}/{n}"), move |tenant| {
                freqywm_shard::tenant_shard(tenant, n) == i
            })
        }),
        slow_ms: opts.slow_ms,
        retain_snapshots: opts.retain_snapshots.max(2),
        retain_interval_ms: opts.retain_interval_ms.max(10),
        quota: {
            let mut quota = freqywm_service::QuotaConfig::default();
            quota.limits.embed = opts.quota_embed.unwrap_or(freqywm_service::UNLIMITED);
            quota.limits.detect = opts.quota_detect.unwrap_or(freqywm_service::UNLIMITED);
            quota.limits.maintain = opts.quota_maintain.unwrap_or(freqywm_service::UNLIMITED);
            if let Some(window_ms) = opts.quota_window_ms {
                quota.window_ms = window_ms;
            }
            quota
        },
        ..EngineConfig::default()
    }
}

/// Starts an engine for `serve`/`batch`: durable when `--data-dir`
/// was given, in-memory otherwise. With `follow` the engine opens as
/// a read-only replica of that primary (its data-dir still recovers
/// and verifies locally first).
fn start_engine(opts: &EngineOpts, follow: Option<String>) -> Result<Engine, String> {
    let mut config = engine_config(opts);
    config.follow = follow;
    match &opts.data_dir {
        Some(dir) => {
            let storage =
                DiskLog::open(dir).map_err(|e| format!("cannot open data-dir {dir}: {e}"))?;
            Engine::open(config, Box::new(storage))
                .map_err(|e| format!("cannot recover data-dir {dir}: {e}"))
        }
        None => Ok(Engine::start(config)),
    }
}

/// Clean engine teardown: checkpoint durable state (so the next open
/// replays nothing), then drain and join workers. Followers skip the
/// checkpoint — compacting a replica's log is the primary's job, and
/// a read-only registry refuses it anyway.
fn stop_engine(engine: &Engine, durable: bool) {
    if durable && !engine.is_follower() {
        let _ = engine.checkpoint();
    }
    engine.shutdown();
}

/// Binds the listen address and runs the epoll reactor until a
/// `shutdown` op completes its graceful drain. The bound address is
/// announced as `listening on <addr>` (port 0 requests an ephemeral
/// port, so callers need the announcement to find it).
fn serve_network(
    engine: &Engine,
    addr: &str,
    net: &ServeNetOpts,
    out: &mut dyn std::io::Write,
) -> Result<(), String> {
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    writeln!(out, "listening on {local}").ok();
    let metrics_listener = bind_metrics_listener(&net.metrics_listen, out)?;
    out.flush().ok();
    let config = freqywm_net::NetConfig {
        max_conns: net.max_conns.max(1),
        idle_timeout: (net.idle_timeout_secs > 0)
            .then(|| std::time::Duration::from_secs(net.idle_timeout_secs)),
        max_frame: net.max_frame.max(1),
        auth_token: net.auth_token.clone(),
        ..freqywm_net::NetConfig::default()
    };
    freqywm_net::serve_listener_with_metrics(engine, listener, metrics_listener, config)
        .map_err(|e| format!("network serve error: {e}"))
}

/// Binds the optional `--metrics-listen` HTTP scrape address and
/// announces it as `metrics on <addr>` (port 0 works like `--listen`:
/// the announcement is how callers learn the ephemeral port).
fn bind_metrics_listener(
    addr: &Option<String>,
    out: &mut dyn std::io::Write,
) -> Result<Option<std::net::TcpListener>, String> {
    let Some(addr) = addr else { return Ok(None) };
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| format!("cannot listen on metrics address {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound metrics address: {e}"))?;
    writeln!(out, "metrics on {local}").ok();
    Ok(Some(listener))
}

/// Binds the router's listen address, announces it and the shard map,
/// and runs the router reactor until a `shutdown` op drains the tier
/// (or SIGTERM/SIGINT drains the router alone).
fn run_router(
    listen: &str,
    shards: Vec<String>,
    standbys: Vec<Option<String>>,
    opts: &RouterOpts,
    out: &mut dyn std::io::Write,
) -> Result<(), String> {
    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    writeln!(out, "listening on {local}").ok();
    // The shard map is the deployment contract — log it so operators
    // can verify placement against each backend's --shard-id.
    write!(
        out,
        "{}",
        freqywm_shard::ShardMap::new(shards.clone()).describe()
    )
    .ok();
    for (i, standby) in standbys.iter().enumerate() {
        if let Some(addr) = standby {
            writeln!(out, "shard {i} standby -> {addr}").ok();
        }
    }
    let metrics_listener = bind_metrics_listener(&opts.metrics_listen, out)?;
    out.flush().ok();
    let config = freqywm_shard::RouterConfig {
        max_conns: opts.max_conns.max(1),
        max_frame: opts.max_frame.max(1),
        probe_interval: std::time::Duration::from_secs(opts.probe_interval_secs.max(1)),
        drain_timeout: std::time::Duration::from_secs(opts.drain_timeout_secs.max(1)),
        failover_timeout: std::time::Duration::from_secs(opts.failover_timeout_secs.max(1)),
        auth_token: opts.auth_token.clone(),
        shard_auth_token: opts.shard_auth_token.clone(),
        handle_signals: true,
        standbys,
        ..freqywm_shard::RouterConfig::new(shards)
    };
    freqywm_shard::run_router_with_metrics(listener, metrics_listener, config)
        .map_err(|e| format!("router error: {e}"))
}

/// One-shot protocol client for `freqywm trace`/`metrics`/`top`:
/// connects, sends the request line, returns the single response line.
pub(crate) fn one_shot_request(addr: &str, request: &str) -> Result<String, String> {
    use std::io::{BufRead, BufReader, Write as _};
    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .ok();
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone connection: {e}"))?;
    writeln!(writer, "{request}").map_err(|e| format!("cannot send request: {e}"))?;
    writer.flush().ok();
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read response: {e}"))?;
    if line.trim().is_empty() {
        return Err(format!("{addr} closed the connection without answering"));
    }
    Ok(line.trim_end().to_string())
}

/// Minimal HTTP scrape client for `freqywm metrics --prom`: one
/// request, read to EOF (the endpoint is `Connection: close`).
/// Returns `(status_line, body)`.
fn http_scrape(addr: &str) -> Result<(String, String), String> {
    use std::io::{Read as _, Write as _};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .ok();
    stream
        .write_all(format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| format!("cannot send scrape request: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("cannot read scrape response: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr} sent a malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or_default().to_string();
    Ok((status, body.to_string()))
}

/// Runs a parsed command. Returns the process exit code.
pub fn run(cmd: Command, out: &mut dyn std::io::Write) -> i32 {
    match run_inner(cmd, out) {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            2
        }
    }
}

fn read_tokens(path: &str) -> Result<Dataset, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let tokens: Vec<Token> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Token::new(l.trim().to_string()))
        .collect();
    if tokens.is_empty() {
        return Err(format!("{path} contains no tokens"));
    }
    Ok(Dataset::new(tokens))
}

fn write_tokens(path: &str, data: &Dataset) -> Result<(), String> {
    let mut text = String::with_capacity(data.len() * 12);
    for t in data.iter() {
        text.push_str(t.as_str());
        text.push('\n');
    }
    fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn run_inner(cmd: Command, out: &mut dyn std::io::Write) -> Result<i32, String> {
    match cmd {
        Command::Help => {
            writeln!(out, "{USAGE}").ok();
            Ok(0)
        }
        Command::Generate {
            input,
            output,
            secret_out,
            budget,
            z,
            selection,
            exclude_free_pairs,
            secret_label,
        } => {
            let data = read_tokens(&input)?;
            let params = GenerationParams::default()
                .with_budget(budget)
                .with_z(z)
                .with_selection(selection)
                .with_exclude_free_pairs(exclude_free_pairs);
            let secret = match secret_label {
                Some(label) => Secret::from_label(&label),
                None => Secret::generate(&mut rand::rngs::OsRng),
            };
            let (wdata, secrets, report) = Watermarker::new(params)
                .watermark_dataset(&data, secret)
                .map_err(|e| e.to_string())?;
            write_tokens(&output, &wdata)?;
            fs::write(&secret_out, secrets.to_text())
                .map_err(|e| format!("cannot write {secret_out}: {e}"))?;
            writeln!(
                out,
                "watermarked {} tokens -> {output}\n  distinct tokens: {}\n  eligible pairs: {}\n  \
                 matched pairs: {}\n  chosen pairs: {}\n  similarity: {:.6}%\n  instances changed: {}\n  \
                 secrets -> {secret_out}",
                data.len(),
                report.distinct_tokens,
                report.eligible_pairs,
                report.matched_pairs,
                report.chosen_pairs,
                report.similarity_pct,
                report.total_change,
            )
            .ok();
            Ok(0)
        }
        Command::Detect {
            input,
            secret,
            t,
            k,
            scale,
        } => {
            let data = read_tokens(&input)?;
            let text =
                fs::read_to_string(&secret).map_err(|e| format!("cannot read {secret}: {e}"))?;
            let secrets = SecretList::from_text(&text).map_err(|e| e.to_string())?;
            let mut params = DetectionParams::default().with_t(t).with_k(k);
            if let Some(s) = scale {
                params = params.with_scale(s);
            }
            let outcome = detect_dataset(&data, &secrets, &params);
            writeln!(
                out,
                "pairs: {} stored, {} present, {} verified (t={t}, k={k})\nresult: {}",
                outcome.total_pairs,
                outcome.present_pairs,
                outcome.accepted_pairs,
                if outcome.accepted { "ACCEPT" } else { "REJECT" },
            )
            .ok();
            Ok(if outcome.accepted { 0 } else { 1 })
        }
        Command::Inspect { input, z } => {
            let data = read_tokens(&input)?;
            let hist = data.histogram();
            // Capacity probe with a throwaway secret: |Le| depends on
            // the secret only through the s_ij draws, so any secret
            // gives a representative figure.
            let probe = Secret::from_label("freqywm-inspect-probe");
            let eligible = eligible_pairs(&hist, &probe, z);
            let counts = hist.counts();
            writeln!(
                out,
                "tokens: {}\ndistinct: {}\ntop frequency: {}\nbottom frequency: {}\n\
                 r_max: {} (valid z range: 2..{})\neligible pairs at z={z}: {}\n\
                 max watermark pairs (matching bound): {}",
                data.len(),
                hist.len(),
                counts.first().copied().unwrap_or(0),
                counts.last().copied().unwrap_or(0),
                r_max(&hist),
                r_max(&hist),
                eligible.len(),
                hist.len() / 2,
            )
            .ok();
            Ok(0)
        }
        Command::Judge {
            a_input,
            a_secret,
            b_input,
            b_secret,
            t,
            quorum,
        } => {
            if !(0.0..=1.0).contains(&quorum) {
                return Err(format!("quorum must be in [0,1], got {quorum}"));
            }
            let load = |data_path: &str, secret_path: &str| -> Result<Claim, String> {
                let data = read_tokens(data_path)?;
                let text = fs::read_to_string(secret_path)
                    .map_err(|e| format!("cannot read {secret_path}: {e}"))?;
                let secrets = SecretList::from_text(&text).map_err(|e| e.to_string())?;
                Ok(Claim {
                    histogram: data.histogram(),
                    secrets,
                })
            };
            let a = load(&a_input, &a_secret)?;
            let b = load(&b_input, &b_secret)?;
            let k = ((a.secrets.len().min(b.secrets.len()) as f64 * quorum).ceil() as usize).max(1);
            let params = DetectionParams::default().with_t(t).with_k(k);
            let ruling = judge_dispute(&a, &b, &params);
            writeln!(
                out,
                "four-run protocol (t={t}, k={k}):\n  A's secret: on A {}/{}, on B {}/{}\n                   B's secret: on B {}/{}, on A {}/{}\nverdict: {}",
                ruling.a_on_a.accepted_pairs,
                ruling.a_on_a.total_pairs,
                ruling.a_on_b.accepted_pairs,
                ruling.a_on_b.total_pairs,
                ruling.b_on_b.accepted_pairs,
                ruling.b_on_b.total_pairs,
                ruling.b_on_a.accepted_pairs,
                ruling.b_on_a.total_pairs,
                match ruling.verdict {
                    Verdict::FirstParty => "FIRST PARTY (A) is the rightful owner",
                    Verdict::SecondParty => "SECOND PARTY (B) is the rightful owner",
                    Verdict::Inconclusive => "INCONCLUSIVE — consult ledger chronology",
                },
            )
            .ok();
            Ok(0)
        }
        Command::Serve { engine: opts, net } => {
            let engine = std::sync::Arc::new(start_engine(&opts, net.follow.clone())?);
            if let Some(primary) = &net.follow {
                // Announce follower mode before binding so harnesses
                // tailing stdout see the role before the address.
                writeln!(out, "following {primary} (read-only until promoted)").ok();
                out.flush().ok();
                let mut follower = freqywm_service::FollowerConfig::new(primary.clone());
                follower.auth_token = net.follow_token.clone();
                freqywm_service::spawn_follower(engine.clone(), follower);
            }
            match &net.listen {
                Some(addr) => serve_network(&engine, addr, &net, out)?,
                None => {
                    // stdin/stdout pipe: pipelined through the same
                    // Session machinery as the socket path; EOF takes
                    // the graceful-drain route (in-flight responses
                    // flush before exit).
                    proto::serve(
                        &engine,
                        std::io::BufReader::new(std::io::stdin()),
                        &mut *out,
                        net.max_frame.max(1),
                        net.auth_token.clone(),
                    )
                    .map_err(|e| format!("serve I/O error: {e}"))?;
                }
            }
            stop_engine(&engine, opts.data_dir.is_some());
            Ok(0)
        }
        Command::Router {
            listen,
            shards,
            standbys,
            opts,
        } => {
            run_router(&listen, shards, standbys, &opts, out)?;
            Ok(0)
        }
        Command::Batch {
            input,
            engine: opts,
        } => {
            let text =
                fs::read_to_string(&input).map_err(|e| format!("cannot read {input}: {e}"))?;
            let lines: Vec<String> = text.lines().map(str::to_string).collect();
            let engine = start_engine(&opts, None)?;
            let responses = proto::run_batch(&engine, &lines);
            let failed = responses
                .iter()
                .filter(|r| r.starts_with("{\"ok\":false"))
                .count();
            for r in &responses {
                writeln!(out, "{r}").ok();
            }
            stop_engine(&engine, opts.data_dir.is_some());
            Ok(if failed == 0 { 0 } else { 1 })
        }
        Command::Metrics {
            connect,
            prom,
            check,
            auth,
        } => {
            if prom {
                let (status, body) = http_scrape(&connect)?;
                if !status.contains("200") {
                    return Err(format!("scrape of {connect} failed: {status}"));
                }
                write!(out, "{body}").ok();
                if check {
                    // A comment line keeps the output a valid
                    // exposition for anything piping it onward.
                    let families = freqywm_obs::prom::parse_exposition(&body)
                        .map_err(|e| format!("exposition invalid: {e}"))?;
                    let samples: usize = families.iter().map(|f| f.samples.len()).sum();
                    writeln!(
                        out,
                        "# exposition OK: {} families, {samples} samples",
                        families.len()
                    )
                    .ok();
                }
                Ok(0)
            } else {
                use freqywm_service::proto::json;
                let req = match &auth {
                    Some(token) => {
                        format!(
                            "{{\"op\":\"metrics\",\"auth\":\"{}\"}}",
                            json::escape(token)
                        )
                    }
                    None => "{\"op\":\"metrics\"}".to_string(),
                };
                let response = one_shot_request(&connect, &req)?;
                writeln!(out, "{response}").ok();
                Ok(if response.starts_with("{\"ok\":true") {
                    0
                } else {
                    1
                })
            }
        }
        Command::Top {
            connect,
            interval_ms,
            once,
            auth,
        } => crate::top::run_top(&connect, interval_ms, once, auth.as_deref(), out),
        Command::Quota {
            connect,
            tenant,
            embed,
            detect,
            maintain,
            window_ms,
            auth,
        } => {
            use freqywm_service::proto::json;
            let mut req = format!(
                "{{\"op\":\"quota\",\"tenant\":\"{}\"",
                json::escape(&tenant)
            );
            for (key, value) in [
                ("embed", embed),
                ("detect", detect),
                ("maintain", maintain),
                ("window_ms", window_ms),
            ] {
                if let Some(n) = value {
                    req.push_str(&format!(",\"{key}\":{n}"));
                }
            }
            if let Some(token) = &auth {
                req.push_str(&format!(",\"auth\":\"{}\"", json::escape(token)));
            }
            req.push('}');
            let response = one_shot_request(&connect, &req)?;
            writeln!(out, "{response}").ok();
            Ok(if response.starts_with("{\"ok\":true") {
                0
            } else {
                1
            })
        }
        Command::Trace {
            connect,
            trace,
            tenant,
            for_op,
            min_ms,
            limit,
            auth,
        } => {
            use freqywm_service::proto::json;
            let mut req = String::from("{\"op\":\"trace\"");
            for (key, value) in [
                ("trace", &trace),
                ("tenant", &tenant),
                ("for_op", &for_op),
                ("auth", &auth),
            ] {
                if let Some(v) = value {
                    req.push_str(&format!(",\"{key}\":\"{}\"", json::escape(v)));
                }
            }
            if let Some(ms) = min_ms {
                req.push_str(&format!(",\"min_ms\":{ms}"));
            }
            if let Some(n) = limit {
                req.push_str(&format!(",\"limit\":{n}"));
            }
            req.push('}');
            let response = one_shot_request(&connect, &req)?;
            writeln!(out, "{response}").ok();
            Ok(if response.starts_with("{\"ok\":true") {
                0
            } else {
                1
            })
        }
        Command::LedgerVerify {
            data_dir,
            ledger_key,
        } => {
            // Read-only recovery: snapshot + log replay re-proves the
            // whole hash chain without touching the data-dir.
            let key = ledger_key_bytes(&ledger_key);
            let storage = DiskLog::open_read_only(&data_dir)
                .map_err(|e| format!("cannot open data-dir {data_dir}: {e}"))?;
            let mut outcome = DurableRegistry::open_read_only(&key, Box::new(storage));
            if outcome.is_err() {
                // A live serve process compacting between our snapshot
                // and log reads can cause a transient mismatch; retry
                // once on a fresh read before trusting the verdict.
                if let Ok(storage) = DiskLog::open_read_only(&data_dir) {
                    outcome = DurableRegistry::open_read_only(&key, Box::new(storage));
                }
            }
            match outcome {
                Ok(registry) => {
                    let report = registry.recovery_report();
                    writeln!(
                        out,
                        "ledger OK\n  entries: {}\n  head: {}\n  tenants: {}\n  \
                         snapshot restored: {}\n  replayed events: {}\n  \
                         torn tail bytes dropped: {}",
                        registry.ledger().len(),
                        hex::encode(&registry.ledger().head_hash()),
                        registry.len(),
                        report.snapshot_restored,
                        report.replayed_events,
                        report.torn_tail_bytes,
                    )
                    .ok();
                    Ok(0)
                }
                Err(e) => {
                    writeln!(out, "ledger verification FAILED: {e}").ok();
                    Ok(1)
                }
            }
        }
        Command::Attack {
            input,
            output,
            kind,
            param,
            seed,
            ..
        } => {
            let data = read_tokens(&input)?;
            let mut rng = StdRng::seed_from_u64(seed);
            let attacked: Dataset = match kind {
                AttackKind::Sample => {
                    if !(param > 0.0 && param <= 1.0) {
                        return Err(format!("sample fraction must be in (0,1], got {param}"));
                    }
                    data.sample(param, &mut rng)
                }
                AttackKind::Destroy | AttackKind::Reorder => {
                    let hist = data.histogram();
                    let target = match kind {
                        AttackKind::Destroy => destroy_within_boundaries(&hist, &mut rng),
                        _ => destroy_with_reordering(&hist, param, &mut rng),
                    };
                    // Materialise the attacked histogram as a token list.
                    let mut d = data.clone();
                    for (token, want) in target.entries() {
                        let have = hist.count(token).unwrap_or(0);
                        match want.cmp(&have) {
                            std::cmp::Ordering::Greater => {
                                d.insert_instances(token, want - have, &mut rng)
                            }
                            std::cmp::Ordering::Less => {
                                d.remove_instances(token, have - want, &mut rng)
                            }
                            std::cmp::Ordering::Equal => {}
                        }
                    }
                    d
                }
            };
            write_tokens(&output, &attacked)?;
            writeln!(
                out,
                "attacked dataset: {} tokens -> {output}",
                attacked.len()
            )
            .ok();
            Ok(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;
    use std::path::PathBuf;

    fn tmp(name: &str) -> String {
        let mut p: PathBuf = std::env::temp_dir();
        p.push(format!("freqywm-cli-test-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn sample_file() -> String {
        // One file per call: tests run in parallel, and a rewrite
        // truncates the file under a concurrent reader.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = tmp(&format!("input-{n}.txt"));
        // Heavy-tailed token file with plenty of variation.
        let mut text = String::new();
        for i in 0..60u64 {
            let reps = 2_000u64 / (i + 1);
            for _ in 0..reps {
                text.push_str(&format!("token-{i:02}\n"));
            }
        }
        fs::write(&path, text).unwrap();
        path
    }

    fn run_line(line: &[&str]) -> (i32, String) {
        let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        let cmd = parse_args(&args).expect("parse");
        let mut buf = Vec::new();
        let code = run(cmd, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn generate_detect_round_trip() {
        let input = sample_file();
        let output = tmp("wm.txt");
        let secret = tmp("secret.fwm");
        // Free-pair exclusion so the original file cannot coincidentally
        // carry the full watermark.
        let (code, log) = run_line(&[
            "generate",
            "--input",
            &input,
            "--output",
            &output,
            "--secret-out",
            &secret,
            "--z",
            "19",
            "--secret-label",
            "cli-test",
            "--exclude-free-pairs",
        ]);
        assert_eq!(code, 0, "{log}");
        assert!(log.contains("chosen pairs"));

        let (code, log) = run_line(&["detect", "--input", &output, "--secret", &secret]);
        assert_eq!(code, 0, "{log}");
        assert!(log.contains("ACCEPT"));

        // The original file must NOT verify fully: demand every pair.
        let stored = SecretList::from_text(&fs::read_to_string(&secret).unwrap()).unwrap();
        let (code, _) = run_line(&[
            "detect",
            "--input",
            &input,
            "--secret",
            &secret,
            "--k",
            &stored.len().to_string(),
        ]);
        assert_eq!(code, 1, "original data should fail strict detection");
    }

    #[test]
    fn inspect_reports_capacity() {
        let input = sample_file();
        let (code, log) = run_line(&["inspect", "--input", &input, "--z", "19"]);
        assert_eq!(code, 0);
        assert!(log.contains("distinct: 60"), "{log}");
        assert!(log.contains("eligible pairs"), "{log}");
    }

    #[test]
    fn attack_sample_and_detect_with_scale() {
        let input = sample_file();
        let output = tmp("wm2.txt");
        let secret = tmp("secret2.fwm");
        let attacked = tmp("attacked.txt");
        run_line(&[
            "generate",
            "--input",
            &input,
            "--output",
            &output,
            "--secret-out",
            &secret,
            "--z",
            "19",
            "--secret-label",
            "cli-test-2",
        ]);
        let (code, _) = run_line(&[
            "attack", "--input", &output, "--output", &attacked, "--kind", "sample", "--param",
            "0.5", "--seed", "3",
        ]);
        assert_eq!(code, 0);
        let (code, log) = run_line(&[
            "detect", "--input", &attacked, "--secret", &secret, "--t", "6", "--scale", "2.0",
        ]);
        assert_eq!(code, 0, "{log}");
    }

    #[test]
    fn judge_resolves_rewatermark_dispute() {
        let input = sample_file();
        let owner_out = tmp("owner.txt");
        let owner_secret = tmp("owner.fwm");
        run_line(&[
            "generate",
            "--input",
            &input,
            "--output",
            &owner_out,
            "--secret-out",
            &owner_secret,
            "--z",
            "19",
            "--secret-label",
            "cli-owner",
            "--exclude-free-pairs",
        ]);
        // Pirate re-watermarks the owner's output.
        let pirate_out = tmp("pirate.txt");
        let pirate_secret = tmp("pirate.fwm");
        run_line(&[
            "generate",
            "--input",
            &owner_out,
            "--output",
            &pirate_out,
            "--secret-out",
            &pirate_secret,
            "--z",
            "19",
            "--secret-label",
            "cli-pirate",
            "--exclude-free-pairs",
        ]);
        let (code, log) = run_line(&[
            "judge",
            "--a-input",
            &owner_out,
            "--a-secret",
            &owner_secret,
            "--b-input",
            &pirate_out,
            "--b-secret",
            &pirate_secret,
            "--quorum",
            "0.25",
        ]);
        assert_eq!(code, 0, "{log}");
        assert!(log.contains("FIRST PARTY"), "{log}");
    }

    #[test]
    fn batch_runs_service_requests() {
        let reqs = tmp("requests.jsonl");
        // Power-law counts inline; register → embed → detect the
        // original (partial) — all through the service engine.
        let counts: Vec<String> = (0..60u64)
            .map(|i| format!("[\"token-{i:02}\",{}]", 2_000 / (i + 1)))
            .collect();
        let counts = format!("[{}]", counts.join(","));
        let text = format!(
            concat!(
                "{{\"op\":\"register\",\"tenant\":\"cli\",\"secret_label\":\"cli-batch\"}}\n",
                "{{\"op\":\"embed\",\"tenant\":\"cli\",\"z\":19,\"counts\":{c}}}\n",
                "{{\"op\":\"detect\",\"tenant\":\"cli\",\"t\":2,\"k\":1,\"counts\":{c}}}\n",
                "{{\"op\":\"metrics\"}}\n",
            ),
            c = counts
        );
        fs::write(&reqs, text).unwrap();
        let (code, log) = run_line(&["batch", "--input", &reqs, "--workers", "2"]);
        assert_eq!(code, 0, "{log}");
        let lines: Vec<&str> = log.trim().lines().collect();
        assert_eq!(lines.len(), 4, "{log}");
        assert!(lines[0].contains("ledger_index"), "{log}");
        assert!(lines[1].contains("chosen_pairs"), "{log}");
        assert!(lines[2].contains("\"op\":\"detect\""), "{log}");
        assert!(lines[3].contains("\"completed\":2"), "{log}");
    }

    #[test]
    fn batch_reports_malformed_json_line_and_exits_nonzero() {
        let reqs = tmp("malformed.jsonl");
        fs::write(
            &reqs,
            "{\"op\":\"metrics\"}\n# comment\nthis is not json\n{\"op\":\"metrics\"}\n",
        )
        .unwrap();
        let (code, log) = run_line(&["batch", "--input", &reqs]);
        assert_eq!(code, 1, "{log}");
        assert!(log.contains("line 3"), "{log}");
        assert!(log.contains("bad json"), "{log}");
    }

    #[test]
    fn durable_data_dir_survives_torn_restart_and_verifies() {
        let dir = tmp("data-dir");
        let _ = fs::remove_dir_all(&dir);
        let reqs = tmp("durable-requests.jsonl");
        let counts: Vec<String> = (0..60u64)
            .map(|i| format!("[\"token-{i:02}\",{}]", 2_000 / (i + 1)))
            .collect();
        let counts = format!("[{}]", counts.join(","));
        fs::write(
            &reqs,
            format!(
                concat!(
                    "{{\"op\":\"register\",\"tenant\":\"dur\",\"secret_label\":\"cli-durable\"}}\n",
                    "{{\"op\":\"embed\",\"tenant\":\"dur\",\"z\":19,\"counts\":{c}}}\n",
                ),
                c = counts
            ),
        )
        .unwrap();
        let (code, log) = run_line(&["batch", "--input", &reqs, "--data-dir", &dir]);
        assert_eq!(code, 0, "{log}");

        // A crash mid-append leaves a torn record at the log tail.
        use std::io::Write as _;
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(format!("{dir}/registry.log"))
            .unwrap();
        f.write_all(&[0, 0, 0, 99, 1, 2, 3]).unwrap();
        drop(f);

        // Verification recovers, drops the torn tail, re-proves the chain.
        let (code, log) = run_line(&["ledger", "verify", "--data-dir", &dir]);
        assert_eq!(code, 0, "{log}");
        assert!(log.contains("ledger OK"), "{log}");
        assert!(log.contains("torn tail bytes dropped: 7"), "{log}");
        assert!(log.contains("tenants: 1"), "{log}");

        // The recovered tenant serves detect traffic without re-registering.
        let reqs2 = tmp("durable-requests-2.jsonl");
        fs::write(
            &reqs2,
            format!(
                "{{\"op\":\"detect\",\"tenant\":\"dur\",\"t\":2,\"k\":1,\"counts\":{counts}}}\n"
            ),
        )
        .unwrap();
        let (code, log) = run_line(&["batch", "--input", &reqs2, "--data-dir", &dir]);
        assert_eq!(code, 0, "{log}");
        assert!(!log.contains("unknown tenant"), "{log}");

        // A wrong key must fail verification: the chain cannot re-prove.
        let (code, log) = run_line(&[
            "ledger",
            "verify",
            "--data-dir",
            &dir,
            "--ledger-key",
            "imposter",
        ]);
        assert_eq!(code, 1, "{log}");
        assert!(log.contains("FAILED"), "{log}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_enforces_quota_budgets() {
        let reqs = tmp("quota-requests.jsonl");
        let counts: Vec<String> = (0..60u64)
            .map(|i| format!("[\"token-{i:02}\",{}]", 2_000 / (i + 1)))
            .collect();
        let counts = format!("[{}]", counts.join(","));
        // The default engine budget (--quota-embed 1) admits the first
        // embed; the live `quota` op raises it so the third passes too.
        fs::write(
            &reqs,
            format!(
                concat!(
                    "{{\"op\":\"register\",\"tenant\":\"q\",\"secret_label\":\"cli-quota\"}}\n",
                    "{{\"op\":\"embed\",\"tenant\":\"q\",\"z\":19,\"counts\":{c}}}\n",
                    "{{\"op\":\"embed\",\"tenant\":\"q\",\"z\":19,\"counts\":{c}}}\n",
                    "{{\"op\":\"quota\",\"tenant\":\"q\",\"embed\":100}}\n",
                    "{{\"op\":\"embed\",\"tenant\":\"q\",\"z\":19,\"counts\":{c}}}\n",
                ),
                c = counts
            ),
        )
        .unwrap();
        let (code, log) = run_line(&["batch", "--input", &reqs, "--quota-embed", "1"]);
        // One refused request → nonzero, like any failed batch line.
        assert_eq!(code, 1, "{log}");
        let lines: Vec<&str> = log.trim().lines().collect();
        assert_eq!(lines.len(), 5, "{log}");
        assert!(lines[1].contains("\"ok\":true"), "{log}");
        assert!(lines[2].contains("quota_exhausted"), "{log}");
        assert!(lines[2].contains("retry_after_ms"), "{log}");
        assert!(lines[3].contains("\"op\":\"quota\""), "{log}");
        assert!(lines[4].contains("\"ok\":true"), "{log}");
    }

    #[test]
    fn batch_stops_at_shutdown() {
        let reqs = tmp("shutdown-requests.jsonl");
        fs::write(
            &reqs,
            concat!(
                "{\"op\":\"register\",\"tenant\":\"s\",\"secret_label\":\"cli-sd\"}\n",
                "{\"op\":\"shutdown\"}\n",
                "{\"op\":\"metrics\"}\n",
            ),
        )
        .unwrap();
        let (code, log) = run_line(&["batch", "--input", &reqs]);
        assert_eq!(code, 1, "{log}");
        let lines: Vec<&str> = log.trim().lines().collect();
        assert_eq!(lines.len(), 3, "{log}");
        assert!(lines[2].contains("session shutting down"), "{log}");
    }

    #[test]
    fn batch_with_unknown_tenant_fails_nonzero() {
        let reqs = tmp("bad-requests.jsonl");
        fs::write(
            &reqs,
            "{\"op\":\"detect\",\"tenant\":\"ghost\",\"counts\":[[\"a\",1]]}\n",
        )
        .unwrap();
        let (code, log) = run_line(&["batch", "--input", &reqs]);
        assert_eq!(code, 1, "{log}");
        assert!(log.contains("unknown tenant"), "{log}");
    }

    #[test]
    fn missing_file_is_error() {
        let (code, log) = run_line(&[
            "detect",
            "--input",
            "/nonexistent/tokens.txt",
            "--secret",
            "/nonexistent/s",
        ]);
        assert_eq!(code, 2);
        assert!(log.contains("error"));
    }

    #[test]
    fn help_prints_usage() {
        let (code, log) = run_line(&["help"]);
        assert_eq!(code, 0);
        assert!(log.contains("USAGE"));
    }
}
