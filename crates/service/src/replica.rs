//! Log-tailing replication client: the `freqywm serve --follow` side.
//!
//! A follower is a normal engine whose registry mutations are gated
//! off ([`crate::error::ServiceError::ReadOnlyFollower`]); this module
//! provides the background thread that keeps it converged with its
//! primary. The thread speaks the ordinary JSON-lines protocol as a
//! client — `hello` (when the primary requires a token), then a
//! `replicate` poll loop shipping sealed log events (or a snapshot
//! when the primary compacted past the follower's position). Events
//! apply through the same chain-verifying write-ahead path as local
//! mutations, so the follower's own data-dir is byte-for-byte
//! replayable and its chain head converges to the primary's.
//!
//! The loop is deliberately boring: poll, apply, sleep when caught
//! up, reconnect with exponential backoff when the primary dies —
//! and exit the moment a `promote` op lifts the follower gate (the
//! engine refuses replica batches from then on, so a racing batch
//! can never clobber post-promotion writes).

use crate::engine::Engine;
use crate::persist::ReplicaBatch;
use crate::proto::json::{self, Value};
use freqywm_crypto::hex;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the follower thread reaches and paces its primary.
#[derive(Debug, Clone, PartialEq)]
pub struct FollowerConfig {
    /// Primary address (`host:port`) whose log this engine tails.
    pub primary: String,
    /// Shared-secret token the primary's front-end requires, if any.
    pub auth_token: Option<String>,
    /// Sleep between `replicate` polls once caught up.
    pub poll_interval: Duration,
    /// First reconnect delay after the primary drops.
    pub reconnect_min: Duration,
    /// Reconnect delay cap (exponential backoff).
    pub reconnect_max: Duration,
}

impl FollowerConfig {
    pub fn new(primary: impl Into<String>) -> Self {
        FollowerConfig {
            primary: primary.into(),
            auth_token: None,
            poll_interval: Duration::from_millis(50),
            reconnect_min: Duration::from_millis(100),
            reconnect_max: Duration::from_secs(3),
        }
    }
}

/// Spawns the replication thread. It runs until the engine stops
/// being a follower (promotion) and needs no explicit join — a
/// promoted or exiting process simply abandons it mid-sleep.
pub fn spawn_follower(engine: Arc<Engine>, config: FollowerConfig) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("freqywm-follower".into())
        .spawn(move || follower_loop(&engine, &config))
        .expect("spawn follower thread")
}

fn follower_loop(engine: &Engine, config: &FollowerConfig) {
    let mut backoff = config.reconnect_min;
    while engine.is_follower() {
        match follow_once(engine, config, &mut backoff) {
            Ok(()) => return, // promoted
            Err(e) => {
                // The primary dying is exactly the scenario a standby
                // exists for: stay read-only, keep retrying, and let
                // the router decide when to promote.
                eprintln!(
                    "{{\"event\":\"follower_disconnected\",\"primary\":\"{}\",\"error\":\"{}\"}}",
                    json::escape(&config.primary),
                    json::escape(&e)
                );
            }
        }
        sleep_while_follower(engine, backoff);
        backoff = (backoff * 2).min(config.reconnect_max);
    }
}

/// Sleeps in short slices so a promotion mid-backoff ends the thread
/// promptly instead of after a full reconnect delay.
fn sleep_while_follower(engine: &Engine, total: Duration) {
    let deadline = Instant::now() + total;
    while engine.is_follower() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(25)));
    }
}

/// One connection's lifetime: authenticate, then poll `replicate`
/// until the connection drops (`Err`) or the engine is promoted
/// (`Ok`). Resets `backoff` once the primary proves responsive.
fn follow_once(
    engine: &Engine,
    config: &FollowerConfig,
    backoff: &mut Duration,
) -> Result<(), String> {
    let stream = TcpStream::connect(&config.primary).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).ok();
    // A wedged primary must look like a dead one, not hang the
    // follower forever.
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    if let Some(token) = &config.auth_token {
        let hello = format!("{{\"op\":\"hello\",\"token\":\"{}\"}}", json::escape(token));
        let resp = exchange(&mut writer, &mut reader, &hello)?;
        if resp.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(response_error(&resp, "hello refused"));
        }
    }
    loop {
        if !engine.is_follower() {
            return Ok(());
        }
        let from_seq = engine.replica_seq();
        let req = format!("{{\"op\":\"replicate\",\"from_seq\":{from_seq}}}");
        let resp = exchange(&mut writer, &mut reader, &req)?;
        if resp.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(response_error(&resp, "replicate refused"));
        }
        *backoff = config.reconnect_min;
        let batch = batch_from_json(from_seq, &resp)?;
        let caught_up = batch.events.is_empty() && batch.snapshot.is_none();
        if !caught_up {
            if let Err(e) = engine.apply_replica_batch(&batch) {
                if !engine.is_follower() {
                    return Ok(()); // promoted mid-apply: clean exit
                }
                return Err(format!("apply: {e}"));
            }
        }
        if engine.replica_seq() >= batch.next_seq {
            sleep_while_follower(engine, config.poll_interval);
        }
    }
}

fn exchange<W: Write, R: BufRead>(
    writer: &mut W,
    reader: &mut R,
    line: &str,
) -> Result<Value, String> {
    writer
        .write_all(line.as_bytes())
        .and_then(|_| writer.write_all(b"\n"))
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    let n = reader
        .read_line(&mut reply)
        .map_err(|e| format!("recv: {e}"))?;
    if n == 0 {
        return Err("primary closed the connection".into());
    }
    json::parse(reply.trim_end()).map_err(|e| format!("parse: {e}"))
}

fn response_error(resp: &Value, fallback: &str) -> String {
    resp.get("error")
        .and_then(Value::as_str)
        .unwrap_or(fallback)
        .to_string()
}

/// Decodes the wire form of a replication batch (hex-encoded sealed
/// events / snapshot; see the `replicate` handler in [`crate::proto`]).
fn batch_from_json(from_seq: u64, resp: &Value) -> Result<ReplicaBatch, String> {
    let next_seq = resp
        .get("next_seq")
        .and_then(Value::as_u64)
        .ok_or("replicate response missing next_seq")?;
    let mut head = [0u8; 32];
    if let Some(h) = resp.get("head").and_then(Value::as_str) {
        let bytes = hex::decode(h).ok_or("replicate response: bad head hex")?;
        if bytes.len() == head.len() {
            head.copy_from_slice(&bytes);
        }
    }
    let mut events = Vec::new();
    if let Some(arr) = resp.get("events").and_then(Value::as_arr) {
        for ev in arr {
            let s = ev.as_str().ok_or("replicate response: non-string event")?;
            events.push(hex::decode(s).ok_or("replicate response: bad event hex")?);
        }
    }
    let snapshot = match resp.get("snapshot").and_then(Value::as_str) {
        Some(s) => Some(hex::decode(s).ok_or("replicate response: bad snapshot hex")?),
        None => None,
    };
    Ok(ReplicaBatch {
        from_seq,
        next_seq,
        head,
        events,
        snapshot,
    })
}
