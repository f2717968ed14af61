//! Engine metrics, each declared once in the [`ENGINE`] family table.
//! Recording is a relaxed `fetch_add` on the atomic at an [`M`] index;
//! the `metrics` JSON, the `GET /metrics` exposition, the retention
//! sample and the router's totals are all rendered by walking the table.

use crate::job::JobKind;
use crate::proto::json;
use freqywm_obs::family::{counter, gauge, histogram, info, write_prom, JsonObject, Kind, Val};
pub use freqywm_obs::family::{LatencyHistogram, LatencySnapshot};
use freqywm_obs::history::{counter_delta, rate_per_sec};
use freqywm_obs::prom::PromText;
use std::collections::HashMap;
use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Build version, reported as `version` and by `freqywm_build_info`.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

const OPS: &str = "Completed jobs by operation.";
const TENANT_OPS: &str = "Completed jobs by tenant and operation.";

freqywm_obs::families! {
    /// Every engine metric: `ENGINE[m as usize]` declares `m`. Table
    /// order is JSON key order; the `Tenant*` families are the
    /// per-tenant rows.
    pub enum M in ENGINE {
        Version => info("version", "freqywm_build_info", "version",
            "Build metadata; value is always 1."),
        Uptime => gauge("uptime_s", "freqywm_uptime_seconds", "Seconds since engine start."),
        Submitted => counter("submitted", "freqywm_jobs_submitted_total",
            "Jobs accepted into the queue.").in_history("submitted").in_totals(),
        Completed => counter("completed", "freqywm_jobs_completed_total",
            "Jobs completed successfully.").in_history("completed").in_totals(),
        Failed => counter("failed", "freqywm_jobs_failed_total", "Jobs that failed.")
            .in_history("failed").in_totals(),
        TimedOut => counter("timed_out", "freqywm_jobs_timed_out_total",
            "Jobs reaped at their deadline.").in_history("timed_out").in_totals(),
        Rejected => counter("rejected", "freqywm_jobs_rejected_total",
            "Jobs refused at admission.").in_history("rejected").in_totals(),
        Cancelled => counter("cancelled", "freqywm_jobs_cancelled_total",
            "Jobs cancelled at shutdown.").in_totals(),
        QuotaRefused => counter("quota_refused", "freqywm_quota_refused_total",
            "Jobs refused at admission by the per-tenant quota tier.")
            .in_history("quota_refused").in_totals(),
        EmbedJobs => counter("embed_jobs", "freqywm_ops_total", OPS).labelled("op", "embed")
            .in_history("embed_jobs").in_totals(),
        DetectJobs => counter("detect_jobs", "freqywm_ops_total", OPS).labelled("op", "detect")
            .in_history("detect_jobs").in_totals(),
        MaintainJobs => counter("maintain_jobs", "freqywm_ops_total", OPS)
            .labelled("op", "maintain").in_history("maintain_jobs").in_totals(),
        Disputes => counter("disputes", "freqywm_disputes_total",
            "Ownership disputes arbitrated.").in_totals(),
        SlowLogSuppressed => counter("slow_log_suppressed", "freqywm_slow_log_suppressed_total",
            "Slow-request log lines dropped by the stderr rate limiter.")
            .in_history("slow_log_suppressed").in_totals(),
        QueueDepth => gauge("queue_depth", "freqywm_queue_depth",
            "Jobs queued but not yet running.").in_history("queue_depth").in_totals(),
        Tenants => gauge("tenants", "freqywm_tenants", "Registered tenants.").in_totals(),
        Shard => info("shard", "freqywm_shard_info", "shard",
            "Shard label of this engine; value is always 1."),
        Role => info("role", "freqywm_role", "role",
            "Replication role of this engine; value is always 1."),
        LogSeq => gauge("log_seq", "freqywm_log_seq",
            "Durable-log sequence number the next event will carry.").in_history("log_seq"),
        Latency => histogram("latency", "freqywm_request_duration_seconds",
            "Job run time (dequeue to completion).").in_history("latency"),
        QueueWait => histogram("queue_wait", "freqywm_queue_wait_seconds",
            "Time jobs spent queued before a worker picked them up.").in_history("queue_wait"),
        NetAccepted => counter("net.accepted", "freqywm_net_accepted_total",
            "Connections accepted.").in_totals(),
        NetActive => gauge("net.active", "freqywm_net_active_connections",
            "Currently open client connections.").in_totals(),
        NetRejected => counter("net.rejected", "freqywm_net_rejected_total",
            "Connections refused at the cap.").in_totals(),
        NetEvictedSlow => counter("net.evicted_slow", "freqywm_net_evicted_slow_total",
            "Connections evicted for slow reading.").in_totals(),
        NetTimedOutIdle => counter("net.timed_out_idle", "freqywm_net_timed_out_idle_total",
            "Connections reaped idle.").in_totals(),
        NetBytesIn => counter("net.bytes_in", "freqywm_net_bytes_in_total",
            "Bytes read from clients.").in_history("bytes_in").in_totals(),
        NetBytesOut => counter("net.bytes_out", "freqywm_net_bytes_out_total",
            "Bytes written to clients.").in_history("bytes_out").in_totals(),
        TenantEmbed => counter("embed", "freqywm_tenant_ops_total", TENANT_OPS)
            .labelled("op", "embed").per_row(),
        TenantDetect => counter("detect", "freqywm_tenant_ops_total", TENANT_OPS)
            .labelled("op", "detect").per_row(),
        TenantMaintain => counter("maintain", "freqywm_tenant_ops_total", TENANT_OPS)
            .labelled("op", "maintain").per_row(),
        TenantRejected => counter("rejected", "freqywm_tenant_rejected_total",
            "Rejected jobs by tenant.").per_row(),
        TenantAdmitted => counter("admitted", "freqywm_tenant_admitted_total",
            "Jobs that cleared admission, by tenant.").per_row(),
        TenantQuotaRefused => counter("quota_refused", "freqywm_tenant_quota_refused_total",
            "Jobs refused by the quota tier, by tenant.").per_row(),
        // JSON only: `latency_sum_us / jobs` is the tenant's mean run time.
        TenantLatencySum => counter("latency_sum_us", "",
            "Sum of run latencies (µs) over the tenant's completed jobs.").per_row(),
    }
}

/// One number per family, indexed by [`M`] (histogram and info slots unused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Values(pub [u64; M::ALL.len()]);

impl Default for Values {
    fn default() -> Self {
        Values([0; M::ALL.len()])
    }
}

impl Index<M> for Values {
    type Output = u64;

    fn index(&self, m: M) -> &u64 {
        &self.0[m as usize]
    }
}

impl IndexMut<M> for Values {
    fn index_mut(&mut self, m: M) -> &mut u64 {
        &mut self.0[m as usize]
    }
}

/// The engine's live counters and latency histograms.
pub struct Metrics {
    counters: [AtomicU64; M::ALL.len()],
    /// Run time: dequeue → completion.
    pub latency: LatencyHistogram,
    /// Queue wait: enqueue → dequeue, recorded separately so a slow
    /// request can be attributed to a saturated queue vs a slow sweep.
    pub queue_wait: LatencyHistogram,
    /// Per-tenant rows under one mutex: a few integer bumps at admission
    /// and completion, far off the PRF-sweep hot path. Rows are boxed,
    /// so the table holds a pointer per slot: its empty slots and its
    /// growth cost a pointer each, not a whole row.
    per_tenant: Mutex<HashMap<String, Box<Values>>>,
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: LatencyHistogram::default(),
            queue_wait: LatencyHistogram::default(),
            per_tenant: Mutex::default(),
            started: Instant::now(),
        }
    }
}

impl Metrics {
    /// Adds `n` to family `m`: one relaxed `fetch_add`, no lookup.
    pub fn add(&self, m: M, n: u64) {
        self.counters[m as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub fn bump(&self, m: M) {
        self.add(m, 1);
    }

    pub fn get(&self, m: M) -> u64 {
        self.counters[m as usize].load(Ordering::Relaxed)
    }

    /// A job completed: the completion and op counters, the run-time
    /// histogram, and the tenant's row.
    pub fn job_completed(&self, tenant: &str, kind: JobKind, took: Duration) {
        let (op, tenant_op) = match kind {
            JobKind::Embed => (M::EmbedJobs, M::TenantEmbed),
            JobKind::Detect => (M::DetectJobs, M::TenantDetect),
            JobKind::Maintain => (M::MaintainJobs, M::TenantMaintain),
        };
        self.bump(M::Completed);
        self.bump(op);
        self.latency.record(took);
        let mut map = self.per_tenant.lock().expect("per-tenant poisoned");
        let row = map.entry(tenant.to_string()).or_default();
        row[tenant_op] += 1;
        row[M::TenantLatencySum] += took.as_micros().min(u64::MAX as u128) as u64;
    }

    /// Adds `n` to family `m` in `tenant`'s row.
    pub fn tenant_add(&self, tenant: &str, m: M, n: u64) {
        let mut map = self.per_tenant.lock().expect("per-tenant poisoned");
        map.entry(tenant.to_string()).or_default()[m] += n;
    }

    /// Counts a quota refusal engine-wide and for its tenant; `rejected`
    /// stays untouched, as a refusal is budget enforcement, not backpressure.
    pub fn quota_refused(&self, tenant: &str) {
        self.bump(M::QuotaRefused);
        self.tenant_add(tenant, M::TenantQuotaRefused, 1);
    }

    /// A front-end accepted a connection; the `net.active` gauge rises.
    pub fn conn_accepted(&self) {
        self.bump(M::NetAccepted);
        self.bump(M::NetActive);
    }

    /// Closes balance accepts; the gauge saturates at zero rather than
    /// wrapping if a front-end miscounts.
    pub fn conn_closed(&self) {
        let active = &self.counters[M::NetActive as usize];
        let _ = active.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Every family's value now; `gauges` holds those read from engine state.
    pub fn snapshot(&self, gauges: &[(M, u64)]) -> MetricsSnapshot {
        let mut values = Values(std::array::from_fn(|i| self.get(M::ALL[i])));
        values[M::Uptime] = self.started.elapsed().as_secs();
        for &(m, v) in gauges {
            values[m] = v;
        }
        let mut per_tenant: Vec<TenantOpsSnapshot> = self
            .per_tenant
            .lock()
            .expect("per-tenant poisoned")
            .iter()
            .map(|(tenant, ops)| TenantOpsSnapshot {
                tenant: tenant.clone(),
                ops: **ops,
            })
            .collect();
        per_tenant.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        MetricsSnapshot {
            values,
            latency: self.latency.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            shard: None,
            role: None,
            per_tenant,
        }
    }

    /// The retention sample: only the families flagged `history`, read
    /// straight from their atomics (or from `gauges`).
    pub fn history_sample(&self, gauges: &[(M, u64)]) -> HistorySample {
        let value = |m: M| {
            gauges
                .iter()
                .find(|(g, _)| *g == m)
                .map_or(self.get(m), |g| g.1)
        };
        HistorySample(
            history_slots()
                .map(|(m, _, part)| match part {
                    Part::Value => value(m),
                    Part::Sum => self.hist(m).sum_count().0,
                    Part::Count => self.hist(m).sum_count().1,
                })
                .collect(),
        )
    }

    fn hist(&self, m: M) -> &LatencyHistogram {
        match m {
            M::Latency => &self.latency,
            M::QueueWait => &self.queue_wait,
            _ => unreachable!("{m:?} is not a histogram family"),
        }
    }
}

/// One tenant's row in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantOpsSnapshot {
    pub tenant: String,
    /// Indexed by the per-tenant families (`M::Tenant*`).
    pub ops: Values,
}

/// Plain-value snapshot of every family, for audits and the protocol.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub values: Values,
    pub latency: LatencySnapshot,
    pub queue_wait: LatencySnapshot,
    /// The `--shard-id i/N` label of a sharded engine.
    pub shard: Option<String>,
    /// `"follower"` while replicating, `"primary"` otherwise.
    pub role: Option<String>,
    /// Per-tenant rows, sorted by tenant id.
    pub per_tenant: Vec<TenantOpsSnapshot>,
}

impl Index<M> for MetricsSnapshot {
    type Output = u64;

    fn index(&self, m: M) -> &u64 {
        &self.values[m]
    }
}

impl MetricsSnapshot {
    /// Family `i`'s value, in tenant row `row` when given.
    fn val(&self, i: usize, row: Option<usize>) -> Val<'_> {
        if let Some(r) = row {
            return Val::Num(self.per_tenant[r].ops.0[i]);
        }
        match M::ALL[i] {
            M::Version => Val::Str(VERSION.into()),
            M::Shard => self
                .shard
                .as_deref()
                .map_or(Val::Absent, |s| Val::Str(s.into())),
            M::Role => self
                .role
                .as_deref()
                .map_or(Val::Absent, |r| Val::Str(r.into())),
            M::Latency => Val::Hist(self.latency.clone()),
            M::QueueWait => Val::Hist(self.queue_wait.clone()),
            _ => Val::Num(self.values.0[i]),
        }
    }

    /// The `metrics` op object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut doc = JsonObject::default();
        doc.families(ENGINE, false, |i| self.val(i, None));
        let mut tenants = JsonObject::default();
        for (r, row) in self.per_tenant.iter().enumerate() {
            let mut obj = JsonObject::default();
            obj.families(ENGINE, true, |i| self.val(i, Some(r)));
            tenants.push(&row.tenant, obj.render());
        }
        doc.insert("per_tenant", tenants.render());
        doc.render()
    }

    /// Prometheus text exposition (format 0.0.4) — the body
    /// `GET /metrics` serves on `--metrics-listen`.
    pub fn to_prom(&self) -> String {
        let tenants: Vec<String> = self.per_tenant.iter().map(|r| r.tenant.clone()).collect();
        let mut w = PromText::new();
        write_prom(&mut w, ENGINE, "tenant", &tenants, |i, r| self.val(i, r));
        w.finish()
    }
}

/// One shard's contribution to a router-tier `metrics` aggregation.
#[derive(Debug, Clone)]
pub struct ShardMetricsPiece {
    /// Shard index in the consistent-hash map.
    pub index: usize,
    /// Backend address the router dials for this shard.
    pub addr: String,
    /// Whether the router currently holds a live connection.
    pub up: bool,
    /// The shard's `metrics` object as parsed JSON; `None` when the
    /// shard was unreachable (its counters are simply absent from the
    /// totals — aggregation degrades, it does not fail).
    pub metrics: Option<json::Value>,
}

/// Merges per-shard metrics into the router's fleet view: every family
/// flagged `totals`, summed by its JSON path (so the nested `net`
/// counters are included), plus the untouched per-shard objects (so
/// nothing is lost to the aggregation). Renders one JSON object.
pub fn aggregate_shard_metrics(pieces: &[ShardMetricsPiece]) -> String {
    let mut totals = JsonObject::default();
    for f in ENGINE.iter().filter(|f| f.totals) {
        let sum: u64 = pieces
            .iter()
            .filter_map(|p| p.metrics.as_ref())
            .filter_map(|m| f.json.split('.').try_fold(m, |v, key| v.get(key)))
            .filter_map(json::Value::as_u64)
            .sum();
        totals.insert(f.json, sum.to_string());
    }
    let shards_up = pieces.iter().filter(|p| p.up).count();
    let per_shard: Vec<String> = pieces
        .iter()
        .map(|p| {
            format!(
                "{{\"shard\":{},\"addr\":\"{}\",\"up\":{},\"metrics\":{}}}",
                p.index,
                json::escape(&p.addr),
                p.up,
                p.metrics
                    .as_ref()
                    .map_or_else(|| "null".to_string(), json::write),
            )
        })
        .collect();
    format!(
        "{{\"shard_count\":{},\"shards_up\":{},\"totals\":{},\"per_shard\":[{}]}}",
        pieces.len(),
        shards_up,
        totals.render(),
        per_shard.join(","),
    )
}

/// Which part of a family a retention-sample slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    Value,
    Sum,
    Count,
}

/// The slots of a [`HistorySample`]: each family flagged `history`, in
/// table order; a histogram keeps its µs sum and its count.
fn history_slots() -> impl Iterator<Item = (M, &'static str, Part)> {
    M::ALL
        .iter()
        .zip(ENGINE)
        .filter_map(|(&m, f)| Some((m, f.kind, f.history?)))
        .flat_map(|(m, kind, key)| {
            let parts: &[Part] = if kind == Kind::Histogram {
                &[Part::Sum, Part::Count]
            } else {
                &[Part::Value]
            };
            parts.iter().map(move |&part| (m, key, part))
        })
}

/// One compact retention sample: the value of every family flagged
/// `history`, cheap enough to take every `--retain-interval-ms` and
/// keep hundreds of. Histogram shapes and per-tenant rows stay
/// point-in-time only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistorySample(Vec<u64>);

impl HistorySample {
    fn slot(&self, m: M, part: Part) -> u64 {
        history_slots()
            .position(|(s, _, p)| s == m && p == part)
            .and_then(|i| self.0.get(i).copied())
            .unwrap_or(0)
    }

    /// Renders one `(t_ms, sample)` pair as a JSON object.
    pub fn to_json(&self, t_ms: u64) -> String {
        let mut obj = JsonObject::default();
        obj.push("t_ms", t_ms.to_string());
        for ((_, key, part), v) in history_slots().zip(&self.0) {
            let suffix = match part {
                Part::Value => "",
                Part::Sum => "_sum_us",
                Part::Count => "_count",
            };
            obj.push(&format!("{key}{suffix}"), v.to_string());
        }
        obj.render()
    }
}

/// Derived rates between two retained samples, as a JSON object: the
/// `history` op reports this over its full retained window, and
/// `freqywm top` recomputes it frame-to-frame from the raw series.
/// Counter resets saturate to zero (see `freqywm_obs::history`).
pub fn history_rates_json(older: (u64, &HistorySample), newer: (u64, &HistorySample)) -> String {
    let ((t0, a), (t1, b)) = (older, newer);
    let delta = |m, part| counter_delta(a.slot(m, part), b.slot(m, part));
    let rate = |m| rate_per_sec((t0, a.slot(m, Part::Value)), (t1, b.slot(m, Part::Value)));
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let run = delta(M::Latency, Part::Sum);
    let wait = delta(M::QueueWait, Part::Sum);
    format!(
        concat!(
            "{{\"window_s\":{:.3},\"submitted_per_s\":{:.3},",
            "\"completed_per_s\":{:.3},\"failed_per_s\":{:.3},",
            "\"rejected_per_s\":{:.3},\"quota_refused_per_s\":{:.3},",
            "\"bytes_in_per_s\":{:.1},",
            "\"bytes_out_per_s\":{:.1},",
            "\"mean_latency_us\":{:.1},\"queue_wait_share\":{:.4}}}"
        ),
        t1.saturating_sub(t0) as f64 / 1000.0,
        rate(M::Submitted),
        rate(M::Completed),
        rate(M::Failed),
        rate(M::Rejected),
        rate(M::QuotaRefused),
        rate(M::NetBytesIn),
        rate(M::NetBytesOut),
        ratio(run, delta(M::Latency, Part::Count)),
        ratio(wait, run + wait),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_are_log2() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(0));
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(1000));
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[0], 1); // 0 µs
        assert_eq!(s.buckets[1], 1); // 1 µs
        assert_eq!(s.buckets[2], 1); // 2-3 µs
        assert_eq!(s.buckets[10], 1); // 512-1023 µs
    }

    #[test]
    fn quantiles_move_with_mass() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(10));
        }
        h.record(Duration::from_millis(100));
        let s = h.snapshot();
        assert_eq!(s.quantile_upper_micros(0.5), 16);
        assert!(s.quantile_upper_micros(0.999) >= 65_536);
    }

    #[test]
    fn counters_and_json() {
        let m = Metrics::default();
        m.bump(M::Submitted);
        m.bump(M::Submitted);
        m.job_completed("acme", JobKind::Detect, Duration::from_micros(50));
        m.bump(M::Failed);
        let snap = m.snapshot(&[(M::QueueDepth, 7), (M::Tenants, 2)]);
        assert_eq!(snap[M::Submitted], 2);
        assert_eq!(snap[M::Completed], 1);
        assert_eq!(snap[M::DetectJobs], 1);
        assert_eq!(snap[M::Failed], 1);
        assert_eq!(snap[M::QueueDepth], 7);
        let json = snap.to_json();
        assert!(json.contains("\"submitted\":2"));
        assert!(json.contains("\"queue_depth\":7"));
        assert!(json.contains("\"tenants\":2"));
        crate::proto::json::parse(&json).expect("one well-formed object");
    }

    #[test]
    fn net_counters_gauge_and_json() {
        let m = Metrics::default();
        m.conn_accepted();
        m.conn_accepted();
        m.conn_closed();
        m.bump(M::NetRejected);
        m.bump(M::NetEvictedSlow);
        m.bump(M::NetTimedOutIdle);
        m.add(M::NetBytesIn, 100);
        m.add(M::NetBytesOut, 250);
        let snap = m.snapshot(&[]);
        assert_eq!(snap[M::NetAccepted], 2);
        assert_eq!(snap[M::NetActive], 1);
        assert_eq!(snap[M::NetRejected], 1);
        assert_eq!(snap[M::NetEvictedSlow], 1);
        assert_eq!(snap[M::NetTimedOutIdle], 1);
        assert_eq!(snap[M::NetBytesIn], 100);
        assert_eq!(snap[M::NetBytesOut], 250);
        let json = snap.to_json();
        assert!(
            json.contains("\"net\":{\"accepted\":2,\"active\":1"),
            "{json}"
        );
        assert!(json.contains("\"bytes_out\":250"), "{json}");
        // The gauge saturates instead of wrapping.
        m.conn_closed();
        m.conn_closed();
        assert_eq!(m.get(M::NetActive), 0);
    }

    #[test]
    fn shard_label_in_json() {
        let m = Metrics::default();
        m.bump(M::Submitted);
        let mut snap = m.snapshot(&[(M::Tenants, 3)]);
        assert!(!snap.to_json().contains("\"shard\""));
        snap.shard = Some("1/4".into());
        let json = snap.to_json();
        assert!(json.contains("\"shard\":\"1/4\""), "{json}");
        let v = crate::proto::json::parse(&json).expect("well-formed");
        assert_eq!(v.get("shard").unwrap().as_str(), Some("1/4"));
    }

    #[test]
    fn aggregation_sums_counters_and_keeps_per_shard() {
        let piece = |i: usize, up: bool, metrics: Option<&str>| ShardMetricsPiece {
            index: i,
            addr: format!("127.0.0.1:770{i}"),
            up,
            metrics: metrics.map(|m| crate::proto::json::parse(m).unwrap()),
        };
        let agg = aggregate_shard_metrics(&[
            piece(
                0,
                true,
                Some(r#"{"completed":3,"tenants":2,"queue_depth":1}"#),
            ),
            piece(1, false, None),
            piece(
                2,
                true,
                Some(r#"{"completed":5,"tenants":4,"queue_depth":0}"#),
            ),
        ]);
        let parsed = crate::proto::json::parse(&agg).expect("well-formed: {agg}");
        assert_eq!(parsed.get("shard_count").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("shards_up").unwrap().as_u64(), Some(2));
        let totals = parsed.get("totals").unwrap();
        assert_eq!(totals.get("completed").unwrap().as_u64(), Some(8));
        assert_eq!(totals.get("tenants").unwrap().as_u64(), Some(6));
        let per = parsed.get("per_shard").unwrap().as_arr().unwrap();
        assert_eq!(per.len(), 3);
        assert_eq!(
            per[1].get("metrics"),
            Some(&crate::proto::json::Value::Null)
        );
        assert_eq!(per[2].get("up").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn aggregation_sums_nested_net_counters() {
        // Regression: net counters are nested under each shard's `net`
        // object and used to be dropped from the router totals.
        let piece = |i: usize, metrics: &str| ShardMetricsPiece {
            index: i,
            addr: format!("127.0.0.1:770{i}"),
            up: true,
            metrics: Some(crate::proto::json::parse(metrics).unwrap()),
        };
        let agg = aggregate_shard_metrics(&[
            piece(
                0,
                r#"{"completed":3,"net":{"accepted":10,"active":2,"bytes_in":100,"bytes_out":700}}"#,
            ),
            piece(
                1,
                r#"{"completed":1,"net":{"accepted":4,"active":1,"bytes_in":50,"bytes_out":20}}"#,
            ),
            ShardMetricsPiece {
                index: 2,
                addr: "127.0.0.1:7702".into(),
                up: false,
                metrics: None,
            },
        ]);
        let parsed = crate::proto::json::parse(&agg).expect("well-formed");
        let net = parsed
            .get("totals")
            .unwrap()
            .get("net")
            .expect("totals.net");
        assert_eq!(net.get("accepted").unwrap().as_u64(), Some(14));
        assert_eq!(net.get("active").unwrap().as_u64(), Some(3));
        assert_eq!(net.get("bytes_in").unwrap().as_u64(), Some(150));
        assert_eq!(net.get("bytes_out").unwrap().as_u64(), Some(720));
        // Keys with no contributing shard still render as zero.
        assert_eq!(net.get("evicted_slow").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn queue_wait_split_and_build_info_in_json() {
        let m = Metrics::default();
        m.job_completed("acme", JobKind::Embed, Duration::from_micros(400));
        m.queue_wait.record(Duration::from_micros(30));
        m.queue_wait.record(Duration::from_micros(90));
        let snap = m.snapshot(&[(M::Tenants, 1)]);
        assert_eq!(snap.latency.count, 1);
        assert_eq!(snap.queue_wait.count, 2);
        assert_eq!(VERSION, env!("CARGO_PKG_VERSION"));
        let json = snap.to_json();
        assert!(json.contains("\"queue_wait\":{\"count\":2"), "{json}");
        assert!(json.contains("\"latency\":{\"count\":1"), "{json}");
        assert!(
            json.contains(&format!("\"version\":\"{VERSION}\"")),
            "{json}"
        );
        assert!(json.contains("\"uptime_s\":"), "{json}");
        let v = crate::proto::json::parse(&json).expect("well-formed");
        assert!(v.get("queue_wait").unwrap().get("p99_us").is_some());
    }

    #[test]
    fn prom_exposition_round_trips_through_the_parser() {
        let m = Metrics::default();
        for i in 0..40u64 {
            m.bump(M::Submitted);
            m.job_completed("acme", JobKind::Detect, Duration::from_micros(10 + i * 137));
            m.queue_wait.record(Duration::from_micros(3 + i));
        }
        m.bump(M::Failed);
        m.conn_accepted();
        m.add(M::NetBytesIn, 1234);
        m.job_completed("zeta\"esc", JobKind::Embed, Duration::from_micros(50));
        m.add(M::SlowLogSuppressed, 7);
        let mut snap = m.snapshot(&[(M::QueueDepth, 2), (M::Tenants, 2), (M::LogSeq, 17)]);
        snap.shard = Some("1/2".into());
        snap.role = Some("primary".into());
        let text = snap.to_prom();
        // The in-repo parser validates HELP/TYPE pairing, monotone le
        // bounds, cumulative bucket counts and _sum/_count consistency.
        let families = freqywm_obs::prom::parse_exposition(&text)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
        let get = |name: &str| {
            families
                .iter()
                .find(|f| f.name == name)
                .unwrap_or_else(|| panic!("missing family {name}"))
        };
        assert_eq!(get("freqywm_jobs_submitted_total").samples[0].value, 40.0);
        assert_eq!(get("freqywm_jobs_failed_total").samples[0].value, 1.0);
        assert_eq!(
            get("freqywm_slow_log_suppressed_total").samples[0].value,
            7.0
        );
        assert_eq!(get("freqywm_log_seq").samples[0].value, 17.0);
        assert_eq!(
            get("freqywm_role").samples[0].label("role"),
            Some("primary")
        );
        let hist = get("freqywm_request_duration_seconds");
        assert_eq!(hist.kind, "histogram");
        let count = hist
            .samples
            .iter()
            .find(|s| s.name == "freqywm_request_duration_seconds_count")
            .unwrap();
        assert_eq!(count.value, 41.0);
        let tenant_ops = get("freqywm_tenant_ops_total");
        assert!(tenant_ops
            .samples
            .iter()
            .any(|s| s.label("tenant") == Some("zeta\"esc") && s.label("op") == Some("embed")));
    }

    #[test]
    fn history_sample_json_and_window_rates() {
        let m = Metrics::default();
        m.bump(M::Submitted);
        m.job_completed("acme", JobKind::Detect, Duration::from_micros(100));
        let older = m.history_sample(&[]);
        for _ in 0..10 {
            m.bump(M::Submitted);
            m.job_completed("acme", JobKind::Detect, Duration::from_micros(300));
            m.queue_wait.record(Duration::from_micros(100));
        }
        m.add(M::NetBytesIn, 5000);
        let newer = m.history_sample(&[(M::QueueDepth, 3)]);
        let sample_json = newer.to_json(12_345);
        let v = crate::proto::json::parse(&sample_json).expect("well-formed");
        assert_eq!(v.get("t_ms").unwrap().as_u64(), Some(12_345));
        assert_eq!(v.get("completed").unwrap().as_u64(), Some(11));
        assert_eq!(v.get("bytes_in").unwrap().as_u64(), Some(5000));
        assert_eq!(v.get("queue_depth").unwrap().as_u64(), Some(3));

        let rates = history_rates_json((1_000, &older), (3_000, &newer));
        let r = crate::proto::json::parse(&rates).expect("well-formed");
        assert_eq!(r.get("window_s").unwrap().as_f64(), Some(2.0));
        // 10 completions over 2 s.
        assert_eq!(r.get("completed_per_s").unwrap().as_f64(), Some(5.0));
        // 10 × 300 µs run + 10 × 100 µs wait → wait share 0.25.
        assert_eq!(r.get("queue_wait_share").unwrap().as_f64(), Some(0.25));
        assert_eq!(r.get("mean_latency_us").unwrap().as_f64(), Some(300.0));
    }

    #[test]
    fn quota_refusals_count_apart_from_rejections() {
        let m = Metrics::default();
        m.tenant_add("acme", M::TenantAdmitted, 1);
        m.tenant_add("acme", M::TenantAdmitted, 1);
        m.quota_refused("greedy");
        m.quota_refused("greedy");
        m.quota_refused("greedy");
        let snap = m.snapshot(&[(M::Tenants, 2)]);
        assert_eq!(snap[M::QuotaRefused], 3);
        // The queue-pressure counter stays untouched by quota refusals.
        assert_eq!(snap[M::Rejected], 0);
        let json = snap.to_json();
        let v = crate::proto::json::parse(&json).expect("well-formed");
        assert_eq!(v.get("quota_refused").unwrap().as_u64(), Some(3));
        let greedy = v.get("per_tenant").unwrap().get("greedy").expect("row");
        assert_eq!(greedy.get("quota_refused").unwrap().as_u64(), Some(3));
        assert_eq!(greedy.get("admitted").unwrap().as_u64(), Some(0));
        assert_eq!(greedy.get("rejected").unwrap().as_u64(), Some(0));
        let acme = v.get("per_tenant").unwrap().get("acme").expect("row");
        assert_eq!(acme.get("admitted").unwrap().as_u64(), Some(2));
        let text = snap.to_prom();
        let families = freqywm_obs::prom::parse_exposition(&text)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
        let refused = families
            .iter()
            .find(|f| f.name == "freqywm_quota_refused_total")
            .expect("scalar family");
        assert_eq!(refused.samples[0].value, 3.0);
        let per_tenant = families
            .iter()
            .find(|f| f.name == "freqywm_tenant_quota_refused_total")
            .expect("per-tenant family");
        assert!(per_tenant
            .samples
            .iter()
            .any(|s| s.label("tenant") == Some("greedy") && s.value == 3.0));
        // Router totals pick the counter up from its table flag.
        assert!(ENGINE[M::QuotaRefused as usize].totals);
        // And the retention tier derives a rate from it.
        let older = HistorySample::default();
        let newer = m.history_sample(&[]);
        let rates = history_rates_json((0, &older), (1_000, &newer));
        let r = crate::proto::json::parse(&rates).expect("well-formed");
        assert_eq!(r.get("quota_refused_per_s").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn per_tenant_attribution_in_snapshot_and_json() {
        let m = Metrics::default();
        m.job_completed("acme", JobKind::Detect, Duration::from_micros(120));
        m.job_completed("acme", JobKind::Detect, Duration::from_micros(80));
        m.job_completed("acme", JobKind::Embed, Duration::from_micros(1000));
        m.job_completed("zeta", JobKind::Maintain, Duration::from_micros(5));
        m.tenant_add("zeta", M::TenantRejected, 1);
        let snap = m.snapshot(&[(M::Tenants, 2)]);
        assert_eq!(snap.per_tenant.len(), 2);
        assert_eq!(snap.per_tenant[0].tenant, "acme"); // sorted
        assert_eq!(snap.per_tenant[0].ops[M::TenantDetect], 2);
        assert_eq!(snap.per_tenant[0].ops[M::TenantEmbed], 1);
        assert_eq!(snap.per_tenant[0].ops[M::TenantLatencySum], 1200);
        assert_eq!(snap.per_tenant[1].ops[M::TenantRejected], 1);
        let json = snap.to_json();
        let v = crate::proto::json::parse(&json).expect("well-formed");
        let acme = v.get("per_tenant").unwrap().get("acme").expect("acme row");
        assert_eq!(acme.get("detect").unwrap().as_u64(), Some(2));
        let zeta = v.get("per_tenant").unwrap().get("zeta").expect("zeta row");
        assert_eq!(zeta.get("rejected").unwrap().as_u64(), Some(1));
    }
}
