//! The multi-tenant watermarking engine: bounded job queue + worker
//! pool over the registry and metrics.
//!
//! ```
//! use freqywm_service::engine::{Engine, EngineConfig};
//! use freqywm_service::job::{JobData, JobPayload, JobSpec, JobState, JobOutput};
//! use freqywm_core::params::{DetectionParams, GenerationParams};
//! use freqywm_crypto::prf::Secret;
//! use freqywm_data::histogram::Histogram;
//! use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
//!
//! let engine = Engine::start(EngineConfig::default());
//! engine.register_tenant("acme", Secret::from_label("doc-demo")).unwrap();
//! let hist = Histogram::from_counts(power_law_counts(&PowerLawConfig {
//!     distinct_tokens: 150, sample_size: 150_000, alpha: 0.6,
//! }));
//! let embed = engine.run(JobSpec::new(JobPayload::Embed {
//!     tenant: "acme".into(),
//!     data: JobData::Histogram(hist),
//!     params: GenerationParams::default().with_z(101),
//! }));
//! let JobState::Completed(JobOutput::Embed(out)) = embed else { panic!() };
//! let detect = engine.run(JobSpec::new(JobPayload::Detect {
//!     tenant: "acme".into(),
//!     data: JobData::Histogram(out.watermarked),
//!     params: DetectionParams::default().with_t(0).with_k(1),
//! }));
//! let JobState::Completed(JobOutput::Detect(d)) = detect else { panic!() };
//! assert!(d.outcome.accepted);
//! engine.shutdown();
//! ```

use crate::error::{Result, ServiceError};
use crate::job::{
    DetectOutcome, EmbedOutcome, JobData, JobKind, JobOutput, JobPayload, JobSink, JobSpec,
    JobState, MaintainOutcome, Ticket,
};
use crate::metrics::{HistorySample, Metrics, MetricsSnapshot, M};
use crate::persist::DurableRegistry;
use crate::quota::{QuotaConfig, QuotaLimits, QuotaManager, QuotaStatus};
use crate::shard::{sharded_histogram_cancellable, Cancellation};
use crate::storage::{NullStorage, Storage};
use freqywm_core::generate::Watermarker;
use freqywm_core::incremental::IncrementalWatermarker;
use freqywm_core::judge::{judge_dispute, Claim, Ruling, Verdict};
use freqywm_core::params::DetectionParams;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_obs::history::HistoryRing;
use freqywm_obs::{OpKind, Span, SpanRing, Stage, TraceFilter};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Tenant-ownership gate for sharded deployments (`freqywm serve
/// --shard-id i/N`): the engine refuses requests for tenants that hash
/// to a different shard, so a misconfigured router (or a client dialing
/// a shard directly) cannot silently split one tenant's state across
/// partitions. The hash itself lives with the router tier
/// (`freqywm-shard`); the engine only evaluates the predicate.
#[derive(Clone)]
pub struct ShardGate {
    label: String,
    owns: Arc<dyn Fn(&str) -> bool + Send + Sync>,
}

impl ShardGate {
    /// `label` identifies the shard in errors and metrics (e.g. `0/4`).
    pub fn new(
        label: impl Into<String>,
        owns: impl Fn(&str) -> bool + Send + Sync + 'static,
    ) -> Self {
        ShardGate {
            label: label.into(),
            owns: Arc::new(owns),
        }
    }

    pub fn label(&self) -> &str {
        &self.label
    }

    pub fn owns(&self, tenant: &str) -> bool {
        (self.owns)(tenant)
    }
}

/// Gates compare by label: the label names the partition the gate
/// admits.
impl PartialEq for ShardGate {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label
    }
}

impl std::fmt::Debug for ShardGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardGate({})", self.label)
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Worker threads servicing the queue (clamped to at least 1).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before submits are
    /// rejected with [`ServiceError::QueueFull`] (clamped to at least 1).
    pub queue_capacity: usize,
    /// HMAC key for the registration ledger.
    pub ledger_key: Vec<u8>,
    /// Registry mutations between automatic snapshot/compaction
    /// cycles of the durable log (0 disables auto-snapshots).
    pub snapshot_every: usize,
    /// Tenant-ownership gate for sharded deployments; `None` serves
    /// every tenant (single-process deployment).
    pub shard_gate: Option<ShardGate>,
    /// Capacity of the span ring (rounded up to a power of two). Spans
    /// are always recorded — the ring overwrites its oldest entries, so
    /// "always on" costs a bounded, fixed allocation.
    pub trace_ring: usize,
    /// Emit a JSON line on stderr for any request whose queue-wait +
    /// run time reaches this many milliseconds (`Some(0)` logs every
    /// request; `None` disables the slow log).
    pub slow_ms: Option<u64>,
    /// Metrics-retention ring capacity: the engine samples its
    /// counters periodically and keeps the newest this-many samples
    /// for the `history` protocol op (clamped to at least 2).
    pub retain_snapshots: usize,
    /// Interval between retention samples, in milliseconds (clamped to
    /// at least 10).
    pub retain_interval_ms: u64,
    /// Address of a primary this engine follows as a read-only replica
    /// (`freqywm serve --follow`). While set and un-promoted, every
    /// registry mutation is refused with
    /// [`ServiceError::ReadOnlyFollower`]; reads (detect, dispute,
    /// metrics, trace) serve normally from the replicated state.
    pub follow: Option<String>,
    /// Default per-tenant op-class budgets over a sliding window
    /// (`--quota-*` flags). Tenants without an explicit `quota` op
    /// inherit these; the default is unlimited.
    pub quota: QuotaConfig,
}

/// Whole-lifetime deadline for jobs without an explicit `timeout`: a
/// job that has not *finished* by then fails with a deadline error —
/// reaped from the queue, or cancelled at the next cooperative
/// checkpoint if already running.
const DEFAULT_JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// Threads for sharded histogram construction inside one job.
const SHARD_THREADS: usize = 4;

/// Token-bucket ceiling on slow-log lines per second: a latency storm
/// cannot flood stderr; drops are counted in the `slow_log_suppressed`
/// metric instead.
const SLOW_LOG_PER_S: f64 = 10.0;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            queue_capacity: 1024,
            ledger_key: b"freqywm-service-ledger".to_vec(),
            snapshot_every: crate::persist::DEFAULT_SNAPSHOT_EVERY,
            shard_gate: None,
            trace_ring: 4096,
            slow_ms: None,
            retain_snapshots: 240,
            retain_interval_ms: 1000,
            follow: None,
            quota: QuotaConfig::default(),
        }
    }
}

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_STOPPED: u8 = 2;

struct QueuedJob {
    payload: JobPayload,
    deadline: Instant,
    /// Trace id threaded from the protocol request (or minted at
    /// submit), so worker-side spans correlate with the client's hop.
    trace: String,
    /// When the job entered the queue; dequeue − enqueue feeds the
    /// queue-wait histogram and span.
    enqueued: Instant,
    /// Where the job's end goes.
    sink: JobSink,
}

struct Shared {
    config: EngineConfig,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    registry: RwLock<DurableRegistry>,
    metrics: Metrics,
    state: AtomicU8,
    /// True while this engine is a read-only replica; flipped off by
    /// [`Engine::promote`]. Checked on every mutation path.
    follower: AtomicBool,
    /// Stage-span ring shared by workers and whatever front-end serves
    /// this engine. Recording is lock-free and never blocks.
    obs: Arc<SpanRing>,
    /// Metrics-retention ring, fed by the sampler thread every
    /// `retain_interval_ms`; read by the `history` protocol op.
    history: Mutex<HistoryRing<HistorySample>>,
    /// Stop flag + wakeup for the sampler thread.
    sampler_stop: (Mutex<bool>, Condvar),
    /// Token bucket gating the stderr slow-request log.
    slow_log: Mutex<SlowLogLimiter>,
    /// Per-tenant admission gate: op-class budgets over sliding
    /// windows, deduct-or-refuse before a job can enter the queue.
    quota: QuotaManager,
}

/// Token bucket for the slow-request log: refilled at
/// [`SLOW_LOG_PER_S`], burst capacity one second's worth.
struct SlowLogLimiter {
    tokens: f64,
    last: Instant,
}

impl SlowLogLimiter {
    fn allow(&mut self) -> bool {
        let now = Instant::now();
        let refill = now.duration_since(self.last).as_secs_f64() * SLOW_LOG_PER_S;
        self.tokens = (self.tokens + refill).min(SLOW_LOG_PER_S);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Sealed-event bytes shipped per `replicate` call, roughly. Bounds
/// response size so one catch-up cannot monopolise the connection.
const REPLICA_BATCH_BYTES: usize = 1 << 20;

/// What [`Engine::promote`] verified and flipped.
#[derive(Debug, Clone)]
pub struct PromoteReport {
    /// False when the engine was already a primary (idempotent call).
    pub was_follower: bool,
    /// Chain length at promotion.
    pub entries: u64,
    /// Verified chain head at promotion — compare with the dead
    /// primary's last fsynced head to confirm zero-loss failover.
    pub head: freqywm_crypto::Digest,
    /// Log sequence number the first post-promotion event will carry.
    pub next_seq: u64,
}

/// What [`Engine::history`] returns: the retained sample series plus
/// a fresh sample taken at call time.
#[derive(Debug, Clone)]
pub struct HistoryReport {
    /// Ring capacity (`--retain-snapshots`, clamped ≥ 2).
    pub capacity: usize,
    /// Sampling interval (`--retain-interval-ms`, clamped ≥ 10).
    pub interval_ms: u64,
    /// Retained `(t_ms, sample)` pairs, oldest first.
    pub samples: Vec<(u64, HistorySample)>,
    /// Current counters at call time — not part of the ring, but lets
    /// a caller compute an up-to-the-moment rate against the newest
    /// retained sample.
    pub now: (u64, HistorySample),
}

/// Outcome of an engine-level dispute, combining the paper's four-run
/// protocol with the registration-ledger tiebreak.
#[derive(Debug, Clone)]
pub struct DisputeOutcome {
    /// The Sec. V-D four-run protocol result.
    pub ruling: Ruling,
    /// Ledger chronology of the two watermarks (`Less` = `a` earlier).
    pub ledger_order: std::cmp::Ordering,
    /// Tenant id the engine awards ownership to: the protocol winner,
    /// or on an inconclusive protocol the earlier registrant.
    pub winner: String,
    /// True when the protocol alone was decisive.
    pub decisive_protocol: bool,
}

/// The engine. Submit jobs from any thread; call [`Engine::shutdown`]
/// (or drop) to stop.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    sampler: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Engine {
    /// Starts the worker pool with volatile state (dies with the
    /// engine). Registry mutations skip the write-ahead encoding
    /// entirely — durability that nobody asked for costs nothing.
    pub fn start(config: EngineConfig) -> Self {
        Self::open(config, Box::new(NullStorage)).expect("null storage cannot fail to open")
    }

    /// Opens the engine over a [`Storage`] backend, recovering and
    /// verifying whatever registry state the backend holds: the latest
    /// snapshot is restored, the log tail replayed (a torn final
    /// record from a crash mid-append is dropped) and the full hash
    /// chain re-verified. Every commit stamps its event one above the
    /// registry's clock floor, so recovered chronology stays monotonic.
    pub fn open(config: EngineConfig, storage: Box<dyn Storage>) -> Result<Self> {
        let registry = DurableRegistry::open(&config.ledger_key, storage, config.snapshot_every)?;
        let follower = config.follow.is_some();
        let shared = Arc::new(Shared {
            registry: RwLock::new(registry),
            obs: Arc::new(SpanRing::new(config.trace_ring)),
            follower: AtomicBool::new(follower),
            history: Mutex::new(HistoryRing::new(config.retain_snapshots)),
            sampler_stop: (Mutex::new(false), Condvar::new()),
            slow_log: Mutex::new(SlowLogLimiter {
                tokens: SLOW_LOG_PER_S,
                last: Instant::now(),
            }),
            quota: QuotaManager::new(config.quota),
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            metrics: Metrics::default(),
            state: AtomicU8::new(STATE_RUNNING),
        });
        // Restore persisted quota state (explicit limits + the last
        // consumed-window checkpoints) so a restart does not reset an
        // abuser's window.
        resync_quota(&shared);
        let worker_count = shared.config.workers.max(1);
        let mut workers = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(shared)));
        }
        record_history(&shared);
        let sampler = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || sampler_loop(shared))
        };
        Ok(Engine {
            shared,
            workers: Mutex::new(workers),
            sampler: Mutex::new(Some(sampler)),
        })
    }

    /// Registers a tenant's secret; returns the onboarding ledger index.
    pub fn register_tenant(&self, tenant: &str, secret: Secret) -> Result<u64> {
        self.check_writable()?;
        check_shard(&self.shared, tenant)?;
        let mut registry = self
            .shared
            .registry
            .write()
            .expect("registry lock poisoned");
        // Stamp under the exclusive lock: ledger timestamps must be
        // monotone in commit order, or a concurrent pair of
        // registrations could durably record inverted chronology — the
        // exact evidence disputes are decided on.
        let now = registry.clock_floor() + 1;
        registry.register_tenant(tenant, secret, now)
    }

    /// Removes a tenant (its secret is zeroized on drop). The removal
    /// is durably logged before it takes effect.
    pub fn remove_tenant(&self, tenant: &str) -> Result<bool> {
        self.check_writable()?;
        let removed = self
            .shared
            .registry
            .write()
            .expect("registry lock poisoned")
            .remove_tenant(tenant)?;
        if removed {
            self.shared.quota.remove(tenant);
        }
        Ok(removed)
    }

    /// Sets a tenant's explicit per-op-class budgets (the `quota`
    /// admin op). Durably logged through the registry log — so the
    /// limits survive restarts and replicate to followers — then
    /// applied to the live admission gate. Primary only.
    pub fn set_quota(
        &self,
        tenant: &str,
        limits: QuotaLimits,
        window_ms: Option<u64>,
    ) -> Result<()> {
        self.check_writable()?;
        check_shard(&self.shared, tenant)?;
        let window_ms = window_ms.unwrap_or(self.shared.config.quota.window_ms);
        {
            let mut registry = self
                .shared
                .registry
                .write()
                .expect("registry lock poisoned");
            // Stamp under the lock (see Engine::register_tenant).
            let now = registry.clock_floor() + 1;
            registry.set_quota(tenant, limits, window_ms, now)?;
        }
        self.shared.quota.set_limits(tenant, limits, window_ms);
        Ok(())
    }

    /// Effective quota state plus in-window consumption for one tenant
    /// (the read half of the `quota` op). Serves on followers too.
    pub fn quota_status(&self, tenant: &str) -> Result<QuotaStatus> {
        check_shard(&self.shared, tenant)?;
        if !self
            .shared
            .registry
            .read()
            .expect("registry lock poisoned")
            .contains(tenant)
        {
            return Err(ServiceError::UnknownTenant(tenant.to_string()));
        }
        Ok(self
            .shared
            .quota
            .status(tenant, freqywm_obs::now_us() / 1000))
    }

    /// Read access to the registry (claims inspection, ledger audits).
    /// The guard derefs to [`crate::registry::KeyRegistry`].
    pub fn registry(&self) -> std::sync::RwLockReadGuard<'_, DurableRegistry> {
        self.shared.registry.read().expect("registry lock poisoned")
    }

    /// Forces a snapshot + log compaction now (e.g. on clean service
    /// exit, so the next open replays nothing).
    pub fn checkpoint(&self) -> Result<()> {
        self.shared
            .registry
            .write()
            .expect("registry lock poisoned")
            .snapshot_now()
    }

    /// True while this engine is a read-only replica (see
    /// [`EngineConfig::follow`] and [`Engine::promote`]).
    pub fn is_follower(&self) -> bool {
        self.shared.follower.load(Ordering::SeqCst)
    }

    fn check_writable(&self) -> Result<()> {
        if self.is_follower() {
            return Err(ServiceError::ReadOnlyFollower);
        }
        Ok(())
    }

    /// Serves one chunk of the replication stream: sealed log events
    /// from `from_seq`, or a full snapshot when that range has been
    /// compacted away. Followers answer too (their replicated log is
    /// just as authoritative), which is what lets `ledger verify` and
    /// chained replication read from either side.
    pub fn replicate(&self, from_seq: u64) -> Result<crate::persist::ReplicaBatch> {
        self.shared
            .registry
            .write()
            .expect("registry lock poisoned")
            .events_since(from_seq, REPLICA_BATCH_BYTES)
    }

    /// Applies one replication batch from the primary; refused unless
    /// this engine is (still) a follower, so a late batch can never
    /// race writes accepted after promotion. Returns the replica's new
    /// `next_seq`.
    pub fn apply_replica_batch(&self, batch: &crate::persist::ReplicaBatch) -> Result<u64> {
        let mut registry = self
            .shared
            .registry
            .write()
            .expect("registry lock poisoned");
        // Checked under the write lock: promote() serialises against
        // this (it takes the registry lock too), so the flag cannot
        // flip mid-batch.
        if !self.shared.follower.load(Ordering::SeqCst) {
            return Err(ServiceError::Storage(
                "not a follower: replication batch refused".into(),
            ));
        }
        if let Some(snapshot) = &batch.snapshot {
            registry.install_replica_snapshot(snapshot)?;
        }
        for sealed in &batch.events {
            registry.apply_sealed_event(sealed)?;
        }
        let next_seq = registry.next_seq();
        drop(registry);
        // Replicated quota events (explicit limits, consumed-window
        // checkpoints) take effect on this follower's own admission
        // gate; seeding is idempotent per checkpoint timestamp.
        resync_quota(&self.shared);
        Ok(next_seq)
    }

    /// Sequence number the next local log event will carry — what a
    /// follower hands to the primary's `replicate` op to resume.
    pub fn replica_seq(&self) -> u64 {
        self.shared
            .registry
            .read()
            .expect("registry lock poisoned")
            .next_seq()
    }

    /// Promotes a follower to primary: re-verifies the replicated hash
    /// chain end to end, then lifts the read-only gate. The replicated
    /// clock floor is the new primary's clock. Idempotent — promoting a
    /// primary just reports its current head.
    pub fn promote(&self) -> Result<PromoteReport> {
        let registry = self.shared.registry.read().expect("registry lock poisoned");
        registry
            .ledger()
            .verify_chain()
            .map_err(|e| ServiceError::Storage(format!("promote refused: chain corrupt: {e}")))?;
        let report = PromoteReport {
            was_follower: self.shared.follower.swap(false, Ordering::SeqCst),
            entries: registry.ledger().len() as u64,
            head: registry.ledger().head_hash(),
            next_seq: registry.next_seq(),
        };
        drop(registry);
        // The new primary enforces the replicated quota state.
        resync_quota(&self.shared);
        Ok(report)
    }

    /// Enqueues a job whose end goes to a [`Ticket`]. Non-blocking:
    /// rejects when full or draining.
    pub fn submit(&self, spec: JobSpec) -> Result<Ticket> {
        let (ticket, sink) = Ticket::new();
        self.submit_to(spec, sink)?;
        Ok(ticket)
    }

    /// Enqueues a job whose end goes to `sink`, which the engine calls
    /// exactly once if this returns `Ok` and never if it returns `Err`.
    /// Non-blocking: rejects when full or draining.
    pub(crate) fn submit_to(&self, spec: JobSpec, sink: JobSink) -> Result<()> {
        let timeout = spec.timeout.unwrap_or(DEFAULT_JOB_TIMEOUT);
        let trace = spec.trace.unwrap_or_else(freqywm_obs::next_trace_id);
        let tenant = spec.payload.tenant().to_string();
        let reject = |err: ServiceError| {
            self.shared.metrics.bump(M::Rejected);
            self.shared
                .metrics
                .tenant_add(&tenant, M::TenantRejected, 1);
            Err(err)
        };
        // A follower serves reads only: embed/maintain mutate the
        // registry, which must happen on the primary and replicate.
        if matches!(spec.payload.kind(), JobKind::Embed | JobKind::Maintain)
            && self.shared.follower.load(Ordering::SeqCst)
        {
            return reject(ServiceError::ReadOnlyFollower);
        }
        // Quota admission: deduct-or-refuse. A refused job never enters
        // the queue and must not look like it ran — it bumps only the
        // quota counters, never submitted/rejected, the queue-wait
        // histogram or the per-tenant op counters.
        let kind = spec.payload.kind();
        let now_ms = freqywm_obs::now_us() / 1000;
        let outcome = self.shared.quota.check(&tenant, kind, now_ms);
        if let Some(used) = outcome.checkpoint {
            checkpoint_quota(&self.shared, &tenant, used, now_ms);
        }
        if let Some((kind, retry_after_ms)) = outcome.refused {
            self.shared.metrics.quota_refused(&tenant);
            return Err(ServiceError::QuotaExhausted {
                kind,
                retry_after_ms,
            });
        }
        {
            let mut queue = self.shared.queue.lock().expect("queue lock poisoned");
            // The state check lives under the queue lock: workers only
            // exit while holding this lock with an empty queue and a
            // non-running state, so a push observed here under
            // STATE_RUNNING is guaranteed to have live workers (or
            // workers that will pop it while draining).
            if self.shared.state.load(Ordering::SeqCst) != STATE_RUNNING {
                drop(queue);
                // The quota deduction above must not stand for a job
                // the queue then refused.
                self.shared.quota.refund(&tenant, kind, now_ms);
                return reject(ServiceError::ShuttingDown);
            }
            let capacity = self.shared.config.queue_capacity.max(1);
            if queue.len() >= capacity {
                drop(queue);
                self.shared.quota.refund(&tenant, kind, now_ms);
                return reject(ServiceError::QueueFull { capacity });
            }
            queue.push_back(QueuedJob {
                payload: spec.payload,
                deadline: Instant::now() + timeout,
                trace,
                enqueued: Instant::now(),
                sink,
            });
        }
        self.shared.metrics.bump(M::Submitted);
        self.shared
            .metrics
            .tenant_add(&tenant, M::TenantAdmitted, 1);
        self.shared.queue_cv.notify_one();
        Ok(())
    }

    /// The engine's live counters. Whatever front-end serves the engine
    /// records its connection families (`M::Net*`) here, so the
    /// `metrics` protocol op reports them alongside job counters.
    pub fn counters(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The engine's span ring. Front-ends record their own stage spans
    /// (parse, auth, respond) here so one ring holds a request's whole
    /// shard-side story.
    pub fn obs(&self) -> &Arc<SpanRing> {
        &self.shared.obs
    }

    /// Recent spans matching `filter`, oldest first — the `trace`
    /// protocol op.
    pub fn trace_query(&self, filter: &TraceFilter) -> Vec<Span> {
        self.shared.obs.query(filter)
    }

    /// Submit, then block until the job ends.
    pub fn run(&self, spec: JobSpec) -> JobState {
        match self.submit(spec) {
            Ok(ticket) => ticket.wait(),
            Err(e) => JobState::Failed(e),
        }
    }

    /// Arbitrates ownership of between two tenants' latest watermarks:
    /// the four-run protocol, with the registration ledger as
    /// chronological tiebreak.
    pub fn dispute(
        &self,
        tenant_a: &str,
        tenant_b: &str,
        params: &DetectionParams,
    ) -> Result<DisputeOutcome> {
        check_shard(&self.shared, tenant_a)?;
        check_shard(&self.shared, tenant_b)?;
        self.shared.metrics.bump(M::Disputes);
        let registry = self.shared.registry.read().expect("registry lock poisoned");
        let wa = registry.require_watermark(tenant_a)?;
        let wb = registry.require_watermark(tenant_b)?;
        let claim_a = Claim {
            histogram: wa.watermarked.to_histogram(),
            secrets: wa.secrets.to_secret_list(),
        };
        let claim_b = Claim {
            histogram: wb.watermarked.to_histogram(),
            secrets: wb.secrets.to_secret_list(),
        };
        let ledger_order = registry.earlier_watermark(tenant_a, tenant_b)?;
        drop(registry);
        let ruling = judge_dispute(&claim_a, &claim_b, params);
        let (winner, decisive) = match ruling.verdict {
            Verdict::FirstParty => (tenant_a.to_string(), true),
            Verdict::SecondParty => (tenant_b.to_string(), true),
            Verdict::Inconclusive => {
                // Fall back to registration chronology: the hash chain
                // fixes who committed to a watermark first.
                let earlier = if ledger_order == std::cmp::Ordering::Greater {
                    tenant_b
                } else {
                    tenant_a
                };
                (earlier.to_string(), false)
            }
        };
        Ok(DisputeOutcome {
            ruling,
            ledger_order,
            winner,
            decisive_protocol: decisive,
        })
    }

    /// The shard label this engine serves (`freqywm serve --shard-id`),
    /// if any.
    pub fn shard_label(&self) -> Option<&str> {
        self.shared.config.shard_gate.as_ref().map(ShardGate::label)
    }

    /// Every metric family: counters, latency histograms, queue and
    /// registry gauges, shard label and replication role.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.shared.metrics.snapshot(&gauges(&self.shared));
        snapshot.shard = self.shard_label().map(str::to_string);
        let follower = self.shared.follower.load(Ordering::SeqCst);
        snapshot.role = Some(if follower { "follower" } else { "primary" }.to_string());
        snapshot
    }

    /// The retention ring: capacity, sampling interval, and every
    /// retained `(t_ms, sample)` pair oldest-first, plus a fresh
    /// `now` sample taken at call time (not stored) so rates are
    /// current even between sampler ticks — the `history` protocol op.
    pub fn history(&self) -> HistoryReport {
        let now = (
            freqywm_obs::now_us() / 1000,
            self.shared.metrics.history_sample(&gauges(&self.shared)),
        );
        let ring = self.shared.history.lock().expect("history lock poisoned");
        HistoryReport {
            capacity: ring.capacity(),
            interval_ms: self.shared.config.retain_interval_ms.max(10),
            samples: ring.iter().cloned().collect(),
            now,
        }
    }

    /// Graceful shutdown: stop accepting submits, let workers drain the
    /// queue, then join them. Idempotent.
    pub fn shutdown(&self) {
        let _ = self.shared.state.compare_exchange(
            STATE_RUNNING,
            STATE_DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.shared.queue_cv.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers lock poisoned"));
        for w in workers {
            let _ = w.join();
        }
        let sampler = self.sampler.lock().expect("sampler lock poisoned").take();
        if let Some(sampler) = sampler {
            let (lock, cv) = &self.shared.sampler_stop;
            *lock.lock().expect("sampler stop poisoned") = true;
            cv.notify_all();
            let _ = sampler.join();
        }
        self.shared.state.store(STATE_STOPPED, Ordering::SeqCst);
    }

    /// Immediate shutdown: queued jobs are cancelled, running jobs
    /// finish, workers join.
    pub fn shutdown_now(&self) {
        self.shared.state.store(STATE_DRAINING, Ordering::SeqCst);
        let cancelled: Vec<QueuedJob> = {
            let mut queue = self.shared.queue.lock().expect("queue lock poisoned");
            queue.drain(..).collect()
        };
        // Sinks run outside the queue lock.
        for job in cancelled {
            self.shared.metrics.bump(M::Cancelled);
            (job.sink)(JobState::Cancelled);
        }
        self.shutdown();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

/// Pushes the registry's durable quota records into the live admission
/// gate: explicit limits are (re)applied, consumed-window checkpoints
/// seeded. Seeding is idempotent per checkpoint timestamp, so this is
/// safe to call at open, after every replica batch, and at promotion.
fn resync_quota(shared: &Shared) {
    let records = {
        let registry = shared.registry.read().expect("registry lock poisoned");
        registry.quota_snapshots()
    };
    for (tenant, rec) in records {
        if rec.explicit {
            let window_ms = if rec.window_ms == 0 {
                shared.config.quota.window_ms
            } else {
                rec.window_ms
            };
            shared.quota.set_limits(&tenant, rec.limits, window_ms);
        }
        if rec.used != [0; 3] {
            shared.quota.seed_usage(&tenant, rec.used, rec.used_at_ms);
        }
    }
}

/// Durably records a consumed-window checkpoint so a restart (or a
/// failover) cannot reset an abuser's window. Primary only — a
/// follower writing its own log would fork the replicated chain.
/// Best-effort: the admission decision already stands, and the
/// registry refuses an unregistered tenant, which has nothing durable
/// to pin.
fn checkpoint_quota(shared: &Shared, tenant: &str, used: [u64; 3], at_ms: u64) {
    if shared.follower.load(Ordering::SeqCst) {
        return;
    }
    let mut registry = shared.registry.write().expect("registry lock poisoned");
    let now = registry.clock_floor() + 1;
    let _ = registry.checkpoint_quota(tenant, used, at_ms, now);
}

/// The gauges the engine reads from its own state rather than counting:
/// queue depth, registry size and log position.
fn gauges(shared: &Shared) -> [(M, u64); 3] {
    let queue_depth = shared.queue.lock().expect("queue lock poisoned").len() as u64;
    let (tenants, log_seq) = {
        let registry = shared.registry.read().expect("registry lock poisoned");
        (registry.len() as u64, registry.next_seq())
    };
    [
        (M::QueueDepth, queue_depth),
        (M::Tenants, tenants),
        (M::LogSeq, log_seq),
    ]
}

/// Pushes one [`HistorySample`] of the current counters into the
/// history ring.
fn record_history(shared: &Shared) {
    let sample = shared.metrics.history_sample(&gauges(shared));
    shared
        .history
        .lock()
        .expect("history lock poisoned")
        .push(freqywm_obs::now_us() / 1000, sample);
}

/// Retention sampler: after the first sample, which [`Engine::open`]
/// takes itself so the ring is never empty, pushes one every
/// `retain_interval_ms` until shutdown flips the stop flag.
fn sampler_loop(shared: Arc<Shared>) {
    let interval = Duration::from_millis(shared.config.retain_interval_ms.max(10));
    let (lock, cv) = &shared.sampler_stop;
    loop {
        let mut stop = lock.lock().expect("sampler stop poisoned");
        let deadline = Instant::now() + interval;
        while !*stop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let (guard, _) = cv.wait_timeout(stop, left).expect("sampler stop poisoned");
            stop = guard;
        }
        if *stop {
            return;
        }
        drop(stop);
        record_history(&shared);
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.state.load(Ordering::SeqCst) != STATE_RUNNING {
                    return;
                }
                queue = shared.queue_cv.wait(queue).expect("queue lock poisoned");
            }
        };
        let QueuedJob {
            payload,
            deadline,
            trace,
            enqueued,
            sink,
        } = job;
        // Queue wait is its own histogram + span: a slow request caused
        // by a saturated queue must not masquerade as a slow sweep.
        let wait = enqueued.elapsed();
        let kind = payload.kind();
        let op = kind.op();
        let tenant = payload.tenant().to_string();
        shared.metrics.queue_wait.record(wait);
        shared.obs.record(&Span::ending_now(
            &trace,
            &tenant,
            op,
            Stage::QueueWait,
            wait.as_micros() as u64,
        ));
        if Instant::now() > deadline {
            shared.metrics.bump(M::TimedOut);
            sink(JobState::Failed(ServiceError::DeadlineExceeded));
            continue;
        }
        let started = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_payload(&shared, payload, deadline, &trace)
        }));
        let took = started.elapsed();
        shared.obs.record(&Span::ending_now(
            &trace,
            &tenant,
            op,
            Stage::Run,
            took.as_micros() as u64,
        ));
        if let Some(threshold) = shared.config.slow_ms {
            let total = wait + took;
            if total.as_millis() as u64 >= threshold {
                // Token bucket on the emit path: a latency storm logs
                // at most ~SLOW_LOG_PER_S lines; the overflow is
                // counted, not printed.
                let allowed = shared
                    .slow_log
                    .lock()
                    .expect("slow log lock poisoned")
                    .allow();
                if allowed {
                    emit_slow_log(&shared, &trace, &tenant, op, wait, took);
                } else {
                    shared.metrics.bump(M::SlowLogSuppressed);
                }
            }
        }
        let state = match result {
            Ok(Ok(output)) => {
                shared.metrics.job_completed(&tenant, kind, took);
                JobState::Completed(output)
            }
            // Reaped at a cancellation checkpoint while running: a
            // timeout, not a failure of the pipeline.
            Ok(Err(ServiceError::DeadlineExceeded)) => {
                shared.metrics.bump(M::TimedOut);
                JobState::Failed(ServiceError::DeadlineExceeded)
            }
            Ok(Err(e)) => {
                shared.metrics.bump(M::Failed);
                JobState::Failed(e)
            }
            Err(panic) => {
                shared.metrics.bump(M::Failed);
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "job panicked".to_string());
                JobState::Failed(ServiceError::Internal(msg))
            }
        };
        sink(state);
    }
}

/// One JSON line on stderr per over-threshold request: greppable in
/// service logs, joinable with the span ring by trace id.
fn emit_slow_log(
    shared: &Shared,
    trace: &str,
    tenant: &str,
    op: OpKind,
    wait: Duration,
    run: Duration,
) {
    let shard = match &shared.config.shard_gate {
        Some(gate) => format!(
            ",\"shard\":\"{}\"",
            crate::proto::json::escape(gate.label())
        ),
        None => String::new(),
    };
    eprintln!(
        "{{\"slow_request\":true,\"trace\":\"{}\",\"tenant\":\"{}\",\"op\":\"{}\",\"queue_us\":{},\"run_us\":{},\"total_ms\":{}{}}}",
        crate::proto::json::escape(trace),
        crate::proto::json::escape(tenant),
        op.as_str(),
        wait.as_micros(),
        run.as_micros(),
        (wait + run).as_millis(),
        shard,
    );
}

/// `Err(WrongShard)` when a shard gate is configured and disowns the
/// tenant.
fn check_shard(shared: &Shared, tenant: &str) -> Result<()> {
    match &shared.config.shard_gate {
        Some(gate) if !gate.owns(tenant) => Err(ServiceError::WrongShard {
            tenant: tenant.to_string(),
            shard: gate.label().to_string(),
        }),
        _ => Ok(()),
    }
}

/// `Err(DeadlineExceeded)` once the job's deadline has passed —
/// called at stage boundaries so a running job is reaped cooperatively.
fn check_deadline(cancel: &Cancellation) -> Result<()> {
    if cancel.expired() {
        Err(ServiceError::DeadlineExceeded)
    } else {
        Ok(())
    }
}

fn materialize(data: JobData, cancel: &Cancellation) -> Result<Histogram> {
    match data {
        JobData::Histogram(h) => Ok(h),
        JobData::Rows(rows) => Ok(rows.to_histogram()),
        JobData::Tokens(tokens) => sharded_histogram_cancellable(&tokens, SHARD_THREADS, cancel)
            .map_err(|_| ServiceError::DeadlineExceeded),
    }
}

fn run_payload(
    shared: &Shared,
    payload: JobPayload,
    deadline: Instant,
    trace: &str,
) -> Result<JobOutput> {
    check_shard(shared, payload.tenant())?;
    let cancel = Cancellation::at_deadline(deadline);
    // Sub-span around the PRF-sweep / histogram-build core of each op —
    // the part the paper's cost model says dominates — so a slow `run`
    // can be split into sweep vs registry/ledger overhead.
    let sweep_span = |tenant: &str, kind: JobKind, started: Instant| {
        shared.obs.record(&Span::ending_now(
            trace,
            tenant,
            kind.op(),
            Stage::PrfSweep,
            started.elapsed().as_micros() as u64,
        ));
    };
    match payload {
        JobPayload::Embed {
            tenant,
            data,
            params,
        } => {
            let secret = shared
                .registry
                .read()
                .expect("registry lock poisoned")
                .secret(&tenant)?
                .clone();
            let hist = materialize(data, &cancel)?;
            check_deadline(&cancel)?;
            let sweep_started = Instant::now();
            let out = Watermarker::new(params).generate_histogram(&hist, secret)?;
            sweep_span(&tenant, JobKind::Embed, sweep_started);
            // Reap before recording: the caller sees a deadline error,
            // so the registry must not keep a watermark they never got.
            check_deadline(&cancel)?;
            let ledger_index = {
                let mut registry = shared.registry.write().expect("registry lock poisoned");
                // Stamp under the lock so ledger chronology is monotone
                // in commit order (see Engine::register_tenant).
                let now = registry.clock_floor() + 1;
                registry.record_watermark(&tenant, out.secrets, out.watermarked.clone(), now)?
            };
            Ok(JobOutput::Embed(EmbedOutcome {
                tenant,
                report: out.report,
                watermarked: out.watermarked,
                ledger_index,
            }))
        }
        JobPayload::Detect {
            tenant,
            data,
            params,
        } => {
            let secrets = shared
                .registry
                .read()
                .expect("registry lock poisoned")
                .require_watermark(&tenant)?
                .secrets
                .clone();
            // The stored pairs look their tokens up in the request's row
            // index, or in the histogram a token stream counts into.
            let sweep_started;
            let outcome = match data {
                JobData::Rows(rows) => {
                    check_deadline(&cancel)?;
                    sweep_started = Instant::now();
                    secrets.detect(|t| rows.get(t), &params)
                }
                data => {
                    let hist = materialize(data, &cancel)?;
                    check_deadline(&cancel)?;
                    sweep_started = Instant::now();
                    secrets.detect(|t| hist.count(t), &params)
                }
            };
            sweep_span(&tenant, JobKind::Detect, sweep_started);
            Ok(JobOutput::Detect(DetectOutcome { tenant, outcome }))
        }
        JobPayload::Maintain {
            tenant,
            updates,
            replenish,
        } => {
            // Snapshot the watermark, run maintenance outside the lock,
            // then write back. Maintenance is per-tenant serialised by
            // construction only if callers do not race maintain jobs
            // for the same tenant; concurrent tenants never contend.
            let (secrets, hist) = {
                let registry = shared.registry.read().expect("registry lock poisoned");
                let wm = registry.require_watermark(&tenant)?;
                (wm.secrets.clone(), wm.watermarked.clone())
            };
            let params = freqywm_core::params::GenerationParams::default().with_z(secrets.z());
            let mut maintainer =
                IncrementalWatermarker::new(params, secrets.to_secret_list(), hist.to_histogram());
            let sweep_started = Instant::now();
            let report = maintainer.apply_updates(&updates, replenish)?;
            sweep_span(&tenant, JobKind::Maintain, sweep_started);
            let (secrets, hist) = maintainer.into_parts();
            let ledger_index = {
                let mut registry = shared.registry.write().expect("registry lock poisoned");
                let now = registry.clock_floor() + 1;
                registry.replace_latest_watermark(&tenant, secrets, hist, now)?
            };
            Ok(JobOutput::Maintain(MaintainOutcome {
                tenant,
                report,
                ledger_index,
            }))
        }
    }
}
