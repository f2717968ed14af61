//! FreqyWM as a service: an embeddable multi-tenant watermarking
//! engine.
//!
//! The paper's algorithms are single-shot; a data-marketplace
//! deployment (the "new data economy" scenario motivating FreqyWM)
//! needs many owners, many datasets, concurrent embed/detect traffic
//! and an authoritative registration ledger for disputes. This crate
//! provides that layer:
//!
//! * [`registry`] — tenant ids → zeroize-on-drop secrets and their
//!   embedded watermarks, every registration committed to the
//!   hash-chained ledger so chronology is tamper-evident;
//! * [`engine`] — a bounded-queue worker pool (std threads) running
//!   embed / detect / maintain jobs concurrently with per-job queue
//!   deadlines, plus ledger-tiebroken dispute arbitration;
//! * [`prf_cache`] — a sharded LRU memoizing the pair PRF
//!   `H(tk_i ‖ H(R ‖ tk_j)) mod z`, with hit/miss counters. The engine
//!   no longer uses it (a warm hit costs more than the batched PRF);
//!   it stays for the benchmark's per-layer probes;
//! * [`shard`] — parallel histogram construction for large token
//!   streams;
//! * [`metrics`] — job/latency counters and JSON snapshots;
//! * [`proto`] — the JSON-lines request/response protocol behind
//!   `freqywm serve` and `freqywm batch`;
//! * [`storage`] + [`persist`] — the durability layer: a pluggable
//!   [`Storage`] backend (in-memory, on-disk data-dir, fault
//!   injection) under a write-ahead event log with snapshots,
//!   compaction and crash-safe, chain-verifying replay.
//!
//! Tracing (`freqywm-obs`, re-exported here) is always on: every
//! request carries a trace id through the queue into the worker, and
//! each stage records a [`Span`] into the engine's lock-free ring —
//! query via the `trace` protocol op or [`engine::Engine::trace_query`].

pub mod engine;
pub mod error;
pub mod framing;
pub mod job;
pub mod metrics;
pub mod persist;
pub mod prf_cache;
pub mod proto;
pub mod quota;
pub mod registry;
pub mod replica;
pub mod shard;
pub mod storage;
mod swar;

pub use engine::{DisputeOutcome, Engine, EngineConfig, PromoteReport, ShardGate};
pub use error::ServiceError;
pub use freqywm_obs::{OpKind, Span, SpanRing, Stage, TraceFilter};
pub use job::{
    DetectOutcome, EmbedOutcome, JobData, JobKind, JobOutput, JobPayload, JobSpec, JobState,
    MaintainOutcome, Ticket,
};
pub use metrics::{aggregate_shard_metrics, Metrics, MetricsSnapshot, ShardMetricsPiece, M};
pub use persist::{DurableRegistry, RecoveryReport, RegistryEvent, ReplicaBatch};
pub use prf_cache::{CacheStats, PrfCache, PrfCacheConfig};
pub use quota::{QuotaConfig, QuotaLimits, QuotaManager, QuotaStatus, SlidingWindow, UNLIMITED};
pub use registry::{
    CountRows, KeyRegistry, QuotaRecord, StoredHistogram, StoredSecrets, StoredWatermark,
    TenantSnapshot,
};
pub use replica::{spawn_follower, FollowerConfig};
pub use shard::{sharded_histogram, sharded_histogram_cancellable, Cancellation, Cancelled};
pub use storage::{
    DiskLog, FaultyStorage, InMemoryStorage, NullStorage, SnapshotWriter, Storage, StorageError,
};
