//! Service-level errors.

use std::fmt;

/// Everything that can go wrong between a request entering the engine
/// and its job reaching a terminal state.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The tenant id is not in the key registry.
    UnknownTenant(String),
    /// A tenant with this id is already registered.
    DuplicateTenant(String),
    /// The tenant exists but has never completed an embed job, so there
    /// is no secret list to detect or maintain against.
    NoWatermark(String),
    /// The bounded job queue is at capacity — backpressure, try later.
    QueueFull { capacity: usize },
    /// The engine is draining or stopped and accepts no new jobs.
    ShuttingDown,
    /// The job missed its deadline — either waiting in the queue, or
    /// while running (reaped at a cooperative cancellation checkpoint).
    DeadlineExceeded,
    /// The tenant hashes to a different shard than the one this engine
    /// serves (`freqywm serve --shard-id i/N`): the request was
    /// misrouted or the shard map changed.
    WrongShard { tenant: String, shard: String },
    /// A malformed request (protocol layer).
    BadRequest(String),
    /// The underlying watermarking pipeline failed.
    Core(freqywm_core::Error),
    /// A job panicked inside a worker; the worker survived.
    Internal(String),
    /// The durable storage layer failed (append, snapshot or an
    /// unrecoverable log/snapshot image at open).
    Storage(String),
    /// The engine is a read-only replica tailing a primary's log
    /// (`freqywm serve --follow`): mutations are refused until a
    /// `promote` op flips it to primary.
    ReadOnlyFollower,
    /// The tenant's sliding-window budget for this op class is spent:
    /// the job was refused at admission and never entered the queue.
    /// `retry_after_ms` hints when the oldest consumed bucket rotates
    /// out of the window.
    QuotaExhausted {
        kind: crate::job::JobKind,
        retry_after_ms: u64,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServiceError::DuplicateTenant(t) => write!(f, "tenant {t:?} already registered"),
            ServiceError::NoWatermark(t) => {
                write!(
                    f,
                    "tenant {t:?} has no registered watermark (run embed first)"
                )
            }
            ServiceError::QueueFull { capacity } => {
                write!(f, "job queue full (capacity {capacity})")
            }
            ServiceError::ShuttingDown => write!(f, "engine is shutting down"),
            ServiceError::DeadlineExceeded => write!(f, "job deadline exceeded"),
            ServiceError::WrongShard { tenant, shard } => {
                write!(f, "tenant {tenant:?} is not owned by this shard ({shard})")
            }
            ServiceError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServiceError::Core(e) => write!(f, "watermarking error: {e}"),
            ServiceError::Internal(msg) => write!(f, "internal error: {msg}"),
            ServiceError::Storage(msg) => write!(f, "storage error: {msg}"),
            ServiceError::ReadOnlyFollower => {
                write!(f, "read-only follower: mutations refused until promoted")
            }
            ServiceError::QuotaExhausted {
                kind,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "quota exhausted: {} budget spent for this window (retry after {} ms)",
                    kind.op().as_str(),
                    retry_after_ms
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<freqywm_core::Error> for ServiceError {
    fn from(e: freqywm_core::Error) -> Self {
        ServiceError::Core(e)
    }
}

pub type Result<T> = std::result::Result<T, ServiceError>;
