//! Job model: what the engine accepts and what it hands back.

use crate::error::ServiceError;
use crate::registry::CountRows;
use freqywm_core::detect::DetectTotals;
use freqywm_core::generate::GenerationReport;
use freqywm_core::incremental::MaintenanceReport;
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_data::histogram::Histogram;
use freqywm_data::token::Token;
use std::time::Duration;

/// Engine-assigned job identifier.
pub type JobId = u64;

/// Input data for embed/detect jobs: a pre-counted histogram, packed
/// count rows (a detect request's `counts`, streamed by the worker
/// without building a histogram), or a raw token stream (counted by
/// the engine's sharded builder).
#[derive(Debug, Clone)]
pub enum JobData {
    Histogram(Histogram),
    Rows(CountRows),
    Tokens(Vec<Token>),
}

impl JobData {
    pub fn len_hint(&self) -> usize {
        match self {
            JobData::Histogram(h) => h.len(),
            JobData::Rows(r) => r.len(),
            JobData::Tokens(t) => t.len(),
        }
    }
}

/// What to do.
#[derive(Debug, Clone)]
pub enum JobPayload {
    /// Run `WM_Generate` with the tenant's registered secret and record
    /// the resulting watermark in the registry + ledger.
    Embed {
        tenant: String,
        data: JobData,
        params: GenerationParams,
    },
    /// Run `WM_Detect` against the tenant's latest registered
    /// watermark.
    Detect {
        tenant: String,
        data: JobData,
        params: DetectionParams,
    },
    /// Apply a batch of count updates to the tenant's latest
    /// watermarked histogram and repair the mark (incremental
    /// maintenance), re-registering the updated secret list.
    Maintain {
        tenant: String,
        updates: Vec<(Token, i64)>,
        replenish: bool,
    },
}

impl JobPayload {
    pub fn kind(&self) -> JobKind {
        match self {
            JobPayload::Embed { .. } => JobKind::Embed,
            JobPayload::Detect { .. } => JobKind::Detect,
            JobPayload::Maintain { .. } => JobKind::Maintain,
        }
    }

    pub fn tenant(&self) -> &str {
        match self {
            JobPayload::Embed { tenant, .. }
            | JobPayload::Detect { tenant, .. }
            | JobPayload::Maintain { tenant, .. } => tenant,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    Embed,
    Detect,
    Maintain,
}

/// A payload plus per-job policy.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub payload: JobPayload,
    /// Whole-lifetime deadline: a job that has not *finished* by then
    /// is failed with [`ServiceError::DeadlineExceeded`] — reaped from
    /// the queue, or cancelled at the next cooperative checkpoint
    /// (histogram-shard boundary, stage boundary) if it was already
    /// running. `None` uses the engine default.
    pub timeout: Option<Duration>,
    /// End-to-end trace id correlating this job with the protocol
    /// request (and router hop) that produced it. `None` makes the
    /// engine mint one at submit, so every span is attributable.
    pub trace: Option<String>,
}

impl JobSpec {
    pub fn new(payload: JobPayload) -> Self {
        JobSpec {
            payload,
            timeout: None,
            trace: None,
        }
    }

    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    pub fn with_trace(mut self, trace: impl Into<String>) -> Self {
        self.trace = Some(trace.into());
        self
    }
}

/// Successful job results.
#[derive(Debug, Clone)]
pub enum JobOutput {
    Embed(EmbedOutcome),
    Detect(DetectOutcome),
    Maintain(MaintainOutcome),
}

#[derive(Debug, Clone)]
pub struct EmbedOutcome {
    pub tenant: String,
    pub report: GenerationReport,
    /// The watermarked histogram (also stored in the registry).
    pub watermarked: Histogram,
    /// Ledger index of the watermark's fingerprint entry.
    pub ledger_index: u64,
}

#[derive(Debug, Clone)]
pub struct DetectOutcome {
    pub tenant: String,
    /// The verdict totals; the per-pair detail stays in the library's
    /// [`freqywm_core::detect::detect_histogram`].
    pub outcome: DetectTotals,
}

#[derive(Debug, Clone)]
pub struct MaintainOutcome {
    pub tenant: String,
    pub report: MaintenanceReport,
    /// Ledger index of the refreshed watermark fingerprint.
    pub ledger_index: u64,
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone)]
pub enum JobState {
    Queued,
    Running,
    Completed(JobOutput),
    Failed(ServiceError),
    Cancelled,
}

impl JobState {
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}
