//! Job model: what the engine accepts and what it hands back.

use crate::error::ServiceError;
use crate::registry::CountRows;
use freqywm_core::detect::DetectTotals;
use freqywm_core::generate::GenerationReport;
use freqywm_core::incremental::MaintenanceReport;
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_data::histogram::Histogram;
use freqywm_data::token::Token;
use freqywm_obs::OpKind;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Input data for embed/detect jobs: a pre-counted histogram, packed
/// and indexed count rows (a detect request's `counts`, in which the
/// worker looks up the stored pairs without building a histogram), or
/// a raw token stream (counted by the engine's sharded builder).
#[derive(Debug, Clone)]
pub enum JobData {
    Histogram(Histogram),
    Rows(CountRows),
    Tokens(Vec<Token>),
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

impl JobKind {
    /// The wire op that runs this kind of job: its span label, and the
    /// name of its quota class.
    pub fn op(self) -> OpKind {
        match self {
            JobKind::Embed => OpKind::Embed,
            JobKind::Detect => OpKind::Detect,
            JobKind::Maintain => OpKind::Maintain,
        }
    }
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

/// How a submitted job ended: completed, failed (a deadline counts),
/// or cancelled by an immediate shutdown before it ran.
#[derive(Debug, Clone)]
pub enum JobState {
    Completed(JobOutput),
    Failed(ServiceError),
    Cancelled,
}

/// Where a job's [`JobState`] goes. The engine queues it with the job
/// and calls it exactly once: on the worker that finished the job, or
/// on the thread whose immediate shutdown cancelled it, with no engine
/// lock held. It must not block.
pub(crate) type JobSink = Box<dyn FnOnce(JobState) + Send>;

/// A one-job sink: what [`crate::Engine::submit`] hands back, to block
/// on until the job ends.
#[derive(Debug)]
pub struct Ticket(Arc<(Mutex<Option<JobState>>, Condvar)>);

impl Ticket {
    /// A ticket and the sink that fills it.
    pub(crate) fn new() -> (Ticket, JobSink) {
        let slot = Arc::new((Mutex::new(None), Condvar::new()));
        let fill = Arc::clone(&slot);
        let sink = Box::new(move |state| {
            *fill.0.lock().expect("ticket lock poisoned") = Some(state);
            fill.1.notify_one();
        });
        (Ticket(slot), sink)
    }

    /// Blocks until the job ends and returns how it ended.
    pub fn wait(self) -> JobState {
        let (lock, ended) = &*self.0;
        let state = lock.lock().expect("ticket lock poisoned");
        ended
            .wait_while(state, |state| state.is_none())
            .expect("ticket lock poisoned")
            .take()
            .expect("woken with the job's end")
    }
}
