//! Quota-tier integration tests: the admission gate as seen through
//! the engine API.
//!
//! Pins two acceptance properties from the quota design:
//!
//! 1. **Refusal is not rejection.** A quota-refused job never enters
//!    the queue, so it must not leave *any* trace in the job-flow
//!    metrics — `submitted`, `rejected`, the queue-wait histogram and
//!    the per-tenant op counters all stay put; only the dedicated
//!    `quota_refused` counters move.
//! 2. **Budgets are durable.** Explicit limits and the consumed-window
//!    checkpoint ride the registry log, so a crash-restart (drop the
//!    engine, replay the log) keeps refusing an exhausted tenant until
//!    an operator raises its budget live.

use freqywm_core::params::GenerationParams;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::job::{JobData, JobOutput, JobPayload, JobSpec, JobState};
use freqywm_service::metrics::M;
use freqywm_service::storage::InMemoryStorage;
use freqywm_service::{QuotaConfig, QuotaLimits, ServiceError, UNLIMITED};

const KEY: &[u8] = b"quota-suite-ledger-key";

fn hist() -> Histogram {
    Histogram::from_counts(power_law_counts(&PowerLawConfig {
        distinct_tokens: 120,
        sample_size: 120_000,
        alpha: 0.6,
    }))
}

fn embed_spec(tenant: &str) -> JobSpec {
    JobSpec::new(JobPayload::Embed {
        tenant: tenant.to_string(),
        data: JobData::Histogram(hist()),
        params: GenerationParams::default().with_z(101),
    })
}

fn run_embed(engine: &Engine, tenant: &str) {
    match engine.run(embed_spec(tenant)) {
        JobState::Completed(JobOutput::Embed(_)) => {}
        other => panic!("embed for {tenant} did not complete: {other:?}"),
    }
}

/// An engine whose default quota caps every tenant at one embed per
/// (long) window, so the second embed is refused deterministically.
fn capped_engine(embed_budget: u64) -> Engine {
    Engine::start(EngineConfig {
        workers: 2,
        quota: QuotaConfig {
            limits: QuotaLimits {
                embed: embed_budget,
                detect: UNLIMITED,
                maintain: UNLIMITED,
            },
            // An hour: nothing rotates out mid-test.
            window_ms: 3_600_000,
        },
        ..EngineConfig::default()
    })
}

/// The bugfix pin: a refusal at admission bumps `quota_refused` (global
/// and per-tenant) and NOTHING else — not `submitted`, not `rejected`,
/// not the queue-wait histogram, not the per-tenant op/rejected
/// counters.
#[test]
fn quota_refusal_leaves_job_flow_metrics_untouched() {
    let engine = capped_engine(1);
    engine
        .register_tenant("capped", Secret::from_label("capped"))
        .unwrap();
    run_embed(&engine, "capped");
    let before = engine.metrics();

    let refused = engine.submit(embed_spec("capped"));
    let Err(ServiceError::QuotaExhausted {
        kind,
        retry_after_ms,
    }) = refused
    else {
        panic!("over-budget embed must be refused: {refused:?}");
    };
    assert_eq!(kind, freqywm_service::job::JobKind::Embed);
    assert!(retry_after_ms >= 1, "retry hint must be actionable");

    let after = engine.metrics();
    // Only the quota counters moved.
    assert_eq!(after[M::QuotaRefused], before[M::QuotaRefused] + 1);
    assert_eq!(
        after[M::Submitted],
        before[M::Submitted],
        "refused ≠ submitted"
    );
    assert_eq!(
        after[M::Rejected],
        before[M::Rejected],
        "refused ≠ rejected"
    );
    assert_eq!(
        after.queue_wait.count, before.queue_wait.count,
        "a refused job never waits in the queue"
    );
    let row = |snap: &freqywm_service::metrics::MetricsSnapshot| {
        snap.per_tenant
            .iter()
            .find(|r| r.tenant == "capped")
            .expect("capped row")
            .ops
    };
    let (b, a) = (row(&before), row(&after));
    assert_eq!(a[M::TenantQuotaRefused], b[M::TenantQuotaRefused] + 1);
    assert_eq!(
        a[M::TenantEmbed],
        b[M::TenantEmbed],
        "no op attribution for a refused job"
    );
    assert_eq!(a[M::TenantAdmitted], b[M::TenantAdmitted]);
    assert_eq!(a[M::TenantRejected], b[M::TenantRejected]);

    // Detect stays unlimited for the same tenant, and a co-tenant's
    // embed budget is its own: fairness is per tenant, per class.
    engine
        .register_tenant("neighbor", Secret::from_label("neighbor"))
        .unwrap();
    run_embed(&engine, "neighbor");
    engine.shutdown();
}

/// A refused job id is not observable: `status` on the would-be id
/// reports nothing, because the job was removed before it ever became
/// poppable.
#[test]
fn refused_job_never_enters_the_queue() {
    let engine = capped_engine(0);
    engine
        .register_tenant("zero", Secret::from_label("zero"))
        .unwrap();
    assert!(matches!(
        engine.submit(embed_spec("zero")),
        Err(ServiceError::QuotaExhausted { .. })
    ));
    let snap = engine.metrics();
    assert_eq!(snap[M::QueueDepth], 0);
    assert_eq!(snap[M::Submitted], 0);
    assert_eq!(snap[M::QuotaRefused], 1);
    engine.shutdown();
}

/// Budgets and the consumed window survive a crash-restart: the limits
/// come back from the replayed `SetQuota` event, the in-window
/// consumption from the last `QuotaCheckpoint`, and the tenant stays
/// refused until the operator raises the budget live.
#[test]
fn budgets_and_consumed_window_survive_restart() {
    let storage = InMemoryStorage::new();
    {
        let engine = Engine::open(
            EngineConfig {
                workers: 2,
                ledger_key: KEY.to_vec(),
                snapshot_every: 0,
                ..EngineConfig::default()
            },
            Box::new(storage.clone()),
        )
        .unwrap();
        engine
            .register_tenant("acme", Secret::from_label("acme"))
            .unwrap();
        engine
            .set_quota(
                "acme",
                QuotaLimits {
                    embed: 2,
                    detect: UNLIMITED,
                    maintain: UNLIMITED,
                },
                Some(3_600_000),
            )
            .unwrap();
        run_embed(&engine, "acme");
        run_embed(&engine, "acme");
        // Spending the last unit checkpoints the window through the
        // registry log; the refusal right after proves it's spent.
        assert!(matches!(
            engine.submit(embed_spec("acme")),
            Err(ServiceError::QuotaExhausted { .. })
        ));
        // Crash: drop without shutdown/checkpoint. Only `storage`
        // (the durable log) survives.
        drop(engine);
    }

    let engine = Engine::open(
        EngineConfig {
            workers: 2,
            ledger_key: KEY.to_vec(),
            ..EngineConfig::default()
        },
        Box::new(storage),
    )
    .unwrap();
    let status = engine.quota_status("acme").unwrap();
    assert!(status.explicit, "explicit limits must replay");
    assert_eq!(status.limits.embed, 2);
    assert_eq!(status.window_ms, 3_600_000);
    assert_eq!(
        status.used[0], 2,
        "consumed window must come back from the checkpoint"
    );
    // Still refused after the restart — a crash is not a budget reset.
    assert!(matches!(
        engine.submit(embed_spec("acme")),
        Err(ServiceError::QuotaExhausted { .. })
    ));

    // The runbook move: raise the budget live, tenant unblocks now.
    engine
        .set_quota(
            "acme",
            QuotaLimits {
                embed: 100,
                detect: UNLIMITED,
                maintain: UNLIMITED,
            },
            Some(3_600_000),
        )
        .unwrap();
    run_embed(&engine, "acme");
    engine.shutdown();
}

/// Removing a tenant drops its filter: a re-registered tenant starts
/// from engine defaults with a fresh window.
#[test]
fn tenant_removal_clears_quota_state() {
    let engine = capped_engine(1);
    engine
        .register_tenant("t", Secret::from_label("t"))
        .unwrap();
    run_embed(&engine, "t");
    assert!(matches!(
        engine.submit(embed_spec("t")),
        Err(ServiceError::QuotaExhausted { .. })
    ));
    engine.remove_tenant("t").unwrap();
    engine
        .register_tenant("t", Secret::from_label("t2"))
        .unwrap();
    // Fresh filter: the default budget (1 embed) is available again.
    run_embed(&engine, "t");
    engine.shutdown();
}
