//! Detect verdicts across an engine restart + registry recovery.
//!
//! Only the registry and ledger are durable, so a reopened engine must
//! detect from the recovered watermarks alone: every tenant verifies
//! its own copy and rejects a neighbour's, for a concurrent first wave
//! and for repeats, exactly as before the restart.

use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::job::{JobData, JobOutput, JobPayload, JobSpec, JobState};
use freqywm_service::storage::InMemoryStorage;

const TENANTS: usize = 4;

fn config() -> EngineConfig {
    EngineConfig {
        workers: 4,
        ledger_key: b"cache-recovery-key".to_vec(),
        ..EngineConfig::default()
    }
}

fn hist(i: usize) -> Histogram {
    Histogram::from_counts(power_law_counts(&PowerLawConfig {
        distinct_tokens: 150,
        sample_size: 150_000,
        alpha: 0.45 + 0.07 * i as f64,
    }))
}

fn detect(engine: &Engine, tenant: &str, hist: &Histogram, k: usize) -> bool {
    let state = engine.run(JobSpec::new(JobPayload::Detect {
        tenant: tenant.to_string(),
        data: JobData::Histogram(hist.clone()),
        params: DetectionParams::default().with_t(0).with_k(k),
    }));
    match state {
        JobState::Completed(JobOutput::Detect(d)) => d.outcome.accepted,
        other => panic!("detect for {tenant} did not complete: {other:?}"),
    }
}

#[test]
fn detects_are_correct_for_concurrent_tenants_after_recovery() {
    let storage = InMemoryStorage::new();

    // Generation 1: register + embed per tenant and record every
    // verdict (own copy verifies, neighbour's does not).
    let mut marked = Vec::new();
    let mut pair_counts = Vec::new();
    let mut verdicts_before = Vec::new();
    {
        let engine = Engine::open(config(), Box::new(storage.clone())).unwrap();
        for i in 0..TENANTS {
            let tenant = format!("tenant-{i}");
            engine
                .register_tenant(&tenant, Secret::from_label(&format!("cache-rec-{i}")))
                .unwrap();
            let JobState::Completed(JobOutput::Embed(out)) =
                engine.run(JobSpec::new(JobPayload::Embed {
                    tenant: tenant.clone(),
                    data: JobData::Histogram(hist(i)),
                    params: GenerationParams::default().with_z(101),
                }))
            else {
                panic!("embed failed for {tenant}");
            };
            marked.push(out.watermarked);
            pair_counts.push(
                engine
                    .registry()
                    .require_watermark(&tenant)
                    .unwrap()
                    .secrets
                    .len(),
            );
        }
        for i in 0..TENANTS {
            let tenant = format!("tenant-{i}");
            let own = detect(&engine, &tenant, &marked[i], pair_counts[i]);
            let cross = detect(&engine, &tenant, &marked[(i + 1) % TENANTS], pair_counts[i]);
            verdicts_before.push((own, cross));
            assert!(own, "{tenant} must verify its own copy");
            assert!(!cross, "{tenant} must not verify a neighbour's copy");
        }
        engine.shutdown();
    }

    // Generation 2: recover the registry.
    let engine = Engine::open(config(), Box::new(storage.clone())).unwrap();
    assert_eq!(engine.registry().len(), TENANTS, "tenants recovered");

    // First post-recovery wave, all tenants concurrently, one own-copy
    // detection each.
    let mut tickets = Vec::new();
    for i in 0..TENANTS {
        let tenant = format!("tenant-{i}");
        let ticket = engine
            .submit(JobSpec::new(JobPayload::Detect {
                tenant: tenant.clone(),
                data: JobData::Histogram(marked[i].clone()),
                params: DetectionParams::default().with_t(0).with_k(pair_counts[i]),
            }))
            .unwrap();
        tickets.push((ticket, tenant));
    }
    for (ticket, tenant) in tickets {
        let JobState::Completed(JobOutput::Detect(d)) = ticket.wait() else {
            panic!("post-recovery detect lost for {tenant}");
        };
        assert!(
            d.outcome.accepted,
            "verdict for {tenant} changed across recovery"
        );
    }

    // Second wave repeats own detections and adds the cross
    // detections: every verdict must match generation 1 exactly.
    for i in 0..TENANTS {
        let tenant = format!("tenant-{i}");
        let own = detect(&engine, &tenant, &marked[i], pair_counts[i]);
        let cross = detect(&engine, &tenant, &marked[(i + 1) % TENANTS], pair_counts[i]);
        assert_eq!(
            (own, cross),
            verdicts_before[i],
            "verdicts for {tenant} changed across recovery"
        );
    }
    engine.shutdown();
}
