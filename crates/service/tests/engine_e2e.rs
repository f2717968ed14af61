//! Engine integration tests: the full marketplace lifecycle
//! (register → embed → detect → dispute) through the service API, the
//! acceptance criteria for concurrent multi-tenant detection, and a
//! thread-storm smoke test.

use freqywm_core::incremental::IncrementalWatermarker;
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, power_law_dataset_seeded, PowerLawConfig};
use freqywm_data::token::Token;
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::job::{JobData, JobOutput, JobPayload, JobSpec, JobState};
use freqywm_service::metrics::M;
use freqywm_service::ServiceError;
use std::sync::Arc;
use std::time::Duration;

fn zipf_hist(alpha: f64, tokens: usize, samples: usize) -> Histogram {
    Histogram::from_counts(power_law_counts(&PowerLawConfig {
        distinct_tokens: tokens,
        sample_size: samples,
        alpha,
    }))
}

fn embed(engine: &Engine, tenant: &str, hist: Histogram, params: GenerationParams) -> Histogram {
    let state = engine.run(JobSpec::new(JobPayload::Embed {
        tenant: tenant.to_string(),
        data: JobData::Histogram(hist),
        params,
    }));
    match state {
        JobState::Completed(JobOutput::Embed(out)) => out.watermarked,
        other => panic!("embed for {tenant} did not complete: {other:?}"),
    }
}

fn detect(
    engine: &Engine,
    tenant: &str,
    hist: &Histogram,
    params: DetectionParams,
) -> freqywm_core::detect::DetectTotals {
    let state = engine.run(JobSpec::new(JobPayload::Detect {
        tenant: tenant.to_string(),
        data: JobData::Histogram(hist.clone()),
        params,
    }));
    match state {
        JobState::Completed(JobOutput::Detect(out)) => out.outcome,
        other => panic!("detect for {tenant} did not complete: {other:?}"),
    }
}

#[test]
fn register_embed_detect_dispute_lifecycle() {
    let engine = Engine::start(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    });
    // Free-pair exclusion hardens the dispute protocol (Sec. V-D).
    let params = GenerationParams::default()
        .with_z(101)
        .with_exclude_free_pairs(true);

    // Register the honest owner, embed into its dataset.
    engine
        .register_tenant("owner", Secret::from_label("e2e-owner"))
        .unwrap();
    let original = zipf_hist(0.5, 400, 800_000);
    let owner_marked = embed(&engine, "owner", original.clone(), params);

    // A pirate steals the owner's watermarked copy and re-embeds.
    engine
        .register_tenant("pirate", Secret::from_label("e2e-pirate"))
        .unwrap();
    let _pirate_marked = embed(&engine, "pirate", owner_marked.clone(), params);

    // Detection: each tenant's mark verifies fully on its own copy.
    let owner_pairs = engine
        .registry()
        .require_watermark("owner")
        .unwrap()
        .secrets
        .len();
    let d = detect(
        &engine,
        "owner",
        &owner_marked,
        DetectionParams::default().with_t(0).with_k(owner_pairs),
    );
    assert!(d.accepted);
    assert_eq!(d.accepted_pairs, owner_pairs);
    // The original (pre-watermark) data does not fully verify.
    let d = detect(
        &engine,
        "owner",
        &original,
        DetectionParams::default().with_t(0).with_k(owner_pairs),
    );
    assert!(!d.accepted);

    // Dispute: the owner's mark survives re-watermarking, the pirate's
    // cannot pre-exist in the owner's earlier copy.
    let k = (owner_pairs / 4).max(1);
    let ruling = engine
        .dispute(
            "owner",
            "pirate",
            &DetectionParams::default().with_t(0).with_k(k),
        )
        .unwrap();
    assert_eq!(ruling.winner, "owner");
    assert!(ruling.decisive_protocol);
    assert_eq!(ruling.ledger_order, std::cmp::Ordering::Less);

    // The registration chain stayed intact through all of it.
    assert!(engine.registry().ledger().verify_chain().is_ok());
    assert_eq!(engine.registry().ledger().len(), 4); // 2 onboardings + 2 embeds

    // Unknown tenants surface typed errors.
    assert!(matches!(
        engine.dispute("owner", "ghost", &DetectionParams::default()),
        Err(ServiceError::UnknownTenant(_))
    ));
    engine.shutdown();
}

/// Acceptance criterion: ≥ 4 concurrent detect jobs over distinct
/// tenants with correct per-tenant verdicts.
#[test]
fn concurrent_detects_over_distinct_tenants() {
    const TENANTS: usize = 6;
    let engine = Engine::start(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    });
    let gen_params = GenerationParams::default().with_z(101);

    let mut marked = Vec::new();
    for t in 0..TENANTS {
        let tenant = format!("tenant-{t}");
        engine
            .register_tenant(&tenant, Secret::from_label(&format!("conc-{t}")))
            .unwrap();
        // Distinct data per tenant (different skew).
        let hist = zipf_hist(0.4 + 0.08 * t as f64, 200, 200_000);
        let wm = embed(&engine, &tenant, hist, gen_params);
        marked.push((tenant, wm));
    }

    // Submit all detects at once: every tenant checks its own copy AND
    // its right neighbour's copy (which must NOT fully verify under its
    // secret — per-tenant isolation).
    let mut own_tickets = Vec::new();
    let mut cross_tickets = Vec::new();
    for (i, (tenant, wm)) in marked.iter().enumerate() {
        let pairs = engine
            .registry()
            .require_watermark(tenant)
            .unwrap()
            .secrets
            .len();
        let strict = DetectionParams::default().with_t(0).with_k(pairs);
        own_tickets.push((
            engine
                .submit(JobSpec::new(JobPayload::Detect {
                    tenant: tenant.clone(),
                    data: JobData::Histogram(wm.clone()),
                    params: strict,
                }))
                .unwrap(),
            pairs,
        ));
        let neighbour = &marked[(i + 1) % TENANTS].1;
        cross_tickets.push(
            engine
                .submit(JobSpec::new(JobPayload::Detect {
                    tenant: tenant.clone(),
                    data: JobData::Histogram(neighbour.clone()),
                    params: strict,
                }))
                .unwrap(),
        );
    }

    for (ticket, pairs) in own_tickets {
        let JobState::Completed(JobOutput::Detect(d)) = ticket.wait() else {
            panic!("own-copy detect did not complete");
        };
        assert!(
            d.outcome.accepted,
            "tenant {} own copy must verify",
            d.tenant
        );
        assert_eq!(d.outcome.accepted_pairs, pairs);
    }
    for ticket in cross_tickets {
        let JobState::Completed(JobOutput::Detect(d)) = ticket.wait() else {
            panic!("cross-copy detect did not complete");
        };
        assert!(
            !d.outcome.accepted,
            "tenant {} must not fully verify a neighbour's copy",
            d.tenant
        );
    }
    engine.shutdown();
}

/// Token-stream jobs go through sharded histogram construction and
/// behave identically to pre-counted submissions.
#[test]
fn token_stream_jobs_match_histogram_jobs() {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    engine
        .register_tenant("acme", Secret::from_label("tokens-e2e"))
        .unwrap();
    let data = power_law_dataset_seeded(
        &PowerLawConfig {
            distinct_tokens: 120,
            sample_size: 120_000,
            alpha: 0.6,
        },
        42,
    );
    let wm = embed(
        &engine,
        "acme",
        data.histogram(),
        GenerationParams::default().with_z(101),
    );
    // Detect over raw tokens of the watermarked histogram: materialise
    // token instances naively (order is irrelevant to counting).
    let mut tokens = Vec::new();
    for (t, c) in wm.entries() {
        tokens.extend(std::iter::repeat_with(|| t.clone()).take(*c as usize));
    }
    let state = engine.run(JobSpec::new(JobPayload::Detect {
        tenant: "acme".into(),
        data: JobData::Tokens(tokens),
        params: DetectionParams::default().with_t(0).with_k(1),
    }));
    let JobState::Completed(JobOutput::Detect(d)) = state else {
        panic!("token-stream detect did not complete: {state:?}");
    };
    assert!(d.outcome.accepted);
    assert_eq!(d.outcome.accepted_pairs, d.outcome.total_pairs);
    engine.shutdown();
}

/// Maintenance: updates flow through a maintain job, the refreshed
/// watermark verifies, and the ledger records the new fingerprint.
#[test]
fn maintain_job_repairs_watermark() {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    engine
        .register_tenant("acme", Secret::from_label("maintain-e2e"))
        .unwrap();
    embed(
        &engine,
        "acme",
        zipf_hist(0.6, 200, 300_000),
        GenerationParams::default().with_z(101),
    );
    let ledger_before = engine.registry().ledger().len();
    // The library mirror every served maintain must match.
    let mut mirror = {
        let stored = engine.registry().require_watermark("acme").unwrap().clone();
        IncrementalWatermarker::new(
            GenerationParams::default().with_z(101),
            stored.secrets.to_secret_list(),
            stored.watermarked.to_histogram(),
        )
    };

    // A day of drift: bump a spread of token counts; then batches of
    // purges, cuts, repeats and newcomers, with and without
    // replenishing.
    let tk = |i: usize| Token::new(format!("tk{i:05}"));
    let batches: Vec<(Vec<(Token, i64)>, bool)> = vec![
        ((0..200).step_by(3).map(|i| (tk(i), 17)).collect(), true),
        (vec![(tk(1), 3), (tk(7), 2), (tk(1), 1)], false),
        (
            vec![(tk(2), -40), (tk(150), 9), (Token::new("newcomer"), 2_500)],
            true,
        ),
        ((0..200).step_by(7).map(|i| (tk(i), -1)).collect(), false),
    ];
    for (k, (updates, replenish)) in batches.into_iter().enumerate() {
        let want = mirror.apply_updates(&updates, replenish).unwrap();
        let state = engine.run(JobSpec::new(JobPayload::Maintain {
            tenant: "acme".into(),
            updates,
            replenish,
        }));
        let JobState::Completed(JobOutput::Maintain(m)) = state else {
            panic!("maintain {k} did not complete: {state:?}");
        };
        assert_eq!(m.report, want, "maintain {k}");
        assert!(m.report.intact + m.report.repaired + m.report.added > 0);
        let registry = engine.registry();
        let stored = registry.require_watermark("acme").unwrap();
        assert!(stored.watermarked == *mirror.histogram(), "maintain {k}");
        assert!(stored.secrets == *mirror.secrets(), "maintain {k}");
    }

    // The refreshed mark verifies on the maintained histogram.
    let maintained = engine
        .registry()
        .require_watermark("acme")
        .unwrap()
        .watermarked
        .to_histogram();
    let pairs = engine
        .registry()
        .require_watermark("acme")
        .unwrap()
        .secrets
        .len();
    let d = detect(
        &engine,
        "acme",
        &maintained,
        DetectionParams::default().with_t(0).with_k(pairs),
    );
    assert!(d.accepted, "maintained watermark must verify: {d:?}");
    // Each maintenance re-registered the fingerprint.
    assert_eq!(engine.registry().ledger().len(), ledger_before + 4);
    assert!(engine.registry().ledger().verify_chain().is_ok());
    engine.shutdown();
}

/// Concurrency smoke test: N submitter threads firing jobs at the pool;
/// no deadlock, no lost jobs, every job reaches a terminal state and
/// the metrics ledger balances.
#[test]
fn thread_storm_loses_no_jobs() {
    const SUBMITTERS: usize = 8;
    const PER_THREAD: usize = 25;
    const TENANTS: usize = 4;
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 4,
        queue_capacity: SUBMITTERS * PER_THREAD + 16,
        ..EngineConfig::default()
    }));
    let mut marked = Vec::new();
    for t in 0..TENANTS {
        let tenant = format!("storm-{t}");
        engine
            .register_tenant(&tenant, Secret::from_label(&tenant))
            .unwrap();
        let wm = embed(
            &engine,
            &tenant,
            zipf_hist(0.5 + 0.05 * t as f64, 120, 80_000),
            GenerationParams::default().with_z(101),
        );
        marked.push((tenant, wm));
    }
    let marked = Arc::new(marked);

    let mut handles = Vec::new();
    for s in 0..SUBMITTERS {
        let engine = Arc::clone(&engine);
        let marked = Arc::clone(&marked);
        handles.push(std::thread::spawn(move || {
            let mut verdicts = Vec::with_capacity(PER_THREAD);
            for i in 0..PER_THREAD {
                let (tenant, wm) = &marked[(s + i) % TENANTS];
                let ticket = engine
                    .submit(JobSpec::new(JobPayload::Detect {
                        tenant: tenant.clone(),
                        data: JobData::Histogram(wm.clone()),
                        params: DetectionParams::default().with_t(0).with_k(1),
                    }))
                    .expect("queue sized for the storm");
                verdicts.push(ticket);
            }
            // Wait for own jobs; all must complete and accept.
            for ticket in verdicts {
                match ticket.wait() {
                    JobState::Completed(JobOutput::Detect(d)) => {
                        assert!(d.outcome.accepted, "{}", d.tenant);
                    }
                    other => panic!("job lost or failed: {other:?}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("submitter panicked");
    }

    let m = engine.metrics();
    let total = (SUBMITTERS * PER_THREAD) as u64 + TENANTS as u64; // + embeds
    assert_eq!(m[M::Submitted], total);
    assert_eq!(m[M::Completed], total);
    assert_eq!(m[M::Failed], 0);
    assert_eq!(m[M::TimedOut], 0);
    assert_eq!(m[M::QueueDepth], 0);
    assert_eq!(m[M::DetectJobs], (SUBMITTERS * PER_THREAD) as u64);
    engine.shutdown();
}

/// A ticket's `wait` delivers the job's result.
#[test]
fn wait_consumes_results() {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    engine
        .register_tenant("acme", Secret::from_label("consume-e2e"))
        .unwrap();
    let ticket = engine
        .submit(JobSpec::new(JobPayload::Embed {
            tenant: "acme".into(),
            data: JobData::Histogram(zipf_hist(0.6, 100, 100_000)),
            params: GenerationParams::default().with_z(101),
        }))
        .unwrap();
    assert!(matches!(
        ticket.wait(),
        JobState::Completed(JobOutput::Embed(_))
    ));
    engine.shutdown();
}

/// Backpressure and deadline semantics: a full queue rejects, an
/// expired queue deadline fails the job, and graceful shutdown drains.
#[test]
fn backpressure_deadlines_and_graceful_shutdown() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 2,
        ..EngineConfig::default()
    });
    engine
        .register_tenant("acme", Secret::from_label("bp-e2e"))
        .unwrap();
    // Big enough that one embed keeps the single worker busy for tens
    // of milliseconds — submits below are effectively instantaneous.
    let slow_hist = zipf_hist(0.5, 700, 2_000_000);
    let embed_spec = || {
        JobSpec::new(JobPayload::Embed {
            tenant: "acme".into(),
            data: JobData::Histogram(slow_hist.clone()),
            params: GenerationParams::default().with_z(101),
        })
    };

    // One embed occupies the worker…
    let first = engine.submit(embed_spec()).unwrap();
    // Wait for the worker to pick it up so the queue is empty again.
    for _ in 0..1_000 {
        if engine.metrics()[M::QueueDepth] == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // …a zero-deadline detect sits in the queue long past its deadline…
    let expired = engine
        .submit(
            JobSpec::new(JobPayload::Detect {
                tenant: "acme".into(),
                data: JobData::Histogram(slow_hist.clone()),
                params: DetectionParams::default(),
            })
            .with_timeout(Duration::ZERO),
        )
        .unwrap();
    // …one more embed fills the 2-slot queue; the burst must bounce.
    let queued = engine.submit(embed_spec()).unwrap();
    let mut rejected = 0;
    for _ in 0..8 {
        if matches!(
            engine.submit(embed_spec()),
            Err(ServiceError::QueueFull { .. })
        ) {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "a 2-slot queue must reject an 8-job burst");

    // Graceful shutdown processes everything still queued.
    engine.shutdown();
    assert!(matches!(
        first.wait(),
        JobState::Completed(JobOutput::Embed(_))
    ));
    // `wait` returns only once the job has ended.
    queued.wait();
    assert!(matches!(
        expired.wait(),
        JobState::Failed(ServiceError::DeadlineExceeded)
    ));
    // After shutdown, new submits are refused.
    assert!(matches!(
        engine.submit(embed_spec()),
        Err(ServiceError::ShuttingDown)
    ));
    let m = engine.metrics();
    assert_eq!(m[M::Rejected] as usize, rejected + 1); // + the post-shutdown submit
    engine.shutdown(); // idempotent
}
