//! Maintains of one tenant submitted from many threads at once: each
//! must land on the watermark the previous one left, so no update is
//! lost and a maintain never overwrites a newer watermark.

use freqywm_core::params::GenerationParams;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_data::token::Token;
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::job::{JobData, JobOutput, JobPayload, JobSpec, JobState};
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;
const MAINTAINS_PER_THREAD: u64 = 50;

fn maintain(engine: &Engine, tenant: &str, token: &Token) {
    let state = engine.run(JobSpec::new(JobPayload::Maintain {
        tenant: tenant.to_string(),
        updates: vec![(token.clone(), 1)],
        replenish: false,
    }));
    assert!(
        matches!(state, JobState::Completed(JobOutput::Maintain(_))),
        "maintain of {token:?} did not complete: {state:?}"
    );
}

#[test]
fn concurrent_maintains_of_one_tenant_lose_no_update() {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    }));
    engine
        .register_tenant("acme", Secret::from_label("maintain-race"))
        .unwrap();
    let hist = Histogram::from_counts(power_law_counts(&PowerLawConfig {
        distinct_tokens: 200,
        sample_size: 300_000,
        alpha: 0.6,
    }));
    let state = engine.run(JobSpec::new(JobPayload::Embed {
        tenant: "acme".into(),
        data: JobData::Histogram(hist),
        params: GenerationParams::default().with_z(101),
    }));
    assert!(matches!(state, JobState::Completed(JobOutput::Embed(_))));

    // One fresh token per thread, outside every chosen pair, so a +1
    // only moves that token's count and the expected end state is
    // exact whatever order the maintains commit in.
    let tokens: Vec<Token> = (0..THREADS)
        .map(|i| Token::new(format!("race-{i}")))
        .collect();

    let start = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = tokens
        .iter()
        .cloned()
        .map(|token| {
            let engine = Arc::clone(&engine);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..MAINTAINS_PER_THREAD {
                    maintain(&engine, "acme", &token);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("maintain thread");
    }

    let end = engine
        .registry()
        .require_watermark("acme")
        .unwrap()
        .watermarked
        .to_histogram();
    for token in &tokens {
        assert_eq!(
            end.count(token),
            Some(MAINTAINS_PER_THREAD),
            "{token:?} lost maintains"
        );
    }
    assert!(engine.registry().ledger().verify_chain().is_ok());
    engine.shutdown();
}
