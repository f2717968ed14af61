//! Running-job deadline reaping: a job whose deadline passes while it
//! is *executing* (not just queued) is cancelled at the next
//! cooperative checkpoint — the histogram-shard boundary — instead of
//! holding a worker until it finishes.

use freqywm_crypto::prf::Secret;
use freqywm_data::token::Token;
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::job::{JobData, JobPayload, JobSpec, JobState};
use freqywm_service::metrics::M;
use freqywm_service::ServiceError;
use std::time::Duration;

fn big_token_stream(total: usize) -> Vec<Token> {
    // Enough raw tokens that counting them takes well past a
    // millisecond deadline, with a realistic skewed shape.
    let mut tokens = Vec::with_capacity(total);
    let mut i = 0usize;
    while tokens.len() < total {
        let reps = 1 + (total / 500) / (i % 500 + 1);
        for _ in 0..reps {
            if tokens.len() >= total {
                break;
            }
            tokens.push(Token::new(format!("tok-{:03}", i % 500)));
        }
        i += 1;
    }
    tokens
}

#[test]
fn stuck_embed_is_reaped_with_a_deadline_error() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    engine
        .register_tenant("reap", Secret::from_label("cancel-test"))
        .unwrap();

    // 2M tokens to count, 1ms to do it in: the deadline passes while
    // the job is running (or, under extreme scheduler jitter, while
    // still queued — both paths must surface the same deadline error).
    let spec = JobSpec::new(JobPayload::Embed {
        tenant: "reap".into(),
        data: JobData::Tokens(big_token_stream(2_000_000)),
        params: freqywm_core::params::GenerationParams::default().with_z(19),
    })
    .with_timeout(Duration::from_millis(1));
    let state = engine.run(spec);
    assert!(
        matches!(state, JobState::Failed(ServiceError::DeadlineExceeded)),
        "expected a deadline error, got {state:?}"
    );
    let err = match state {
        JobState::Failed(e) => e.to_string(),
        _ => unreachable!(),
    };
    assert!(err.contains("deadline"), "{err}");

    // The reap is a timeout, not a pipeline failure, and it must not
    // have recorded a watermark for the failed embed.
    let m = engine.metrics();
    assert_eq!(m[M::TimedOut], 1, "running reap counts as a timeout");
    assert_eq!(m[M::Failed], 0, "running reap is not a pipeline failure");
    assert!(
        engine.registry().latest_watermark("reap").is_none(),
        "a reaped embed must not leave a watermark behind"
    );

    // The worker survives and serves the next job normally.
    let counts: Vec<(Token, u64)> = (0..60u64)
        .map(|i| {
            (
                Token::new(format!("t{i:02}")),
                2_000 / (i + 1) + 7 * (60 - i),
            )
        })
        .collect();
    let ok = engine.run(JobSpec::new(JobPayload::Embed {
        tenant: "reap".into(),
        data: JobData::Histogram(freqywm_data::histogram::Histogram::from_counts(counts)),
        params: freqywm_core::params::GenerationParams::default().with_z(19),
    }));
    assert!(
        matches!(ok, JobState::Completed(_)),
        "engine must keep serving after a reap: {ok:?}"
    );
    engine.shutdown();
}

#[test]
fn generous_deadline_lets_the_same_job_finish() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    engine
        .register_tenant("ok", Secret::from_label("cancel-ok"))
        .unwrap();
    let spec = JobSpec::new(JobPayload::Embed {
        tenant: "ok".into(),
        data: JobData::Tokens(big_token_stream(200_000)),
        params: freqywm_core::params::GenerationParams::default().with_z(19),
    })
    .with_timeout(Duration::from_secs(120));
    let state = engine.run(spec);
    assert!(
        matches!(state, JobState::Completed(_)),
        "same pipeline with a real deadline completes: {state:?}"
    );
    engine.shutdown();
}
