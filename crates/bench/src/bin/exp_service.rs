//! Service throughput — the multi-tenant engine under a detect-heavy
//! marketplace load.
//!
//! T tenants each embed a watermark into their own synthetic dataset,
//! then R rounds of re-detection sweep every tenant (the marketplace
//! periodically re-verifying circulating copies). Reported: jobs/sec
//! and mean/p95 job latency, for worker counts {1, 4}.
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_service
//! ```

use freqywm_bench::{
    json_obj, json_out_path, print_header, print_row, timed, write_json_report, zipf_hist,
};
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_crypto::prf::Secret;
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::job::{JobData, JobOutput, JobPayload, JobSpec, JobState};

const TENANTS: usize = 8;
const ROUNDS: usize = 25;
const TOKENS: usize = 300;
const SAMPLES: usize = 300_000;

struct LoadStats {
    jobs_per_sec: f64,
    mean_us: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

fn run_load(workers: usize) -> LoadStats {
    let engine = Engine::start(EngineConfig {
        workers,
        queue_capacity: TENANTS * (ROUNDS + 2),
        ..EngineConfig::default()
    });

    // Phase 1: onboard + embed (not measured; embed is a one-time cost).
    let mut watermarked = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let tenant = format!("tenant-{t:02}");
        engine
            .register_tenant(&tenant, Secret::from_label(&format!("svc-bench-{t}")))
            .expect("register");
        let hist = zipf_hist(0.4 + 0.05 * t as f64, TOKENS, SAMPLES);
        let state = engine.run(JobSpec::new(JobPayload::Embed {
            tenant: tenant.clone(),
            data: JobData::Histogram(hist),
            params: GenerationParams::default().with_z(101),
        }));
        let JobState::Completed(JobOutput::Embed(out)) = state else {
            panic!("embed failed: {state:?}");
        };
        watermarked.push((tenant, out.watermarked));
    }

    // Phase 2: the measured detect wave.
    let params = DetectionParams::default().with_t(0).with_k(1);
    let (jobs, secs) = timed(|| {
        let mut tickets = Vec::with_capacity(TENANTS * ROUNDS);
        for _ in 0..ROUNDS {
            for (tenant, hist) in &watermarked {
                let ticket = engine
                    .submit(JobSpec::new(JobPayload::Detect {
                        tenant: tenant.clone(),
                        data: JobData::Histogram(hist.clone()),
                        params,
                    }))
                    .expect("submit");
                tickets.push(ticket);
            }
        }
        let jobs = tickets.len();
        for ticket in tickets {
            let JobState::Completed(JobOutput::Detect(d)) = ticket.wait() else {
                panic!("detect failed");
            };
            assert!(d.outcome.accepted, "watermarked copy must verify");
        }
        jobs
    });

    let m = engine.metrics();
    let stats = LoadStats {
        jobs_per_sec: jobs as f64 / secs,
        mean_us: m.latency.mean_micros(),
        p50_us: m.latency.quantile_upper_micros(0.50),
        p95_us: m.latency.quantile_upper_micros(0.95),
        p99_us: m.latency.quantile_upper_micros(0.99),
    };
    engine.shutdown();
    stats
}

fn main() {
    println!(
        "\nService throughput — {TENANTS} tenants × {ROUNDS} re-detection rounds \
         ({TOKENS} tokens, {SAMPLES} samples each)"
    );
    let widths = [8usize, 12, 12, 12];
    print_header(&["workers", "jobs/s", "mean µs", "p95 µs"], &widths);
    let mut rows = Vec::new();
    for workers in [1usize, 4] {
        let s = run_load(workers);
        print_row(
            &[
                workers.to_string(),
                format!("{:.0}", s.jobs_per_sec),
                format!("{:.0}", s.mean_us),
                format!("{}", s.p95_us),
            ],
            &widths,
        );
        rows.push(json_obj(&[
            ("workers", workers.to_string()),
            ("jobs_per_sec", format!("{:.1}", s.jobs_per_sec)),
            ("mean_us", format!("{:.1}", s.mean_us)),
            ("p50_us", s.p50_us.to_string()),
            ("p95_us", s.p95_us.to_string()),
            ("p99_us", s.p99_us.to_string()),
        ]));
    }
    if let Some(path) = json_out_path() {
        write_json_report(&path, "exp_service", &rows);
    }
}
