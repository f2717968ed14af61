//! What a completed embed leaves resident, and what a served detect
//! allocates, counted by a global allocator: the live heap a durable
//! engine holds per registered-and-embedded tenant, and the number of
//! allocations one detect request makes end to end. Its own test
//! binary, because the allocator counts every allocation in the
//! process; the tests take a lock so neither counts the other's.
//!
//! The tenants have the shape of tierbench's `embed_cold` requests:
//! power-law histograms of 250–1000 tokens of about nine bytes, and
//! every embed onboards a fresh tenant, so all of them stay resident.

use freqywm_core::params::GenerationParams;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_data::token::Token;
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::job::{JobData, JobOutput, JobPayload, JobSpec, JobState};
use freqywm_service::proto::handle_line;
use freqywm_service::proto::json::escape;
use freqywm_service::storage::DiskLog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Bytes currently allocated through [`Counting`].
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Allocations and reallocations made through [`Counting`].
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Held by each test while it counts.
static SERIAL: Mutex<()> = Mutex::new(());

/// The system allocator, counting live bytes and allocation calls.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Tenant `k`: 250–1000 tokens, α in 0.4–0.9, z ∈ {131, 1031}.
fn tenant(k: usize) -> (String, Histogram, GenerationParams) {
    let vocab = 250 + (k * 379) % 751;
    let alpha = 0.4 + 0.5 * ((k * 7) % 11) as f64 / 10.0;
    let counts = power_law_counts(&PowerLawConfig {
        distinct_tokens: vocab,
        sample_size: vocab * 1000,
        alpha,
    });
    let hist = Histogram::from_counts(
        counts
            .into_iter()
            .enumerate()
            .map(|(i, (_, c))| (Token::new(format!("e{k}c0-{i}")), c)),
    );
    let params = GenerationParams::default()
        .with_z([131, 1031][k % 2])
        .with_exclude_free_pairs(true);
    (format!("e7-0-{k}"), hist, params)
}

/// Registers and embeds tenant `k`; returns its name and watermarked
/// histogram.
fn register_and_embed(engine: &Engine, k: usize) -> (String, Histogram) {
    let (name, hist, params) = tenant(k);
    engine
        .register_tenant(&name, Secret::from_label(&name))
        .expect("fresh tenant registers");
    match engine.run(JobSpec::new(JobPayload::Embed {
        tenant: name.clone(),
        data: JobData::Histogram(hist),
        params,
    })) {
        JobState::Completed(JobOutput::Embed(out)) => (name, out.watermarked),
        other => panic!("embed for {name} did not complete: {other:?}"),
    }
}

#[test]
fn completed_embeds_leave_at_most_16_kib_resident_each() {
    const WARM_UP: usize = 20;
    const EMBEDS: usize = 200;
    const MAX_PER_EMBED: isize = 16 * 1024;

    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("residency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::open(
        EngineConfig {
            workers: 1,
            // Fixed-size rings, filled during the warm-up, so only what
            // an embed leaves in the registry grows with the count.
            trace_ring: 16,
            retain_snapshots: 2,
            ..EngineConfig::default()
        },
        Box::new(DiskLog::open(&dir).expect("data-dir opens")),
    )
    .expect("engine opens");
    for k in 0..WARM_UP {
        register_and_embed(&engine, k);
    }
    let before = LIVE.load(Ordering::Relaxed);
    for k in WARM_UP..WARM_UP + EMBEDS {
        register_and_embed(&engine, k);
    }
    let per_embed = (LIVE.load(Ordering::Relaxed) - before) / EMBEDS as isize;
    eprintln!("live heap per completed embed: {per_embed} bytes");
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        per_embed <= MAX_PER_EMBED,
        "each embed left {per_embed} bytes resident (limit {MAX_PER_EMBED})"
    );
}

#[test]
fn a_served_detect_of_a_600_token_line_allocates_at_most_128_times() {
    const MAX_ALLOCS: usize = 128;

    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::start(EngineConfig {
        workers: 1,
        // No retention sample lands inside the counted request.
        retain_interval_ms: 3_600_000,
        ..EngineConfig::default()
    });
    // Tenant 1 has 629 tokens.
    let (name, marked) = register_and_embed(&engine, 1);
    let rows: Vec<String> = marked
        .entries()
        .iter()
        .map(|(t, c)| format!("[\"{}\",{c}]", escape(t.as_str())))
        .collect();
    assert!(rows.len() >= 600, "{} rows", rows.len());
    let line = format!(
        r#"{{"op":"detect","tenant":"{name}","id":7,"counts":[{}]}}"#,
        rows.join(",")
    );
    // The first request warms whatever the engine initialises lazily.
    let first = handle_line(&engine, &line);
    assert!(first.contains("\"accepted\":true"), "{first}");
    let before = ALLOCS.load(Ordering::Relaxed);
    let response = handle_line(&engine, &line);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    eprintln!("allocations per served detect: {allocs}");
    assert_eq!(response, first, "the same request gets the same answer");
    engine.shutdown();
    assert!(
        allocs <= MAX_ALLOCS,
        "a served detect allocated {allocs} times (limit {MAX_ALLOCS})"
    );
}
