//! Criterion: durable registry recovery throughput — what bounds
//! restart time for a marketplace with a long registration history.
//!
//! Three layers: raw frame scanning (I/O-side decode), full log replay
//! (decode + re-execution + chain verification), and snapshot restore
//! (the compacted path replay stays O(recent) thanks to).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use freqywm_core::secret::SecretList;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::token::Token;
use freqywm_ledger::codec::scan_frames;
use freqywm_ledger::Ledger;
use freqywm_service::persist::DurableRegistry;
use freqywm_service::storage::{InMemoryStorage, Storage};

const KEY: &[u8] = b"bench-ledger-key";

fn wm_secrets(i: usize) -> SecretList {
    SecretList::new(
        vec![
            (
                Token::new(format!("tk-{i}-a")),
                Token::new(format!("tk-{i}-b")),
            ),
            (
                Token::new(format!("tk-{i}-c")),
                Token::new(format!("tk-{i}-d")),
            ),
        ],
        Secret::from_label(&format!("bench-wm-{i}")),
        131,
    )
}

fn wm_hist(i: usize) -> Histogram {
    Histogram::from_counts([
        (Token::new(format!("h{i}-hot")), 1_000 + i as u64),
        (Token::new(format!("h{i}-mid")), 400),
        (Token::new(format!("h{i}-cold")), 90),
    ])
}

/// Builds a history of `events` mutations (alternating registrations
/// and watermark records over 32 tenants) on fresh storage.
fn build_history(events: usize, snapshot_at_end: bool) -> InMemoryStorage {
    let storage = InMemoryStorage::new();
    let mut reg = DurableRegistry::open(KEY, Box::new(storage.clone()), 0).expect("open");
    for i in 0..events {
        let tenant = format!("tenant-{:02}", i % 32);
        let now = (i + 1) as u64;
        if i < 32 {
            reg.register_tenant(&tenant, Secret::from_label(&tenant), now)
                .expect("register");
        } else {
            reg.record_watermark(&tenant, wm_secrets(i), wm_hist(i), now)
                .expect("record");
        }
    }
    if snapshot_at_end {
        reg.snapshot_now().expect("snapshot");
    }
    storage
}

fn bench_frame_scan(c: &mut Criterion) {
    let storage = build_history(512, false);
    let log = storage.clone().read_log().expect("log");
    let mut g = c.benchmark_group("ledger/frame_scan");
    g.throughput(Throughput::Bytes(log.len() as u64));
    g.bench_function(format!("{}B", log.len()), |b| {
        b.iter(|| scan_frames(black_box(&log)).expect("clean log"))
    });
    g.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("ledger/replay");
    for events in [128usize, 512, 2048] {
        let storage = build_history(events, false);
        g.throughput(Throughput::Elements(events as u64));
        g.bench_function(format!("{events}ev"), |b| {
            b.iter(|| {
                let reg = DurableRegistry::open(KEY, Box::new(storage.clone()), 0).expect("replay");
                black_box(reg.ledger().head_hash())
            })
        });
    }
    g.finish();
}

fn bench_snapshot_restore(c: &mut Criterion) {
    let mut g = c.benchmark_group("ledger/snapshot_restore");
    for events in [512usize, 2048] {
        let storage = build_history(events, true);
        g.throughput(Throughput::Elements(events as u64));
        g.bench_function(format!("{events}ev"), |b| {
            b.iter(|| {
                let reg =
                    DurableRegistry::open(KEY, Box::new(storage.clone()), 0).expect("restore");
                black_box(reg.ledger().head_hash())
            })
        });
    }
    g.finish();
}

fn bench_chain_verify(c: &mut Criterion) {
    let mut ledger = Ledger::new(KEY);
    for i in 0..4096u64 {
        ledger.register(i + 1, &format!("subject-{i}"), format!("m{i}").as_bytes());
    }
    let entries: Vec<_> = ledger.entries().cloned().collect();
    let mut g = c.benchmark_group("ledger/chain_verify");
    g.throughput(Throughput::Elements(entries.len() as u64));
    g.bench_function(format!("{}entries", entries.len()), |b| {
        b.iter(|| Ledger::from_entries(black_box(KEY), black_box(entries.clone())).expect("ok"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_frame_scan,
    bench_replay,
    bench_snapshot_restore,
    bench_chain_verify
);
criterion_main!(benches);
