//! Crash-injection suite: kill the storage layer at every byte
//! offset of a scripted run and prove recovery always lands on a
//! verified chain head that matches the committed prefix.
//!
//! The fault model is a power loss mid-write: [`FaultyStorage`] lets a
//! byte budget through, writes the crossing append *partially* (a torn
//! frame) and fails everything after. Recovery must (a) succeed, (b)
//! drop the torn tail, (c) re-prove the hash chain, and (d) expose
//! exactly the mutations whose append completed — never a half-applied
//! one, never a lost one.

use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_core::secret::SecretList;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_data::token::Token;
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::job::{JobData, JobOutput, JobPayload, JobSpec, JobState};
use freqywm_service::persist::DurableRegistry;
use freqywm_service::storage::{DiskLog, FaultyStorage, InMemoryStorage, Storage};
use freqywm_service::ServiceError;

const KEY: &[u8] = b"crash-suite-ledger-key";

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

/// One scripted mutation against a durable registry.
enum Op {
    Register(&'static str),
    Record(&'static str, &'static str),
    Replace(&'static str, &'static str),
    Remove(&'static str),
}

fn script() -> Vec<Op> {
    use Op::*;
    vec![
        Register("acme"),
        Register("globex"),
        Record("acme", "wm-acme-1"),
        Record("globex", "wm-globex-1"),
        Replace("acme", "wm-acme-2"),
        Register("initech"),
        Remove("globex"),
        Record("initech", "wm-initech-1"),
    ]
}

/// Applies `ops[i]` at logical time `i + 1`. Returns Err on the first
/// storage failure (the simulated process death).
fn apply(reg: &mut DurableRegistry, i: usize, op: &Op) -> Result<(), ServiceError> {
    let now = (i + 1) as u64;
    match op {
        Op::Register(t) => reg
            .register_tenant(t, Secret::from_label(t), now)
            .map(|_| ()),
        Op::Record(t, w) => reg
            .record_watermark(t, secrets(w), hist(now), now)
            .map(|_| ()),
        Op::Replace(t, w) => reg
            .replace_latest_watermark(t, secrets(w), hist(now), now)
            .map(|_| ()),
        Op::Remove(t) => reg.remove_tenant(t).map(|_| ()),
    }
}

/// Runs the whole script on pristine storage; returns the chain head
/// after each prefix of ops (index 0 = empty) plus total log traffic.
fn clean_run(snapshot_every: usize) -> (Vec<[u8; 32]>, Vec<Vec<String>>, usize) {
    let meter = WriteMeter::default();
    let storage = InMemoryStorage::new();
    let mut reg = DurableRegistry::open(
        KEY,
        Box::new(Metered {
            inner: storage,
            meter: meter.clone(),
        }),
        snapshot_every,
    )
    .unwrap();
    let mut heads = vec![[0u8; 32]];
    let mut tenant_sets = vec![Vec::new()];
    for (i, op) in script().iter().enumerate() {
        apply(&mut reg, i, op).expect("clean run cannot fail");
        heads.push(reg.ledger().head_hash());
        let mut tenants: Vec<String> = reg.tenant_ids().map(str::to_string).collect();
        tenants.sort();
        tenant_sets.push(tenants);
    }
    (heads, tenant_sets, meter.total())
}

/// Counts every byte handed to the backend (appends + snapshots), so
/// the fault sweep knows its upper bound.
#[derive(Clone, Default)]
struct WriteMeter(std::sync::Arc<std::sync::atomic::AtomicUsize>);

impl WriteMeter {
    fn total(&self) -> usize {
        self.0.load(std::sync::atomic::Ordering::SeqCst)
    }
}

struct Metered<S> {
    inner: S,
    meter: WriteMeter,
}

impl<S: Storage> Storage for Metered<S> {
    fn append_log(&mut self, bytes: &[u8]) -> Result<(), freqywm_service::StorageError> {
        self.meter
            .0
            .fetch_add(bytes.len(), std::sync::atomic::Ordering::SeqCst);
        self.inner.append_log(bytes)
    }
    fn read_log(&mut self) -> Result<Vec<u8>, freqywm_service::StorageError> {
        self.inner.read_log()
    }
    fn truncate_log(&mut self, len: u64) -> Result<(), freqywm_service::StorageError> {
        self.inner.truncate_log(len)
    }
    fn install_snapshot(&mut self, snapshot: &[u8]) -> Result<(), freqywm_service::StorageError> {
        self.meter
            .0
            .fetch_add(snapshot.len(), std::sync::atomic::Ordering::SeqCst);
        self.inner.install_snapshot(snapshot)
    }
    fn read_snapshot(&mut self) -> Result<Option<Vec<u8>>, freqywm_service::StorageError> {
        self.inner.read_snapshot()
    }
}

/// The property: for EVERY write budget 0..=total, the run dies at
/// that byte and recovery lands on the verified head of the committed
/// prefix. Run both without compaction and with an aggressive
/// snapshot cadence (so fault points land inside snapshot installs).
fn crash_sweep(snapshot_every: usize) {
    let (heads, tenant_sets, total) = clean_run(snapshot_every);
    assert!(total > 0);
    for budget in 0..=total {
        let storage = InMemoryStorage::new();
        let faulty = FaultyStorage::new(storage.clone(), budget);
        let mut reg = DurableRegistry::open(KEY, Box::new(faulty), snapshot_every).unwrap();
        let mut committed = 0usize;
        for (i, op) in script().iter().enumerate() {
            match apply(&mut reg, i, op) {
                Ok(()) => committed += 1,
                Err(ServiceError::Storage(_)) => break, // the crash
                Err(e) => panic!("unexpected error at budget {budget}: {e}"),
            }
        }
        drop(reg); // the process is dead; only `storage` survives

        let recovered = DurableRegistry::open(KEY, Box::new(storage), 0).unwrap_or_else(|e| {
            panic!("recovery failed at budget {budget} ({committed} ops committed): {e}")
        });
        assert!(
            recovered.ledger().verify_chain().is_ok(),
            "budget {budget}: recovered chain must verify"
        );
        assert_eq!(
            recovered.ledger().head_hash(),
            heads[committed],
            "budget {budget}: recovered head must match the {committed}-op prefix"
        );
        let mut tenants: Vec<String> = recovered.tenant_ids().map(str::to_string).collect();
        tenants.sort();
        assert_eq!(
            tenants, tenant_sets[committed],
            "budget {budget}: tenant set must match the committed prefix"
        );
    }
}

#[test]
fn every_crash_point_recovers_without_compaction() {
    crash_sweep(0);
}

#[test]
fn every_crash_point_recovers_with_aggressive_compaction() {
    crash_sweep(2);
}

/// Same property on a real filesystem: sample crash points around
/// frame boundaries on a [`DiskLog`] so the torn files, snapshot
/// renames and reopen paths are the production ones.
#[test]
fn disk_log_crash_points_recover() {
    let base = std::env::temp_dir().join(format!("freqywm-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (heads, _, total) = clean_run(3);
    // Sweep a coarse grid plus the exact byte count (cheap enough for
    // CI; the dense sweep above covers every offset in memory).
    let mut budgets: Vec<usize> = (0..total).step_by(97).collect();
    budgets.push(total);
    for budget in budgets {
        let dir = base.join(format!("b{budget}"));
        {
            let disk = DiskLog::open(&dir).unwrap();
            let faulty = FaultyStorage::new(disk, budget);
            let mut reg = DurableRegistry::open(KEY, Box::new(faulty), 3).unwrap();
            for (i, op) in script().iter().enumerate() {
                if apply(&mut reg, i, op).is_err() {
                    break;
                }
            }
        }
        let disk = DiskLog::open(&dir).unwrap();
        let recovered = DurableRegistry::open(KEY, Box::new(disk), 0)
            .unwrap_or_else(|e| panic!("disk recovery failed at budget {budget}: {e}"));
        assert!(recovered.ledger().verify_chain().is_ok());
        assert!(
            heads.contains(&recovered.ledger().head_hash()),
            "budget {budget}: disk-recovered head must be a committed prefix head"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Engine-level acceptance: a process "killed" mid-registration (the
/// durable append dies partway) restarts with a verified chain, keeps
/// every completed registration, and stamps new commits above all
/// recovered timestamps (replay raises the registry's clock floor, the
/// only clock) so chronology stays monotonic.
#[test]
fn engine_killed_mid_registration_recovers_and_continues() {
    let storage = InMemoryStorage::new();

    // Find a budget that kills the third registration partway: let two
    // registrations through, then allow 10 more bytes.
    let probe = InMemoryStorage::new();
    {
        let mut reg = DurableRegistry::open(KEY, Box::new(probe.clone()), 0).unwrap();
        reg.register_tenant("t0", Secret::from_label("t0"), 1)
            .unwrap();
        reg.register_tenant("t1", Secret::from_label("t1"), 2)
            .unwrap();
    }
    let budget = probe.log_len() + 10;

    let engine = Engine::open(
        EngineConfig {
            workers: 2,
            ledger_key: KEY.to_vec(),
            snapshot_every: 0,
            ..EngineConfig::default()
        },
        Box::new(FaultyStorage::new(storage.clone(), budget)),
    )
    .unwrap();
    engine
        .register_tenant("t0", Secret::from_label("t0"))
        .unwrap();
    engine
        .register_tenant("t1", Secret::from_label("t1"))
        .unwrap();
    let killed = engine.register_tenant("t2", Secret::from_label("t2"));
    assert!(
        matches!(killed, Err(ServiceError::Storage(_))),
        "third registration must die mid-append: {killed:?}"
    );
    drop(engine); // kill -9

    // Restart on the survivors.
    let engine = Engine::open(
        EngineConfig {
            workers: 2,
            ledger_key: KEY.to_vec(),
            ..EngineConfig::default()
        },
        Box::new(storage.clone()),
    )
    .unwrap();
    {
        let registry = engine.registry();
        assert!(registry.ledger().verify_chain().is_ok());
        assert_eq!(registry.recovery_report().replayed_events, 2);
        assert!(registry.recovery_report().torn_tail_bytes > 0);
        assert!(registry.contains("t0") && registry.contains("t1"));
        assert!(!registry.contains("t2"), "torn registration must vanish");
    }

    // The recovered engine serves real traffic: the half-registered id
    // can register again, embed and detect.
    engine
        .register_tenant("t2", Secret::from_label("t2"))
        .unwrap();
    let hist = Histogram::from_counts(power_law_counts(&PowerLawConfig {
        distinct_tokens: 120,
        sample_size: 120_000,
        alpha: 0.6,
    }));
    let JobState::Completed(JobOutput::Embed(embed)) =
        engine.run(JobSpec::new(JobPayload::Embed {
            tenant: "t2".into(),
            data: JobData::Histogram(hist),
            params: GenerationParams::default().with_z(101),
        }))
    else {
        panic!("embed after recovery must complete");
    };
    let JobState::Completed(JobOutput::Detect(d)) = engine.run(JobSpec::new(JobPayload::Detect {
        tenant: "t2".into(),
        data: JobData::Histogram(embed.watermarked),
        params: DetectionParams::default().with_t(0).with_k(1),
    })) else {
        panic!("detect after recovery must complete");
    };
    assert!(d.outcome.accepted);

    // Chronology stayed strictly monotonic across the restart.
    let registry = engine.registry();
    let timestamps: Vec<u64> = registry.ledger().entries().map(|e| e.timestamp).collect();
    assert!(
        timestamps.windows(2).all(|w| w[0] < w[1]),
        "ledger timestamps must stay strictly increasing across restarts: {timestamps:?}"
    );
    drop(registry);
    engine.shutdown();

    // And the whole thing round-trips through a third incarnation.
    let engine = Engine::open(
        EngineConfig {
            ledger_key: KEY.to_vec(),
            ..EngineConfig::default()
        },
        Box::new(storage),
    )
    .unwrap();
    assert_eq!(engine.registry().len(), 3);
    engine.shutdown();
}

/// Recovery is read-only evidence handling: restoring + replaying a
/// data-dir twice yields bit-identical chains (no replay side effects).
#[test]
fn recovery_is_idempotent() {
    let storage = InMemoryStorage::new();
    {
        let mut reg = DurableRegistry::open(KEY, Box::new(storage.clone()), 2).unwrap();
        for (i, op) in script().iter().enumerate() {
            apply(&mut reg, i, op).unwrap();
        }
    }
    let a = DurableRegistry::open(KEY, Box::new(storage.clone()), 0).unwrap();
    let b = DurableRegistry::open(KEY, Box::new(storage.clone()), 0).unwrap();
    assert_eq!(a.ledger().head_hash(), b.ledger().head_hash());
    assert_eq!(
        a.ledger().entries().collect::<Vec<_>>(),
        b.ledger().entries().collect::<Vec<_>>()
    );
    assert_eq!(a.clock_floor(), b.clock_floor());
}
