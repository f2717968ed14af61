//! Pins the on-disk format of a data-dir.
//!
//! `fixtures/datadir/` holds a data-dir — a snapshot plus a log tail —
//! that a fixed script wrote through the durable registry. The script
//! must still produce those exact bytes, the committed data-dir must
//! still replay to the script's state, and a snapshot of the replayed
//! registry must equal the committed `snapshot_full.reg`. When bytes
//! differ, the new ones are written under the test target directory.

use freqywm_core::secret::SecretList;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_data::token::Token;
use freqywm_service::persist::DurableRegistry;
use freqywm_service::quota::QuotaLimits;
use freqywm_service::storage::{DiskLog, InMemoryStorage, Storage, LOG_FILE, SNAPSHOT_FILE};
use std::path::{Path, PathBuf};

const KEY: &[u8] = b"persist-format-ledger-key";
const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/datadir");

fn hist(alpha: f64) -> Histogram {
    Histogram::from_counts(power_law_counts(&PowerLawConfig {
        distinct_tokens: 64,
        sample_size: 50_000,
        alpha,
    }))
}

fn secrets(label: &str, z: u64) -> SecretList {
    SecretList::new(
        vec![
            (Token::new("tk00001"), Token::new("tk00007")),
            (Token::new("tk00003"), Token::new("tk00040")),
        ],
        Secret::from_label(label),
        z,
    )
}

const LIMITS: QuotaLimits = QuotaLimits {
    embed: 5,
    detect: 1_000,
    maintain: 40,
};
const USED: [u64; 3] = [1, 2, 3];
const USED_AT_MS: u64 = 1_700_000_000_000;

/// Five events, a snapshot, then two more events in the log tail.
fn write_script(storage: Box<dyn Storage>) {
    let mut reg = DurableRegistry::open(KEY, storage, 0).unwrap();
    reg.register_tenant("acme", Secret::from_label("fmt-acme"), 1)
        .unwrap();
    reg.register_tenant("globex", Secret::from_label("fmt-globex"), 2)
        .unwrap();
    reg.record_watermark("acme", secrets("wm-acme-1", 131), hist(0.7), 3)
        .unwrap();
    reg.set_quota("acme", LIMITS, 60_000, 4).unwrap();
    reg.record_watermark("globex", secrets("wm-globex-1", 1031), hist(0.9), 5)
        .unwrap();
    reg.snapshot_now().unwrap();
    reg.replace_latest_watermark("acme", secrets("wm-acme-2", 131), hist(0.8), 6)
        .unwrap();
    reg.checkpoint_quota("globex", USED, USED_AT_MS, 7).unwrap();
}

fn check_bytes(name: &str, actual: &[u8]) {
    let expected = std::fs::read(Path::new(DIR).join(name)).unwrap_or_default();
    if actual != expected.as_slice() {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("datadir-actual-{name}"));
        std::fs::write(&out, actual).unwrap();
        panic!(
            "{name}: {} bytes differ from the committed {} bytes; new bytes in {}",
            actual.len(),
            expected.len(),
            out.display()
        );
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("persist-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn script_writes_the_committed_data_dir_bytes() {
    let mut storage = InMemoryStorage::new();
    write_script(Box::new(storage.clone()));
    check_bytes(SNAPSHOT_FILE, &storage.read_snapshot().unwrap().unwrap());
    check_bytes(LOG_FILE, &storage.read_log().unwrap());
}

#[test]
fn committed_data_dir_replays_and_resnapshots_identically() {
    let dir = scratch_dir("replay");
    std::fs::create_dir_all(&dir).unwrap();
    for name in [LOG_FILE, SNAPSHOT_FILE] {
        std::fs::copy(Path::new(DIR).join(name), dir.join(name)).unwrap();
    }
    let mut reg = DurableRegistry::open(KEY, Box::new(DiskLog::open(&dir).unwrap()), 0).unwrap();
    let report = reg.recovery_report();
    assert!(report.snapshot_restored);
    assert_eq!(report.replayed_events, 2);
    assert_eq!(reg.next_seq(), 7);
    reg.ledger().verify_chain().unwrap();

    let acme = reg.latest_watermark("acme").unwrap();
    assert!(acme.watermarked == hist(0.8));
    assert!(acme.secrets == secrets("wm-acme-2", 131));
    let globex = reg.latest_watermark("globex").unwrap();
    assert!(globex.watermarked == hist(0.9));
    assert!(globex.secrets == secrets("wm-globex-1", 1031));
    let quota = reg.quota("acme").unwrap();
    assert_eq!((quota.limits, quota.window_ms), (LIMITS, 60_000));
    let quota = reg.quota("globex").unwrap();
    assert_eq!((quota.used, quota.used_at_ms), (USED, USED_AT_MS));

    reg.snapshot_now().unwrap();
    check_bytes(
        "snapshot_full.reg",
        &std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(),
    );
    drop(reg);
    let _ = std::fs::remove_dir_all(&dir);
}
