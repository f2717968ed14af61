//! Durable registry: write-ahead event log + snapshots over a
//! [`Storage`] backend.
//!
//! Every mutation of the tenant/key registry is validated, encoded as
//! a [`RegistryEvent`], durably appended (frame codec + fsync in the
//! backend), and only then applied in memory — so the on-disk log is
//! always at least as new as the in-memory state, and a crash at any
//! byte boundary loses at most the mutation that was mid-append.
//!
//! Recovery ([`DurableRegistry::open`]) restores the latest snapshot,
//! replays the log tail (skipping events the snapshot already covers,
//! which makes the snapshot-install/log-truncate crash window safe),
//! tolerates a torn final record, and then verifies the entire hash
//! chain — the registration chronology the dispute protocol leans on
//! is only trusted after it re-proves itself.
//!
//! Compaction: after `snapshot_every` events a snapshot of the full
//! registry (including the chain, which is the dispute evidence and is
//! never discarded) is installed and the log reset, so replay work is
//! O(snapshot + recent events), not O(history). The snapshot is
//! streamed to storage in pieces of a few KiB (the chain) or a tenant
//! at a time, so compaction holds no second copy of the registry.

use crate::error::{Result, ServiceError};
use crate::quota::QuotaLimits;
use crate::registry::{
    KeyRegistry, QuotaRecord, StoredHistogram, StoredSecrets, StoredWatermark, TenantSnapshot,
};
use crate::storage::Storage;
use freqywm_core::secret::SecretList;
use freqywm_crypto::hmac::{digest_eq, hmac_sha256, HmacSha256};
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_ledger::codec::{
    decode_entry, encode_entry, frame, put_bytes, put_str, put_u64, scan_frames, CodecError, Reader,
};
use freqywm_ledger::Ledger;
use std::io::Write;

/// Default number of events between automatic snapshots.
pub const DEFAULT_SNAPSHOT_EVERY: usize = 256;

// v2 added the per-tenant quota section (explicit limits +
// consumed-window checkpoints).
const SNAPSHOT_MAGIC: &[u8] = b"freqywm-snapshot-v2\0";

const EV_REGISTER_TENANT: u8 = 1;
const EV_RECORD_WATERMARK: u8 = 2;
const EV_REPLACE_WATERMARK: u8 = 3;
const EV_REMOVE_TENANT: u8 = 4;
const EV_SET_QUOTA: u8 = 5;
const EV_QUOTA_CHECKPOINT: u8 = 6;

/// One durably logged registry mutation. The log stores the *inputs*
/// of each mutation; replay re-executes them, and because the hash
/// chain is deterministic in (key, order, inputs) the recovered chain
/// is bit-identical to the lost one.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryEvent {
    RegisterTenant {
        tenant: String,
        secret: Secret,
        now: u64,
    },
    RecordWatermark {
        tenant: String,
        secrets: StoredSecrets,
        watermarked: StoredHistogram,
        now: u64,
    },
    ReplaceWatermark {
        tenant: String,
        secrets: StoredSecrets,
        watermarked: StoredHistogram,
        now: u64,
    },
    RemoveTenant {
        tenant: String,
    },
    /// Explicit per-tenant limits set via the `quota` admin op.
    SetQuota {
        tenant: String,
        limits: QuotaLimits,
        window_ms: u64,
        now: u64,
    },
    /// Consumed-window checkpoint: how much of each op-class budget the
    /// tenant had spent as of `at_ms` (wall-clock milliseconds), so a
    /// restart does not reset an abuser's window.
    QuotaCheckpoint {
        tenant: String,
        used: [u64; 3],
        at_ms: u64,
        now: u64,
    },
}

impl RegistryEvent {
    fn now(&self) -> u64 {
        match self {
            RegistryEvent::RegisterTenant { now, .. }
            | RegistryEvent::RecordWatermark { now, .. }
            | RegistryEvent::ReplaceWatermark { now, .. }
            | RegistryEvent::SetQuota { now, .. }
            | RegistryEvent::QuotaCheckpoint { now, .. } => *now,
            RegistryEvent::RemoveTenant { .. } => 0,
        }
    }
}

fn read_secret_list(r: &mut Reader<'_>) -> std::result::Result<StoredSecrets, CodecError> {
    StoredSecrets::from_text(r.str()?).map_err(|_| CodecError::Corrupt {
        offset: 0,
        reason: "malformed secret list",
    })
}

/// Encodes an event payload (sequence number + body, not yet framed).
/// A watermark event's secret text is taken from `secret_text`, or
/// rendered into it, so the ledger fingerprint can reuse it.
fn encode_event(seq: u64, ev: &RegistryEvent, secret_text: &mut Option<String>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_u64(&mut buf, seq);
    match ev {
        RegistryEvent::RegisterTenant {
            tenant,
            secret,
            now,
        } => {
            buf.push(EV_REGISTER_TENANT);
            put_u64(&mut buf, *now);
            put_str(&mut buf, tenant);
            buf.extend_from_slice(secret.as_bytes());
        }
        RegistryEvent::RecordWatermark {
            tenant,
            secrets,
            watermarked,
            now,
        }
        | RegistryEvent::ReplaceWatermark {
            tenant,
            secrets,
            watermarked,
            now,
        } => {
            buf.push(match ev {
                RegistryEvent::RecordWatermark { .. } => EV_RECORD_WATERMARK,
                _ => EV_REPLACE_WATERMARK,
            });
            put_u64(&mut buf, *now);
            put_str(&mut buf, tenant);
            let text = secret_text.get_or_insert_with(|| secrets.to_text());
            put_bytes(&mut buf, text.as_bytes());
            watermarked.put_log(&mut buf);
        }
        RegistryEvent::RemoveTenant { tenant } => {
            buf.push(EV_REMOVE_TENANT);
            put_u64(&mut buf, 0);
            put_str(&mut buf, tenant);
        }
        RegistryEvent::SetQuota {
            tenant,
            limits,
            window_ms,
            now,
        } => {
            buf.push(EV_SET_QUOTA);
            put_u64(&mut buf, *now);
            put_str(&mut buf, tenant);
            put_u64(&mut buf, limits.embed);
            put_u64(&mut buf, limits.detect);
            put_u64(&mut buf, limits.maintain);
            put_u64(&mut buf, *window_ms);
        }
        RegistryEvent::QuotaCheckpoint {
            tenant,
            used,
            at_ms,
            now,
        } => {
            buf.push(EV_QUOTA_CHECKPOINT);
            put_u64(&mut buf, *now);
            put_str(&mut buf, tenant);
            for u in used {
                put_u64(&mut buf, *u);
            }
            put_u64(&mut buf, *at_ms);
        }
    }
    buf
}

/// Authenticates an event under the ledger key: the framed record is
/// `HMAC(key, event-bytes) ‖ event-bytes`. The frame checksum catches
/// bit rot; the MAC binds the record to the key, so a log replayed
/// under the wrong key (or a forged log) fails recovery even before
/// the chain re-verifies — without it, log-only state would happily
/// re-MAC itself under whatever key the attacker supplies.
fn seal_event(key: &[u8], event: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + event.len());
    out.extend_from_slice(&hmac_sha256(key, event));
    out.extend_from_slice(event);
    out
}

fn unseal_event<'a>(key: &[u8], sealed: &'a [u8]) -> std::result::Result<&'a [u8], CodecError> {
    if sealed.len() < 32 {
        return Err(CodecError::Truncated {
            offset: 0,
            expected: "event mac",
        });
    }
    let (mac, event) = sealed.split_at(32);
    if !digest_eq(&hmac_sha256(key, event), mac.try_into().expect("32 bytes")) {
        return Err(CodecError::Corrupt {
            offset: 0,
            reason: "event authentication failed (wrong ledger key?)",
        });
    }
    Ok(event)
}

/// Decodes one event payload. Returns `(seq, event)`.
fn decode_event(payload: &[u8]) -> std::result::Result<(u64, RegistryEvent), CodecError> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let tag = r.u8()?;
    let now = r.u64()?;
    let tenant = r.str()?.to_string();
    let ev = match tag {
        EV_REGISTER_TENANT => RegistryEvent::RegisterTenant {
            tenant,
            secret: Secret::from_bytes(r.digest()?),
            now,
        },
        EV_RECORD_WATERMARK | EV_REPLACE_WATERMARK => {
            let secrets = read_secret_list(&mut r)?;
            let watermarked = StoredHistogram::read_log(&mut r)?;
            if tag == EV_RECORD_WATERMARK {
                RegistryEvent::RecordWatermark {
                    tenant,
                    secrets,
                    watermarked,
                    now,
                }
            } else {
                RegistryEvent::ReplaceWatermark {
                    tenant,
                    secrets,
                    watermarked,
                    now,
                }
            }
        }
        EV_REMOVE_TENANT => RegistryEvent::RemoveTenant { tenant },
        EV_SET_QUOTA => RegistryEvent::SetQuota {
            tenant,
            limits: QuotaLimits {
                embed: r.u64()?,
                detect: r.u64()?,
                maintain: r.u64()?,
            },
            window_ms: r.u64()?,
            now,
        },
        EV_QUOTA_CHECKPOINT => RegistryEvent::QuotaCheckpoint {
            tenant,
            used: [r.u64()?, r.u64()?, r.u64()?],
            at_ms: r.u64()?,
            now,
        },
        _ => {
            return Err(CodecError::Corrupt {
                offset: 8,
                reason: "unknown event tag",
            })
        }
    };
    Ok((seq, ev))
}

/// Serialises the full registry state. The body is terminated by
/// `HMAC(ledger-key, body)` so any bit of tenant state — not just the
/// embedded chain entries — is integrity- and key-bound.
fn encode_snapshot(next_seq: u64, clock: u64, registry: &KeyRegistry, key: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_snapshot(next_seq, clock, registry, key, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

/// [`encode_snapshot`], streamed into `out` in pieces of a few KiB
/// (the chain) or a tenant at a time, so no registry-sized buffer is
/// built.
fn write_snapshot(
    next_seq: u64,
    clock: u64,
    registry: &KeyRegistry,
    key: &[u8],
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let mut mac = HmacSha256::new(key);
    let mut emit = |bytes: &[u8]| {
        mac.update(bytes);
        out.write_all(bytes)
    };
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    put_u64(&mut buf, next_seq);
    put_u64(&mut buf, clock);
    let ledger = registry.ledger();
    put_u64(&mut buf, ledger.len() as u64);
    for e in ledger.entries() {
        put_bytes(&mut buf, &encode_entry(e));
        if buf.len() >= 4096 {
            emit(&buf)?;
            buf.clear();
        }
    }
    let tenants = registry.tenants_sorted();
    put_u64(&mut buf, tenants.len() as u64);
    for (tenant, t) in tenants {
        put_str(&mut buf, tenant);
        buf.extend_from_slice(t.secret.as_bytes());
        put_u64(&mut buf, t.ledger_index);
        put_u64(&mut buf, t.registered_at);
        put_u64(&mut buf, t.watermarks.len() as u64);
        for wm in &t.watermarks {
            put_bytes(&mut buf, wm.secrets.to_text().as_bytes());
            wm.watermarked.put_log(&mut buf);
            put_u64(&mut buf, wm.ledger_index);
            put_u64(&mut buf, wm.registered_at);
            emit(&buf)?;
            buf.clear();
        }
    }
    let quotas = registry.quota_snapshots();
    put_u64(&mut buf, quotas.len() as u64);
    for (tenant, q) in &quotas {
        put_str(&mut buf, tenant);
        buf.push(q.explicit as u8);
        put_u64(&mut buf, q.limits.embed);
        put_u64(&mut buf, q.limits.detect);
        put_u64(&mut buf, q.limits.maintain);
        put_u64(&mut buf, q.window_ms);
        for u in &q.used {
            put_u64(&mut buf, *u);
        }
        put_u64(&mut buf, q.used_at_ms);
    }
    emit(&buf)?;
    out.write_all(&mac.finalize())
}

struct DecodedSnapshot {
    next_seq: u64,
    clock: u64,
    registry: KeyRegistry,
}

fn decode_snapshot(
    bytes: &[u8],
    ledger_key: &[u8],
) -> std::result::Result<DecodedSnapshot, String> {
    if bytes.len() < 32 {
        return Err("snapshot: too short".into());
    }
    let (body_with_magic, mac) = bytes.split_at(bytes.len() - 32);
    if !digest_eq(
        &hmac_sha256(ledger_key, body_with_magic),
        mac.try_into().expect("32 bytes"),
    ) {
        return Err("snapshot: authentication failed (corrupt or wrong ledger key)".into());
    }
    let body = body_with_magic
        .strip_prefix(SNAPSHOT_MAGIC)
        .ok_or("snapshot: bad magic")?;
    let mut r = Reader::new(body);
    let mut inner = || -> std::result::Result<DecodedSnapshot, CodecError> {
        let next_seq = r.u64()?;
        let clock = r.u64()?;
        let n_entries = r.u64()? as usize;
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let raw = r.bytes()?;
            let mut er = Reader::new(raw);
            entries.push(decode_entry(&mut er)?);
        }
        let n_tenants = r.u64()? as usize;
        let mut tenants = Vec::with_capacity(n_tenants);
        for _ in 0..n_tenants {
            let tenant = r.str()?.to_string();
            let secret = Secret::from_bytes(r.digest()?);
            let ledger_index = r.u64()?;
            let registered_at = r.u64()?;
            let n_wm = r.u64()? as usize;
            let mut watermarks = Vec::with_capacity(n_wm);
            for _ in 0..n_wm {
                let secrets = read_secret_list(&mut r)?;
                let watermarked = StoredHistogram::read_log(&mut r)?;
                watermarks.push(StoredWatermark {
                    secrets,
                    watermarked,
                    ledger_index: r.u64()?,
                    registered_at: r.u64()?,
                });
            }
            tenants.push(TenantSnapshot {
                tenant,
                secret,
                ledger_index,
                registered_at,
                watermarks,
            });
        }
        let n_quotas = r.u64()? as usize;
        let mut quotas = Vec::with_capacity(n_quotas);
        for _ in 0..n_quotas {
            let tenant = r.str()?.to_string();
            let explicit = r.u8()? != 0;
            quotas.push((
                tenant,
                QuotaRecord {
                    limits: QuotaLimits {
                        embed: r.u64()?,
                        detect: r.u64()?,
                        maintain: r.u64()?,
                    },
                    window_ms: r.u64()?,
                    explicit,
                    used: [r.u64()?, r.u64()?, r.u64()?],
                    used_at_ms: r.u64()?,
                },
            ));
        }
        // Verifies MACs + linkage of the whole restored chain.
        let ledger =
            Ledger::from_entries(ledger_key, entries).map_err(|_| CodecError::Corrupt {
                offset: 0,
                reason: "snapshot chain failed verification",
            })?;
        let mut registry = KeyRegistry::restore(ledger, tenants);
        registry.restore_quotas(quotas);
        Ok(DecodedSnapshot {
            next_seq,
            clock,
            registry,
        })
    };
    inner().map_err(|e| format!("snapshot: {e}"))
}

/// What [`DurableRegistry::open`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// A snapshot was present and restored.
    pub snapshot_restored: bool,
    /// Log events re-applied after the snapshot point.
    pub replayed_events: usize,
    /// Log events skipped because the snapshot already covered them.
    pub skipped_events: usize,
    /// Bytes of a torn final record dropped from the log tail.
    pub torn_tail_bytes: usize,
}

/// The registry plus its durability engine. Reads deref straight to
/// [`KeyRegistry`]; every mutation goes through the write-ahead path.
pub struct DurableRegistry {
    inner: KeyRegistry,
    storage: Box<dyn Storage>,
    ledger_key: Vec<u8>,
    /// Sequence number the next event will carry.
    next_seq: u64,
    /// Highest logical timestamp ever persisted; the engine clock must
    /// restart above this or recovered chronology could be violated.
    clock_floor: u64,
    /// Clean (frame-aligned) log length, maintained so a failed
    /// partial append can be rolled back to a record boundary.
    log_len: u64,
    /// Set when a partial append could not be repaired: the log tail
    /// is torn and further appends would bury it mid-log, so all
    /// mutations are refused until a reopen repairs the tail.
    poisoned: bool,
    /// Audit mode ([`Self::open_read_only`]): mutations and snapshots
    /// are refused — the medium may hold an unrepaired torn tail, and
    /// writing past it would corrupt the log mid-stream.
    read_only: bool,
    events_since_snapshot: usize,
    snapshot_every: usize,
    recovery: RecoveryReport,
}

impl std::ops::Deref for DurableRegistry {
    type Target = KeyRegistry;

    fn deref(&self) -> &KeyRegistry {
        &self.inner
    }
}

impl std::fmt::Debug for DurableRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableRegistry")
            .field("tenants", &self.inner.len())
            .field("ledger_len", &self.inner.ledger().len())
            .field("next_seq", &self.next_seq)
            .field("snapshot_every", &self.snapshot_every)
            .finish()
    }
}

impl DurableRegistry {
    /// Opens (or creates) a durable registry on `storage`, replaying
    /// and verifying whatever survived the last run. A torn log tail
    /// is repaired (truncated) so appends resume from a clean record
    /// boundary. `snapshot_every` of 0 disables automatic compaction.
    pub fn open(
        ledger_key: &[u8],
        storage: Box<dyn Storage>,
        snapshot_every: usize,
    ) -> Result<Self> {
        Self::open_impl(ledger_key, storage, snapshot_every, true)
    }

    /// Like [`Self::open`] but strictly read-only: a torn tail is
    /// still dropped from the recovered state but NOT truncated on
    /// the medium, and every mutation through the returned registry
    /// is refused. This is the audit path — it never writes to the
    /// data-dir of a (possibly live) process.
    pub fn open_read_only(ledger_key: &[u8], storage: Box<dyn Storage>) -> Result<Self> {
        Self::open_impl(ledger_key, storage, 0, false)
    }

    fn open_impl(
        ledger_key: &[u8],
        mut storage: Box<dyn Storage>,
        snapshot_every: usize,
        repair: bool,
    ) -> Result<Self> {
        let mut recovery = RecoveryReport::default();

        // 1. Latest snapshot, if any.
        let snapshot = storage
            .read_snapshot()
            .map_err(|e| ServiceError::Storage(e.to_string()))?;
        let (mut inner, mut next_seq, mut clock_floor) = match snapshot {
            Some(bytes) => {
                let snap = decode_snapshot(&bytes, ledger_key).map_err(ServiceError::Storage)?;
                recovery.snapshot_restored = true;
                (snap.registry, snap.next_seq, snap.clock)
            }
            None => (KeyRegistry::new(ledger_key), 0, 0),
        };

        // 2. Replay the log tail, tolerating a torn final record.
        let log = storage
            .read_log()
            .map_err(|e| ServiceError::Storage(e.to_string()))?;
        let scan = scan_frames(&log).map_err(|e| ServiceError::Storage(format!("log: {e}")))?;
        recovery.torn_tail_bytes = scan.torn_bytes;
        let clean_len = (log.len() - scan.torn_bytes) as u64;
        if scan.torn_bytes > 0 && repair {
            // Repair the tail so future appends resume from a clean
            // record boundary instead of burying garbage mid-log.
            storage
                .truncate_log(clean_len)
                .map_err(|e| ServiceError::Storage(e.to_string()))?;
        }
        for sealed in &scan.payloads {
            let event = unseal_event(ledger_key, sealed)
                .map_err(|e| ServiceError::Storage(format!("log: {e}")))?;
            let (seq, ev) =
                decode_event(event).map_err(|e| ServiceError::Storage(format!("log: {e}")))?;
            if seq < next_seq {
                // Snapshot already covers this event (crash between
                // snapshot install and log truncation).
                recovery.skipped_events += 1;
                continue;
            }
            if seq != next_seq {
                return Err(ServiceError::Storage(format!(
                    "log: sequence gap (expected {next_seq}, found {seq})"
                )));
            }
            clock_floor = clock_floor.max(ev.now());
            apply(&mut inner, ev, None)
                .map_err(|e| ServiceError::Storage(format!("replay failed: {e}")))?;
            next_seq += 1;
            recovery.replayed_events += 1;
        }

        // 3. The recovered chain must re-prove itself end to end.
        inner
            .ledger()
            .verify_chain()
            .map_err(|e| ServiceError::Storage(format!("recovered ledger corrupt: {e}")))?;

        Ok(DurableRegistry {
            inner,
            storage,
            ledger_key: ledger_key.to_vec(),
            next_seq,
            clock_floor,
            log_len: clean_len,
            poisoned: false,
            read_only: !repair,
            events_since_snapshot: 0,
            snapshot_every,
            recovery,
        })
    }

    /// What recovery found when this registry was opened.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery
    }

    /// Highest logical timestamp ever durably recorded. A restarted
    /// engine must resume its clock *above* this.
    pub fn clock_floor(&self) -> u64 {
        self.clock_floor
    }

    /// Durably appends `ev`, then applies it. The caller has already
    /// validated that applying cannot fail.
    fn commit(&mut self, ev: RegistryEvent) -> Result<()> {
        if self.read_only {
            return Err(ServiceError::Storage(
                "registry opened read-only (audit); mutations refused".into(),
            ));
        }
        if self.poisoned {
            return Err(ServiceError::Storage(
                "registry log has an unrepaired torn tail; reopen to recover".into(),
            ));
        }
        let mut secret_text = None;
        if self.storage.is_durable() {
            let framed = frame(&seal_event(
                &self.ledger_key,
                &encode_event(self.next_seq, &ev, &mut secret_text),
            ));
            if let Err(e) = self.storage.append_log(&framed) {
                // The append may have landed partially (ENOSPC, I/O
                // error, crash-injection). Roll the log back to the
                // last record boundary; if even that fails, refuse
                // further mutations — appending past a torn tail would
                // make the log unrecoverable (mid-stream corruption,
                // not truncation).
                if self.storage.truncate_log(self.log_len).is_err() {
                    self.poisoned = true;
                }
                return Err(ServiceError::Storage(e.to_string()));
            }
            self.log_len += framed.len() as u64;
        }
        self.next_seq += 1;
        self.clock_floor = self.clock_floor.max(ev.now());
        apply(&mut self.inner, ev, secret_text).expect("validated event cannot fail to apply");
        self.events_since_snapshot += 1;
        if self.storage.is_durable()
            && self.snapshot_every > 0
            && self.events_since_snapshot >= self.snapshot_every
        {
            // Best-effort compaction: the event itself is already
            // durable, so a failed snapshot only means a longer replay.
            let _ = self.snapshot_now();
        }
        Ok(())
    }

    /// Installs a snapshot of the current state and truncates the log.
    pub fn snapshot_now(&mut self) -> Result<()> {
        if self.read_only {
            return Err(ServiceError::Storage(
                "registry opened read-only (audit); snapshots refused".into(),
            ));
        }
        if !self.storage.is_durable() {
            return Ok(());
        }
        let (next_seq, clock, registry, key) = (
            self.next_seq,
            self.clock_floor,
            &self.inner,
            &self.ledger_key,
        );
        self.storage
            .install_snapshot_from(&mut |w| write_snapshot(next_seq, clock, registry, key, w))
            .map_err(|e| ServiceError::Storage(e.to_string()))?;
        self.log_len = 0;
        self.events_since_snapshot = 0;
        Ok(())
    }

    /// See [`KeyRegistry::register_tenant`]; durably logged.
    pub fn register_tenant(&mut self, tenant: &str, secret: Secret, now: u64) -> Result<u64> {
        if self.inner.contains(tenant) {
            return Err(ServiceError::DuplicateTenant(tenant.to_string()));
        }
        let index = self.inner.ledger().len() as u64;
        self.commit(RegistryEvent::RegisterTenant {
            tenant: tenant.to_string(),
            secret,
            now,
        })?;
        Ok(index)
    }

    /// See [`KeyRegistry::record_watermark`]; durably logged.
    pub fn record_watermark(
        &mut self,
        tenant: &str,
        secrets: SecretList,
        watermarked: Histogram,
        now: u64,
    ) -> Result<u64> {
        if !self.inner.contains(tenant) {
            return Err(ServiceError::UnknownTenant(tenant.to_string()));
        }
        let index = self.inner.ledger().len() as u64;
        self.commit(RegistryEvent::RecordWatermark {
            tenant: tenant.to_string(),
            secrets: StoredSecrets::new(&secrets),
            watermarked: StoredHistogram::new(&watermarked),
            now,
        })?;
        Ok(index)
    }

    /// See [`KeyRegistry::replace_latest_watermark`]; durably logged.
    pub fn replace_latest_watermark(
        &mut self,
        tenant: &str,
        secrets: SecretList,
        watermarked: Histogram,
        now: u64,
    ) -> Result<u64> {
        if self.inner.latest_watermark(tenant).is_none() {
            return Err(ServiceError::NoWatermark(tenant.to_string()));
        }
        let index = self.inner.ledger().len() as u64;
        self.commit(RegistryEvent::ReplaceWatermark {
            tenant: tenant.to_string(),
            secrets: StoredSecrets::new(&secrets),
            watermarked: StoredHistogram::new(&watermarked),
            now,
        })?;
        Ok(index)
    }

    /// See [`KeyRegistry::remove_tenant`]; durably logged. A missing
    /// tenant is not logged (nothing changed).
    pub fn remove_tenant(&mut self, tenant: &str) -> Result<bool> {
        if !self.inner.contains(tenant) {
            return Ok(false);
        }
        self.commit(RegistryEvent::RemoveTenant {
            tenant: tenant.to_string(),
        })?;
        Ok(true)
    }

    /// See [`KeyRegistry::set_quota`]; durably logged.
    pub fn set_quota(
        &mut self,
        tenant: &str,
        limits: QuotaLimits,
        window_ms: u64,
        now: u64,
    ) -> Result<()> {
        if !self.inner.contains(tenant) {
            return Err(ServiceError::UnknownTenant(tenant.to_string()));
        }
        self.commit(RegistryEvent::SetQuota {
            tenant: tenant.to_string(),
            limits,
            window_ms,
            now,
        })
    }

    /// See [`KeyRegistry::checkpoint_quota`]; durably logged.
    pub fn checkpoint_quota(
        &mut self,
        tenant: &str,
        used: [u64; 3],
        at_ms: u64,
        now: u64,
    ) -> Result<()> {
        if !self.inner.contains(tenant) {
            return Err(ServiceError::UnknownTenant(tenant.to_string()));
        }
        self.commit(RegistryEvent::QuotaCheckpoint {
            tenant: tenant.to_string(),
            used,
            at_ms,
            now,
        })
    }

    // ---- replication ----------------------------------------------------

    /// Sequence number the next committed event will carry. A replica
    /// asks for `events_since(next_seq())` to resume exactly where its
    /// own log ends.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Streams the replication log starting at `from_seq`, capped at
    /// roughly `max_bytes` of sealed event payloads per call. If the
    /// requested range has been compacted away (or the storage is
    /// volatile and keeps no log at all), the batch instead carries a
    /// full authenticated snapshot — the replica installs it and
    /// resumes tailing from the snapshot's sequence number.
    ///
    /// Events are shipped as the *sealed* payloads (MAC ‖ event), so a
    /// replica appends byte-identical records to its own log and the
    /// hash chain — deterministic in (key, order, inputs) — converges
    /// to the identical head.
    pub fn events_since(&mut self, from_seq: u64, max_bytes: usize) -> Result<ReplicaBatch> {
        if from_seq > self.next_seq {
            return Err(ServiceError::Storage(format!(
                "replica is ahead of this log (have {}, asked from {from_seq})",
                self.next_seq
            )));
        }
        let mut batch = ReplicaBatch {
            from_seq,
            next_seq: self.next_seq,
            head: self.inner.ledger().head_hash(),
            events: Vec::new(),
            snapshot: None,
        };
        if from_seq == self.next_seq {
            return Ok(batch); // caught up
        }
        let log = self
            .storage
            .read_log()
            .map_err(|e| ServiceError::Storage(e.to_string()))?;
        let scan = scan_frames(&log).map_err(|e| ServiceError::Storage(format!("log: {e}")))?;
        let mut expected = from_seq;
        let mut total = 0usize;
        for sealed in &scan.payloads {
            let event = unseal_event(&self.ledger_key, sealed)
                .map_err(|e| ServiceError::Storage(format!("log: {e}")))?;
            let seq = Reader::new(event)
                .u64()
                .map_err(|e| ServiceError::Storage(format!("log: {e}")))?;
            if seq < expected {
                continue; // snapshot-covered duplicate or already shipped
            }
            if seq > expected {
                // The log starts past `from_seq`: compaction discarded
                // the requested range. Fall through to the snapshot.
                break;
            }
            total += sealed.len();
            batch.events.push(sealed.clone());
            expected += 1;
            if total >= max_bytes {
                break;
            }
        }
        if batch.events.is_empty() {
            batch.snapshot = Some(encode_snapshot(
                self.next_seq,
                self.clock_floor,
                &self.inner,
                &self.ledger_key,
            ));
        }
        Ok(batch)
    }

    /// Applies one sealed event received from a primary: verifies the
    /// MAC, checks the sequence number, durably appends the identical
    /// record to the local log, then applies it in memory — the same
    /// write-ahead discipline as [`Self::commit`], so a replica killed
    /// at any byte boundary recovers exactly like a primary.
    ///
    /// Returns `false` (and changes nothing) for an event the replica
    /// already holds — reconnect overlap is idempotent.
    pub fn apply_sealed_event(&mut self, sealed: &[u8]) -> Result<bool> {
        if self.read_only {
            return Err(ServiceError::Storage(
                "registry opened read-only (audit); mutations refused".into(),
            ));
        }
        if self.poisoned {
            return Err(ServiceError::Storage(
                "registry log has an unrepaired torn tail; reopen to recover".into(),
            ));
        }
        let event = unseal_event(&self.ledger_key, sealed)
            .map_err(|e| ServiceError::Storage(format!("replicated event: {e}")))?;
        let (seq, ev) = decode_event(event)
            .map_err(|e| ServiceError::Storage(format!("replicated event: {e}")))?;
        if seq < self.next_seq {
            return Ok(false);
        }
        if seq > self.next_seq {
            return Err(ServiceError::Storage(format!(
                "replication gap (expected {}, got {seq})",
                self.next_seq
            )));
        }
        // Validate before the append so a semantically impossible
        // event (primary/replica divergence) is refused rather than
        // buried in the log where replay would die on it.
        validate(&self.inner, &ev)?;
        if self.storage.is_durable() {
            let framed = frame(sealed);
            if let Err(e) = self.storage.append_log(&framed) {
                if self.storage.truncate_log(self.log_len).is_err() {
                    self.poisoned = true;
                }
                return Err(ServiceError::Storage(e.to_string()));
            }
            self.log_len += framed.len() as u64;
        }
        self.next_seq += 1;
        self.clock_floor = self.clock_floor.max(ev.now());
        apply(&mut self.inner, ev, None).expect("validated event cannot fail to apply");
        self.events_since_snapshot += 1;
        if self.storage.is_durable()
            && self.snapshot_every > 0
            && self.events_since_snapshot >= self.snapshot_every
        {
            let _ = self.snapshot_now();
        }
        Ok(true)
    }

    /// Replaces local state with an authenticated snapshot shipped by
    /// a primary (the compacted-log path of [`Self::events_since`]).
    /// Refuses snapshots older than what the replica already holds.
    pub fn install_replica_snapshot(&mut self, bytes: &[u8]) -> Result<()> {
        if self.read_only {
            return Err(ServiceError::Storage(
                "registry opened read-only (audit); mutations refused".into(),
            ));
        }
        let snap = decode_snapshot(bytes, &self.ledger_key).map_err(ServiceError::Storage)?;
        if snap.next_seq < self.next_seq {
            return Err(ServiceError::Storage(format!(
                "replica snapshot regresses (have seq {}, snapshot at {})",
                self.next_seq, snap.next_seq
            )));
        }
        if self.storage.is_durable() {
            // install_snapshot also truncates the log: everything in
            // it is covered by the snapshot we are installing.
            self.storage
                .install_snapshot(bytes)
                .map_err(|e| ServiceError::Storage(e.to_string()))?;
        }
        self.inner = snap.registry;
        self.next_seq = snap.next_seq;
        self.clock_floor = self.clock_floor.max(snap.clock);
        self.log_len = 0;
        self.events_since_snapshot = 0;
        self.poisoned = false;
        Ok(())
    }
}

/// One chunk of the replication stream (see
/// [`DurableRegistry::events_since`]).
#[derive(Debug, Clone)]
pub struct ReplicaBatch {
    /// Echo of the requested starting sequence number.
    pub from_seq: u64,
    /// The primary's next sequence number — when a replica's own
    /// `next_seq` reaches this, it is caught up (as of this batch).
    pub next_seq: u64,
    /// The primary's chain head at batch time, for convergence checks.
    pub head: freqywm_crypto::Digest,
    /// Sealed event payloads, in sequence order starting at `from_seq`.
    pub events: Vec<Vec<u8>>,
    /// Full authenticated snapshot, sent instead of `events` when the
    /// requested range was compacted away.
    pub snapshot: Option<Vec<u8>>,
}

/// Pre-checks that `ev` can apply cleanly — mirrors the validation the
/// public mutators perform before logging, for events arriving over
/// replication instead.
fn validate(registry: &KeyRegistry, ev: &RegistryEvent) -> Result<()> {
    match ev {
        RegistryEvent::RegisterTenant { tenant, .. } if registry.contains(tenant) => {
            Err(ServiceError::DuplicateTenant(tenant.clone()))
        }
        RegistryEvent::RecordWatermark { tenant, .. } if !registry.contains(tenant) => {
            Err(ServiceError::UnknownTenant(tenant.clone()))
        }
        RegistryEvent::ReplaceWatermark { tenant, .. }
            if registry.latest_watermark(tenant).is_none() =>
        {
            Err(ServiceError::NoWatermark(tenant.clone()))
        }
        RegistryEvent::SetQuota { tenant, .. } | RegistryEvent::QuotaCheckpoint { tenant, .. }
            if !registry.contains(tenant) =>
        {
            Err(ServiceError::UnknownTenant(tenant.clone()))
        }
        _ => Ok(()),
    }
}

/// Applies a (pre-validated or replayed) event to the registry. A
/// watermark event registers `secret_text` when the caller already
/// rendered it, else renders it.
fn apply(registry: &mut KeyRegistry, ev: RegistryEvent, secret_text: Option<String>) -> Result<()> {
    let replace = matches!(ev, RegistryEvent::ReplaceWatermark { .. });
    match ev {
        RegistryEvent::RegisterTenant {
            tenant,
            secret,
            now,
        } => registry.register_tenant(&tenant, secret, now).map(|_| ()),
        RegistryEvent::RecordWatermark {
            tenant,
            secrets,
            watermarked,
            now,
        }
        | RegistryEvent::ReplaceWatermark {
            tenant,
            secrets,
            watermarked,
            now,
        } => {
            let text = secret_text.unwrap_or_else(|| secrets.to_text());
            registry
                .put_watermark(&tenant, secrets, &text, watermarked, now, replace)
                .map(|_| ())
        }
        RegistryEvent::RemoveTenant { tenant } => {
            registry.remove_tenant(&tenant);
            Ok(())
        }
        RegistryEvent::SetQuota {
            tenant,
            limits,
            window_ms,
            ..
        } => {
            registry.set_quota(&tenant, limits, window_ms);
            Ok(())
        }
        RegistryEvent::QuotaCheckpoint {
            tenant,
            used,
            at_ms,
            ..
        } => {
            registry.checkpoint_quota(&tenant, used, at_ms);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::InMemoryStorage;
    use freqywm_data::token::Token;

    fn hist() -> Histogram {
        Histogram::from_counts([
            (Token::new("a"), 10),
            (Token::new("b"), 5),
            (Token::new("weird,token\nline"), 3),
        ])
    }

    fn secrets(label: &str) -> SecretList {
        SecretList::new(
            vec![(Token::new("a"), Token::new("b"))],
            Secret::from_label(label),
            31,
        )
    }

    fn open(storage: &InMemoryStorage, snapshot_every: usize) -> DurableRegistry {
        DurableRegistry::open(b"persist-test", Box::new(storage.clone()), snapshot_every)
            .expect("open")
    }

    #[test]
    fn event_codec_round_trips_every_variant() {
        let events = [
            RegistryEvent::RegisterTenant {
                tenant: "acme".into(),
                secret: Secret::from_label("s"),
                now: 7,
            },
            RegistryEvent::RecordWatermark {
                tenant: "acme".into(),
                secrets: StoredSecrets::new(&secrets("w")),
                watermarked: StoredHistogram::new(&hist()),
                now: 8,
            },
            RegistryEvent::ReplaceWatermark {
                tenant: "acme".into(),
                secrets: StoredSecrets::new(&secrets("w2")),
                watermarked: StoredHistogram::new(&hist()),
                now: 9,
            },
            RegistryEvent::RemoveTenant {
                tenant: "acme".into(),
            },
            RegistryEvent::SetQuota {
                tenant: "acme".into(),
                limits: QuotaLimits {
                    embed: 10,
                    detect: crate::quota::UNLIMITED,
                    maintain: 0,
                },
                window_ms: 60_000,
                now: 10,
            },
            RegistryEvent::QuotaCheckpoint {
                tenant: "acme".into(),
                used: [10, 3, 0],
                at_ms: 1_723_000_000_000,
                now: 11,
            },
        ];
        for (i, ev) in events.iter().enumerate() {
            let payload = encode_event(i as u64, ev, &mut None);
            let (seq, back) = decode_event(&payload).unwrap();
            assert_eq!(seq, i as u64);
            assert_eq!(&back, ev);
        }
    }

    #[test]
    fn reopen_restores_state_and_chain_head() {
        let storage = InMemoryStorage::new();
        let head = {
            let mut reg = open(&storage, 0);
            reg.register_tenant("acme", Secret::from_label("a"), 1)
                .unwrap();
            reg.register_tenant("bee", Secret::from_label("b"), 2)
                .unwrap();
            reg.record_watermark("acme", secrets("wa"), hist(), 3)
                .unwrap();
            reg.replace_latest_watermark("acme", secrets("wa2"), hist(), 4)
                .unwrap();
            reg.remove_tenant("bee").unwrap();
            reg.ledger().head_hash()
        };
        let reg = open(&storage, 0);
        let report = reg.recovery_report();
        assert!(!report.snapshot_restored);
        assert_eq!(report.replayed_events, 5);
        assert_eq!(report.torn_tail_bytes, 0);
        assert_eq!(reg.ledger().head_hash(), head);
        assert_eq!(reg.ledger().len(), 4); // 2 onboardings + record + replace
        assert!(reg.contains("acme"));
        assert!(!reg.contains("bee"), "removal must replay too");
        assert_eq!(
            reg.latest_watermark("acme").unwrap().secrets,
            secrets("wa2")
        );
        assert_eq!(reg.clock_floor(), 4);
    }

    #[test]
    fn snapshot_compacts_and_reopen_skips_replay() {
        let storage = InMemoryStorage::new();
        {
            let mut reg = open(&storage, 2); // snapshot every 2 events
            reg.register_tenant("t0", Secret::from_label("0"), 1)
                .unwrap();
            assert!(!storage.has_snapshot());
            reg.register_tenant("t1", Secret::from_label("1"), 2)
                .unwrap();
            assert!(storage.has_snapshot(), "second event triggers snapshot");
            assert_eq!(storage.log_len(), 0, "snapshot compacts the log");
            reg.register_tenant("t2", Secret::from_label("2"), 3)
                .unwrap();
        }
        let reg = open(&storage, 0);
        let report = reg.recovery_report();
        assert!(report.snapshot_restored);
        assert_eq!(report.replayed_events, 1, "only the post-snapshot tail");
        assert_eq!(reg.len(), 3);
        assert!(reg.ledger().verify_chain().is_ok());
    }

    #[test]
    fn replay_skips_events_covered_by_snapshot() {
        // Simulate the crash window between snapshot install and log
        // truncation: reinstall the log bytes after snapshotting.
        let storage = InMemoryStorage::new();
        let mut reg = open(&storage, 0);
        reg.register_tenant("t", Secret::from_label("t"), 1)
            .unwrap();
        let log_before = {
            let mut s = storage.clone();
            crate::storage::Storage::read_log(&mut s).unwrap()
        };
        reg.snapshot_now().unwrap();
        {
            let mut s = storage.clone();
            crate::storage::Storage::append_log(&mut s, &log_before).unwrap();
        }
        drop(reg);
        let reg = open(&storage, 0);
        let report = reg.recovery_report();
        assert_eq!(report.skipped_events, 1);
        assert_eq!(report.replayed_events, 0);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn torn_tail_is_dropped_and_reported() {
        let storage = InMemoryStorage::new();
        let mut reg = open(&storage, 0);
        reg.register_tenant("kept", Secret::from_label("k"), 1)
            .unwrap();
        let whole = {
            let mut s = storage.clone();
            crate::storage::Storage::read_log(&mut s).unwrap()
        };
        reg.register_tenant("torn", Secret::from_label("t"), 2)
            .unwrap();
        drop(reg);
        // Tear the final record: keep the first event plus 5 bytes.
        let torn = InMemoryStorage::new();
        {
            let mut s = torn.clone();
            let mut img = whole.clone();
            let full = {
                let mut s2 = storage.clone();
                crate::storage::Storage::read_log(&mut s2).unwrap()
            };
            img.extend_from_slice(&full[whole.len()..whole.len() + 5]);
            crate::storage::Storage::append_log(&mut s, &img).unwrap();
        }
        let reg = DurableRegistry::open(b"persist-test", Box::new(torn), 0).unwrap();
        let report = reg.recovery_report();
        assert_eq!(report.replayed_events, 1);
        assert_eq!(report.torn_tail_bytes, 5);
        assert!(reg.contains("kept"));
        assert!(!reg.contains("torn"));
        assert!(reg.ledger().verify_chain().is_ok());
    }

    #[test]
    fn wrong_key_fails_recovery_from_snapshot() {
        let storage = InMemoryStorage::new();
        let mut reg = open(&storage, 0);
        reg.register_tenant("t", Secret::from_label("t"), 1)
            .unwrap();
        reg.snapshot_now().unwrap();
        drop(reg);
        let err = DurableRegistry::open(b"other-key", Box::new(storage.clone()), 0).unwrap_err();
        assert!(matches!(err, ServiceError::Storage(_)), "{err}");
    }

    #[test]
    fn wrong_key_fails_recovery_from_log_only_state() {
        // No snapshot ever installed: the log alone must still be
        // bound to the key (events are HMAC-sealed), otherwise replay
        // would happily re-MAC the chain under an imposter's key.
        let storage = InMemoryStorage::new();
        let mut reg = open(&storage, 0);
        reg.register_tenant("t", Secret::from_label("t"), 1)
            .unwrap();
        drop(reg);
        assert!(!storage.has_snapshot());
        let err = DurableRegistry::open(b"other-key", Box::new(storage.clone()), 0).unwrap_err();
        assert!(
            matches!(&err, ServiceError::Storage(m) if m.contains("authentication")),
            "{err}"
        );
    }

    #[test]
    fn tampered_snapshot_fails_authentication() {
        let storage = InMemoryStorage::new();
        let mut reg = open(&storage, 0);
        reg.register_tenant("t", Secret::from_label("t"), 1)
            .unwrap();
        reg.record_watermark("t", secrets("w"), hist(), 2).unwrap();
        reg.snapshot_now().unwrap();
        drop(reg);
        // Flip one byte of tenant state (not chain entries) in the
        // snapshot: recovery must refuse, not silently load it.
        let mut s = storage.clone();
        let mut snap = Storage::read_snapshot(&mut s).unwrap().unwrap();
        let idx = snap.len() - 40; // inside the body, before the MAC
        snap[idx] ^= 0x01;
        Storage::install_snapshot(&mut s, &snap).unwrap();
        let err = DurableRegistry::open(b"persist-test", Box::new(storage), 0).unwrap_err();
        assert!(
            matches!(&err, ServiceError::Storage(m) if m.contains("authentication")),
            "{err}"
        );
    }

    /// Fails the Nth append after writing a partial prefix, but (unlike
    /// a crash) stays alive so truncate-repair can run.
    struct FlakyAppend {
        inner: InMemoryStorage,
        fail_at: usize,
        appends: usize,
    }

    impl Storage for FlakyAppend {
        fn append_log(&mut self, bytes: &[u8]) -> crate::storage::StorageResult<()> {
            self.appends += 1;
            if self.appends == self.fail_at {
                // Half the frame lands — a torn tail on live storage.
                self.inner.append_log(&bytes[..bytes.len() / 2])?;
                return Err(crate::storage::StorageError::Io("disk full".into()));
            }
            self.inner.append_log(bytes)
        }
        fn read_log(&mut self) -> crate::storage::StorageResult<Vec<u8>> {
            self.inner.read_log()
        }
        fn truncate_log(&mut self, len: u64) -> crate::storage::StorageResult<()> {
            self.inner.truncate_log(len)
        }
        fn install_snapshot(&mut self, snapshot: &[u8]) -> crate::storage::StorageResult<()> {
            self.inner.install_snapshot(snapshot)
        }
        fn read_snapshot(&mut self) -> crate::storage::StorageResult<Option<Vec<u8>>> {
            self.inner.read_snapshot()
        }
    }

    #[test]
    fn survived_partial_append_is_repaired_and_log_stays_recoverable() {
        let base = InMemoryStorage::new();
        let mut reg = DurableRegistry::open(
            b"persist-test",
            Box::new(FlakyAppend {
                inner: base.clone(),
                fail_at: 2,
                appends: 0,
            }),
            0,
        )
        .unwrap();
        reg.register_tenant("ok", Secret::from_label("ok"), 1)
            .unwrap();
        let clean_len = base.log_len();
        // Second append dies halfway — the error surfaces, and commit
        // rolls the log back to the record boundary.
        assert!(matches!(
            reg.register_tenant("torn", Secret::from_label("torn"), 2),
            Err(ServiceError::Storage(_))
        ));
        assert_eq!(base.log_len(), clean_len, "torn bytes must be rolled back");
        // The registry keeps working (the disk "recovered")…
        reg.register_tenant("later", Secret::from_label("later"), 3)
            .unwrap();
        drop(reg);
        // …and the log replays cleanly: no mid-stream corruption.
        let rec = DurableRegistry::open(b"persist-test", Box::new(base), 0).unwrap();
        assert_eq!(rec.recovery_report().replayed_events, 2);
        assert_eq!(rec.recovery_report().torn_tail_bytes, 0);
        assert!(rec.contains("ok") && rec.contains("later"));
        assert!(!rec.contains("torn"));
    }

    #[test]
    fn read_only_open_does_not_repair_the_medium() {
        let storage = InMemoryStorage::new();
        let mut reg = open(&storage, 0);
        reg.register_tenant("t", Secret::from_label("t"), 1)
            .unwrap();
        drop(reg);
        {
            let mut s = storage.clone();
            Storage::append_log(&mut s, &[1, 2, 3]).unwrap();
        }
        let with_tear = storage.log_len();
        let mut audit =
            DurableRegistry::open_read_only(b"persist-test", Box::new(storage.clone())).unwrap();
        assert_eq!(audit.recovery_report().torn_tail_bytes, 3);
        assert_eq!(storage.log_len(), with_tear, "audit must not truncate");
        // The audit handle refuses mutations: a write past the
        // unrepaired tear would corrupt the log mid-stream.
        assert!(matches!(
            audit.register_tenant("sneaky", Secret::from_label("s"), 9),
            Err(ServiceError::Storage(_))
        ));
        assert_eq!(storage.log_len(), with_tear);
        // A normal open afterwards still repairs.
        let _ = DurableRegistry::open(b"persist-test", Box::new(storage.clone()), 0).unwrap();
        assert_eq!(storage.log_len(), with_tear - 3);
    }

    #[test]
    fn replica_converges_via_event_stream_and_survives_reopen() {
        let p_storage = InMemoryStorage::new();
        let mut primary = open(&p_storage, 0);
        primary
            .register_tenant("acme", Secret::from_label("a"), 1)
            .unwrap();
        primary
            .register_tenant("bee", Secret::from_label("b"), 2)
            .unwrap();
        primary
            .record_watermark("acme", secrets("wa"), hist(), 3)
            .unwrap();
        primary.remove_tenant("bee").unwrap();

        let f_storage = InMemoryStorage::new();
        let mut follower = open(&f_storage, 0);
        // Tiny max_bytes forces multiple batches.
        loop {
            let batch = primary.events_since(follower.next_seq(), 1).unwrap();
            assert!(batch.snapshot.is_none(), "log is intact; no snapshot");
            if batch.events.is_empty() {
                assert_eq!(follower.next_seq(), batch.next_seq);
                break;
            }
            for ev in &batch.events {
                assert!(follower.apply_sealed_event(ev).unwrap());
            }
        }
        assert_eq!(follower.ledger().head_hash(), primary.ledger().head_hash());
        assert!(follower.contains("acme") && !follower.contains("bee"));
        assert_eq!(follower.clock_floor(), primary.clock_floor());
        drop(follower);
        // The replica's own log is byte-for-byte replayable.
        let reopened = open(&f_storage, 0);
        assert_eq!(reopened.ledger().head_hash(), primary.ledger().head_hash());
        assert_eq!(reopened.next_seq(), primary.next_seq());
    }

    #[test]
    fn compacted_primary_ships_snapshot_instead_of_events() {
        let p_storage = InMemoryStorage::new();
        let mut primary = open(&p_storage, 0);
        primary
            .register_tenant("acme", Secret::from_label("a"), 1)
            .unwrap();
        primary
            .record_watermark("acme", secrets("w"), hist(), 2)
            .unwrap();
        primary.snapshot_now().unwrap(); // log truncated: seqs 0..2 gone

        let mut follower = open(&InMemoryStorage::new(), 0);
        let batch = primary.events_since(0, usize::MAX).unwrap();
        assert!(batch.events.is_empty());
        let snap = batch.snapshot.expect("compacted range must ship snapshot");
        follower.install_replica_snapshot(&snap).unwrap();
        assert_eq!(follower.next_seq(), primary.next_seq());
        assert_eq!(follower.ledger().head_hash(), primary.ledger().head_hash());

        // Tailing resumes with plain events after the snapshot point.
        primary
            .register_tenant("bee", Secret::from_label("b"), 3)
            .unwrap();
        let batch = primary
            .events_since(follower.next_seq(), usize::MAX)
            .unwrap();
        assert_eq!(batch.events.len(), 1);
        assert!(follower.apply_sealed_event(&batch.events[0]).unwrap());
        assert_eq!(follower.ledger().head_hash(), primary.ledger().head_hash());
    }

    #[test]
    fn replica_apply_is_idempotent_and_refuses_gaps() {
        let mut primary = open(&InMemoryStorage::new(), 0);
        primary
            .register_tenant("t0", Secret::from_label("0"), 1)
            .unwrap();
        primary
            .register_tenant("t1", Secret::from_label("1"), 2)
            .unwrap();
        let batch = primary.events_since(0, usize::MAX).unwrap();
        let mut follower = open(&InMemoryStorage::new(), 0);
        assert!(follower.apply_sealed_event(&batch.events[0]).unwrap());
        // Duplicate delivery (reconnect overlap): skipped, not an error.
        assert!(!follower.apply_sealed_event(&batch.events[0]).unwrap());
        assert_eq!(follower.next_seq(), 1);
        // Skipping ahead is a gap: refused so the chain cannot fork.
        let mut gapped = open(&InMemoryStorage::new(), 0);
        let err = gapped.apply_sealed_event(&batch.events[1]).unwrap_err();
        assert!(
            matches!(&err, ServiceError::Storage(m) if m.contains("gap")),
            "{err}"
        );
        // A replica that somehow ran ahead is reported, not served.
        assert!(primary.events_since(99, usize::MAX).is_err());
    }

    #[test]
    fn tampered_replicated_event_is_refused() {
        let mut primary = open(&InMemoryStorage::new(), 0);
        primary
            .register_tenant("t", Secret::from_label("t"), 1)
            .unwrap();
        let batch = primary.events_since(0, usize::MAX).unwrap();
        let mut evil = batch.events[0].clone();
        let last = evil.len() - 1;
        evil[last] ^= 0x01;
        let mut follower = open(&InMemoryStorage::new(), 0);
        let err = follower.apply_sealed_event(&evil).unwrap_err();
        assert!(
            matches!(&err, ServiceError::Storage(m) if m.contains("authentication")),
            "{err}"
        );
        assert_eq!(follower.next_seq(), 0, "nothing may apply");
    }

    #[test]
    fn quota_state_survives_replay_and_snapshot_paths() {
        let limits = QuotaLimits {
            embed: 5,
            detect: crate::quota::UNLIMITED,
            maintain: 2,
        };
        // Log-replay path.
        let storage = InMemoryStorage::new();
        {
            let mut reg = open(&storage, 0);
            reg.register_tenant("acme", Secret::from_label("a"), 1)
                .unwrap();
            reg.set_quota("acme", limits, 30_000, 2).unwrap();
            reg.checkpoint_quota("acme", [5, 0, 1], 777, 3).unwrap();
        }
        let reg = open(&storage, 0);
        let q = reg.quota("acme").expect("quota record survives replay");
        assert_eq!(q.limits, limits);
        assert_eq!(q.window_ms, 30_000);
        assert!(q.explicit);
        assert_eq!(q.used, [5, 0, 1]);
        assert_eq!(q.used_at_ms, 777);
        assert_eq!(reg.clock_floor(), 3);
        drop(reg);
        // Snapshot path: compact, then reopen from the snapshot alone.
        {
            let mut reg = open(&storage, 0);
            reg.snapshot_now().unwrap();
        }
        assert!(storage.has_snapshot());
        let reg = open(&storage, 0);
        assert!(reg.recovery_report().snapshot_restored);
        assert_eq!(reg.recovery_report().replayed_events, 0);
        let q = reg.quota("acme").expect("quota record survives snapshot");
        assert_eq!(q.limits, limits);
        assert_eq!(q.used, [5, 0, 1]);
        // Quota events for unknown tenants are refused, not logged.
        let mut reg = open(&storage, 0);
        let len = storage.log_len();
        assert!(reg.set_quota("ghost", limits, 30_000, 9).is_err());
        assert!(reg.checkpoint_quota("ghost", [1, 0, 0], 9, 9).is_err());
        assert_eq!(storage.log_len(), len);
    }

    #[test]
    fn quota_events_replicate_like_any_sealed_event() {
        let mut primary = open(&InMemoryStorage::new(), 0);
        primary
            .register_tenant("acme", Secret::from_label("a"), 1)
            .unwrap();
        let limits = QuotaLimits {
            embed: 3,
            detect: crate::quota::UNLIMITED,
            maintain: crate::quota::UNLIMITED,
        };
        primary.set_quota("acme", limits, 10_000, 2).unwrap();
        primary.checkpoint_quota("acme", [3, 0, 0], 555, 3).unwrap();
        let f_storage = InMemoryStorage::new();
        let mut follower = open(&f_storage, 0);
        let batch = primary.events_since(0, usize::MAX).unwrap();
        assert_eq!(batch.events.len(), 3);
        for ev in &batch.events {
            assert!(follower.apply_sealed_event(ev).unwrap());
        }
        let q = follower.quota("acme").expect("replicated quota record");
        assert_eq!(q.limits, limits);
        assert_eq!(q.used, [3, 0, 0]);
        assert_eq!(q.used_at_ms, 555);
        drop(follower);
        // The follower's own log replays the quota events too.
        let reopened = open(&f_storage, 0);
        assert_eq!(reopened.quota("acme").unwrap().used, [3, 0, 0]);
    }

    #[test]
    fn validation_failures_do_not_touch_the_log() {
        let storage = InMemoryStorage::new();
        let mut reg = open(&storage, 0);
        reg.register_tenant("t", Secret::from_label("t"), 1)
            .unwrap();
        let len = storage.log_len();
        assert!(reg
            .register_tenant("t", Secret::from_label("dup"), 2)
            .is_err());
        assert!(reg
            .record_watermark("ghost", secrets("w"), hist(), 3)
            .is_err());
        assert!(reg
            .replace_latest_watermark("t", secrets("w"), hist(), 4)
            .is_err());
        assert!(!reg.remove_tenant("ghost").unwrap());
        assert_eq!(storage.log_len(), len, "rejected mutations must not log");
    }
}
