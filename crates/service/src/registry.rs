//! The tenant/key registry.
//!
//! Maps owner (tenant) ids to their high-entropy secrets `R` and the
//! watermarks embedded under them. Every registration event — tenant
//! onboarding and each completed embed — is appended to the hash-chained
//! [`Ledger`], so registration *order* is tamper-evident and feeds the
//! Sec. V-D dispute protocol: when the four-run protocol is
//! inconclusive, the earlier ledger entry wins.
//!
//! Secrets are wiped on drop ([`Secret`] zeroizes itself), so evicting
//! a tenant leaves no key material in freed memory.

use crate::error::{Result, ServiceError};
use crate::quota::QuotaLimits;
use freqywm_core::detect::{verify_pairs, DetectTotals};
use freqywm_core::params::DetectionParams;
use freqywm_core::secret::{secret_text, SecretList};
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::token::Token;
use freqywm_ledger::codec::{put_str, put_u64, CodecError, Reader};
use freqywm_ledger::Ledger;
use std::collections::HashMap;

/// Appends `v` as LEB128: seven bits per byte, low bits first, the
/// top bit set on every byte but the last.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Appends a token as its LEB128 length and its bytes.
fn put_token(buf: &mut Vec<u8>, token: &str) {
    put_varint(buf, token.len() as u64);
    buf.extend_from_slice(token.as_bytes());
}

/// Reads back what [`put_varint`] and [`put_token`] wrote. The bytes
/// never come from outside this module, so a malformed read is a bug
/// here and panics.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn varint(&mut self) -> u64 {
        let mut v = 0;
        for (k, &b) in self.bytes.iter().enumerate() {
            v |= u64::from(b & 0x7f) << (7 * k);
            if b < 0x80 {
                self.bytes = &self.bytes[k + 1..];
                return v;
            }
        }
        panic!("truncated varint in a stored watermark")
    }

    fn token(&mut self) -> &'a str {
        let len = usize::try_from(self.varint()).expect("stored token length fits usize");
        let (token, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        std::str::from_utf8(token).expect("stored tokens are UTF-8")
    }
}

/// The `(token, count)` rows [`put_token`] and [`put_varint`] wrote
/// into `bytes`, in order.
fn rows(bytes: &[u8]) -> impl Iterator<Item = (&str, u64)> {
    let mut cur = Cursor { bytes };
    std::iter::from_fn(move || (!cur.is_empty()).then(|| (cur.token(), cur.varint())))
}

/// `(token, count)` rows packed into one buffer in the order they were
/// pushed, in [`StoredHistogram`]'s encoding. A request's `counts`
/// decode into this: one allocation, where a [`Histogram`] makes one
/// per token, keeps a second copy of each in its index and sorts.
#[derive(Clone)]
pub struct CountRows {
    bytes: Vec<u8>,
    len: usize,
}

impl CountRows {
    /// Empty rows with room for `bytes` bytes of encoding.
    pub fn with_capacity(bytes: usize) -> Self {
        CountRows {
            bytes: Vec::with_capacity(bytes),
            len: 0,
        }
    }

    /// Appends one row.
    pub fn push(&mut self, token: &str, count: u64) {
        put_token(&mut self.bytes, token);
        put_varint(&mut self.bytes, count);
        self.len += 1;
    }

    /// The rows, in push order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        rows(&self.bytes)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows as a histogram (a repeated token makes two entries).
    pub fn to_histogram(&self) -> Histogram {
        let mut rows = Vec::with_capacity(self.len);
        rows.extend(self.iter().map(|(t, c)| (Token::new(t), c)));
        Histogram::from_counts(rows)
    }
}

impl std::fmt::Debug for CountRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A watermarked histogram at rest, in a compact varint form: per
/// entry, in rank order, the token's LEB128 length, its bytes, then
/// its LEB128 count — about 12 bytes for a 9-byte token, where the
/// log's fixed-width form takes 25 and a [`Histogram`] also keeps a
/// token index with a second copy of every token. Maintenance and
/// disputes decode it with [`StoredHistogram::to_histogram`].
#[derive(Clone, PartialEq, Eq)]
pub struct StoredHistogram(Box<[u8]>);

impl StoredHistogram {
    /// Encodes `hist` for storage.
    pub fn new(hist: &Histogram) -> Self {
        let mut buf = Vec::with_capacity(hist.len() * 12);
        for (token, count) in hist.entries() {
            put_token(&mut buf, token.as_str());
            put_varint(&mut buf, *count);
        }
        StoredHistogram(buf.into_boxed_slice())
    }

    /// `(token, count)` in rank order.
    fn entries(&self) -> impl Iterator<Item = (&str, u64)> {
        rows(&self.0)
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Decodes the stored histogram.
    pub fn to_histogram(&self) -> Histogram {
        Histogram::from_counts(self.entries().map(|(t, c)| (Token::new(t), c)))
    }

    /// Appends the histogram in the durable log's and snapshots'
    /// encoding: the token count as a big-endian `u64`, then per entry
    /// a length-prefixed token and a big-endian `u64` count.
    pub(crate) fn put_log(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.len() as u64);
        for (token, count) in self.entries() {
            put_str(buf, token);
            put_u64(buf, count);
        }
    }

    /// Reads a histogram [`Self::put_log`] wrote, straight into the
    /// stored form.
    pub(crate) fn read_log(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let n = r.u64()?;
        let mut buf = Vec::new();
        for _ in 0..n {
            put_token(&mut buf, r.str()?);
            put_varint(&mut buf, r.u64()?);
        }
        Ok(StoredHistogram(buf.into_boxed_slice()))
    }
}

impl PartialEq<Histogram> for StoredHistogram {
    fn eq(&self, other: &Histogram) -> bool {
        let mut mine = self.entries();
        other
            .entries()
            .iter()
            .all(|(t, c)| mine.next() == Some((t.as_str(), *c)))
            && mine.next().is_none()
    }
}

impl std::fmt::Debug for StoredHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StoredHistogram({} bytes)", self.0.len())
    }
}

/// A secret list `L_sc = {L_wm, R, z}` at rest: `R` and `z` as they
/// are, and every pair token packed into one buffer (LEB128 length and
/// bytes, first token then second, pair by pair) — one allocation
/// where a [`SecretList`] makes two per pair. `R` stays a [`Secret`],
/// so it is wiped on drop.
#[derive(Clone, PartialEq, Eq)]
pub struct StoredSecrets {
    secret: Secret,
    z: u64,
    pairs: Box<[u8]>,
}

impl StoredSecrets {
    /// Encodes `list` for storage.
    pub fn new(list: &SecretList) -> Self {
        let mut pairs = Vec::new();
        for (a, b) in &list.pairs {
            put_token(&mut pairs, a.as_str());
            put_token(&mut pairs, b.as_str());
        }
        StoredSecrets {
            secret: list.secret.clone(),
            z: list.z,
            pairs: pairs.into_boxed_slice(),
        }
    }

    /// The watermarked pairs, in generation order.
    fn pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        let mut cur = Cursor { bytes: &self.pairs };
        std::iter::from_fn(move || (!cur.is_empty()).then(|| (cur.token(), cur.token())))
    }

    /// Number of watermarked pairs.
    pub fn len(&self) -> usize {
        self.pairs().count()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The modulo base `z`.
    pub fn z(&self) -> u64 {
        self.z
    }

    /// Decodes the stored secret list.
    pub fn to_secret_list(&self) -> SecretList {
        SecretList::new(
            self.pairs()
                .map(|(a, b)| (Token::new(a), Token::new(b)))
                .collect(),
            self.secret.clone(),
            self.z,
        )
    }

    /// `WM_Detect` verdict totals over suspect rows, streamed once: a
    /// map from each stored token, borrowed from the packed buffer, to
    /// a slot keeps the count of every row that names one, and only
    /// the pairs with both counts are hashed. A repeated token keeps
    /// its last row's count.
    pub fn detect_rows<'r>(
        &self,
        rows: impl IntoIterator<Item = (&'r str, u64)>,
        params: &DetectionParams,
    ) -> DetectTotals {
        let n = self.len();
        let mut slots: HashMap<&str, usize> = HashMap::with_capacity(2 * n);
        let mut pairs = Vec::with_capacity(n);
        for (a, b) in self.pairs() {
            let mut slot = |t| {
                let next = slots.len();
                *slots.entry(t).or_insert(next)
            };
            pairs.push(((a.as_bytes(), b.as_bytes()), (slot(a), slot(b))));
        }
        let mut counts = vec![None; slots.len()];
        for (token, count) in rows {
            if let Some(&slot) = slots.get(token) {
                counts[slot] = Some(count);
            }
        }
        let pairs = pairs
            .into_iter()
            .map(|(pair, (a, b))| (pair, counts[a].zip(counts[b])));
        verify_pairs(&self.secret, self.z, pairs, params, |_| {})
    }

    /// [`SecretList::to_text`] of the stored list: the ledger
    /// fingerprint, and the form the log and snapshots write.
    pub fn to_text(&self) -> String {
        secret_text(self.pairs(), &self.secret, self.z)
    }

    /// Parses the text [`Self::to_text`] writes.
    pub(crate) fn from_text(text: &str) -> freqywm_core::Result<Self> {
        SecretList::from_text(text).map(|list| StoredSecrets::new(&list))
    }
}

impl PartialEq<SecretList> for StoredSecrets {
    fn eq(&self, other: &SecretList) -> bool {
        let mut mine = self.pairs();
        self.secret == other.secret
            && self.z == other.z
            && other
                .pairs
                .iter()
                .all(|(a, b)| mine.next() == Some((a.as_str(), b.as_str())))
            && mine.next().is_none()
    }
}

impl std::fmt::Debug for StoredSecrets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredSecrets")
            .field("secret", &self.secret)
            .field("z", &self.z)
            .field("pairs", &self.len())
            .finish()
    }
}

/// One embedded watermark on record for a tenant.
#[derive(Debug, Clone)]
pub struct StoredWatermark {
    /// The secret list `L_sc = {L_wm, R, z}` produced by the embed.
    pub secrets: StoredSecrets,
    /// The watermarked histogram (the data version this mark lives in);
    /// kept for maintenance and dispute claims.
    pub watermarked: StoredHistogram,
    /// Index of this watermark's fingerprint in the ledger chain.
    pub ledger_index: u64,
    /// Logical registration timestamp (engine clock tick).
    pub registered_at: u64,
}

/// Materialised per-tenant state, as written into (and restored from)
/// durable snapshots. Holds the secret — snapshots are key material
/// and the data-dir must be protected accordingly.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    pub tenant: String,
    pub secret: Secret,
    pub ledger_index: u64,
    pub registered_at: u64,
    pub watermarks: Vec<StoredWatermark>,
}

#[derive(Debug)]
pub(crate) struct TenantRecord {
    pub(crate) secret: Secret,
    pub(crate) ledger_index: u64,
    pub(crate) registered_at: u64,
    pub(crate) watermarks: Vec<StoredWatermark>,
}

/// Durable per-tenant quota state: explicit limits (if any) plus the
/// last checkpointed consumed window. Restarts restore both, so an
/// abuser that spent its budget stays refused across a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuotaRecord {
    /// Explicit per-tenant limits set via the `quota` op. When
    /// `explicit` is false the engine's default limits apply and this
    /// field is ignored (kept at unlimited).
    pub limits: QuotaLimits,
    /// Sliding-window width for this tenant; `0` = engine default.
    pub window_ms: u64,
    /// Whether `limits`/`window_ms` were set explicitly.
    pub explicit: bool,
    /// Checkpointed consumption per op class (embed, detect, maintain).
    pub used: [u64; 3],
    /// Wall-clock milliseconds of the checkpoint; windows re-age from
    /// here after a restart.
    pub used_at_ms: u64,
}

/// Ledger-backed multi-tenant key registry.
#[derive(Debug)]
pub struct KeyRegistry {
    ledger: Ledger,
    tenants: HashMap<String, TenantRecord>,
    quotas: HashMap<String, QuotaRecord>,
}

/// Canonical ledger material for a tenant-key registration.
fn tenant_material(tenant: &str, secret: &Secret) -> Vec<u8> {
    let mut m = Vec::with_capacity(tenant.len() + 40);
    m.extend_from_slice(b"freqywm/tenant-key/v1\x00");
    m.extend_from_slice(tenant.as_bytes());
    m.push(0);
    m.extend_from_slice(secret.as_bytes());
    m
}

impl KeyRegistry {
    /// Creates an empty registry whose ledger authenticates under `key`.
    pub fn new(ledger_key: &[u8]) -> Self {
        KeyRegistry {
            ledger: Ledger::new(ledger_key),
            tenants: HashMap::new(),
            quotas: HashMap::new(),
        }
    }

    /// Registers a tenant and its secret; returns the ledger index of
    /// the onboarding entry. Fails on duplicate ids.
    pub fn register_tenant(&mut self, tenant: &str, secret: Secret, now: u64) -> Result<u64> {
        if self.tenants.contains_key(tenant) {
            return Err(ServiceError::DuplicateTenant(tenant.to_string()));
        }
        let material = tenant_material(tenant, &secret);
        let ledger_index = self.ledger.register(now, tenant, &material);
        self.tenants.insert(
            tenant.to_string(),
            TenantRecord {
                secret,
                ledger_index,
                registered_at: now,
                watermarks: Vec::new(),
            },
        );
        Ok(ledger_index)
    }

    /// Rebuilds a registry from a verified ledger and tenant snapshots
    /// (the recovery path).
    pub fn restore(ledger: Ledger, tenants: Vec<TenantSnapshot>) -> Self {
        let tenants = tenants
            .into_iter()
            .map(|t| {
                (
                    t.tenant,
                    TenantRecord {
                        secret: t.secret,
                        ledger_index: t.ledger_index,
                        registered_at: t.registered_at,
                        watermarks: t.watermarks,
                    },
                )
            })
            .collect();
        KeyRegistry {
            ledger,
            tenants,
            quotas: HashMap::new(),
        }
    }

    /// Restores persisted quota records (second half of the recovery
    /// path, after [`Self::restore`]).
    pub fn restore_quotas(&mut self, quotas: Vec<(String, QuotaRecord)>) {
        self.quotas = quotas.into_iter().collect();
    }

    /// Every tenant with its record, sorted by id so the snapshot
    /// bytes are deterministic for a given state.
    pub(crate) fn tenants_sorted(&self) -> Vec<(&str, &TenantRecord)> {
        let mut out: Vec<(&str, &TenantRecord)> =
            self.tenants.iter().map(|(t, r)| (t.as_str(), r)).collect();
        out.sort_unstable_by_key(|(t, _)| *t);
        out
    }

    /// Materialises every quota record for a snapshot, sorted by
    /// tenant so the snapshot bytes are deterministic.
    pub fn quota_snapshots(&self) -> Vec<(String, QuotaRecord)> {
        let mut out: Vec<(String, QuotaRecord)> =
            self.quotas.iter().map(|(t, r)| (t.clone(), *r)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The tenant's durable quota record, if one exists.
    pub fn quota(&self, tenant: &str) -> Option<&QuotaRecord> {
        self.quotas.get(tenant)
    }

    /// Sets a tenant's explicit limits, keeping any checkpointed
    /// consumption.
    pub fn set_quota(&mut self, tenant: &str, limits: QuotaLimits, window_ms: u64) {
        let rec = self.quotas.entry(tenant.to_string()).or_default();
        rec.limits = limits;
        rec.window_ms = window_ms;
        rec.explicit = true;
    }

    /// Records a consumed-window checkpoint.
    pub fn checkpoint_quota(&mut self, tenant: &str, used: [u64; 3], at_ms: u64) {
        let rec = self.quotas.entry(tenant.to_string()).or_default();
        rec.used = used;
        rec.used_at_ms = at_ms;
    }

    /// Removes a tenant; its `Secret` zeroizes on drop.
    /// The ledger keeps the historical entries (append-only).
    pub fn remove_tenant(&mut self, tenant: &str) -> bool {
        self.quotas.remove(tenant);
        self.tenants.remove(tenant).is_some()
    }

    pub fn contains(&self, tenant: &str) -> bool {
        self.tenants.contains_key(tenant)
    }

    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    pub fn tenant_ids(&self) -> impl Iterator<Item = &str> {
        self.tenants.keys().map(|s| s.as_str())
    }

    /// The tenant's high-entropy secret `R`.
    pub fn secret(&self, tenant: &str) -> Result<&Secret> {
        self.tenants
            .get(tenant)
            .map(|r| &r.secret)
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))
    }

    /// Audit view of a tenant's onboarding: `(ledger_index,
    /// registered_at)`.
    pub fn tenant_registration(&self, tenant: &str) -> Result<(u64, u64)> {
        self.tenants
            .get(tenant)
            .map(|r| (r.ledger_index, r.registered_at))
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))
    }

    /// Records a completed embed: appends the secret-list fingerprint
    /// to the ledger and stores the watermark for later detect /
    /// maintain / dispute calls. Returns the ledger index.
    pub fn record_watermark(
        &mut self,
        tenant: &str,
        secrets: StoredSecrets,
        watermarked: StoredHistogram,
        now: u64,
    ) -> Result<u64> {
        // Append first so a missing tenant cannot mutate the chain.
        if !self.tenants.contains_key(tenant) {
            return Err(ServiceError::UnknownTenant(tenant.to_string()));
        }
        let ledger_index = self
            .ledger
            .register(now, tenant, secrets.to_text().as_bytes());
        let record = self.tenants.get_mut(tenant).expect("checked above");
        record.watermarks.push(StoredWatermark {
            secrets,
            watermarked,
            ledger_index,
            registered_at: now,
        });
        Ok(ledger_index)
    }

    /// Replaces the latest stored watermark (maintenance rewrites the
    /// secret list in place and re-registers the new fingerprint).
    pub fn replace_latest_watermark(
        &mut self,
        tenant: &str,
        secrets: StoredSecrets,
        watermarked: StoredHistogram,
        now: u64,
    ) -> Result<u64> {
        if self.latest_watermark(tenant).is_none() {
            return Err(ServiceError::NoWatermark(tenant.to_string()));
        }
        let ledger_index = self
            .ledger
            .register(now, tenant, secrets.to_text().as_bytes());
        let record = self
            .tenants
            .get_mut(tenant)
            .expect("latest_watermark checked");
        let latest = record.watermarks.last_mut().expect("non-empty");
        *latest = StoredWatermark {
            secrets,
            watermarked,
            ledger_index,
            registered_at: now,
        };
        Ok(ledger_index)
    }

    /// The tenant's most recent watermark, if any embed completed.
    pub fn latest_watermark(&self, tenant: &str) -> Option<&StoredWatermark> {
        self.tenants.get(tenant)?.watermarks.last()
    }

    /// Like [`Self::latest_watermark`] but with service-level errors.
    pub fn require_watermark(&self, tenant: &str) -> Result<&StoredWatermark> {
        let record = self
            .tenants
            .get(tenant)
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))?;
        record
            .watermarks
            .last()
            .ok_or_else(|| ServiceError::NoWatermark(tenant.to_string()))
    }

    /// Read access to the underlying chain (verification, audits).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Chronological order of two tenants' *latest watermarks* in the
    /// ledger — the dispute tiebreak. `Less` means `a` registered first.
    pub fn earlier_watermark(&self, a: &str, b: &str) -> Result<std::cmp::Ordering> {
        let wa = self.require_watermark(a)?;
        let wb = self.require_watermark(b)?;
        self.ledger
            .earlier_of(
                wa.secrets.to_text().as_bytes(),
                wb.secrets.to_text().as_bytes(),
            )
            .ok_or_else(|| ServiceError::Internal("watermark missing from ledger".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freqywm_data::token::Token;

    fn hist() -> Histogram {
        Histogram::from_counts([(Token::new("a"), 10), (Token::new("b"), 5)])
    }

    fn secrets(label: &str) -> SecretList {
        SecretList::new(
            vec![(Token::new("a"), Token::new("b"))],
            Secret::from_label(label),
            31,
        )
    }

    fn stored_secrets(label: &str) -> StoredSecrets {
        StoredSecrets::new(&secrets(label))
    }

    fn stored_hist() -> StoredHistogram {
        StoredHistogram::new(&hist())
    }

    /// The log's histogram encoding, written straight from a
    /// [`Histogram`]: the reference [`StoredHistogram::put_log`] must
    /// reproduce byte for byte.
    fn put_histogram(buf: &mut Vec<u8>, h: &Histogram) {
        put_u64(buf, h.len() as u64);
        for (token, count) in h.entries() {
            freqywm_ledger::codec::put_bytes(buf, token.as_bytes());
            put_u64(buf, *count);
        }
    }

    /// Histograms at the edges of the varint form: empty, zero and
    /// ≥ 2^63 counts, the empty token, non-ASCII and composite tokens,
    /// and 10k entries.
    fn edge_histograms() -> Vec<Histogram> {
        let h = |counts: Vec<(Token, u64)>| Histogram::from_counts(counts);
        vec![
            h(vec![]),
            h(vec![(Token::new(""), 0)]),
            h(vec![
                (Token::new("a"), 0),
                (Token::new("b"), 127),
                (Token::new("c"), 128),
                (Token::new("d"), 1 << 63),
                (Token::new("e"), u64::MAX),
            ]),
            h(vec![
                (Token::new("naïve café ✓"), 3),
                (Token::new("🦀"), 2),
                (Token::composite(["39", "Gov"]), 1),
                (Token::new("x".repeat(300)), 200),
            ]),
            h((0..10_000u64)
                .map(|i| (Token::new(format!("tk{i}")), i * 7919))
                .collect()),
        ]
    }

    #[test]
    fn stored_histogram_round_trips_and_writes_the_log_bytes() {
        for h in edge_histograms() {
            let stored = StoredHistogram::new(&h);
            assert_eq!(stored.to_histogram(), h);
            assert!(stored == h);
            assert_eq!(stored.len(), h.len());
            let mut want = Vec::new();
            put_histogram(&mut want, &h);
            let mut log = Vec::new();
            stored.put_log(&mut log);
            assert_eq!(log, want, "{} tokens", h.len());
            let mut r = Reader::new(&log);
            assert_eq!(StoredHistogram::read_log(&mut r).unwrap(), stored);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn stored_secrets_round_trip_and_write_the_secret_text() {
        let token = |s: &str| Token::new(s);
        let lists = [
            SecretList::new(Vec::new(), Secret::from_label("empty"), 7),
            SecretList::new(
                vec![
                    (token(""), token("b")),
                    (token("naïve ✓"), token("🦀")),
                    (
                        Token::composite(["39", "Gov"]),
                        token("x".repeat(200).as_str()),
                    ),
                ],
                Secret::from_label("edges"),
                u64::MAX,
            ),
            SecretList::new(
                (0..10_000)
                    .map(|i| (token(&format!("a{i}")), token(&format!("b{i}"))))
                    .collect(),
                Secret::from_label("big"),
                1031,
            ),
        ];
        for list in &lists {
            let stored = StoredSecrets::new(list);
            assert_eq!(stored.to_secret_list(), *list);
            assert!(stored == *list);
            assert_eq!(stored.len(), list.len());
            assert_eq!(stored.is_empty(), list.is_empty());
            assert_eq!(stored.z(), list.z);
            assert_eq!(stored.to_text(), list.to_text());
            assert_eq!(StoredSecrets::from_text(&list.to_text()).unwrap(), stored);
        }
        let mut other = lists[1].clone();
        other.pairs.swap(0, 1);
        assert!(StoredSecrets::new(&lists[1]) != other);
        other = lists[1].clone();
        other.secret = Secret::from_label("other");
        assert!(StoredSecrets::new(&lists[1]) != other);
        other = lists[1].clone();
        other.pairs.pop();
        assert!(StoredSecrets::new(&lists[1]) != other);
    }

    #[test]
    fn detect_rows_match_the_library() {
        use freqywm_core::detect::detect_histogram;
        // "b" sits in two pairs; "e" and "z" are absent from the rows.
        let list = SecretList::new(
            [("a", "b"), ("b", "c"), ("d", "e"), ("f", "z")]
                .iter()
                .map(|(a, b)| (Token::new(*a), Token::new(*b)))
                .collect(),
            Secret::from_label("rows"),
            1031,
        );
        let stored = StoredSecrets::new(&list);
        let rows = [
            ("c", 40),
            ("x", 7),
            ("b", 911),
            ("a", 3),
            ("d", 0),
            ("f", 12),
        ];
        let mut packed = CountRows::with_capacity(0);
        rows.iter().for_each(|(t, c)| packed.push(t, *c));
        assert_eq!(packed.len(), rows.len());
        let hist = packed.to_histogram();
        for scale in [None, Some(0.5), Some(3.7)] {
            for t in [0, 10, 500] {
                let params = DetectionParams {
                    t,
                    k: 2,
                    scale,
                    ..DetectionParams::default()
                };
                let want = detect_histogram(&hist, &list, &params);
                let want = (
                    want.accepted,
                    want.accepted_pairs,
                    want.present_pairs,
                    want.total_pairs,
                );
                let entries = hist.entries().iter().map(|(t, c)| (t.as_str(), *c));
                for got in [
                    stored.detect_rows(packed.iter(), &params),
                    stored.detect_rows(entries, &params),
                ] {
                    assert_eq!(
                        (
                            got.accepted,
                            got.accepted_pairs,
                            got.present_pairs,
                            got.total_pairs
                        ),
                        want,
                        "t={t}, scale {scale:?}"
                    );
                }
                assert_eq!(want.2, 2);
            }
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut r = KeyRegistry::new(b"test-ledger");
        let idx = r
            .register_tenant("acme", Secret::from_label("acme"), 1)
            .unwrap();
        assert_eq!(idx, 0);
        assert!(r.contains("acme"));
        assert_eq!(r.secret("acme").unwrap(), &Secret::from_label("acme"));
        assert!(matches!(
            r.secret("ghost"),
            Err(ServiceError::UnknownTenant(_))
        ));
    }

    #[test]
    fn duplicate_tenant_rejected() {
        let mut r = KeyRegistry::new(b"k");
        r.register_tenant("t", Secret::from_label("1"), 1).unwrap();
        assert!(matches!(
            r.register_tenant("t", Secret::from_label("2"), 2),
            Err(ServiceError::DuplicateTenant(_))
        ));
    }

    #[test]
    fn watermark_lifecycle_and_ledger_order() {
        let mut r = KeyRegistry::new(b"k");
        r.register_tenant("a", Secret::from_label("a"), 1).unwrap();
        r.register_tenant("b", Secret::from_label("b"), 2).unwrap();
        assert!(matches!(
            r.require_watermark("a"),
            Err(ServiceError::NoWatermark(_))
        ));
        r.record_watermark("a", stored_secrets("wa"), stored_hist(), 3)
            .unwrap();
        r.record_watermark("b", stored_secrets("wb"), stored_hist(), 4)
            .unwrap();
        assert_eq!(
            r.earlier_watermark("a", "b").unwrap(),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            r.earlier_watermark("b", "a").unwrap(),
            std::cmp::Ordering::Greater
        );
        assert!(r.ledger().verify_chain().is_ok());
        assert_eq!(r.ledger().len(), 4);
    }

    #[test]
    fn replace_latest_watermark_keeps_chain_growing() {
        let mut r = KeyRegistry::new(b"k");
        r.register_tenant("a", Secret::from_label("a"), 1).unwrap();
        assert!(r
            .replace_latest_watermark("a", stored_secrets("w0"), stored_hist(), 2)
            .is_err());
        r.record_watermark("a", stored_secrets("w1"), stored_hist(), 3)
            .unwrap();
        let idx = r
            .replace_latest_watermark("a", stored_secrets("w2"), stored_hist(), 4)
            .unwrap();
        assert_eq!(idx, 2);
        let latest = r.latest_watermark("a").unwrap();
        assert_eq!(latest.secrets, secrets("w2"));
        // Chain keeps all history even though the record was replaced.
        assert_eq!(r.ledger().len(), 3);
        assert!(r.ledger().verify_chain().is_ok());
    }

    #[test]
    fn stored_histogram_round_trips_and_compares() {
        let h = hist();
        let stored = StoredHistogram::new(&h);
        assert_eq!(stored.to_histogram(), h);
        assert!(stored == h);
        let other = Histogram::from_counts([(Token::new("a"), 10), (Token::new("b"), 6)]);
        assert!(stored != other);
    }

    #[test]
    fn remove_tenant() {
        let mut r = KeyRegistry::new(b"k");
        r.register_tenant("t", Secret::from_label("t"), 1).unwrap();
        assert!(r.remove_tenant("t"));
        assert!(!r.remove_tenant("t"));
        assert!(!r.contains("t"));
        // Ledger history survives eviction.
        assert_eq!(r.ledger().len(), 1);
    }
}
