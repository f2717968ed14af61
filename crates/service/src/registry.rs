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
use std::hash::{BuildHasher, Hasher, RandomState};

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
        std::str::from_utf8(self.token_bytes()).expect("stored tokens are UTF-8")
    }

    /// The next token's bytes, not checked as UTF-8.
    fn token_bytes(&mut self) -> &'a [u8] {
        let len = usize::try_from(self.varint()).expect("stored token length fits usize");
        let (token, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        token
    }
}

/// The `(token, count)` rows [`put_token`] and [`put_varint`] wrote
/// into `bytes`, in order.
fn rows(bytes: &[u8]) -> impl Iterator<Item = (&str, u64)> {
    let mut cur = Cursor { bytes };
    std::iter::from_fn(move || (!cur.is_empty()).then(|| (cur.token(), cur.varint())))
}

/// `(token, count)` rows with distinct tokens, packed into one buffer
/// in the order they were pushed: per row the token's LEB128 length,
/// its bytes, and the LEB128 count. A request's `counts` decode into
/// this: one buffer and one index, where a [`Histogram`] makes one
/// allocation per token, keeps a second copy of each in its index and
/// sorts. Rows hand out `&str` borrowed from the buffer, so tokens are
/// stored whole.
///
/// The index is an open-addressed table built as rows are pushed: per
/// slot the low 32 bits of the token's hash and one plus the byte
/// offset of its row (0 marks an empty slot). A push hashes its token
/// once, which both refuses a repeated token and makes the row findable
/// by [`CountRows::get`]. Tokens come from the network, so the hash is
/// keyed ([`RandomState`]): a client cannot pick tokens that collide.
#[derive(Clone)]
pub struct CountRows {
    bytes: Vec<u8>,
    slots: Vec<(u32, u32)>,
    len: usize,
    hasher: RandomState,
}

impl CountRows {
    /// Empty rows with room for `bytes` bytes of encoding, and an index
    /// that holds a row per 16 of them before it grows: a `counts` row
    /// of a short token takes at least eight bytes of request text, and
    /// each growth copies the whole index.
    pub fn with_capacity(bytes: usize) -> Self {
        CountRows {
            bytes: Vec::with_capacity(bytes),
            slots: vec![(0, 0); (bytes / 8).next_power_of_two().max(16)],
            len: 0,
            hasher: RandomState::new(),
        }
    }

    /// Appends one row, unless `token` already has one: then nothing
    /// changes and the result is `false`.
    ///
    /// Panics once the rows pass 4 GiB of encoding, far beyond any
    /// request frame.
    #[must_use]
    pub fn push(&mut self, token: &str, count: u64) -> bool {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let hash = self.hash(token);
        let Err(slot) = self.probe(token, hash) else {
            return false;
        };
        let at = u32::try_from(self.bytes.len() + 1).expect("count rows stay under 4 GiB");
        self.slots[slot] = (hash, at);
        put_token(&mut self.bytes, token);
        put_varint(&mut self.bytes, count);
        self.len += 1;
        true
    }

    /// The count of `token`'s row, if it has one.
    pub fn get(&self, token: &str) -> Option<u64> {
        let hash = self.hash(token);
        let slot = self.probe(token, hash).ok()?;
        let mut row = self.row_at(self.slots[slot].1);
        row.token_bytes();
        Some(row.varint())
    }

    /// The low 32 bits of `token`'s keyed hash: its bytes alone, with
    /// none of the end marker `Hash for str` adds, as rows hold whole
    /// tokens and compare them in full.
    fn hash(&self, token: &str) -> u32 {
        let mut hasher = self.hasher.build_hasher();
        hasher.write(token.as_bytes());
        hasher.finish() as u32
    }

    /// The slot holding `token`'s row (`Ok`), or the empty slot where
    /// its row belongs (`Err`). Linear probing; the table is at most
    /// half full, so a probe ends.
    fn probe(&self, token: &str, hash: u32) -> std::result::Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                (_, 0) => return Err(slot),
                (h, at) if h == hash && self.row_at(at).token_bytes() == token.as_bytes() => {
                    return Ok(slot)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// A cursor on the row a slot's `at` names.
    fn row_at(&self, at: u32) -> Cursor<'_> {
        Cursor {
            bytes: &self.bytes[at as usize - 1..],
        }
    }

    /// Doubles the table, re-placing each row by its stored hash bits:
    /// no token is hashed twice.
    fn grow(&mut self) {
        let size = 2 * self.slots.len();
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); size]);
        let mask = size - 1;
        for (hash, at) in old.into_iter().filter(|&(_, at)| at != 0) {
            let mut slot = hash as usize & mask;
            while self.slots[slot].1 != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = (hash, at);
        }
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

    /// The rows as a histogram.
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

/// Zig-zag: a signed step as an unsigned number with small steps of
/// either sign small, so a LEB128 of it is short.
fn zigzag(step: u64) -> u64 {
    (step << 1) ^ ((step as i64 >> 63) as u64)
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> u64 {
    (v >> 1) ^ (v & 1).wrapping_neg()
}

/// Length of the longest common prefix of `a` and `b` that ends on a
/// character boundary of both.
fn shared_prefix(a: &str, b: &str) -> usize {
    let mut n = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
    // Equal bytes before `n` make a boundary of `b` a boundary of `a`.
    while !b.is_char_boundary(n) {
        n -= 1;
    }
    n
}

/// Writes a [`StoredHistogram`]'s bytes one entry at a time.
struct FrontCoder<'t> {
    buf: Vec<u8>,
    token: &'t str,
    count: u64,
}

impl<'t> FrontCoder<'t> {
    /// A coder for `len` entries.
    fn new(len: u64) -> Self {
        let mut buf = Vec::new();
        put_varint(&mut buf, len);
        FrontCoder {
            buf,
            token: "",
            count: 0,
        }
    }

    fn push(&mut self, token: &'t str, count: u64) {
        let shared = shared_prefix(self.token, token);
        put_varint(&mut self.buf, shared as u64);
        put_token(&mut self.buf, &token[shared..]);
        put_varint(&mut self.buf, zigzag(count.wrapping_sub(self.count)));
        (self.token, self.count) = (token, count);
    }

    fn finish(self) -> StoredHistogram {
        StoredHistogram(self.buf.into_boxed_slice())
    }
}

/// A [`StoredHistogram`]'s entries, decoded in rank order into one
/// reused token buffer: a lending iterator, since each token lives only
/// until the next call.
struct Entries<'a> {
    cur: Cursor<'a>,
    token: String,
    count: u64,
}

impl Entries<'_> {
    fn next(&mut self) -> Option<(&str, u64)> {
        if self.cur.is_empty() {
            return None;
        }
        let shared = usize::try_from(self.cur.varint()).expect("shared prefix fits usize");
        self.token.truncate(shared);
        self.token.push_str(self.cur.token());
        self.count = self.count.wrapping_add(unzigzag(self.cur.varint()));
        Some((&self.token, self.count))
    }
}

/// A watermarked histogram at rest, front-coded: the entry count as a
/// LEB128, then per entry, in rank order, the LEB128 length of the
/// prefix the token shares with the previous token (never splitting a
/// UTF-8 sequence), the LEB128 length and the bytes of the rest, and
/// the zig-zag LEB128 of the count minus the previous count. Rank order
/// makes both the shared prefixes long and the count steps small: an
/// embed-sized histogram of tokens like `e7c0-123` takes about four
/// bytes an entry, where the log's fixed-width form takes 25 and a
/// [`Histogram`] also keeps a token index with a second copy of every
/// token. Maintenance and disputes decode it with
/// [`StoredHistogram::to_histogram`].
#[derive(Clone, PartialEq, Eq)]
pub struct StoredHistogram(Box<[u8]>);

impl StoredHistogram {
    /// Encodes `hist` for storage.
    pub fn new(hist: &Histogram) -> Self {
        let mut coder = FrontCoder::new(hist.len() as u64);
        for (token, count) in hist.entries() {
            coder.push(token.as_str(), *count);
        }
        coder.finish()
    }

    /// The entries in rank order.
    fn entries(&self) -> Entries<'_> {
        let mut cur = Cursor { bytes: &self.0 };
        cur.varint();
        Entries {
            cur,
            token: String::new(),
            count: 0,
        }
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        let len = Cursor { bytes: &self.0 }.varint();
        usize::try_from(len).expect("stored entry count fits usize")
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes the stored histogram.
    pub fn to_histogram(&self) -> Histogram {
        let mut rows = Vec::with_capacity(self.len());
        let mut entries = self.entries();
        while let Some((token, count)) = entries.next() {
            rows.push((Token::new(token), count));
        }
        Histogram::from_counts(rows)
    }

    /// Appends the histogram in the durable log's and snapshots'
    /// encoding: the token count as a big-endian `u64`, then per entry
    /// a length-prefixed token and a big-endian `u64` count.
    pub(crate) fn put_log(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.len() as u64);
        let mut entries = self.entries();
        while let Some((token, count)) = entries.next() {
            put_str(buf, token);
            put_u64(buf, count);
        }
    }

    /// Reads a histogram [`Self::put_log`] wrote, straight into the
    /// stored form.
    pub(crate) fn read_log(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let n = r.u64()?;
        let mut coder = FrontCoder::new(n);
        for _ in 0..n {
            coder.push(r.str()?, r.u64()?);
        }
        Ok(coder.finish())
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
/// are, and the pair tokens front-coded into one buffer — the pair
/// count as a LEB128, then per token, first then second, pair by pair,
/// the LEB128 length of the prefix it shares with the previous token
/// (never splitting a UTF-8 sequence) and the LEB128 length and bytes
/// of the rest. One allocation where a [`SecretList`] makes two per
/// pair; the tokens of one histogram mostly share a stem, so an
/// embed's pairs of tokens like `e7c0-123` take about five bytes a
/// token. `R` stays a [`Secret`], so it is wiped on drop.
#[derive(Clone, PartialEq, Eq)]
pub struct StoredSecrets {
    secret: Secret,
    z: u64,
    pairs: Box<[u8]>,
}

/// A [`StoredSecrets`]' pair tokens decoded into one string, with the
/// end offset of each token in order.
struct PairTokens {
    text: String,
    ends: Vec<usize>,
}

impl PairTokens {
    /// The watermarked pairs, in generation order.
    fn pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        let mut start = 0;
        self.ends.chunks_exact(2).map(move |ends| {
            let a = &self.text[start..ends[0]];
            let b = &self.text[ends[0]..ends[1]];
            start = ends[1];
            (a, b)
        })
    }
}

impl StoredSecrets {
    /// Encodes `list` for storage.
    pub fn new(list: &SecretList) -> Self {
        let mut pairs = Vec::new();
        put_varint(&mut pairs, list.pairs.len() as u64);
        let mut prev = "";
        for token in list
            .pairs
            .iter()
            .flat_map(|(a, b)| [a.as_str(), b.as_str()])
        {
            let shared = shared_prefix(prev, token);
            put_varint(&mut pairs, shared as u64);
            put_token(&mut pairs, &token[shared..]);
            prev = token;
        }
        StoredSecrets {
            secret: list.secret.clone(),
            z: list.z,
            pairs: pairs.into_boxed_slice(),
        }
    }

    /// Decodes the pair tokens; detect looks each of them up.
    fn tokens(&self) -> PairTokens {
        let mut cur = Cursor { bytes: &self.pairs };
        let n = 2 * usize::try_from(cur.varint()).expect("stored pair count fits usize");
        let mut tokens = PairTokens {
            text: String::new(),
            ends: Vec::with_capacity(n),
        };
        let mut prev = 0;
        for _ in 0..n {
            let shared = usize::try_from(cur.varint()).expect("shared prefix fits usize");
            let start = tokens.text.len();
            tokens.text.extend_from_within(prev..prev + shared);
            tokens.text.push_str(cur.token());
            tokens.ends.push(tokens.text.len());
            prev = start;
        }
        tokens
    }

    /// Number of watermarked pairs.
    pub fn len(&self) -> usize {
        let len = Cursor { bytes: &self.pairs }.varint();
        usize::try_from(len).expect("stored pair count fits usize")
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The modulo base `z`.
    pub fn z(&self) -> u64 {
        self.z
    }

    /// Decodes the stored secret list.
    pub fn to_secret_list(&self) -> SecretList {
        SecretList::new(
            self.tokens()
                .pairs()
                .map(|(a, b)| (Token::new(a), Token::new(b)))
                .collect(),
            self.secret.clone(),
            self.z,
        )
    }

    /// `WM_Detect` verdict totals over suspect data that `count_of`
    /// looks tokens up in: a request's [`CountRows::get`] or a
    /// [`Histogram::count`]. The stored tokens decode into one buffer,
    /// each pair looks up its first token and, when that is present,
    /// its second, and only the pairs with both counts are hashed. The
    /// cost follows the stored pairs, not the suspect data.
    pub fn detect(
        &self,
        count_of: impl Fn(&str) -> Option<u64>,
        params: &DetectionParams,
    ) -> DetectTotals {
        let tokens = self.tokens();
        let pairs = tokens.pairs().map(|(a, b)| {
            let counts = count_of(a).and_then(|fa| Some((fa, count_of(b)?)));
            ((a.as_bytes(), b.as_bytes()), counts)
        });
        verify_pairs(&self.secret, self.z, pairs, params, |_| {})
    }

    /// [`SecretList::to_text`] of the stored list: the ledger
    /// fingerprint, and the form the log and snapshots write.
    pub fn to_text(&self) -> String {
        secret_text(self.tokens().pairs(), &self.secret, self.z)
    }

    /// Parses the text [`Self::to_text`] writes.
    pub(crate) fn from_text(text: &str) -> freqywm_core::Result<Self> {
        SecretList::from_text(text).map(|list| StoredSecrets::new(&list))
    }
}

impl PartialEq<SecretList> for StoredSecrets {
    fn eq(&self, other: &SecretList) -> bool {
        let tokens = self.tokens();
        let mut mine = tokens.pairs();
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
    /// Logical registration timestamp (registry clock floor + 1).
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
        let text = secrets.to_text();
        self.put_watermark(tenant, secrets, &text, watermarked, now, false)
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
        let text = secrets.to_text();
        self.put_watermark(tenant, secrets, &text, watermarked, now, true)
    }

    /// [`Self::record_watermark`], or with `replace`
    /// [`Self::replace_latest_watermark`], registering `secret_text`
    /// (`secrets.to_text()`, which a durable commit also logs) as the
    /// fingerprint. A refused call leaves the chain as it was.
    pub(crate) fn put_watermark(
        &mut self,
        tenant: &str,
        secrets: StoredSecrets,
        secret_text: &str,
        watermarked: StoredHistogram,
        now: u64,
        replace: bool,
    ) -> Result<u64> {
        let record = match self.tenants.get_mut(tenant) {
            Some(r) if !(replace && r.watermarks.is_empty()) => r,
            _ if replace => return Err(ServiceError::NoWatermark(tenant.to_string())),
            _ => return Err(ServiceError::UnknownTenant(tenant.to_string())),
        };
        let ledger_index = self.ledger.register(now, tenant, secret_text.as_bytes());
        let watermark = StoredWatermark {
            secrets,
            watermarked,
            ledger_index,
            registered_at: now,
        };
        if replace {
            *record.watermarks.last_mut().expect("checked above") = watermark;
        } else {
            record.watermarks.push(watermark);
        }
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
            // Shared prefixes, a token that shares nothing, ties, the
            // empty token among others, and 0 next to u64::MAX.
            h(vec![
                (Token::new("e7c0-12"), u64::MAX),
                (Token::new("e7c0-123"), u64::MAX - 1),
                (Token::new("e7c0-124"), 9),
                (Token::new("e7c0-2"), 9),
                (Token::new("zzz"), 9),
                (Token::new(""), 3),
                (Token::new("e7c0-1"), 0),
                (Token::new("e7c0-10"), 0),
            ]),
            // The first differing byte is inside a multi-byte character:
            // é and è share their lead byte.
            h(vec![
                (Token::new("café"), 5),
                (Token::new("cafè"), 4),
                (Token::new("caf"), 3),
                (Token::new("cafés"), 2),
                (Token::new("ca🦀"), 1),
                (Token::new("ca🦁"), 0),
            ]),
        ]
    }

    /// Size of the plain varint form: per entry the token's LEB128
    /// length, its bytes and its LEB128 count.
    fn plain_size(h: &Histogram) -> usize {
        let mut buf = Vec::new();
        for (token, count) in h.entries() {
            put_token(&mut buf, token.as_str());
            put_varint(&mut buf, *count);
        }
        buf.len()
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
    fn stored_histogram_keeps_a_non_monotone_log_byte_for_byte() {
        // The log form does not require rank order: counts that rise,
        // fall and wrap, and tokens in no order, round-trip exactly.
        let rows: [(&str, u64); 7] = [
            ("b", 3),
            ("a", u64::MAX),
            ("ab", 0),
            ("", 7),
            ("é", 1 << 63),
            ("èx", 8),
            ("b", 8),
        ];
        let mut log = Vec::new();
        put_u64(&mut log, rows.len() as u64);
        for (token, count) in rows {
            put_str(&mut log, token);
            put_u64(&mut log, count);
        }
        let stored = StoredHistogram::read_log(&mut Reader::new(&log)).unwrap();
        assert_eq!(stored.len(), rows.len());
        let mut again = Vec::new();
        stored.put_log(&mut again);
        assert_eq!(again, log);
    }

    #[test]
    fn front_coding_costs_at_most_a_byte_an_entry_when_tokens_share_nothing() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xf2047);
        let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789";
        // Strictly falling power-law counts keep rank order the order
        // of generation, and no two neighbours start with one byte.
        let mut first = 0usize;
        let entries: Vec<(Token, u64)> = (0..1_000u64)
            .map(|k| {
                first = (first + 1 + rng.gen_range(0..alphabet.len() - 1)) % alphabet.len();
                let mut token = vec![alphabet[first]];
                token.extend((0..8).map(|_| alphabet[rng.gen_range(0..alphabet.len())]));
                let count = 1_000_000 / (k + 1) + (1_000 - k);
                (Token::new(String::from_utf8(token).unwrap()), count)
            })
            .collect();
        let h = Histogram::from_counts(entries);
        let stored = StoredHistogram::new(&h);
        assert!(stored == h);
        let tokens: Vec<&str> = h.entries().iter().map(|(t, _)| t.as_str()).collect();
        assert!(tokens.windows(2).all(|w| shared_prefix(w[0], w[1]) == 0));
        assert!(
            stored.0.len() <= plain_size(&h) + h.len(),
            "{} bytes front-coded, {} plain, {} entries",
            stored.0.len(),
            plain_size(&h),
            h.len()
        );
    }

    #[test]
    fn front_coding_shrinks_an_embed_sized_histogram() {
        let h = Histogram::from_counts(
            (0..625u64).map(|i| (Token::new(format!("e7c0-{i}")), 1_000_000 / (i + 1))),
        );
        let stored = StoredHistogram::new(&h);
        assert_eq!(stored.to_histogram(), h);
        assert!(
            stored.0.len() * 2 < plain_size(&h),
            "{} bytes front-coded, {} plain",
            stored.0.len(),
            plain_size(&h)
        );
    }

    #[test]
    fn front_coding_shrinks_an_embed_sized_secret_list() {
        // Pairs in no token order, as the knapsack admits them.
        let token = |i: u64| Token::new(format!("e7c0-{}", (i * 389) % 625));
        let list = SecretList::new(
            (0..140).map(|i| (token(2 * i), token(2 * i + 1))).collect(),
            Secret::from_label("front"),
            131,
        );
        let stored = StoredSecrets::new(&list);
        assert!(stored == list);
        let plain: usize = list
            .pairs
            .iter()
            .map(|(a, b)| 2 + a.as_str().len() + b.as_str().len())
            .sum();
        assert!(
            stored.pairs.len() * 3 < plain * 2,
            "{} bytes front-coded, {} plain",
            stored.pairs.len(),
            plain
        );
    }

    #[test]
    fn zigzag_round_trips_every_step() {
        for step in [
            0u64,
            1,
            2,
            63,
            64,
            u64::MAX,
            u64::MAX - 1,
            1 << 63,
            (1 << 63) - 1,
        ] {
            assert_eq!(unzigzag(zigzag(step)), step, "{step}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(u64::MAX), 1, "-1 is one byte");
        assert_eq!(zigzag(1), 2);
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

    /// Rows with distinct tokens, packed.
    fn packed(rows: &[(String, u64)]) -> CountRows {
        let mut packed = CountRows::with_capacity(0);
        for (t, c) in rows {
            assert!(packed.push(t, *c), "{t:?} pushed twice");
        }
        packed
    }

    #[test]
    fn detect_rows_match_the_library() {
        use freqywm_core::detect::detect_histogram;
        // "b" sits in two pairs.
        let list = SecretList::new(
            [("a", "b"), ("b", "c"), ("d", "e"), ("f", "z")]
                .iter()
                .map(|(a, b)| (Token::new(*a), Token::new(*b)))
                .collect(),
            Secret::from_label("rows"),
            1031,
        );
        let stored = StoredSecrets::new(&list);
        let rows = |spec: &[(&str, u64)]| -> Vec<(String, u64)> {
            spec.iter().map(|(t, c)| (t.to_string(), *c)).collect()
        };
        let outside = |n: u64| -> Vec<(String, u64)> {
            (0..n)
                .map(|i| (format!("x{i}"), (i * 7919) % 1000))
                .collect()
        };
        let every = rows(&[
            ("c", 40),
            ("b", 911),
            ("z", 5),
            ("a", 3),
            ("e", 77),
            ("d", 0),
            ("f", 12),
        ]);
        let mut crowd = outside(5_000);
        for (k, row) in every.iter().enumerate() {
            crowd.insert(k * 700, row.clone());
        }
        // (request, present pairs): no stored token, some, every one,
        // every one among many tokens outside the watermark, nothing.
        let requests = [
            (outside(50), 0),
            (
                [
                    rows(&[("c", 40), ("x", 7), ("b", 911), ("a", 3), ("d", 0)]),
                    outside(3),
                ]
                .concat(),
                2,
            ),
            (every.clone(), 4),
            (crowd, 4),
            (Vec::new(), 0),
        ];
        for (request, present) in &requests {
            let packed = packed(request);
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
                    // The `counts` path looks up the request's rows;
                    // the `tokens` path looks up the counted histogram.
                    for got in [
                        stored.detect(|t| packed.get(t), &params),
                        stored.detect(|t| hist.count(t), &params),
                    ] {
                        assert_eq!(
                            (
                                got.accepted,
                                got.accepted_pairs,
                                got.present_pairs,
                                got.total_pairs
                            ),
                            want,
                            "{} rows, t={t}, scale {scale:?}",
                            request.len()
                        );
                    }
                    assert_eq!(want.2, *present, "{} rows", request.len());
                }
            }
        }
    }

    #[test]
    fn row_index_answers_like_a_hash_map() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1d3e);
        // Tokens that differ only in their last byte (é and è share
        // their lead byte), prefixes of each other, the empty token,
        // and multi-byte ones.
        let stem = "shared-stem-".repeat(4);
        let mut pool: Vec<String> = ["", "e", "é", "è", "中", "中文", "🦀", "🦁", " "]
            .iter()
            .map(|t| t.to_string())
            .collect();
        pool.extend((b'!'..=b'~').map(|b| format!("{stem}{}", b as char)));
        pool.extend(["é", "è", ""].iter().map(|t| format!("{stem}{t}")));
        pool.extend((0..3_000).map(|i| format!("{stem}{i}")));
        for round in 0..24 {
            let mut rows = CountRows::with_capacity(0);
            let mut reference = HashMap::new();
            let mut order = Vec::new();
            let keep = rng.gen_range(0.0..1.0);
            for _ in 0..rng.gen_range(0..2 * pool.len()) {
                let token = &pool[rng.gen_range(0..pool.len())];
                if !rng.gen_bool(keep) {
                    continue;
                }
                let count = match rng.gen_range(0..4) {
                    0 => u64::MAX,
                    1 => 0,
                    _ => rng.gen(),
                };
                let fresh = !reference.contains_key(token.as_str());
                assert_eq!(rows.push(token, count), fresh, "round {round}: {token:?}");
                if fresh {
                    reference.insert(token.as_str(), count);
                    order.push((token.as_str(), count));
                }
            }
            assert_eq!(rows.len(), reference.len());
            assert_eq!(rows.iter().collect::<Vec<_>>(), order, "push order");
            for token in &pool {
                assert_eq!(
                    rows.get(token),
                    reference.get(token.as_str()).copied(),
                    "round {round}: {token:?}"
                );
            }
            for absent in ["shared-stem-", "x", "ée", "🦀🦀"] {
                assert_eq!(rows.get(absent), None);
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
