//! Always-on, dependency-free observability primitives.
//!
//! Every protocol request carries a *trace id* that survives the
//! client → router → shard → worker path, and every tier records
//! *stage spans* (parse, auth, queue-wait, run, PRF sweep, respond)
//! against that id. Spans land in a [`SpanRing`]: a lock-free bounded
//! multi-producer ring buffer with a single atomic cursor and
//! fixed-size slots. Recording never blocks — under overload the ring
//! overwrites its oldest entries, and a reader that races a writer
//! simply skips the torn slot.
//!
//! The ring stores spans *flattened into atomic words* (a seqlock per
//! slot): writers claim a ticket with one `fetch_add`, stamp the slot
//! version odd, store the encoded words, then stamp the version even.
//! Readers snapshot by re-checking the version around the word loads,
//! so a torn read is detected and dropped rather than ever observed.
//! Everything is `AtomicU64`; there is no unsafe code and no lock on
//! either side.

pub mod family;
pub mod history;
pub mod prom;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Declares a fieldless enum beside its one name table: each variant is
/// listed once, with the name every rendering and lookup reads. A
/// variant's discriminant is its place in the list, which is how the
/// ring stores it.
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $($(#[$vmeta:meta])* $var:ident = $name:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $ty {
            $($(#[$vmeta])* $var,)+
        }

        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$ty] = &[$($ty::$var,)+];
            const NAMES: &'static [&'static str] = &[$($name,)+];

            pub const fn as_str(self) -> &'static str {
                Self::NAMES[self as usize]
            }

            /// The variant whose name is `name`.
            pub fn from_name(name: &str) -> Option<$ty> {
                let i = Self::NAMES.iter().position(|n| *n == name)?;
                Some(Self::ALL[i])
            }

            fn from_u8(v: u8) -> Option<$ty> {
                Self::ALL.get(usize::from(v)).copied()
            }
        }
    };
}

named_enum! {
    /// Pipeline stage a span measures.
    pub enum Stage {
        /// JSON parse + request planning.
        Parse = "parse",
        /// Auth-token check.
        Auth = "auth",
        /// Enqueue → dequeue wait in the engine's bounded queue.
        QueueWait = "queue_wait",
        /// Worker execution of the job payload.
        Run = "run",
        /// The PRF-sweep / histogram-build portion of `Run`.
        PrfSweep = "prf_sweep",
        /// Job completion → response line handed to the transport.
        Respond = "respond",
    }
}

named_enum! {
    /// The protocol's op set, declared once: every wire op a request
    /// line may name, and `Other` for a line that names none. Planning,
    /// routing, quotas and span labels all match on it, so an op added
    /// here without a plan, a route or a label fails to compile.
    pub enum OpKind {
        Register = "register",
        Embed = "embed",
        Detect = "detect",
        Maintain = "maintain",
        Dispute = "dispute",
        Quota = "quota",
        Metrics = "metrics",
        History = "history",
        Trace = "trace",
        Hello = "hello",
        Replicate = "replicate",
        Promote = "promote",
        Shutdown = "shutdown",
        /// No valid op: missing, not a string, or not a wire op name.
        Other = "other",
    }
}

impl OpKind {
    /// The op a request's `op` string names; `Other` for anything else,
    /// `"other"` included (it is a span label, not a wire op).
    pub fn from_wire(op: &str) -> OpKind {
        OpKind::from_name(op).unwrap_or(OpKind::Other)
    }
}

/// Maximum stored bytes of a trace id (longer ids are truncated in the
/// ring, never rejected).
pub const TRACE_BYTES: usize = 32;
/// Maximum stored bytes of a tenant id.
pub const TENANT_BYTES: usize = 24;

const TRACE_WORDS: usize = TRACE_BYTES / 8;
const TENANT_WORDS: usize = TENANT_BYTES / 8;
// version + trace + tenant + meta + start + dur
const SLOT_WORDS: usize = 1 + TRACE_WORDS + TENANT_WORDS + 1 + 1 + 1;

/// One recorded stage measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub trace: String,
    pub tenant: String,
    pub op: OpKind,
    pub stage: Stage,
    /// Microseconds since the UNIX epoch at span start.
    pub start_us: u64,
    pub dur_us: u64,
}

impl Span {
    /// Convenience constructor: stamps `start_us` as `now - dur`.
    pub fn ending_now(trace: &str, tenant: &str, op: OpKind, stage: Stage, dur_us: u64) -> Span {
        Span {
            trace: trace.to_string(),
            tenant: tenant.to_string(),
            op,
            stage,
            start_us: now_us().saturating_sub(dur_us),
            dur_us,
        }
    }
}

/// Microseconds since the UNIX epoch (0 if the clock is before it).
pub fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

fn pack_bytes(dst: &mut [u64], s: &str, max: usize) -> u8 {
    let bytes = s.as_bytes();
    // Truncate on a char boundary so decode yields valid UTF-8.
    let mut len = bytes.len().min(max);
    while len > 0 && !s.is_char_boundary(len) {
        len -= 1;
    }
    let mut buf = [0u8; TRACE_BYTES];
    buf[..len].copy_from_slice(&bytes[..len]);
    for (i, w) in dst.iter_mut().enumerate() {
        *w = u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
    }
    len as u8
}

fn unpack_bytes(src: &[u64], len: u8) -> String {
    let mut buf = [0u8; TRACE_BYTES];
    for (i, w) in src.iter().enumerate() {
        buf[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
    }
    String::from_utf8_lossy(&buf[..(len as usize).min(src.len() * 8)]).into_owned()
}

struct Slot {
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Lock-free bounded multi-producer span ring with overwrite-oldest
/// semantics. See the module docs for the slot protocol.
pub struct SpanRing {
    head: AtomicU64,
    mask: usize,
    slots: Box<[Slot]>,
}

impl SpanRing {
    /// `capacity` is rounded up to a power of two (minimum 8).
    pub fn new(capacity: usize) -> SpanRing {
        let cap = capacity.max(8).next_power_of_two();
        SpanRing {
            head: AtomicU64::new(0),
            mask: cap - 1,
            slots: (0..cap).map(|_| Slot::new()).collect(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Total spans ever recorded (monotonic; the ring holds the last
    /// `capacity()` of them).
    pub fn cursor(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Record a span. Never blocks: one `fetch_add` claims a ticket,
    /// then plain atomic stores fill the slot. A concurrent reader (or
    /// a writer lapped a full ring behind) observes a version mismatch
    /// and skips the slot.
    pub fn record(&self, span: &Span) {
        let ticket = self.head.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(ticket as usize) & self.mask];
        // Odd = write in progress for this ticket.
        slot.words[0].store(ticket.wrapping_mul(2).wrapping_add(1), Ordering::Release);

        let mut trace_w = [0u64; TRACE_WORDS];
        let trace_len = pack_bytes(&mut trace_w, &span.trace, TRACE_BYTES);
        let mut tenant_w = [0u64; TENANT_WORDS];
        let tenant_len = pack_bytes(&mut tenant_w, &span.tenant, TENANT_BYTES);
        let meta = (span.op as u64)
            | ((span.stage as u64) << 8)
            | ((trace_len as u64) << 16)
            | ((tenant_len as u64) << 24);

        for (i, w) in trace_w.iter().enumerate() {
            slot.words[1 + i].store(*w, Ordering::Relaxed);
        }
        for (i, w) in tenant_w.iter().enumerate() {
            slot.words[1 + TRACE_WORDS + i].store(*w, Ordering::Relaxed);
        }
        slot.words[1 + TRACE_WORDS + TENANT_WORDS].store(meta, Ordering::Relaxed);
        slot.words[2 + TRACE_WORDS + TENANT_WORDS].store(span.start_us, Ordering::Relaxed);
        slot.words[3 + TRACE_WORDS + TENANT_WORDS].store(span.dur_us, Ordering::Relaxed);

        // Even = stable, and encodes the ticket so readers can tell a
        // lapped slot from the one they expected.
        slot.words[0].store(ticket.wrapping_mul(2).wrapping_add(2), Ordering::Release);
    }

    /// Read slot `idx` if it holds a stable span, returning the ticket
    /// the span was recorded under. Writers race by wall time, not
    /// ticket order, so the surviving ticket in a slot may be any that
    /// maps there — the version word is self-identifying.
    fn read_slot(&self, idx: usize) -> Option<(u64, Span)> {
        let slot = &self.slots[idx];
        let v1 = slot.words[0].load(Ordering::Acquire);
        if v1 == 0 || v1 & 1 == 1 {
            return None; // never written, or write in progress
        }
        let mut words = [0u64; SLOT_WORDS];
        for (i, w) in words.iter_mut().enumerate().skip(1) {
            *w = slot.words[i].load(Ordering::Relaxed);
        }
        std::sync::atomic::fence(Ordering::Acquire);
        if slot.words[0].load(Ordering::Acquire) != v1 {
            return None; // torn: a writer lapped us mid-read
        }
        let ticket = v1.wrapping_sub(2) / 2;
        let meta = words[1 + TRACE_WORDS + TENANT_WORDS];
        let op = OpKind::from_u8((meta & 0xff) as u8)?;
        let stage = Stage::from_u8(((meta >> 8) & 0xff) as u8)?;
        let span = Span {
            trace: unpack_bytes(&words[1..1 + TRACE_WORDS], ((meta >> 16) & 0xff) as u8),
            tenant: unpack_bytes(
                &words[1 + TRACE_WORDS..1 + TRACE_WORDS + TENANT_WORDS],
                ((meta >> 24) & 0xff) as u8,
            ),
            op,
            stage,
            start_us: words[2 + TRACE_WORDS + TENANT_WORDS],
            dur_us: words[3 + TRACE_WORDS + TENANT_WORDS],
        };
        Some((ticket, span))
    }

    /// Stable snapshot of the ring's current contents, oldest first
    /// (by record ticket). Slots being overwritten while we read are
    /// skipped, not torn.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut entries: Vec<(u64, Span)> = (0..self.slots.len())
            .filter_map(|i| self.read_slot(i))
            .collect();
        entries.sort_by_key(|(ticket, _)| *ticket);
        entries.into_iter().map(|(_, s)| s).collect()
    }

    /// Snapshot filtered and truncated per `filter`, newest last.
    pub fn query(&self, filter: &TraceFilter) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .snapshot()
            .into_iter()
            .filter(|s| filter.matches(s))
            .collect();
        if spans.len() > filter.limit {
            spans.drain(..spans.len() - filter.limit);
        }
        spans
    }
}

/// Filter for [`SpanRing::query`] / the `trace` protocol op.
#[derive(Debug, Clone)]
pub struct TraceFilter {
    /// Exact trace id match (ids longer than [`TRACE_BYTES`] are
    /// compared against their stored truncation).
    pub trace: Option<String>,
    /// Exact tenant match (same truncation rule, [`TENANT_BYTES`]).
    pub tenant: Option<String>,
    pub op: Option<OpKind>,
    /// Keep only spans at least this long.
    pub min_dur_us: u64,
    /// Keep at most this many (newest win).
    pub limit: usize,
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter {
            trace: None,
            tenant: None,
            op: None,
            min_dur_us: 0,
            limit: 256,
        }
    }
}

impl TraceFilter {
    fn field_matches(want: &str, stored: &str, max: usize) -> bool {
        if want.len() <= max {
            want == stored
        } else {
            // The ring stored a truncation; compare against it.
            stored.as_bytes() == &want.as_bytes()[..stored.len()]
        }
    }

    pub fn matches(&self, span: &Span) -> bool {
        if span.dur_us < self.min_dur_us {
            return false;
        }
        if let Some(op) = self.op {
            if span.op != op {
                return false;
            }
        }
        if let Some(t) = &self.trace {
            if !Self::field_matches(t, &span.trace, TRACE_BYTES) {
                return false;
            }
        }
        if let Some(t) = &self.tenant {
            if !Self::field_matches(t, &span.tenant, TENANT_BYTES) {
                return false;
            }
        }
        true
    }
}

/// Process-unique trace-id generator: `t-<seed><counter>` hex, seeded
/// once per process from the wall clock and pid so ids from different
/// tiers don't collide.
pub fn next_trace_id() -> String {
    static SEED: AtomicU64 = AtomicU64::new(0);
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut seed = SEED.load(Ordering::Relaxed);
    if seed == 0 {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e3779b97f4a7c15);
        let mixed = (nanos ^ ((std::process::id() as u64) << 32)) | 1;
        // First writer wins; everyone reuses its seed.
        let _ = SEED.compare_exchange(0, mixed, Ordering::Relaxed, Ordering::Relaxed);
        seed = SEED.load(Ordering::Relaxed);
    }
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("t-{:012x}{:04x}", seed & 0xffff_ffff_ffff, n & 0xffff)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: &str, tenant: &str, stage: Stage, dur: u64) -> Span {
        Span {
            trace: trace.into(),
            tenant: tenant.into(),
            op: OpKind::Detect,
            stage,
            start_us: 1_000,
            dur_us: dur,
        }
    }

    #[test]
    fn roundtrip_single_span() {
        let ring = SpanRing::new(8);
        ring.record(&span("t-42", "acme", Stage::Run, 731));
        let got = ring.snapshot();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].trace, "t-42");
        assert_eq!(got[0].tenant, "acme");
        assert_eq!(got[0].stage, Stage::Run);
        assert_eq!(got[0].dur_us, 731);
    }

    #[test]
    fn overwrites_oldest_keeps_newest() {
        let ring = SpanRing::new(8);
        for i in 0..20u64 {
            ring.record(&span(&format!("t-{i}"), "acme", Stage::Run, i));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 8);
        assert_eq!(got.first().unwrap().trace, "t-12");
        assert_eq!(got.last().unwrap().trace, "t-19");
        assert_eq!(ring.cursor(), 20);
    }

    #[test]
    fn long_ids_truncate_on_char_boundary() {
        let ring = SpanRing::new(8);
        let long = "x".repeat(30) + "héllo"; // multibyte straddles the cut
        ring.record(&span(&long, "acme", Stage::Parse, 1));
        let got = ring.snapshot();
        assert!(got[0].trace.len() <= TRACE_BYTES);
        assert!(long.starts_with(&got[0].trace));
        // And the filter still matches the original long id.
        let f = TraceFilter {
            trace: Some(long),
            ..TraceFilter::default()
        };
        assert_eq!(ring.query(&f).len(), 1);
    }

    #[test]
    fn query_filters_and_limits() {
        let ring = SpanRing::new(64);
        for i in 0..10u64 {
            ring.record(&span("t-a", "alpha", Stage::Run, 100 + i));
            ring.record(&span("t-b", "beta", Stage::QueueWait, 5));
        }
        let f = TraceFilter {
            tenant: Some("alpha".into()),
            min_dur_us: 105,
            ..TraceFilter::default()
        };
        let got = ring.query(&f);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|s| s.tenant == "alpha" && s.dur_us >= 105));
        let f = TraceFilter {
            limit: 3,
            ..TraceFilter::default()
        };
        assert_eq!(ring.query(&f).len(), 3);
        let f = TraceFilter {
            op: Some(OpKind::Embed),
            ..TraceFilter::default()
        };
        assert!(ring.query(&f).is_empty());
    }

    #[test]
    fn trace_ids_unique_and_prefixed() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert!(a.starts_with("t-"));
        assert!(a.len() <= TRACE_BYTES);
    }

    #[test]
    fn stage_and_op_strings_roundtrip() {
        for &s in Stage::ALL {
            assert_eq!(Stage::from_u8(s as u8), Some(s));
            assert_eq!(Stage::from_name(s.as_str()), Some(s));
        }
        assert_eq!(Stage::from_u8(Stage::ALL.len() as u8), None);
        for &o in OpKind::ALL {
            assert_eq!(OpKind::from_u8(o as u8), Some(o));
            assert_eq!(OpKind::from_name(o.as_str()), Some(o));
            assert_eq!(OpKind::from_wire(o.as_str()), o);
        }
        assert_eq!(OpKind::from_u8(OpKind::ALL.len() as u8), None);
        assert_eq!(OpKind::from_name("fly"), None);
        assert_eq!(OpKind::from_wire("fly"), OpKind::Other);
        assert_eq!(OpKind::from_wire("Embed"), OpKind::Other);
    }
}
