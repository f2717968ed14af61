//! Per-tenant admission-control quotas.
//!
//! One noisy tenant must not monopolize the bounded worker pool. This
//! module tracks, per tenant and per op class (embed / detect /
//! maintain), how many jobs were admitted inside a sliding window, and
//! refuses admission — *before* the job ever enters the queue — once
//! the window's budget is spent (deduct-or-refuse).
//!
//! The window is a fixed ring of [`WINDOW_SLOTS`] buckets, each
//! `window_ms / WINDOW_SLOTS` wide. Advancing time zeroes the buckets
//! that rotated out; the window sum is the consumption the engine
//! charges against the budget. All methods take `now_ms` explicitly so
//! the arithmetic is deterministic and property-testable.
//!
//! Tenant filters live behind the [`FilterStorage`] trait so the
//! backing store is pluggable (the default is an in-process
//! [`HashMapFilterStorage`]). Durable state — explicit limits set via
//! the `quota` op and consumed-window checkpoints — is persisted by the
//! registry log (`persist.rs`), not here; the [`QuotaManager`] only
//! *signals* when a checkpoint is worth writing.

use crate::job::JobKind;
use std::collections::HashMap;
use std::sync::Mutex;

/// Number of buckets in a sliding window. More slots track the true
/// window more tightly; 8 keeps a filter at two cache lines.
pub const WINDOW_SLOTS: usize = 8;

/// Budget sentinel: no cap for that op class.
pub const UNLIMITED: u64 = u64::MAX;

/// Default sliding-window width when none is configured: one minute.
pub const DEFAULT_WINDOW_MS: u64 = 60_000;

/// Op classes in fixed index order (`embed`, `detect`, `maintain`).
pub const OP_CLASSES: [JobKind; 3] = [JobKind::Embed, JobKind::Detect, JobKind::Maintain];

/// Index of an op class inside per-class arrays.
pub fn class_index(kind: JobKind) -> usize {
    match kind {
        JobKind::Embed => 0,
        JobKind::Detect => 1,
        JobKind::Maintain => 2,
    }
}

/// Wire/display name of an op class.
pub fn class_name(kind: JobKind) -> &'static str {
    match kind {
        JobKind::Embed => "embed",
        JobKind::Detect => "detect",
        JobKind::Maintain => "maintain",
    }
}

/// Per-op-class budgets over one sliding window. [`UNLIMITED`] means
/// no cap for that class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaLimits {
    pub embed: u64,
    pub detect: u64,
    pub maintain: u64,
}

impl Default for QuotaLimits {
    fn default() -> Self {
        QuotaLimits::unlimited()
    }
}

impl QuotaLimits {
    pub fn unlimited() -> Self {
        QuotaLimits {
            embed: UNLIMITED,
            detect: UNLIMITED,
            maintain: UNLIMITED,
        }
    }

    pub fn is_unlimited(&self) -> bool {
        self.embed == UNLIMITED && self.detect == UNLIMITED && self.maintain == UNLIMITED
    }

    pub fn budget(&self, kind: JobKind) -> u64 {
        match kind {
            JobKind::Embed => self.embed,
            JobKind::Detect => self.detect,
            JobKind::Maintain => self.maintain,
        }
    }
}

/// Engine-level quota configuration: the budgets every tenant gets
/// unless an explicit `quota` op overrides them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaConfig {
    pub limits: QuotaLimits,
    pub window_ms: u64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig {
            limits: QuotaLimits::unlimited(),
            window_ms: DEFAULT_WINDOW_MS,
        }
    }
}

/// A bucketed sliding window over wall-clock milliseconds.
///
/// `counts[slot % WINDOW_SLOTS]` holds the deductions made while
/// `now_ms / slot_ms == slot`; advancing time zeroes rotated-out
/// buckets. Counts are unsigned and only ever zeroed or decremented by
/// [`refund`](Self::refund) with saturation, so the window can never go
/// negative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlidingWindow {
    slot_ms: u64,
    current_slot: u64,
    counts: [u64; WINDOW_SLOTS],
}

impl SlidingWindow {
    pub fn new(window_ms: u64) -> Self {
        SlidingWindow {
            slot_ms: (window_ms / WINDOW_SLOTS as u64).max(1),
            current_slot: 0,
            counts: [0; WINDOW_SLOTS],
        }
    }

    /// Rotate the ring forward to `now_ms`, zeroing buckets that fell
    /// out of the window. Time never moves a window backwards.
    fn advance(&mut self, now_ms: u64) {
        let slot = now_ms / self.slot_ms;
        if slot <= self.current_slot {
            return;
        }
        let steps = (slot - self.current_slot).min(WINDOW_SLOTS as u64);
        for i in 1..=steps {
            self.counts[((self.current_slot + i) % WINDOW_SLOTS as u64) as usize] = 0;
        }
        self.current_slot = slot;
    }

    /// Consumption currently inside the window.
    pub fn sum(&mut self, now_ms: u64) -> u64 {
        self.advance(now_ms);
        self.counts.iter().sum()
    }

    /// Deduct one unit, or refuse with a retry-after hint (ms until the
    /// oldest consumed bucket rotates out). Refusal happens iff the
    /// window sum would exceed `budget`.
    pub fn try_deduct(&mut self, now_ms: u64, budget: u64) -> Result<(), u64> {
        self.advance(now_ms);
        let sum: u64 = self.counts.iter().sum();
        if sum >= budget {
            return Err(self.retry_after_ms(now_ms));
        }
        self.counts[(self.current_slot % WINDOW_SLOTS as u64) as usize] += 1;
        Ok(())
    }

    /// Undo the most recent deduction (the engine deducts before the
    /// queue-capacity check and refunds if the push is then refused, so
    /// a queue-full rejection never burns budget).
    pub fn refund(&mut self, now_ms: u64) {
        self.advance(now_ms);
        for back in 0..WINDOW_SLOTS as u64 {
            if back > self.current_slot {
                break;
            }
            let idx = ((self.current_slot - back) % WINDOW_SLOTS as u64) as usize;
            if self.counts[idx] > 0 {
                self.counts[idx] -= 1;
                return;
            }
        }
    }

    /// Inject restored consumption as of `at_ms` (a persisted
    /// checkpoint). Normal advancing then ages it out on schedule; a
    /// checkpoint older than the window contributes nothing.
    pub fn seed(&mut self, at_ms: u64, count: u64) {
        self.advance(at_ms);
        let idx = (self.current_slot % WINDOW_SLOTS as u64) as usize;
        self.counts[idx] = self.counts[idx].saturating_add(count);
    }

    /// Milliseconds until the oldest non-empty bucket rotates out of
    /// the window — the soonest a refused tenant could be admitted.
    fn retry_after_ms(&self, now_ms: u64) -> u64 {
        for back in (0..WINDOW_SLOTS as u64).rev() {
            if back > self.current_slot {
                continue;
            }
            let slot = self.current_slot - back;
            if self.counts[(slot % WINDOW_SLOTS as u64) as usize] > 0 {
                let evict_at = (slot + WINDOW_SLOTS as u64) * self.slot_ms;
                return evict_at.saturating_sub(now_ms).max(1);
            }
        }
        // Nothing consumed yet the deduct was refused: the budget is
        // zero, so waiting one bucket changes nothing — still hint it.
        self.slot_ms
    }
}

/// One tenant's admission filter: effective limits plus one window per
/// op class.
#[derive(Debug, Clone)]
pub struct TenantFilter {
    limits: QuotaLimits,
    window_ms: u64,
    /// Whether `limits` were set explicitly via the `quota` op (as
    /// opposed to inherited engine defaults).
    explicit: bool,
    windows: [SlidingWindow; 3],
    /// Rate limiter for durable checkpoints (at most one per bucket).
    last_checkpoint_ms: u64,
    /// Timestamp of the newest checkpoint already seeded, so repeated
    /// resyncs (every replica batch, promotion) never double-count.
    last_seed_at_ms: u64,
}

impl TenantFilter {
    pub fn new(limits: QuotaLimits, window_ms: u64, explicit: bool) -> Self {
        let window_ms = window_ms.max(WINDOW_SLOTS as u64);
        TenantFilter {
            limits,
            window_ms,
            explicit,
            windows: [
                SlidingWindow::new(window_ms),
                SlidingWindow::new(window_ms),
                SlidingWindow::new(window_ms),
            ],
            last_checkpoint_ms: 0,
            last_seed_at_ms: 0,
        }
    }

    pub fn limits(&self) -> QuotaLimits {
        self.limits
    }

    pub fn window_ms(&self) -> u64 {
        self.window_ms
    }

    pub fn is_explicit(&self) -> bool {
        self.explicit
    }

    /// Consumption per op class inside the current window.
    pub fn used(&mut self, now_ms: u64) -> [u64; 3] {
        [
            self.windows[0].sum(now_ms),
            self.windows[1].sum(now_ms),
            self.windows[2].sum(now_ms),
        ]
    }

    fn try_deduct(&mut self, kind: JobKind, now_ms: u64) -> Result<(), u64> {
        let budget = self.limits.budget(kind);
        if budget == UNLIMITED {
            return Ok(());
        }
        self.windows[class_index(kind)].try_deduct(now_ms, budget)
    }

    fn refund(&mut self, kind: JobKind, now_ms: u64) {
        if self.limits.budget(kind) != UNLIMITED {
            self.windows[class_index(kind)].refund(now_ms);
        }
    }

    /// Replace the effective limits, keeping consumed windows: raising
    /// a budget live must not forgive past consumption, and lowering
    /// one must bite immediately.
    fn set_limits(&mut self, limits: QuotaLimits, window_ms: u64) {
        if window_ms != self.window_ms {
            let window_ms = window_ms.max(WINDOW_SLOTS as u64);
            self.window_ms = window_ms;
            self.windows = [
                SlidingWindow::new(window_ms),
                SlidingWindow::new(window_ms),
                SlidingWindow::new(window_ms),
            ];
        }
        self.limits = limits;
        self.explicit = true;
    }
}

/// Pluggable per-tenant filter storage. Implementations own the
/// tenant → filter association; the [`QuotaManager`] provides the
/// admission logic on top.
pub trait FilterStorage: Send {
    /// Look up a tenant's filter, creating it with `default` when the
    /// tenant has never been seen.
    fn filter_mut(&mut self, tenant: &str, default: &dyn Fn() -> TenantFilter)
        -> &mut TenantFilter;
    /// Look up without creating.
    fn get_mut(&mut self, tenant: &str) -> Option<&mut TenantFilter>;
    /// Insert or replace a tenant's filter.
    fn insert(&mut self, tenant: &str, filter: TenantFilter);
    /// Drop a tenant's filter (tenant removal).
    fn remove(&mut self, tenant: &str);
}

/// The default storage: a plain in-process hash map. Filters are
/// boxed, so the table holds a pointer per slot: its empty slots and
/// its growth cost a pointer each, not a whole filter.
#[derive(Default)]
pub struct HashMapFilterStorage {
    filters: HashMap<String, Box<TenantFilter>>,
}

impl HashMapFilterStorage {
    pub fn new() -> Self {
        Self::default()
    }
}

impl FilterStorage for HashMapFilterStorage {
    fn filter_mut(
        &mut self,
        tenant: &str,
        default: &dyn Fn() -> TenantFilter,
    ) -> &mut TenantFilter {
        if !self.filters.contains_key(tenant) {
            self.filters.insert(tenant.to_string(), Box::new(default()));
        }
        self.filters.get_mut(tenant).expect("just inserted")
    }

    fn get_mut(&mut self, tenant: &str) -> Option<&mut TenantFilter> {
        self.filters.get_mut(tenant).map(|f| &mut **f)
    }

    fn insert(&mut self, tenant: &str, filter: TenantFilter) {
        self.filters.insert(tenant.to_string(), Box::new(filter));
    }

    fn remove(&mut self, tenant: &str) {
        self.filters.remove(tenant);
    }
}

/// Outcome of one admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionOutcome {
    /// `Some((kind, retry_after_ms))` when the job was refused.
    pub refused: Option<(JobKind, u64)>,
    /// When set, the caller should durably checkpoint this consumed
    /// window (rate-limited here to at most one per bucket).
    pub checkpoint: Option<[u64; 3]>,
}

/// Effective quota state for one tenant, as reported by the `quota` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaStatus {
    pub limits: QuotaLimits,
    pub window_ms: u64,
    pub explicit: bool,
    /// Consumption per op class (`embed`, `detect`, `maintain`).
    pub used: [u64; 3],
}

/// Thread-safe admission gate over a [`FilterStorage`].
pub struct QuotaManager {
    config: QuotaConfig,
    store: Mutex<Box<dyn FilterStorage>>,
}

impl QuotaManager {
    pub fn new(config: QuotaConfig) -> Self {
        QuotaManager::with_storage(config, Box::new(HashMapFilterStorage::new()))
    }

    pub fn with_storage(config: QuotaConfig, store: Box<dyn FilterStorage>) -> Self {
        QuotaManager {
            config,
            store: Mutex::new(store),
        }
    }

    /// Deduct-or-refuse for one job. Also decides whether the consumed
    /// window deserves a durable checkpoint: when a class's budget just
    /// hit fully-spent, or on a refusal — both at most once per bucket,
    /// so the registry log grows by O(1) events per window per abuser.
    pub fn check(&self, tenant: &str, kind: JobKind, now_ms: u64) -> AdmissionOutcome {
        let mut store = self.store.lock().unwrap();
        let config = self.config;
        let filter = store.filter_mut(tenant, &|| {
            TenantFilter::new(config.limits, config.window_ms, false)
        });
        if filter.limits.is_unlimited() {
            return AdmissionOutcome {
                refused: None,
                checkpoint: None,
            };
        }
        let refused = match filter.try_deduct(kind, now_ms) {
            Ok(()) => None,
            Err(retry_after_ms) => Some((kind, retry_after_ms)),
        };
        let budget = filter.limits.budget(kind);
        let spent = budget != UNLIMITED && filter.windows[class_index(kind)].sum(now_ms) >= budget;
        let mut checkpoint = None;
        if (refused.is_some() || spent)
            && now_ms >= filter.last_checkpoint_ms + filter.window_ms / WINDOW_SLOTS as u64
        {
            filter.last_checkpoint_ms = now_ms;
            checkpoint = Some(filter.used(now_ms));
        }
        AdmissionOutcome {
            refused,
            checkpoint,
        }
    }

    /// Undo the deduction from a [`check`](Self::check) whose job was
    /// then refused by the queue (capacity / shutdown) — those paths
    /// must not burn budget.
    pub fn refund(&self, tenant: &str, kind: JobKind, now_ms: u64) {
        let mut store = self.store.lock().unwrap();
        if let Some(filter) = store.get_mut(tenant) {
            filter.refund(kind, now_ms);
        }
    }

    /// Apply an explicit `quota` op (or a replicated one). Consumed
    /// windows survive unless the window width changes.
    pub fn set_limits(&self, tenant: &str, limits: QuotaLimits, window_ms: u64) {
        let mut store = self.store.lock().unwrap();
        let config = self.config;
        let filter = store.filter_mut(tenant, &|| {
            TenantFilter::new(config.limits, config.window_ms, false)
        });
        filter.set_limits(limits, window_ms);
    }

    /// Restore a persisted checkpoint: consumption counted at `at_ms`
    /// is seeded into the window and ages out on the normal schedule.
    /// Idempotent per checkpoint timestamp — re-seeding the same (or
    /// an older) checkpoint is a no-op, so callers can resync freely.
    pub fn seed_usage(&self, tenant: &str, used: [u64; 3], at_ms: u64) {
        let mut store = self.store.lock().unwrap();
        let config = self.config;
        let filter = store.filter_mut(tenant, &|| {
            TenantFilter::new(config.limits, config.window_ms, false)
        });
        if at_ms <= filter.last_seed_at_ms {
            return;
        }
        filter.last_seed_at_ms = at_ms;
        for (i, &count) in used.iter().enumerate() {
            if count > 0 {
                filter.windows[i].seed(at_ms, count);
            }
        }
    }

    /// Forget a tenant (tenant removal).
    pub fn remove(&self, tenant: &str) {
        self.store.lock().unwrap().remove(tenant);
    }

    /// Effective state for the `quota` op response.
    pub fn status(&self, tenant: &str, now_ms: u64) -> QuotaStatus {
        let mut store = self.store.lock().unwrap();
        match store.get_mut(tenant) {
            Some(filter) => QuotaStatus {
                limits: filter.limits(),
                window_ms: filter.window_ms(),
                explicit: filter.is_explicit(),
                used: filter.used(now_ms),
            },
            None => QuotaStatus {
                limits: self.config.limits,
                window_ms: self.config.window_ms,
                explicit: false,
                used: [0; 3],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_deducts_until_budget_then_refuses() {
        let mut w = SlidingWindow::new(8_000); // 1 s buckets
        for _ in 0..3 {
            assert!(w.try_deduct(0, 3).is_ok());
        }
        let retry = w.try_deduct(0, 3).unwrap_err();
        // All consumption sits in bucket 0, evicted at 8 s.
        assert_eq!(retry, 8_000);
        assert_eq!(w.sum(0), 3);
    }

    #[test]
    fn rotating_out_frees_budget() {
        let mut w = SlidingWindow::new(8_000);
        assert!(w.try_deduct(0, 1).is_ok());
        assert!(w.try_deduct(500, 1).is_err());
        // Still inside the window 7 buckets later…
        assert!(w.try_deduct(7_999, 1).is_err());
        // …freed once bucket 0 rotates out.
        assert!(w.try_deduct(8_000, 1).is_ok());
    }

    #[test]
    fn retry_after_points_at_oldest_consumption() {
        let mut w = SlidingWindow::new(8_000);
        assert!(w.try_deduct(1_000, 2).is_ok()); // bucket 1, evicts at 9 s
        assert!(w.try_deduct(4_500, 2).is_ok()); // bucket 4
        assert_eq!(w.try_deduct(5_000, 2).unwrap_err(), 4_000);
    }

    #[test]
    fn refund_undoes_the_newest_deduction() {
        let mut w = SlidingWindow::new(8_000);
        assert!(w.try_deduct(0, 1).is_ok());
        w.refund(0);
        assert_eq!(w.sum(0), 0);
        assert!(w.try_deduct(0, 1).is_ok());
        // Refund on an empty window is a no-op, never a wraparound.
        w.refund(100);
        w.refund(100);
        assert_eq!(w.sum(100), 0);
    }

    #[test]
    fn seeded_checkpoint_ages_out_on_schedule() {
        let mut w = SlidingWindow::new(8_000);
        w.seed(2_000, 5); // checkpointed at 2 s → bucket 2, evicts at 10 s
        assert_eq!(w.sum(9_999), 5);
        assert_eq!(w.sum(10_000), 0);
        // A checkpoint older than the whole window contributes nothing.
        let mut stale = SlidingWindow::new(8_000);
        stale.seed(1_000, 9);
        assert_eq!(stale.sum(20_000), 0);
    }

    #[test]
    fn zero_budget_refuses_with_a_hint() {
        let mut w = SlidingWindow::new(8_000);
        let retry = w.try_deduct(0, 0).unwrap_err();
        assert!(retry >= 1);
        assert_eq!(w.sum(0), 0);
    }

    #[test]
    fn manager_enforces_per_class_budgets() {
        let mgr = QuotaManager::new(QuotaConfig {
            limits: QuotaLimits {
                embed: 2,
                detect: UNLIMITED,
                maintain: 1,
            },
            window_ms: 8_000,
        });
        assert!(mgr.check("t", JobKind::Embed, 0).refused.is_none());
        assert!(mgr.check("t", JobKind::Embed, 0).refused.is_none());
        let out = mgr.check("t", JobKind::Embed, 0);
        let (kind, retry) = out.refused.expect("third embed refused");
        assert_eq!(kind, JobKind::Embed);
        assert!(retry >= 1);
        // Detect is unlimited; maintain has its own budget.
        for _ in 0..50 {
            assert!(mgr.check("t", JobKind::Detect, 0).refused.is_none());
        }
        assert!(mgr.check("t", JobKind::Maintain, 0).refused.is_none());
        assert!(mgr.check("t", JobKind::Maintain, 0).refused.is_some());
        // Another tenant has its own filter.
        assert!(mgr.check("u", JobKind::Embed, 0).refused.is_none());
    }

    #[test]
    fn checkpoint_signalled_once_per_bucket() {
        let mgr = QuotaManager::new(QuotaConfig {
            limits: QuotaLimits {
                embed: 1,
                detect: UNLIMITED,
                maintain: UNLIMITED,
            },
            window_ms: 8_000,
        });
        // Budget hits fully-spent: checkpoint with the consumed window.
        let out = mgr.check("t", JobKind::Embed, 1_500);
        assert!(out.refused.is_none());
        assert_eq!(out.checkpoint, Some([1, 0, 0]));
        // Refusals in the same bucket stay quiet…
        let out = mgr.check("t", JobKind::Embed, 1_600);
        assert!(out.refused.is_some());
        assert_eq!(out.checkpoint, None);
        // …and the next bucket signals again.
        let out = mgr.check("t", JobKind::Embed, 2_600);
        assert!(out.refused.is_some());
        assert_eq!(out.checkpoint, Some([1, 0, 0]));
    }

    #[test]
    fn set_limits_keeps_consumption_and_survives_raises() {
        let mgr = QuotaManager::new(QuotaConfig {
            limits: QuotaLimits {
                embed: 1,
                detect: UNLIMITED,
                maintain: UNLIMITED,
            },
            window_ms: 8_000,
        });
        assert!(mgr.check("t", JobKind::Embed, 0).refused.is_none());
        assert!(mgr.check("t", JobKind::Embed, 0).refused.is_some());
        // Raise the budget live: past consumption still counts.
        mgr.set_limits(
            "t",
            QuotaLimits {
                embed: 2,
                detect: UNLIMITED,
                maintain: UNLIMITED,
            },
            8_000,
        );
        assert!(mgr.check("t", JobKind::Embed, 0).refused.is_none());
        assert!(mgr.check("t", JobKind::Embed, 0).refused.is_some());
        let st = mgr.status("t", 0);
        assert_eq!(st.used, [2, 0, 0]);
        assert!(st.explicit);
    }

    #[test]
    fn seeded_usage_still_refuses_after_restart() {
        let mgr = QuotaManager::new(QuotaConfig {
            limits: QuotaLimits {
                embed: 3,
                detect: UNLIMITED,
                maintain: UNLIMITED,
            },
            window_ms: 8_000,
        });
        mgr.seed_usage("t", [3, 0, 0], 1_000);
        // Re-seeding the same checkpoint (replica-batch resync) is a
        // no-op, not a double count.
        mgr.seed_usage("t", [3, 0, 0], 1_000);
        assert_eq!(mgr.status("t", 1_100).used, [3, 0, 0]);
        assert!(mgr.check("t", JobKind::Embed, 1_200).refused.is_some());
        // Seeded consumption rotates out with the window.
        assert!(mgr.check("t", JobKind::Embed, 9_500).refused.is_none());
    }

    #[test]
    fn status_for_unseen_tenant_reports_defaults() {
        let mgr = QuotaManager::new(QuotaConfig::default());
        let st = mgr.status("ghost", 0);
        assert!(st.limits.is_unlimited());
        assert_eq!(st.used, [0, 0, 0]);
        assert!(!st.explicit);
    }

    /// The trait is genuinely pluggable: a storage that caps how many
    /// tenants it tracks (e.g. an LRU in front of a remote store).
    #[test]
    fn custom_filter_storage_plugs_in() {
        struct Capped {
            inner: HashMapFilterStorage,
            cap: usize,
            order: Vec<String>,
        }
        impl FilterStorage for Capped {
            fn filter_mut(
                &mut self,
                tenant: &str,
                default: &dyn Fn() -> TenantFilter,
            ) -> &mut TenantFilter {
                if self.inner.get_mut(tenant).is_none() {
                    if self.order.len() >= self.cap {
                        let evict = self.order.remove(0);
                        self.inner.remove(&evict);
                    }
                    self.order.push(tenant.to_string());
                }
                self.inner.filter_mut(tenant, default)
            }
            fn get_mut(&mut self, tenant: &str) -> Option<&mut TenantFilter> {
                self.inner.get_mut(tenant)
            }
            fn insert(&mut self, tenant: &str, filter: TenantFilter) {
                self.inner.insert(tenant, filter);
            }
            fn remove(&mut self, tenant: &str) {
                self.order.retain(|t| t != tenant);
                self.inner.remove(tenant);
            }
        }
        let mgr = QuotaManager::with_storage(
            QuotaConfig {
                limits: QuotaLimits {
                    embed: 1,
                    detect: UNLIMITED,
                    maintain: UNLIMITED,
                },
                window_ms: 8_000,
            },
            Box::new(Capped {
                inner: HashMapFilterStorage::new(),
                cap: 1,
                order: Vec::new(),
            }),
        );
        assert!(mgr.check("a", JobKind::Embed, 0).refused.is_none());
        assert!(mgr.check("a", JobKind::Embed, 0).refused.is_some());
        // "b" evicts "a"; re-admitting "a" starts a fresh filter.
        assert!(mgr.check("b", JobKind::Embed, 0).refused.is_none());
        assert!(mgr.check("a", JobKind::Embed, 0).refused.is_none());
    }
}
