//! Sharded LRU memoization of the pair PRF, for detection.
//!
//! Detection re-derives `s_ij = H(tk_i ‖ H(R ‖ tk_j)) mod z` for every
//! stored pair on every run — two SHA-256 compressions per pair. A
//! marketplace re-verifying the same vocabularies against the same
//! tenants pays that again and again; this cache keys the final modulus
//! on `(tenant tag, z, tk_i, tk_j)` and turns repeat detections into
//! hash-map hits. Detect and dispute go through it; embed does not: a
//! cold `WM_Generate` sweep draws every candidate pair once, more pairs
//! than the cache holds, and the direct sweep — one inner digest per
//! token, one SHA-NI outer hash per pair — is cheaper than a lookup.
//!
//! Sharding: the key hash picks one of `shards` independently locked
//! LRU maps, so concurrent detect jobs rarely contend. Each shard is a
//! stamped LRU — a `HashMap` of entries plus a recency queue whose
//! stale references are skipped lazily at eviction (amortised O(1), no
//! intrusive list).

use freqywm_crypto::prf::{pair_modulus, PrfProvider, Secret};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrfCacheConfig {
    /// Number of independently locked shards (rounded up to ≥ 1).
    pub shards: usize,
    /// Capacity per shard in entries; 0 disables the cache entirely.
    pub capacity_per_shard: usize,
}

impl Default for PrfCacheConfig {
    fn default() -> Self {
        PrfCacheConfig {
            shards: 8,
            capacity_per_shard: 8_192,
        }
    }
}

impl PrfCacheConfig {
    /// A disabled cache (every lookup misses, nothing is stored).
    pub fn disabled() -> Self {
        PrfCacheConfig {
            shards: 1,
            capacity_per_shard: 0,
        }
    }
}

type Key = (u64, u64, Box<[u8]>, Box<[u8]>);

struct Entry {
    value: u64,
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Key, Entry>,
    recency: VecDeque<(Key, u64)>,
    next_stamp: u64,
}

impl Shard {
    fn touch(&mut self, key: &Key, capacity: usize) -> Option<u64> {
        let stamp = self.next_stamp;
        let value = {
            let e = self.map.get_mut(key)?;
            e.stamp = stamp;
            e.value
        };
        self.next_stamp += 1;
        self.recency.push_back((key.clone(), stamp));
        // Hit-heavy workloads grow the queue without inserts; keep it
        // bounded here too.
        if self.recency.len() > capacity.saturating_mul(4).max(64) {
            self.compact();
        }
        Some(value)
    }

    fn insert(&mut self, key: Key, value: u64, capacity: usize) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.recency.push_back((key.clone(), stamp));
        self.map.insert(key, Entry { value, stamp });
        while self.map.len() > capacity {
            // Pop recency records until one still current is found —
            // that is the true LRU entry.
            let Some((key, stamp)) = self.recency.pop_front() else {
                break;
            };
            if self.map.get(&key).is_some_and(|e| e.stamp == stamp) {
                self.map.remove(&key);
            }
        }
        // Bound the queue against pathological touch-heavy workloads.
        if self.recency.len() > capacity.saturating_mul(4).max(64) {
            self.compact();
        }
    }

    fn compact(&mut self) {
        let map = &self.map;
        self.recency
            .retain(|(key, stamp)| map.get(key).is_some_and(|e| e.stamp == *stamp));
    }
}

/// The sharded PRF cache. Cheap to share (`&PrfCache` is `Sync`).
pub struct PrfCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Cache counters at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when the cache has seen no traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

fn key_hash(tag: u64, z: u64, a: &[u8], b: &[u8]) -> u64 {
    // FNV-1a over the structured key.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &x in bytes {
            h ^= x as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&tag.to_le_bytes());
    eat(&z.to_le_bytes());
    eat(a);
    eat(&[0xFF]); // separator so ("ab","c") != ("a","bc")
    eat(b);
    h
}

impl PrfCache {
    pub fn new(config: PrfCacheConfig) -> Self {
        let shards = config.shards.max(1);
        PrfCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: config.capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.capacity_per_shard > 0
    }

    /// Looks up the modulus for `(tag, z, tk_i, tk_j)`, computing and
    /// inserting it on miss.
    pub fn get_or_compute(
        &self,
        tag: u64,
        secret: &Secret,
        tk_i: &[u8],
        tk_j: &[u8],
        z: u64,
    ) -> u64 {
        if !self.is_enabled() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return pair_modulus(secret, tk_i, tk_j, z);
        }
        let shard = &self.shards[(key_hash(tag, z, tk_i, tk_j) as usize) % self.shards.len()];
        let key: Key = (tag, z, tk_i.into(), tk_j.into());
        if let Some(v) = shard
            .lock()
            .expect("prf cache shard poisoned")
            .touch(&key, self.capacity_per_shard)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        // Compute outside the lock: two SHA-256 compressions dominate,
        // and a racing duplicate insert is harmless (same value).
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = pair_modulus(secret, tk_i, tk_j, z);
        shard
            .lock()
            .expect("prf cache shard poisoned")
            .insert(key, value, self.capacity_per_shard);
        value
    }

    pub fn stats(&self) -> CacheStats {
        let entries: usize = self
            .shards
            .iter()
            .map(|s| s.lock().expect("prf cache shard poisoned").map.len())
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: entries as u64,
        }
    }

    /// Provider view bound to one tenant's precomputed tag.
    pub fn for_tag(&self, tag: u64) -> CachedPrf<'_> {
        CachedPrf { cache: self, tag }
    }
}

impl std::fmt::Debug for PrfCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PrfCache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("entries", &s.entries)
            .finish()
    }
}

/// A [`PrfProvider`] that routes through the cache under a fixed tenant
/// tag. Built per job via [`PrfCache::for_tag`].
#[derive(Clone, Copy)]
pub struct CachedPrf<'a> {
    cache: &'a PrfCache,
    tag: u64,
}

impl PrfProvider for CachedPrf<'_> {
    fn pair_modulus(&self, secret: &Secret, tk_i: &[u8], tk_j: &[u8], z: u64) -> u64 {
        self.cache.get_or_compute(self.tag, secret, tk_i, tk_j, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freqywm_crypto::prf::DirectPrf;

    fn secret(n: u8) -> Secret {
        Secret::from_bytes([n; 32])
    }

    #[test]
    fn hit_after_miss_and_correct_values() {
        let cache = PrfCache::new(PrfCacheConfig::default());
        let s = secret(1);
        let tag = s.cache_tag();
        let direct = DirectPrf;
        for _ in 0..3 {
            for (a, b) in [("alpha", "beta"), ("x", "y")] {
                let got = cache.get_or_compute(tag, &s, a.as_bytes(), b.as_bytes(), 131);
                let want = direct.pair_modulus(&s, a.as_bytes(), b.as_bytes(), 131);
                assert_eq!(got, want);
            }
        }
        let st = cache.stats();
        assert_eq!(st.misses, 2);
        assert_eq!(st.hits, 4);
        assert_eq!(st.entries, 2);
        assert!((st.hit_rate() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn tags_isolate_tenants() {
        let cache = PrfCache::new(PrfCacheConfig::default());
        let s1 = secret(1);
        let s2 = secret(2);
        let v1 = cache.get_or_compute(s1.cache_tag(), &s1, b"a", b"b", 1031);
        let v2 = cache.get_or_compute(s2.cache_tag(), &s2, b"a", b"b", 1031);
        assert_ne!(v1, v2, "different secrets must not share entries");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn z_is_part_of_the_key() {
        let cache = PrfCache::new(PrfCacheConfig::default());
        let s = secret(3);
        let tag = s.cache_tag();
        let a = cache.get_or_compute(tag, &s, b"a", b"b", 31);
        let b = cache.get_or_compute(tag, &s, b"a", b"b", 1031);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(a, pair_modulus(&s, b"a", b"b", 31));
        assert_eq!(b, pair_modulus(&s, b"a", b"b", 1031));
    }

    #[test]
    fn eviction_respects_capacity_and_recency() {
        let cache = PrfCache::new(PrfCacheConfig {
            shards: 1,
            capacity_per_shard: 4,
        });
        let s = secret(4);
        let tag = s.cache_tag();
        let token = |i: usize| format!("tk{i}");
        for i in 0..4 {
            cache.get_or_compute(tag, &s, token(i).as_bytes(), b"x", 131);
        }
        // Touch tk0 so tk1 becomes the LRU, then overflow.
        cache.get_or_compute(tag, &s, token(0).as_bytes(), b"x", 131);
        cache.get_or_compute(tag, &s, token(9).as_bytes(), b"x", 131);
        assert_eq!(cache.stats().entries, 4);
        let hits_before = cache.stats().hits;
        cache.get_or_compute(tag, &s, token(0).as_bytes(), b"x", 131);
        assert_eq!(
            cache.stats().hits,
            hits_before + 1,
            "recently-touched entry evicted"
        );
        let misses_before = cache.stats().misses;
        cache.get_or_compute(tag, &s, token(1).as_bytes(), b"x", 131);
        assert_eq!(
            cache.stats().misses,
            misses_before + 1,
            "LRU entry survived eviction"
        );
    }

    #[test]
    fn disabled_cache_always_misses_but_stays_correct() {
        let cache = PrfCache::new(PrfCacheConfig::disabled());
        let s = secret(5);
        let tag = s.cache_tag();
        for _ in 0..3 {
            let v = cache.get_or_compute(tag, &s, b"p", b"q", 131);
            assert_eq!(v, pair_modulus(&s, b"p", b"q", 131));
        }
        let st = cache.stats();
        assert_eq!(st.hits, 0);
        assert_eq!(st.misses, 3);
        assert_eq!(st.entries, 0);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = std::sync::Arc::new(PrfCache::new(PrfCacheConfig {
            shards: 4,
            capacity_per_shard: 1024,
        }));
        let s = secret(6);
        let tag = s.cache_tag();
        let mut handles = Vec::new();
        for t in 0..8 {
            let cache = cache.clone();
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let a = format!("tk{:02}", (i + t) % 32);
                    let v = cache.get_or_compute(tag, &s, a.as_bytes(), b"anchor", 1031);
                    assert_eq!(v, pair_modulus(&s, a.as_bytes(), b"anchor", 1031));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let st = cache.stats();
        assert_eq!(st.hits + st.misses, 8 * 200);
        assert!(st.hits > 0);
        assert!(st.entries <= 32);
    }
}
