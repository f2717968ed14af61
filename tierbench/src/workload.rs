//! Seeded workload inputs.
//!
//! Every request the tier sees is generated here from the run's seed;
//! the tier itself never sees the seed. Inputs are stratified (sizes,
//! skews and moduli cycle through fixed strata in a seeded order) so
//! two seeds give different requests of the same cost profile, which
//! keeps run-to-run spread down without replaying identical inputs.

use crate::client::{Expect, Op, Request};
use freqywm_core::generate::{GenerationOutput, Watermarker};
use freqywm_core::params::GenerationParams;
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_data::token::Token;
use freqywm_service::proto::json::escape;
use freqywm_shard::tenant_shard;
use std::sync::Arc;

/// Shards behind the router.
pub const SHARDS: usize = 2;
/// Tenants in the pre-embedded pool of the detect workloads.
pub const POOL: usize = 12;
/// Mean count per token: the histograms hold `vocab × this` samples.
const COUNT_PER_TOKEN: usize = 1000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    EmbedCold,
    DetectHot,
    DetectMaintainMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::EmbedCold,
        Workload::DetectHot,
        Workload::DetectMaintainMix,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::EmbedCold => "embed_cold",
            Workload::DetectHot => "detect_hot",
            Workload::DetectMaintainMix => "detect_maintain_mix",
        }
    }

    /// Whether the workload runs against a pre-embedded tenant pool.
    pub fn uses_pool(self) -> bool {
        self != Workload::EmbedCold
    }
}

/// splitmix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A generator for one named sub-stream of `seed`.
    pub fn stream(seed: u64, parts: &[u64]) -> Rng {
        let mut rng = Rng::new(seed);
        for &p in parts {
            rng = Rng::new(rng.next_u64() ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The first tenant id `<base>-<salt>` that the router places on
/// `shard`. The harness uses placement only to balance its own load.
fn tenant_on(shard: usize, base: &str) -> String {
    (0u32..)
        .map(|salt| format!("{base}-{salt}"))
        .find(|t| tenant_shard(t, SHARDS) == shard)
        .expect("some salt lands on every shard")
}

/// A seeded power-law histogram over `vocab` tokens named `<prefix><i>`.
fn power_law(prefix: &str, vocab: usize, alpha: f64) -> Histogram {
    let counts = power_law_counts(&PowerLawConfig {
        distinct_tokens: vocab,
        sample_size: vocab * COUNT_PER_TOKEN,
        alpha,
    });
    Histogram::from_counts(
        counts
            .into_iter()
            .enumerate()
            .map(|(i, (_, c))| (Token::new(format!("{prefix}{i}")), c)),
    )
}

/// Renders `[["token",count],…]`.
pub fn counts_json(hist: &Histogram) -> String {
    let mut out = String::with_capacity(hist.len() * 16 + 2);
    out.push('[');
    for (i, (t, c)) in hist.entries().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[\"{}\",{c}]", escape(t.as_str())));
    }
    out.push(']');
    out
}

/// One tenant's dataset and the requests that onboard it.
#[derive(Debug, Clone)]
pub struct TenantData {
    pub tenant: String,
    pub z: u64,
    pub hist: Histogram,
}

impl TenantData {
    /// Generation parameters of the served embed. Free pairs (already
    /// congruent before marking) are excluded, so an unmarked control
    /// copy verifies no pair at `t = 0` and is rejected.
    pub fn params(&self) -> GenerationParams {
        GenerationParams::default()
            .with_z(self.z)
            .with_exclude_free_pairs(true)
    }

    pub fn secret(&self) -> Secret {
        Secret::from_label(&self.tenant)
    }

    /// What `WM_Generate` must produce for this tenant: the library
    /// run the served embed is checked against.
    pub fn expected(&self) -> GenerationOutput {
        Watermarker::new(self.params())
            .generate_histogram(&self.hist, self.secret())
            .expect("seeded inputs always have eligible pairs within budget")
    }

    pub fn register_line(&self) -> String {
        format!(
            "{{\"op\":\"register\",\"tenant\":\"{t}\",\"secret_label\":\"{t}\"}}\n",
            t = escape(&self.tenant)
        )
    }

    pub fn embed_line(&self) -> String {
        format!(
            "{{\"op\":\"embed\",\"tenant\":\"{}\",\"z\":{},\"exclude_free_pairs\":true,\"counts\":{}}}\n",
            escape(&self.tenant),
            self.z,
            counts_json(&self.hist)
        )
    }
}

/// Detect request for `tenant` over `hist` (its watermarked output, or
/// the unmarked original as a control copy).
pub fn detect_line(tenant: &str, hist: &Histogram) -> String {
    format!(
        "{{\"op\":\"detect\",\"tenant\":\"{}\",\"t\":0,\"k\":1,\"counts\":{}}}\n",
        escape(tenant),
        counts_json(hist)
    )
}

pub fn maintain_line(tenant: &str, updates: &[(Token, i64)]) -> String {
    let body: Vec<String> = updates
        .iter()
        .map(|(t, d)| format!("[\"{}\",{d}]", escape(t.as_str())))
        .collect();
    format!(
        "{{\"op\":\"maintain\",\"tenant\":\"{}\",\"updates\":[{}]}}\n",
        escape(tenant),
        body.join(",")
    )
}

/// Request `k` of connection `conn` in `embed_cold`: a fresh tenant
/// with a power-law histogram of 250–1000 tokens, α in 0.4–0.9 and
/// `z ∈ {131, 1031}`. Each block of eight requests covers the four
/// vocabulary strata at both moduli once, in seeded order. Connection
/// `conn` only ever creates tenants of shard `conn`, so each shard's
/// single worker sees one closed-loop client.
pub fn embed_cold_tenant(seed: u64, conn: usize, k: usize) -> TenantData {
    let mut combos: Vec<usize> = (0..8).collect();
    Rng::stream(seed, &[1, conn as u64, (k / 8) as u64]).shuffle(&mut combos);
    let combo = combos[k % 8];
    let mut rng = Rng::stream(seed, &[2, conn as u64, k as u64]);
    let vocab = (250.0 + ((combo % 4) as f64 + rng.unit()) * 187.5) as usize;
    let alpha = 0.4 + 0.5 * rng.unit();
    let z = [131, 1031][combo / 4];
    TenantData {
        tenant: tenant_on(conn % SHARDS, &format!("e{seed}-{conn}-{k}")),
        z,
        hist: power_law(&format!("e{k}c{conn}-"), vocab.min(1000), alpha),
    }
}

/// The detect workloads' tenant pool: six vocabulary strata over
/// 150–1000 tokens, each embedded by one tenant on every shard (pool
/// index `i` lives on shard `i % 2`), α in 0.4–0.9, `z` alternating
/// between 131 and 1031 by stratum.
pub fn pool(seed: u64) -> Vec<TenantData> {
    let mut out = Vec::with_capacity(POOL);
    for stratum in 0..POOL / SHARDS {
        let mut rng = Rng::stream(seed, &[3, stratum as u64]);
        let vocab = (150.0 + (stratum as f64 + rng.unit()) * 850.0 / 6.0) as usize;
        let alpha = 0.4 + 0.5 * rng.unit();
        let z = if stratum % 2 == 0 { 131 } else { 1031 };
        for shard in 0..SHARDS {
            out.push(TenantData {
                tenant: tenant_on(shard, &format!("p{seed}-{stratum}-{shard}")),
                z,
                hist: power_law(&format!("p{stratum}s{shard}-"), vocab.min(1000), alpha),
            });
        }
    }
    out
}

/// Pre-rendered detect requests of one pooled tenant.
#[derive(Debug, Clone)]
pub struct DetectLines {
    pub marked: Arc<str>,
    pub control: Arc<str>,
}

impl DetectLines {
    pub fn new(data: &TenantData, expected: &GenerationOutput) -> DetectLines {
        DetectLines {
            marked: detect_line(&data.tenant, &expected.watermarked).into(),
            control: detect_line(&data.tenant, &data.hist).into(),
        }
    }
}

/// Seeded detect traffic over `tenants` pooled tenants: every tenant
/// equally often (concatenated seeded permutations), and exactly one
/// request in each block of eight an unmarked control copy.
pub fn detect_schedule(seed: u64, tenants: usize, len: usize) -> Vec<(usize, bool)> {
    let mut rng = Rng::stream(seed, &[4]);
    let mut order = Vec::with_capacity(len);
    while order.len() < len {
        let mut perm: Vec<usize> = (0..tenants).collect();
        rng.shuffle(&mut perm);
        order.extend(perm);
    }
    order.truncate(len);
    let mut control_at = 0;
    order
        .into_iter()
        .enumerate()
        .map(|(i, tenant)| {
            if i % 8 == 0 {
                control_at = i + rng.below(8) as usize;
            }
            (tenant, i == control_at)
        })
        .collect()
}

/// Update batch number `seq` of a maintained tenant: three seeded
/// tokens of its vocabulary, each raised by 1–4.
pub fn maintain_updates(
    seed: u64,
    tenant: usize,
    seq: usize,
    hist: &Histogram,
) -> Vec<(Token, i64)> {
    let mut rng = Rng::stream(seed, &[5, tenant as u64, seq as u64]);
    (0..3)
        .map(|_| {
            let (t, _) = &hist.entries()[rng.below(hist.len() as u64) as usize];
            (t.clone(), 1 + rng.below(4) as i64)
        })
        .collect()
}

/// The request stream of one connection of the detect workloads. In
/// `detect_maintain_mix` every fourth request is a `maintain`; a
/// connection maintains only the tenants of its own shard, so each
/// tenant's maintains arrive in one connection's order and can be
/// replayed exactly by the correctness gate.
pub struct DetectStream {
    pub seed: u64,
    pub conn: usize,
    pub schedule: Arc<Vec<(usize, bool)>>,
    pub lines: Arc<Vec<DetectLines>>,
    /// Original histograms of the pool (maintain token choice).
    pub pool: Arc<Vec<TenantData>>,
    pub maintain_every: Option<usize>,
    /// Maintains sent so far per tenant.
    pub maintain_seq: Vec<usize>,
}

impl DetectStream {
    /// A copy of this stream that sends detects only (warm-up traffic
    /// must not consume maintain sequence numbers).
    pub fn clone_detect_only(&self) -> DetectStream {
        DetectStream {
            seed: self.seed,
            conn: self.conn,
            schedule: Arc::clone(&self.schedule),
            lines: Arc::clone(&self.lines),
            pool: Arc::clone(&self.pool),
            maintain_every: None,
            maintain_seq: self.maintain_seq.clone(),
        }
    }

    pub fn next(&mut self, n: usize) -> Request {
        if let Some(every) = self.maintain_every {
            if n % every == every - 1 {
                let owned: Vec<usize> = (0..self.pool.len())
                    .filter(|i| i % SHARDS == self.conn % SHARDS)
                    .collect();
                let tenant = owned[(n / every) % owned.len()];
                let seq = self.maintain_seq[tenant];
                self.maintain_seq[tenant] += 1;
                let data = &self.pool[tenant];
                let updates = maintain_updates(self.seed, tenant, seq, &data.hist);
                return Request {
                    op: Op::Maintain,
                    tenant,
                    seq,
                    line: maintain_line(&data.tenant, &updates).into(),
                    expect: Expect::Ok,
                };
            }
        }
        let (tenant, control) = self.schedule[(n * SHARDS + self.conn) % self.schedule.len()];
        let lines = &self.lines[tenant];
        Request {
            op: Op::Detect,
            tenant,
            seq: n,
            line: if control {
                lines.control.clone()
            } else {
                lines.marked.clone()
            },
            expect: Expect::Verdict(!control),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let a = embed_cold_tenant(11, 0, 5);
        let b = embed_cold_tenant(11, 0, 5);
        let c = embed_cold_tenant(12, 0, 5);
        assert_eq!(a.embed_line(), b.embed_line());
        assert_ne!(a.embed_line(), c.embed_line());
        assert_eq!(tenant_shard(&a.tenant, SHARDS), 0);
        assert_eq!(tenant_shard(&embed_cold_tenant(11, 1, 5).tenant, SHARDS), 1);
        for (i, t) in pool(11).iter().enumerate() {
            assert_eq!(tenant_shard(&t.tenant, SHARDS), i % SHARDS);
            assert!((150..=1000).contains(&t.hist.len()), "{}", t.hist.len());
        }
    }

    #[test]
    fn embed_blocks_cover_every_stratum() {
        let mut strata: Vec<(usize, u64)> = (0..8)
            .map(|k| {
                let t = embed_cold_tenant(5, 1, 8 + k);
                ((t.hist.len() - 250) * 4 / 751, t.z)
            })
            .collect();
        strata.sort_unstable();
        let want: Vec<(usize, u64)> = (0..8).map(|c| (c % 4, [131, 1031][c / 4])).collect();
        let mut want = want;
        want.sort_unstable();
        assert_eq!(strata, want);
    }

    #[test]
    fn one_control_in_every_eight_detects() {
        let s = detect_schedule(9, POOL, 480);
        for block in s.chunks(8) {
            assert_eq!(block.iter().filter(|(_, c)| *c).count(), 1);
        }
        for t in 0..POOL {
            assert_eq!(s.iter().filter(|(x, _)| *x == t).count(), 40);
        }
    }
}
