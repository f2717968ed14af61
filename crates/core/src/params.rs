//! Generation and detection parameters.

use freqywm_stats::similarity::SimilarityMetric;

/// Pair-selection strategy (Sec. III-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Maximum Weight Matching + equally-valued knapsack — the optimal
    /// algorithm.
    Optimal,
    /// Greedy heuristic: eligible pairs ascending by remainder.
    Greedy,
    /// Random heuristic: eligible pairs in seeded random order.
    Random { seed: u64 },
}

/// Edge-weight scheme for the matching step.
///
/// The paper weighs an edge `T − rm` with `rm = (f_i − f_j) mod s_ij`.
/// Since the modification rule never moves a pair by more than
/// `min(rm, s_ij − rm)`, weighting by the *effective* cost is a natural
/// variant; the `ablation_weights` bench compares the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightScheme {
    /// `T − rm` (paper).
    #[default]
    PaperRemainder,
    /// `T − min(rm, s_ij − rm)`.
    EffectiveCost,
}

/// `WM_Generate` parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationParams {
    /// Distortion budget `b` in percent: the watermarked histogram must
    /// keep `similarity ≥ (100 − b)%`. Paper default: 2.
    pub budget_pct: f64,
    /// Public modulo parameter `z` (the paper uses 131 on real data and
    /// 1031 on synthetic sweeps). Valid range `(2, r_max)`.
    pub z: u64,
    /// Similarity metric for the budget (cosine in the paper).
    pub metric: SimilarityMetric,
    /// Selection strategy.
    pub selection: Selection,
    /// Matching weight scheme.
    pub weights: WeightScheme,
    /// Exclude pairs whose remainder is already 0 ("free" pairs).
    ///
    /// The paper's selector happily picks free pairs (they cost no
    /// distortion), but such pairs occur naturally and therefore carry
    /// no ownership evidence — a pirate re-watermarking a stolen copy
    /// collects mostly free pairs, which weakens the Sec. V-D dispute
    /// protocol (`exp_rewatermark` measures both settings). Enabling
    /// this hardens false-claim resistance at a small distortion cost.
    /// Default `false` (paper-faithful).
    pub exclude_free_pairs: bool,
    /// Modulus floor: eligible pairs must have `s_ij ≥ min_modulus`.
    ///
    /// The optimal selector systematically prefers small-modulus pairs
    /// (small `s` ⇒ small remainder ⇒ light knapsack weight), but a
    /// pair with `s ≤ 2t` verifies on *any* data once the detection
    /// tolerance reaches `t` — tiny moduli trade away false-positive
    /// resistance. Raising the floor yields fewer but more evidentiary
    /// pairs. Default 2 (paper-faithful: any `s ≥ 2` is eligible).
    pub min_modulus: u64,
    /// Worker threads for the eligible-pair sweep (the generation
    /// hot-spot on large histograms). 1 = sequential (default).
    pub threads: usize,
}

impl Default for GenerationParams {
    fn default() -> Self {
        GenerationParams {
            budget_pct: 2.0,
            z: 131,
            metric: SimilarityMetric::Cosine,
            selection: Selection::Optimal,
            weights: WeightScheme::PaperRemainder,
            exclude_free_pairs: false,
            min_modulus: 2,
            threads: 1,
        }
    }
}

impl GenerationParams {
    pub fn with_budget(mut self, b: f64) -> Self {
        self.budget_pct = b;
        self
    }

    pub fn with_z(mut self, z: u64) -> Self {
        self.z = z;
        self
    }

    pub fn with_selection(mut self, s: Selection) -> Self {
        self.selection = s;
        self
    }

    pub fn with_metric(mut self, m: SimilarityMetric) -> Self {
        self.metric = m;
        self
    }

    pub fn with_weights(mut self, w: WeightScheme) -> Self {
        self.weights = w;
        self
    }

    pub fn with_exclude_free_pairs(mut self, on: bool) -> Self {
        self.exclude_free_pairs = on;
        self
    }

    pub fn with_min_modulus(mut self, min_s: u64) -> Self {
        self.min_modulus = min_s;
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Per-pair acceptance rule for detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectionRule {
    /// `min(rm, s_ij − rm) ≤ t` — the relaxed modulo rule the paper's
    /// robustness analysis relies on (a remainder just *below* the
    /// modulus is as close to 0 as one just above).
    #[default]
    Symmetric,
    /// `rm ≤ t` with `rm = (f_i − f_j) mod s_ij` taken non-negatively.
    Strict,
}

/// `WM_Detect` parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionParams {
    /// Pair tolerance `t`: a pair verifies if its remainder is within
    /// `t` of a multiple of `s_ij`. `t = 0` is the fragile watermark.
    pub t: u64,
    /// Dataset threshold `k`: minimum number of verified pairs.
    pub k: usize,
    /// Per-pair rule.
    pub rule: DetectionRule,
    /// Optional frequency scale-up applied to the suspect histogram
    /// before checking — the counter-move against sampling attacks
    /// (e.g. `Some(100.0 / 20.0)` for a 20% sample, Sec. V-B).
    pub scale: Option<f64>,
}

impl Default for DetectionParams {
    fn default() -> Self {
        DetectionParams {
            t: 0,
            k: 1,
            rule: DetectionRule::Symmetric,
            scale: None,
        }
    }
}

impl DetectionParams {
    pub fn with_t(mut self, t: u64) -> Self {
        self.t = t;
        self
    }

    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    pub fn with_rule(mut self, rule: DetectionRule) -> Self {
        self.rule = rule;
        self
    }

    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = Some(scale);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = GenerationParams::default();
        assert_eq!(p.budget_pct, 2.0);
        assert_eq!(p.z, 131);
        assert_eq!(p.metric, SimilarityMetric::Cosine);
        assert_eq!(p.selection, Selection::Optimal);
    }

    #[test]
    fn builders_compose() {
        let p = GenerationParams::default()
            .with_budget(5.0)
            .with_z(1031)
            .with_selection(Selection::Greedy)
            .with_weights(WeightScheme::EffectiveCost);
        assert_eq!(p.budget_pct, 5.0);
        assert_eq!(p.z, 1031);
        assert_eq!(p.selection, Selection::Greedy);
        assert_eq!(p.weights, WeightScheme::EffectiveCost);

        let d = DetectionParams::default()
            .with_t(4)
            .with_k(10)
            .with_scale(5.0);
        assert_eq!(d.t, 4);
        assert_eq!(d.k, 10);
        assert_eq!(d.scale, Some(5.0));
    }
}
