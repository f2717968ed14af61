//! FreqyWM core: the paper's primary contribution.
//!
//! # Overview
//!
//! `WM_Generate` (Algorithm I) embeds a watermark into a token dataset
//! by nudging the frequencies of secretly chosen token pairs so that
//! each pair `(tk_i, tk_j)` satisfies `(f_i − f_j) mod s_ij ≡ 0`,
//! where `s_ij = H(tk_i ‖ H(R ‖ tk_j)) mod z` is derived from the
//! owner's high-entropy secret `R`. `WM_Detect` (Algorithm II)
//! re-derives the moduli and accepts the dataset if at least `k` of
//! the stored pairs still satisfy the congruence up to a tolerance `t`.
//!
//! # Pipeline
//!
//! 1. [`eligible`] — histogram + rank boundaries → the eligible-pair
//!    set `L_e` (Ranking Constraint);
//! 2. [`select`] — optimal (blossom MWM + equally-valued knapsack) or
//!    greedy/random heuristic selection under the similarity budget
//!    `b` (Similarity Constraint) → `L_wm`;
//! 3. [`modify`] — the ceil/floor frequency modification rule;
//! 4. [`generate`] / [`detect`] — the public `WM_Generate` /
//!    `WM_Detect` entry points over histograms, datasets and tables;
//! 5. [`secret`] — serialisable secret list `L_sc = {L_wm, R, z}`;
//! 6. [`multiwm`] — successive multi-watermarking (Sec. VI), and
//!    [`incremental`] — watermark maintenance under dataset updates
//!    (the paper's "Incremental FreqyWM" future work, implemented);
//! 7. [`judge`] — the re-watermarking dispute protocol (Sec. V-D).

pub mod detect;
pub mod eligible;
pub mod error;
pub mod generate;
pub mod incremental;
pub mod judge;
pub mod modify;
pub mod multiwm;
pub mod params;
pub mod secret;
pub mod select;

pub use detect::{
    detect_dataset, detect_histogram, verify_pairs, DetectTotals, DetectionOutcome, PairCheck,
    PairCounts, PairVerdict,
};
pub use error::{Error, Result};
pub use generate::{GenerationOutput, GenerationReport, Watermarker};
pub use incremental::{IncrementalWatermarker, MaintenanceReport};
pub use judge::{judge_dispute, Claim, Verdict};
pub use params::{DetectionParams, DetectionRule, GenerationParams, Selection, WeightScheme};
pub use secret::SecretList;
