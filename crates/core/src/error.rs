//! Error type for the core pipeline.

use std::fmt;

/// Errors surfaced by watermark generation and detection.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The histogram has no eligible pairs (e.g. uniform frequencies —
    /// the paper's explicitly unsupported regime).
    NoEligiblePairs,
    /// The similarity budget admits no pair at all.
    BudgetExhausted,
    /// `z` outside the valid range `(2, r_max)` (Sec. IV-A1).
    InvalidModuloBase { z: u64, r_max: u64 },
    /// `z` above [`crate::generate::MAX_MODULO_BASE`] (2^61): larger
    /// pair moduli would overflow the matcher's i64 edge weights.
    ModulusTooLarge { z: u64 },
    /// Budget percentage outside `(0, 100]`.
    InvalidBudget(f64),
    /// The input dataset is empty.
    EmptyDataset,
    /// A malformed secret file / string.
    MalformedSecret(String),
    /// Detection threshold `k` exceeds the number of stored pairs.
    ThresholdTooLarge { k: usize, pairs: usize },
    /// A maintenance update would drive `token`'s count below zero or
    /// past `u64::MAX`.
    CountOutOfRange {
        token: String,
        count: u64,
        delta: i64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoEligiblePairs => {
                write!(
                    f,
                    "no eligible token pairs (insufficient frequency variation)"
                )
            }
            Error::BudgetExhausted => write!(f, "similarity budget admits no watermark pair"),
            Error::InvalidModuloBase { z, r_max } => {
                write!(f, "modulo base z={z} outside valid range (2, {r_max})")
            }
            Error::ModulusTooLarge { z } => write!(
                f,
                "modulo base z={z} exceeds 2^61, the largest the pair matcher's i64 weights admit"
            ),
            Error::InvalidBudget(b) => write!(f, "budget {b}% outside (0, 100]"),
            Error::EmptyDataset => write!(f, "input dataset is empty"),
            Error::MalformedSecret(msg) => write!(f, "malformed secret: {msg}"),
            Error::ThresholdTooLarge { k, pairs } => {
                write!(
                    f,
                    "detection threshold k={k} exceeds stored pairs ({pairs})"
                )
            }
            Error::CountOutOfRange {
                token,
                count,
                delta,
            } => write!(
                f,
                "update {delta:+} to {token} (count {count}) leaves the range 0..=u64::MAX"
            ),
        }
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(Error::NoEligiblePairs.to_string().contains("eligible"));
        assert!(Error::InvalidModuloBase { z: 1, r_max: 50 }
            .to_string()
            .contains("z=1"));
        assert!(Error::ModulusTooLarge { z: u64::MAX }
            .to_string()
            .contains("exceeds 2^61"));
        assert!(Error::InvalidBudget(0.0).to_string().contains("0"));
        assert!(Error::ThresholdTooLarge { k: 5, pairs: 2 }
            .to_string()
            .contains("k=5"));
        assert!(Error::MalformedSecret("bad line".into())
            .to_string()
            .contains("bad line"));
        assert!(Error::CountOutOfRange {
            token: "x".into(),
            count: 3,
            delta: -4
        }
        .to_string()
        .contains("-4 to x (count 3)"));
    }
}
