//! Shared result and error types for the splitting algorithms.

use local_runtime::RoundLedger;
use splitgraph::math::weak_splitting_degree_threshold;
use splitgraph::{BipartiteGraph, Color};
use std::error::Error;
use std::fmt;

/// A solved weak-splitting instance: the 2-coloring of the variable side
/// plus the round accounting of the pipeline that produced it.
#[derive(Debug, Clone)]
pub struct SplitOutcome {
    /// Color per variable (right-side node).
    pub colors: Vec<Color>,
    /// Measured + charged rounds of every phase.
    pub ledger: RoundLedger,
}

/// Errors raised by the splitting pipelines.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitError {
    /// A theorem's precondition does not hold for the instance.
    Precondition {
        /// Which requirement failed, in the paper's notation.
        requirement: String,
        /// The offending measured value.
        actual: String,
    },
    /// A randomized phase failed its postcondition on every attempted seed.
    RandomizedFailure {
        /// Which phase failed.
        phase: String,
        /// Number of seeds attempted.
        attempts: usize,
    },
    /// The derandomized fixer started with `Φ ≥ 1`, so the union bound does
    /// not certify success (the instance is outside the guaranteed regime).
    EstimatorTooLarge {
        /// Initial `Φ` value.
        phi: f64,
    },
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::Precondition {
                requirement,
                actual,
            } => {
                write!(
                    f,
                    "precondition violated: need {requirement}, have {actual}"
                )
            }
            SplitError::RandomizedFailure { phase, attempts } => {
                write!(
                    f,
                    "randomized phase '{phase}' failed after {attempts} attempts"
                )
            }
            SplitError::EstimatorTooLarge { phi } => {
                write!(f, "initial pessimistic estimate {phi} is not below 1")
            }
        }
    }
}

impl Error for SplitError {}

/// Checks the `δ ≥ 2·log n` precondition of Lemmas 2.1 and 2.2, Theorem 2.5
/// and the zero-round algorithm, with `n` the node count entering the
/// threshold, and returns the threshold `⌈2·log n⌉`.
pub(crate) fn check_degree_threshold(b: &BipartiteGraph, n: usize) -> Result<usize, SplitError> {
    let threshold = weak_splitting_degree_threshold(n);
    let delta = b.min_left_degree();
    if delta < threshold {
        return Err(SplitError::Precondition {
            requirement: format!("δ ≥ 2·log n = {threshold}"),
            actual: format!("δ = {delta}"),
        });
    }
    Ok(threshold)
}

/// Converts the fixers' `0/1` multicolors into [`Color`]s (`0` → red).
pub fn to_two_coloring(xs: &[splitgraph::MultiColor]) -> Vec<Color> {
    xs.iter()
        .map(|&x| if x == 0 { Color::Red } else { Color::Blue })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SplitError::Precondition {
            requirement: "δ ≥ 2 log n".into(),
            actual: "δ = 3".into(),
        };
        assert!(e.to_string().contains("δ ≥ 2 log n"));
        let e = SplitError::RandomizedFailure {
            phase: "shattering".into(),
            attempts: 5,
        };
        assert!(e.to_string().contains("5 attempts"));
        let e = SplitError::EstimatorTooLarge { phi: 1.5 };
        assert!(e.to_string().contains("1.5"));
    }

    #[test]
    fn two_coloring_conversion() {
        assert_eq!(
            to_two_coloring(&[0, 1, 0]),
            vec![Color::Red, Color::Blue, Color::Red]
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SplitError>();
        assert_send_sync::<SplitOutcome>();
    }
}
