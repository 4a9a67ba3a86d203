//! The weak-splitting regime dispatch.
//!
//! Picks the theorem whose precondition an instance's `(n, δ, r)`
//! parameters meet, mirroring the case analysis running through the
//! paper: `δ ≥ 6r` → Theorem 2.7; `δ ≥ 2·log n` → Theorem 2.5
//! (deterministic) or the zero-round algorithm (randomized);
//! `δ ≥ c·log(r·log n)` → Theorem 1.2 (randomized only). Anything below
//! those regimes is exactly the open territory the paper maps out. The
//! `splitting-api` session runs the chosen pipeline.

use splitgraph::math::weak_splitting_degree_threshold;
use splitgraph::BipartiteGraph;
use std::fmt;

/// Which pipeline the dispatcher chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// Theorem 2.7 (`δ ≥ 6r`).
    Theorem27,
    /// Theorem 2.5 (deterministic, `δ ≥ 2·log n`).
    Theorem25,
    /// Zero-round randomized (`δ ≥ 2·log n`).
    ZeroRound,
    /// Theorem 1.2 (randomized, `δ ≥ c·log(r·log n)`).
    Theorem12,
}

impl Pipeline {
    /// Stable display name (used in provenance records and service logs).
    pub fn name(self) -> &'static str {
        match self {
            Pipeline::Theorem27 => "theorem27",
            Pipeline::Theorem25 => "theorem25",
            Pipeline::ZeroRound => "zero-round",
            Pipeline::Theorem12 => "theorem12",
        }
    }
}

/// The coverage requirement of the dispatcher, in the paper's notation —
/// the single source for every "uncovered regime" error message.
pub const DISPATCH_REQUIREMENT: &str =
    "one of: δ ≥ 6r; δ ≥ 2·log n; randomized and δ ≥ c·log(r·log n)";

/// The `(n, δ, r)` parameters entering the dispatch decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegimeParams {
    /// Total node count `n = |U| + |V|`.
    pub n: usize,
    /// Minimum constraint degree `δ`.
    pub delta: usize,
    /// Rank `r` (maximum variable degree).
    pub rank: usize,
}

impl RegimeParams {
    /// Reads the dispatch parameters off an instance.
    pub fn of(b: &BipartiteGraph) -> Self {
        RegimeParams {
            n: b.node_count(),
            delta: b.min_left_degree(),
            rank: b.rank(),
        }
    }
}

impl fmt::Display for RegimeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "δ = {}, r = {}, n = {}", self.delta, self.rank, self.n)
    }
}

/// The one shared regime-dispatch decision, mirroring the case analysis
/// running through the paper: `δ ≥ 6r` → Theorem 2.7; `δ ≥ 2·log n` →
/// Theorem 2.5 (deterministic) or the zero-round algorithm (randomized);
/// `δ ≥ c·log(r·log n)` → Theorem 1.2 (randomized only).
///
/// The `splitting-api` session routes every weak-splitting request
/// through this function, so the pipeline a solution's provenance
/// announces is the one this function chose.
pub fn decide_pipeline(
    allow_randomized: bool,
    thm12_constant: f64,
    p: RegimeParams,
) -> Option<Pipeline> {
    let RegimeParams { n, delta, rank } = p;
    if delta >= 6 * rank && delta >= 2 {
        return Some(Pipeline::Theorem27);
    }
    if delta >= weak_splitting_degree_threshold(n) {
        return Some(if allow_randomized {
            Pipeline::ZeroRound
        } else {
            Pipeline::Theorem25
        });
    }
    if allow_randomized {
        let req = thm12_constant
            * splitgraph::math::log2(
                ((rank.max(1) as f64) * splitgraph::math::log2(n.max(2))).ceil() as usize + 1,
            );
        if delta as f64 >= req {
            return Some(Pipeline::Theorem12);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::generators;

    fn plan(b: &BipartiteGraph, allow_randomized: bool, c: f64) -> Option<Pipeline> {
        decide_pipeline(allow_randomized, c, RegimeParams::of(b))
    }

    #[test]
    fn dispatches_theorem27_for_skewed_instances() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = generators::random_biregular(12, 72, 12, &mut rng).unwrap();
        assert_eq!(plan(&b, false, 3.0), Some(Pipeline::Theorem27));
        assert_eq!(plan(&b, true, 3.0), Some(Pipeline::Theorem27));
    }

    #[test]
    fn dispatches_theorem25_or_zero_round_above_two_log_n() {
        let mut rng = StdRng::seed_from_u64(2);
        let b = generators::random_biregular(100, 100, 20, &mut rng).unwrap();
        assert_eq!(plan(&b, false, 3.0), Some(Pipeline::Theorem25));
        assert_eq!(plan(&b, true, 3.0), Some(Pipeline::ZeroRound));
    }

    #[test]
    fn dispatches_theorem12_in_the_shattering_window() {
        let mut rng = StdRng::seed_from_u64(7);
        // δ = 24 < 2·log n ≈ 27 but ≥ c·log(r·log n): the Theorem 1.2 window
        let b = generators::random_biregular(1024, 4096, 24, &mut rng).unwrap();
        assert_eq!(plan(&b, true, 1.5), Some(Pipeline::Theorem12));
        // deterministic-only mode has no pipeline for this window
        assert_eq!(plan(&b, false, 1.5), None);
    }

    #[test]
    fn uncovered_regime_reported() {
        let mut rng = StdRng::seed_from_u64(4);
        // δ = 4: below every regime
        let b = generators::random_biregular(128, 256, 4, &mut rng).unwrap();
        assert_eq!(plan(&b, true, 3.0), None);
        assert_eq!(plan(&b, false, 3.0), None);
    }
}
