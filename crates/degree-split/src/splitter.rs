//! The [`DegreeSplitter`] facade implementing the Theorem 2.3 contract.
//!
//! Both engines produce a [`splitgraph::Orientation`]; they differ in how
//! rounds are accounted:
//!
//! * [`Engine::EulerianOracle`] — the reference engine: discrepancy 0/1 (far
//!   inside the `ε·d + 2` contract), rounds **charged** by the cited
//!   Theorem 2.3 formula (deterministic or randomized flavor).
//! * [`Engine::Walk`] — the genuinely distributed walk-segmentation engine:
//!   discrepancy measured (near `ε·d` on regular inputs), rounds
//!   **measured**.

use crate::charge::{splitting_rounds_deterministic, splitting_rounds_randomized};
use crate::distributed::walk_splitting;
use crate::eulerian::{bipartite_orientation, eulerian_orientation};
use local_runtime::RoundLedger;
use splitgraph::{BipartiteGraph, MultiGraph, Orientation};

/// Which implementation performs the splitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Eulerian reference engine; rounds charged per Theorem 2.3.
    #[default]
    EulerianOracle,
    /// Distributed walk-segmentation engine; rounds measured.
    Walk,
}

/// Whether the charged formula uses the deterministic or randomized flavor
/// of Theorem 2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Flavor {
    /// `O(ε⁻¹ log ε⁻¹ (log log ε⁻¹)^1.71 · log n)`.
    #[default]
    Deterministic,
    /// `O(ε⁻¹ log ε⁻¹ (log log ε⁻¹)^1.71 · log log n)`.
    Randomized,
}

/// A configured directed-degree-splitting subroutine.
///
/// # Examples
///
/// ```
/// use degree_split::{DegreeSplitter, Engine, Flavor};
/// use splitgraph::MultiGraph;
///
/// let mut g = MultiGraph::new(4);
/// for i in 0..4 {
///     g.add_edge(i, (i + 1) % 4);
/// }
/// let splitter = DegreeSplitter::new(0.25, Engine::EulerianOracle, Flavor::Deterministic);
/// let result = splitter.split(&g, 4);
/// // the contract: discrepancy ≤ ε·d(v) + 2 at every node
/// for v in 0..4 {
///     assert!(result.orientation.discrepancy(&g, v) as f64 <= 0.25 * 2.0 + 2.0);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeSplitter {
    eps: f64,
    engine: Engine,
    flavor: Flavor,
}

/// A splitting result: the orientation plus its round ledger.
#[derive(Debug, Clone)]
pub struct SplitResult {
    /// The computed orientation.
    pub orientation: Orientation,
    /// Round accounting (charged for the oracle, measured for the walk
    /// engine).
    pub ledger: RoundLedger,
}

/// A splitting of a bipartite graph's multigraph view over `U ∪ V`,
/// reported as the edges oriented toward the variable side.
#[derive(Debug, Clone)]
pub struct BipartiteSplit {
    /// Per edge, in [`BipartiteGraph::edges`] order: whether it is oriented
    /// from its constraint (left) end toward its variable (right) end.
    pub kept: Vec<bool>,
    /// Round accounting, as for [`DegreeSplitter::split`].
    pub ledger: RoundLedger,
}

impl DegreeSplitter {
    /// Creates a splitter with accuracy `eps`.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1]`.
    pub fn new(eps: f64, engine: Engine, flavor: Flavor) -> Self {
        assert!(eps > 0.0 && eps <= 1.0, "accuracy must lie in (0, 1]");
        DegreeSplitter {
            eps,
            engine,
            flavor,
        }
    }

    /// The configured accuracy.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Splits `g`; `n_for_charge` is the node count entering the charged
    /// complexity formula (the *host* network size, which may exceed
    /// `g.node_count()` when `g` is a derived multigraph).
    pub fn split(&self, g: &MultiGraph, n_for_charge: usize) -> SplitResult {
        match self.engine {
            Engine::EulerianOracle => SplitResult {
                orientation: eulerian_orientation(g),
                ledger: self.charged(n_for_charge),
            },
            Engine::Walk => {
                let out = walk_splitting(g, self.eps);
                SplitResult {
                    orientation: out.orientation,
                    ledger: out.ledger,
                }
            }
        }
    }

    /// Splits the multigraph view of `b` (left `u` at index `u`, right `v`
    /// at `left_count + v`, edge ids in left-major [`BipartiteGraph::edges`]
    /// order, left end first) and returns which edges point toward the
    /// variable side. The oracle engine orients straight from `b`'s rows,
    /// bit-identical to [`DegreeSplitter::split`] on that view; the ledger
    /// is the same as `split`'s.
    ///
    /// # Examples
    ///
    /// ```
    /// use degree_split::{DegreeSplitter, Engine, Flavor};
    /// use splitgraph::generators;
    ///
    /// let b = generators::complete_bipartite(4, 6);
    /// let splitter = DegreeSplitter::new(0.25, Engine::EulerianOracle, Flavor::Deterministic);
    /// let split = splitter.split_bipartite(&b, b.node_count());
    /// // every constraint (degree 6, even) keeps exactly half its edges
    /// assert_eq!(split.kept.iter().filter(|&&k| k).count(), 4 * 3);
    /// ```
    pub fn split_bipartite(&self, b: &BipartiteGraph, n_for_charge: usize) -> BipartiteSplit {
        match self.engine {
            Engine::EulerianOracle => BipartiteSplit {
                kept: bipartite_orientation(b),
                ledger: self.charged(n_for_charge),
            },
            Engine::Walk => {
                let shift = b.left_count();
                let endpoints = b.edges().map(|(u, v)| (u, shift + v)).collect();
                let view = MultiGraph::from_endpoints(b.node_count(), endpoints);
                let r = self.split(&view, n_for_charge);
                BipartiteSplit {
                    kept: (0..view.edge_count())
                        .map(|e| r.orientation.is_towards_second(e))
                        .collect(),
                    ledger: r.ledger,
                }
            }
        }
    }

    /// The oracle's ledger: one charged Theorem 2.3 call on `n` nodes.
    fn charged(&self, n: usize) -> RoundLedger {
        let rounds = match self.flavor {
            Flavor::Deterministic => splitting_rounds_deterministic(self.eps, n),
            Flavor::Randomized => splitting_rounds_randomized(self.eps, n),
        };
        let mut ledger = RoundLedger::new();
        ledger.add_charged("directed degree splitting (Thm 2.3)", rounds);
        ledger
    }

    /// Verifies the Theorem 2.3 contract `|out(v) − in(v)| ≤ ε·d(v) + 2`
    /// for a computed orientation; returns the violating nodes.
    pub fn contract_violations(&self, g: &MultiGraph, orientation: &Orientation) -> Vec<usize> {
        (0..g.node_count())
            .filter(|&v| orientation.discrepancy(g, v) as f64 > self.eps * g.degree(v) as f64 + 2.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_multigraph(n: usize, m: usize, seed: u64) -> MultiGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = MultiGraph::new(n);
        for _ in 0..m {
            let a = rng.random_range(0..n);
            let mut b = rng.random_range(0..n);
            while b == a {
                b = rng.random_range(0..n);
            }
            g.add_edge(a, b);
        }
        g
    }

    #[test]
    fn oracle_always_meets_contract() {
        for seed in 0..10 {
            let g = random_multigraph(25, 80, seed);
            let s = DegreeSplitter::new(0.1, Engine::EulerianOracle, Flavor::Deterministic);
            let r = s.split(&g, 25);
            assert!(s.contract_violations(&g, &r.orientation).is_empty());
            assert!(r.ledger.charged_total() > 0.0);
            assert_eq!(r.ledger.measured_total(), 0.0);
        }
    }

    #[test]
    fn walk_engine_reports_measured_rounds() {
        let g = random_multigraph(25, 80, 3);
        let s = DegreeSplitter::new(0.2, Engine::Walk, Flavor::Deterministic);
        let r = s.split(&g, 25);
        assert!(r.ledger.measured_total() > 0.0);
        assert_eq!(r.ledger.charged_total(), 0.0);
        assert_eq!(r.orientation.edge_count(), 80);
    }

    #[test]
    fn randomized_flavor_charges_less() {
        let g = random_multigraph(30, 60, 1);
        let det = DegreeSplitter::new(0.1, Engine::EulerianOracle, Flavor::Deterministic)
            .split(&g, 1 << 16);
        let rand =
            DegreeSplitter::new(0.1, Engine::EulerianOracle, Flavor::Randomized).split(&g, 1 << 16);
        assert!(rand.ledger.charged_total() < det.ledger.charged_total());
    }

    #[test]
    #[should_panic(expected = "accuracy")]
    fn rejects_eps_zero() {
        let _ = DegreeSplitter::new(0.0, Engine::EulerianOracle, Flavor::Deterministic);
    }

    #[test]
    fn contract_violation_detection_works() {
        // a star oriented all-outward violates any reasonable contract
        let mut g = MultiGraph::new(5);
        for leaf in 1..5 {
            g.add_edge(0, leaf);
        }
        let bad = Orientation::new(vec![true; 4]);
        let s = DegreeSplitter::new(0.01, Engine::EulerianOracle, Flavor::Deterministic);
        assert_eq!(s.contract_violations(&g, &bad), vec![0]);
    }
}
