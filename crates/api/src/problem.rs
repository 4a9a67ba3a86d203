//! The problem taxonomy: every solvable workload behind one typed enum,
//! plus the instance and output representations they share.

use crate::error::ApiError;
use degree_split::Engine;
use splitgraph::checks::GraphOrientation;
use splitgraph::{BipartiteGraph, Color, Graph, MultiColor, MultiGraph, Orientation};
use splitting_reductions::EdgeSplitEngine;
use std::fmt;

/// Every workload the paper's landscape covers, as one dispatchable type.
///
/// Problem-specific tuning parameters live on the variant; `Option` fields
/// default to the reproduction's standard choices (documented per field).
/// Determinism policy, seeds, and budgets live on the
/// [`Request`](crate::Request) instead — they are cross-cutting.
///
/// # Problem → pipeline dispatch
///
/// Which theorem of the paper serves each variant, on which instance
/// shape, and which `splitgraph::checks` predicate certifies the output:
///
/// | `Problem` variant | Instance | Route(s) | Certificate |
/// |---|---|---|---|
/// | [`WeakSplitting`](Problem::WeakSplitting) | bipartite | `(n, δ, r)` regime dispatch: δ ≥ 6r → Thm 2.7; δ ≥ 2·log n → Thm 2.5 (det) / zero-round (rand); δ ≥ c·log(r·log n) → Thm 1.2 (rand); overridable via [`Request::force_pipeline`](crate::Request::force_pipeline) | `is_weak_splitting` |
/// | [`WeakMulticolor`](Problem::WeakMulticolor) | bipartite | missing-color fixer (det) / zero-round choice (rand), Def 1.3 | `is_weak_multicolor_splitting` |
/// | [`MulticolorSplitting`](Problem::MulticolorSplitting) `{C, λ}` | bipartite | Chernoff-overload fixer (det) / zero-round choice (rand), Def 1.2 | `is_multicolor_splitting` |
/// | [`UniformSplitting`](Problem::UniformSplitting) `{ε, δ₀}` | host graph | derandomized doubling instance (det) / Las Vegas coin flips (rand), §4.1 | `is_uniform_splitting` |
/// | [`DegreeSplitting`](Problem::DegreeSplitting) `{ε, engine}` | multigraph | Eulerian oracle or walk engine, Thm 2.3 flavor from the determinism policy | `ε·d + 2` contract (per-node / aggregate) |
/// | [`SinklessOrientation`](Problem::SinklessOrientation) | host graph | Figure 1 reduction → Thm 2.7 or rank-2 reference (§2.5) | `is_sinkless` |
/// | [`DeltaColoring`](Problem::DeltaColoring) | host graph | recursive uniform splitting + greedy base (Lemma 4.1) | `is_proper_coloring` |
/// | [`EdgeColoring`](Problem::EdgeColoring) `{engine}` | host graph | recursive edge splitting + greedy base (§1.1, \[GS17\]) | `is_proper_edge_coloring` |
/// | [`Mis`](Problem::Mis) | host graph | heavy-node elimination (Lemma 4.2; randomized-only — a det request is a typed error) | `is_mis` |
///
/// The regime decision for `WeakSplitting` is the single shared
/// [`splitting_core::decide_pipeline`] function, so the pipeline a
/// solution's provenance announces is always the one it decides (pinned
/// by a proptest in `crates/api/tests/dispatch_consistency.rs`).
#[derive(Debug, Clone, PartialEq)]
pub enum Problem {
    /// Weak splitting (Definition 1.1) over a bipartite instance,
    /// dispatched by `(n, δ, r)` regime with
    /// [`splitting_core::decide_pipeline`].
    WeakSplitting {
        /// The Theorem 1.2 constant `c` in `δ ≥ c·log(r·log n)`.
        thm12_constant: f64,
    },
    /// C-weak multicolor splitting (Definition 1.3): every constraint of
    /// degree ≥ `2·log n` misses at least one of the `⌈2·log n⌉` colors.
    WeakMulticolor,
    /// `(C, λ)`-multicolor splitting (Definition 1.2).
    MulticolorSplitting {
        /// Palette bound `C`.
        colors: u32,
        /// Per-color load cap `λ` (each constraint sees at most
        /// `⌈λ·deg⌉` neighbors of any one color).
        lambda: f64,
    },
    /// Uniform (strong) splitting of a host graph (Section 4.1).
    UniformSplitting {
        /// Accuracy `ε`; `None` picks the certified
        /// [`splitting_reductions::feasible_eps`] for the degree floor.
        eps: Option<f64>,
        /// Constrain only nodes of at least this degree; `None` uses the
        /// host's maximum degree.
        min_degree: Option<usize>,
    },
    /// Directed degree splitting of a multigraph (Theorem 2.3 contract).
    DegreeSplitting {
        /// Contract accuracy `ε` in `|out(v) − in(v)| ≤ ε·d(v) + 2`.
        eps: f64,
        /// Which engine computes the orientation.
        engine: Engine,
    },
    /// Sinkless orientation via the Figure 1 / Section 2.5 reduction to
    /// weak splitting (node IDs are `0..n`).
    SinklessOrientation,
    /// `(1 + o(1))·Δ` vertex coloring via recursive splitting (Lemma 4.1).
    DeltaColoring {
        /// Degree at which recursion stops; `None` uses `4·⌈log₂ n⌉`.
        base_degree: Option<usize>,
        /// Per-level accuracy ceiling; `None` uses the engine default.
        max_eps: Option<f64>,
    },
    /// `2Δ(1 + o(1))` edge coloring via recursive edge splitting (§1.1).
    EdgeColoring {
        /// Per-class degree at which recursion stops; `None` uses
        /// `4·⌈log₂ n⌉`.
        base_degree: Option<usize>,
        /// Which engine performs the per-class edge splittings.
        engine: EdgeSplitEngine,
    },
    /// Maximal independent set via heavy-node elimination (Lemma 4.2).
    Mis {
        /// `poly log n` threshold below which the base MIS takes over;
        /// `None` uses `4·⌈log₂ n⌉`.
        base_degree: Option<usize>,
    },
}

impl Problem {
    /// Weak splitting with the default Theorem 1.2 constant, `c = 3`.
    pub fn weak_splitting() -> Self {
        Problem::WeakSplitting {
            thm12_constant: 3.0,
        }
    }

    /// Stable machine-readable name (used in provenance and logs).
    pub fn name(&self) -> &'static str {
        match self {
            Problem::WeakSplitting { .. } => "weak-splitting",
            Problem::WeakMulticolor => "weak-multicolor",
            Problem::MulticolorSplitting { .. } => "multicolor-splitting",
            Problem::UniformSplitting { .. } => "uniform-splitting",
            Problem::DegreeSplitting { .. } => "degree-splitting",
            Problem::SinklessOrientation => "sinkless-orientation",
            Problem::DeltaColoring { .. } => "delta-coloring",
            Problem::EdgeColoring { .. } => "edge-coloring",
            Problem::Mis { .. } => "mis",
        }
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The instance an algorithm runs on. The three shapes the paper uses:
/// bipartite constraint/variable systems, plain host graphs, and
/// multigraphs (for degree splitting, whose intermediate graphs carry
/// parallel edges).
#[derive(Debug, Clone, PartialEq)]
pub enum Instance {
    /// A bipartite constraint/variable instance `B = (U ∪ V, E)`.
    Bipartite(BipartiteGraph),
    /// A simple host graph `G`.
    Host(Graph),
    /// A multigraph (degree-splitting substrate).
    Multi(MultiGraph),
}

impl Instance {
    /// Stable kind name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Instance::Bipartite(_) => "bipartite",
            Instance::Host(_) => "host-graph",
            Instance::Multi(_) => "multigraph",
        }
    }

    /// A one-line parameter summary (for provenance records).
    pub fn summary(&self) -> String {
        match self {
            // same string as the dispatch layer's regime rendering — one
            // format, one source
            Instance::Bipartite(b) => splitting_core::RegimeParams::of(b).to_string(),
            Instance::Host(g) => format!(
                "n = {}, m = {}, δ = {}, Δ = {}",
                g.node_count(),
                g.edge_count(),
                g.min_degree(),
                g.max_degree()
            ),
            Instance::Multi(g) => format!(
                "n = {}, m = {}, Δ = {}",
                g.node_count(),
                g.edge_count(),
                g.max_degree()
            ),
        }
    }

    /// The bipartite instance, or a typed mismatch error.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] when the instance has another shape.
    pub fn bipartite(&self) -> Result<&BipartiteGraph, ApiError> {
        match self {
            Instance::Bipartite(b) => Ok(b),
            other => Err(Self::mismatch("bipartite", other)),
        }
    }

    /// The host graph, or a typed mismatch error.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] when the instance has another shape.
    pub fn host(&self) -> Result<&Graph, ApiError> {
        match self {
            Instance::Host(g) => Ok(g),
            other => Err(Self::mismatch("host-graph", other)),
        }
    }

    /// The multigraph, or a typed mismatch error.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] when the instance has another shape.
    pub fn multigraph(&self) -> Result<&MultiGraph, ApiError> {
        match self {
            Instance::Multi(g) => Ok(g),
            other => Err(Self::mismatch("multigraph", other)),
        }
    }

    fn mismatch(needed: &'static str, got: &Instance) -> ApiError {
        ApiError::InvalidRequest {
            field: "instance",
            reason: format!("problem needs a {needed} instance, got {}", got.kind()),
        }
    }
}

impl From<BipartiteGraph> for Instance {
    fn from(b: BipartiteGraph) -> Self {
        Instance::Bipartite(b)
    }
}

impl From<Graph> for Instance {
    fn from(g: Graph) -> Self {
        Instance::Host(g)
    }
}

impl From<MultiGraph> for Instance {
    fn from(g: MultiGraph) -> Self {
        Instance::Multi(g)
    }
}

/// The solved object, in the representation the matching checker expects.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A red/blue 2-coloring (weak or uniform splitting), indexed by
    /// variable (bipartite instances) or node (host graphs).
    TwoColoring(Vec<Color>),
    /// A multicolor assignment with its palette size — variable colors
    /// (multicolor splitting), node colors (Δ-coloring), or edge colors
    /// (edge coloring, indexed in [`Graph::edges`] order).
    MultiColoring {
        /// The per-element colors.
        colors: Vec<MultiColor>,
        /// Palette size actually used.
        palette: u32,
    },
    /// A multigraph edge orientation (degree splitting).
    EdgeOrientation(Orientation),
    /// A simple-graph orientation in [`Graph::edges`] order (sinkless
    /// orientation).
    HostOrientation(GraphOrientation),
    /// A node subset (MIS).
    IndependentSet(Vec<bool>),
}

impl Output {
    /// Stable kind name for logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Output::TwoColoring(_) => "two-coloring",
            Output::MultiColoring { .. } => "multi-coloring",
            Output::EdgeOrientation(_) => "edge-orientation",
            Output::HostOrientation(_) => "host-orientation",
            Output::IndependentSet(_) => "independent-set",
        }
    }

    /// Number of solved elements (variables, nodes, or edges).
    pub fn len(&self) -> usize {
        match self {
            Output::TwoColoring(xs) => xs.len(),
            Output::MultiColoring { colors, .. } => colors.len(),
            Output::EdgeOrientation(o) => o.edge_count(),
            Output::HostOrientation(o) => o.forward.len(),
            Output::IndependentSet(xs) => xs.len(),
        }
    }

    /// Whether the output covers zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The 2-coloring, when this output is one.
    pub fn two_coloring(&self) -> Option<&[Color]> {
        match self {
            Output::TwoColoring(xs) => Some(xs),
            _ => None,
        }
    }

    /// The multicolor assignment and its palette, when this output is one.
    pub fn multi_coloring(&self) -> Option<(&[MultiColor], u32)> {
        match self {
            Output::MultiColoring { colors, palette } => Some((colors, *palette)),
            _ => None,
        }
    }

    /// The multigraph orientation, when this output is one.
    pub fn edge_orientation(&self) -> Option<&Orientation> {
        match self {
            Output::EdgeOrientation(o) => Some(o),
            _ => None,
        }
    }

    /// The host-graph orientation, when this output is one.
    pub fn host_orientation(&self) -> Option<&GraphOrientation> {
        match self {
            Output::HostOrientation(o) => Some(o),
            _ => None,
        }
    }

    /// The node subset, when this output is one.
    pub fn independent_set(&self) -> Option<&[bool]> {
        match self {
            Output::IndependentSet(xs) => Some(xs),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_shape_mismatch_is_typed() {
        let g = Graph::new(3);
        let inst = Instance::from(g);
        assert_eq!(inst.kind(), "host-graph");
        let err = inst.bipartite().unwrap_err();
        assert_eq!(err.kind(), "invalid-request");
        assert!(err.to_string().contains("host-graph"));
        assert!(inst.host().is_ok());
    }

    #[test]
    fn problem_names_are_stable() {
        assert_eq!(Problem::weak_splitting().name(), "weak-splitting");
        assert_eq!(
            Problem::MulticolorSplitting {
                colors: 6,
                lambda: 0.6
            }
            .name(),
            "multicolor-splitting"
        );
        assert_eq!(
            Problem::SinklessOrientation.to_string(),
            "sinkless-orientation"
        );
    }

    #[test]
    fn output_accessors_roundtrip() {
        let out = Output::TwoColoring(vec![Color::Red, Color::Blue]);
        assert_eq!(out.len(), 2);
        assert!(!out.is_empty());
        assert!(out.two_coloring().is_some());
        assert!(out.multi_coloring().is_none());
        let out = Output::MultiColoring {
            colors: vec![0, 1, 2],
            palette: 3,
        };
        assert_eq!(out.kind(), "multi-coloring");
        assert_eq!(out.multi_coloring().unwrap().1, 3);
    }
}
