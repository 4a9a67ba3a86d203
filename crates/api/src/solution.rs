//! The solution bundle: output + self-verifying certificate + provenance
//! + round ledger.

use crate::error::ApiError;
use crate::problem::{Instance, Output};
use crate::render::JsonObject;
use crate::request::Determinism;
use local_runtime::RoundLedger;
use splitgraph::checks;
use splitting_core::Pipeline;
use std::fmt;

/// Which `splitgraph::checks` predicate certifies the output, with the
/// parameters it was solved under. The certificate is *self-verifying*:
/// [`Certificate::verify`] re-runs the exact ground-truth checker the
/// conformance harness uses, against any instance/output pair.
#[derive(Debug, Clone, PartialEq)]
pub enum CertificateKind {
    /// [`checks::weak_splitting_violations`] at the given degree floor.
    WeakSplitting {
        /// Constraints below this degree are unconstrained.
        min_degree: usize,
    },
    /// [`checks::weak_multicolor_violations`] (Definition 1.3).
    WeakMulticolor {
        /// The Definition 1.3 degree threshold (`2·log n`).
        threshold: usize,
        /// Required palette (`⌈2·log n⌉`).
        palette: usize,
    },
    /// [`checks::multicolor_splitting_violations`] (Definition 1.2).
    MulticolorSplitting {
        /// Per-color load cap `λ`.
        lambda: f64,
        /// Constraints below this degree are unconstrained.
        min_degree: usize,
    },
    /// [`checks::uniform_splitting_violations`] (Section 4.1).
    UniformSplitting {
        /// Accuracy `ε`.
        eps: f64,
        /// Nodes below this degree are unconstrained.
        min_degree: usize,
    },
    /// The Theorem 2.3 degree-splitting contract
    /// `|out(v) − in(v)| ≤ ε·d(v) + 2`.
    DegreeSplitContract {
        /// Contract accuracy `ε`.
        eps: f64,
        /// `false`: per-node (the Eulerian oracle's strength);
        /// `true`: aggregated over all nodes (the walk engine's
        /// documented strength on irregular multigraphs).
        aggregate: bool,
    },
    /// [`checks::sink_violations`] at the given degree floor.
    Sinkless {
        /// Nodes below this degree may be sinks.
        min_degree: usize,
    },
    /// [`checks::proper_coloring_violations`].
    ProperColoring,
    /// [`checks::edge_coloring_violations`].
    ProperEdgeColoring,
    /// [`checks::mis_violations`] (independence + maximality).
    MaximalIndependentSet,
}

impl CertificateKind {
    /// Stable name for logs and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            CertificateKind::WeakSplitting { .. } => "weak-splitting",
            CertificateKind::WeakMulticolor { .. } => "weak-multicolor",
            CertificateKind::MulticolorSplitting { .. } => "multicolor-splitting",
            CertificateKind::UniformSplitting { .. } => "uniform-splitting",
            CertificateKind::DegreeSplitContract { .. } => "degree-split-contract",
            CertificateKind::Sinkless { .. } => "sinkless",
            CertificateKind::ProperColoring => "proper-coloring",
            CertificateKind::ProperEdgeColoring => "proper-edge-coloring",
            CertificateKind::MaximalIndependentSet => "maximal-independent-set",
        }
    }
}

/// A verification record bound to one solution.
///
/// The [`Session`](crate::Session) verifies every solution before
/// returning it, so a certificate in a returned [`Solution`] always
/// holds; `verify` lets callers (and the conformance harness) re-run the
/// ground-truth predicate at any later point.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    kind: CertificateKind,
    violations: usize,
}

impl Certificate {
    /// Verifies `output` against `instance` under the `kind` predicate
    /// and returns the resulting certificate.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] when the output or instance shape
    /// does not match the predicate (e.g. an orientation checked as a
    /// coloring).
    pub fn verify(
        kind: CertificateKind,
        instance: &Instance,
        output: &Output,
    ) -> Result<Certificate, ApiError> {
        let violations = count_violations(&kind, instance, output)?;
        Ok(Certificate { kind, violations })
    }

    /// A certificate whose violation count the caller established over
    /// the whole instance by other means (churn repair: the halo's rows
    /// counted, every other row carried from a certificate that held).
    pub(crate) fn counted(kind: CertificateKind, violations: usize) -> Certificate {
        Certificate { kind, violations }
    }

    /// The predicate and parameters this certificate ran.
    pub fn kind(&self) -> &CertificateKind {
        &self.kind
    }

    /// Number of violated local constraints at verification time.
    pub fn violations(&self) -> usize {
        self.violations
    }

    /// Whether the certificate holds (no violations).
    pub fn holds(&self) -> bool {
        self.violations == 0
    }

    /// Converts a failed certificate into the boundary error.
    pub(crate) fn into_error(self) -> ApiError {
        ApiError::CertificateViolation {
            kind: self.kind.name(),
            violations: self.violations,
        }
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.holds() {
            write!(f, "{} certificate holds", self.kind.name())
        } else {
            write!(
                f,
                "{} certificate FAILS with {} violations",
                self.kind.name(),
                self.violations
            )
        }
    }
}

fn shape_error(kind: &CertificateKind, detail: &str) -> ApiError {
    ApiError::InvalidRequest {
        field: "certificate",
        reason: format!("{} predicate: {detail}", kind.name()),
    }
}

fn count_violations(
    kind: &CertificateKind,
    instance: &Instance,
    output: &Output,
) -> Result<usize, ApiError> {
    match kind {
        CertificateKind::WeakSplitting { min_degree } => {
            let b = instance.bipartite()?;
            let colors = output
                .two_coloring()
                .ok_or_else(|| shape_error(kind, "needs a two-coloring output"))?;
            if colors.len() != b.right_count() {
                return Err(shape_error(kind, "coloring/variable-count mismatch"));
            }
            Ok(checks::weak_splitting_violations(b, colors, *min_degree).len())
        }
        CertificateKind::WeakMulticolor { threshold, palette } => {
            let b = instance.bipartite()?;
            let (colors, _) = output
                .multi_coloring()
                .ok_or_else(|| shape_error(kind, "needs a multi-coloring output"))?;
            if colors.len() != b.right_count() {
                return Err(shape_error(kind, "coloring/variable-count mismatch"));
            }
            Ok(checks::weak_multicolor_violations(b, colors, *threshold, *palette).len())
        }
        CertificateKind::MulticolorSplitting { lambda, min_degree } => {
            let b = instance.bipartite()?;
            let (colors, palette) = output
                .multi_coloring()
                .ok_or_else(|| shape_error(kind, "needs a multi-coloring output"))?;
            if colors.len() != b.right_count() {
                return Err(shape_error(kind, "coloring/variable-count mismatch"));
            }
            if colors.iter().any(|&x| x >= palette) {
                return Err(shape_error(kind, "color outside the declared palette"));
            }
            Ok(
                checks::multicolor_splitting_violations(b, colors, palette, *lambda, *min_degree)
                    .len(),
            )
        }
        CertificateKind::UniformSplitting { eps, min_degree } => {
            let g = instance.host()?;
            let sides = output
                .two_coloring()
                .ok_or_else(|| shape_error(kind, "needs a two-coloring output"))?;
            if sides.len() != g.node_count() {
                return Err(shape_error(kind, "coloring/node-count mismatch"));
            }
            Ok(checks::uniform_splitting_violations(g, sides, *eps, *min_degree).len())
        }
        CertificateKind::DegreeSplitContract { eps, aggregate } => {
            let g = instance.multigraph()?;
            let o = output
                .edge_orientation()
                .ok_or_else(|| shape_error(kind, "needs an edge-orientation output"))?;
            if o.edge_count() != g.edge_count() {
                return Err(shape_error(kind, "orientation/edge-count mismatch"));
            }
            let n = g.node_count();
            if *aggregate {
                // the walk engine's documented strength: cuts can
                // concentrate on single nodes of irregular multigraphs,
                // so the ε·d + 2 budget is asserted in aggregate
                let total: f64 = (0..n).map(|v| o.discrepancy(g, v) as f64).sum();
                let budget: f64 = (0..n).map(|v| eps * g.degree(v) as f64 + 2.0).sum();
                Ok(usize::from(total > budget))
            } else {
                Ok((0..n)
                    .filter(|&v| o.discrepancy(g, v) as f64 > eps * g.degree(v) as f64 + 2.0)
                    .count())
            }
        }
        CertificateKind::Sinkless { min_degree } => {
            let g = instance.host()?;
            let o = output
                .host_orientation()
                .ok_or_else(|| shape_error(kind, "needs a host-orientation output"))?;
            if o.forward.len() != g.edge_count() {
                return Err(shape_error(kind, "orientation/edge-count mismatch"));
            }
            Ok(checks::sink_violations(g, o, *min_degree).len())
        }
        CertificateKind::ProperColoring => {
            let g = instance.host()?;
            let (colors, _) = output
                .multi_coloring()
                .ok_or_else(|| shape_error(kind, "needs a multi-coloring output"))?;
            if colors.len() != g.node_count() {
                return Err(shape_error(kind, "coloring/node-count mismatch"));
            }
            Ok(checks::proper_coloring_violations(g, colors).len())
        }
        CertificateKind::ProperEdgeColoring => {
            let g = instance.host()?;
            let (colors, _) = output
                .multi_coloring()
                .ok_or_else(|| shape_error(kind, "needs a multi-coloring output"))?;
            if colors.len() != g.edge_count() {
                return Err(shape_error(kind, "coloring/edge-count mismatch"));
            }
            Ok(checks::edge_coloring_violations(g, colors).len())
        }
        CertificateKind::MaximalIndependentSet => {
            let g = instance.host()?;
            let in_set = output
                .independent_set()
                .ok_or_else(|| shape_error(kind, "needs an independent-set output"))?;
            if in_set.len() != g.node_count() {
                return Err(shape_error(kind, "set/node-count mismatch"));
            }
            let (independence, maximality) = checks::mis_violations(g, in_set);
            Ok(independence.len() + maximality.len())
        }
    }
}

/// Why the session solved the request the way it did: the chosen route,
/// the regime parameters that drove the choice, and the policy inputs —
/// a record attached to every solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// The problem's stable name.
    pub problem: &'static str,
    /// The executed route's stable name (e.g. `theorem25`,
    /// `uniform/las-vegas`, `degree-split/walk`).
    pub route: &'static str,
    /// The weak-splitting pipeline, when the route is one (what
    /// [`splitting_core::decide_pipeline`] chose, or the request's
    /// override).
    pub pipeline: Option<Pipeline>,
    /// The determinism policy in force.
    pub determinism: Determinism,
    /// The master seed the request carried.
    pub seed: u64,
    /// Instance regime parameters at dispatch time.
    pub regime: String,
    /// Why this route was chosen, in the paper's notation.
    pub why: String,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} via {} ({}; {}): {}",
            self.problem, self.route, self.regime, self.determinism, self.why
        )
    }
}

/// A solved request: output, certificate, provenance, and round ledger.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The solved object.
    pub output: Output,
    /// The verification record ([`Certificate::holds`] is always true on
    /// solutions returned by a session).
    pub certificate: Certificate,
    /// The dispatch record.
    pub provenance: Provenance,
    /// Measured + charged rounds of every phase.
    pub ledger: RoundLedger,
}

impl Solution {
    /// Re-runs the ground-truth predicate against `instance` (normally
    /// the one the request carried) and reports whether it still holds.
    pub fn reverify(&self, instance: &Instance) -> bool {
        Certificate::verify(self.certificate.kind().clone(), instance, &self.output)
            .map(|c| c.holds())
            .unwrap_or(false)
    }

    /// One-line JSON rendering for service logs (serde-free, stable
    /// field order).
    pub fn to_json_line(&self) -> String {
        let mut cert = JsonObject::new();
        cert.string("kind", self.certificate.kind().name())
            .bool("holds", self.certificate.holds())
            .uint("violations", self.certificate.violations() as u64);
        let mut rounds = JsonObject::new();
        rounds
            .float("measured", self.ledger.measured_total())
            .float("charged", self.ledger.charged_total());
        let mut output = JsonObject::new();
        output
            .string("type", self.output.kind())
            .uint("len", self.output.len() as u64);
        if let Some((_, palette)) = self.output.multi_coloring() {
            output.uint("palette", u64::from(palette));
        }
        let mut obj = JsonObject::new();
        obj.string("event", "solution")
            .string("problem", self.provenance.problem)
            .string("route", self.provenance.route)
            .string("determinism", self.provenance.determinism.name())
            .uint("seed", self.provenance.seed)
            .string("regime", &self.provenance.regime)
            .string("why", &self.provenance.why)
            .raw("certificate", &cert.finish())
            .raw("rounds", &rounds.finish())
            .raw("output", &output.finish());
        obj.finish()
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → {} over {} elements; {}; rounds: {:.1} measured + {:.1} charged",
            self.provenance,
            self.output.kind(),
            self.output.len(),
            self.certificate,
            self.ledger.measured_total(),
            self.ledger.charged_total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitgraph::{BipartiteGraph, Color};

    fn tiny_instance() -> Instance {
        // one constraint over two variables, both colors present
        let b = BipartiteGraph::from_edges(1, 2, &[(0, 0), (0, 1)]).unwrap();
        Instance::Bipartite(b)
    }

    #[test]
    fn weak_splitting_certificate_verifies() {
        let inst = tiny_instance();
        let good = Output::TwoColoring(vec![Color::Red, Color::Blue]);
        let cert = Certificate::verify(
            CertificateKind::WeakSplitting { min_degree: 0 },
            &inst,
            &good,
        )
        .unwrap();
        assert!(cert.holds());
        let bad = Output::TwoColoring(vec![Color::Red, Color::Red]);
        let cert = Certificate::verify(
            CertificateKind::WeakSplitting { min_degree: 0 },
            &inst,
            &bad,
        )
        .unwrap();
        assert!(!cert.holds());
        assert_eq!(cert.violations(), 1);
        assert_eq!(cert.into_error().kind(), "certificate-violation");
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let inst = tiny_instance();
        let wrong = Output::IndependentSet(vec![true]);
        let err = Certificate::verify(
            CertificateKind::WeakSplitting { min_degree: 0 },
            &inst,
            &wrong,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "invalid-request");
    }
}
