//! The session: solves requests, verifying every solution against its
//! certificate before returning it.

use crate::error::ApiError;
use crate::problem::{Output, Problem};
use crate::request::{Determinism, Request};
use crate::solution::{Certificate, CertificateKind, Provenance, Solution};
use degree_split::{DegreeSplitter, Engine, Flavor};
use local_runtime::{CancelToken, RoundLedger};
use splitgraph::checks;
use splitgraph::math::{
    ceil_log2, weak_multicolor_degree_threshold, weak_multicolor_required_colors,
};
use splitting_core as core;
use splitting_core::{decide_pipeline, Pipeline, RegimeParams, DISPATCH_REQUIREMENT};
use splitting_reductions as red;

/// Default retry budget of the zero-round Las Vegas wrapper, when the
/// request sets no `attempts` budget.
const ZERO_ROUND_ATTEMPTS: usize = 32;
/// Legacy retry budget of the uniform-splitting Las Vegas loop.
const UNIFORM_ATTEMPTS: usize = 16;

/// A solving session.
///
/// Sessions hold no state: one session can serve any number of
/// [`solve`](Session::solve) calls, and solves each request on the calling
/// thread. Request-level parallelism belongs to the caller (`splitd`'s
/// worker pool).
#[derive(Debug, Clone, Copy, Default)]
pub struct Session;

impl Session {
    /// A session.
    pub fn new() -> Self {
        Session
    }

    /// The same session as [`Session::new`]; the argument is ignored.
    /// Kept only because the end-to-end benchmark's probe
    /// (`perfbench/probe`), which is versioned with the benchmark rather
    /// than the library, still calls it.
    #[doc(hidden)]
    pub fn with_threads(_threads: usize) -> Self {
        Session
    }

    /// Solves one request.
    ///
    /// The returned solution's certificate has been verified against the
    /// matching `splitgraph::checks` predicate; an output that fails its
    /// own certificate is never returned (it becomes
    /// [`ApiError::CertificateViolation`]).
    ///
    /// # Errors
    ///
    /// Any [`ApiError`]: malformed requests, uncovered regimes,
    /// exhausted randomized retries, uncertifiable derandomization,
    /// failed certificates, or busted round budgets.
    pub fn solve(&self, request: &Request) -> Result<Solution, ApiError> {
        match request.budget().deadline_ms {
            None => self.solve_uncancellable(request),
            Some(ms) => {
                let deadline = std::time::Instant::now() + std::time::Duration::from_millis(ms);
                self.solve_with_cancel(request, &CancelToken::with_deadline(deadline))
            }
        }
    }

    /// Solves one request under an externally-owned cancellation token
    /// (in addition to any `deadline_ms` budget already folded into
    /// `token` by the caller). The solve is abandoned at the next
    /// cooperative checkpoint once the token trips — this is the entry
    /// the `splitd` workers use so an over-budget job releases its
    /// worker back to the pool.
    ///
    /// # Errors
    ///
    /// Exactly like [`solve`](Session::solve), plus
    /// [`ApiError::DeadlineExceeded`] (stage `"solving"`) when `token`
    /// cancels the solve.
    pub fn solve_with_cancel(
        &self,
        request: &Request,
        token: &CancelToken,
    ) -> Result<Solution, ApiError> {
        match local_runtime::with_token(token, || self.solve_uncancellable(request)) {
            Ok(result) => result,
            Err(local_runtime::Cancelled) => Err(ApiError::DeadlineExceeded {
                stage: "solving",
                deadline_ms: request.budget().deadline_ms.unwrap_or(0),
            }),
        }
    }

    fn solve_uncancellable(&self, request: &Request) -> Result<Solution, ApiError> {
        let solution = dispatch(request)?;
        if !solution.certificate.holds() {
            return Err(solution.certificate.into_error());
        }
        if let Some(budget) = request.budget().max_rounds {
            let needed = solution.ledger.total();
            if needed > budget {
                return Err(ApiError::BudgetExceeded { budget, needed });
            }
        }
        Ok(solution)
    }
}

/// Solves one request on a throwaway session — the convenience entry for
/// one-off callers.
///
/// # Errors
///
/// Exactly like [`Session::solve`].
pub fn solve(request: &Request) -> Result<Solution, ApiError> {
    Session::new().solve(request)
}

// ------------------------------------------------------------- dispatch

/// The reproduction's standard `poly log n` base-case threshold for the
/// Section 4 recursions: `4·⌈log₂ n⌉`, floored at 1.
fn default_base_degree(n: usize) -> usize {
    (4 * ceil_log2(n.max(2)) as usize).max(1)
}

/// Verifies `output` against the request's instance and wraps it with
/// its provenance. `dispatch` is the weak-splitting pipeline with the
/// regime it was chosen on, which is then the provenance's regime
/// without a second pass over the instance.
pub(crate) fn certified_solution(
    request: &Request,
    kind: CertificateKind,
    output: Output,
    ledger: RoundLedger,
    route: &'static str,
    dispatch: Option<(Pipeline, RegimeParams)>,
    why: String,
) -> Result<Solution, ApiError> {
    let certificate = Certificate::verify(kind, request.instance(), &output)?;
    let regime = match dispatch {
        Some((_, params)) => params.to_string(),
        None => request.instance().summary(),
    };
    Ok(Solution {
        output,
        certificate,
        provenance: Provenance {
            problem: request.problem().name(),
            route,
            pipeline: dispatch.map(|(p, _)| p),
            determinism: request.determinism(),
            seed: request.master_seed(),
            regime,
            why,
        },
        ledger,
    })
}

fn dispatch(request: &Request) -> Result<Solution, ApiError> {
    match *request.problem() {
        Problem::WeakSplitting { thm12_constant } => weak_splitting(request, thm12_constant),
        Problem::WeakMulticolor => weak_multicolor(request),
        Problem::MulticolorSplitting { colors, lambda } => multicolor(request, colors, lambda),
        Problem::UniformSplitting { eps, min_degree } => uniform(request, eps, min_degree),
        Problem::DegreeSplitting { eps, engine } => degree_splitting(request, eps, engine),
        Problem::SinklessOrientation => sinkless(request),
        Problem::DeltaColoring {
            base_degree,
            max_eps,
        } => delta_coloring(request, base_degree, max_eps),
        Problem::EdgeColoring {
            base_degree,
            engine,
        } => edge_coloring(request, base_degree, engine),
        Problem::Mis { base_degree } => mis(request, base_degree),
    }
}

fn weak_splitting(request: &Request, thm12_constant: f64) -> Result<Solution, ApiError> {
    if !(thm12_constant.is_finite() && thm12_constant > 0.0) {
        return Err(ApiError::InvalidRequest {
            field: "thm12_constant",
            reason: format!("must be a positive finite constant, got {thm12_constant}"),
        });
    }
    let b = request.instance().bipartite()?;
    let params = RegimeParams::of(b);
    let allow_randomized = request.determinism() == Determinism::Randomized;
    let seed = request.master_seed();
    let (pipeline, why) = weak_splitting_route(request, thm12_constant, params)?;
    // the one per-pipeline arm: each pipeline's theorem entrypoint,
    // seeded with the request's master seed
    let out = match pipeline {
        Pipeline::Theorem27 => {
            let variant = if allow_randomized {
                core::Variant::Randomized(seed)
            } else {
                core::Variant::Deterministic
            };
            core::theorem27(b, variant)?
        }
        Pipeline::Theorem25 => core::theorem25(b, Flavor::Deterministic).map(|(o, _)| o)?,
        Pipeline::ZeroRound => core::zero_round_whp(
            b,
            seed,
            request.budget().attempts.unwrap_or(ZERO_ROUND_ATTEMPTS),
        )?,
        Pipeline::Theorem12 => {
            let mut cfg = core::Theorem12Config {
                seed,
                c_constant: thm12_constant,
                ..core::Theorem12Config::default()
            };
            if let Some(attempts) = request.budget().attempts {
                cfg.attempts = attempts;
            }
            core::theorem12(b, &cfg)?
        }
    };
    certified_solution(
        request,
        CertificateKind::WeakSplitting { min_degree: 0 },
        Output::TwoColoring(out.colors),
        out.ledger,
        pipeline.name(),
        Some((pipeline, params)),
        why,
    )
}

/// The weak-splitting pipeline `request` runs on an instance with
/// `params`, and why: its override (never a randomized one on a
/// deterministic request), else the regime dispatcher's choice. Churn
/// repair re-checks it after every update.
pub(crate) fn weak_splitting_route(
    request: &Request,
    thm12_constant: f64,
    params: RegimeParams,
) -> Result<(Pipeline, String), ApiError> {
    let allow_randomized = request.determinism() == Determinism::Randomized;
    match request.pipeline_override() {
        // the override cannot launder randomness past the policy: a
        // deterministic request may only force deterministic pipelines
        Some(p) if !allow_randomized && matches!(p, Pipeline::ZeroRound | Pipeline::Theorem12) => {
            Err(ApiError::InvalidRequest {
                field: "pipeline_override",
                reason: format!(
                    "pipeline {} is randomized but the request is deterministic",
                    p.name()
                ),
            })
        }
        Some(p) => Ok((
            p,
            format!("pipeline {} forced by request override", p.name()),
        )),
        None => match decide_pipeline(allow_randomized, thm12_constant, params) {
            Some(p) => Ok((p, dispatch_reason(p, params, thm12_constant))),
            None => Err(ApiError::UnsupportedRegime {
                requirement: DISPATCH_REQUIREMENT.into(),
                actual: params.to_string(),
            }),
        },
    }
}

fn dispatch_reason(pipeline: Pipeline, p: RegimeParams, c: f64) -> String {
    match pipeline {
        Pipeline::Theorem27 => format!("δ = {} ≥ 6r = {}", p.delta, 6 * p.rank),
        Pipeline::Theorem25 => format!("deterministic and δ = {} ≥ 2·log n", p.delta),
        Pipeline::ZeroRound => format!("randomized and δ = {} ≥ 2·log n", p.delta),
        Pipeline::Theorem12 => {
            format!(
                "randomized and δ = {} ≥ c·log(r·log n) with c = {c}",
                p.delta
            )
        }
    }
}

fn weak_multicolor(request: &Request) -> Result<Solution, ApiError> {
    let b = request.instance().bipartite()?;
    let n = b.node_count();
    let kind = CertificateKind::WeakMulticolor {
        threshold: weak_multicolor_degree_threshold(n),
        palette: weak_multicolor_required_colors(n),
    };
    let (out, route, why) = match request.determinism() {
        Determinism::Deterministic => (
            core::weak_multicolor_deterministic(b)?,
            "weak-multicolor/compiled",
            "missing-color estimator, SLOCAL(2) → LOCAL compilation (Thm 3.2)".to_string(),
        ),
        Determinism::Randomized => (
            core::weak_multicolor_random(b, request.master_seed()),
            "weak-multicolor/zero-round",
            "one uniform color choice per variable (zero rounds)".to_string(),
        ),
    };
    certified_solution(
        request,
        kind,
        Output::MultiColoring {
            colors: out.colors,
            palette: out.palette,
        },
        out.ledger,
        route,
        None,
        why,
    )
}

fn multicolor(request: &Request, colors: u32, lambda: f64) -> Result<Solution, ApiError> {
    if colors < 2 {
        return Err(ApiError::InvalidRequest {
            field: "colors",
            reason: format!("palette bound C must be at least 2, got {colors}"),
        });
    }
    if !(lambda > 0.0 && lambda <= 1.0) {
        return Err(ApiError::InvalidRequest {
            field: "lambda",
            reason: format!("must lie in (0, 1], got {lambda}"),
        });
    }
    let b = request.instance().bipartite()?;
    let (out, route, why) = match request.determinism() {
        Determinism::Deterministic => (
            core::multicolor_splitting_deterministic(b, colors, lambda)?,
            "multicolor/compiled",
            "Chernoff-overload estimator, conditional-expectation fixer".to_string(),
        ),
        Determinism::Randomized => (
            core::multicolor_splitting_random(b, colors, lambda, request.master_seed()),
            "multicolor/zero-round",
            "one uniform palette choice per variable (zero rounds)".to_string(),
        ),
    };
    certified_solution(
        request,
        CertificateKind::MulticolorSplitting {
            lambda,
            min_degree: 0,
        },
        Output::MultiColoring {
            colors: out.colors,
            palette: out.palette,
        },
        out.ledger,
        route,
        None,
        why,
    )
}

fn uniform(
    request: &Request,
    eps: Option<f64>,
    min_degree: Option<usize>,
) -> Result<Solution, ApiError> {
    let g = request.instance().host()?;
    let n = g.node_count();
    let min_degree = min_degree.unwrap_or_else(|| g.max_degree());
    let eps = eps.unwrap_or_else(|| red::feasible_eps(n, min_degree));
    if !(eps > 0.0 && eps <= 0.5) {
        return Err(ApiError::InvalidRequest {
            field: "eps",
            reason: format!("accuracy must lie in (0, 1/2], got {eps}"),
        });
    }
    let kind = CertificateKind::UniformSplitting { eps, min_degree };
    match request.determinism() {
        Determinism::Deterministic => {
            let out = red::uniform_splitting_deterministic(g, eps, min_degree)?;
            certified_solution(
                request,
                kind,
                Output::TwoColoring(out.colors),
                out.ledger,
                "uniform/derandomized",
                None,
                format!("Chernoff certificate at ε = {eps:.4}, degree floor {min_degree}"),
            )
        }
        Determinism::Randomized => {
            // the legacy Las Vegas loop: one coin flip per node per seed,
            // first seed whose splitting certifies wins
            let attempts = request.budget().attempts.unwrap_or(UNIFORM_ATTEMPTS);
            let seed = request.master_seed();
            for i in 0..attempts {
                let sides = red::uniform_splitting_random(g, seed.wrapping_add(i as u64));
                if checks::is_uniform_splitting(g, &sides, eps, min_degree) {
                    let mut ledger = RoundLedger::new();
                    ledger.add_measured("zero-round uniform splitting", 0.0);
                    return certified_solution(
                        request,
                        kind,
                        Output::TwoColoring(sides),
                        ledger,
                        "uniform/las-vegas",
                        None,
                        format!("seed {} certified after {} attempt(s)", seed, i + 1),
                    );
                }
            }
            Err(ApiError::RandomizedFailure {
                phase: "uniform splitting".into(),
                attempts,
            })
        }
    }
}

fn degree_splitting(request: &Request, eps: f64, engine: Engine) -> Result<Solution, ApiError> {
    if !(eps > 0.0 && eps <= 1.0) {
        return Err(ApiError::InvalidRequest {
            field: "eps",
            reason: format!("accuracy must lie in (0, 1], got {eps}"),
        });
    }
    let g = request.instance().multigraph()?;
    let flavor = match request.determinism() {
        Determinism::Deterministic => Flavor::Deterministic,
        Determinism::Randomized => Flavor::Randomized,
    };
    let splitter = DegreeSplitter::new(eps, engine, flavor);
    let result = splitter.split(g, g.node_count());
    let (route, why, aggregate) = match engine {
        Engine::EulerianOracle => (
            "degree-split/eulerian-oracle",
            format!("Eulerian reference engine, rounds charged per Theorem 2.3 ({flavor:?})"),
            false,
        ),
        Engine::Walk => (
            "degree-split/walk",
            "walk-segmentation engine, rounds measured".to_string(),
            true,
        ),
    };
    certified_solution(
        request,
        CertificateKind::DegreeSplitContract { eps, aggregate },
        Output::EdgeOrientation(result.orientation),
        result.ledger,
        route,
        None,
        why,
    )
}

fn sinkless(request: &Request) -> Result<Solution, ApiError> {
    let g = request.instance().host()?;
    let ids: Vec<u64> = (0..g.node_count() as u64).collect();
    let instance = splitgraph::generators::sinkless_instance(g, &ids);
    if request.determinism() == Determinism::Deterministic && g.min_degree() >= 5 {
        // below the Theorem 2.7 window the Figure 1 pipeline falls back
        // to the randomized rank-2 reference (Theorem 2.10 forbids a
        // fast LOCAL solver there) — a deterministic request must not be
        // served by it silently
        let b = &instance.bipartite;
        if b.min_left_degree() < 6 * b.rank() {
            return Err(ApiError::UnsupportedRegime {
                requirement: "deterministic sinkless orientation needs δ_B ≥ 6·r_B \
                              (δ_G ≥ 23) so Theorem 2.7 applies; below it the only \
                              in-tree solver is randomized"
                    .into(),
                actual: format!("δ_B = {}, r_B = {}", b.min_left_degree(), b.rank()),
            });
        }
    }
    let reduction = core::sinkless_from_instance(g, instance, &ids, request.master_seed())?;
    let b = &reduction.instance.bipartite;
    let why = if b.min_left_degree() >= 6 * b.rank() {
        format!(
            "Figure 1 reduction; δ_B = {} ≥ 6·r_B lands in Theorem 2.7",
            b.min_left_degree()
        )
    } else {
        "Figure 1 reduction; below the Theorem 2.7 window — centralized rank-2 reference \
         (Theorem 2.10 forbids a fast LOCAL solver here)"
            .to_string()
    };
    certified_solution(
        request,
        CertificateKind::Sinkless { min_degree: 1 },
        Output::HostOrientation(reduction.orientation),
        reduction.ledger,
        "sinkless/figure1",
        None,
        why,
    )
}

fn delta_coloring(
    request: &Request,
    base_degree: Option<usize>,
    max_eps: Option<f64>,
) -> Result<Solution, ApiError> {
    let g = request.instance().host()?;
    let base = base_degree.unwrap_or_else(|| default_base_degree(g.node_count()));
    let (colors, report, ledger) = red::delta_coloring_via_splitting(g, base, max_eps)?;
    certified_solution(
        request,
        CertificateKind::ProperColoring,
        Output::MultiColoring {
            colors,
            palette: report.palette.max(1),
        },
        ledger,
        "coloring/lemma41",
        None,
        format!(
            "recursive uniform splitting to base degree {base}: {} levels, \
             palette ratio {:.3}",
            report.levels, report.ratio
        ),
    )
}

fn edge_coloring(
    request: &Request,
    base_degree: Option<usize>,
    engine: red::EdgeSplitEngine,
) -> Result<Solution, ApiError> {
    let g = request.instance().host()?;
    let base = base_degree.unwrap_or_else(|| default_base_degree(g.node_count()));
    let (colors, report, ledger) = red::edge_coloring_via_splitting(g, base, engine)?;
    certified_solution(
        request,
        CertificateKind::ProperEdgeColoring,
        Output::MultiColoring {
            colors,
            palette: report.palette.max(1),
        },
        ledger,
        "edge-coloring/gs17",
        None,
        format!(
            "recursive {engine:?} edge splitting to base degree {base}: {} levels, \
             palette ratio {:.3}",
            report.levels, report.ratio
        ),
    )
}

fn mis(request: &Request, base_degree: Option<usize>) -> Result<Solution, ApiError> {
    if request.determinism() == Determinism::Deterministic {
        return Err(ApiError::InvalidRequest {
            field: "determinism",
            reason: "the Lemma 4.2 MIS reduction instantiates its splitting oracle A \
                     with randomness (an efficient deterministic A is the paper's open \
                     problem); request the randomized policy"
                .into(),
        });
    }
    let g = request.instance().host()?;
    let base = base_degree.unwrap_or_else(|| default_base_degree(g.node_count()));
    let (in_set, report, ledger) = red::mis_via_splitting(g, base, request.master_seed());
    certified_solution(
        request,
        CertificateKind::MaximalIndependentSet,
        Output::IndependentSet(in_set),
        ledger,
        "mis/lemma42",
        None,
        format!(
            "heavy-node elimination to base degree {base}: {} steps, {} splittings",
            report.steps, report.splittings
        ),
    )
}
