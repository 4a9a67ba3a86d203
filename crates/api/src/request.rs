//! The builder-style request type: one problem, one instance, plus the
//! cross-cutting policy knobs every workload shares.

use crate::problem::{Instance, Problem};
use splitting_core::Pipeline;
use std::fmt;
use std::sync::Arc;

/// Whether randomized pipelines may be used.
///
/// `Deterministic` reproduces the paper's deterministic track; problems
/// whose only implementation is randomized (MIS) reject deterministic
/// requests with a typed error rather than silently using randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Determinism {
    /// Deterministic pipelines only.
    Deterministic,
    /// Randomized pipelines allowed (the default).
    #[default]
    Randomized,
}

impl Determinism {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Determinism::Deterministic => "deterministic",
            Determinism::Randomized => "randomized",
        }
    }
}

impl fmt::Display for Determinism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Resource budgets for one request.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Budget {
    /// Reject solutions whose round ledger (measured + charged) exceeds
    /// this bound. `None` = unbounded.
    pub max_rounds: Option<f64>,
    /// Seed-retry budget for Las Vegas phases. `None` keeps each
    /// pipeline's legacy default (32 for the zero-round weak-splitting
    /// wrapper, 16 for Theorem 1.2 shattering and uniform splitting), so
    /// default-budget requests stay bit-identical to the legacy
    /// entrypoints.
    pub attempts: Option<usize>,
    /// Wall-clock deadline for producing a solution, milliseconds from
    /// the moment solving (or queueing, on the service path) starts.
    /// Enforced cooperatively: the executors and fixers abandon the
    /// solve at their next cancellation checkpoint and the request
    /// fails with [`ApiError::DeadlineExceeded`](crate::ApiError).
    /// `None` = no deadline.
    pub deadline_ms: Option<u64>,
}

/// A fully-specified unit of work: problem + instance + policy.
///
/// Built in builder style and consumed by
/// [`Session::solve`](crate::Session::solve):
///
/// ```
/// use splitting_api::{Problem, Request};
/// use splitgraph::generators;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let b = generators::random_biregular(40, 40, 16, &mut rng)?;
/// let request = Request::new(Problem::weak_splitting(), b)
///     .deterministic()
///     .seed(7)
///     .max_rounds(1e6);
/// assert_eq!(request.problem().name(), "weak-splitting");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// The instance is held behind an [`Arc`], so cloning a request — the
/// common move when fanning the same work out to batch sessions or the
/// `splitd` job queue — shares the graph structurally instead of
/// deep-copying it. Equality still compares instance *contents*.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    problem: Problem,
    instance: Arc<Instance>,
    determinism: Determinism,
    seed: u64,
    pipeline_override: Option<Pipeline>,
    budget: Budget,
}

/// The default master seed of an unseeded request. Its value predates
/// the request layer and is kept, so unseeded solves stay bit-identical
/// across releases.
pub const DEFAULT_SEED: u64 = 0xD15C0;

impl Request {
    /// Creates a request with the default policy: randomized allowed,
    /// seed [`DEFAULT_SEED`], no pipeline override, unbounded budget.
    pub fn new(problem: Problem, instance: impl Into<Instance>) -> Self {
        Request {
            problem,
            instance: Arc::new(instance.into()),
            determinism: Determinism::default(),
            seed: DEFAULT_SEED,
            pipeline_override: None,
            budget: Budget::default(),
        }
    }

    /// Creates a request over an already-shared instance, with the same
    /// default policy as [`Request::new`]. The instance is *not* copied:
    /// the request holds the given [`Arc`], so callers that intern one
    /// instance and fan many requests out over it (the `splitd` instance
    /// -handle path) pay no per-request graph allocation.
    pub fn from_shared(problem: Problem, instance: Arc<Instance>) -> Self {
        Request {
            problem,
            instance,
            determinism: Determinism::default(),
            seed: DEFAULT_SEED,
            pipeline_override: None,
            budget: Budget::default(),
        }
    }

    /// Restricts solving to deterministic pipelines.
    #[must_use]
    pub fn deterministic(mut self) -> Self {
        self.determinism = Determinism::Deterministic;
        self
    }

    /// Allows randomized pipelines (the default).
    #[must_use]
    pub fn randomized(mut self) -> Self {
        self.determinism = Determinism::Randomized;
        self
    }

    /// Sets the determinism policy explicitly.
    #[must_use]
    pub fn determinism_policy(mut self, determinism: Determinism) -> Self {
        self.determinism = determinism;
        self
    }

    /// Sets the master seed for randomized pipelines.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Forces a specific weak-splitting pipeline instead of the regime
    /// dispatcher's choice (the theorem-selection override). The forced
    /// pipeline's own precondition still applies.
    #[must_use]
    pub fn force_pipeline(mut self, pipeline: Pipeline) -> Self {
        self.pipeline_override = Some(pipeline);
        self
    }

    /// Bounds the solution's total rounds (measured + charged).
    #[must_use]
    pub fn max_rounds(mut self, rounds: f64) -> Self {
        self.budget.max_rounds = Some(rounds);
        self
    }

    /// Sets the Las Vegas seed-retry budget.
    #[must_use]
    pub fn attempts(mut self, attempts: usize) -> Self {
        self.budget.attempts = Some(attempts);
        self
    }

    /// Sets a wall-clock deadline (milliseconds) for producing a
    /// solution. Over-deadline solves are abandoned at the next
    /// cooperative cancellation checkpoint with a typed
    /// `deadline-exceeded` error.
    #[must_use]
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.budget.deadline_ms = Some(ms);
        self
    }

    /// The problem to solve.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The instance to solve it on.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The determinism policy.
    pub fn determinism(&self) -> Determinism {
        self.determinism
    }

    /// The master seed.
    pub fn master_seed(&self) -> u64 {
        self.seed
    }

    /// The forced pipeline, if any.
    pub fn pipeline_override(&self) -> Option<Pipeline> {
        self.pipeline_override
    }

    /// The resource budgets.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The instance, to patch in place: copied first only while another
    /// owner still shares it ([`Arc::make_mut`]), so that owner never
    /// sees the patch.
    pub(crate) fn instance_mut(&mut self) -> &mut Instance {
        Arc::make_mut(&mut self.instance)
    }

    /// Recovers the instance, cloning only when other requests still
    /// share it (for callers that want to reuse it after solving).
    pub fn into_instance(self) -> Instance {
        Arc::try_unwrap(self.instance).unwrap_or_else(|shared| (*shared).clone())
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} over {} ({}; {}, seed {:#x})",
            self.problem,
            self.instance.kind(),
            self.instance.summary(),
            self.determinism,
            self.seed
        )?;
        if let Some(p) = self.pipeline_override {
            write!(f, " [forced: {}]", p.name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitgraph::Graph;

    #[test]
    fn builder_sets_every_knob() {
        let r = Request::new(Problem::Mis { base_degree: None }, Graph::new(4))
            .deterministic()
            .seed(42)
            .force_pipeline(Pipeline::Theorem27)
            .max_rounds(100.0)
            .attempts(3)
            .deadline_ms(750);
        assert_eq!(r.determinism(), Determinism::Deterministic);
        assert_eq!(r.master_seed(), 42);
        assert_eq!(r.pipeline_override(), Some(Pipeline::Theorem27));
        assert_eq!(r.budget().max_rounds, Some(100.0));
        assert_eq!(r.budget().attempts, Some(3));
        assert_eq!(r.budget().deadline_ms, Some(750));
        let shown = r.to_string();
        assert!(shown.contains("mis"), "{shown}");
        assert!(shown.contains("forced: theorem27"), "{shown}");
    }

    #[test]
    fn into_instance_clones_when_the_instance_is_still_shared() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let r = Request::new(Problem::Mis { base_degree: None }, g);
        // batch/queue fan-out holds sibling clones of the same request,
        // so the Arc'd instance is shared at extraction time
        let sibling = r.clone();
        let recovered = r.into_instance();
        assert_eq!(&recovered, sibling.instance());
        // and once exclusive again, extraction still works (no clone)
        drop(recovered);
        let exclusive = sibling.into_instance();
        assert_eq!(exclusive.kind(), "host-graph");
    }

    #[test]
    fn defaults_are_randomized_under_the_default_seed() {
        let r = Request::new(Problem::weak_splitting(), Graph::new(1));
        assert_eq!(r.master_seed(), DEFAULT_SEED);
        assert_eq!(r.determinism(), Determinism::Randomized);
        assert_eq!(r.budget(), &Budget::default());
    }
}
