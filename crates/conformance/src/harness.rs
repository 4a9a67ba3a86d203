//! The differential + metamorphic harness: drives every solver entrypoint
//! over a [`Scenario`], validates outputs with the `splitgraph::checks`
//! certifiers and the round ledgers, cross-checks alternate engines on the
//! shared instance, and asserts metamorphic invariants.
//!
//! Checks are grouped by *entrypoint group* so the conformance matrix
//! (family × group) stays readable and each cell is independently
//! replayable from its seed.

use crate::scenario::{Regime, Scenario, Tier};
use degree_split::{DegreeSplitter, Engine, Flavor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use splitgraph::math::{weak_multicolor_degree_threshold, weak_multicolor_required_colors};
use splitgraph::{checks, BipartiteGraph, Color};
use splitting_api::{ApiError, Determinism, Problem, Request, Session};
use splitting_core as core;
use splitting_core::{
    decide_pipeline, Pipeline, RegimeParams, SplitError, SplitOutcome, Theorem12Config, Variant,
};
use splitting_reductions as red;

/// The entrypoint groups the harness drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The weak-splitting regime dispatch: [`decide_pipeline`] against
    /// what [`Session`] runs and announces.
    Solver,
    /// Direct theorem pipelines: 2.5, 2.7, 1.2, and the zero-round
    /// algorithm, plus their round-ledger bounds.
    Theorems,
    /// Multicolor splitting variants (Definitions 1.2/1.3) across the
    /// random, compiled-deterministic, and SLOCAL engines.
    Multicolor,
    /// Directed degree splitting across every `Engine` × `Flavor` combo.
    DegreeSplit,
    /// Section 4 reductions: uniform splitting, Δ-coloring, MIS, edge
    /// coloring.
    Reductions,
    /// Metamorphic invariants: relabeling equivariance, Red↔Blue swap,
    /// disjoint-union composition.
    Metamorphic,
    /// The `splitting-api` request/solution layer: every applicable
    /// `Problem` variant solved through `Session::solve`, bit-compared
    /// against the theorem or engine entrypoint behind its route, called
    /// directly, with verified certificates and batch/sequential
    /// equality.
    Api,
    /// The `splitd` service layer: every applicable request rendered to
    /// the wire, run through the job-queue server, and the embedded
    /// reply payload byte-compared against a direct `Session::solve`
    /// rendering — the bit-parity guarantee of `docs/PROTOCOL.md`.
    Server,
    /// The stateful service as one seeded operation sequence: epochs of
    /// `splitd` processes on one journal, each with its own workers,
    /// held-cache capacity, compaction threshold and fsync policy,
    /// driven over every frame kind (inline and handle solves, uploads,
    /// keyed and keyless mutates, verbatim keyed retries, releases,
    /// pings) with worker panics and stalls, torn frames, dropped
    /// connections, `process_kill` and clean restarts between them.
    /// Every reply, stream, stats snapshot and journal image must equal
    /// what a reference model of the instance table, idempotency cache,
    /// held-solution cache and journal predicts, byte for byte; held
    /// repairs must agree with scratch solves and certify. See
    /// [`crate::service`].
    Service,
}

impl Group {
    /// Every group, in matrix-column order.
    pub const ALL: [Group; 9] = [
        Group::Solver,
        Group::Theorems,
        Group::Multicolor,
        Group::DegreeSplit,
        Group::Reductions,
        Group::Metamorphic,
        Group::Api,
        Group::Server,
        Group::Service,
    ];

    /// Stable display/selector name.
    pub fn name(self) -> &'static str {
        match self {
            Group::Solver => "solver",
            Group::Theorems => "theorems",
            Group::Multicolor => "multicolor",
            Group::DegreeSplit => "degree-split",
            Group::Reductions => "reductions",
            Group::Metamorphic => "metamorphic",
            Group::Api => "api",
            Group::Server => "server",
            Group::Service => "service",
        }
    }

    /// Parses a selector name back into a group.
    pub fn parse(s: &str) -> Option<Group> {
        Group::ALL.into_iter().find(|g| g.name() == s)
    }
}

/// One failed check, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Scenario name (`family/<params>#<seed>`).
    pub scenario: String,
    /// Scenario family.
    pub family: &'static str,
    /// Scenario seed.
    pub seed: u64,
    /// Entrypoint group the check belongs to.
    pub group: Group,
    /// Check identifier.
    pub check: &'static str,
    /// Human-readable failure detail.
    pub detail: String,
}

/// Results of one (scenario, group) cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The group this cell drove.
    pub group: Group,
    /// Number of checks executed.
    pub checks: usize,
    /// Failed checks.
    pub failures: Vec<Finding>,
}

/// Results of one scenario across all groups.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario family.
    pub family: &'static str,
    /// Scenario seed.
    pub seed: u64,
    /// Regime tags (for the matrix).
    pub regimes: Vec<Regime>,
    /// Per-group cells.
    pub cells: Vec<CellReport>,
}

/// The whole conformance run.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// The tier that was run.
    pub tier: Tier,
    /// Per-scenario reports, in corpus order.
    pub scenarios: Vec<ScenarioReport>,
}

impl ConformanceReport {
    /// Total checks executed.
    pub fn total_checks(&self) -> usize {
        self.scenarios
            .iter()
            .flat_map(|s| &s.cells)
            .map(|c| c.checks)
            .sum()
    }

    /// All failures across the run.
    pub fn failures(&self) -> Vec<&Finding> {
        self.scenarios
            .iter()
            .flat_map(|s| &s.cells)
            .flat_map(|c| &c.failures)
            .collect()
    }
}

/// Check recorder for one cell.
pub(crate) struct Ctx<'a> {
    pub(crate) scenario: &'a Scenario,
    group: Group,
    checks: usize,
    pub(crate) failures: Vec<Finding>,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(scenario: &'a Scenario, group: Group) -> Self {
        Ctx {
            scenario,
            group,
            checks: 0,
            failures: Vec::new(),
        }
    }

    /// Records a check; on failure, captures the detail for the ledger.
    pub(crate) fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(Finding {
                scenario: self.scenario.name.clone(),
                family: self.scenario.family,
                seed: self.scenario.seed,
                group: self.group,
                check: name,
                detail: detail(),
            });
        }
    }

    fn into_cell(self) -> CellReport {
        CellReport {
            group: self.group,
            checks: self.checks,
            failures: self.failures,
        }
    }
}

/// Runs the full corpus for a tier over every group.
pub fn run_corpus(tier: Tier) -> ConformanceReport {
    run_corpus_groups(tier, &Group::ALL)
}

/// Runs the full corpus for a tier over selected groups — the CLI's
/// `--group` filter (e.g. the CI sweep of the service group).
pub fn run_corpus_groups(tier: Tier, groups: &[Group]) -> ConformanceReport {
    let scenarios = crate::scenario::corpus(tier)
        .iter()
        .map(|s| run_scenario(s, groups))
        .collect();
    ConformanceReport { tier, scenarios }
}

/// Runs selected groups over one scenario.
pub fn run_scenario(s: &Scenario, groups: &[Group]) -> ScenarioReport {
    let cells = groups.iter().map(|&g| run_cell(s, g)).collect();
    ScenarioReport {
        scenario: s.name.clone(),
        family: s.family,
        seed: s.seed,
        regimes: s.regimes.clone(),
        cells,
    }
}

/// Runs one (scenario, group) cell — the replayable unit.
pub fn run_cell(s: &Scenario, group: Group) -> CellReport {
    let mut ctx = Ctx::new(s, group);
    match group {
        Group::Solver => check_solver(&mut ctx),
        Group::Theorems => check_theorems(&mut ctx),
        Group::Multicolor => check_multicolor(&mut ctx),
        Group::DegreeSplit => check_degree_split(&mut ctx),
        Group::Reductions => check_reductions(&mut ctx),
        Group::Metamorphic => check_metamorphic(&mut ctx),
        Group::Api => check_api(&mut ctx),
        Group::Server => check_server(&mut ctx),
        Group::Service => crate::service::check_service(&mut ctx),
    }
    ctx.into_cell()
}

// ---------------------------------------------------------------- solver

/// A weak-splitting request for the scenario's instance `b`, under its
/// seed and Theorem 1.2 constant.
fn weak_request(s: &Scenario, b: &BipartiteGraph, determinism: Determinism) -> Request {
    Request::new(
        Problem::WeakSplitting {
            thm12_constant: s.thm12_constant,
        },
        b.clone(),
    )
    .determinism_policy(determinism)
    .seed(s.seed)
}

/// The pipeline the dispatch picks for `b` under the scenario's constant.
fn weak_plan(s: &Scenario, b: &BipartiteGraph, determinism: Determinism) -> Option<Pipeline> {
    decide_pipeline(
        determinism == Determinism::Randomized,
        s.thm12_constant,
        RegimeParams::of(b),
    )
}

/// The theorem entrypoint behind `pipeline`, called directly with the
/// policy, seed and constant of [`weak_request`] — the reference the
/// api group holds `Session`'s weak-splitting arm to.
fn weak_entrypoint(
    s: &Scenario,
    b: &BipartiteGraph,
    determinism: Determinism,
    pipeline: Pipeline,
) -> Result<SplitOutcome, SplitError> {
    match pipeline {
        Pipeline::Theorem27 => core::theorem27(
            b,
            match determinism {
                Determinism::Randomized => Variant::Randomized(s.seed),
                Determinism::Deterministic => Variant::Deterministic,
            },
        ),
        Pipeline::Theorem25 => core::theorem25(b, Flavor::Deterministic).map(|(out, _)| out),
        Pipeline::ZeroRound => core::zero_round_whp(b, s.seed, 32),
        Pipeline::Theorem12 => core::theorem12(
            b,
            &Theorem12Config {
                seed: s.seed,
                c_constant: s.thm12_constant,
                ..Theorem12Config::default()
            },
        ),
    }
}

fn check_solver(ctx: &mut Ctx<'_>) {
    let s = ctx.scenario;
    let b = &s.bipartite;
    let session = Session::with_threads(1);
    for determinism in [Determinism::Deterministic, Determinism::Randomized] {
        let mode = determinism.name();
        let plan = weak_plan(s, b, determinism);
        ctx.check(
            "solver.plan-pure",
            plan == weak_plan(s, b, determinism),
            || format!("{mode}: the dispatch is not a pure function of the instance"),
        );
        let request = weak_request(s, b, determinism);
        match session.solve(&request) {
            Ok(solution) => {
                let pipeline = solution.provenance.pipeline;
                ctx.check("solver.plan-announced", plan == pipeline, || {
                    format!("{mode}: the session took {pipeline:?} but the dispatch chose {plan:?}")
                });
                let colors = solution.output.two_coloring().unwrap_or_default();
                let violations = checks::weak_splitting_violations(b, colors, 0);
                ctx.check("solver.output-valid", violations.is_empty(), || {
                    format!(
                        "{mode}: {pipeline:?} output violates {} constraints: {:?}",
                        violations.len(),
                        &violations[..violations.len().min(5)]
                    )
                });
                let total = solution.ledger.total();
                ctx.check(
                    "solver.ledger-sane",
                    total.is_finite() && total >= 0.0,
                    || format!("{mode}: ledger total {total}"),
                );
                // replay: same request, identical output (a replay that
                // *errors* is itself a stability failure — record it,
                // never panic the corpus run)
                let replay = session.solve(&request);
                ctx.check(
                    "solver.replay-stable",
                    matches!(&replay, Ok(again) if again.output == solution.output),
                    || format!("{mode}: identical solve replay diverged: {replay:?}"),
                );
            }
            Err(err) => {
                ctx.check("solver.negative-honest", plan.is_none(), || {
                    format!("{mode}: the dispatch chose {plan:?} but the session failed: {err}")
                });
                ctx.check(
                    "solver.error-kind",
                    matches!(err, ApiError::UnsupportedRegime { .. }),
                    || {
                        format!(
                            "{mode}: uncovered instance must report unsupported-regime, got {err}"
                        )
                    },
                );
            }
        }
    }
    // the dispatcher must find a pipeline iff the instance carries a
    // positive regime tag (randomized mode sees every regime)
    let plan = weak_plan(s, b, Determinism::Randomized);
    ctx.check(
        "solver.matches-regimes",
        plan.is_some() == s.weak_pipeline_expected(),
        || {
            format!(
                "plan = {plan:?} but regime tags say expected = {}",
                s.weak_pipeline_expected()
            )
        },
    );
}

// -------------------------------------------------------------- theorems

fn check_theorems(ctx: &mut Ctx<'_>) {
    let s = ctx.scenario;
    let b = &s.bipartite;

    // Theorem 2.5: deterministic headline result
    if s.has(Regime::Thm25) {
        match core::theorem25(b, Flavor::Deterministic) {
            Ok((out, report)) => {
                ctx.check(
                    "thm25.valid",
                    checks::is_weak_splitting(b, &out.colors, 0),
                    || "deterministic Theorem 2.5 output invalid".into(),
                );
                let expect_drr = s.has(Regime::Drr) && s.has(Regime::Thm25);
                ctx.check(
                    "thm25.drr-branch",
                    (report.drr_iterations > 0) == expect_drr,
                    || {
                        format!(
                            "DRR iterations = {}, Drr tag = {}",
                            report.drr_iterations, expect_drr
                        )
                    },
                );
                // bit determinism (an erroring replay is itself a failure)
                let replay = core::theorem25(b, Flavor::Deterministic);
                ctx.check(
                    "thm25.bit-deterministic",
                    matches!(&replay, Ok((out2, _)) if out.colors == out2.colors),
                    || "two identical Theorem 2.5 runs diverged".into(),
                );
                // round-ledger bound: measured+charged rounds stay within a
                // generous constant of the paper's predicted bound
                let bound =
                    core::theorem25_round_bound(b.node_count(), b.min_left_degree(), b.rank());
                ctx.check(
                    "thm25.round-bound",
                    out.ledger.total() <= 64.0 * bound + 64.0,
                    || format!("ledger {} vs predicted bound {bound}", out.ledger.total()),
                );
                // randomized flavor must charge no more than deterministic
                // and stay valid
                let ran = core::theorem25(b, Flavor::Randomized);
                ctx.check(
                    "thm25.flavor-differential",
                    matches!(&ran, Ok((r, _)) if checks::is_weak_splitting(b, &r.colors, 0)
                        && r.ledger.charged_total() <= out.ledger.charged_total()),
                    || "randomized flavor failed, invalid, or charged more".into(),
                );
            }
            Err(err) => ctx.check("thm25.applies", false, || {
                format!("Thm25-tagged instance rejected: {err}")
            }),
        }
    } else {
        ctx.check(
            "thm25.negative",
            matches!(
                core::theorem25(b, Flavor::Deterministic),
                Err(SplitError::Precondition { .. })
            ),
            || "untagged instance was accepted by Theorem 2.5".into(),
        );
    }

    // Zero-round randomized algorithm (same regime as Thm 2.5)
    if s.has(Regime::ZeroRound) {
        match core::zero_round_whp(b, s.seed, 32) {
            Ok(out) => {
                ctx.check(
                    "zero-round.valid",
                    checks::is_weak_splitting(b, &out.colors, 0),
                    || "zero_round_whp returned an invalid splitting".into(),
                );
                ctx.check("zero-round.zero-rounds", out.ledger.total() == 0.0, || {
                    format!("zero-round ledger is {}", out.ledger.total())
                });
                // differential vs the deterministic pipeline on the shared
                // instance: both engines must certify
                if s.has(Regime::Thm25) {
                    let det = core::theorem25(b, Flavor::Deterministic);
                    ctx.check(
                        "zero-round.cross-engine",
                        det.map(|(o, _)| checks::is_weak_splitting(b, &o.colors, 0))
                            .unwrap_or(false),
                        || "deterministic engine disagrees on a shared instance".into(),
                    );
                }
            }
            Err(err) => ctx.check("zero-round.applies", false, || {
                format!("ZeroRound-tagged instance failed: {err}")
            }),
        }
        let a = core::zero_round_coloring(b, s.seed);
        let c = core::zero_round_coloring(b, s.seed);
        ctx.check("zero-round.seed-stable", a.colors == c.colors, || {
            "same seed produced different zero-round colorings".into()
        });
    } else {
        ctx.check(
            "zero-round.negative",
            matches!(
                core::zero_round_whp(b, s.seed, 4),
                Err(SplitError::Precondition { .. })
            ),
            || "untagged instance was accepted by zero_round_whp".into(),
        );
    }

    // Theorem 2.7: the δ ≥ 6r regime, deterministic and randomized
    if s.has(Regime::Thm27) {
        for variant in [Variant::Deterministic, Variant::Randomized(s.seed)] {
            match core::theorem27(b, variant) {
                Ok(out) => {
                    ctx.check(
                        "thm27.valid",
                        checks::is_weak_splitting(b, &out.colors, 0),
                        || format!("Theorem 2.7 {variant:?} output invalid"),
                    );
                    let replay = core::theorem27(b, variant);
                    ctx.check(
                        "thm27.seed-stable",
                        matches!(&replay, Ok(out2) if out.colors == out2.colors),
                        || format!("Theorem 2.7 {variant:?} not stable under replay"),
                    );
                }
                Err(err) => ctx.check("thm27.applies", false, || {
                    format!("Thm27-tagged instance rejected ({variant:?}): {err}")
                }),
            }
        }
    } else {
        ctx.check(
            "thm27.negative",
            matches!(
                core::theorem27(b, Variant::Deterministic),
                Err(SplitError::Precondition { .. })
            ),
            || "untagged instance was accepted by Theorem 2.7".into(),
        );
    }

    // Theorem 1.2: the randomized shattering window
    if s.has(Regime::Thm12) {
        let cfg = Theorem12Config {
            seed: s.seed,
            c_constant: s.thm12_constant,
            ..Theorem12Config::default()
        };
        match core::theorem12(b, &cfg) {
            Ok(out) => {
                ctx.check(
                    "thm12.valid",
                    checks::is_weak_splitting(b, &out.colors, 0),
                    || "Theorem 1.2 output invalid".into(),
                );
                let replay = core::theorem12(b, &cfg);
                ctx.check(
                    "thm12.seed-stable",
                    matches!(&replay, Ok(out2) if out.colors == out2.colors),
                    || "Theorem 1.2 not stable under identical config".into(),
                );
            }
            Err(err) => ctx.check("thm12.applies", false, || {
                format!("Thm12-tagged instance failed: {err}")
            }),
        }
    } else {
        let cfg = Theorem12Config {
            seed: s.seed,
            c_constant: s.thm12_constant,
            ..Theorem12Config::default()
        };
        ctx.check(
            "thm12.negative",
            matches!(
                core::theorem12(b, &cfg),
                Err(SplitError::Precondition { .. })
            ),
            || "untagged instance was accepted by Theorem 1.2".into(),
        );
    }
}

// ------------------------------------------------------------ multicolor

fn check_multicolor(ctx: &mut Ctx<'_>) {
    let s = ctx.scenario;
    let b = &s.bipartite;
    let n = b.node_count();

    // Definition 1.3 (C-weak multicolor): certified only in its regime
    if s.has(Regime::Multicolor) {
        let threshold = weak_multicolor_degree_threshold(n);
        let required = weak_multicolor_required_colors(n);
        let rand_out = core::weak_multicolor_random(b, s.seed);
        ctx.check(
            "weak-multicolor.random-valid",
            checks::is_weak_multicolor_splitting(b, &rand_out.colors, threshold, required),
            || "randomized Def 1.3 coloring invalid in its certified regime".into(),
        );
        match core::weak_multicolor_deterministic(b) {
            Ok(det) => {
                ctx.check(
                    "weak-multicolor.det-valid",
                    checks::is_weak_multicolor_splitting(b, &det.colors, threshold, required),
                    || "deterministic Def 1.3 coloring invalid".into(),
                );
                ctx.check(
                    "weak-multicolor.palette",
                    det.palette as usize == required,
                    || format!("palette {} vs required {required}", det.palette),
                );
                // differential: the compiled LOCAL engine and the SLOCAL
                // engine are the same greedy pass — bit-identical colors
                match core::weak_multicolor_slocal(b) {
                    Ok(sl) => ctx.check(
                        "weak-multicolor.local-vs-slocal",
                        sl.colors == det.colors,
                        || "compiled and SLOCAL engines diverge on shared instance".into(),
                    ),
                    Err(err) => ctx.check("weak-multicolor.local-vs-slocal", false, || {
                        format!("SLOCAL engine failed where compiled succeeded: {err}")
                    }),
                }
            }
            Err(err) => ctx.check("weak-multicolor.det-applies", false, || {
                format!("Multicolor-tagged instance rejected: {err}")
            }),
        }
    }

    // Definition 1.2 ((C, λ)-multicolor): runs everywhere; the Chernoff
    // certificate may legitimately decline small-degree instances, but an
    // accepted run must be valid, within palette, and replayable
    let (c_bound, lambda) = (6u32, 0.6f64);
    let palette = core::theorem33_palette(c_bound, lambda);
    ctx.check("multicolor.palette-bound", palette <= c_bound, || {
        format!("palette {palette} exceeds C = {c_bound}")
    });
    let rand_out = core::multicolor_splitting_random(b, c_bound, lambda, s.seed);
    ctx.check(
        "multicolor.random-in-palette",
        rand_out.colors.iter().all(|&x| x < rand_out.palette),
        || "randomized (C, λ) coloring used a color outside its palette".into(),
    );
    let replay = core::multicolor_splitting_random(b, c_bound, lambda, s.seed);
    ctx.check(
        "multicolor.random-seed-stable",
        rand_out.colors == replay.colors,
        || "same seed produced different (C, λ) colorings".into(),
    );
    match core::multicolor_splitting_deterministic(b, c_bound, lambda) {
        Ok(det) => {
            ctx.check(
                "multicolor.det-valid",
                checks::is_multicolor_splitting(b, &det.colors, det.palette, lambda, 0),
                || "accepted deterministic (C, λ) coloring is invalid".into(),
            );
            let det2 = core::multicolor_splitting_deterministic(b, c_bound, lambda);
            ctx.check(
                "multicolor.det-bit-deterministic",
                matches!(&det2, Ok(d2) if det.colors == d2.colors),
                || "deterministic (C, λ) engine not replay-stable".into(),
            );
        }
        Err(err) => {
            // EstimatorTooLarge is the honest answer outside the certified
            // regime; in the Def 1.3 regime (huge degrees) it must succeed
            ctx.check(
                "multicolor.det-declines-honestly",
                matches!(err, SplitError::EstimatorTooLarge { .. }) && !s.has(Regime::Multicolor),
                || format!("deterministic (C, λ) run failed with {err}"),
            );
        }
    }
}

// ---------------------------------------------------------- degree-split

fn check_degree_split(ctx: &mut Ctx<'_>) {
    let s = ctx.scenario;
    if !s.has(Regime::DegreeSplit) {
        return;
    }
    let g = s.multigraph();
    let n = g.node_count();
    let eps = 0.25;
    let mut oracle_reference: Option<Vec<bool>> = None;
    for engine in [Engine::EulerianOracle, Engine::Walk] {
        for flavor in [Flavor::Deterministic, Flavor::Randomized] {
            let splitter = DegreeSplitter::new(eps, engine, flavor);
            let r = splitter.split(&g, n);
            let tag = format!("{engine:?}/{flavor:?}");
            ctx.check(
                "degree-split.covers-edges",
                r.orientation.edge_count() == g.edge_count(),
                || {
                    format!(
                        "{tag}: oriented {} of {} edges",
                        r.orientation.edge_count(),
                        g.edge_count()
                    )
                },
            );
            let r2 = splitter.split(&g, n);
            let bits = |o: &splitgraph::Orientation| -> Vec<bool> {
                (0..o.edge_count())
                    .map(|e| o.is_towards_second(e))
                    .collect()
            };
            ctx.check(
                "degree-split.replay-stable",
                bits(&r.orientation) == bits(&r2.orientation),
                || format!("{tag}: identical splits disagree"),
            );
            match engine {
                Engine::EulerianOracle => {
                    // the reference engine: Theorem 2.3 contract, in fact
                    // discrepancy ≤ parity, rounds charged not measured
                    ctx.check(
                        "degree-split.oracle-contract",
                        splitter.contract_violations(&g, &r.orientation).is_empty(),
                        || format!("{tag}: ε·d + 2 contract violated"),
                    );
                    let parity_ok =
                        (0..n).all(|v| r.orientation.discrepancy(&g, v) <= g.degree(v) % 2 + 1);
                    ctx.check("degree-split.oracle-parity", parity_ok, || {
                        format!("{tag}: discrepancy above the Eulerian parity bound")
                    });
                    ctx.check(
                        "degree-split.oracle-charged",
                        r.ledger.measured_total() == 0.0
                            && (g.edge_count() == 0 || r.ledger.charged_total() > 0.0),
                        || format!("{tag}: oracle rounds must be charged, not measured"),
                    );
                    // flavor must not change the orientation, only the charge
                    match &oracle_reference {
                        None => oracle_reference = Some(bits(&r.orientation)),
                        Some(reference) => ctx.check(
                            "degree-split.flavor-invariant",
                            *reference == bits(&r.orientation),
                            || "charged flavor changed the oracle's orientation".into(),
                        ),
                    }
                }
                Engine::Walk => {
                    // measured engine: cuts can concentrate on one node of
                    // an irregular multigraph (per-node bounds degenerate
                    // to d + 1 there), so the ε·d + 2 contract is asserted
                    // in aggregate — its documented strength
                    let total: f64 = (0..n)
                        .map(|v| r.orientation.discrepancy(&g, v) as f64)
                        .sum();
                    let budget: f64 = (0..n).map(|v| eps * g.degree(v) as f64 + 2.0).sum();
                    ctx.check("degree-split.walk-aggregate", total <= budget, || {
                        format!("{tag}: total discrepancy {total} above Σ(ε·d + 2) = {budget}")
                    });
                    ctx.check(
                        "degree-split.walk-measured",
                        r.ledger.charged_total() == 0.0
                            && (g.edge_count() == 0 || r.ledger.measured_total() > 0.0),
                        || format!("{tag}: walk rounds must be measured, not charged"),
                    );
                }
            }
        }
    }
    // charged-formula differential: the randomized Theorem 2.3 flavor is
    // never more expensive than the deterministic one
    let det = DegreeSplitter::new(eps, Engine::EulerianOracle, Flavor::Deterministic).split(&g, n);
    let ran = DegreeSplitter::new(eps, Engine::EulerianOracle, Flavor::Randomized).split(&g, n);
    ctx.check(
        "degree-split.flavor-charge-order",
        ran.ledger.charged_total() <= det.ledger.charged_total(),
        || {
            format!(
                "randomized charge {} > deterministic {}",
                ran.ledger.charged_total(),
                det.ledger.charged_total()
            )
        },
    );
}

// ------------------------------------------------------------ reductions

fn check_reductions(ctx: &mut Ctx<'_>) {
    let s = ctx.scenario;
    let g = s.host_graph();
    let n = g.node_count();
    if n == 0 || g.edge_count() == 0 {
        return;
    }

    // uniform splitting (Section 4.1) at the feasible accuracy for the
    // max-degree floor; the Chernoff certificate only covers hosts dense
    // enough that the unclamped ε stays ≤ 1/2 (the Uniform regime tag).
    // The cap admits every registered host, full tier included (the
    // largest, K_{80,640}, flattens to 51,200 edges).
    if g.max_degree() >= 4 && g.edge_count() <= 64_000 {
        let dmax = g.max_degree();
        let eps = red::feasible_eps(n, dmax);
        // randomized: one coin per node; the union bound leaves ≥ 1/2
        // success probability per seed, so 16 seeds fail with p ≤ 2⁻¹⁶
        let las_vegas = (0..16).any(|i| {
            let sides = red::uniform_splitting_random(&g, s.seed.wrapping_add(i));
            checks::is_uniform_splitting(&g, &sides, eps, dmax)
        });
        ctx.check("uniform.random-las-vegas", las_vegas, || {
            format!("no valid uniform splitting in 16 seeds at eps = {eps:.3}")
        });
        let a = red::uniform_splitting_random(&g, s.seed);
        let b2 = red::uniform_splitting_random(&g, s.seed);
        ctx.check("uniform.random-seed-stable", a == b2, || {
            "same seed produced different uniform splittings".into()
        });
        match red::uniform_splitting_deterministic(&g, eps, dmax) {
            Ok(out) => {
                ctx.check(
                    "uniform.det-valid",
                    checks::is_uniform_splitting(&g, &out.colors, eps, dmax),
                    || format!("deterministic uniform splitting invalid at eps = {eps:.3}"),
                );
                let replay = red::uniform_splitting_deterministic(&g, eps, dmax);
                ctx.check(
                    "uniform.det-bit-deterministic",
                    matches!(&replay, Ok(out2) if out.colors == out2.colors),
                    || "deterministic uniform splitting not replay-stable".into(),
                );
            }
            Err(err) => ctx.check(
                "uniform.det-declines-honestly",
                matches!(err, SplitError::EstimatorTooLarge { .. }) && !s.has(Regime::Uniform),
                || format!("deterministic uniform splitting failed: {err}"),
            ),
        }
    }

    // the Section 4 reduction pipelines on small/medium hosts
    if g.edge_count() <= 3_000 && g.max_degree() >= 2 {
        let base = 4 * (splitgraph::math::log2(n.max(2)).ceil() as usize);
        match red::delta_coloring_via_splitting(&g, base, Some(0.35)) {
            Ok((colors, report, _)) => {
                ctx.check(
                    "coloring.proper",
                    checks::is_proper_coloring(&g, &colors),
                    || "Δ-coloring reduction produced an improper coloring".into(),
                );
                ctx.check(
                    "coloring.palette",
                    colors.iter().all(|&c| c < report.palette.max(1)),
                    || "coloring uses colors outside the reported palette".into(),
                );
            }
            Err(err) => ctx.check("coloring.applies", false, || {
                format!("Δ-coloring reduction failed: {err}")
            }),
        }
        let (in_set, _, _) = red::mis_via_splitting(&g, base, s.seed);
        ctx.check("mis.valid", checks::is_mis(&g, &in_set), || {
            "MIS reduction output is not a maximal independent set".into()
        });
        // differential: both edge-splitting engines on the shared host
        for engine in [red::EdgeSplitEngine::Eulerian, red::EdgeSplitEngine::Walk] {
            match red::edge_coloring_via_splitting(&g, 8, engine) {
                Ok((colors, _, _)) => ctx.check(
                    "edge-coloring.proper",
                    checks::is_proper_edge_coloring(&g, &colors),
                    || format!("{engine:?} edge coloring is improper"),
                ),
                Err(err) => ctx.check("edge-coloring.applies", false, || {
                    format!("{engine:?} edge coloring failed: {err}")
                }),
            }
        }
    }
}

// ------------------------------------------------------------------- api

/// Drives the `splitting-api` request/solution layer over the scenario
/// and bit-compares every route against the entrypoint behind it, called
/// directly.
fn check_api(ctx: &mut Ctx<'_>) {
    let s = ctx.scenario;
    let b = &s.bipartite;
    let session = Session::with_threads(1);

    // weak splitting: the session must run the pipeline the dispatch
    // picks and agree bit for bit with its theorem entrypoint called
    // directly, in both determinism policies — same bits, same ledger,
    // same honesty about uncovered regimes
    for determinism in [Determinism::Deterministic, Determinism::Randomized] {
        let request = weak_request(s, b, determinism);
        let plan = weak_plan(s, b, determinism);
        let mode = determinism.name();
        let direct = plan.map(|p| weak_entrypoint(s, b, determinism, p));
        match (session.solve(&request), direct) {
            (Ok(solution), Some(Ok(out))) => {
                ctx.check(
                    "api.weak-bit-identical",
                    solution.output.two_coloring() == Some(&out.colors[..]),
                    || format!("{mode}: api output diverges from the theorem entrypoint"),
                );
                ctx.check(
                    "api.weak-provenance-pipeline",
                    solution.provenance.pipeline == plan,
                    || {
                        format!(
                            "{mode}: provenance says {:?}, the dispatch chose {plan:?}",
                            solution.provenance.pipeline
                        )
                    },
                );
                ctx.check("api.weak-certificate", solution.certificate.holds(), || {
                    format!("{mode}: returned certificate does not hold")
                });
                ctx.check(
                    "api.weak-reverify",
                    solution.reverify(request.instance()),
                    || format!("{mode}: certificate fails re-verification"),
                );
                ctx.check(
                    "api.weak-ledger-identical",
                    solution.ledger.total() == out.ledger.total(),
                    || {
                        format!(
                            "{mode}: api ledger {} vs entrypoint {}",
                            solution.ledger.total(),
                            out.ledger.total()
                        )
                    },
                );
            }
            (Err(api_err), direct @ (None | Some(Err(_)))) => {
                // both sides failed: the api error must be the typed
                // mapping of the reference's failure (uncovered regime →
                // unsupported-regime, exhausted retries →
                // randomized-failure, …), not merely any failure
                let expected = match direct {
                    Some(Err(e)) => ApiError::from(e).kind(),
                    _ => "unsupported-regime",
                };
                ctx.check(
                    "api.weak-negative-typed",
                    api_err.kind() == expected,
                    || format!("{mode}: expected {expected}, got {api_err}"),
                );
            }
            (Ok(_), _) => ctx.check("api.weak-agreement", false, || {
                format!("{mode}: api solved where the entrypoint failed or no pipeline applies")
            }),
            (Err(e), _) => ctx.check("api.weak-agreement", false, || {
                format!("{mode}: api failed with {e} where the entrypoint solved")
            }),
        }
    }

    // (C, λ)-multicolor: deterministic engine parity, including honest
    // declines outside the certified regime
    let request = Request::new(
        Problem::MulticolorSplitting {
            colors: 6,
            lambda: 0.6,
        },
        b.clone(),
    )
    .deterministic();
    match (
        session.solve(&request),
        core::multicolor_splitting_deterministic(b, 6, 0.6),
    ) {
        (Ok(solution), Ok(det)) => {
            ctx.check(
                "api.multicolor-bit-identical",
                solution.output.multi_coloring() == Some((&det.colors[..], det.palette)),
                || "api (C, λ) coloring diverges from the legacy engine".into(),
            );
            ctx.check(
                "api.multicolor-certificate",
                solution.certificate.holds() && solution.reverify(request.instance()),
                || "api (C, λ) certificate does not hold/re-verify".into(),
            );
        }
        (Err(api_err), Err(SplitError::EstimatorTooLarge { .. })) => ctx.check(
            "api.multicolor-declines-honestly",
            api_err.kind() == "certification-unavailable",
            || format!("expected certification-unavailable, got {api_err}"),
        ),
        (api, legacy) => ctx.check("api.multicolor-agreement", false, || {
            format!(
                "api {:?} vs legacy {:?} disagree about solvability",
                api.as_ref().map(|_| "ok").map_err(|e| e.kind()),
                legacy.as_ref().map(|_| "ok").err()
            )
        }),
    }

    // degree splitting on the scenario's derived multigraph
    if s.has(Regime::DegreeSplit) {
        let g = s.multigraph();
        let n = g.node_count();
        for engine in [Engine::EulerianOracle, Engine::Walk] {
            let request = Request::new(Problem::DegreeSplitting { eps: 0.25, engine }, g.clone())
                .deterministic();
            let legacy = DegreeSplitter::new(0.25, engine, Flavor::Deterministic).split(&g, n);
            let bits = |o: &splitgraph::Orientation| -> Vec<bool> {
                (0..o.edge_count())
                    .map(|e| o.is_towards_second(e))
                    .collect()
            };
            match session.solve(&request) {
                Ok(solution) => {
                    ctx.check(
                        "api.degree-split-bit-identical",
                        solution
                            .output
                            .edge_orientation()
                            .map(|o| bits(o) == bits(&legacy.orientation))
                            .unwrap_or(false),
                        || format!("{engine:?}: api orientation diverges from DegreeSplitter"),
                    );
                    ctx.check(
                        "api.degree-split-certificate",
                        solution.certificate.holds() && solution.reverify(request.instance()),
                        || format!("{engine:?}: contract certificate does not hold"),
                    );
                }
                Err(e) => ctx.check("api.degree-split-solves", false, || {
                    format!("{engine:?}: api rejected the multigraph: {e}")
                }),
            }
        }
    }

    // Section 4 reductions on small/medium hosts (same budget as the
    // legacy reductions group)
    let g = s.host_graph();
    if g.node_count() > 0 && g.edge_count() > 0 && g.edge_count() <= 3_000 && g.max_degree() >= 2 {
        let base = 4 * (splitgraph::math::log2(g.node_count().max(2)).ceil() as usize);

        let request = Request::new(
            Problem::Mis {
                base_degree: Some(base),
            },
            g.clone(),
        )
        .seed(s.seed);
        let (legacy, _, _) = red::mis_via_splitting(&g, base, s.seed);
        match session.solve(&request) {
            Ok(solution) => ctx.check(
                "api.mis-bit-identical",
                solution.output.independent_set() == Some(&legacy[..])
                    && solution.certificate.holds(),
                || "api MIS diverges from the legacy reduction".into(),
            ),
            Err(e) => ctx.check("api.mis-solves", false, || {
                format!("api rejected the MIS host: {e}")
            }),
        }

        let request = Request::new(
            Problem::EdgeColoring {
                base_degree: Some(8),
                engine: red::EdgeSplitEngine::Eulerian,
            },
            g.clone(),
        );
        match (
            session.solve(&request),
            red::edge_coloring_via_splitting(&g, 8, red::EdgeSplitEngine::Eulerian),
        ) {
            (Ok(solution), Ok((colors, _, _))) => ctx.check(
                "api.edge-coloring-bit-identical",
                solution
                    .output
                    .multi_coloring()
                    .map(|(xs, _)| xs == &colors[..])
                    .unwrap_or(false)
                    && solution.certificate.holds(),
                || "api edge coloring diverges from the legacy reduction".into(),
            ),
            (api, legacy) => ctx.check("api.edge-coloring-agreement", false, || {
                format!(
                    "api {:?} vs legacy {:?} disagree about solvability",
                    api.as_ref().map(|_| "ok").map_err(|e| e.kind()),
                    legacy.as_ref().map(|_| "ok").err()
                )
            }),
        }
    }

    // Definition 1.3 weak multicolor in its certified regime
    if s.has(Regime::Multicolor) {
        let request = Request::new(Problem::WeakMulticolor, b.clone()).deterministic();
        match (
            session.solve(&request),
            core::weak_multicolor_deterministic(b),
        ) {
            (Ok(solution), Ok(det)) => ctx.check(
                "api.weak-multicolor-bit-identical",
                solution.output.multi_coloring() == Some((&det.colors[..], det.palette))
                    && solution.certificate.holds(),
                || "api Def 1.3 coloring diverges from the legacy engine".into(),
            ),
            (api, legacy) => ctx.check("api.weak-multicolor-agreement", false, || {
                format!(
                    "api {:?} vs legacy {:?} disagree about solvability",
                    api.as_ref().map(|_| "ok").map_err(|e| e.kind()),
                    legacy.as_ref().map(|_| "ok").err()
                )
            }),
        }
    }

    // uniform splitting parity on hosts the legacy group also drives
    if g.max_degree() >= 4 && g.edge_count() <= 64_000 && g.edge_count() > 0 {
        let dmax = g.max_degree();
        let eps = red::feasible_eps(g.node_count(), dmax);
        let request = Request::new(
            Problem::UniformSplitting {
                eps: Some(eps),
                min_degree: Some(dmax),
            },
            g.clone(),
        )
        .deterministic();
        match (
            session.solve(&request),
            red::uniform_splitting_deterministic(&g, eps, dmax),
        ) {
            (Ok(solution), Ok(out)) => ctx.check(
                "api.uniform-bit-identical",
                solution.output.two_coloring() == Some(&out.colors[..])
                    && solution.certificate.holds(),
                || "api uniform splitting diverges from the legacy engine".into(),
            ),
            (Err(api_err), Err(SplitError::EstimatorTooLarge { .. })) => ctx.check(
                "api.uniform-declines-honestly",
                api_err.kind() == "certification-unavailable" && !s.has(Regime::Uniform),
                || format!("uniform decline mismatch: {api_err}"),
            ),
            (api, legacy) => ctx.check("api.uniform-agreement", false, || {
                format!(
                    "api {:?} vs legacy {:?} disagree about solvability",
                    api.as_ref().map(|_| "ok").map_err(|e| e.kind()),
                    legacy.as_ref().map(|_| "ok").err()
                )
            }),
        }
    }

    // Δ-coloring parity on small hosts (same budget as the legacy group)
    if g.node_count() > 0 && g.edge_count() > 0 && g.edge_count() <= 3_000 && g.max_degree() >= 2 {
        let base = 4 * (splitgraph::math::log2(g.node_count().max(2)).ceil() as usize);
        let request = Request::new(
            Problem::DeltaColoring {
                base_degree: Some(base),
                max_eps: Some(0.35),
            },
            g.clone(),
        )
        .deterministic();
        match (
            session.solve(&request),
            red::delta_coloring_via_splitting(&g, base, Some(0.35)),
        ) {
            (Ok(solution), Ok((colors, _, _))) => ctx.check(
                "api.delta-coloring-bit-identical",
                solution
                    .output
                    .multi_coloring()
                    .map(|(xs, _)| xs == &colors[..])
                    .unwrap_or(false)
                    && solution.certificate.holds(),
                || "api Δ-coloring diverges from the legacy reduction".into(),
            ),
            (api, legacy) => ctx.check("api.delta-coloring-agreement", false, || {
                format!(
                    "api {:?} vs legacy {:?} disagree about solvability",
                    api.as_ref().map(|_| "ok").map_err(|e| e.kind()),
                    legacy.as_ref().map(|_| "ok").err()
                )
            }),
        }
    }

    // sinkless orientation parity where the Figure 1 reduction applies
    if g.node_count() > 0 && g.min_degree() >= 5 && g.edge_count() <= 3_000 {
        let ids: Vec<u64> = (0..g.node_count() as u64).collect();
        let request = Request::new(Problem::SinklessOrientation, g.clone()).seed(s.seed);
        match (
            session.solve(&request),
            core::sinkless_via_weak_splitting(&g, &ids, s.seed),
        ) {
            (Ok(solution), Ok(reduction)) => ctx.check(
                "api.sinkless-bit-identical",
                solution
                    .output
                    .host_orientation()
                    .map(|o| o.forward == reduction.orientation.forward)
                    .unwrap_or(false)
                    && solution.certificate.holds(),
                || "api sinkless orientation diverges from the Figure 1 pipeline".into(),
            ),
            (api, legacy) => ctx.check("api.sinkless-agreement", false, || {
                format!(
                    "api {:?} vs legacy {:?} disagree about solvability",
                    api.as_ref().map(|_| "ok").map_err(|e| e.kind()),
                    legacy.as_ref().map(|_| "ok").err()
                )
            }),
        }
    }

    // batch = sequential, in request order (two policies over the shared
    // instance — cheap, and exercises the scoped-thread path)
    let requests = vec![
        Request::new(
            Problem::WeakSplitting {
                thm12_constant: s.thm12_constant,
            },
            b.clone(),
        )
        .seed(s.seed),
        Request::new(
            Problem::WeakSplitting {
                thm12_constant: s.thm12_constant,
            },
            b.clone(),
        )
        .deterministic(),
    ];
    let sequential: Vec<_> = requests.iter().map(|r| session.solve(r)).collect();
    let batched = Session::with_threads(2).solve_batch(&requests);
    let batch_matches = sequential.len() == batched.len()
        && sequential.iter().zip(&batched).all(|(a, b)| match (a, b) {
            (Ok(x), Ok(y)) => x.output == y.output,
            (Err(x), Err(y)) => x == y,
            _ => false,
        });
    ctx.check("api.batch-equals-sequential", batch_matches, || {
        "solve_batch diverges from sequential solve on the same requests".into()
    });
}

// ---------------------------------------------------------------- server

/// The scenario's service-request menu, mirroring the api group's
/// regime gating so every family exercises each applicable variant —
/// including ones that resolve to typed error payloads. Shared between
/// the `server` group and the `service` group's inline solves.
pub(crate) fn server_request_menu(s: &Scenario) -> Vec<(&'static str, splitting_api::Request)> {
    use splitting_api::{Determinism, Problem, Request};

    let b = &s.bipartite;
    let g = s.host_graph();
    let small_host =
        g.node_count() > 0 && g.edge_count() > 0 && g.edge_count() <= 3_000 && g.max_degree() >= 2;

    let mut requests: Vec<(&'static str, Request)> = vec![
        (
            "weak-det",
            Request::new(
                Problem::WeakSplitting {
                    thm12_constant: s.thm12_constant,
                },
                b.clone(),
            )
            .deterministic(),
        ),
        (
            "weak-rand",
            Request::new(
                Problem::WeakSplitting {
                    thm12_constant: s.thm12_constant,
                },
                b.clone(),
            )
            .determinism_policy(Determinism::Randomized)
            .seed(s.seed),
        ),
        (
            "multicolor",
            Request::new(
                Problem::MulticolorSplitting {
                    colors: 6,
                    lambda: 0.6,
                },
                b.clone(),
            )
            .deterministic(),
        ),
    ];
    if s.has(Regime::Multicolor) {
        requests.push((
            "weak-multicolor",
            Request::new(Problem::WeakMulticolor, b.clone()).deterministic(),
        ));
    }
    if s.has(Regime::DegreeSplit) {
        requests.push((
            "degree-split",
            Request::new(
                Problem::DegreeSplitting {
                    eps: 0.25,
                    engine: Engine::EulerianOracle,
                },
                s.multigraph(),
            )
            .deterministic(),
        ));
    }
    if small_host {
        let base = 4 * (splitgraph::math::log2(g.node_count().max(2)).ceil() as usize);
        requests.push((
            "mis",
            Request::new(
                Problem::Mis {
                    base_degree: Some(base),
                },
                g.clone(),
            )
            .seed(s.seed),
        ));
        requests.push((
            "delta-coloring",
            Request::new(
                Problem::DeltaColoring {
                    base_degree: Some(base),
                    max_eps: Some(0.35),
                },
                g.clone(),
            )
            .deterministic(),
        ));
        requests.push((
            "edge-coloring",
            Request::new(
                Problem::EdgeColoring {
                    base_degree: Some(8),
                    engine: red::EdgeSplitEngine::Eulerian,
                },
                g.clone(),
            ),
        ));
    }
    if g.node_count() > 0 && g.min_degree() >= 5 && g.edge_count() <= 3_000 {
        requests.push((
            "sinkless",
            Request::new(Problem::SinklessOrientation, g.clone()).seed(s.seed),
        ));
    }
    requests
}

fn check_server(ctx: &mut Ctx<'_>) {
    use splitting_api::Session;
    use splitting_server::{wire, Priority, Server, ServerConfig, Submitted};

    let s = ctx.scenario;
    let requests = server_request_menu(s);

    // ground truth: the direct in-process rendering, solution or typed
    // error — exactly the payload the wire must carry, byte for byte
    let session = Session::with_threads(1);
    let expected: Vec<String> = requests
        .iter()
        .map(|(_, r)| {
            session
                .solve(r)
                .map_or_else(|e| e.to_json_line(), |sol| sol.to_json_line())
        })
        .collect();

    // wire path: render each request, round-trip it through the codec,
    // submit over one connection, and read the ordered reply stream
    let server = Server::start(ServerConfig {
        workers: 2,
        record_timings: false,
        ..ServerConfig::default()
    });
    let (mut tx, rx) = server.connect().split();
    for (name, request) in &requests {
        let line = wire::render_request(name, Priority::Normal, request);
        ctx.check(
            "server.request-roundtrip",
            wire::parse_request(&line)
                .map(|(envelope, parsed)| envelope.id == *name && parsed == *request)
                .unwrap_or(false),
            || format!("{name}: rendered request does not parse back identically"),
        );
        ctx.check(
            "server.admitted",
            tx.submit_line(&line) == Submitted::Queued,
            || format!("{name}: request refused admission"),
        );
    }
    tx.finish();
    let frames: Vec<String> = rx.collect();
    ctx.check(
        "server.one-reply-per-request",
        frames.len() == requests.len(),
        || format!("{} requests but {} replies", requests.len(), frames.len()),
    );
    for (i, ((name, _), want)) in requests.iter().zip(&expected).enumerate() {
        let Some(frame) = frames.get(i) else { break };
        let Some(reply) = wire::split_reply(frame) else {
            ctx.check("server.reply-parses", false, || {
                format!("{name}: reply frame is malformed: {frame}")
            });
            continue;
        };
        ctx.check(
            "server.reply-order",
            reply.id == *name && reply.seq == i as u64,
            || {
                format!(
                    "expected {name} at seq {i}, got {} at seq {}",
                    reply.id, reply.seq
                )
            },
        );
        ctx.check(
            "server.payload-byte-identical",
            reply.payload == Some(want.as_str()),
            || format!("{name}: wire payload diverges from direct Session::solve rendering"),
        );
        let expect_type = if want.starts_with("{\"event\":\"solution\"") {
            "solution"
        } else {
            "error"
        };
        ctx.check("server.frame-type", reply.frame_type == expect_type, || {
            format!("{name}: frame type {} for payload {want}", reply.frame_type)
        });
    }

    // the in-process fast path (pre-parsed requests, no codec) must
    // produce the very same frame stream as the wire path
    let (mut tx, rx) = server.connect().split();
    for (name, request) in &requests {
        tx.submit_request(name, Priority::Normal, request.clone());
    }
    tx.finish();
    let inproc: Vec<String> = rx.collect();
    ctx.check("server.inproc-equals-wire", inproc == frames, || {
        "submit_request frame stream diverges from the wire-path stream".into()
    });

    // instance-handle path: upload every distinct instance once, solve
    // the whole menu by handle, and require byte parity with the inline
    // wire pass above
    let (mut tx, mut rx) = server.connect().split();
    let handles: Vec<String> = requests
        .iter()
        .map(|(_, r)| wire::render_handle(wire::instance_fingerprint(r.instance())))
        .collect();
    let mut uploaded: Vec<&str> = Vec::new();
    for ((name, request), handle) in requests.iter().zip(&handles) {
        let first = !uploaded.contains(&handle.as_str());
        ctx.check(
            "server.upload-admitted",
            tx.submit_line(&wire::render_upload(name, request.instance())) == Submitted::Replied,
            || format!("{name}: upload frame not answered inline"),
        );
        let Some(frame) = rx.recv() else {
            ctx.check("server.upload-replied", false, || {
                format!("{name}: no uploaded frame arrived")
            });
            continue;
        };
        let reply = wire::split_reply(&frame);
        ctx.check(
            "server.upload-names-content-handle",
            reply
                .as_ref()
                .is_some_and(|r| r.frame_type == "uploaded" && frame.contains(handle.as_str())),
            || format!("{name}: uploaded frame lacks handle {handle}: {frame}"),
        );
        if first {
            uploaded.push(handle);
        } else {
            // duplicate-content upload is idempotent: same handle, no
            // new table entry
            ctx.check(
                "server.upload-idempotent",
                frame.contains(&format!("\"held\":{}", uploaded.len())),
                || format!("{name}: re-upload grew the handle table: {frame}"),
            );
        }
    }
    for (i, ((name, request), handle)) in requests.iter().zip(&handles).enumerate() {
        let line = wire::render_request_with(
            name,
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(handle),
            request,
        );
        ctx.check(
            "server.handle-admitted",
            tx.submit_line(&line) == Submitted::Queued,
            || format!("{name}: handle-form request refused admission"),
        );
        let Some(frame) = rx.recv() else {
            ctx.check("server.handle-replied", false, || {
                format!("{name}: no reply to the handle-form request")
            });
            continue;
        };
        let reply = wire::split_reply(&frame);
        ctx.check(
            "server.handle-equals-inline",
            reply.is_some_and(|r| r.payload.map(str::to_owned) == Some(expected[i].clone())),
            || format!("{name}: handle-form payload diverges from the inline form"),
        );
    }
    // release lifecycle: every handle releases exactly once; a second
    // release and a post-release solve are typed errors; re-upload works
    for (handle, (name, request)) in uploaded.iter().zip(&requests) {
        tx.submit_line(&wire::render_release(name, handle));
        let released = rx.recv().unwrap_or_default();
        ctx.check(
            "server.release-replied",
            wire::split_reply(&released).is_some_and(|r| r.frame_type == "released"),
            || format!("{name}: release not acknowledged: {released}"),
        );
        tx.submit_line(&wire::render_release(name, handle));
        let again = rx.recv().unwrap_or_default();
        ctx.check(
            "server.double-release-is-typed-error",
            again.contains("unknown instance handle"),
            || format!("{name}: double release not a typed error: {again}"),
        );
        tx.submit_line(&wire::render_request_with(
            name,
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(handle),
            request,
        ));
        let stale = rx.recv().unwrap_or_default();
        ctx.check(
            "server.stale-handle-is-typed-error",
            stale.contains("upload it first"),
            || format!("{name}: post-release solve not a typed error: {stale}"),
        );
    }
    tx.finish();
    ctx.check("server.handle-stream-drained", rx.recv().is_none(), || {
        "unexpected trailing frames on the handle connection".into()
    });
    // every rendering this pass produced is canonical, so no instance
    // edge list may have used a non-canonical spelling
    let stats = server.stats();
    ctx.check("server.fast-path", stats.parse_fallbacks == 0, || {
        format!(
            "{} canonical instance edge lists counted as a non-canonical spelling",
            stats.parse_fallbacks
        )
    });
    ctx.check("server.handles-released", stats.handles_held == 0, || {
        format!(
            "{} handles still held after release pass",
            stats.handles_held
        )
    });
    server.shutdown();
}

// ----------------------------------------------------------- metamorphic

/// Applies a right-side relabeling to a bipartite instance.
fn relabel_right(b: &BipartiteGraph, perm: &[usize]) -> BipartiteGraph {
    let edges: Vec<(usize, usize)> = b.edges().map(|(u, v)| (u, perm[v])).collect();
    BipartiteGraph::from_edges(b.left_count(), b.right_count(), &edges)
        .expect("relabeling preserves simplicity")
}

fn check_metamorphic(ctx: &mut Ctx<'_>) {
    let s = ctx.scenario;
    let b = &s.bipartite;
    if !s.weak_pipeline_expected() {
        // negative instances stay negative under relabeling
        let mut rng = StdRng::seed_from_u64(s.seed ^ 0x5EED_5EED);
        let mut perm: Vec<usize> = (0..b.right_count()).collect();
        perm.shuffle(&mut rng);
        let relabeled = relabel_right(b, &perm);
        ctx.check(
            "metamorphic.negative-relabel",
            weak_plan(s, &relabeled, Determinism::Randomized).is_none(),
            || "relabeling changed an uncovered instance into a covered one".into(),
        );
        return;
    }

    // randomized solves through the session, each instance's colors
    let session = Session::with_threads(1);
    let solve = |instance: &BipartiteGraph| {
        session
            .solve(&weak_request(s, instance, Determinism::Randomized))
            .map(|solution| solution.output.two_coloring().unwrap_or_default().to_vec())
    };
    let Ok(colors) = solve(b) else {
        ctx.check("metamorphic.base-solve", false, || {
            "positive instance failed to solve".into()
        });
        return;
    };

    // Red ↔ Blue swap symmetry: weak splitting is color-symmetric
    let flipped: Vec<Color> = colors.iter().map(|c| c.flipped()).collect();
    ctx.check(
        "metamorphic.color-swap",
        checks::is_weak_splitting(b, &flipped, 0),
        || "flipping Red↔Blue broke a valid weak splitting".into(),
    );

    // node-relabeling equivariance: a permuted instance is still solvable,
    // and transporting the original solution along the permutation keeps
    // it valid on the permuted instance
    let mut rng = StdRng::seed_from_u64(s.seed ^ 0x5EED_5EED);
    let mut perm: Vec<usize> = (0..b.right_count()).collect();
    perm.shuffle(&mut rng);
    let relabeled = relabel_right(b, &perm);
    match solve(&relabeled) {
        Ok(rcolors) => ctx.check(
            "metamorphic.relabel-solvable",
            checks::is_weak_splitting(&relabeled, &rcolors, 0),
            || "solver output on the relabeled instance is invalid".into(),
        ),
        Err(err) => ctx.check("metamorphic.relabel-solvable", false, || {
            format!("relabeled instance rejected: {err}")
        }),
    }
    let mut transported = colors.clone();
    for (v, &c) in colors.iter().enumerate() {
        transported[perm[v]] = c;
    }
    ctx.check(
        "metamorphic.relabel-transport",
        checks::is_weak_splitting(&relabeled, &transported, 0),
        || "transported solution invalid on the relabeled instance".into(),
    );

    // disjoint-union composition (bounded to keep the cell cheap):
    // solving the union solves each part, and gluing part solutions
    // solves the union
    if b.edge_count() <= 10_000 {
        let union = splitgraph::generators::bipartite_disjoint_union(&[b, b]);
        if weak_plan(s, &union, Determinism::Randomized).is_some() {
            match solve(&union) {
                Ok(ucolors) => {
                    let first: Vec<Color> = ucolors[..b.right_count()].to_vec();
                    let second: Vec<Color> = ucolors[b.right_count()..].to_vec();
                    ctx.check(
                        "metamorphic.union-restricts",
                        checks::is_weak_splitting(b, &first, 0)
                            && checks::is_weak_splitting(b, &second, 0),
                        || "union solution does not restrict to the parts".into(),
                    );
                }
                Err(err) => ctx.check("metamorphic.union-solvable", false, || {
                    format!("self-union of a covered instance rejected: {err}")
                }),
            }
            let mut glued = colors.clone();
            glued.extend(colors.iter().copied());
            ctx.check(
                "metamorphic.parts-compose",
                checks::is_weak_splitting(&union, &glued, 0),
                || "gluing two valid part solutions broke the union".into(),
            );
        }
    }
}
