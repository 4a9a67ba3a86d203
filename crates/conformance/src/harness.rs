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
    /// against the legacy entrypoint it shims, with verified
    /// certificates and batch/sequential equality.
    Api,
    /// The `splitd` service layer: every applicable request rendered to
    /// the wire, run through the job-queue server, and the embedded
    /// reply payload byte-compared against a direct `Session::solve`
    /// rendering — the bit-parity guarantee of `docs/PROTOCOL.md`.
    Server,
    /// The service under seeded fault injection: the scenario's request
    /// menu replayed through a chaos-armed server (worker panics,
    /// stalls, torn frames, dropped connections), asserting that every
    /// admitted request gets exactly one reply or a clean teardown,
    /// surviving replies stay byte-identical to direct solves, reply
    /// order is preserved, the fault schedule replays bit-identically
    /// from its seed, and the pool survives to serve fresh work.
    Chaos,
    /// Crash safety: the scenario menu driven through a journaled
    /// server that is killed (`process_kill` chaos site) mid-stream,
    /// asserting that no admitted request is lost, none is applied
    /// twice, recovered solutions are byte-identical to the
    /// uninterrupted run, keyed retries replay from the idempotency
    /// cache instead of re-solving, and corrupt or torn journal images
    /// recover cleanly to the last valid record.
    Recovery,
    /// Incremental re-splitting under churn: seeded grow/shrink/rewire
    /// mutation streams driven through `Session::hold` /
    /// `HeldSolution::apply`, asserting every repaired solution's
    /// certificate re-verifies against the patched instance, repair and
    /// from-scratch solves agree on accept/decline at every step, the
    /// full stream applied up front reproduces the final instance
    /// bit-for-bit, and the server's `mutate` path answers
    /// byte-identically to the direct hold → apply path.
    Churn,
    /// The server's instance store against a reference model: seeded
    /// upload / solve / mutate / keyed-retry / release sequences, with
    /// clean and `process_kill` restarts anywhere in them, driven
    /// through a journaled server whose held cache and compaction
    /// threshold are small enough to evict and compact within a few
    /// operations. Every state reply must equal the model's rendering,
    /// keyed retries replay byte-identically across restarts, solves
    /// certify on the model's edge set, and the handles that resolve
    /// after a restart are exactly the model's live ones.
    Store,
}

impl Group {
    /// Every group, in matrix-column order.
    pub const ALL: [Group; 12] = [
        Group::Solver,
        Group::Theorems,
        Group::Multicolor,
        Group::DegreeSplit,
        Group::Reductions,
        Group::Metamorphic,
        Group::Api,
        Group::Server,
        Group::Chaos,
        Group::Recovery,
        Group::Churn,
        Group::Store,
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
            Group::Chaos => "chaos",
            Group::Recovery => "recovery",
            Group::Churn => "churn",
            Group::Store => "store",
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
struct Ctx<'a> {
    scenario: &'a Scenario,
    group: Group,
    checks: usize,
    failures: Vec<Finding>,
}

impl<'a> Ctx<'a> {
    fn new(scenario: &'a Scenario, group: Group) -> Self {
        Ctx {
            scenario,
            group,
            checks: 0,
            failures: Vec::new(),
        }
    }

    /// Records a check; on failure, captures the detail for the ledger.
    fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
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
/// `--group` filter (e.g. a chaos-only CI sweep).
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
        Group::Chaos => check_chaos(&mut ctx),
        Group::Recovery => check_recovery(&mut ctx),
        Group::Churn => check_churn(&mut ctx),
        Group::Store => check_store(&mut ctx),
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
/// and bit-compares every route against the legacy entrypoint it shims.
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
/// the `server` (fault-free parity) and `chaos` (fault-injected
/// survival) groups.
fn server_request_menu(s: &Scenario) -> Vec<(&'static str, splitting_api::Request)> {
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

// ---------------------------------------------------------------- chaos

/// One fault-injected pass of the scenario menu through a fresh server:
/// returns the transport outcome, the raw bytes that reached the wire,
/// and whether the pool still serves after the faults.
fn chaos_pass(
    requests: &[(&'static str, splitting_api::Request)],
    chaos_seed: u64,
) -> (
    std::io::Result<splitting_server::transport::ServeSummary>,
    Vec<u8>,
    bool,
) {
    use splitting_api::{Problem, Request};
    use splitting_server::{transport, wire, ChaosConfig, Priority, Server, ServerConfig};

    let server = Server::start(ServerConfig {
        workers: 2,
        record_timings: false,
        chaos: Some(ChaosConfig {
            seed: chaos_seed,
            worker_panic: 0.2,
            worker_stall: 0.1,
            stall_ms: 1,
            torn_frame: 0.1,
            drop_connection: 0.05,
            process_kill: 0.0,
        }),
        ..ServerConfig::default()
    });
    let mut input = String::new();
    for (name, request) in requests {
        input.push_str(&wire::render_request(name, Priority::Normal, request));
        input.push('\n');
    }
    let mut out = Vec::new();
    let outcome = transport::serve_stream(&server, input.as_bytes(), &mut out);
    // liveness probe: whatever the faults did to that connection, the
    // pool must still answer fresh in-process work (the probe bypasses
    // the transport, so the stream-writer faults cannot touch it; the
    // worker faults key off (conn, seq), so a panic here is possible
    // and still must yield exactly one frame)
    let (mut tx, mut rx) = server.connect().split();
    tx.submit_request(
        "liveness",
        Priority::Normal,
        Request::new(
            Problem::Mis {
                base_degree: Some(8),
            },
            splitgraph::generators::cycle(6).expect("probe graph"),
        ),
    );
    tx.finish();
    let alive = rx
        .recv()
        .is_some_and(|frame| wire::split_reply(&frame).is_some_and(|r| r.id == "liveness"))
        && rx.recv().is_none();
    // bounded teardown is part of the liveness contract
    let drained = server.drain();
    server.shutdown();
    (outcome, out, drained && alive)
}

fn check_chaos(ctx: &mut Ctx<'_>) {
    use splitting_api::Session;
    use splitting_server::wire;

    let s = ctx.scenario;
    let requests = server_request_menu(s);
    let session = Session::with_threads(1);
    let expected: Vec<String> = requests
        .iter()
        .map(|(_, r)| {
            session
                .solve(r)
                .map_or_else(|e| e.to_json_line(), |sol| sol.to_json_line())
        })
        .collect();

    // CI sweeps extra schedules by exporting CONFORMANCE_CHAOS_SEED;
    // unset, the schedule is a pure function of the scenario seed
    let sweep = std::env::var("CONFORMANCE_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    let chaos_seed = s.seed ^ 0xc0a5_f00d ^ sweep.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let (outcome, bytes, alive) = chaos_pass(&requests, chaos_seed);

    // invariant: the fault schedule is a pure function of the seed — a
    // second pass over a fresh server reproduces the wire byte stream
    // and the transport outcome exactly
    let (outcome2, bytes2, alive2) = chaos_pass(&requests, chaos_seed);
    ctx.check(
        "chaos.schedule-replays-bit-identically",
        bytes == bytes2
            && outcome.is_ok() == outcome2.is_ok()
            && outcome.as_ref().ok() == outcome2.as_ref().ok(),
        || "same chaos seed over the same menu produced a different wire stream".into(),
    );

    // invariant: one reply per admitted request, or a clean teardown.
    // A fault-free transport outcome must have answered everything; a
    // failed one must be the injected stream fault, never a hang (the
    // harness reaching this line at all pins the no-deadlock half).
    let text = String::from_utf8_lossy(&bytes);
    let complete_lines: Vec<&str> = if bytes.ends_with(b"\n") {
        text.lines().collect()
    } else {
        // a torn frame leaves a trailing fragment: every line before it
        // is complete
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        lines
    };
    match &outcome {
        Ok(summary) => {
            ctx.check(
                "chaos.every-admitted-request-answered",
                summary.replies_out == requests.len() as u64
                    && complete_lines.len() == requests.len(),
                || {
                    format!(
                        "clean run answered {} of {} requests",
                        summary.replies_out,
                        requests.len()
                    )
                },
            );
        }
        Err(e) => {
            ctx.check(
                "chaos.teardown-is-the-injected-fault",
                e.to_string().contains("chaos:"),
                || format!("connection died of an uninjected fault: {e}"),
            );
        }
    }

    // invariants on every complete frame that survived: parses, stays
    // in submission order, and — unless the worker panic fault replaced
    // the solve — carries the byte-identical direct payload
    let mut last_seq = None;
    for frame in &complete_lines {
        let Some(reply) = wire::split_reply(frame) else {
            ctx.check("chaos.surviving-frame-parses", false, || {
                format!("surviving frame is malformed: {frame}")
            });
            continue;
        };
        ctx.check(
            "chaos.reply-order-preserved",
            last_seq.is_none_or(|prev| reply.seq > prev),
            || format!("seq {} arrived after {last_seq:?}", reply.seq),
        );
        last_seq = Some(reply.seq);
        let i = reply.seq as usize;
        let Some((name, _)) = requests.get(i) else {
            ctx.check("chaos.reply-seq-in-range", false, || {
                format!("reply seq {i} exceeds the {}-request menu", requests.len())
            });
            continue;
        };
        ctx.check("chaos.reply-id-matches-request", reply.id == *name, || {
            format!("seq {i} reply id {} but request was {name}", reply.id)
        });
        let injected_panic = reply
            .payload
            .is_some_and(|p| p.contains("\"kind\":\"internal-panic\""));
        if !injected_panic {
            ctx.check(
                "chaos.surviving-payload-byte-identical",
                reply.payload == Some(expected[i].as_str()),
                || format!("{name}: surviving reply diverges from direct Session::solve"),
            );
        }
    }

    // invariant: no leaked workers, no wedged pool — both passes ended
    // with a live pool and a bounded drain
    ctx.check("chaos.pool-survives-and-drains", alive && alive2, || {
        "server failed the post-chaos liveness probe or drain bound".into()
    });
}

// -------------------------------------------------------------- recovery

/// Drives the crash-safety contract end to end: a journaled,
/// single-worker server is killed at a seed-chosen job mid-menu
/// (the `process_kill` chaos site), a fresh server recovers from the
/// same journal, and the client reconnects and retries every request
/// under its original idempotency key. The kill position is made
/// deterministic by probing the seeded schedule and picking the
/// probability that fires exactly once, so every seed exercises a
/// different crash point without any flakiness.
fn check_recovery(ctx: &mut Ctx<'_>) {
    use splitting_api::Session;
    use splitting_server::{
        journal, wire, Admission, ChaosConfig, FsyncPolicy, Journal, Priority, Server, ServerConfig,
    };
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let s = ctx.scenario;
    let requests = server_request_menu(s);
    let session = Session::with_threads(1);
    let expected: Vec<String> = requests
        .iter()
        .map(|(_, r)| {
            session
                .solve(r)
                .map_or_else(|e| e.to_json_line(), |sol| sol.to_json_line())
        })
        .collect();

    // CI sweeps extra crash schedules and fsync policies via env, like
    // the chaos group; unset, both are pure functions of the scenario
    let sweep = std::env::var("CONFORMANCE_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    let chaos_seed = s.seed ^ 0x5afe_c0de ^ sweep.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let policy = std::env::var("CONFORMANCE_FSYNC_POLICY")
        .ok()
        .and_then(|v| FsyncPolicy::parse(&v))
        .unwrap_or(FsyncPolicy::Batch);

    // place the kill deterministically: the site's draw is a pure
    // function of (seed, conn, seq), so the probability just above the
    // menu's smallest draw fires exactly once, at a seed-chosen job
    let probe = ChaosConfig {
        seed: chaos_seed,
        ..ChaosConfig::default()
    };
    let rolls: Vec<f64> = (0..requests.len() as u64)
        .map(|seq| probe.process_kill_roll(0, seq))
        .collect();
    let kill_seq = rolls
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("rolls are finite"))
        .map(|(i, _)| i)
        .expect("menu is non-empty");
    let mut sorted = rolls.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("rolls are finite"));
    let process_kill = if sorted.len() > 1 {
        (sorted[0] + sorted[1]) / 2.0
    } else {
        sorted[0] + 1e-12
    };

    let path = std::env::temp_dir().join(format!(
        "splitd-recovery-{}-{}-{}-{}.journal",
        std::process::id(),
        s.family.replace(['/', '#'], "-"),
        s.seed,
        sweep
    ));
    let _ = std::fs::remove_file(&path);
    let keys: Vec<String> = requests
        .iter()
        .map(|(name, _)| format!("{name}#{}", s.seed))
        .collect();

    // ---- pass 1: the journaled server dies mid-stream ---------------
    let journal1 = Arc::new(Journal::open(&path, policy).expect("fresh journal opens"));
    let server = Server::start(ServerConfig {
        workers: 1,
        record_timings: false,
        admission: Admission::Block,
        chaos: Some(ChaosConfig {
            seed: chaos_seed,
            process_kill,
            ..ChaosConfig::default()
        }),
        journal: Some(Arc::clone(&journal1)),
        ..ServerConfig::default()
    });
    let (mut tx, mut rx) = server.connect().split();
    for ((name, request), key) in requests.iter().zip(&keys) {
        let line = wire::render_request_with(
            name,
            Priority::Normal,
            Some(key),
            wire::InstanceRef::Inline,
            request,
        );
        let _ = tx.submit_line(&line);
    }
    tx.finish();
    let mut delivered: Vec<String> = Vec::new();
    while let Some(frame) = rx.recv() {
        delivered.push(frame);
    }
    ctx.check("recovery.kill-fires", server.killed(), || {
        format!(
            "process_kill = {process_kill} never fired over {} jobs",
            requests.len()
        )
    });
    server.halt();
    drop(journal1);

    // ---- the journal image is the crash's ground truth --------------
    let bytes = std::fs::read(&path).expect("journal image readable");
    let scanned = journal::scan(&bytes).expect("own journal must scan clean");
    let admitted: Vec<&journal::AdmittedRecord> = scanned
        .records
        .iter()
        .filter_map(|r| match r {
            journal::Record::Admitted(rec) => Some(rec),
            journal::Record::Payload { .. } | journal::Record::Completed { .. } => None,
        })
        .collect();
    let completed_count = scanned
        .records
        .iter()
        .filter(|r| matches!(r, journal::Record::Completed { .. }))
        .count();
    let pending = journal::incomplete(&scanned.records);
    ctx.check(
        "recovery.in-process-kill-leaves-no-torn-tail",
        scanned.truncated == 0,
        || format!("{} torn bytes after an in-process kill", scanned.truncated),
    );
    ctx.check(
        "recovery.admission-order-preserved",
        admitted
            .iter()
            .zip(&requests)
            .all(|(rec, (name, _))| rec.id == *name),
        || "journaled admission order diverges from submission order".into(),
    );
    ctx.check(
        "recovery.completions-match-deliveries",
        completed_count == delivered.len() && delivered.len() == kill_seq,
        || {
            format!(
                "kill at job {kill_seq}: {} deliveries, {completed_count} completions",
                delivered.len()
            )
        },
    );
    ctx.check(
        "recovery.incomplete-is-exactly-the-lost-tail",
        pending.len() == admitted.len() - delivered.len()
            && pending.first().map(|r| r.id.as_str()) == requests.get(kill_seq).map(|(n, _)| *n),
        || {
            format!(
                "{} admitted, {} delivered, but {} incomplete (first: {:?})",
                admitted.len(),
                delivered.len(),
                pending.len(),
                pending.first().map(|r| &r.id)
            )
        },
    );
    for (i, frame) in delivered.iter().enumerate() {
        let ok = wire::split_reply(frame)
            .is_some_and(|r| r.seq == i as u64 && r.payload == Some(expected[i].as_str()));
        ctx.check("recovery.pre-kill-replies-byte-identical", ok, || {
            format!("delivered frame {i} diverges from the direct rendering: {frame}")
        });
    }

    // torn-tail property, directly on the image: any byte-length prefix
    // recovers exactly the fully-written records — never an error, a
    // panic, or a half-record
    let mut framed_ends = Vec::new();
    let mut pos = journal::HEADER_LEN;
    for record in &scanned.records {
        pos += journal::encode_record(record).len();
        framed_ends.push(pos);
    }
    for cut in [
        journal::HEADER_LEN,
        (journal::HEADER_LEN + bytes.len()) / 2,
        bytes.len().saturating_sub(1),
    ] {
        let want = framed_ends.iter().filter(|&&end| end <= cut).count();
        let ok = match journal::scan(&bytes[..cut]) {
            Ok(torn) => torn.records.len() == want && torn.records[..] == scanned.records[..want],
            Err(_) => false,
        };
        ctx.check("recovery.torn-prefix-recovers-full-records", ok, || {
            format!("cut at byte {cut}: did not recover exactly {want} records")
        });
    }
    // a flipped byte inside a record truncates to the records before it
    if bytes.len() > journal::HEADER_LEN + 1 {
        let mut corrupt = bytes.clone();
        let hit = journal::HEADER_LEN + (corrupt.len() - journal::HEADER_LEN) / 2;
        corrupt[hit] ^= 0xff;
        let ok = match journal::scan(&corrupt) {
            Ok(out) => {
                out.records.len() <= scanned.records.len()
                    && out.records[..] == scanned.records[..out.records.len()]
            }
            Err(_) => false,
        };
        ctx.check("recovery.corrupt-record-truncates-cleanly", ok, || {
            format!("flipping byte {hit} did not truncate to a valid record prefix")
        });
    }
    // header damage is a typed refusal, never a guess
    ctx.check(
        "recovery.foreign-bytes-are-typed-bad-magic",
        matches!(
            journal::scan(b"NOT-A-JOURNAL-AT-ALL"),
            Err(journal::JournalError::BadMagic(_))
        ),
        || "scan accepted a non-journal image".into(),
    );
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    ctx.check(
        "recovery.version-mismatch-is-typed",
        matches!(
            journal::scan(&future),
            Err(journal::JournalError::VersionMismatch {
                found: u32::MAX,
                ..
            })
        ),
        || "scan accepted a future-format journal".into(),
    );

    // ---- pass 2: a fresh server restarts on the same journal --------
    let journal2 = Arc::new(Journal::open(&path, policy).expect("journal reopens after kill"));
    ctx.check(
        "recovery.reopen-recovers-the-incomplete-tail",
        journal2.stats().recovered == pending.len() as u64,
        || {
            format!(
                "reopen recovered {} jobs, scan says {} were incomplete",
                journal2.stats().recovered,
                pending.len()
            )
        },
    );
    let recovered_keys: HashSet<String> = pending
        .iter()
        .filter_map(|r| r.idempotency_key.clone())
        .collect();
    let server = Server::start(ServerConfig {
        workers: 1,
        record_timings: false,
        admission: Admission::Block,
        journal: Some(Arc::clone(&journal2)),
        ..ServerConfig::default()
    });
    // recovered jobs re-solve in the background; their completions land
    // in the journal, so poll its counters (bounded) instead of sleeping
    let deadline = Instant::now() + Duration::from_secs(120);
    while journal2.stats().completed < pending.len() as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    ctx.check(
        "recovery.recovered-jobs-complete",
        journal2.stats().completed >= pending.len() as u64,
        || {
            format!(
                "only {} of {} recovered jobs completed within the bound",
                journal2.stats().completed,
                pending.len()
            )
        },
    );
    let appended_before_retry = journal2.stats().appended;

    // ---- pass 3: the client reconnects and retries everything -------
    let (mut tx, rx) = server.connect().split();
    for ((name, request), key) in requests.iter().zip(&keys) {
        let line = wire::render_request_with(
            name,
            Priority::Normal,
            Some(key),
            wire::InstanceRef::Inline,
            request,
        );
        let _ = tx.submit_line(&line);
    }
    tx.finish();
    let frames: Vec<String> = rx.collect();
    ctx.check(
        "recovery.every-retry-answered",
        frames.len() == requests.len(),
        || format!("{} retries but {} replies", requests.len(), frames.len()),
    );
    let mut replays = 0u64;
    for (i, frame) in frames.iter().enumerate() {
        let (name, _) = &requests[i];
        let Some(reply) = wire::split_reply(frame) else {
            ctx.check("recovery.retry-reply-parses", false, || {
                format!("{name}: retry reply is malformed: {frame}")
            });
            continue;
        };
        ctx.check(
            "recovery.retry-payload-byte-identical",
            reply.id == *name && reply.payload == Some(expected[i].as_str()),
            || format!("{name}: retry payload diverges from the uninterrupted rendering"),
        );
        if reply.replayed {
            replays += 1;
        }
        let was_recovered = recovered_keys.contains(&keys[i]);
        ctx.check(
            "recovery.recovered-keys-replay-not-resolve",
            reply.replayed == was_recovered,
            || {
                format!(
                    "{name}: replayed = {} but recovered = {was_recovered}",
                    reply.replayed
                )
            },
        );
    }
    ctx.check(
        "recovery.replays-skip-the-journal",
        journal2.stats().appended == appended_before_retry + (requests.len() as u64 - replays),
        || {
            format!(
                "{} admissions appended for {} fresh (non-replayed) retries",
                journal2.stats().appended - appended_before_retry,
                requests.len() as u64 - replays
            )
        },
    );
    let stats = server.stats();
    ctx.check(
        "recovery.stats-report-durability",
        stats.replayed == replays
            && stats.journal_recovered == pending.len() as u64
            && stats.journal_bytes > 0,
        || {
            format!(
                "stats {{ replayed: {}, journal_recovered: {}, journal_bytes: {} }} disagree with the run",
                stats.replayed, stats.journal_recovered, stats.journal_bytes
            )
        },
    );
    server.drain();
    server.shutdown();
    drop(journal2);

    // ---- end state: every admitted record completed exactly once ----
    let final_bytes = std::fs::read(&path).expect("final journal image");
    let final_scan = journal::scan(&final_bytes).expect("final journal scans");
    let mut completed_ids: Vec<u64> = final_scan
        .records
        .iter()
        .filter_map(|r| match r {
            journal::Record::Completed { record_id } => Some(*record_id),
            journal::Record::Payload { .. } | journal::Record::Admitted(_) => None,
        })
        .collect();
    let total = completed_ids.len();
    completed_ids.sort_unstable();
    completed_ids.dedup();
    ctx.check(
        "recovery.all-admitted-work-completes-exactly-once",
        journal::incomplete(&final_scan.records).is_empty() && completed_ids.len() == total,
        || {
            format!(
                "{} jobs still incomplete, {} duplicate completions",
                journal::incomplete(&final_scan.records).len(),
                total - completed_ids.len()
            )
        },
    );
    let _ = std::fs::remove_file(&path);
}

// ----------------------------------------------------------------- churn

fn check_churn(ctx: &mut Ctx<'_>) {
    use splitgraph::delta::{random_delta, ChurnStyle, EdgeDelta};
    use splitting_api::{HeldSolution, Instance, Problem, Request, Session};

    let s = ctx.scenario;
    let b = &s.bipartite;
    if b.left_count() == 0 || b.right_count() == 0 || b.edge_count() == 0 {
        return;
    }
    // CI sweeps extra mutation streams by exporting
    // CONFORMANCE_CHURN_SEED; the default stream is keyed from the
    // scenario seed so a failing cell replays bit-identically
    let sweep = std::env::var("CONFORMANCE_CHURN_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(s.seed);
    let session = Session::with_threads(1);
    let request = Request::new(
        Problem::WeakSplitting {
            thm12_constant: s.thm12_constant,
        },
        b.clone(),
    )
    .deterministic()
    .seed(s.seed);

    let scratch = match (session.hold(&request), session.solve(&request)) {
        (Err(held_err), Err(solve_err)) => {
            // negative regimes: hold must decline with the same typed
            // error the one-shot path reports — nothing to churn
            ctx.check(
                "churn.decline-typed",
                held_err.kind() == solve_err.kind(),
                || format!("hold declined with {held_err}, solve with {solve_err}"),
            );
            return;
        }
        (held, solve) => {
            ctx.check(
                "churn.hold-agrees-with-solve",
                held.is_ok() && solve.is_ok(),
                || {
                    format!(
                        "hold {:?} vs solve {:?} disagree about solvability",
                        held.as_ref().err().map(splitting_api::ApiError::kind),
                        solve.as_ref().err().map(splitting_api::ApiError::kind),
                    )
                },
            );
            let Ok(solution) = solve else { return };
            solution
        }
    };

    // one seeded mutation stream per churn style, each starting from an
    // adopted copy of the same from-scratch solution
    const STEPS: usize = 3;
    for (idx, style) in ChurnStyle::ALL.into_iter().enumerate() {
        let Ok(mut held) = HeldSolution::adopt(&session, &request, scratch.clone()) else {
            ctx.check("churn.adopt", false, || {
                format!("{}: adopting the scratch solution failed", style.name())
            });
            continue;
        };
        let mut rng = StdRng::seed_from_u64(sweep ^ ((idx as u64 + 1) << 32));
        let mut deltas: Vec<EdgeDelta> = Vec::new();
        for step in 0..STEPS {
            let delta = random_delta(held.instance(), style, 2, &mut rng);
            deltas.push(delta.clone());
            // ground truth: from-scratch solve of the patched instance
            let mut patched = held.instance().clone();
            if delta.apply(&mut patched).is_err() {
                ctx.check("churn.delta-applies", false, || {
                    format!("{}#{step}: sampled delta does not apply", style.name())
                });
                continue;
            }
            let patched_request = Request::new(
                Problem::WeakSplitting {
                    thm12_constant: s.thm12_constant,
                },
                patched,
            )
            .deterministic()
            .seed(s.seed);
            match (held.apply(&delta), session.solve(&patched_request)) {
                (Ok(repaired), Ok(_)) => {
                    ctx.check(
                        "churn.certificate-holds",
                        repaired.certificate.holds(),
                        || {
                            format!(
                                "{}#{step}: {} solution's certificate fails",
                                style.name(),
                                repaired.provenance.route
                            )
                        },
                    );
                    ctx.check(
                        "churn.reverifies-on-patched",
                        repaired.reverify(&Instance::Bipartite(held.instance().clone())),
                        || {
                            format!(
                                "{}#{step}: certificate does not re-verify against the patched instance",
                                style.name()
                            )
                        },
                    );
                }
                (Err(repair_err), Err(scratch_err)) => ctx.check(
                    "churn.decline-parity",
                    repair_err.kind() == scratch_err.kind(),
                    || {
                        format!(
                            "{}#{step}: repair declined with {repair_err}, scratch with {scratch_err}",
                            style.name()
                        )
                    },
                ),
                (Ok(repaired), Err(scratch_err)) => {
                    ctx.check("churn.accept-parity", false, || {
                        format!(
                            "{}#{step}: repair accepted via {} where scratch declined with {scratch_err}",
                            style.name(),
                            repaired.provenance.route
                        )
                    });
                }
                (Err(repair_err), Ok(_)) => {
                    ctx.check("churn.accept-parity", false, || {
                        format!(
                            "{}#{step}: repair declined with {repair_err} where scratch solved",
                            style.name()
                        )
                    });
                }
            }
        }
        // the whole stream applied up front reproduces the final held
        // instance bit-for-bit
        let mut replayed = b.clone();
        let replays_cleanly = deltas.iter().all(|d| d.apply(&mut replayed).is_ok());
        ctx.check(
            "churn.stream-composes",
            replays_cleanly && replayed == *held.instance(),
            || {
                format!(
                    "{}: replaying the delta stream diverges from the held instance",
                    style.name()
                )
            },
        );
        ctx.check(
            "churn.stats-count-updates",
            held.stats().mutations_applied == STEPS as u64
                && held.stats().repairs + held.stats().full_resolves <= STEPS as u64,
            || {
                format!(
                    "{}: stats {:?} disagree with {STEPS} updates",
                    style.name(),
                    held.stats()
                )
            },
        );
    }

    // server subcheck: a wire-level mutate on an uploaded handle moves
    // the held solution with it, and the follow-up handle solve answers
    // byte-identically to the direct hold → apply path
    {
        use splitting_server::{wire, Priority, Server, ServerConfig, Submitted};

        let mut rng = StdRng::seed_from_u64(sweep ^ 0x5EB7E5);
        let delta = random_delta(b, ChurnStyle::Rewire, 2, &mut rng);
        if delta.inserts().is_empty() && delta.deletes().is_empty() {
            return; // too dense to rewire: nothing to send
        }
        let server = Server::start(ServerConfig {
            workers: 1,
            record_timings: false,
            ..ServerConfig::default()
        });
        let (mut tx, mut rx) = server.connect().split();
        let handle = wire::render_handle(wire::instance_fingerprint(request.instance()));
        tx.submit_line(&wire::render_upload("up", request.instance()));
        rx.recv();
        tx.submit_line(&wire::render_request_with(
            "s1",
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(&handle),
            &request,
        ));
        rx.recv();
        let mutate = wire::render_mutate("m1", &handle, None, delta.inserts(), delta.deletes());
        ctx.check(
            "churn.server-mutate-inline",
            tx.submit_line(&mutate) == Submitted::Replied,
            || "mutate frame was not answered inline".into(),
        );
        let frame = rx.recv().unwrap_or_default();
        let new_handle = frame
            .split("\"new_handle\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_default()
            .to_owned();
        ctx.check(
            "churn.server-mutated-frame",
            frame.contains("\"type\":\"mutated\"") && !new_handle.is_empty(),
            || format!("expected a mutated frame naming the new handle, got {frame}"),
        );
        tx.submit_line(&wire::render_request_with(
            "s2",
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(&new_handle),
            &request,
        ));
        let reply = rx.recv().unwrap_or_default();
        let want = match HeldSolution::adopt(&session, &request, scratch) {
            Ok(mut direct) => direct
                .apply(&delta)
                .map_or_else(|e| e.to_json_line(), |sol| sol.to_json_line()),
            Err(e) => e.to_json_line(),
        };
        ctx.check(
            "churn.server-repair-byte-identical",
            wire::split_reply(&reply).and_then(|r| r.payload.map(str::to_owned))
                == Some(want.clone()),
            || format!("server churn reply diverges from direct hold → apply: {reply}"),
        );
        tx.finish();
        server.shutdown();
    }
}

// ----------------------------------------------------------------- store

/// What the store model expects a frame to be answered with.
enum Expect {
    /// A fresh reply of this type with exactly this payload.
    Reply(&'static str, String),
    /// A keyed mutate's cached reply, replayed byte for byte.
    Replayed(String),
    /// A typed `invalid-request` error.
    Invalid,
}

/// Reference model of the server's instance store: the live handles
/// with their edge sets, and the reply each keyed mutate was answered
/// with. Handles are content hashes, so a handle the model derives from
/// its edge set names exactly the instance the server solves.
#[derive(Default)]
struct StoreModel {
    live: std::collections::BTreeMap<String, BipartiteGraph>,
    keyed: std::collections::HashMap<String, String>,
}

impl StoreModel {
    fn handle(g: &BipartiteGraph) -> String {
        use splitting_server::wire;
        let instance = splitting_api::Instance::Bipartite(g.clone());
        wire::render_handle(wire::instance_fingerprint(&instance))
    }

    fn upload(&mut self, g: &BipartiteGraph) -> Expect {
        let handle = Self::handle(g);
        self.live.entry(handle.clone()).or_insert_with(|| g.clone());
        let instance = splitting_api::Instance::Bipartite(g.clone());
        let payload = splitting_server::wire::uploaded_payload(&handle, &instance, self.live.len());
        Expect::Reply("uploaded", payload)
    }

    fn mutate(&mut self, m: &StoreMutate) -> Expect {
        // the frame scan refuses an empty edit batch, keyed or not
        if m.inserts.is_empty() && m.deletes.is_empty() {
            return Expect::Invalid;
        }
        if let Some(payload) = m.key.as_ref().and_then(|key| self.keyed.get(key)) {
            return Expect::Replayed(payload.clone());
        }
        let Some(g) = self.live.get(&m.handle) else {
            return Expect::Invalid;
        };
        let Ok(delta) = splitgraph::delta::EdgeDelta::new(g, &m.inserts, &m.deletes) else {
            return Expect::Invalid;
        };
        let mut patched = self.live.remove(&m.handle).expect("looked up above");
        delta.apply(&mut patched).expect("validated above");
        let (edges, to) = (patched.edge_count(), Self::handle(&patched));
        // content already interned: the entry merges into it
        self.live.entry(to.clone()).or_insert(patched);
        let (ins, del) = (delta.inserts().len(), delta.deletes().len());
        let payload = splitting_server::wire::mutated_payload(
            &m.handle,
            &to,
            ins,
            del,
            edges,
            self.live.len(),
        );
        if let Some(key) = &m.key {
            self.keyed.insert(key.clone(), payload.clone());
        }
        Expect::Reply("mutated", payload)
    }

    fn release(&mut self, handle: &str) -> Expect {
        match self.live.remove(handle) {
            Some(_) => {
                let payload = splitting_server::wire::released_payload(handle, self.live.len());
                Expect::Reply("released", payload)
            }
            None => Expect::Invalid,
        }
    }
}

/// One generated `mutate` frame, kept so a keyed one can be retried.
#[derive(Clone)]
struct StoreMutate {
    line: String,
    handle: String,
    inserts: Vec<(usize, usize)>,
    deletes: Vec<(usize, usize)>,
    key: Option<String>,
}

/// Model-based test of the server's instance store: seeded operation
/// sequences — uploads (including content a later mutate reaches, so
/// the mutate merges into it), handle solves, keyed and keyless
/// mutates, keyed retries, releases — are driven through a journaled
/// server with a two-entry held cache and compaction every four state
/// records, restarted between epochs by a clean shutdown or a
/// `process_kill` chaos kill. Every reply is checked against
/// [`StoreModel`]: state payloads byte for byte, keyed retries replay
/// byte-identically across restarts, solves certify (and accept or
/// decline as a from-scratch solve does) on the model's edge set, and
/// after each restart exactly the model's live handles resolve.
fn check_store(ctx: &mut Ctx<'_>) {
    use rand::Rng;
    use splitgraph::delta::{random_delta, ChurnStyle};
    use splitting_api::{Problem, Request, Session};
    use splitting_server::{wire, FsyncPolicy, Journal, Priority, Server, ServerConfig};
    use std::sync::Arc;

    let s = ctx.scenario;
    let b = &s.bipartite;
    if b.left_count() == 0 || b.right_count() == 0 || b.edge_count() == 0 {
        return;
    }
    // CI sweeps extra operation sequences by exporting
    // CONFORMANCE_STORE_SEED; unset, the sequence is keyed from the
    // scenario seed so a failing cell replays bit-identically
    let sweep = std::env::var("CONFORMANCE_STORE_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(s.seed);
    let mut rng = StdRng::seed_from_u64(sweep ^ 0x5_70_4E);
    let session = Session::with_threads(1);
    let request = |g: &BipartiteGraph| {
        let problem = Problem::WeakSplitting {
            thm12_constant: s.thm12_constant,
        };
        Request::new(problem, g.clone())
            .deterministic()
            .seed(s.seed)
    };
    let path = std::env::temp_dir().join(format!(
        "splitd-store-{}-{}-{}-{sweep}.journal",
        std::process::id(),
        s.family.replace(['/', '#'], "-"),
        s.seed
    ));
    let _ = std::fs::remove_file(&path);

    let mut model = StoreModel::default();
    let mut keyed: Vec<StoreMutate> = Vec::new();
    // an upload that a later mutate of `handle` by these edits reaches
    let mut ahead: Vec<(String, splitgraph::delta::EdgeDelta)> = Vec::new();
    let mut gone: Vec<String> = Vec::new();
    let mut next_id = 0u64;
    let mut recovered_jobs = 0u64;
    const EPOCHS: usize = 5;
    for epoch in 0..=EPOCHS {
        // the last epoch only probes what the previous restart recovered
        let ops = if epoch == EPOCHS {
            0
        } else {
            rng.random_range(3usize..=9)
        };
        let kill = epoch < EPOCHS && rng.random_bool(0.5);
        // every line takes one sequence number: one probe per live
        // handle and a ping, then one per op; a kill fires on the last
        let kill_seq = model.live.len() as u64 + ops as u64;
        let chaos = kill.then(|| kill_schedule(kill_seq, recovered_jobs));
        let journal = Arc::new(Journal::open(&path, FsyncPolicy::Never).expect("journal opens"));
        let server = Server::start(ServerConfig {
            workers: 1,
            record_timings: false,
            held_capacity: 2,
            journal_compact_threshold: 4,
            journal: Some(journal),
            chaos,
            ..ServerConfig::default()
        });
        let (mut tx, mut rx) = server.connect().split();
        let mut send = |line: &str| {
            tx.submit_line(line);
            rx.recv()
        };

        // ---- after a restart, exactly the model's handles resolve ----
        // (a mutate deleting an absent edge is refused on its delta when
        // the handle resolves and on the handle otherwise: no state moves)
        for (handle, g) in &model.live {
            let absent = [(0, g.right_count())];
            let frame =
                send(&wire::render_mutate("probe", handle, None, &[], &absent)).unwrap_or_default();
            ctx.check(
                "store.live-handles-resolve",
                frame.contains("delta"),
                || format!("epoch {epoch}: live handle {handle} does not resolve: {frame}"),
            );
        }
        let beat = send(&wire::render_ping("ping")).unwrap_or_default();
        let held = format!("\"handles_held\":{},", model.live.len());
        ctx.check("store.table-size-matches", beat.contains(&held), || {
            format!("epoch {epoch}: expected {held} in {beat}")
        });

        for op in 0..ops {
            next_id += 1;
            let id = format!("op{next_id}");
            let live: Vec<String> = model.live.keys().cloned().collect();
            let handle = live.choose(&mut rng).cloned();
            let solve_line = |handle: &Option<String>| {
                let (g, target) = match handle {
                    Some(h) => (&model.live[h], wire::InstanceRef::Handle(h)),
                    None => (b, wire::InstanceRef::Inline),
                };
                let req = request(g);
                (
                    wire::render_request_with(&id, Priority::Normal, None, target, &req),
                    req,
                )
            };
            if kill && op + 1 == ops {
                // the planned kill: a queued solve the process dies on
                let frame = send(&solve_line(&handle).0);
                ctx.check(
                    "store.kill-fires",
                    frame.is_none() && server.killed(),
                    || format!("epoch {epoch}: the planned kill did not fire: {frame:?}"),
                );
                break;
            }
            let roll = rng.random_range(0usize..12);
            let (line, expect) = match (roll, handle) {
                (2 | 3, Some(handle)) => {
                    let (line, req) = solve_line(&Some(handle.clone()));
                    let frame = send(&line).unwrap_or_default();
                    let reply = wire::split_reply(&frame);
                    let payload = reply.as_ref().and_then(|r| r.payload).unwrap_or_default();
                    let ok = match session.solve(&req) {
                        Ok(_) => {
                            reply.as_ref().is_some_and(|r| r.frame_type == "solution")
                                && payload.contains("\"holds\":true,\"violations\":0")
                        }
                        Err(e) => payload.contains(&format!("\"kind\":\"{}\"", e.kind())),
                    };
                    ctx.check("store.solve-certifies-on-model", ok, || {
                        format!("epoch {epoch}: solving {handle} disagrees with scratch: {frame}")
                    });
                    continue;
                }
                // upload the content a later mutate of a live handle
                // reaches, so that mutate merges into it
                (4, Some(handle)) => {
                    let mut g = model.live[&handle].clone();
                    let delta = random_delta(&g, ChurnStyle::Rewire, 2, &mut rng);
                    let _ = delta.apply(&mut g);
                    ahead.push((handle, delta));
                    let instance = splitting_api::Instance::Bipartite(g.clone());
                    (wire::render_upload(&id, &instance), model.upload(&g))
                }
                (5..=8, Some(handle)) => {
                    let planned = ahead.iter().position(|(h, _)| model.live.contains_key(h));
                    let (handle, delta) = match planned {
                        Some(i) => ahead.swap_remove(i),
                        None => {
                            let style = ChurnStyle::ALL[roll % 3];
                            let delta = random_delta(&model.live[&handle], style, 2, &mut rng);
                            (handle, delta)
                        }
                    };
                    let (inserts, deletes) = (delta.inserts().to_vec(), delta.deletes().to_vec());
                    let key = rng.random_bool(0.5).then(|| format!("key-{next_id}"));
                    let line =
                        wire::render_mutate(&id, &handle, key.as_deref(), &inserts, &deletes);
                    let m = StoreMutate {
                        line: line.clone(),
                        handle,
                        inserts,
                        deletes,
                        key,
                    };
                    let expect = model.mutate(&m);
                    if m.key.is_some() {
                        keyed.push(m);
                    }
                    (line, expect)
                }
                // a keyed retry, verbatim
                (9, _) if !keyed.is_empty() => {
                    let m = keyed.choose(&mut rng).expect("non-empty").clone();
                    (m.line.clone(), model.mutate(&m))
                }
                (10, Some(handle)) => {
                    gone.push(handle.clone());
                    (wire::render_release(&id, &handle), model.release(&handle))
                }
                // releasing a handle that may no longer resolve
                (11, _) if !gone.is_empty() => {
                    let handle = gone.choose(&mut rng).expect("non-empty").clone();
                    (wire::render_release(&id, &handle), model.release(&handle))
                }
                // upload the base content, or content one edit from it
                _ => {
                    let mut g = b.clone();
                    if roll % 2 == 1 {
                        let delta = random_delta(&g, ChurnStyle::Rewire, 1, &mut rng);
                        let _ = delta.apply(&mut g);
                    }
                    let instance = splitting_api::Instance::Bipartite(g.clone());
                    (wire::render_upload(&id, &instance), model.upload(&g))
                }
            };
            let frame = send(&line).unwrap_or_default();
            let reply = wire::split_reply(&frame);
            let ok = match (&expect, &reply) {
                (Expect::Reply(kind, payload), Some(r)) => {
                    r.frame_type == *kind && !r.replayed && r.payload == Some(payload.as_str())
                }
                (Expect::Replayed(payload), Some(r)) => {
                    r.frame_type == "mutated" && r.replayed && r.payload == Some(payload.as_str())
                }
                (Expect::Invalid, Some(r)) => {
                    r.frame_type == "error" && frame.contains("invalid-request")
                }
                (_, None) => false,
            };
            ctx.check("store.reply-matches-model", ok, || {
                let want = match &expect {
                    Expect::Reply(kind, payload) => format!("{kind} {payload}"),
                    Expect::Replayed(payload) => format!("replayed {payload}"),
                    Expect::Invalid => "invalid-request".to_owned(),
                };
                format!("epoch {epoch}: {line}\n  expected {want}\n  got {frame}")
            });
        }
        if kill {
            server.halt();
            recovered_jobs = 1;
        } else {
            tx.finish();
            server.shutdown();
            recovered_jobs = 0;
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// A `process_kill` schedule that fires on job `seq` of connection 0
/// and on no earlier job — nor on the `recovered` jobs the restart
/// re-runs first on the reserved recovery connection (id `u64::MAX`).
/// Every draw is a pure function of (seed, conn, seq), so scanning seeds
/// finds one whose draw at `seq` is the smallest.
fn kill_schedule(seq: u64, recovered: u64) -> splitting_server::ChaosConfig {
    use splitting_server::ChaosConfig;
    (0u64..)
        .find_map(|seed| {
            let probe = ChaosConfig {
                seed,
                ..ChaosConfig::default()
            };
            let target = probe.process_kill_roll(0, seq);
            let others = (0..seq)
                .map(|i| probe.process_kill_roll(0, i))
                .chain((0..recovered).map(|i| probe.process_kill_roll(u64::MAX, i)))
                .fold(1.0f64, f64::min);
            (target < others).then(|| ChaosConfig {
                seed,
                process_kill: (target + others) / 2.0,
                ..ChaosConfig::default()
            })
        })
        .expect("some seed puts the smallest draw on the target job")
}

// ----------------------------------------------------------- metamorphic

/// Applies a right-side relabeling to a bipartite instance.
fn relabel_right(b: &BipartiteGraph, perm: &[usize]) -> BipartiteGraph {
    let edges: Vec<(usize, usize)> = b.edges().map(|(u, v)| (u, perm[v])).collect();
    BipartiteGraph::from_edges_bulk(b.left_count(), b.right_count(), &edges)
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
