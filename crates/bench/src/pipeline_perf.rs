//! End-to-end pipeline benchmarks: whole-solver scenarios and before/after
//! measurements of the derandomization engine.
//!
//! Three record kinds feed `BENCH_pipeline.json`:
//!
//! * **fixer** records measure the conditional-expectation fixers against a
//!   faithful private replica of the pre-incremental engine (per-constraint
//!   count `Vec`s, `powi` per candidate term, pairwise `O(Σ deg²)` schedule
//!   verification, per-class `O(nv)` decider scans) — the *before* side is
//!   kept here so the speedup stays measurable long after the library has
//!   moved on, and every run cross-checks that the live engine produces
//!   bit-identical colors and `Φ` values;
//! * **scenario** records measure whole-solver wall times — the
//!   weak-splitting pipelines (`solver_*` rows: the theorem entrypoint
//!   [`splitting_core::decide_pipeline`] picks for the instance —
//!   Theorem 2.5 / zero-round / Theorem 1.2 / Theorem 2.7 — called
//!   directly, with the default seed and constant), multicolor splitting,
//!   and uniform splitting — across sparse, dense, and left-regular
//!   instances, with the outputs validity-checked;
//! * **layer** records time one library layer alone over repeated samples
//!   (median, p10, p90): Degree–Rank Reduction I at the shapes Theorem 2.5
//!   feeds it.

use crate::json::esc;
use crate::table::{fnum, Table};
use degree_split::{DegreeSplitter, Engine, Flavor};
use derand::{phased_fix, ColoringEstimator, FixOutcome};
use local_coloring::greedy_right_square;
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::{checks, generators, BipartiteGraph, MultiColor};
use splitting_core::{
    degree_rank_reduction_i, multicolor_splitting_deterministic, weak_multicolor_deterministic,
    Pipeline,
};
use splitting_reductions::{feasible_eps, uniform_splitting_deterministic};
use std::time::Instant;

/// One pipeline measurement: a before/after fixer record
/// (`wall_ns_before = Some(..)`) or a wall-only solver scenario.
#[derive(Debug, Clone)]
pub struct PipelineRecord {
    /// Record name, e.g. `sequential_fix_overload_left_regular`.
    pub name: &'static str,
    /// Total node count of the instance (`|U| + |V|` or `n`).
    pub n: usize,
    /// Edge count of the instance.
    pub m: usize,
    /// Free-form parameters (estimator, palette, dispatch, ε, …).
    pub detail: String,
    /// Wall time of the pre-incremental replica (fixer records only).
    pub wall_ns_before: Option<u128>,
    /// Wall time of the live implementation, nanoseconds.
    pub wall_ns: u128,
}

impl PipelineRecord {
    /// `before / after` wall-time ratio, for fixer records.
    pub fn speedup(&self) -> Option<f64> {
        self.wall_ns_before
            .map(|before| before as f64 / self.wall_ns.max(1) as f64)
    }
}

/// Samples per layer record.
const LAYER_SAMPLES: usize = 11;

/// One layer timed alone over [`LAYER_SAMPLES`] runs.
#[derive(Debug, Clone)]
pub struct LayerRecord {
    /// The timed layer, e.g. `core.drr1`.
    pub layer: &'static str,
    /// Record name, e.g. `drr1_left_regular_80x640x560`.
    pub name: String,
    /// Free-form parameters (iterations, ε, edge count).
    pub params: String,
    /// Wall time of every run, nanoseconds, in run order.
    pub samples_ns: Vec<u128>,
}

impl LayerRecord {
    /// The nearest-rank `q`-quantile of the samples.
    pub fn quantile_ns(&self, q: f64) -> u128 {
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }
}

/// A full pipeline benchmark run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// `"quick"` or `"full"`.
    pub mode: &'static str,
    /// `std::thread::available_parallelism()` of the measuring host.
    pub host_parallelism: usize,
    /// Single-shot fixer and scenario measurements.
    pub records: Vec<PipelineRecord>,
    /// Repeated per-layer measurements.
    pub layers: Vec<LayerRecord>,
}

impl PipelineReport {
    /// Serializes the report for `BENCH_pipeline.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"bench\": \"pipeline\",\n  \"mode\": \"{}\",\n  \"host_parallelism\": {},\n  \"records\": [",
            esc(self.mode),
            self.host_parallelism
        ));
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let kind = if r.wall_ns_before.is_some() {
                "fixer"
            } else {
                "scenario"
            };
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"kind\": \"{}\", \"n\": {}, \"m\": {}, \"detail\": \"{}\"",
                esc(r.name),
                kind,
                r.n,
                r.m,
                esc(&r.detail)
            ));
            if let (Some(before), Some(speedup)) = (r.wall_ns_before, r.speedup()) {
                out.push_str(&format!(
                    ", \"wall_ns_before\": {before}, \"wall_ns_after\": {}, \"speedup\": {speedup:.2}}}",
                    r.wall_ns
                ));
            } else {
                out.push_str(&format!(", \"wall_ns\": {}}}", r.wall_ns));
            }
        }
        for (i, r) in self.layers.iter().enumerate() {
            if i > 0 || !self.records.is_empty() {
                out.push(',');
            }
            let samples: Vec<String> = r.samples_ns.iter().map(u128::to_string).collect();
            out.push_str(&format!(
                "\n    {{\"layer\": \"{}\", \"name\": \"{}\", \"params\": \"{}\", \"samples_ns\": [{}], \"median_ns\": {}, \"p10_ns\": {}, \"p90_ns\": {}}}",
                esc(r.layer),
                esc(&r.name),
                esc(&r.params),
                samples.join(", "),
                r.quantile_ns(0.5),
                r.quantile_ns(0.1),
                r.quantile_ns(0.9)
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// pre-incremental engine replica (the "before" side of fixer records)
// ---------------------------------------------------------------------------

/// The seed fixer state: one count `Vec` per constraint, running base sums,
/// and `powi` on every candidate evaluation.
///
/// Deliberately duplicates the `NaiveRef` reference in
/// `crates/derand/tests/fixer_parity.rs` rather than sharing code: this
/// copy is the frozen *before* side of the speedup records and must stay
/// the verbatim pre-incremental engine even if the parity reference ever
/// evolves. Keep the `S_u ← S_u − old + new` recurrence in both (see the
/// parity test's module docs for why re-summing `S_u` from scratch breaks
/// tie-breaking).
struct SeedFixerState {
    est: ColoringEstimator,
    counts: Vec<Vec<u32>>,
    unfixed: Vec<usize>,
    sums: Vec<f64>,
}

impl SeedFixerState {
    fn new(b: &BipartiteGraph, est: ColoringEstimator) -> Self {
        let c = est.palette() as usize;
        SeedFixerState {
            counts: vec![vec![0u32; c]; b.left_count()],
            unfixed: (0..b.left_count()).map(|u| b.left_degree(u)).collect(),
            sums: (0..b.left_count())
                .map(|u| c as f64 * est.base(u, 0))
                .collect(),
            est,
        }
    }

    fn phi(&self, u: usize) -> f64 {
        self.est.factor().powi(self.unfixed[u] as i32) * self.sums[u]
    }

    fn total(&self) -> f64 {
        (0..self.sums.len()).map(|u| self.phi(u)).sum()
    }

    fn phi_after(&self, u: usize, x: u32) -> f64 {
        let old = self.est.base(u, self.counts[u][x as usize]);
        let new = self.est.base(u, self.counts[u][x as usize] + 1);
        self.est.factor().powi(self.unfixed[u] as i32 - 1) * (self.sums[u] - old + new)
    }

    fn best_color(&self, b: &BipartiteGraph, v: usize) -> u32 {
        let mut best = 0u32;
        let mut best_score = f64::INFINITY;
        for x in 0..self.est.palette() {
            let score: f64 = b
                .right_neighbors(v)
                .iter()
                .map(|&u| self.phi_after(u, x))
                .sum();
            if score < best_score {
                best_score = score;
                best = x;
            }
        }
        best
    }

    fn fix(&mut self, b: &BipartiteGraph, v: usize, x: u32) {
        for &u in b.right_neighbors(v) {
            let old = self.est.base(u, self.counts[u][x as usize]);
            self.counts[u][x as usize] += 1;
            let new = self.est.base(u, self.counts[u][x as usize]);
            self.sums[u] += new - old;
            self.unfixed[u] -= 1;
        }
    }
}

/// The seed `sequential_fix` (identity order).
fn seed_sequential_fix(b: &BipartiteGraph, est: ColoringEstimator) -> FixOutcome {
    let nv = b.right_count();
    let mut state = SeedFixerState::new(b, est);
    let initial_phi = state.total();
    let mut colors = vec![0 as MultiColor; nv];
    for (v, slot) in colors.iter_mut().enumerate() {
        let x = state.best_color(b, v);
        state.fix(b, v, x);
        *slot = x;
    }
    FixOutcome {
        colors,
        initial_phi,
        final_phi: state.total(),
        rounds: 0,
    }
}

/// The seed `phased_fix`: pairwise `O(Σ deg²)` schedule verification and a
/// full `O(nv)` decider scan per color class.
fn seed_phased_fix(
    b: &BipartiteGraph,
    est: ColoringEstimator,
    square_coloring: &[u32],
    palette: u32,
) -> FixOutcome {
    let nv = b.right_count();
    assert_eq!(square_coloring.len(), nv, "square coloring length mismatch");
    for u in 0..b.left_count() {
        let nbrs = b.left_neighbors(u);
        for (i, &v) in nbrs.iter().enumerate() {
            for &w in &nbrs[i + 1..] {
                assert_ne!(
                    square_coloring[v], square_coloring[w],
                    "variables {v} and {w} share constraint {u} but have the same class"
                );
            }
        }
    }
    let mut state = SeedFixerState::new(b, est);
    let initial_phi = state.total();
    let mut colors = vec![0 as MultiColor; nv];
    let mut rounds = 0usize;
    for class in 0..palette {
        let deciders: Vec<usize> = (0..nv).filter(|&v| square_coloring[v] == class).collect();
        if deciders.is_empty() {
            rounds += 2;
            continue;
        }
        let choices: Vec<u32> = deciders.iter().map(|&v| state.best_color(b, v)).collect();
        for (&v, &x) in deciders.iter().zip(&choices) {
            state.fix(b, v, x);
            colors[v] = x;
        }
        rounds += 2;
    }
    FixOutcome {
        colors,
        initial_phi,
        final_phi: state.total(),
        rounds,
    }
}

// ---------------------------------------------------------------------------
// measurement harness
// ---------------------------------------------------------------------------

/// Instance sizes for one benchmark tier.
struct Scale {
    mode: &'static str,
    /// Headline left-regular overload instance `(nc, nv, deg)`.
    fix_overload: (usize, usize, usize),
    /// Monochromatic left-regular instance `(nc, nv, deg)`.
    fix_mono: (usize, usize, usize),
    /// Phased-fix instance `(nc, nv, deg)` (square coloring scheduled).
    fix_phased: (usize, usize, usize),
    /// Theorem 2.7 biregular instance `(nu, nv, left_deg)` with `δ ≥ 6r`.
    thm27: (usize, usize, usize),
    /// Theorem 2.5 / zero-round biregular instance `(nu, nv, left_deg)`.
    thm25: (usize, usize, usize),
    /// Dense Theorem 2.5 instance `(nu, nv, left_deg)` with
    /// `δ > 48·log n`, driving the Degree–Rank Reduction branch.
    thm25_drr: (usize, usize, usize),
    /// Theorem 1.2 shattering-window biregular instance `(nu, nv, left_deg)`.
    thm12: (usize, usize, usize),
    /// Dense Definition 1.3 multicolor instance `(nc, nv, deg)`.
    multicolor_weak: (usize, usize, usize),
    /// (C, λ) multicolor biregular instance `(nu, nv, left_deg)`.
    multicolor_cl: (usize, usize, usize),
    /// Uniform-splitting regular graph `(n, deg)`.
    uniform: (usize, usize),
    /// DRR-I layer instances `(nc, nv, deg, k)`, left-regular; the full and
    /// quick shapes use the iteration count `k` Theorem 2.5 picks for them.
    drr1: [(usize, usize, usize, usize); 2],
}

const FULL: Scale = Scale {
    mode: "full",
    fix_overload: (3_125, 100_000, 128),
    fix_mono: (12_500, 100_000, 32),
    fix_phased: (12_500, 100_000, 32),
    thm27: (10_000, 60_000, 24),
    thm25: (30_000, 30_000, 32),
    thm25_drr: (2_000, 64_000, 800),
    thm12: (16_384, 57_344, 28),
    multicolor_weak: (256, 4_096, 1_024),
    multicolor_cl: (2_048, 4_096, 64),
    uniform: (20_000, 192),
    drr1: [(80, 640, 560, 2), (400, 3_200, 2_800, 4)],
};

const QUICK: Scale = Scale {
    mode: "quick",
    fix_overload: (400, 12_800, 128),
    fix_mono: (1_600, 12_800, 32),
    fix_phased: (1_600, 12_800, 32),
    thm27: (1_000, 6_000, 24),
    thm25: (4_000, 4_000, 26),
    thm25_drr: (125, 8_000, 704),
    thm12: (2_048, 6_144, 24),
    multicolor_weak: (128, 2_048, 512),
    multicolor_cl: (512, 1_024, 64),
    uniform: (2_000, 128),
    drr1: [(80, 640, 560, 2), (200, 1_600, 1_400, 3)],
};

#[cfg(test)]
const TINY: Scale = Scale {
    mode: "tiny",
    fix_overload: (32, 512, 48),
    fix_mono: (96, 768, 20),
    fix_phased: (96, 768, 20),
    thm27: (64, 384, 24),
    thm25: (220, 220, 18),
    thm25_drr: (64, 1_024, 512),
    thm12: (512, 1_280, 20),
    multicolor_weak: (24, 384, 256),
    multicolor_cl: (96, 192, 64),
    uniform: (256, 64),
    drr1: [(16, 128, 112, 1), (24, 192, 168, 1)],
};

/// The weak-splitting pipeline the regime dispatch picks for `b`.
fn dispatch(b: &BipartiteGraph, allow_randomized: bool, thm12_constant: f64) -> Pipeline {
    splitting_core::decide_pipeline(
        allow_randomized,
        thm12_constant,
        splitting_core::RegimeParams::of(b),
    )
    .expect("the instance lies in a covered regime")
}

fn time<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos())
}

/// Asserts the live fixer reproduced the replica's outputs bit for bit.
fn assert_fix_parity(name: &str, seed: &FixOutcome, live: &FixOutcome) {
    assert_eq!(seed.colors, live.colors, "{name}: colors diverged");
    assert_eq!(
        seed.initial_phi.to_bits(),
        live.initial_phi.to_bits(),
        "{name}: initial Φ diverged"
    );
    assert_eq!(
        seed.final_phi.to_bits(),
        live.final_phi.to_bits(),
        "{name}: final Φ diverged"
    );
    assert_eq!(seed.rounds, live.rounds, "{name}: rounds diverged");
}

/// Times Degree–Rank Reduction I alone on a left-regular instance, with
/// the ε Theorem 2.5 pairs with `k`.
fn drr1_layer((nc, nv, deg, k): (usize, usize, usize, usize)) -> LayerRecord {
    let mut rng = StdRng::seed_from_u64(7);
    let b = generators::random_left_regular(nc, nv, deg, &mut rng).expect("feasible");
    let eps = (1.0 / k as f64).min(1.0 / 3.0);
    let splitter = DegreeSplitter::new(eps, Engine::EulerianOracle, Flavor::Deterministic);
    let samples_ns = (0..LAYER_SAMPLES)
        .map(|_| {
            let (red, wall) = time(|| degree_rank_reduction_i(&b, &splitter, k));
            assert_eq!(red.trace.len(), k);
            wall
        })
        .collect();
    LayerRecord {
        layer: "core.drr1",
        name: format!("drr1_left_regular_{nc}x{nv}x{deg}"),
        params: format!("k={k} eps={eps:.2} m={}", b.edge_count()),
        samples_ns,
    }
}

fn run_sized(scale: &Scale) -> (Vec<Table>, PipelineReport) {
    // layer rows first, on a heap no earlier row has grown
    let layers: Vec<LayerRecord> = scale.drr1.iter().map(|&shape| drr1_layer(shape)).collect();
    let mut records = Vec::new();

    // -- fixer before/after records --------------------------------------

    // headline: overload estimator on a left-regular instance (the MGF
    // terms exercise the power tables hardest)
    {
        let (nc, nv, deg) = scale.fix_overload;
        let mut rng = StdRng::seed_from_u64(71);
        let b = generators::random_left_regular(nc, nv, deg, &mut rng).expect("feasible");
        let cap = deg / 2; // λ = 1/2 over a 4-color palette: Chernoff certifies
        let t = derand::chernoff_t(cap as f64, 4, deg as f64);
        let caps = vec![cap; nc];
        let est = ColoringEstimator::overload(&b, 4, &caps, t);
        let (live, wall_after) = time(|| derand::sequential_fix_identity(&b, est.clone()));
        let (seed, wall_before) = time(|| seed_sequential_fix(&b, est));
        assert_fix_parity("sequential_fix_overload", &seed, &live);
        records.push(PipelineRecord {
            name: "sequential_fix_overload_left_regular",
            n: b.node_count(),
            m: b.edge_count(),
            detail: format!("palette=4 cap={cap} initial_phi={:.2e}", live.initial_phi),
            wall_ns_before: Some(wall_before),
            wall_ns: wall_after,
        });
    }

    // monochromatic weak splitting, sequential
    {
        let (nc, nv, deg) = scale.fix_mono;
        let mut rng = StdRng::seed_from_u64(72);
        let b = generators::random_left_regular(nc, nv, deg, &mut rng).expect("feasible");
        let est = ColoringEstimator::monochromatic(&b);
        let (live, wall_after) = time(|| derand::sequential_fix_identity(&b, est.clone()));
        let (seed, wall_before) = time(|| seed_sequential_fix(&b, est));
        assert_fix_parity("sequential_fix_monochromatic", &seed, &live);
        records.push(PipelineRecord {
            name: "sequential_fix_monochromatic_left_regular",
            n: b.node_count(),
            m: b.edge_count(),
            detail: format!("palette=2 initial_phi={:.2e}", live.initial_phi),
            wall_ns_before: Some(wall_before),
            wall_ns: wall_after,
        });
    }

    // monochromatic weak splitting, phased (schedule verification + class
    // bucketing dominate the delta here)
    {
        let (nc, nv, deg) = scale.fix_phased;
        let mut rng = StdRng::seed_from_u64(73);
        let b = generators::random_left_regular(nc, nv, deg, &mut rng).expect("feasible");
        let (sched, _) = greedy_right_square(&b);
        let palette = sched.iter().copied().max().map_or(1, |c| c + 1);
        let est = ColoringEstimator::monochromatic(&b);
        let (live, wall_after) = time(|| phased_fix(&b, est.clone(), &sched, palette));
        let (seed, wall_before) = time(|| seed_phased_fix(&b, est, &sched, palette));
        assert_fix_parity("phased_fix_monochromatic", &seed, &live);
        records.push(PipelineRecord {
            name: "phased_fix_monochromatic_left_regular",
            n: b.node_count(),
            m: b.edge_count(),
            detail: format!("classes={palette} rounds={}", live.rounds),
            wall_ns_before: Some(wall_before),
            wall_ns: wall_after,
        });
    }

    // -- whole-solver scenario records ------------------------------------

    // dispatched pipeline: Theorem 2.7 on a skewed sparse instance
    {
        let (nu, nv, dl) = scale.thm27;
        let mut rng = StdRng::seed_from_u64(74);
        let b = generators::random_biregular(nu, nv, dl, &mut rng).expect("feasible");
        let plan = dispatch(&b, false, 3.0);
        assert_eq!(plan, Pipeline::Theorem27);
        let (out, wall) = time(|| {
            splitting_core::theorem27(&b, splitting_core::Variant::Deterministic)
                .expect("in regime")
        });
        assert!(checks::is_weak_splitting(&b, &out.colors, 0));
        records.push(PipelineRecord {
            name: "solver_thm27_sparse_biregular",
            n: b.node_count(),
            m: b.edge_count(),
            detail: format!("dispatch={plan:?} rounds={:.0}", out.ledger.total()),
            wall_ns_before: None,
            wall_ns: wall,
        });
    }

    // dispatched pipelines: Theorem 2.5 (deterministic) and the
    // zero-round randomized path on the same balanced instance
    {
        let (nu, nv, dl) = scale.thm25;
        let mut rng = StdRng::seed_from_u64(75);
        let b = generators::random_biregular(nu, nv, dl, &mut rng).expect("feasible");
        let plan = dispatch(&b, false, 3.0);
        assert_eq!(plan, Pipeline::Theorem25);
        let ((out, _), wall) = time(|| {
            splitting_core::theorem25(&b, degree_split::Flavor::Deterministic).expect("in regime")
        });
        assert!(checks::is_weak_splitting(&b, &out.colors, 0));
        records.push(PipelineRecord {
            name: "solver_thm25_biregular",
            n: b.node_count(),
            m: b.edge_count(),
            detail: format!("dispatch={plan:?} rounds={:.0}", out.ledger.total()),
            wall_ns_before: None,
            wall_ns: wall,
        });

        let plan = dispatch(&b, true, 3.0);
        assert_eq!(plan, Pipeline::ZeroRound);
        let (out, wall) = time(|| {
            splitting_core::zero_round_whp(&b, splitting_api::DEFAULT_SEED, 32).expect("in regime")
        });
        assert!(checks::is_weak_splitting(&b, &out.colors, 0));
        records.push(PipelineRecord {
            name: "solver_zero_round_biregular",
            n: b.node_count(),
            m: b.edge_count(),
            detail: format!("dispatch={plan:?}"),
            wall_ns_before: None,
            wall_ns: wall,
        });
    }

    // Theorem 2.5's Degree–Rank Reduction branch on a dense skewed
    // instance (δ > 48·log n; called directly — the solver would dispatch
    // such a δ ≥ 6r instance to Theorem 2.7)
    {
        let (nu, nv, dl) = scale.thm25_drr;
        let mut rng = StdRng::seed_from_u64(80);
        let b = generators::random_biregular(nu, nv, dl, &mut rng).expect("feasible");
        let ((out, report), wall) = time(|| {
            splitting_core::theorem25(&b, degree_split::Flavor::Deterministic).expect("in regime")
        });
        assert!(report.drr_iterations >= 1, "expected the DRR branch");
        assert!(checks::is_weak_splitting(&b, &out.colors, 0));
        records.push(PipelineRecord {
            name: "thm25_drr_dense_biregular",
            n: b.node_count(),
            m: b.edge_count(),
            detail: format!(
                "drr_iters={} reduced_rank={} eps={:.2}",
                report.drr_iterations, report.reduced_rank, report.eps
            ),
            wall_ns_before: None,
            wall_ns: wall,
        });
    }

    // dispatched pipeline: Theorem 1.2 in the shattering window
    {
        let (nu, nv, dl) = scale.thm12;
        let mut rng = StdRng::seed_from_u64(76);
        let b = generators::random_biregular(nu, nv, dl, &mut rng).expect("feasible");
        let plan = dispatch(&b, true, 1.5);
        assert_eq!(plan, Pipeline::Theorem12);
        let cfg = splitting_core::Theorem12Config {
            seed: splitting_api::DEFAULT_SEED,
            c_constant: 1.5,
            ..splitting_core::Theorem12Config::default()
        };
        let (out, wall) = time(|| splitting_core::theorem12(&b, &cfg).expect("in regime"));
        assert!(checks::is_weak_splitting(&b, &out.colors, 0));
        records.push(PipelineRecord {
            name: "solver_thm12_shattering_window",
            n: b.node_count(),
            m: b.edge_count(),
            detail: format!("dispatch={plan:?}"),
            wall_ns_before: None,
            wall_ns: wall,
        });
    }

    // deterministic C-weak multicolor splitting on a dense instance
    {
        let (nc, nv, deg) = scale.multicolor_weak;
        let mut rng = StdRng::seed_from_u64(77);
        let b = generators::random_left_regular(nc, nv, deg, &mut rng).expect("feasible");
        let (out, wall) = time(|| weak_multicolor_deterministic(&b).expect("in regime"));
        records.push(PipelineRecord {
            name: "multicolor_weak_det_dense",
            n: b.node_count(),
            m: b.edge_count(),
            detail: format!("palette={}", out.palette),
            wall_ns_before: None,
            wall_ns: wall,
        });
    }

    // deterministic (C, λ) multicolor splitting
    {
        let (nu, nv, dl) = scale.multicolor_cl;
        let mut rng = StdRng::seed_from_u64(78);
        let b = generators::random_biregular(nu, nv, dl, &mut rng).expect("feasible");
        let (out, wall) =
            time(|| multicolor_splitting_deterministic(&b, 8, 0.5).expect("in regime"));
        assert!(checks::is_multicolor_splitting(
            &b,
            &out.colors,
            out.palette,
            0.5,
            0
        ));
        records.push(PipelineRecord {
            name: "multicolor_cl_det_biregular",
            n: b.node_count(),
            m: b.edge_count(),
            detail: format!("C=8 lambda=0.5 palette={}", out.palette),
            wall_ns_before: None,
            wall_ns: wall,
        });
    }

    // deterministic uniform (strong) splitting on a dense regular graph
    {
        let (n, deg) = scale.uniform;
        let mut rng = StdRng::seed_from_u64(79);
        let g = generators::random_regular(n, deg, &mut rng).expect("feasible");
        let eps = feasible_eps(n, deg);
        let (out, wall) =
            time(|| uniform_splitting_deterministic(&g, eps, deg).expect("certified"));
        assert!(checks::is_uniform_splitting(&g, &out.colors, eps, deg));
        records.push(PipelineRecord {
            name: "uniform_split_det_regular",
            n: g.node_count(),
            m: g.edge_count(),
            detail: format!("eps={eps:.3} min_degree={deg}"),
            wall_ns_before: None,
            wall_ns: wall,
        });
    }

    let host_parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut t = Table::new(
        "pipeline — end-to-end solver scenarios and fixer before/after",
        &[
            "record",
            "n",
            "m",
            "before ms",
            "wall ms",
            "speedup",
            "detail",
        ],
    );
    for r in &records {
        t.row(vec![
            r.name.into(),
            r.n.to_string(),
            r.m.to_string(),
            r.wall_ns_before
                .map_or("-".into(), |w| fnum(w as f64 / 1e6)),
            fnum(r.wall_ns as f64 / 1e6),
            r.speedup().map_or("-".into(), fnum),
            r.detail.clone(),
        ]);
    }
    let mut lt = Table::new(
        "pipeline — per-layer samples",
        &["layer", "record", "median ms", "p10 ms", "p90 ms", "params"],
    );
    for r in &layers {
        lt.row(vec![
            r.layer.into(),
            r.name.clone(),
            fnum(r.quantile_ns(0.5) as f64 / 1e6),
            fnum(r.quantile_ns(0.1) as f64 / 1e6),
            fnum(r.quantile_ns(0.9) as f64 / 1e6),
            r.params.clone(),
        ]);
    }
    (
        vec![t, lt],
        PipelineReport {
            mode: scale.mode,
            host_parallelism,
            records,
            layers,
        },
    )
}

/// `pipeline` — end-to-end benchmark of the theorem pipelines and the
/// derandomization engine. Returns the printable table and the
/// machine-readable report for `BENCH_pipeline.json`.
pub fn run_pipeline_perf(quick: bool) -> (Vec<Table>, PipelineReport) {
    run_sized(if quick { &QUICK } else { &FULL })
}

#[cfg(test)]
mod tests {
    use super::*;
    use derand::sequential_fix;

    #[test]
    fn tiny_run_produces_consistent_records() {
        let (tables, report) = run_sized(&TINY);
        assert_eq!(report.records.len(), 11);
        assert_eq!(tables[0].row_count(), 11);
        assert_eq!(report.layers.len(), 2);
        assert_eq!(tables[1].row_count(), 2);
        for r in &report.layers {
            assert_eq!(r.samples_ns.len(), LAYER_SAMPLES, "{}", r.name);
            assert!(r.quantile_ns(0.1) <= r.quantile_ns(0.5));
            assert!(r.quantile_ns(0.5) <= r.quantile_ns(0.9));
        }
        let fixer = report
            .records
            .iter()
            .filter(|r| r.wall_ns_before.is_some())
            .count();
        assert_eq!(fixer, 3, "three before/after fixer records");
        for r in &report.records {
            assert!(r.wall_ns > 0, "{}", r.name);
            assert!(r.n > 0 && r.m > 0);
        }
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"pipeline\""));
        assert!(json.contains("\"kind\": \"fixer\""));
        assert!(json.contains("\"kind\": \"scenario\""));
        assert!(json.contains("sequential_fix_overload_left_regular"));
        assert!(json.contains("\"host_parallelism\""));
        assert!(json.contains("\"layer\": \"core.drr1\""));
        assert!(json.contains("\"samples_ns\": ["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn seed_phased_fix_matches_live_on_reference_schedule() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = generators::random_left_regular(30, 60, 12, &mut rng).unwrap();
        let (sched, _) = greedy_right_square(&b);
        let palette = sched.iter().copied().max().map_or(1, |c| c + 1);
        let est = ColoringEstimator::monochromatic(&b);
        let seed = seed_phased_fix(&b, est.clone(), &sched, palette);
        let live = phased_fix(&b, est.clone(), &sched, palette);
        assert_fix_parity("test", &seed, &live);
        // explicit-order sequential replica cross-check as well
        let ord: Vec<usize> = (0..b.right_count()).collect();
        let live_seq = sequential_fix(&b, est.clone(), &ord);
        let seed_seq = seed_sequential_fix(&b, est);
        assert_fix_parity("test-seq", &seed_seq, &live_seq);
    }
}
