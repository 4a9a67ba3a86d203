//! Parity proptests: the incremental fixer engine must be *bit-identical*
//! in its color choices to the naive pre-refactor reference — per-query
//! `powi` evaluation, per-color-outer candidate loops, one `Vec` of counts
//! per constraint, and `Φ` recomputed from scratch at every step (no power
//! tables, no flat arrays, no tracked total) — and its incrementally
//! tracked `Φ` must follow the reference's from-scratch `Φ` within `1e-9`
//! at every step of the trajectory, across left-regular and irregular
//! bipartite instances and all three estimator instantiations.
//!
//! A second family pins [`phased_fix`] on Lemma 2.1's distance-2
//! schedules (`greedy_right_square`) against the reference's phased
//! run: identical colors, bit-identical initial and final `Φ`, and
//! the same charged rounds.
//!
//! A third family pins [`FixerState::seeded`] — the halo-restricted state
//! churn repair builds — against a whole-instance [`FixerState`] that fixes
//! every clean variable in ascending order: identical re-fix choices and
//! bit-identical `φ_u` on every halo constraint, over random dirty sets
//! and over the edge cases of the counting seed — no variable dirty,
//! every variable dirty, a halo constraint with no dirty neighbor whose
//! clean neighbors all share one color, and exempt constraints under a
//! `step == 0` estimator.
//!
//! The reference keeps the `S_u ← S_u − old + new` update of the original
//! engine rather than re-summing `S_u = Σ_x base(u, F_{u,x})` per query:
//! re-summing is mathematically identical but visits the addends in a
//! different order, so mathematically tied candidate colors (which both
//! engines must break toward the smaller color) can split by one ULP and
//! flip the argmin — the recurrence is what "the same color choices" is
//! defined against.
//!
//! CI runs this file with `PROPTEST_CASES=2048` for a heavier sweep.

use derand::{phased_fix, sequential_fix, ColoringEstimator, FixOutcome, FixerState};
use local_coloring::greedy_right_square;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use splitgraph::{generators, BipartiteGraph};

/// Which estimator to instantiate over an instance.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Monochromatic,
    MissingColor(u32),
    Overload(u32),
}

fn estimator(b: &BipartiteGraph, kind: Kind) -> ColoringEstimator {
    match kind {
        Kind::Monochromatic => ColoringEstimator::monochromatic(b),
        Kind::MissingColor(c) => ColoringEstimator::missing_color(b, c),
        Kind::Overload(c) => {
            // caps around half the degree; degree-0/1 constraints get their
            // degree as cap (never binding) and are exempted — the engine
            // must skip them without changing any choice
            let caps: Vec<usize> = (0..b.left_count())
                .map(|u| {
                    let d = b.left_degree(u);
                    if d >= 2 {
                        d / 2 + 1
                    } else {
                        d
                    }
                })
                .collect();
            let avg = if b.left_count() == 0 {
                1.0
            } else {
                (b.edge_count() as f64 / b.left_count() as f64).max(1.0)
            };
            let t = derand::chernoff_t(avg / 2.0 + 1.0, c, avg);
            let mut est = ColoringEstimator::overload(b, c, &caps, t);
            for u in 0..b.left_count() {
                if b.left_degree(u) < 2 {
                    est.exempt(u);
                }
            }
            est
        }
    }
}

/// Naive reference: the pre-refactor fixer verbatim — one count `Vec` per
/// constraint, per-query `powi`, per-color-outer candidate loops, and `Φ`
/// recomputed from scratch at every step.
struct NaiveRef {
    palette: u32,
    factor: f64,
    step: f64,
    base_zero: Vec<f64>,
    counts: Vec<Vec<u32>>,
    unfixed: Vec<usize>,
    sums: Vec<f64>,
}

impl NaiveRef {
    fn new(b: &BipartiteGraph, est: &ColoringEstimator) -> Self {
        let palette = est.palette();
        NaiveRef {
            palette,
            factor: est.factor(),
            step: est.step(),
            base_zero: (0..b.left_count()).map(|u| est.base(u, 0)).collect(),
            counts: vec![vec![0u32; palette as usize]; b.left_count()],
            unfixed: (0..b.left_count()).map(|u| b.left_degree(u)).collect(),
            sums: (0..b.left_count())
                .map(|u| palette as f64 * est.base(u, 0))
                .collect(),
        }
    }

    fn base(&self, u: usize, fixed: u32) -> f64 {
        if self.step == 0.0 {
            if fixed == 0 {
                self.base_zero[u]
            } else {
                0.0
            }
        } else {
            self.base_zero[u] * self.step.powi(fixed as i32)
        }
    }

    fn phi(&self, u: usize) -> f64 {
        self.factor.powi(self.unfixed[u] as i32) * self.sums[u]
    }

    /// `Φ` recomputed from scratch (per step — no incremental tracking).
    fn total(&self) -> f64 {
        (0..self.counts.len()).map(|u| self.phi(u)).sum()
    }

    fn phi_after(&self, u: usize, x: u32) -> f64 {
        let old = self.base(u, self.counts[u][x as usize]);
        let new = self.base(u, self.counts[u][x as usize] + 1);
        self.factor.powi(self.unfixed[u] as i32 - 1) * (self.sums[u] - old + new)
    }

    fn best_color(&self, b: &BipartiteGraph, v: usize) -> u32 {
        let mut best = 0u32;
        let mut best_score = f64::INFINITY;
        for x in 0..self.palette {
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
            let old = self.base(u, self.counts[u][x as usize]);
            self.counts[u][x as usize] += 1;
            let new = self.base(u, self.counts[u][x as usize]);
            self.sums[u] += new - old;
            self.unfixed[u] -= 1;
        }
    }
}

impl NaiveRef {
    /// The phased run over `square_coloring`: classes in ascending
    /// order, each class's variables (ascending) all choosing from the
    /// same state before any of them commits, two rounds charged per
    /// class of the `palette`, empty or not.
    fn phased(
        b: &BipartiteGraph,
        est: &ColoringEstimator,
        square_coloring: &[u32],
        palette: u32,
    ) -> FixOutcome {
        let mut naive = NaiveRef::new(b, est);
        let initial_phi = naive.total();
        let mut colors = vec![0u32; b.right_count()];
        for class in 0..palette {
            let deciders: Vec<usize> = (0..b.right_count())
                .filter(|&v| square_coloring[v] == class)
                .collect();
            let choices: Vec<u32> = deciders.iter().map(|&v| naive.best_color(b, v)).collect();
            for (&v, &x) in deciders.iter().zip(&choices) {
                naive.fix(b, v, x);
                colors[v] = x;
            }
        }
        FixOutcome {
            colors,
            initial_phi,
            final_phi: naive.total(),
            rounds: 2 * palette as usize,
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

/// Runs both engines step by step over a shuffled order and asserts
/// identical choices plus a matching `Φ` trajectory.
fn assert_parity(b: &BipartiteGraph, kind: Kind, order_seed: u64) {
    let est = estimator(b, kind);
    let mut order: Vec<usize> = (0..b.right_count()).collect();
    let mut rng = StdRng::seed_from_u64(order_seed);
    order.shuffle(&mut rng);

    let mut engine = FixerState::new(b, est.clone());
    let mut naive = NaiveRef::new(b, &est);
    assert!(
        close(engine.total(), naive.total()),
        "{kind:?}: initial Φ {} vs naive {}",
        engine.total(),
        naive.total()
    );
    let mut colors = vec![0u32; b.right_count()];
    for &v in &order {
        let fast = engine.best_color(v);
        let slow = naive.best_color(b, v);
        assert_eq!(fast, slow, "{kind:?}: choice for variable {v} diverged");
        engine.fix(v, fast);
        naive.fix(b, v, slow);
        colors[v] = fast;
        // the incrementally tracked Φ must follow the from-scratch Φ at
        // every step (the drift guard keeps the gap below 1e-9)
        assert!(
            close(engine.tracked_total(), naive.total()),
            "{kind:?}: tracked Φ {} vs naive {} after fixing {v}",
            engine.tracked_total(),
            naive.total()
        );
        assert!(close(engine.total(), naive.total()));
    }
    // whole-pass cross-check: sequential_fix over the same order reproduces
    // the step-by-step trajectory exactly
    let out = sequential_fix(b, est, order.iter().copied());
    assert_eq!(out.colors, colors);
    assert!(close(out.final_phi, naive.total()));
}

/// Runs [`phased_fix`] and the reference's phased run over the
/// greedy distance-2 schedule of `b` and asserts identical colors,
/// bit-identical `Φ` endpoints and equal rounds.
fn assert_phased_parity(b: &BipartiteGraph, kind: Kind) {
    let est = estimator(b, kind);
    let (schedule, _) = greedy_right_square(b);
    let palette = schedule.iter().copied().max().map_or(1, |c| c + 1);
    let live = phased_fix(b, est.clone(), &schedule, palette);
    let naive = NaiveRef::phased(b, &est, &schedule, palette);
    assert_eq!(live.colors, naive.colors, "{kind:?}: colors diverged");
    assert_eq!(
        live.initial_phi.to_bits(),
        naive.initial_phi.to_bits(),
        "{kind:?}: initial Φ diverged"
    );
    assert_eq!(
        live.final_phi.to_bits(),
        naive.final_phi.to_bits(),
        "{kind:?}: final Φ diverged"
    );
    assert_eq!(live.rounds, naive.rounds, "{kind:?}: rounds diverged");
}

/// Seeds a halo state from a random previous coloring and a random dirty
/// set, then checks it against a whole-instance replay
/// ([`assert_seeded_matches`]).
fn assert_seeded_parity(b: &BipartiteGraph, kind: Kind, seed: u64) {
    let est = estimator(b, kind);
    let nv = b.right_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let prev = random_coloring(nv, est.palette(), &mut rng);
    let dirty: Vec<usize> = (0..nv).filter(|_| rng.random_bool(0.3)).collect();
    let halo = halo_of(b, &dirty, &mut rng);
    assert_seeded_matches(b, &est, &prev, &dirty, &halo, &format!("{kind:?}"));
}

fn random_coloring(nv: usize, palette: u32, rng: &mut StdRng) -> Vec<u32> {
    (0..nv).map(|_| rng.random_range(0..palette)).collect()
}

/// Every constraint of a dirty variable, plus a few others.
fn halo_of(b: &BipartiteGraph, dirty: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let mut halo: Vec<usize> = dirty
        .iter()
        .flat_map(|&v| b.right_neighbors(v).iter().copied())
        .chain((0..b.left_count()).filter(|_| rng.random_bool(0.2)))
        .collect();
    halo.sort_unstable();
    halo.dedup();
    halo
}

/// Builds [`FixerState::seeded`] over `halo` with `dirty` unfixed and
/// every other variable at `prev`, re-fixes the dirty variables on both
/// it and a whole-instance [`FixerState`] that first fixed every clean
/// variable in ascending order, and asserts identical choices and
/// bit-identical halo `φ_u` after seeding and after re-fixing.
fn assert_seeded_matches(
    b: &BipartiteGraph,
    est: &ColoringEstimator,
    prev: &[u32],
    dirty: &[usize],
    halo: &[usize],
    what: &str,
) {
    let mut whole = FixerState::new(b, est.clone());
    for (v, &x) in prev.iter().enumerate() {
        if dirty.binary_search(&v).is_err() {
            whole.fix(v, x);
        }
    }
    let mut seeded = FixerState::seeded(b, est, halo, dirty, |v| prev[v]);
    let check_halo = |whole: &FixerState, seeded: &FixerState, when: &str| {
        for (i, &u) in halo.iter().enumerate() {
            assert_eq!(
                seeded.phi(i).to_bits(),
                whole.phi(u).to_bits(),
                "{what}: φ of constraint {u} diverged {when}"
            );
        }
    };
    check_halo(&whole, &seeded, "after seeding");
    for (j, &v) in dirty.iter().enumerate() {
        let x = whole.best_color(v);
        assert_eq!(seeded.best_color(j), x, "{what}: choice for {v} diverged");
        whole.fix(v, x);
        seeded.fix(j, x);
    }
    check_halo(&whole, &seeded, "after re-fixing");
    let halo_total: f64 = halo.iter().map(|&u| whole.phi(u)).sum();
    assert_eq!(seeded.total().to_bits(), halo_total.to_bits());
}

const ALL_KINDS: [Kind; 4] = [
    Kind::Monochromatic,
    Kind::MissingColor(3),
    Kind::MissingColor(6),
    Kind::Overload(4),
];

proptest! {
    #[test]
    fn incremental_matches_naive_on_left_regular(
        (nc, nv_mult, deg, seed) in (2usize..14, 2usize..5, 2usize..9, 0u64..10_000)
    ) {
        let nv = nc * nv_mult;
        let deg = deg.min(nv);
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generators::random_left_regular(nc, nv, deg, &mut rng).unwrap();
        for kind in ALL_KINDS {
            assert_parity(&b, kind, seed ^ 0xA5A5);
        }
    }

    #[test]
    fn incremental_matches_naive_on_irregular(
        (nc, nv, p10, seed) in (2usize..12, 2usize..24, 1usize..7, 0u64..10_000)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generators::erdos_renyi_bipartite(nc, nv, 0.1 * p10 as f64, &mut rng);
        for kind in ALL_KINDS {
            assert_parity(&b, kind, seed ^ 0x5A5A);
        }
    }

    #[test]
    fn incremental_matches_naive_on_overload_tight_caps(
        (nc, deg, seed) in (2usize..10, 4usize..12, 0u64..10_000)
    ) {
        // biregular-ish dense instances where the MGF terms actually move
        let nv = nc * 2;
        let deg = deg.min(nv);
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generators::random_left_regular(nc, nv, deg, &mut rng).unwrap();
        for palette in [2u32, 3, 5] {
            assert_parity(&b, Kind::Overload(palette), seed ^ 0x33);
        }
    }

    #[test]
    fn phased_matches_naive_phased_on_square_schedules(
        (nc, nv_mult, deg, p10, seed) in (2usize..14, 2usize..5, 2usize..9, 1usize..7, 0u64..10_000)
    ) {
        let nv = nc * nv_mult;
        let mut rng = StdRng::seed_from_u64(seed);
        let regular = generators::random_left_regular(nc, nv, deg.min(nv), &mut rng).unwrap();
        let irregular = generators::erdos_renyi_bipartite(nc, nv, 0.1 * p10 as f64, &mut rng);
        for b in [&regular, &irregular] {
            for kind in ALL_KINDS {
                assert_phased_parity(b, kind);
            }
        }
    }

    #[test]
    fn seeded_halo_matches_whole_instance_replay(
        (nc, nv, p10, seed) in (1usize..12, 1usize..24, 1usize..8, 0u64..10_000)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generators::erdos_renyi_bipartite(nc, nv, 0.1 * p10 as f64, &mut rng);
        for kind in ALL_KINDS {
            assert_seeded_parity(&b, kind, seed ^ 0x77);
        }
    }
    #[test]
    fn seeded_with_no_dirty_variable_is_the_fixed_state(
        (nc, nv, p10, seed) in (1usize..12, 1usize..24, 1usize..8, 0u64..10_000)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generators::erdos_renyi_bipartite(nc, nv, 0.1 * p10 as f64, &mut rng);
        for kind in ALL_KINDS {
            let est = estimator(&b, kind);
            let prev = random_coloring(nv, est.palette(), &mut rng);
            let halo = halo_of(&b, &[], &mut rng);
            assert_seeded_matches(&b, &est, &prev, &[], &halo, &format!("{kind:?}, none dirty"));
        }
    }

    #[test]
    fn seeded_with_every_variable_dirty_is_the_fresh_state(
        (nc, nv, p10, seed) in (1usize..12, 1usize..24, 1usize..8, 0u64..10_000)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generators::erdos_renyi_bipartite(nc, nv, 0.1 * p10 as f64, &mut rng);
        let all: Vec<usize> = (0..nv).collect();
        for kind in ALL_KINDS {
            let est = estimator(&b, kind);
            let prev = random_coloring(nv, est.palette(), &mut rng);
            let halo = halo_of(&b, &all, &mut rng);
            assert_seeded_matches(&b, &est, &prev, &all, &halo, &format!("{kind:?}, all dirty"));
        }
    }

    #[test]
    fn seeded_keeps_a_stranded_monochromatic_constraint(
        (nc, nv, p10, seed) in (1usize..12, 1usize..24, 1usize..8, 0u64..10_000)
    ) {
        // constraint 0 has no dirty neighbor and all its clean neighbors
        // share one color: it is fully fixed inside the halo, and the
        // seeded state must carry its φ exactly (1 for weak splitting
        // when it has a neighbor: one color is missing)
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generators::erdos_renyi_bipartite(nc, nv, 0.1 * p10 as f64, &mut rng);
        for kind in ALL_KINDS {
            let est = estimator(&b, kind);
            let mut prev = random_coloring(nv, est.palette(), &mut rng);
            let shared = rng.random_range(0..est.palette());
            for &v in b.left_neighbors(0) {
                prev[v] = shared;
            }
            let dirty: Vec<usize> = (0..nv)
                .filter(|&v| rng.random_bool(0.4) && !b.left_neighbors(0).contains(&v))
                .collect();
            let mut halo = halo_of(&b, &dirty, &mut rng);
            if halo.first() != Some(&0) {
                halo.insert(0, 0);
            }
            assert_seeded_matches(&b, &est, &prev, &dirty, &halo, &format!("{kind:?}, stranded"));
            if matches!(kind, Kind::Monochromatic) && b.left_degree(0) > 0 {
                let st = FixerState::seeded(&b, &est, &halo, &dirty, |v| prev[v]);
                assert_eq!(st.phi(0), 1.0, "a monochromatic constraint must contribute 1");
            }
        }
    }

    #[test]
    fn seeded_skips_exempt_constraints_under_step_zero(
        (nc, nv, p10, palette, seed) in (1usize..12, 1usize..24, 1usize..8, 2u32..7, 0u64..10_000)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generators::erdos_renyi_bipartite(nc, nv, 0.1 * p10 as f64, &mut rng);
        let mut est = ColoringEstimator::missing_color(&b, palette);
        for u in 0..nc {
            if rng.random_bool(0.4) {
                est.exempt(u);
            }
        }
        let prev = random_coloring(nv, palette, &mut rng);
        let dirty: Vec<usize> = (0..nv).filter(|_| rng.random_bool(0.3)).collect();
        let halo = halo_of(&b, &dirty, &mut rng);
        assert_seeded_matches(&b, &est, &prev, &dirty, &halo, "missing color with exemptions");
        let st = FixerState::seeded(&b, &est, &halo, &dirty, |v| prev[v]);
        for (i, &u) in halo.iter().enumerate() {
            if est.is_exempt(u) {
                assert_eq!(st.phi(i).to_bits(), 0.0f64.to_bits(), "exempt {u} must stay at +0");
            }
        }
    }
}
