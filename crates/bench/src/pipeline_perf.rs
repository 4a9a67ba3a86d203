//! End-to-end pipeline benchmarks: the derandomization engine, the
//! whole-solver scenarios, and single pipeline layers, each timed over
//! repeated samples.
//!
//! Three groups of records feed `BENCH_pipeline.json`:
//!
//! * **fixer** records time the conditional-expectation fixers
//!   (`derand.sequential_fix`, `derand.phased_fix`). Their bit-parity
//!   with the naive pre-incremental engine is pinned by
//!   `crates/derand/tests/fixer_parity.rs`, sequential and phased;
//! * **scenario** records time whole solvers — the weak-splitting
//!   pipelines (`solver_*` rows: the theorem entrypoint
//!   [`splitting_core::decide_pipeline`] picks for the instance —
//!   Theorem 2.5 / zero-round / Theorem 1.2 / Theorem 2.7 — called
//!   directly, with the default seed and constant), multicolor splitting,
//!   and uniform splitting — across sparse, dense, and left-regular
//!   instances, with the outputs validity-checked;
//! * **layer** records time one library layer alone: Degree–Rank
//!   Reduction I at the shapes Theorem 2.5 feeds it, Theorem 1.2's
//!   shattering step, Lemmas 2.1 and 2.2, the zero-round and random
//!   multicolor colorings, and the Δ-coloring reduction.

use crate::json::{params, sample, Record};
use degree_split::{DegreeSplitter, Engine, Flavor};
use derand::{phased_fix, ColoringEstimator};
use local_coloring::greedy_right_square;
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::{checks, generators, BipartiteGraph};
use splitting_core::{
    degree_rank_reduction_i, multicolor_splitting_deterministic, weak_multicolor_deterministic,
    Pipeline,
};
use splitting_reductions::{
    delta_coloring_via_splitting, feasible_eps, uniform_splitting_deterministic,
};

/// Instance sizes and sample count for one benchmark tier.
struct Scale {
    samples: usize,
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
    /// Δ-coloring regular graph `(n, deg)`.
    delta_coloring: (usize, usize),
    /// DRR-I layer instances `(nc, nv, deg, k)`, left-regular; the full and
    /// quick shapes use the iteration count `k` Theorem 2.5 picks for them.
    drr1: [(usize, usize, usize, usize); 2],
}

const FULL: Scale = Scale {
    samples: 11,
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
    delta_coloring: (512, 64),
    drr1: [(80, 640, 560, 2), (400, 3_200, 2_800, 4)],
};

const QUICK: Scale = Scale {
    samples: 5,
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
    delta_coloring: (512, 64),
    drr1: [(80, 640, 560, 2), (200, 1_600, 1_400, 3)],
};

#[cfg(test)]
const TINY: Scale = Scale {
    samples: 3,
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
    delta_coloring: (256, 48),
    drr1: [(16, 128, 112, 1), (24, 192, 168, 1)],
};

/// The Lemma 2.1 / 2.2 instance `(nu, nv, left_deg)`, at every tier.
const LEMMA21: (usize, usize, usize) = (100, 200, 18);

/// The weak-splitting pipeline the regime dispatch picks for `b`.
fn dispatch(b: &BipartiteGraph, allow_randomized: bool, thm12_constant: f64) -> Pipeline {
    splitting_core::decide_pipeline(
        allow_randomized,
        thm12_constant,
        splitting_core::RegimeParams::of(b),
    )
    .expect("the instance lies in a covered regime")
}

/// `n` and `m` of a bipartite instance.
fn shape(b: &BipartiteGraph) -> Vec<(&'static str, crate::json::Param)> {
    params!["n" => b.node_count(), "m" => b.edge_count()]
}

/// Times Degree–Rank Reduction I alone on a left-regular instance, with
/// the ε Theorem 2.5 pairs with `k`.
fn drr1_layer((nc, nv, deg, k): (usize, usize, usize, usize), samples: usize) -> Record {
    let mut rng = StdRng::seed_from_u64(7);
    let b = generators::random_left_regular(nc, nv, deg, &mut rng).expect("feasible");
    let eps = (1.0 / k as f64).min(1.0 / 3.0);
    let splitter = DegreeSplitter::new(eps, Engine::EulerianOracle, Flavor::Deterministic);
    let (red, wall) = sample(samples, || degree_rank_reduction_i(&b, &splitter, k));
    assert_eq!(red.trace.len(), k);
    Record::new(
        "core.drr1",
        format!("drr1_left_regular_{nc}x{nv}x{deg}"),
        params!["k" => k, "eps" => eps, "m" => b.edge_count()],
        wall,
    )
}

fn run_sized(scale: &Scale) -> Vec<Record> {
    let samples = scale.samples;
    // layer rows first, on a heap no earlier row has grown
    let mut records: Vec<Record> = scale
        .drr1
        .iter()
        .map(|&shape| drr1_layer(shape, samples))
        .collect();

    // -- fixer records ----------------------------------------------------

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
        let (_, wall) = sample(samples, || derand::sequential_fix_identity(&b, est.clone()));
        let mut p = shape(&b);
        p.extend(params!["palette" => 4u32, "cap" => cap]);
        records.push(Record::new(
            "derand.sequential_fix",
            "sequential_fix_overload_left_regular",
            p,
            wall,
        ));
    }

    // monochromatic weak splitting, sequential
    {
        let (nc, nv, deg) = scale.fix_mono;
        let mut rng = StdRng::seed_from_u64(72);
        let b = generators::random_left_regular(nc, nv, deg, &mut rng).expect("feasible");
        let est = ColoringEstimator::monochromatic(&b);
        let (_, wall) = sample(samples, || derand::sequential_fix_identity(&b, est.clone()));
        let mut p = shape(&b);
        p.extend(params!["palette" => 2u32]);
        records.push(Record::new(
            "derand.sequential_fix",
            "sequential_fix_monochromatic_left_regular",
            p,
            wall,
        ));
    }

    // monochromatic weak splitting, phased (schedule verification + class
    // bucketing included)
    {
        let (nc, nv, deg) = scale.fix_phased;
        let mut rng = StdRng::seed_from_u64(73);
        let b = generators::random_left_regular(nc, nv, deg, &mut rng).expect("feasible");
        let (sched, _) = greedy_right_square(&b);
        let palette = sched.iter().copied().max().map_or(1, |c| c + 1);
        let est = ColoringEstimator::monochromatic(&b);
        let (live, wall) = sample(samples, || phased_fix(&b, est.clone(), &sched, palette));
        assert_eq!(live.rounds, 2 * palette as usize);
        let mut p = shape(&b);
        p.extend(params!["classes" => palette, "rounds" => live.rounds]);
        records.push(Record::new(
            "derand.phased_fix",
            "phased_fix_monochromatic_left_regular",
            p,
            wall,
        ));
    }

    // -- whole-solver scenario records ------------------------------------

    // dispatched pipeline: Theorem 2.7 on a skewed sparse instance
    {
        let (nu, nv, dl) = scale.thm27;
        let mut rng = StdRng::seed_from_u64(74);
        let b = generators::random_biregular(nu, nv, dl, &mut rng).expect("feasible");
        let plan = dispatch(&b, false, 3.0);
        assert_eq!(plan, Pipeline::Theorem27);
        let (out, wall) = sample(samples, || {
            splitting_core::theorem27(&b, splitting_core::Variant::Deterministic)
                .expect("in regime")
        });
        assert!(checks::is_weak_splitting(&b, &out.colors, 0));
        let mut p = shape(&b);
        p.extend(params!["dispatch" => format!("{plan:?}"), "rounds" => out.ledger.total()]);
        records.push(Record::new(
            "core.theorem27",
            "solver_thm27_sparse_biregular",
            p,
            wall,
        ));
    }

    // dispatched pipelines: Theorem 2.5 (deterministic) and the
    // zero-round randomized path on the same balanced instance
    {
        let (nu, nv, dl) = scale.thm25;
        let mut rng = StdRng::seed_from_u64(75);
        let b = generators::random_biregular(nu, nv, dl, &mut rng).expect("feasible");
        let plan = dispatch(&b, false, 3.0);
        assert_eq!(plan, Pipeline::Theorem25);
        let ((out, _), wall) = sample(samples, || {
            splitting_core::theorem25(&b, degree_split::Flavor::Deterministic).expect("in regime")
        });
        assert!(checks::is_weak_splitting(&b, &out.colors, 0));
        let mut p = shape(&b);
        p.extend(params!["dispatch" => format!("{plan:?}"), "rounds" => out.ledger.total()]);
        records.push(Record::new(
            "core.theorem25",
            "solver_thm25_biregular",
            p,
            wall,
        ));

        let plan = dispatch(&b, true, 3.0);
        assert_eq!(plan, Pipeline::ZeroRound);
        let (out, wall) = sample(samples, || {
            splitting_core::zero_round_whp(&b, splitting_api::DEFAULT_SEED, 32).expect("in regime")
        });
        assert!(checks::is_weak_splitting(&b, &out.colors, 0));
        let mut p = shape(&b);
        p.extend(params!["dispatch" => format!("{plan:?}")]);
        records.push(Record::new(
            "core.zero_round_whp",
            "solver_zero_round_biregular",
            p,
            wall,
        ));
    }

    // Theorem 2.5's Degree–Rank Reduction branch on a dense skewed
    // instance (δ > 48·log n; called directly — the solver would dispatch
    // such a δ ≥ 6r instance to Theorem 2.7)
    {
        let (nu, nv, dl) = scale.thm25_drr;
        let mut rng = StdRng::seed_from_u64(80);
        let b = generators::random_biregular(nu, nv, dl, &mut rng).expect("feasible");
        let ((out, report), wall) = sample(samples, || {
            splitting_core::theorem25(&b, degree_split::Flavor::Deterministic).expect("in regime")
        });
        assert!(report.drr_iterations >= 1, "expected the DRR branch");
        assert!(checks::is_weak_splitting(&b, &out.colors, 0));
        let mut p = shape(&b);
        p.extend(params![
            "drr_iters" => report.drr_iterations,
            "reduced_rank" => report.reduced_rank,
            "eps" => report.eps,
        ]);
        records.push(Record::new(
            "core.theorem25",
            "thm25_drr_dense_biregular",
            p,
            wall,
        ));
    }

    // dispatched pipeline: Theorem 1.2 in the shattering window, and its
    // shattering step alone on the same instance
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
        let (out, wall) = sample(samples, || {
            splitting_core::theorem12(&b, &cfg).expect("in regime")
        });
        assert!(checks::is_weak_splitting(&b, &out.colors, 0));
        let mut p = shape(&b);
        p.extend(params!["dispatch" => format!("{plan:?}")]);
        records.push(Record::new(
            "core.theorem12",
            "solver_thm12_shattering_window",
            p,
            wall,
        ));

        let (shattered, wall) = sample(samples, || {
            splitting_core::shatter(&b, splitting_api::DEFAULT_SEED)
        });
        let mut p = shape(&b);
        p.extend(params!["residual_m" => shattered.residual.edge_count()]);
        records.push(Record::new("core.shatter", "shatter_thm12_window", p, wall));
    }

    // Lemma 2.1, Lemma 2.2 and the zero-round coloring on a small
    // biregular instance
    {
        let (nu, nv, dl) = LEMMA21;
        let mut rng = StdRng::seed_from_u64(1);
        let b = generators::random_biregular(nu, nv, dl, &mut rng).expect("feasible");
        let n = b.node_count();
        let (out, wall) = sample(samples, || {
            splitting_core::basic_deterministic(&b, n).expect("in regime")
        });
        assert!(checks::is_weak_splitting(&b, &out.colors, 0));
        records.push(Record::new(
            "core.lemma21",
            "lemma21_biregular",
            shape(&b),
            wall,
        ));
        let (out, wall) = sample(samples, || {
            splitting_core::truncated_deterministic(&b, n).expect("in regime")
        });
        assert!(checks::is_weak_splitting(&b, &out.colors, 0));
        records.push(Record::new(
            "core.lemma22",
            "lemma22_biregular",
            shape(&b),
            wall,
        ));
        let (_, wall) = sample(samples, || splitting_core::zero_round_coloring(&b, 7));
        records.push(Record::new(
            "core.zero_round",
            "zero_round_biregular",
            shape(&b),
            wall,
        ));
    }

    // C-weak multicolor splitting on a dense instance: deterministic, and
    // the zero-round random coloring
    {
        let (nc, nv, deg) = scale.multicolor_weak;
        let mut rng = StdRng::seed_from_u64(77);
        let b = generators::random_left_regular(nc, nv, deg, &mut rng).expect("feasible");
        let (out, wall) = sample(samples, || {
            weak_multicolor_deterministic(&b).expect("in regime")
        });
        let mut p = shape(&b);
        p.extend(params!["palette" => out.palette]);
        records.push(Record::new(
            "core.multicolor_weak",
            "multicolor_weak_det_dense",
            p,
            wall,
        ));
        let (out, wall) = sample(samples, || splitting_core::weak_multicolor_random(&b, 5));
        let mut p = shape(&b);
        p.extend(params!["palette" => out.palette]);
        records.push(Record::new(
            "core.multicolor_weak_random",
            "multicolor_weak_random_dense",
            p,
            wall,
        ));
    }

    // deterministic (C, λ) multicolor splitting
    {
        let (nu, nv, dl) = scale.multicolor_cl;
        let mut rng = StdRng::seed_from_u64(78);
        let b = generators::random_biregular(nu, nv, dl, &mut rng).expect("feasible");
        let (out, wall) = sample(samples, || {
            multicolor_splitting_deterministic(&b, 8, 0.5).expect("in regime")
        });
        assert!(checks::is_multicolor_splitting(
            &b,
            &out.colors,
            out.palette,
            0.5,
            0
        ));
        let mut p = shape(&b);
        p.extend(params!["C" => 8u32, "lambda" => 0.5, "palette" => out.palette]);
        records.push(Record::new(
            "core.multicolor_splitting",
            "multicolor_cl_det_biregular",
            p,
            wall,
        ));
    }

    // deterministic uniform (strong) splitting on a dense regular graph
    {
        let (n, deg) = scale.uniform;
        let mut rng = StdRng::seed_from_u64(79);
        let g = generators::random_regular(n, deg, &mut rng).expect("feasible");
        let eps = feasible_eps(n, deg);
        let (out, wall) = sample(samples, || {
            uniform_splitting_deterministic(&g, eps, deg).expect("certified")
        });
        assert!(checks::is_uniform_splitting(&g, &out.colors, eps, deg));
        records.push(Record::new(
            "reductions.uniform_splitting",
            "uniform_split_det_regular",
            params!["n" => n, "m" => g.edge_count(), "eps" => eps, "min_degree" => deg],
            wall,
        ));
    }

    // Δ-coloring through recursive splitting
    {
        let (n, deg) = scale.delta_coloring;
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::random_regular(n, deg, &mut rng).expect("feasible");
        let ((colors, report, _), wall) = sample(samples, || {
            delta_coloring_via_splitting(&g, 36, None).expect("non-empty")
        });
        assert_eq!(colors.len(), n);
        records.push(Record::new(
            "reductions.delta_coloring",
            "delta_coloring_regular",
            params!["n" => n, "m" => g.edge_count(), "palette" => report.palette],
            wall,
        ));
    }
    records
}

/// `pipeline` — end-to-end benchmark of the theorem pipelines, the
/// derandomization engine and single pipeline layers; the records of
/// `BENCH_pipeline.json`.
pub fn run_pipeline_perf(quick: bool) -> Vec<Record> {
    run_sized(if quick { &QUICK } else { &FULL })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_consistent_records() {
        let records = run_sized(&TINY);
        assert_eq!(records.len(), 19);
        for r in &records {
            assert_eq!(r.samples_ns.len(), TINY.samples, "{}", r.name);
            assert!(r.quantile_ns(0.1) <= r.quantile_ns(0.5));
            assert!(r.quantile_ns(0.5) <= r.quantile_ns(0.9));
            assert!(
                r.params.iter().any(|(k, _)| *k == "n") || r.layer == "core.drr1",
                "{}",
                r.name
            );
        }
        let layers: Vec<&str> = records.iter().map(|r| r.layer).collect();
        assert_eq!(&layers[..2], ["core.drr1", "core.drr1"]);
        assert_eq!(
            layers.iter().filter(|l| l.starts_with("derand.")).count(),
            3,
            "three fixer records"
        );
        assert!(records
            .iter()
            .any(|r| r.name == "sequential_fix_overload_left_regular"));
    }
}
