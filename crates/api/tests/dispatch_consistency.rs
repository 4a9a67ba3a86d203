//! Plan-vs-solve consistency: a weak-splitting request is dispatched by
//! the shared [`decide_pipeline`] function, so the pipeline `Session`
//! announces in a solution's provenance must always be the one it
//! decides, and a request fails exactly when no regime covers it. The
//! property runs over randomized biregular instances spanning every
//! regime (Theorem 2.7 skew, Theorem 2.5 / zero-round density, the
//! Theorem 1.2 shattering window, and the uncovered territory below all
//! of them).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitting_api::{ApiError, Determinism, Problem, Request, Session};
use splitting_core::{decide_pipeline, RegimeParams};

proptest! {
    /// The session runs exactly the pipeline `decide_pipeline` chose,
    /// and answers `UnsupportedRegime` exactly when it chose none.
    #[test]
    fn solve_pipeline_matches_plan(
        (nu, ratio, k, seed, mode) in (4usize..40, 1usize..8, 1usize..6, 0u64..1_000, 0u32..8)
    ) {
        // d = k·ratio keeps nu·d divisible by nv = nu·ratio (biregular
        // feasibility) while still spanning every dispatch regime
        let nv = nu * ratio;
        let d = (k * ratio).max(2).min(nv);
        prop_assume!(nu * d % nv == 0);
        let mut rng = StdRng::seed_from_u64(seed);
        // very dense corners can exhaust the generator's repair budget —
        // skip those cases, the regime coverage does not depend on them
        let Ok(b) = splitgraph::generators::random_biregular(nu, nv, d, &mut rng) else {
            return;
        };
        let randomized = mode % 2 == 0;
        // c ∈ {1.5, 2.5, 3.5, 4.5}: straddles the Theorem 1.2 window
        let thm12_constant = 1.5 + f64::from(mode / 2);
        let plan = decide_pipeline(randomized, thm12_constant, RegimeParams::of(&b));
        let determinism = if randomized {
            Determinism::Randomized
        } else {
            Determinism::Deterministic
        };
        let request = Request::new(Problem::WeakSplitting { thm12_constant }, b)
            .determinism_policy(determinism)
            .seed(seed);
        match Session::new().solve(&request) {
            Ok(solution) => {
                prop_assert!(plan.is_some());
                prop_assert_eq!(solution.provenance.pipeline, plan);
            }
            Err(err) => {
                prop_assert_eq!(plan, None, "a covered instance failed: {}", err);
                prop_assert!(matches!(err, ApiError::UnsupportedRegime { .. }), "{}", err);
            }
        }
    }
}
