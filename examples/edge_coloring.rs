//! The introduction's success story (§1.1): edge splitting unlocks
//! `2Δ(1+o(1))` edge coloring ([GS17], [GHK+17b]) — here requested
//! through the unified API, once per engine.
//!
//! ```sh
//! cargo run --release -p distributed-splitting --example edge_coloring
//! ```

use distributed_splitting::api::{Problem, Request, Session};
use distributed_splitting::reductions::EdgeSplitEngine;
use distributed_splitting::splitgraph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(21);
    let n = 256;
    let delta = 64;
    let g = generators::random_regular(n, delta, &mut rng).expect("feasible");
    println!("graph: n = {n}, Δ = {delta}, m = {}", g.edge_count());

    let session = Session::new();
    for engine in [EdgeSplitEngine::Eulerian, EdgeSplitEngine::Walk] {
        let request = Request::new(
            Problem::EdgeColoring {
                base_degree: Some(8),
                engine,
            },
            g.clone(),
        );
        let solution = session.solve(&request).expect("non-empty graph");
        assert!(solution.certificate.holds());
        let (_, palette) = solution.output.multi_coloring().expect("edge colors");
        println!("\nengine {engine:?}:");
        println!("  {}", solution.provenance);
        println!(
            "  palette: {palette} colors = {:.3} × 2Δ   [GS17 target: 2Δ(1+o(1))]",
            f64::from(palette) / (2.0 * delta as f64)
        );
        println!(
            "  rounds: {:.1} measured + {:.1} charged",
            solution.ledger.measured_total(),
            solution.ledger.charged_total()
        );
    }
}
