//! The shattering technique of Theorem 1.2: three LOCAL rounds satisfy
//! almost every constraint, the stragglers form tiny components.
//!
//! ```sh
//! cargo run --release -p distributed-splitting --example shattering_demo
//! ```

use distributed_splitting::core::{shatter, theorem12_with_report, Theorem12Config};
use distributed_splitting::splitgraph::{bipartite_components, checks, generators};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(9);
    // δ = 28 sits just below the zero-round regime (2·log n ≈ 28.3), the
    // interesting territory for shattering
    let b = generators::random_biregular(4096, 14336, 28, &mut rng).expect("feasible");
    println!(
        "instance: |U| = {}, |V| = {}, δ = {}, r = {}, n = {}",
        b.left_count(),
        b.right_count(),
        b.min_left_degree(),
        b.rank(),
        b.node_count()
    );

    // one shattering pass, inspected
    let sh = shatter(&b, 2024);
    let unsat = sh.satisfied.iter().filter(|&&s| !s).count();
    let uncolored = sh.colors.iter().filter(|c| c.is_none()).count();
    println!("\nafter {} LOCAL rounds of shattering:", sh.rounds);
    println!("  unsatisfied constraints: {unsat} / {}", b.left_count());
    println!(
        "  uncolored variables:     {uncolored} / {}",
        b.right_count()
    );
    let comps = bipartite_components(&sh.residual);
    let sizes: Vec<usize> = comps.iter().map(|c| c.node_count()).collect();
    println!(
        "  residual components:     {} (largest: {} nodes)",
        sizes.len(),
        sizes.iter().max().copied().unwrap_or(0)
    );

    // the full Theorem 1.2 pipeline
    let cfg = Theorem12Config {
        c_constant: 1.5,
        seed: 2024,
        ..Default::default()
    };
    let (out, report) = theorem12_with_report(&b, &cfg).expect("pipeline succeeds");
    assert!(checks::is_weak_splitting(&b, &out.colors, 0));
    println!("\nTheorem 1.2 pipeline: valid weak splitting");
    println!(
        "  components solved deterministically: {}",
        report.solved_components
    );
    println!("  shattering attempts used: {}", report.attempts_used);
    println!("\nround ledger:\n{}", out.ledger);
}
