//! `fig1` / `thm210` — Figure 1 and the Section 2.5 lower-bound family.

use crate::table::{fnum, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::{checks, generators, Color};
use splitting_core as core;

/// `fig1` — the Figure 1 pipeline: graph → rank-2 instance → weak
/// splitting → sinkless orientation, on the paper-style 8-node example and
/// larger random families.
pub fn exp_fig1(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "fig1 — Figure 1 / Section 2.5: sinkless orientation from weak splitting",
        &[
            "family",
            "n",
            "δ_G",
            "δ_B",
            "r_B",
            "splitting valid",
            "sinkless",
            "solver",
        ],
    );

    // the 8-node, 6-regular example in the spirit of Figure 1
    let fig = generators::complete(8).filter_edges(|u, v| !(u % 2 == 0 && v == u + 1));
    let families: Vec<(String, splitgraph::Graph)> = {
        let mut fams = vec![("figure-1 example (8 nodes)".to_string(), fig)];
        let mut rng = StdRng::seed_from_u64(42);
        let sizes: &[(usize, usize)] = if quick {
            &[(60, 6), (120, 24)]
        } else {
            &[(60, 6), (120, 24), (500, 24), (1000, 30)]
        };
        for &(n, d) in sizes {
            fams.push((
                format!("random {d}-regular"),
                generators::random_regular(n, d, &mut rng).expect("feasible"),
            ));
        }
        fams
    };

    for (name, g) in families {
        let ids: Vec<u64> = (0..g.node_count() as u64).collect();
        let red = core::sinkless_via_weak_splitting(&g, &ids, 9).expect("pipeline succeeds");
        let b = &red.instance.bipartite;
        let solver = if red
            .ledger
            .entries()
            .iter()
            .any(|e| e.label.contains("centralized"))
        {
            "centralized reference (Thm 2.10 regime)"
        } else {
            "Theorem 2.7"
        };
        t.row(vec![
            name,
            g.node_count().to_string(),
            g.min_degree().to_string(),
            b.min_left_degree().to_string(),
            b.rank().to_string(),
            checks::is_weak_splitting(b, &red.splitting, 0).to_string(),
            checks::is_sinkless(&g, &red.orientation, 1).to_string(),
            solver.into(),
        ]);
    }

    // the edge-coloring detail of Figure 1(c)/(d): red = small→large ID
    let mut t2 = Table::new(
        "fig1 — orientation rule detail (red: small→large ID, blue: large→small)",
        &["edge", "color", "direction"],
    );
    let g = generators::cycle(6).expect("cycle");
    // δ_G = 2 < 5: use the raw instance + reference solver to illustrate
    let ids: Vec<u64> = vec![11, 3, 8, 1, 9, 5];
    let inst = generators::sinkless_instance(&g, &ids);
    let sol = core::solve_rank2_reference(&inst.bipartite, 3)
        .map(|o| o.colors)
        .unwrap_or_else(|_| vec![Color::Red; inst.edges.len()]);
    let orient = core::orientation_from_splitting(&inst, &ids, &sol);
    for (i, &(a, b)) in inst.edges.iter().enumerate() {
        let (tail, head) = if orient.forward[i] { (a, b) } else { (b, a) };
        t2.row(vec![
            format!("{{{a}, {b}}} (ids {}, {})", ids[a], ids[b]),
            sol[i].to_string(),
            format!("{} → {}", ids[tail], ids[head]),
        ]);
    }
    vec![t, t2]
}

/// `thm210` — lower-bound consistency: measured rounds of our solvers on
/// the rank-2 family against the `Ω(log_Δ log n)` / `Ω(log_Δ n)` bounds.
pub fn exp_thm210(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "thm210 — Theorem 2.10 / Corollary 2.11: lower bounds on the rank-2 family",
        &[
            "n_B",
            "Δ_B",
            "rand bound log_Δ log n",
            "det bound log_Δ n",
            "our det rounds",
            "consistent",
        ],
    );
    let mut rng = StdRng::seed_from_u64(7);
    let sizes: &[usize] = if quick {
        &[120, 480]
    } else {
        &[120, 480, 1920, 7680]
    };
    for &n in sizes {
        let g = generators::random_regular(n, 24, &mut rng).expect("feasible");
        let ids: Vec<u64> = (0..n as u64).collect();
        let red = core::sinkless_via_weak_splitting(&g, &ids, 5).expect("pipeline succeeds");
        let b = &red.instance.bipartite;
        let nb = b.node_count();
        let delta_b = b.max_left_degree();
        let rand_bound = core::theorem210_randomized_bound(nb, delta_b);
        let det_bound = core::corollary211_deterministic_bound(nb, delta_b);
        let ours = red.ledger.total();
        t.row(vec![
            nb.to_string(),
            delta_b.to_string(),
            fnum(rand_bound),
            fnum(det_bound),
            fnum(ours),
            (ours >= rand_bound.min(det_bound) || ours == 0.0).to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_quick_all_valid() {
        let tables = exp_fig1(true);
        assert_eq!(tables.len(), 2);
        assert!(!tables[0].render().contains("false"));
        assert!(tables[1].row_count() == 6, "six cycle edges");
    }

    #[test]
    fn thm210_quick_has_rows() {
        let tables = exp_thm210(true);
        assert!(tables[0].row_count() >= 2);
    }
}
