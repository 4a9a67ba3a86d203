//! Substrate experiments: the §1.1 edge-splitting motivation
//! (`edge_split`) and the LOCAL-simulator metrics (`runtime`).

use crate::table::{fnum, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::{checks, generators};
use splitting_reductions as red;

/// `edge_split` — the introduction's edge-coloring pipeline: recursive
/// edge splitting → `2Δ(1+o(1))` colors (\[GS17\] shape).
pub fn exp_edge_split(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "edge_split — §1.1 motivation: 2Δ(1+o(1)) edge coloring via edge splitting",
        &[
            "n",
            "Δ",
            "engine",
            "levels",
            "base Δ*",
            "palette",
            "ratio /2Δ",
            "proper",
        ],
    );
    let sweep: &[(usize, usize)] = if quick {
        &[(128, 32)]
    } else {
        &[(128, 32), (256, 64), (512, 128)]
    };
    for (i, &(n, d)) in sweep.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(3000 + i as u64);
        let g = generators::random_regular(n, d, &mut rng).expect("feasible");
        for engine in [red::EdgeSplitEngine::Eulerian, red::EdgeSplitEngine::Walk] {
            let (colors, report, _) =
                red::edge_coloring_via_splitting(&g, 8, engine).expect("non-empty");
            t.row(vec![
                n.to_string(),
                d.to_string(),
                format!("{engine:?}"),
                report.levels.to_string(),
                report.base_degree.to_string(),
                report.palette.to_string(),
                fnum(report.ratio),
                checks::is_proper_edge_coloring(&g, &colors).to_string(),
            ]);
        }
    }
    vec![t]
}

/// `runtime` — simulator metrics: measured rounds and messages of the
/// genuinely distributed primitives.
pub fn exp_runtime(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "runtime — LOCAL simulator metrics (measured rounds / messages)",
        &["primitive", "instance", "rounds", "messages", "valid"],
    );
    let sizes: &[usize] = if quick { &[256] } else { &[256, 1024, 4096] };
    for (i, &n) in sizes.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(3100 + i as u64);
        // Linial + KW on a bounded-degree graph
        let g = generators::random_regular(n, 6, &mut rng).expect("feasible");
        let ids: Vec<u64> = (0..n as u64).collect();
        let lin = local_coloring::linial_color(&g, &ids, n as u64);
        t.row(vec![
            "linial O(Δ²)-coloring".into(),
            format!("{n}-node 6-regular"),
            lin.rounds.to_string(),
            lin.messages.to_string(),
            checks::is_proper_coloring(&g, &lin.colors).to_string(),
        ]);
        let kw = local_coloring::kw_reduce(&g, &lin.colors, lin.palette);
        t.row(vec![
            "KW reduction → Δ+1".into(),
            format!("{n}-node 6-regular"),
            kw.rounds.to_string(),
            kw.messages.to_string(),
            checks::is_proper_coloring(&g, &kw.colors).to_string(),
        ]);
        // shattering on a bipartite instance
        let b = generators::random_biregular(n / 2, n, 16, &mut rng).expect("feasible");
        let sh = splitting_core::shatter(&b, 5);
        t.row(vec![
            "shattering".into(),
            format!("{}×{} d16", n / 2, n),
            sh.rounds.to_string(),
            sh.messages.to_string(),
            "n/a".into(),
        ]);
    }

    // the message-passing conditional-expectation fixer, cross-validated
    let mut t2 = Table::new(
        "runtime — distributed conditional-expectation fixer vs central compilation",
        &[
            "|U|×|V|",
            "palette classes",
            "rounds (= 2·C)",
            "identical to central",
        ],
    );
    let mut rng = StdRng::seed_from_u64(3200);
    let b = generators::random_left_regular(60, 120, 16, &mut rng).expect("feasible");
    let (sched, _) = local_coloring::greedy_right_square(&b);
    let palette = sched.iter().copied().max().map_or(1, |c| c + 1);
    let central = derand::phased_fix(
        &b,
        derand::ColoringEstimator::monochromatic(&b),
        &sched,
        palette,
    );
    let distributed = derand::distributed_phased_fix(
        &b,
        derand::ColoringEstimator::monochromatic(&b),
        &sched,
        palette,
    );
    t2.row(vec![
        "60×120 d16".into(),
        palette.to_string(),
        distributed.rounds.to_string(),
        (central.colors == distributed.colors).to_string(),
    ]);
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_split_quick_proper() {
        let tables = exp_edge_split(true);
        assert!(!tables[0].render().contains("| false"));
    }

    #[test]
    fn runtime_quick_valid() {
        let tables = exp_runtime(true);
        assert!(!tables[0].render().contains("| false"));
        assert!(tables[1].render().contains("true"));
    }
}
