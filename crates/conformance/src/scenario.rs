//! The scenario registry: a uniform descriptor over every instance family
//! the conformance harness drives, tagged with the theorem regimes each one
//! exercises.
//!
//! Every scenario is rebuilt deterministically from `(family, seed, tier)`,
//! which is what makes the replay ledger work: a failing cell names its
//! scenario and the replay test reconstructs the identical instance.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use splitgraph::generators;
use splitgraph::math::{weak_multicolor_degree_threshold, weak_splitting_degree_threshold};
use splitgraph::{BipartiteGraph, Graph, MultiGraph};

/// Corpus size tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Small instances, one seed per family — CI-on-every-PR budget.
    Quick,
    /// Larger instances and extra seeds per family.
    Full,
}

/// The theorem regimes of the paper a scenario exercises. Tags are
/// *computed from the instance parameters* (not hand-asserted), so they are
/// always consistent with what the regime dispatch would do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Regime {
    /// `δ ≥ 2·log n`: the zero-round randomized algorithm applies.
    ZeroRound,
    /// `δ ≥ 2·log n`: deterministic Theorem 2.5 applies.
    Thm25,
    /// `δ ≥ 6r`: Theorem 2.7 applies.
    Thm27,
    /// Randomized shattering window `δ ≥ c·log(r·log n)` of Theorem 1.2.
    Thm12,
    /// A Degree–Rank Reduction route runs (Thm 2.5's DRR-I branch or
    /// Thm 2.7's DRR-II route).
    Drr,
    /// Definition 1.3 degree regime: the multicolor membership algorithms
    /// are guaranteed to succeed.
    Multicolor,
    /// The host graph is dense enough for certified uniform splitting.
    Uniform,
    /// The derived multigraph is non-trivial for directed degree splitting.
    DegreeSplit,
}

impl Regime {
    /// All regimes, in display order.
    pub const ALL: [Regime; 8] = [
        Regime::ZeroRound,
        Regime::Thm25,
        Regime::Thm27,
        Regime::Thm12,
        Regime::Drr,
        Regime::Multicolor,
        Regime::Uniform,
        Regime::DegreeSplit,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Regime::ZeroRound => "zero-round",
            Regime::Thm25 => "thm2.5",
            Regime::Thm27 => "thm2.7",
            Regime::Thm12 => "thm1.2",
            Regime::Drr => "drr",
            Regime::Multicolor => "multicolor",
            Regime::Uniform => "uniform",
            Regime::DegreeSplit => "degree-split",
        }
    }
}

/// One conformance scenario: a named, seeded instance plus the regime tags
/// the harness uses to decide which guarantees are *expected* (vs. merely
/// attempted) on it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Instance family identifier (stable across tiers).
    pub family: &'static str,
    /// Unique scenario name: `family/<params>#<seed>`.
    pub name: String,
    /// Seed every randomized entrypoint is keyed from.
    pub seed: u64,
    /// Regimes this instance provably lies in.
    pub regimes: Vec<Regime>,
    /// The bipartite constraint/variable instance.
    pub bipartite: BipartiteGraph,
    /// Theorem 1.2 constant `c` to use for this scenario.
    pub thm12_constant: f64,
    /// Optional host graph override (defaults to the flattened bipartite
    /// graph); used when the scenario was derived *from* a graph, so the
    /// graph-level entrypoints run on the natural host.
    host: Option<Graph>,
    /// Optional multigraph override (defaults to the host graph's edges);
    /// used by the Eulerian stress family.
    multigraph: Option<MultiGraph>,
}

impl Scenario {
    /// Builds a scenario and computes its regime tags from the instance.
    fn new(
        family: &'static str,
        params: &str,
        seed: u64,
        bipartite: BipartiteGraph,
        thm12_constant: f64,
        host: Option<Graph>,
        multigraph: Option<MultiGraph>,
    ) -> Self {
        let mut s = Scenario {
            family,
            name: format!("{family}/{params}#{seed}"),
            seed,
            regimes: Vec::new(),
            bipartite,
            thm12_constant,
            host,
            multigraph,
        };
        s.regimes = s.compute_regimes();
        s
    }

    /// The host graph the graph-level entrypoints (uniform splitting,
    /// reductions) run on.
    pub fn host_graph(&self) -> Graph {
        match &self.host {
            Some(g) => g.clone(),
            None => self.bipartite.to_graph(),
        }
    }

    /// The multigraph the degree-splitting entrypoints run on.
    pub fn multigraph(&self) -> MultiGraph {
        match &self.multigraph {
            Some(g) => g.clone(),
            None => {
                let host = self.host_graph();
                MultiGraph::from_endpoints(host.node_count(), host.edges().collect())
            }
        }
    }

    /// Whether the scenario carries a regime tag.
    pub fn has(&self, r: Regime) -> bool {
        self.regimes.contains(&r)
    }

    /// Whether any weak-splitting pipeline is expected to solve this
    /// instance (otherwise the session must report `unsupported-regime`).
    pub fn weak_pipeline_expected(&self) -> bool {
        self.has(Regime::ZeroRound)
            || self.has(Regime::Thm25)
            || self.has(Regime::Thm27)
            || self.has(Regime::Thm12)
    }

    /// Derives the regime tags from the instance parameters, mirroring the
    /// theorems' preconditions exactly.
    fn compute_regimes(&self) -> Vec<Regime> {
        let b = &self.bipartite;
        let n = b.node_count();
        let delta = b.min_left_degree();
        let rank = b.rank();
        let threshold = weak_splitting_degree_threshold(n);
        let log_n = splitgraph::math::log2(n.max(2));
        let mut tags = Vec::new();
        if b.left_count() > 0 && delta >= threshold {
            tags.push(Regime::ZeroRound);
            tags.push(Regime::Thm25);
        }
        if b.left_count() > 0 && delta >= 6 * rank && delta >= 2 {
            tags.push(Regime::Thm27);
        }
        let thm12_req = self.thm12_constant
            * splitgraph::math::log2(((rank.max(1) as f64) * log_n).ceil() as usize + 1);
        if b.left_count() > 0 && (delta as f64) >= thm12_req && delta >= 2 {
            tags.push(Regime::Thm12);
        }
        // DRR-I runs inside Thm 2.5 for δ > 48·log n; DRR-II runs inside
        // Thm 2.7 whenever the generic algorithms do not already apply
        let drr1 = tags.contains(&Regime::Thm25) && delta as f64 > 48.0 * log_n;
        let drr2 = tags.contains(&Regime::Thm27) && delta < threshold;
        if drr1 || drr2 {
            tags.push(Regime::Drr);
        }
        if b.left_count() > 0 && delta >= weak_multicolor_degree_threshold(n) {
            tags.push(Regime::Multicolor);
        }
        let host = self.host_graph();
        // certified uniform splitting needs the unclamped feasible_eps
        // √(3·ln(4n)/d) to stay within its (0, 1/2] clamp, i.e.
        // d ≥ 12·ln(4n); below that the Chernoff estimator honestly
        // declines and only the randomized variant applies
        if host.node_count() > 0
            && host.max_degree() as f64 >= 12.0 * ((4 * host.node_count()) as f64).ln()
        {
            tags.push(Regime::Uniform);
        }
        if self.multigraph().edge_count() > 0 {
            tags.push(Regime::DegreeSplit);
        }
        tags
    }
}

/// Number of distinct scenario families [`corpus`] registers.
pub const FAMILY_COUNT: usize = 16;

/// Builds the scenario corpus for a tier. Families are deterministic in
/// `(tier, seed)`; the quick tier is sized for per-PR CI, the full tier
/// adds seeds and larger instances.
pub fn corpus(tier: Tier) -> Vec<Scenario> {
    let mut out = Vec::new();
    let seeds: &[u64] = match tier {
        Tier::Quick => &[1],
        Tier::Full => &[1, 2, 3],
    };
    for &seed in seeds {
        push_family_scenarios(&mut out, tier, seed);
    }
    out
}

fn push_family_scenarios(out: &mut Vec<Scenario>, tier: Tier, seed: u64) {
    let full = tier == Tier::Full;
    let c_default = 3.0;

    // 1. biregular — both sides regular, the workhorse δ ≥ 2·log n family
    {
        let (l, r, d) = if full { (220, 220, 24) } else { (100, 100, 20) };
        let mut rng = StdRng::seed_from_u64(0x1000 + seed);
        let b = generators::random_biregular(l, r, d, &mut rng).expect("feasible biregular");
        out.push(Scenario::new(
            "biregular",
            &format!("{l}x{r}d{d}"),
            seed,
            b,
            c_default,
            None,
            None,
        ));
    }

    // 2. left-regular — concentrated but non-regular right side
    {
        let (l, r, d) = if full { (120, 300, 22) } else { (60, 150, 18) };
        let mut rng = StdRng::seed_from_u64(0x2000 + seed);
        let b = generators::random_left_regular(l, r, d, &mut rng).expect("d ≤ r");
        out.push(Scenario::new(
            "left-regular",
            &format!("{l}x{r}d{d}"),
            seed,
            b,
            c_default,
            None,
            None,
        ));
    }

    // 3. er-bipartite — fully random degrees; regime tags are whatever the
    // sample landed in (often below every threshold: the negative case)
    {
        let (l, r, p) = if full { (60, 120, 0.3) } else { (40, 80, 0.35) };
        let mut rng = StdRng::seed_from_u64(0x3000 + seed);
        let b = generators::erdos_renyi_bipartite(l, r, p, &mut rng);
        out.push(Scenario::new(
            "er-bipartite",
            &format!("{l}x{r}p{p}"),
            seed,
            b,
            c_default,
            None,
            None,
        ));
    }

    // 4. complete — K_{8,64}: δ = 64 ≥ 6r = 48, skewed and dense
    {
        let (l, r) = if full { (12, 96) } else { (8, 64) };
        let b = generators::complete_bipartite(l, r);
        out.push(Scenario::new(
            "complete",
            &format!("K{l},{r}"),
            seed,
            b,
            c_default,
            None,
            None,
        ));
    }

    // 5. drr-dense — K_{64,512}: δ > 48·log n forces the DRR-I branch of
    // Theorem 2.5
    {
        let (l, r) = if full { (80, 640) } else { (64, 512) };
        let b = generators::complete_bipartite(l, r);
        out.push(Scenario::new(
            "drr-dense",
            &format!("K{l},{r}"),
            seed,
            b,
            c_default,
            None,
            None,
        ));
    }

    // 6. power-law — Chung–Lu heavy-tailed constraint degrees
    {
        let (l, r, dmin, dmax) = if full {
            (160, 240, 18, 120)
        } else {
            (80, 120, 18, 60)
        };
        let mut rng = StdRng::seed_from_u64(0x6000 + seed);
        let b = generators::power_law_bipartite(l, r, 2.2, dmin, dmax, &mut rng)
            .expect("feasible power law");
        out.push(Scenario::new(
            "power-law",
            &format!("{l}x{r}d{dmin}-{dmax}"),
            seed,
            b,
            c_default,
            None,
            None,
        ));
    }

    // 7. skewed — two-tier left degrees: Δ/δ spread stresses degree
    // uniformization while staying above the 2·log n threshold
    {
        let (hv, hd, lt, ld, r) = if full {
            (8, 120, 40, 20, 200)
        } else {
            (4, 60, 20, 18, 100)
        };
        let mut rng = StdRng::seed_from_u64(0x7000 + seed);
        let b = generators::skewed_bipartite(hv, hd, lt, ld, r, &mut rng).expect("tiers fit");
        out.push(Scenario::new(
            "skewed",
            &format!("{hv}x{hd}+{lt}x{ld}r{r}"),
            seed,
            b,
            c_default,
            None,
            None,
        ));
    }

    // 8. thm27-window — δ ≥ 6r while δ < 2·log n: exactly the DRR-II route
    {
        let (l, r, d) = if full { (24, 144, 12) } else { (12, 72, 12) };
        let mut rng = StdRng::seed_from_u64(0x8000 + seed);
        let b = generators::random_biregular(l, r, d, &mut rng).expect("rank-2 biregular");
        out.push(Scenario::new(
            "thm27-window",
            &format!("{l}x{r}d{d}"),
            seed,
            b,
            c_default,
            None,
            None,
        ));
    }

    // 9. thm12-window — the shattering window: δ below 2·log n but above
    // c·log(r·log n) for c = 1.5
    {
        let (l, r, d) = if full {
            (512, 1664, 13)
        } else {
            (256, 832, 13)
        };
        let mut rng = StdRng::seed_from_u64(0x9000 + seed);
        let b = generators::random_biregular(l, r, d, &mut rng).expect("feasible window");
        out.push(Scenario::new(
            "thm12-window",
            &format!("{l}x{r}d{d}"),
            seed,
            b,
            1.5,
            None,
            None,
        ));
    }

    // 10. near-threshold — δ exactly at ⌈2·log n⌉, the boundary the union
    // bound is tightest at
    {
        let (l, r) = if full { (100, 300) } else { (50, 150) };
        let d = weak_splitting_degree_threshold(l + r);
        let mut rng = StdRng::seed_from_u64(0xA000 + seed);
        let b = generators::random_left_regular(l, r, d, &mut rng).expect("d ≤ r");
        out.push(Scenario::new(
            "near-threshold",
            &format!("{l}x{r}d{d}"),
            seed,
            b,
            c_default,
            None,
            None,
        ));
    }

    // 11. torus-incidence — grid incidence instance: rank exactly 2,
    // δ = 4 < every weak-splitting threshold (the negative dispatch case),
    // host graph is the 4-regular torus
    {
        let (rows, cols) = if full { (10, 10) } else { (6, 6) };
        let g = generators::torus(rows, cols).expect("torus ≥ 3×3");
        let (b, _) = generators::incidence_instance(&g);
        out.push(Scenario::new(
            "torus-incidence",
            &format!("{rows}x{cols}"),
            seed,
            b,
            c_default,
            Some(g),
            None,
        ));
    }

    // 12. hypercube-doubling — the Section 1.2 doubling instance of the
    // d-dimensional hypercube: δ = d = (log n), just *below* threshold
    {
        let dim = if full { 7 } else { 5 };
        let g = generators::hypercube(dim);
        let b = generators::doubling_instance(&g);
        out.push(Scenario::new(
            "hypercube-doubling",
            &format!("dim{dim}"),
            seed,
            b,
            c_default,
            Some(g),
            None,
        ));
    }

    // 13. girth10 — high-girth incidence instance (Section 5 regime), host
    // is the girth-5 random near-regular graph
    {
        let (n, d) = if full { (96, 6) } else { (48, 4) };
        let mut rng = StdRng::seed_from_u64(0xD000 + seed);
        let (b, edges) = generators::random_girth10_bipartite(n, d, &mut rng).expect("feasible");
        let host = Graph::from_edges_bulk(n, &edges).expect("host edges simple");
        out.push(Scenario::new(
            "girth10",
            &format!("n{n}d{d}"),
            seed,
            b,
            c_default,
            Some(host),
            None,
        ));
    }

    // 14. multicolor-def13 — degrees above the Definition 1.3 threshold so
    // the multicolor membership algorithms are certified
    {
        let (l, r, d) = if full { (24, 768, 384) } else { (18, 512, 256) };
        let mut rng = StdRng::seed_from_u64(0xE000 + seed);
        let b = generators::random_left_regular(l, r, d, &mut rng).expect("d ≤ r");
        out.push(Scenario::new(
            "multicolor-def13",
            &format!("{l}x{r}d{d}"),
            seed,
            b,
            c_default,
            None,
            None,
        ));
    }

    // 15. disjoint-union — composite of two independently solvable parts;
    // the metamorphic composition checks exploit the part structure
    {
        let (l1, l2, d) = if full { (120, 80, 20) } else { (60, 40, 18) };
        let mut rng = StdRng::seed_from_u64(0xF000 + seed);
        let p1 = generators::random_biregular(l1, l1, d, &mut rng).expect("part 1");
        let p2 = generators::random_biregular(l2, l2, d, &mut rng).expect("part 2");
        let b = generators::bipartite_disjoint_union(&[&p1, &p2]);
        out.push(Scenario::new(
            "disjoint-union",
            &format!("{l1}+{l2}d{d}"),
            seed,
            b,
            c_default,
            None,
            None,
        ));
    }

    // 16. multigraph-euler — Eulerian stress multigraph: parallel bundles,
    // odd degrees, a disconnected component, and an isolated node; the
    // bipartite view is its node–edge incidence instance
    {
        let n = if full { 32 } else { 16 };
        let mut rng = StdRng::seed_from_u64(0xB000 + seed);
        let mut endpoints: Vec<(usize, usize)> = Vec::new();
        // a triple parallel bundle and a pendant edge
        endpoints.extend([(0, 1), (0, 1), (0, 1), (1, 2)]);
        // random body over nodes 0..n-4 (node n-1 stays isolated)
        for _ in 0..(3 * n) {
            let a = rng.random_range(0..n - 4);
            let mut c = rng.random_range(0..n - 4);
            while c == a {
                c = rng.random_range(0..n - 4);
            }
            endpoints.push((a, c));
        }
        // a disconnected 3-cycle on the tail nodes
        endpoints.extend([(n - 4, n - 3), (n - 3, n - 2), (n - 2, n - 4)]);
        let mg = MultiGraph::from_endpoints(n, endpoints.clone());
        let incidences: Vec<(usize, usize)> = endpoints
            .iter()
            .enumerate()
            .flat_map(|(i, &(a, c))| [(a, i), (c, i)])
            .collect();
        let b = BipartiteGraph::from_edges_bulk(n, endpoints.len(), &incidences)
            .expect("incidence of a loop-free multigraph is simple");
        out.push(Scenario::new(
            "multigraph-euler",
            &format!("n{n}"),
            seed,
            b,
            c_default,
            None,
            Some(mg),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn quick_corpus_has_all_families_once() {
        let c = corpus(Tier::Quick);
        assert_eq!(c.len(), FAMILY_COUNT);
        let names: BTreeSet<&str> = c.iter().map(|s| s.family).collect();
        assert_eq!(names.len(), FAMILY_COUNT, "families must be distinct");
    }

    #[test]
    fn full_corpus_repeats_families_across_seeds() {
        let c = corpus(Tier::Full);
        assert_eq!(c.len(), 3 * FAMILY_COUNT);
        let names: BTreeSet<&str> = c.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names.len(),
            3 * FAMILY_COUNT,
            "scenario names must be unique"
        );
    }

    #[test]
    fn quick_corpus_covers_every_regime() {
        let c = corpus(Tier::Quick);
        for r in Regime::ALL {
            assert!(
                c.iter().any(|s| s.has(r)),
                "no quick scenario exercises {}",
                r.name()
            );
        }
    }

    #[test]
    fn family_intent_matches_computed_tags() {
        let by_family = |fam: &str| -> Scenario {
            corpus(Tier::Quick)
                .into_iter()
                .find(|s| s.family == fam)
                .expect("family present")
        };
        assert!(by_family("biregular").has(Regime::ZeroRound));
        assert!(by_family("biregular").has(Regime::Thm25));
        assert!(by_family("complete").has(Regime::Thm27));
        assert!(by_family("drr-dense").has(Regime::Drr));
        assert!(by_family("thm27-window").has(Regime::Thm27));
        assert!(by_family("thm27-window").has(Regime::Drr));
        assert!(by_family("thm12-window").has(Regime::Thm12));
        assert!(!by_family("thm12-window").has(Regime::Thm25));
        assert!(by_family("near-threshold").has(Regime::Thm25));
        assert!(by_family("multicolor-def13").has(Regime::Multicolor));
        assert!(by_family("disjoint-union").has(Regime::Thm25));
        // the negative families really are negative
        assert!(!by_family("torus-incidence").weak_pipeline_expected());
        assert!(!by_family("hypercube-doubling").weak_pipeline_expected());
        assert!(by_family("multigraph-euler").has(Regime::DegreeSplit));
    }

    #[test]
    fn scenarios_rebuild_identically_from_seed() {
        let a = corpus(Tier::Quick);
        let b = corpus(Tier::Quick);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.bipartite, y.bipartite);
        }
    }
}
