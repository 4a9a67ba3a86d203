//! Pessimistic estimators in product form.
//!
//! All derandomizations in the paper ([GHK16]-style, used by Lemma 2.1,
//! Lemma 3.1, Theorems 3.2/3.3 and Section 4) share one shape: variables
//! (right-side nodes) pick colors uniformly from a palette of size `C`, and
//! each constraint `u` fails with small probability. The failure estimators
//! used here all decompose as
//!
//! ```text
//! φ_u = factor^{m_u} · Σ_x base_u · step^{F_{u,x}}
//! ```
//!
//! where `m_u` counts `u`'s unfixed neighbors and `F_{u,x}` its fixed
//! neighbors of color `x`. Crucially, the uniform average over the next
//! fixed color satisfies `(1/C)·Σ_x φ'_u(x) = φ_u` exactly (because
//! `(C − 1 + step)/C = factor`), so greedily picking the minimizing color
//! never increases `Φ = Σ_u φ_u` — the method of conditional expectations.
//! At a full assignment every violated constraint contributes at least 1 to
//! `Φ`, so `Φ_initial < 1` certifies success.
//!
//! Instantiations:
//!
//! * [`ColoringEstimator::monochromatic`] — weak splitting (Lemma 2.1):
//!   `C = 2`, `φ_u` = number of colors absent from `u`'s neighborhood,
//!   damped by `2^{-m}`;
//! * [`ColoringEstimator::missing_color`] — C-weak multicolor splitting
//!   (Theorem 3.2): expected number of missing colors;
//! * [`ColoringEstimator::overload`] — (C, λ)-multicolor splitting and
//!   uniform splitting (Theorem 3.3, Section 4): per-color Chernoff/MGF
//!   upper-tail bound `e^{t(F − cap − 1)}·E[e^{t·future}]`.
//!
//! # Incremental engine
//!
//! [`FixerState`] is the hot path of every deterministic pipeline, so it is
//! organized around flat, cache-friendly state: the per-constraint ×
//! per-color fixed counts live in one flat `|U| × C` array, the variable →
//! constraint incidence is a flat [`splitgraph::csr::Csr`] built once at
//! construction, and all `factor^k` / `step^k` powers are precomputed into
//! tables (entry `k` is exactly `x.powi(k)`, so lookups are bit-identical
//! to the naive evaluation they replace). The total `Φ` is additionally
//! maintained incrementally under [`FixerState::commit`] — only the
//! touched constraint's `φ_u` is re-evaluated — with a periodic
//! full-recompute guard against floating-point drift (see
//! [`FixerState::tracked_total`]).
//!
//! # Seeded halo state
//!
//! [`FixerState::seeded`] builds the same engine over a *halo* of an
//! instance whose other variables already hold colors: only the halo's
//! constraints get state, each seeded from its fixed neighbors' colors,
//! and only the unfixed ("dirty") variables get incidence rows. A bit set
//! over the variables marks the dirty ones, and each halo constraint is
//! seeded in one pass over its row: under `step == 0` (weak and C-weak
//! splitting) by counting its clean neighbors per color, otherwise by
//! replaying their commits in order. Its cost is `O(Σ_{u ∈ halo} deg u)`
//! plus the `|V|`-bit set — the repair step of churn updates, where a few
//! edited variables are re-fixed against an otherwise certified coloring
//! (SLOCAL(2): a choice reads only its constraints and their fixed
//! neighbors).

use splitgraph::csr::Csr;
use splitgraph::{BipartiteGraph, MultiColor};

/// A product-form pessimistic estimator over a bipartite instance.
#[derive(Debug, Clone)]
pub struct ColoringEstimator {
    palette: u32,
    factor: f64,
    step: f64,
    base_zero: Vec<f64>,
    /// Constraints explicitly marked by [`ColoringEstimator::exempt`].
    /// Tracked as flags rather than by testing `base_zero == 0`: an
    /// extreme MGF parameter can *underflow* `base_zero` to `0.0` without
    /// any exemption, and those constraints must keep flowing through the
    /// full evaluation (where a saturated `step^F = ∞` turns their terms
    /// into `NaN`, exactly as the naive evaluation always behaved) instead
    /// of being skipped.
    exempt: Vec<bool>,
}

impl ColoringEstimator {
    /// Estimator for weak splitting: fails when a constraint sees only one
    /// color (Definition 1.1). `Φ_initial = Σ_u 2·2^{-deg(u)} < 1` whenever
    /// `deg(u) ≥ 2·log n` — exactly the Lemma 2.1 regime.
    pub fn monochromatic(b: &BipartiteGraph) -> Self {
        ColoringEstimator {
            palette: 2,
            factor: 0.5,
            step: 0.0,
            base_zero: vec![1.0; b.left_count()],
            exempt: vec![false; b.left_count()],
        }
    }

    /// Estimator for C-weak multicolor splitting: `φ_u` is the expected
    /// number of palette colors absent from `u`'s neighborhood.
    ///
    /// # Panics
    ///
    /// Panics if `palette < 2`.
    pub fn missing_color(b: &BipartiteGraph, palette: u32) -> Self {
        assert!(palette >= 2, "palette must have at least two colors");
        ColoringEstimator {
            palette,
            factor: 1.0 - 1.0 / palette as f64,
            step: 0.0,
            base_zero: vec![1.0; b.left_count()],
            exempt: vec![false; b.left_count()],
        }
    }

    /// Estimator for per-color overload: constraint `u` fails if any color
    /// occurs more than `caps[u]` times among its neighbors. `t > 0` is the
    /// MGF parameter (see [`chernoff_t`] for the standard choice).
    ///
    /// # Panics
    ///
    /// Panics if `palette < 2`, `t ≤ 0`, or `caps.len() != b.left_count()`.
    pub fn overload(b: &BipartiteGraph, palette: u32, caps: &[usize], t: f64) -> Self {
        assert!(palette >= 2, "palette must have at least two colors");
        assert!(t > 0.0, "MGF parameter must be positive");
        assert_eq!(caps.len(), b.left_count(), "cap vector length mismatch");
        let et = t.exp();
        ColoringEstimator {
            palette,
            factor: 1.0 + (et - 1.0) / palette as f64,
            step: et,
            base_zero: caps
                .iter()
                .map(|&cap| (-t * (cap as f64 + 1.0)).exp())
                .collect(),
            exempt: vec![false; b.left_count()],
        }
    }

    /// Exempts constraint `u`: its `φ_u` becomes identically 0, so it never
    /// influences greedy choices (used for constraints that cannot be
    /// violated, e.g. uniform-splitting nodes below the degree floor whose
    /// cap equals their degree). [`FixerState`] skips exempt constraints
    /// entirely in its hot path.
    pub fn exempt(&mut self, u: usize) {
        self.base_zero[u] = 0.0;
        self.exempt[u] = true;
    }

    /// Whether constraint `u` was explicitly exempted (contributes
    /// identically 0).
    pub fn is_exempt(&self, u: usize) -> bool {
        self.exempt[u]
    }

    /// The estimator over the constraints `keep` only: constraint `i` of
    /// the result is constraint `keep[i]` of `self`.
    fn restricted(&self, keep: &[usize]) -> Self {
        ColoringEstimator {
            palette: self.palette,
            factor: self.factor,
            step: self.step,
            base_zero: keep.iter().map(|&u| self.base_zero[u]).collect(),
            exempt: keep.iter().map(|&u| self.exempt[u]).collect(),
        }
    }

    /// Palette size `C`.
    pub fn palette(&self) -> u32 {
        self.palette
    }

    /// The per-unfixed-variable damping factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The per-fixed-occurrence multiplicative step.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// `base_u · step^F` — the contribution of one color with `F` fixed
    /// occurrences at constraint `u`.
    pub fn base(&self, u: usize, fixed: u32) -> f64 {
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

    /// `φ_u` from the per-color fixed counts and the unfixed count.
    pub fn phi(&self, u: usize, fixed_counts: &[u32], unfixed: usize) -> f64 {
        debug_assert_eq!(fixed_counts.len(), self.palette as usize);
        let s: f64 = fixed_counts.iter().map(|&f| self.base(u, f)).sum();
        self.factor.powi(unfixed as i32) * s
    }
}

/// The standard Chernoff MGF parameter `t = ln(cap·C/d)` for bounding
/// `Pr[Bin(d, 1/C) > cap]`, clamped to be positive.
pub fn chernoff_t(cap: f64, palette: u32, degree: f64) -> f64 {
    ((cap * palette as f64 / degree.max(1.0)).ln()).max(0.05)
}

/// Recompute the tracked `Φ` from scratch after this many commits — the
/// guard bounding incremental floating-point drift. Commits total `m`
/// (one per edge), so the guard adds `O(m/interval · |U|)` work; with the
/// interval tied to `|U|` the whole-run overhead stays `O(m)`.
const REBASE_MIN_INTERVAL: usize = 64;

/// Incremental fixer state over a bipartite instance (or, built by
/// [`FixerState::seeded`], over a halo of one).
///
/// Per-constraint fixed counts (flat `|U| × C`), unfixed counts, running
/// base sums and `φ_u` values, backed by a flat CSR copy of the variable →
/// constraint incidence and precomputed `factor^k` / `step^k` power tables,
/// supporting O(1) re-evaluation of `φ_u` per candidate color with no
/// `powi`/`powf` in the inner loop. All arithmetic matches the naive
/// term-by-term evaluation bit for bit (power-table entries are built with
/// the same `powi` calls the naive path would make, and summation order is
/// preserved).
#[derive(Debug, Clone)]
pub struct FixerState {
    est: ColoringEstimator,
    /// Flat incidence: row `v` lists `v`'s constraints, ascending.
    var_rows: Csr,
    /// `F_{u,x}` — fixed neighbors of `u` with color `x`, at `u·C + x`.
    counts: Vec<u32>,
    /// `m_u` — unfixed neighbors of `u`.
    unfixed: Vec<u32>,
    /// `S_u = Σ_x base(u, F_{u,x})`.
    sums: Vec<f64>,
    /// `factor^k` for `k ≤ Δ + 1` (entry `k` is exactly `factor.powi(k)`).
    factor_pow: Vec<f64>,
    /// `step^k` for `k ≤ Δ + 1`; empty when `step == 0`.
    step_pow: Vec<f64>,
    /// Incrementally maintained `Φ` (see [`FixerState::tracked_total`]).
    tracked: f64,
    /// Commits since the last full recompute of `tracked`.
    commits_since_rebase: usize,
    /// Drift-guard interval (`max(REBASE_MIN_INTERVAL, |U|)`).
    rebase_interval: usize,
    /// Per-color score scratch for [`FixerState::best_color`].
    scores: Vec<f64>,
}

impl FixerState {
    /// Initializes the state for an instance where every variable is
    /// unfixed.
    pub fn new(b: &BipartiteGraph, est: ColoringEstimator) -> Self {
        // `right_neighbors(v)` is already row `v`, ascending
        let mut offsets = Vec::with_capacity(b.right_count() + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(b.edge_count());
        for v in 0..b.right_count() {
            targets.extend_from_slice(b.right_neighbors(v));
            offsets.push(targets.len());
        }
        let var_rows = Csr::from_parts(offsets, targets);
        let degrees: Vec<u32> = (0..b.left_count())
            .map(|u| b.left_degree(u) as u32)
            .collect();
        let mut st = FixerState::all_unfixed(est, var_rows, degrees);
        st.tracked = st.total();
        st
    }

    /// Initializes the state over the constraints `halo` of `b` after every
    /// variable outside `dirty` has been fixed to `fixed(v)`, exactly as
    /// [`FixerState::new`] followed by [`FixerState::fix`] of each such
    /// variable in ascending order would leave those constraints — bit for
    /// bit — without touching anything outside the halo.
    ///
    /// The state is indexed locally: constraint `i` is `halo[i]` and
    /// variable `j` is `dirty[j]` (so [`FixerState::best_color`],
    /// [`FixerState::fix`] and [`FixerState::phi`] take local indices, and
    /// [`FixerState::total`] sums the halo in ascending global order).
    /// `est` is over all of `b`; [`FixerState::estimator`] returns its
    /// restriction to the halo.
    ///
    /// When `step == 0` (weak and C-weak splitting) each halo row is
    /// counted in one pass: a commit changes `S_u` only when its color is
    /// new to `u` (by `0 − base_zero`; every later commit of that color
    /// adds `+0.0`, which leaves the never-negative-zero `S_u` as it is),
    /// so the pass adds those steps in the order the replay would.
    /// Otherwise the MGF steps of different colors interleave in float
    /// arithmetic, and each clean neighbor's commit is replayed in order.
    ///
    /// # Cost
    ///
    /// `O(Σ_{u ∈ halo} deg u)` plus one bit set of `|V|` bits marking the
    /// dirty variables (and a binary search into `halo` per edge of a
    /// dirty variable, to index its incidence row locally).
    ///
    /// # Panics
    ///
    /// Panics if `halo` or `dirty` is not strictly ascending, or if a
    /// constraint of a dirty variable is missing from `halo`.
    pub fn seeded(
        b: &BipartiteGraph,
        est: &ColoringEstimator,
        halo: &[usize],
        dirty: &[usize],
        fixed: impl Fn(usize) -> MultiColor,
    ) -> Self {
        assert!(
            halo.windows(2).all(|w| w[0] < w[1]),
            "halo must be strictly ascending"
        );
        assert!(
            dirty.windows(2).all(|w| w[0] < w[1]),
            "dirty variables must be strictly ascending"
        );
        let mut is_dirty = vec![0u64; b.right_count().div_ceil(64)];
        let mut offsets = Vec::with_capacity(dirty.len() + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        for &v in dirty {
            is_dirty[v / 64] |= 1 << (v % 64);
            for u in b.right_neighbors(v) {
                let i = halo.binary_search(u).unwrap_or_else(|_| {
                    panic!("constraint {u} of dirty variable {v} is outside the halo")
                });
                targets.push(i);
            }
            offsets.push(targets.len());
        }
        let clean = |v: usize| is_dirty[v / 64] & (1 << (v % 64)) == 0;
        let degrees: Vec<u32> = halo.iter().map(|&u| b.left_degree(u) as u32).collect();
        let mut st = FixerState::all_unfixed(
            est.restricted(halo),
            Csr::from_parts(offsets, targets),
            degrees,
        );
        let c = st.est.palette as usize;
        for (i, &u) in halo.iter().enumerate() {
            if st.est.step == 0.0 {
                let b0 = st.est.base_zero[i];
                let crow = &mut st.counts[i * c..(i + 1) * c];
                let mut fixed_here = 0u32;
                for &v in b.left_neighbors(u) {
                    if clean(v) {
                        let cnt = &mut crow[fixed(v) as usize];
                        if *cnt == 0 {
                            st.sums[i] += 0.0 - b0;
                        }
                        *cnt += 1;
                        fixed_here += 1;
                    }
                }
                st.unfixed[i] -= fixed_here;
            } else {
                for &v in b.left_neighbors(u) {
                    if clean(v) {
                        st.apply_commit(i, fixed(v));
                    }
                }
            }
        }
        st.tracked = st.total();
        st
    }

    /// The all-unfixed state over `var_rows` (variable → constraint
    /// incidence) and the given constraint degrees. `tracked` is left at
    /// 0 for the caller to set once the state is final.
    fn all_unfixed(est: ColoringEstimator, var_rows: Csr, degrees: Vec<u32>) -> Self {
        let nu = degrees.len();
        let c = est.palette as usize;
        let max_deg = degrees.iter().copied().max().unwrap_or(0);
        // entry k is exactly x.powi(k): table lookups reproduce the naive
        // per-term powi evaluation bit for bit
        let factor_pow: Vec<f64> = (0..=max_deg as i32 + 1)
            .map(|k| est.factor.powi(k))
            .collect();
        let step_pow: Vec<f64> = if est.step == 0.0 {
            Vec::new()
        } else {
            (0..=max_deg as i32 + 1).map(|k| est.step.powi(k)).collect()
        };
        let sums: Vec<f64> = (0..nu).map(|u| c as f64 * est.base(u, 0)).collect();
        FixerState {
            est,
            var_rows,
            counts: vec![0u32; nu * c],
            unfixed: degrees,
            sums,
            factor_pow,
            step_pow,
            tracked: 0.0,
            commits_since_rebase: 0,
            rebase_interval: nu.max(REBASE_MIN_INTERVAL),
            scores: vec![0.0; c],
        }
    }

    /// The estimator.
    pub fn estimator(&self) -> &ColoringEstimator {
        &self.est
    }

    /// `base_u · step^F` via the power tables (bit-identical to
    /// [`ColoringEstimator::base`]).
    #[inline]
    fn base_fast(&self, u: usize, fixed: u32) -> f64 {
        if self.est.step == 0.0 {
            if fixed == 0 {
                self.est.base_zero[u]
            } else {
                0.0
            }
        } else {
            self.est.base_zero[u] * self.step_pow[fixed as usize]
        }
    }

    /// Current `φ_u`.
    pub fn phi(&self, u: usize) -> f64 {
        self.factor_pow[self.unfixed[u] as usize] * self.sums[u]
    }

    /// Current total `Φ = Σ_u φ_u`, recomputed exactly from the
    /// per-constraint state.
    pub fn total(&self) -> f64 {
        (0..self.sums.len()).map(|u| self.phi(u)).sum()
    }

    /// The incrementally maintained `Φ`: updated in O(deg(v)) per
    /// [`FixerState::fix`] (only the affected constraints contribute
    /// deltas) instead of the O(|U|) full scan of [`FixerState::total`].
    /// A drift guard rebases it onto a full recompute every
    /// `max(64, |U|)` commits, keeping the accumulated floating-point
    /// error negligible (the parity suite checks agreement within 1e-9
    /// against a from-scratch reference at every step).
    ///
    /// This is the O(1) way to monitor the `Φ` trajectory mid-run (per
    /// step, where calling [`FixerState::total`] each time would cost
    /// O(|U|·nv) over a pass). The two certificate values in
    /// [`crate::FixOutcome`] intentionally do *not* use it: `initial_phi`
    /// and `final_phi` stay exact endpoint recomputes so they remain
    /// bit-compatible with the pre-incremental engine.
    pub fn tracked_total(&self) -> f64 {
        self.tracked
    }

    /// `φ_u` if one more neighbor were fixed to color `x`.
    pub fn phi_after(&self, u: usize, x: u32) -> f64 {
        let c = self.est.palette as usize;
        let f = self.counts[u * c + x as usize];
        let old = self.base_fast(u, f);
        let new = self.base_fast(u, f + 1);
        let factor = if self.unfixed[u] == 0 {
            // fully fixed constraint: keep the naive factor^{-1} semantics
            self.est.factor.powi(-1)
        } else {
            self.factor_pow[self.unfixed[u] as usize - 1]
        };
        factor * (self.sums[u] - old + new)
    }

    /// Commits color `x` for one neighbor of constraint `u`, updating the
    /// tracked `Φ` incrementally.
    ///
    /// # Panics
    ///
    /// Panics if `u` has no unfixed neighbors left.
    pub fn commit(&mut self, u: usize, x: u32) {
        let phi_old = self.phi(u);
        self.apply_commit(u, x);
        self.tracked += self.phi(u) - phi_old;
        self.commits_since_rebase += 1;
        if self.commits_since_rebase >= self.rebase_interval {
            // drift guard: rebase the incremental Φ onto an exact recompute
            self.tracked = self.total();
            self.commits_since_rebase = 0;
        }
    }

    /// The per-constraint half of [`FixerState::commit`]: counts, base sum
    /// and unfixed count, without the tracked-`Φ` bookkeeping.
    #[inline]
    fn apply_commit(&mut self, u: usize, x: u32) {
        assert!(
            self.unfixed[u] > 0,
            "constraint {u} has no unfixed neighbors"
        );
        let c = self.est.palette as usize;
        let idx = u * c + x as usize;
        let old = self.base_fast(u, self.counts[idx]);
        self.counts[idx] += 1;
        let new = self.base_fast(u, self.counts[idx]);
        self.sums[u] += new - old;
        self.unfixed[u] -= 1;
    }

    /// For variable `v`, the color minimizing the summed `φ'` over `v`'s
    /// constraints (ties break toward the smaller color).
    ///
    /// Iterates constraints in the outer loop so each constraint's flat
    /// count row is read once, contiguously; exempt constraints are skipped
    /// entirely (they contribute exactly 0 to every candidate).
    pub fn best_color(&mut self, v: usize) -> u32 {
        let FixerState {
            est,
            var_rows,
            counts,
            unfixed,
            sums,
            factor_pow,
            step_pow,
            scores,
            ..
        } = self;
        let c = est.palette as usize;
        scores.iter_mut().for_each(|s| *s = 0.0);
        for &u in var_rows.row(v) {
            if est.exempt[u] {
                continue; // exempt: adds exactly 0.0 to every candidate
            }
            let b0 = est.base_zero[u];
            let m = unfixed[u] as usize;
            let f = if m == 0 {
                est.factor.powi(-1)
            } else {
                factor_pow[m - 1]
            };
            let s = sums[u];
            let crow = &counts[u * c..(u + 1) * c];
            if est.step == 0.0 {
                // base(u, F) is b0 at F = 0 and 0 beyond, so the candidate
                // term is f·(S − [F = 0]·b0 + 0)
                for (score, &cnt) in scores.iter_mut().zip(crow) {
                    let old = if cnt == 0 { b0 } else { 0.0 };
                    *score += f * (s - old + 0.0);
                }
            } else {
                for (score, &cnt) in scores.iter_mut().zip(crow) {
                    let old = b0 * step_pow[cnt as usize];
                    let new = b0 * step_pow[cnt as usize + 1];
                    *score += f * (s - old + new);
                }
            }
        }
        let mut best = 0u32;
        let mut best_score = f64::INFINITY;
        for (x, &score) in scores.iter().enumerate() {
            if score < best_score {
                best_score = score;
                best = x as u32;
            }
        }
        best
    }

    /// Fixes variable `v` to color `x`, updating all its constraints.
    pub fn fix(&mut self, v: usize, x: u32) {
        let row_len = self.var_rows.row_len(v);
        for i in 0..row_len {
            let u = self.var_rows.row(v)[i];
            self.commit(u, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitgraph::BipartiteGraph;

    fn one_constraint(degree: usize) -> BipartiteGraph {
        let edges: Vec<(usize, usize)> = (0..degree).map(|v| (0, v)).collect();
        BipartiteGraph::from_edges(1, degree, &edges).unwrap()
    }

    #[test]
    fn monochromatic_initial_value() {
        let b = one_constraint(4);
        let est = ColoringEstimator::monochromatic(&b);
        let st = FixerState::new(&b, est);
        // Φ = 2 · 2^{-4} = 0.125
        assert!((st.total() - 0.125).abs() < 1e-12);
        assert!((st.tracked_total() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn monochromatic_phi_reaches_one_on_failure() {
        let b = one_constraint(3);
        let mut st = FixerState::new(&b, ColoringEstimator::monochromatic(&b));
        for v in 0..3 {
            st.fix(v, 0); // all red
        }
        assert!(
            (st.phi(0) - 1.0).abs() < 1e-12,
            "violated constraint must contribute 1"
        );
    }

    #[test]
    fn monochromatic_phi_vanishes_on_success() {
        let b = one_constraint(3);
        let mut st = FixerState::new(&b, ColoringEstimator::monochromatic(&b));
        st.fix(0, 0);
        st.fix(1, 1);
        st.fix(2, 0);
        assert_eq!(st.phi(0), 0.0);
    }

    #[test]
    fn greedy_average_equals_phi() {
        // the conditional-expectation identity: mean over colors of φ' = φ
        let b = one_constraint(5);
        for est in [
            ColoringEstimator::monochromatic(&b),
            ColoringEstimator::missing_color(&b, 7),
            ColoringEstimator::overload(&b, 3, &[2], 0.9),
        ] {
            let c = est.palette();
            let mut st = FixerState::new(&b, est);
            st.fix(0, 0); // make the state non-trivial
            let phi = st.phi(0);
            let mean: f64 = (0..c).map(|x| st.phi_after(0, x)).sum::<f64>() / c as f64;
            assert!(
                (mean - phi).abs() < 1e-9 * phi.max(1.0),
                "mean {mean} vs φ {phi}"
            );
        }
    }

    #[test]
    fn greedy_choice_never_increases_phi() {
        let b = one_constraint(6);
        let mut st = FixerState::new(&b, ColoringEstimator::missing_color(&b, 3));
        let mut last = st.total();
        for v in 0..6 {
            let x = st.best_color(v);
            st.fix(v, x);
            let now = st.total();
            assert!(now <= last + 1e-12, "Φ increased: {last} → {now}");
            last = now;
        }
    }

    #[test]
    fn tracked_total_follows_exact_total() {
        let b = one_constraint(8);
        let mut st = FixerState::new(&b, ColoringEstimator::overload(&b, 3, &[4], 0.7));
        for v in 0..8 {
            let x = st.best_color(v);
            st.fix(v, x);
            assert!(
                (st.tracked_total() - st.total()).abs() <= 1e-9 * st.total().max(1.0),
                "tracked {} vs exact {}",
                st.tracked_total(),
                st.total()
            );
        }
    }

    #[test]
    fn overload_counts_violations_at_completion() {
        let b = one_constraint(4);
        // cap 2, so three of one color violate
        let est = ColoringEstimator::overload(&b, 2, &[2], 1.0);
        let mut st = FixerState::new(&b, est);
        for v in 0..3 {
            st.fix(v, 0);
        }
        st.fix(3, 1);
        assert!(
            st.phi(0) >= 1.0,
            "violation must contribute at least 1, got {}",
            st.phi(0)
        );
    }

    #[test]
    fn overload_small_when_satisfied() {
        let b = one_constraint(4);
        let est = ColoringEstimator::overload(&b, 2, &[3], 1.0);
        let mut st = FixerState::new(&b, est);
        st.fix(0, 0);
        st.fix(1, 0);
        st.fix(2, 1);
        st.fix(3, 1);
        assert!(st.phi(0) < 1.0);
    }

    #[test]
    fn exempt_constraints_contribute_zero() {
        let b = one_constraint(3);
        let mut est = ColoringEstimator::overload(&b, 2, &[0], 1.0);
        est.exempt(0);
        assert!(est.is_exempt(0));
        let mut st = FixerState::new(&b, est);
        assert_eq!(st.total(), 0.0);
        st.fix(0, 0);
        st.fix(1, 0);
        assert_eq!(st.phi(0), 0.0, "exempt constraint stays at zero");
        assert_eq!(st.tracked_total(), 0.0);
    }

    #[test]
    fn seeded_matches_new_then_ordered_fixes() {
        // constraints: 0 sees {0,1,2,3}, 1 sees {2,3,4}, 2 sees {4,5},
        // 3 sees {0,5}; variables 2 and 5 are dirty, so the halo is
        // {0,1,2,3} and constraint 0 keeps two clean colors
        let edges = [
            (0, 0),
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 4),
            (2, 5),
            (3, 0),
            (3, 5),
        ];
        let b = BipartiteGraph::from_edges(4, 6, &edges).unwrap();
        let prev = [1u32, 0, 2, 1, 1, 0];
        let dirty = [2usize, 5];
        let halo = [0usize, 1, 2, 3];
        let mut exempting = ColoringEstimator::missing_color(&b, 3);
        exempting.exempt(1);
        for est in [
            ColoringEstimator::monochromatic(&b),
            ColoringEstimator::missing_color(&b, 3),
            exempting,
            ColoringEstimator::overload(&b, 3, &[2, 1, 1, 1], 0.8),
        ] {
            let prev: Vec<u32> = prev.iter().map(|&x| x % est.palette()).collect();
            let mut whole = FixerState::new(&b, est.clone());
            for v in (0..6).filter(|v| !dirty.contains(v)) {
                whole.fix(v, prev[v]);
            }
            let seeded = FixerState::seeded(&b, &est, &halo, &dirty, |v| prev[v]);
            for (i, &u) in halo.iter().enumerate() {
                assert_eq!(seeded.phi(i).to_bits(), whole.phi(u).to_bits());
            }
            assert_eq!(seeded.total().to_bits(), whole.total().to_bits());
        }
    }

    #[test]
    fn chernoff_t_positive() {
        assert!(chernoff_t(10.0, 4, 100.0) > 0.0);
        assert!(chernoff_t(1.0, 2, 1000.0) >= 0.05);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn missing_color_rejects_tiny_palette() {
        let b = one_constraint(2);
        let _ = ColoringEstimator::missing_color(&b, 1);
    }
}
