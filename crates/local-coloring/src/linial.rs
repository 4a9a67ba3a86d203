//! Linial's color reduction: from an ID space of size `m` to `O(Δ²)` colors
//! in `O(log* m)` rounds [Linial '92].
//!
//! One step encodes each color as a polynomial of degree `≤ d` over `GF(q)`
//! with `q > d·Δ` and `q^(d+1) ≥ m`. A node picks a point `(x, f(x))` of its
//! polynomial not hit by any neighbor's polynomial — at most `Δ·d < q` points
//! are hit, so one of the `q` points is free — and adopts `x·q + y` as its
//! new color, shrinking the palette from `m` to `q²`. Iterating reaches the
//! fixed point `q* = nextprime(Δ + 1)`, i.e., a palette of `O(Δ²)` colors,
//! after `O(log* m)` steps.
//!
//! The step is implemented as a genuine LOCAL [`NodeProgram`]: one round per
//! schedule step (broadcast current color, compute the new one).

use crate::gf::{next_prime, PrimeField};
use local_runtime::{run_local, Inbox, NodeContext, NodeProgram, Outbox};
use splitgraph::Graph;

/// One step of the Linial schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinialStep {
    /// Field order (prime, `> degree·Δ`).
    pub q: u64,
    /// Polynomial degree bound.
    pub degree: usize,
    /// Palette size before the step.
    pub colors_in: u64,
    /// Palette size after the step (`q²`).
    pub colors_out: u64,
}

/// The deterministic schedule of Linial steps for reducing a palette of size
/// `id_space` on graphs of maximum degree `max_degree`, iterated until no
/// further progress. Every node can compute this schedule from the global
/// parameters alone, so it costs no communication.
pub fn linial_schedule(id_space: u64, max_degree: usize) -> Vec<LinialStep> {
    let delta = max_degree as u64;
    let mut steps = Vec::new();
    let mut m = id_space.max(2);
    loop {
        // best (d, q): minimize q² subject to q prime, q > d·Δ, q^(d+1) ≥ m
        let mut best: Option<(usize, u64)> = None;
        for d in 1..=64 {
            let root = integer_root_ceil(m, (d + 1) as u32);
            let q = next_prime((d as u64 * delta + 1).max(root).max(2));
            if pow_at_least(q, (d + 1) as u32, m) {
                match best {
                    Some((_, bq)) if bq <= q => {}
                    _ => best = Some((d, q)),
                }
            }
            // once q is forced by d·Δ alone (root no longer binding), larger
            // d only increases q
            if q as u128 >= m as u128 {
                break;
            }
        }
        let (d, q) = best.expect("some degree always satisfies the constraints");
        let out = q * q;
        if out >= m {
            return steps;
        }
        steps.push(LinialStep {
            q,
            degree: d,
            colors_in: m,
            colors_out: out,
        });
        m = out;
    }
}

/// `⌈m^(1/k)⌉` (integer k-th root, rounded up).
fn integer_root_ceil(m: u64, k: u32) -> u64 {
    if m <= 1 {
        return m;
    }
    let mut r = (m as f64).powf(1.0 / k as f64).ceil() as u64;
    // fix float drift in both directions
    while r > 1 && pow_at_least(r - 1, k, m) {
        r -= 1;
    }
    while !pow_at_least(r, k, m) {
        r += 1;
    }
    r
}

/// Whether `base^exp ≥ target`, saturating instead of overflowing.
fn pow_at_least(base: u64, exp: u32, target: u64) -> bool {
    let mut acc: u128 = 1;
    for _ in 0..exp {
        acc = acc.saturating_mul(base as u128);
        if acc >= target as u128 {
            return true;
        }
    }
    acc >= target as u128
}

/// Per-node program executing a precomputed Linial schedule.
struct LinialProgram {
    schedule: std::rc::Rc<[LinialStep]>,
    color: u64,
    step: usize,
}

impl NodeProgram for LinialProgram {
    type Msg = u64;
    type Output = u64;

    fn init(&mut self, ctx: &NodeContext, out: &mut Outbox<u64>) {
        self.color = ctx.id;
        if !self.schedule.is_empty() {
            out.broadcast(self.color);
        }
    }

    fn round(&mut self, _ctx: &NodeContext, inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) {
        let st = self.schedule[self.step];
        let field = PrimeField::new(st.q);
        let digits = st.degree + 1;
        debug_assert!(self.color < st.colors_in, "color exceeds declared palette");
        let own = field.digits(self.color, digits);
        let neighbors: Vec<Vec<u64>> = inbox
            .iter()
            .map(|(_, &c)| {
                assert_ne!(c, self.color, "input coloring is not proper");
                field.digits(c, digits)
            })
            .collect();
        let x = (0..st.q)
            .find(|&x| {
                let y = field.eval_poly(&own, x);
                neighbors.iter().all(|nb| field.eval_poly(nb, x) != y)
            })
            .expect("q > d*Δ guarantees an uncovered point");
        self.color = x * st.q + field.eval_poly(&own, x);
        self.step += 1;
        if self.step < self.schedule.len() {
            out.broadcast(self.color);
        }
    }

    fn is_done(&self) -> bool {
        self.step >= self.schedule.len()
    }

    fn output(&self) -> u64 {
        self.color
    }
}

/// Result of a distributed coloring computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoringOutcome {
    /// Proper coloring, indexed by node.
    pub colors: Vec<u32>,
    /// Size of the palette the colors are guaranteed to come from.
    pub palette: u32,
    /// Measured LOCAL rounds.
    pub rounds: usize,
    /// Messages delivered by the simulator.
    pub messages: usize,
}

/// Runs Linial's algorithm on `g` with unique `ids` drawn from
/// `0..id_space`, producing an `O(Δ²)`-coloring in `O(log* id_space)`
/// measured rounds.
///
/// # Panics
///
/// Panics if ids exceed `id_space`, collide between neighbors, or
/// `ids.len() != g.node_count()`.
///
/// # Examples
///
/// ```
/// use local_coloring::linial_color;
/// use splitgraph::{checks, generators};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let g = generators::random_regular(64, 4, &mut rng).unwrap();
/// let ids: Vec<u64> = (0..64).collect();
/// let out = linial_color(&g, &ids, 64);
/// assert!(checks::is_proper_coloring(&g, &out.colors));
/// assert!(out.palette <= 2 * (4 * 4 + 1) * (4 * 4 + 1)); // O(Δ²)
/// ```
pub fn linial_color(g: &Graph, ids: &[u64], id_space: u64) -> ColoringOutcome {
    assert!(
        ids.iter().all(|&x| x < id_space),
        "id exceeds declared id space"
    );
    let delta = g.max_degree();
    if delta == 0 {
        return ColoringOutcome {
            colors: vec![0; g.node_count()],
            palette: 1,
            rounds: 0,
            messages: 0,
        };
    }
    let schedule: std::rc::Rc<[LinialStep]> = linial_schedule(id_space, delta).into();
    let palette = schedule.last().map(|s| s.colors_out).unwrap_or(id_space);
    let run = run_local(g, ids, schedule.len() + 1, |_| LinialProgram {
        schedule: schedule.clone(),
        color: 0,
        step: 0,
    });
    assert!(
        run.completed,
        "linial program must terminate within its schedule"
    );
    ColoringOutcome {
        colors: run
            .outputs
            .iter()
            .map(|&c| u32::try_from(c).expect("palette fits u32"))
            .collect(),
        palette: u32::try_from(palette).expect("palette fits u32"),
        rounds: run.rounds,
        messages: run.messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::checks::is_proper_coloring;
    use splitgraph::generators;

    #[test]
    fn schedule_shrinks_monotonically() {
        let sched = linial_schedule(1_000_000, 8);
        assert!(!sched.is_empty());
        for w in sched.windows(2) {
            assert_eq!(w[0].colors_out, w[1].colors_in);
        }
        for s in &sched {
            assert!(s.colors_out < s.colors_in);
            assert!(s.q > (s.degree as u64) * 8);
            assert!(pow_at_least(s.q, (s.degree + 1) as u32, s.colors_in));
        }
        // fixed point is O(Δ²)
        let last = sched.last().unwrap();
        assert!(
            last.colors_out <= 4 * 8 * 8 * 16,
            "palette {}",
            last.colors_out
        );
    }

    #[test]
    fn schedule_length_is_log_star_ish() {
        // even from an astronomically large ID space, few steps suffice
        let sched = linial_schedule(u64::MAX, 4);
        assert!(
            sched.len() <= 6,
            "schedule unexpectedly long: {}",
            sched.len()
        );
    }

    #[test]
    fn integer_root_exact_and_inexact() {
        assert_eq!(integer_root_ceil(27, 3), 3);
        assert_eq!(integer_root_ceil(28, 3), 4);
        assert_eq!(integer_root_ceil(1, 5), 1);
        assert_eq!(integer_root_ceil(1024, 2), 32);
        assert_eq!(integer_root_ceil(1025, 2), 33);
    }

    #[test]
    fn linial_on_cycle() {
        let g = generators::cycle(101).unwrap();
        let ids: Vec<u64> = (0..101).map(|v| (v * v + v + 1) as u64).collect();
        let space = 101 * 101 + 101 + 2;
        let out = linial_color(&g, &ids, space);
        assert!(is_proper_coloring(&g, &out.colors));
        assert!(out.colors.iter().all(|&c| c < out.palette));
        assert_eq!(out.rounds, linial_schedule(space, 2).len());
    }

    #[test]
    fn linial_on_random_regular() {
        let mut rng = StdRng::seed_from_u64(5);
        for d in [3usize, 6, 10] {
            let g = generators::random_regular(200, d, &mut rng).unwrap();
            let ids: Vec<u64> = (0..200).collect();
            let out = linial_color(&g, &ids, 200);
            assert!(is_proper_coloring(&g, &out.colors), "Δ = {d}");
            let qstar = next_prime(d as u64 + 2);
            assert!(
                out.palette as u64 <= qstar * qstar * 4,
                "palette {} for Δ {d}",
                out.palette
            );
        }
    }

    #[test]
    fn linial_handles_edgeless_graph() {
        let g = Graph::new(5);
        let out = linial_color(&g, &[0, 1, 2, 3, 4], 5);
        assert_eq!(out.palette, 1);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn rounds_grow_very_slowly_with_id_space() {
        let g = generators::cycle(64).unwrap();
        let ids: Vec<u64> = (0..64).map(|v| v * 1_000_000_007).collect();
        let out = linial_color(&g, &ids, 64 * 1_000_000_007);
        assert!(is_proper_coloring(&g, &out.colors));
        assert!(out.rounds <= 6, "rounds = {}", out.rounds);
    }
}
