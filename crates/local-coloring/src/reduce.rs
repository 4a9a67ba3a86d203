//! Distributed color reduction.
//!
//! Two standard reducers, both genuine LOCAL node programs:
//!
//! * [`greedy_reduce`] — "one color class per round": each round the highest
//!   remaining class recolors greedily into the target palette; `m → t`
//!   costs `m − t` rounds. Simple, used for small palettes.
//! * [`kw_reduce`] — Kuhn–Wattenhofer batched halving: the palette is cut
//!   into buckets of `2·(Δ+1)` classes, all buckets reduce to `Δ+1` colors
//!   *in parallel* (disjoint target ranges keep properness across buckets),
//!   halving the palette every `2·(Δ+1)` rounds, i.e. `m → Δ+1` in
//!   `O(Δ·log(m/Δ))` rounds.
//!
//! [`kw_reduce`] is the reproduction's stand-in for the linear-in-Δ coloring
//! of [BEK14a] that Lemma 2.1 of the paper cites: same palette, round cost
//! larger only by the `log` factor (substitution recorded in DESIGN.md).

use crate::linial::ColoringOutcome;
use local_runtime::{run_local, Inbox, NodeContext, NodeProgram, Outbox};
use splitgraph::Graph;

/// One-class-per-round reduction from palette `m` to `target ≥ Δ+1`.
///
/// # Panics
///
/// Panics if the input coloring is not proper over palette `m`, or if
/// `target < Δ+1` (greedy needs a free color).
pub fn greedy_reduce(g: &Graph, colors: &[u32], m: u32, target: u32) -> ColoringOutcome {
    let delta = g.max_degree() as u32;
    assert!(
        target > delta,
        "target palette {target} must exceed Δ = {delta}"
    );
    assert_eq!(colors.len(), g.node_count(), "color vector length mismatch");
    assert!(
        colors.iter().all(|&c| c < m),
        "color outside declared palette"
    );
    if m <= target {
        return ColoringOutcome {
            colors: colors.to_vec(),
            palette: m,
            rounds: 0,
            messages: 0,
        };
    }

    struct Greedy {
        color: u32,
        m: u32,
        target: u32,
        phase: u32,
    }
    impl NodeProgram for Greedy {
        type Msg = u32;
        type Output = u32;
        fn init(&mut self, _ctx: &NodeContext, out: &mut Outbox<u32>) {
            out.broadcast(self.color);
        }
        fn round(&mut self, _ctx: &NodeContext, inbox: Inbox<'_, u32>, out: &mut Outbox<u32>) {
            // class handled this round: m-1, m-2, …, target
            let class = self.m - 1 - self.phase;
            if self.color == class {
                let mut used = vec![false; self.target as usize];
                for (_, &c) in inbox.iter() {
                    if c < self.target {
                        used[c as usize] = true;
                    }
                }
                self.color = used
                    .iter()
                    .position(|&u| !u)
                    .expect("degree < target guarantees a free color")
                    as u32;
            }
            self.phase += 1;
            if !self.is_done() {
                out.broadcast(self.color);
            }
        }
        fn is_done(&self) -> bool {
            self.m - 1 - self.phase < self.target
        }
        fn output(&self) -> u32 {
            self.color
        }
    }

    let ids: Vec<u64> = (0..g.node_count() as u64).collect();
    let phases = (m - target) as usize;
    let run = run_local(g, &ids, phases + 1, |ctx| Greedy {
        color: colors[ctx.node],
        m,
        target,
        phase: 0,
    });
    assert!(
        run.completed,
        "greedy reduction must finish in m - target rounds"
    );
    ColoringOutcome {
        colors: run.outputs,
        palette: target,
        rounds: run.rounds,
        messages: run.messages,
    }
}

/// Kuhn–Wattenhofer reduction from palette `m` to `Δ+1` in
/// `O(Δ·log(m/(Δ+1)))` rounds.
///
/// # Panics
///
/// Panics if the input coloring is not proper over palette `m`.
pub fn kw_reduce(g: &Graph, colors: &[u32], m: u32) -> ColoringOutcome {
    let delta = g.max_degree() as u32;
    let target = delta + 1;
    assert_eq!(colors.len(), g.node_count(), "color vector length mismatch");
    assert!(
        colors.iter().all(|&c| c < m),
        "color outside declared palette"
    );

    // per-pass bucket size: 2·(Δ+1) classes collapse to Δ+1
    let bucket = 2 * target;

    /// Palette sizes after each halving pass, ending at `target`.
    fn pass_sizes(mut m: u32, target: u32, bucket: u32) -> Vec<u32> {
        let mut sizes = vec![m];
        while m > target {
            let buckets = m.div_ceil(bucket);
            let next = buckets * target;
            // a single partial bucket of ≤ 2(Δ+1) classes still reduces
            let next = next.min(m - 1).max(target);
            sizes.push(next);
            m = next;
        }
        sizes
    }

    let sizes = pass_sizes(m, target, bucket);
    if sizes.len() == 1 {
        return ColoringOutcome {
            colors: colors.to_vec(),
            palette: m,
            rounds: 0,
            messages: 0,
        };
    }

    struct Kw {
        color: u32,
        sizes: std::rc::Rc<[u32]>,
        bucket: u32,
        target: u32,
        pass: usize,
        slot: u32,
    }
    impl Kw {
        fn done_all(&self) -> bool {
            self.pass + 1 >= self.sizes.len()
        }
    }
    impl NodeProgram for Kw {
        type Msg = u32;
        type Output = u32;
        fn init(&mut self, _ctx: &NodeContext, out: &mut Outbox<u32>) {
            out.broadcast(self.color);
        }
        fn round(&mut self, _ctx: &NodeContext, inbox: Inbox<'_, u32>, out: &mut Outbox<u32>) {
            // within the current pass, classes with (color % bucket) == slot
            // recolor into their bucket's target range
            let my_bucket = self.color / self.bucket;
            let my_slot = self.color % self.bucket;
            if my_slot == self.slot {
                let base = my_bucket * self.target;
                let mut used = vec![false; self.target as usize];
                for (_, &c) in inbox.iter() {
                    // only colors already in my bucket's target range collide
                    if c >= base && c < base + self.target {
                        used[(c - base) as usize] = true;
                    }
                }
                let free = used
                    .iter()
                    .position(|&u| !u)
                    .expect("at most Δ neighbors cannot fill Δ+1 slots");
                self.color = base + free as u32;
            }
            self.slot += 1;
            if self.slot >= self.bucket {
                // pass complete; verify the palette shrank as scheduled
                self.pass += 1;
                self.slot = 0;
                debug_assert!(
                    self.done_all() || self.color < self.sizes[self.pass],
                    "color {} escaped pass palette {}",
                    self.color,
                    self.sizes[self.pass]
                );
            }
            if !self.done_all() {
                out.broadcast(self.color);
            }
        }
        fn is_done(&self) -> bool {
            self.done_all()
        }
        fn output(&self) -> u32 {
            self.color
        }
    }

    let ids: Vec<u64> = (0..g.node_count() as u64).collect();
    let sizes: std::rc::Rc<[u32]> = sizes.into();
    let max_rounds = (sizes.len() - 1) * bucket as usize + 1;
    let run = run_local(g, &ids, max_rounds, |ctx| Kw {
        color: colors[ctx.node],
        sizes: sizes.clone(),
        bucket,
        target,
        pass: 0,
        slot: 0,
    });
    assert!(run.completed, "kw reduction must finish on schedule");
    ColoringOutcome {
        colors: run.outputs,
        palette: target,
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

    fn id_coloring(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn greedy_reduce_path_to_two() {
        let g = generators::path(10);
        let out = greedy_reduce(&g, &id_coloring(10), 10, 3);
        assert!(is_proper_coloring(&g, &out.colors));
        assert!(out.colors.iter().all(|&c| c < 3));
        assert_eq!(out.rounds, 7);
    }

    #[test]
    fn greedy_reduce_noop_when_small() {
        let g = generators::path(4);
        let out = greedy_reduce(&g, &[0, 1, 2, 0], 3, 3);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.palette, 3);
    }

    #[test]
    #[should_panic(expected = "must exceed")]
    fn greedy_reduce_rejects_tiny_target() {
        let g = generators::cycle(4).unwrap();
        let _ = greedy_reduce(&g, &id_coloring(4), 4, 2);
    }

    #[test]
    fn kw_reduce_reaches_delta_plus_one() {
        let mut rng = StdRng::seed_from_u64(4);
        for d in [3usize, 5, 8] {
            let g = generators::random_regular(120, d, &mut rng).unwrap();
            let out = kw_reduce(&g, &id_coloring(120), 120);
            assert!(is_proper_coloring(&g, &out.colors), "Δ = {d}");
            assert_eq!(out.palette, d as u32 + 1);
            assert!(out.colors.iter().all(|&c| c <= d as u32));
        }
    }

    #[test]
    fn kw_beats_greedy_on_rounds_for_large_palettes() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::random_regular(400, 4, &mut rng).unwrap();
        let kw = kw_reduce(&g, &id_coloring(400), 400);
        let greedy = greedy_reduce(&g, &id_coloring(400), 400, 5);
        assert!(is_proper_coloring(&g, &kw.colors));
        assert!(
            kw.rounds < greedy.rounds / 2,
            "kw {} rounds vs greedy {}",
            kw.rounds,
            greedy.rounds
        );
    }

    #[test]
    fn kw_reduce_on_already_small_palette() {
        let g = generators::cycle(6).unwrap();
        let out = kw_reduce(&g, &[0, 1, 2, 0, 1, 2], 3);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.palette, 3);
    }

    #[test]
    fn kw_handles_nonregular_graphs() {
        // star: Δ = 5, palette must end at 6
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
        let out = kw_reduce(&g, &id_coloring(6), 6);
        assert!(is_proper_coloring(&g, &out.colors));
        assert_eq!(out.palette, 6);
    }
}
