//! Eulerian-orientation reference engine.
//!
//! Pairing up the odd-degree nodes with virtual edges makes every degree
//! even; a traversal that never reuses an edge then decomposes the edge set
//! into closed circuits, and orienting every circuit consistently balances
//! in- and out-degree *exactly* at every node. Dropping the virtual edges
//! costs each odd-degree node at most one unit of discrepancy. The result —
//! discrepancy 0 at even nodes, 1 at odd nodes — is strictly stronger than
//! the `ε·d(v) + 2` contract of Theorem 2.3, which is why this engine serves
//! as the reference implementation of the cited black box.
//!
//! One traversal kernel serves every caller. It runs over a packed
//! incidence (one flat `offsets` array, one `(edge, other end)` pair of
//! `u32`s per edge end, virtual pairing edges appended), which is built
//! either from a [`MultiGraph`] or straight from a [`BipartiteGraph`]'s
//! rows; both builders lay rows out exactly as an augmented endpoint list
//! would, so the orientation does not depend on which one ran.

use splitgraph::{BipartiteGraph, MultiGraph, Orientation};

/// One edge end in a packed incidence row: `tagged` is the edge id shifted
/// left by one, with the low bit set when this end is the edge's *first*
/// endpoint; `other` is the node at the far end (the row's own node for a
/// self-loop, which is listed twice).
#[derive(Debug, Clone, Copy, Default)]
struct End {
    tagged: u32,
    other: u32,
}

/// Packed incidence of the virtually augmented graph: row `v` is
/// `ends[offsets[v]..offsets[v + 1]]`, real edges in ascending id order,
/// then (at odd-degree nodes only) the one virtual pairing edge.
struct Incidence {
    offsets: Vec<u32>,
    ends: Vec<End>,
    /// Number of real edges; virtual pairing edges take ids from here on.
    real: usize,
    /// Number of edges including the virtual ones.
    total: usize,
    /// Next free slot of every row while real edges are being placed;
    /// reused as the traversal's row pointers.
    cursor: Vec<u32>,
}

impl Incidence {
    /// Lays out rows for nodes of the given real degrees. Odd-degree nodes
    /// are paired in index order, and pair `i` becomes virtual edge
    /// `real + i`, placed in the last slot of both its rows (first endpoint
    /// = the smaller index), exactly as if it were appended to the edge list.
    fn with_degrees(degrees: &[usize], real: usize) -> Incidence {
        let n = degrees.len();
        let odd: Vec<usize> = (0..n).filter(|&v| degrees[v] % 2 == 1).collect();
        debug_assert_eq!(odd.len() % 2, 0, "handshake lemma");
        let total_edges = real + odd.len() / 2;
        // ids carry a tag bit and nodes are stored as u32
        assert!(
            total_edges < 1 << 31 && u32::try_from(n).is_ok(),
            "packed incidence holds fewer than 2^31 edges and 2^32 nodes"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in degrees {
            acc += (d + d % 2) as u32;
            offsets.push(acc);
        }
        let mut ends = vec![End::default(); acc as usize];
        for (i, pair) in odd.chunks_exact(2).enumerate() {
            let id = ((real + i) as u32) << 1;
            let (a, b) = (pair[0], pair[1]);
            ends[offsets[a + 1] as usize - 1] = End {
                tagged: id | 1,
                other: b as u32,
            };
            ends[offsets[b + 1] as usize - 1] = End {
                tagged: id,
                other: a as u32,
            };
        }
        let cursor = offsets[..n].to_vec();
        Incidence {
            offsets,
            ends,
            real,
            total: total_edges,
            cursor,
        }
    }

    /// Appends real edge `e = (a, b)` to the rows of `a` and `b`.
    fn place(&mut self, e: usize, a: usize, b: usize) {
        let id = (e as u32) << 1;
        let slot = self.cursor[a];
        self.ends[slot as usize] = End {
            tagged: id | 1,
            other: b as u32,
        };
        self.cursor[a] = slot + 1;
        let slot = self.cursor[b];
        self.ends[slot as usize] = End {
            // both ends of a self-loop are its first endpoint
            tagged: id | u32::from(a == b),
            other: a as u32,
        };
        self.cursor[b] = slot + 1;
    }

    /// The augmented incidence of a multigraph.
    fn from_multigraph(g: &MultiGraph) -> Incidence {
        let degrees: Vec<usize> = (0..g.node_count()).map(|v| g.degree(v)).collect();
        let mut inc = Incidence::with_degrees(&degrees, g.edge_count());
        for e in 0..g.edge_count() {
            let (a, b) = g.endpoints(e);
            inc.place(e, a, b);
        }
        inc
    }

    /// The augmented incidence of the multigraph view of `b` over `U ∪ V`
    /// (left `u` at index `u`, right `v` at `left_count + v`), with edge id
    /// = position in [`BipartiteGraph::edges`] and the left end first.
    fn from_bipartite(b: &BipartiteGraph) -> Incidence {
        let shift = b.left_count();
        let degrees: Vec<usize> = (0..shift)
            .map(|u| b.left_degree(u))
            .chain((0..b.right_count()).map(|v| b.right_degree(v)))
            .collect();
        let mut inc = Incidence::with_degrees(&degrees, b.edge_count());
        let mut e = 0;
        for u in 0..shift {
            for &v in b.left_neighbors(u) {
                inc.place(e, u, shift + v);
                e += 1;
            }
        }
        inc
    }

    /// The edge-marking traversal. Starting at every node in index order,
    /// it follows unused edges, scanning each row once, and backtracks
    /// when a row is exhausted; each excursion is a closed circuit (all
    /// augmented degrees are even) and every edge is oriented in traversal
    /// direction. Returns, per real edge, whether it runs from its first
    /// endpoint to its second.
    fn traverse(self) -> Vec<bool> {
        const UNUSED: u8 = 0;
        const FORWARD: u8 = 1;
        const BACKWARD: u8 = 2;
        let Incidence {
            offsets,
            ends,
            real,
            total,
            cursor: mut next,
        } = self;
        let n = offsets.len() - 1;
        next.copy_from_slice(&offsets[..n]);
        let mut state = vec![UNUSED; total];
        let mut stack: Vec<u32> = Vec::new();
        for start in 0..n {
            stack.push(start as u32);
            while let Some(&v) = stack.last() {
                let v = v as usize;
                let stop = offsets[v + 1];
                let mut slot = next[v];
                let mut step = None;
                while slot < stop {
                    let end = ends[slot as usize];
                    slot += 1;
                    if state[(end.tagged >> 1) as usize] == UNUSED {
                        step = Some(end);
                        break;
                    }
                }
                next[v] = slot;
                match step {
                    Some(end) => {
                        state[(end.tagged >> 1) as usize] = if end.tagged & 1 == 1 {
                            FORWARD
                        } else {
                            BACKWARD
                        };
                        stack.push(end.other);
                    }
                    None => {
                        stack.pop();
                    }
                }
            }
        }
        debug_assert!(
            state.iter().all(|&s| s != UNUSED),
            "every augmented edge must be traversed"
        );
        state[..real].iter().map(|&s| s == FORWARD).collect()
    }
}

/// Computes an orientation of `g` with discrepancy 0 at even-degree nodes
/// and 1 at odd-degree nodes (an Eulerian orientation after virtual
/// augmentation).
///
/// # Examples
///
/// ```
/// use degree_split::eulerian_orientation;
/// use splitgraph::MultiGraph;
///
/// let mut g = MultiGraph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// g.add_edge(2, 0);
/// let o = eulerian_orientation(&g);
/// assert_eq!(o.max_discrepancy(&g), 0); // all degrees even
/// ```
pub fn eulerian_orientation(g: &MultiGraph) -> Orientation {
    Orientation::new(Incidence::from_multigraph(g).traverse())
}

/// The same orientation for the multigraph view of a bipartite graph (left
/// `u` at `u`, right `v` at `left_count + v`, edge ids in left-major
/// [`BipartiteGraph::edges`] order), built straight from its rows: entry
/// `e` is `true` when edge `e` is oriented toward its variable (right) end.
pub(crate) fn bipartite_orientation(b: &BipartiteGraph) -> Vec<bool> {
    Incidence::from_bipartite(b).traverse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn check_discrepancy(g: &MultiGraph) {
        let o = eulerian_orientation(g);
        for v in 0..g.node_count() {
            let bound = g.degree(v) % 2;
            assert!(
                o.discrepancy(g, v) <= bound,
                "node {v} (degree {}) has discrepancy {} > {bound}",
                g.degree(v),
                o.discrepancy(g, v)
            );
        }
    }

    #[test]
    fn cycle_is_perfectly_balanced() {
        let mut g = MultiGraph::new(6);
        for i in 0..6 {
            g.add_edge(i, (i + 1) % 6);
        }
        check_discrepancy(&g);
    }

    #[test]
    fn path_has_unit_discrepancy_at_ends() {
        let mut g = MultiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let o = eulerian_orientation(&g);
        assert_eq!(o.discrepancy(&g, 0), 1);
        assert_eq!(o.discrepancy(&g, 1), 0);
        assert_eq!(o.discrepancy(&g, 2), 0);
        assert_eq!(o.discrepancy(&g, 3), 1);
    }

    #[test]
    fn star_balanced_up_to_parity() {
        let mut g = MultiGraph::new(7);
        for leaf in 1..7 {
            g.add_edge(0, leaf);
        }
        check_discrepancy(&g); // center degree 6 → discrepancy 0
        let o = eulerian_orientation(&g);
        assert_eq!(o.out_degree(&g, 0), 3);
    }

    #[test]
    fn parallel_edges_and_disconnected_components() {
        let mut g = MultiGraph::new(6);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        // separate component: a triangle
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        g.add_edge(5, 3);
        check_discrepancy(&g);
    }

    #[test]
    fn random_multigraphs_meet_parity_bound() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..20 {
            let n = 30;
            let mut g = MultiGraph::new(n);
            let m = 40 + (trial * 13) % 60;
            for _ in 0..m {
                let a = rng.random_range(0..n);
                let mut b = rng.random_range(0..n);
                while b == a {
                    b = rng.random_range(0..n);
                }
                g.add_edge(a, b);
            }
            check_discrepancy(&g);
        }
    }

    #[test]
    fn empty_and_single_edge() {
        let g = MultiGraph::new(3);
        let o = eulerian_orientation(&g);
        assert_eq!(o.edge_count(), 0);
        let mut g = MultiGraph::new(2);
        g.add_edge(0, 1);
        check_discrepancy(&g);
    }
}
