//! Bipartite constraint/variable graphs.
//!
//! The paper phrases all splitting problems on a bipartite graph
//! `B = (U ∪ V, E)` where `U` holds *constraint* nodes (the left side,
//! hypergraph vertices) and `V` holds *variable* nodes (the right side,
//! hyperedges). Following the paper's notation, `δ`/`Δ` are the minimum and
//! maximum degree over `U` and the *rank* `r` is the maximum degree over `V`.

use crate::error::GraphError;
use crate::graph::Graph;
use std::fmt;

/// Where one row lives in its side's arena: the row is
/// `slots[start..start + len]`, with room up to `start + cap`. The three
/// fields sit together, so reading a row touches one span.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: usize,
    len: usize,
    cap: usize,
}

/// One side's adjacency: every row's sorted targets in one flat arena.
///
/// Bulk builds are tight (`cap == len`, rows back to back). An insert into
/// a full row moves the row to the arena's tail with doubled room, so an
/// edit costs `O(deg)`. A row's abandoned rooms sum to less than its
/// current room, so the dead slots never pass half the arena by inserts
/// alone; [`BipartiteGraph::add_edge`] packs a side once its dead slots
/// outnumber the live targets (deletes shrink those), each row keeping its
/// room.
#[derive(Clone, Default)]
struct Rows {
    spans: Vec<Span>,
    slots: Vec<usize>,
    /// Slots owned by no row: the old places of relocated rows.
    dead: usize,
}

impl Rows {
    /// `n` empty rows and an empty arena.
    fn empty(n: usize) -> Rows {
        Rows {
            spans: vec![Span::default(); n],
            slots: Vec::new(),
            dead: 0,
        }
    }

    /// Room for `rows` rows holding `slots` targets in all.
    fn with_capacity(rows: usize, slots: usize) -> Rows {
        Rows {
            spans: Vec::with_capacity(rows),
            slots: Vec::with_capacity(slots),
            dead: 0,
        }
    }

    /// Tight rows of the given lengths, back to back, each with its write
    /// cursor at 0 (`len` counts the targets placed so far); every row is
    /// full once `len` reaches `cap`.
    fn tight_cursors(lengths: Vec<Span>) -> Rows {
        let mut spans = lengths;
        let mut start = 0;
        for span in &mut spans {
            span.start = start;
            span.cap = span.len;
            span.len = 0;
            start += span.cap;
        }
        Rows {
            spans,
            slots: vec![0; start],
            dead: 0,
        }
    }

    /// Places `x` at row `i`'s write cursor (see [`Rows::tight_cursors`]).
    fn place(&mut self, i: usize, x: usize) {
        let span = &mut self.spans[i];
        self.slots[span.start + span.len] = x;
        span.len += 1;
    }

    /// Appends a tight row holding `row`'s targets.
    fn push_row(&mut self, row: impl IntoIterator<Item = usize>) {
        let start = self.slots.len();
        self.slots.extend(row);
        let len = self.slots.len() - start;
        self.spans.push(Span {
            start,
            len,
            cap: len,
        });
    }

    fn count(&self) -> usize {
        self.spans.len()
    }

    fn row(&self, i: usize) -> &[usize] {
        let span = self.spans[i];
        &self.slots[span.start..span.start + span.len]
    }

    fn row_mut(&mut self, i: usize) -> &mut [usize] {
        let span = self.spans[i];
        &mut self.slots[span.start..span.start + span.len]
    }

    fn len(&self, i: usize) -> usize {
        self.spans[i].len
    }

    /// The rows whose targets are this side's sorted rows read the other
    /// way: a counting sort, so every transposed row comes out ascending.
    fn transpose(&self, other_count: usize) -> Rows {
        let mut lengths = vec![Span::default(); other_count];
        for i in 0..self.count() {
            for &j in self.row(i) {
                lengths[j].len += 1;
            }
        }
        let mut out = Rows::tight_cursors(lengths);
        for i in 0..self.count() {
            for &j in self.row(i) {
                out.place(j, i);
            }
        }
        out
    }

    /// Inserts `x` at position `pos` of row `i`, making room first if the
    /// row is full.
    fn insert(&mut self, i: usize, pos: usize, x: usize) {
        if self.spans[i].len == self.spans[i].cap {
            self.grow(i);
        }
        let span = &mut self.spans[i];
        let (at, end) = (span.start + pos, span.start + span.len);
        self.slots.copy_within(at..end, at + 1);
        self.slots[at] = x;
        span.len += 1;
    }

    /// Removes position `pos` of row `i`; the row keeps its room.
    fn remove(&mut self, i: usize, pos: usize) {
        let span = &mut self.spans[i];
        let (at, end) = (span.start + pos, span.start + span.len);
        self.slots.copy_within(at + 1..end, at);
        span.len -= 1;
    }

    /// Doubles full row `i`'s room: in place if the row ends the arena,
    /// else by moving it to the tail.
    fn grow(&mut self, i: usize) {
        let span = self.spans[i];
        let cap = (2 * span.len).max(1);
        if span.start + span.cap == self.slots.len() {
            self.slots.resize(span.start + cap, 0);
        } else {
            let start = self.slots.len();
            self.slots
                .extend_from_within(span.start..span.start + span.len);
            self.slots.resize(start + cap, 0);
            self.dead += span.cap;
            self.spans[i].start = start;
        }
        self.spans[i].cap = cap;
    }

    /// Packs the rows back to back in index order, each keeping its room.
    fn compact(&mut self) {
        let mut slots = Vec::with_capacity(self.slots.len() - self.dead);
        for span in &mut self.spans {
            let start = slots.len();
            slots.extend_from_slice(&self.slots[span.start..span.start + span.len]);
            slots.resize(start + span.cap, 0);
            span.start = start;
        }
        self.slots = slots;
        self.dead = 0;
    }
}

/// Rows compare by content, never by arena layout: a mutated side equals
/// a fresh build of the same rows.
impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.count() == other.count() && (0..self.count()).all(|i| self.row(i) == other.row(i))
    }
}

impl Eq for Rows {}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.count()).map(|i| self.row(i)))
            .finish()
    }
}

/// A bipartite graph `B = (U ∪ V, E)` with constraint side `U` and variable side `V`.
///
/// Left nodes are indexed `0..left_count`, right nodes `0..right_count`;
/// the two index spaces are independent. Parallel edges are not allowed.
///
/// Each side stores its sorted rows in one flat arena. Bulk builds
/// ([`Self::from_edges`], [`Self::from_left_rows`], [`Self::filter_edges`])
/// are counting sorts with no slack; [`Self::add_edge`] and
/// [`Self::remove_edge`] cost `O(deg)` per edit. Equality compares rows,
/// so a mutated graph equals a fresh build of the same edge set.
///
/// # Examples
///
/// ```
/// use splitgraph::BipartiteGraph;
///
/// // one constraint watching three variables
/// let b = BipartiteGraph::from_edges(1, 3, &[(0, 0), (0, 1), (0, 2)]).unwrap();
/// assert_eq!(b.min_left_degree(), 3); // δ
/// assert_eq!(b.rank(), 1); // r
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BipartiteGraph {
    left: Rows,
    right: Rows,
    edge_count: usize,
}

impl BipartiteGraph {
    /// Creates an empty bipartite graph with the given side sizes.
    pub fn new(left_count: usize, right_count: usize) -> Self {
        BipartiteGraph {
            left: Rows::empty(left_count),
            right: Rows::empty(right_count),
            edge_count: 0,
        }
    }

    /// Builds a bipartite graph from `(left, right)` edge pairs in bulk: a
    /// counting sort into the left rows, a sort of any row that arrives
    /// unsorted, then a counting sort of the sorted left rows into the
    /// right rows — `O(|U| + |V| + m)` when the list comes in row order.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints or duplicate edges. Range
    /// violations are reported in list order before any duplicate, and the
    /// reported duplicate is the one in the smallest left row.
    pub fn from_edges(
        left_count: usize,
        right_count: usize,
        edges: &[(usize, usize)],
    ) -> Result<Self, GraphError> {
        let mut lengths = vec![Span::default(); left_count];
        for &(u, v) in edges {
            if u >= left_count {
                return Err(GraphError::NodeOutOfRange {
                    node: u,
                    count: left_count,
                });
            }
            if v >= right_count {
                return Err(GraphError::NodeOutOfRange {
                    node: v,
                    count: right_count,
                });
            }
            lengths[u].len += 1;
        }
        let mut left = Rows::tight_cursors(lengths);
        for &(u, v) in edges {
            left.place(u, v);
        }
        BipartiteGraph::from_left(left, right_count)
    }

    /// Former name of [`BipartiteGraph::from_edges`], kept only because the
    /// end-to-end benchmark's probe (`perfbench/probe`), which is versioned
    /// with the benchmark rather than the library, still calls it.
    #[doc(hidden)]
    pub fn from_edges_bulk(
        left_count: usize,
        right_count: usize,
        edges: &[(usize, usize)],
    ) -> Result<Self, GraphError> {
        BipartiteGraph::from_edges(left_count, right_count, edges)
    }

    /// Builds a bipartite graph from its left rows: row `u` lists left node
    /// `u`'s right neighbours in any order, and there are as many left
    /// nodes as rows. The same graph as [`Self::from_edges`] on the rows'
    /// edges in row order, with no edge list in between.
    ///
    /// # Errors
    ///
    /// Returns an error on an out-of-range right index (the first, in row
    /// order) or a duplicate within a row (the smallest, in the first
    /// such row).
    pub fn from_left_rows<R>(
        right_count: usize,
        rows: impl IntoIterator<Item = R>,
    ) -> Result<Self, GraphError>
    where
        R: IntoIterator<Item = usize>,
    {
        let mut left = Rows::default();
        for row in rows {
            left.push_row(row);
        }
        if let Some(&v) = left.slots.iter().find(|&&v| v >= right_count) {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                count: right_count,
            });
        }
        BipartiteGraph::from_left(left, right_count)
    }

    /// Finishes a build from tight, in-range left rows: sorts any unsorted
    /// row, rejects the first duplicate in ascending `u`, and fills the
    /// right rows from the sorted left rows.
    fn from_left(mut left: Rows, right_count: usize) -> Result<Self, GraphError> {
        for u in 0..left.count() {
            // canonical encodings list edges in adjacency order, so rows
            // usually arrive sorted; checking is one linear pass
            let row = left.row_mut(u);
            if !row.is_sorted() {
                row.sort_unstable();
            }
            if let Some(w) = row.windows(2).find(|w| w[0] == w[1]) {
                return Err(GraphError::DuplicateEdge { u, v: w[0] });
            }
        }
        let right = left.transpose(right_count);
        Ok(BipartiteGraph {
            edge_count: left.slots.len(),
            left,
            right,
        })
    }

    /// Adds the edge between left node `u` and right node `v`.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints or duplicate edges.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        if u >= self.left_count() {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                count: self.left_count(),
            });
        }
        if v >= self.right_count() {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                count: self.right_count(),
            });
        }
        match self.left.row(u).binary_search(&v) {
            Ok(_) => return Err(GraphError::DuplicateEdge { u, v }),
            Err(pos) => self.left.insert(u, pos, v),
        }
        let pos = self.right.row(v).binary_search(&u).unwrap_err();
        self.right.insert(v, pos, u);
        self.edge_count += 1;
        for side in [&mut self.left, &mut self.right] {
            if side.dead > self.edge_count {
                side.compact();
            }
        }
        Ok(())
    }

    /// Removes the edge `(u, v)` if present; returns whether it existed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if u >= self.left_count() || v >= self.right_count() {
            return false;
        }
        let Ok(pos) = self.left.row(u).binary_search(&v) else {
            return false;
        };
        self.left.remove(u, pos);
        let pos = self
            .right
            .row(v)
            .binary_search(&u)
            .expect("adjacency symmetric");
        self.right.remove(v, pos);
        self.edge_count -= 1;
        true
    }

    /// Number of constraint (left, `U`) nodes.
    pub fn left_count(&self) -> usize {
        self.left.count()
    }

    /// Number of variable (right, `V`) nodes.
    pub fn right_count(&self) -> usize {
        self.right.count()
    }

    /// Total number of nodes `|U| + |V|` (the paper's `n`).
    pub fn node_count(&self) -> usize {
        self.left_count() + self.right_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Degree of left node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn left_degree(&self, u: usize) -> usize {
        self.left.len(u)
    }

    /// Degree of right node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn right_degree(&self, v: usize) -> usize {
        self.right.len(v)
    }

    /// Sorted neighbors (right indices) of left node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn left_neighbors(&self, u: usize) -> &[usize] {
        self.left.row(u)
    }

    /// Sorted neighbors (left indices) of right node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn right_neighbors(&self, v: usize) -> &[usize] {
        self.right.row(v)
    }

    /// Whether the edge `(u, v)` is present. Out-of-range endpoints yield `false`.
    pub fn contains_edge(&self, u: usize, v: usize) -> bool {
        u < self.left_count()
            && v < self.right_count()
            && self.left.row(u).binary_search(&v).is_ok()
    }

    /// Minimum degree `δ` over the constraint side `U` (0 if `U` is empty).
    pub fn min_left_degree(&self) -> usize {
        self.left.spans.iter().map(|s| s.len).min().unwrap_or(0)
    }

    /// Maximum degree `Δ` over the constraint side `U` (0 if `U` is empty).
    pub fn max_left_degree(&self) -> usize {
        self.left.spans.iter().map(|s| s.len).max().unwrap_or(0)
    }

    /// Rank `r`: the maximum degree over the variable side `V` (0 if `V` is empty).
    pub fn rank(&self) -> usize {
        self.right.spans.iter().map(|s| s.len).max().unwrap_or(0)
    }

    /// Minimum degree over the variable side `V` (0 if `V` is empty).
    pub fn min_right_degree(&self) -> usize {
        self.right.spans.iter().map(|s| s.len).min().unwrap_or(0)
    }

    /// Iterator over edges as `(left, right)` pairs, in left-major order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.left_count())
            .flat_map(move |u| self.left_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Bipartite subgraph keeping exactly the edges for which `pred(u, v)` is true.
    ///
    /// `pred` is called once per edge, in [`Self::edges`] order. The kept
    /// left rows are written in that one pass; the right rows are a
    /// counting sort of them, so both sides stay sorted with no sort or
    /// duplicate scan.
    pub fn filter_edges<F: FnMut(usize, usize) -> bool>(&self, mut pred: F) -> BipartiteGraph {
        let mut left = Rows::with_capacity(self.left_count(), self.edge_count);
        for u in 0..self.left_count() {
            left.push_row(self.left.row(u).iter().copied().filter(|&v| pred(u, v)));
        }
        let right = left.transpose(self.right_count());
        BipartiteGraph {
            edge_count: left.slots.len(),
            left,
            right,
        }
    }

    /// Subgraph induced by node masks on both sides (indices are preserved;
    /// dropped nodes become isolated).
    ///
    /// # Panics
    ///
    /// Panics if the mask lengths do not match the side sizes.
    pub fn induced_subgraph(&self, keep_left: &[bool], keep_right: &[bool]) -> BipartiteGraph {
        assert_eq!(
            keep_left.len(),
            self.left_count(),
            "left mask length mismatch"
        );
        assert_eq!(
            keep_right.len(),
            self.right_count(),
            "right mask length mismatch"
        );
        self.filter_edges(|u, v| keep_left[u] && keep_right[v])
    }

    /// Flattens into a simple [`Graph`] over `left_count + right_count` nodes;
    /// left node `u` maps to index `u`, right node `v` to `left_count + v`.
    ///
    /// Used to run generic node algorithms (colorings, power graphs,
    /// components) on bipartite instances. Both sides' rows are sorted and
    /// every left index is below every shifted right one, so the host rows
    /// are the left rows shifted by `left_count`, then the right rows
    /// copied: `O(n + m)`, with no edge list and no sort.
    pub fn to_graph(&self) -> Graph {
        let shift = self.left_count();
        let mut offsets = Vec::with_capacity(self.node_count() + 1);
        let mut targets = Vec::with_capacity(2 * self.edge_count);
        offsets.push(0);
        for u in 0..self.left_count() {
            targets.extend(self.left.row(u).iter().map(|&v| shift + v));
            offsets.push(targets.len());
        }
        for v in 0..self.right_count() {
            targets.extend_from_slice(self.right.row(v));
            offsets.push(targets.len());
        }
        Graph::from_csr_parts_unchecked(offsets, targets)
    }

    /// Index of right node `v` in the flattened [`Graph`] of [`Self::to_graph`].
    pub fn right_index(&self, v: usize) -> usize {
        self.left_count() + v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BipartiteGraph {
        // U = {0,1}, V = {0,1,2}; u0 ~ {v0,v1}, u1 ~ {v1,v2}
        BipartiteGraph::from_edges(2, 3, &[(0, 0), (0, 1), (1, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn degrees_and_rank() {
        let b = sample();
        assert_eq!(b.left_count(), 2);
        assert_eq!(b.right_count(), 3);
        assert_eq!(b.node_count(), 5);
        assert_eq!(b.edge_count(), 4);
        assert_eq!(b.left_degree(0), 2);
        assert_eq!(b.right_degree(1), 2);
        assert_eq!(b.min_left_degree(), 2);
        assert_eq!(b.max_left_degree(), 2);
        assert_eq!(b.rank(), 2);
        assert_eq!(b.min_right_degree(), 1);
    }

    #[test]
    fn rejects_duplicates_and_out_of_range() {
        let mut b = sample();
        assert_eq!(
            b.add_edge(0, 0),
            Err(GraphError::DuplicateEdge { u: 0, v: 0 })
        );
        assert_eq!(
            b.add_edge(2, 0),
            Err(GraphError::NodeOutOfRange { node: 2, count: 2 })
        );
        assert_eq!(
            b.add_edge(0, 3),
            Err(GraphError::NodeOutOfRange { node: 3, count: 3 })
        );
    }

    #[test]
    fn remove_edge_symmetric() {
        let mut b = sample();
        assert!(b.remove_edge(0, 1));
        assert!(!b.contains_edge(0, 1));
        assert_eq!(b.right_neighbors(1), &[1]);
        assert_eq!(b.edge_count(), 3);
        assert!(!b.remove_edge(0, 1));
    }

    #[test]
    fn edge_iterator_is_complete() {
        let b = sample();
        let edges: Vec<_> = b.edges().collect();
        assert_eq!(edges, vec![(0, 0), (0, 1), (1, 1), (1, 2)]);
    }

    #[test]
    fn filter_and_induced() {
        let b = sample();
        let f = b.filter_edges(|u, _| u == 1);
        assert_eq!(f.edge_count(), 2);
        assert_eq!(f.left_degree(0), 0);

        let ind = b.induced_subgraph(&[true, false], &[true, true, true]);
        assert_eq!(ind.edge_count(), 2);
        assert_eq!(ind.left_neighbors(0), &[0, 1]);
    }

    #[test]
    fn to_graph_shifts_right_indices() {
        let b = sample();
        let g = b.to_graph();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert!(g.contains_edge(0, b.right_index(0)));
        assert!(g.contains_edge(1, b.right_index(2)));
        assert!(!g.contains_edge(0, 1));
    }

    #[test]
    fn from_edges_sorts_rows_and_validates() {
        let b = BipartiteGraph::from_edges(2, 3, &[(1, 2), (0, 1), (1, 1), (0, 0)]).unwrap();
        assert_eq!(b, sample());
        assert_eq!(b.left_neighbors(1), &[1, 2]);
        assert_eq!(b.right_neighbors(1), &[0, 1]);
        assert_eq!(
            BipartiteGraph::from_edges(2, 3, &[(0, 1), (0, 1)]),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        );
        assert_eq!(
            BipartiteGraph::from_edges(2, 3, &[(2, 0)]),
            Err(GraphError::NodeOutOfRange { node: 2, count: 2 })
        );
        assert_eq!(
            BipartiteGraph::from_edges(2, 3, &[(0, 3)]),
            Err(GraphError::NodeOutOfRange { node: 3, count: 3 })
        );
        // range errors come before duplicates, in list order
        assert_eq!(
            BipartiteGraph::from_edges(2, 3, &[(0, 1), (0, 1), (0, 3)]),
            Err(GraphError::NodeOutOfRange { node: 3, count: 3 })
        );
    }

    #[test]
    fn from_left_rows_matches_from_edges() {
        let b = BipartiteGraph::from_left_rows(3, [vec![1, 0], vec![], vec![2, 1]]).unwrap();
        let want = BipartiteGraph::from_edges(3, 3, &[(0, 1), (0, 0), (2, 2), (2, 1)]).unwrap();
        assert_eq!(b, want);
        assert_eq!(b.right_neighbors(1), &[0, 2]);
        assert_eq!(
            BipartiteGraph::from_left_rows(3, [vec![0, 0], vec![5]]),
            Err(GraphError::NodeOutOfRange { node: 5, count: 3 })
        );
        assert_eq!(
            BipartiteGraph::from_left_rows(3, [vec![2], vec![1, 0, 1]]),
            Err(GraphError::DuplicateEdge { u: 1, v: 1 })
        );
    }

    #[test]
    fn full_rows_relocate_and_the_arena_compacts() {
        // K(6, 6) inside 6 × 12, built tight: one insert per row moves
        // every row to the tail, then deletes leave fewer live targets than
        // abandoned slots, and the next insert packs the side
        let mut model: Vec<(usize, usize)> =
            (0..6).flat_map(|u| (0..6).map(move |v| (u, v))).collect();
        let mut b = BipartiteGraph::from_edges(6, 12, &model).unwrap();
        let at = |b: &BipartiteGraph, u: usize| b.left.spans[u].start;
        for u in 0..6 {
            let before = at(&b, u);
            b.add_edge(u, 6).unwrap();
            model.push((u, 6));
            assert_ne!(at(&b, u), before, "row {u} moved to the tail");
        }
        assert_eq!(b.left.dead, 36);
        for u in 0..6 {
            for v in 0..5 {
                assert!(b.remove_edge(u, v));
            }
        }
        model.retain(|&(_, v)| v >= 5);
        assert_eq!(b, BipartiteGraph::from_edges(6, 12, &model).unwrap());
        b.add_edge(0, 7).unwrap();
        model.push((0, 7));
        assert_eq!(b.left.dead, 0, "the insert packed the left side");
        let fresh = BipartiteGraph::from_edges(6, 12, &model).unwrap();
        assert_eq!(b, fresh);
        assert_eq!(b.clone(), fresh);
        assert_eq!(format!("{b:?}"), format!("{fresh:?}"));
        assert!(
            b.left.slots.len() > fresh.left.slots.len(),
            "rows kept room"
        );
    }

    #[test]
    fn empty_sides() {
        let b = BipartiteGraph::new(0, 0);
        assert_eq!(b.min_left_degree(), 0);
        assert_eq!(b.rank(), 0);
        assert_eq!(b.edges().count(), 0);
    }
}
