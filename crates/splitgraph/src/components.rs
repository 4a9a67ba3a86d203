//! Connected components of simple and bipartite graphs.
//!
//! The shattering analyses (Theorems 1.2, 2.8 and 5.3 of the paper) bound the
//! size of connected components of *residual* graphs; these helpers extract
//! them so experiments can measure the bound.

use crate::bipartite::BipartiteGraph;
use crate::graph::Graph;

/// Connected components of a simple graph: `labels[v]` is the component index
/// of node `v`, components are numbered `0..count` in order of first visit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    labels: Vec<usize>,
    count: usize,
}

impl Components {
    /// Component label of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn label(&self, v: usize) -> usize {
        self.labels[v]
    }

    /// Number of components (isolated nodes form singleton components).
    pub fn count(&self) -> usize {
        self.count
    }

    /// All labels, indexed by node.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Sizes of all components, indexed by component label.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.labels {
            sizes[l] += 1;
        }
        sizes
    }

    /// Size of the largest component (0 for the empty graph).
    pub fn max_size(&self) -> usize {
        self.sizes().into_iter().max().unwrap_or(0)
    }

    /// Node lists per component.
    ///
    /// Convenience wrapper over [`Components::members_grouped`]; prefer the
    /// grouped form on hot paths — this one allocates one `Vec` per
    /// component.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let grouped = self.members_grouped();
        (0..self.count).map(|c| grouped.group(c).to_vec()).collect()
    }

    /// Node lists per component in CSR form: one counting sort, two
    /// allocations total (offsets + node storage), no per-node pushes.
    /// Nodes within a group are in ascending order.
    pub fn members_grouped(&self) -> GroupedMembers {
        let mut starts = vec![0usize; self.count + 1];
        for &l in &self.labels {
            starts[l + 1] += 1;
        }
        for c in 0..self.count {
            starts[c + 1] += starts[c];
        }
        let mut nodes = vec![0usize; self.labels.len()];
        let mut cursor = starts.clone();
        for (v, &l) in self.labels.iter().enumerate() {
            nodes[cursor[l]] = v;
            cursor[l] += 1;
        }
        GroupedMembers { starts, nodes }
    }
}

/// Component membership in CSR form: component `c`'s nodes are the slice
/// `nodes[starts[c]..starts[c + 1]]`, ascending. Built by one counting sort
/// in [`Components::members_grouped`] — the allocation-free-per-node
/// alternative to [`Components::members`] used by the churn dirty-region
/// walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupedMembers {
    starts: Vec<usize>,
    nodes: Vec<usize>,
}

impl GroupedMembers {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// The nodes of component `c`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn group(&self, c: usize) -> &[usize] {
        &self.nodes[self.starts[c]..self.starts[c + 1]]
    }

    /// Iterates over all component node slices in label order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        (0..self.count()).map(move |c| self.group(c))
    }
}

/// Computes connected components of `g` by BFS.
///
/// # Examples
///
/// ```
/// use splitgraph::{Graph, connected_components};
///
/// let g = Graph::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
/// let cc = connected_components(&g);
/// assert_eq!(cc.count(), 3);
/// assert_eq!(cc.max_size(), 2);
/// ```
pub fn connected_components(g: &Graph) -> Components {
    let n = g.node_count();
    let mut labels = vec![usize::MAX; n];
    let mut count = 0;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if labels[start] != usize::MAX {
            continue;
        }
        labels[start] = count;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if labels[w] == usize::MAX {
                    labels[w] = count;
                    queue.push_back(w);
                }
            }
        }
        count += 1;
    }
    Components { labels, count }
}

/// A connected component of a bipartite graph, re-indexed as its own
/// [`BipartiteGraph`] with mappings back to the original node indices.
#[derive(Debug, Clone)]
pub struct BipartiteComponent {
    /// The component as a standalone bipartite graph.
    pub graph: BipartiteGraph,
    /// `original_left[i]` is the original left index of the component's left node `i`.
    pub original_left: Vec<usize>,
    /// `original_right[j]` is the original right index of the component's right node `j`.
    pub original_right: Vec<usize>,
}

impl BipartiteComponent {
    /// Total node count of the component (`|U_c| + |V_c|`).
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }
}

/// Splits a bipartite graph into its connected components.
///
/// Isolated nodes (degree 0 on either side) form singleton components; they
/// are included so that callers can account for every node.
pub fn bipartite_components(b: &BipartiteGraph) -> Vec<BipartiteComponent> {
    // BFS straight over the two sides' rows: node `x < shift` is left
    // node `x`, node `shift + v` right node `v`; starts ascend, so labels
    // number components by their smallest node, as over `b.to_graph()`
    let shift = b.left_count();
    let n = shift + b.right_count();
    let mut labels = vec![usize::MAX; n];
    let mut count = 0;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if labels[start] != usize::MAX {
            continue;
        }
        labels[start] = count;
        queue.push_back(start);
        while let Some(x) = queue.pop_front() {
            let (row, offset) = if x < shift {
                (b.left_neighbors(x), shift)
            } else {
                (b.right_neighbors(x - shift), 0)
            };
            for &y in row {
                if labels[offset + y] == usize::MAX {
                    labels[offset + y] = count;
                    queue.push_back(offset + y);
                }
            }
        }
        count += 1;
    }
    let mut comps: Vec<BipartiteComponent> = (0..count)
        .map(|_| BipartiteComponent {
            graph: BipartiteGraph::default(),
            original_left: Vec::new(),
            original_right: Vec::new(),
        })
        .collect();
    // first pass: assign local indices
    let mut local = vec![usize::MAX; n];
    for (v, slot) in local.iter_mut().enumerate() {
        let c = labels[v];
        if v < shift {
            *slot = comps[c].original_left.len();
            comps[c].original_left.push(v);
        } else {
            *slot = comps[c].original_right.len();
            comps[c].original_right.push(v - shift);
        }
    }
    // second pass: build graphs in bulk (one edge list per component); an
    // edgeless component (an isolated node) needs no build
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (c, comp) in comps.iter_mut().enumerate() {
        let (left, right) = (comp.original_left.len(), comp.original_right.len());
        if left + right == 1 {
            comp.graph = BipartiteGraph::new(left, right);
            continue;
        }
        edges.clear();
        for (i, &orig_u) in comp.original_left.iter().enumerate() {
            for &orig_v in b.left_neighbors(orig_u) {
                debug_assert_eq!(labels[shift + orig_v], c);
                edges.push((i, local[shift + orig_v]));
            }
        }
        comp.graph =
            BipartiteGraph::from_edges(left, right, &edges).expect("component edges are simple");
    }
    comps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_components_for_isolated_nodes() {
        let g = Graph::new(3);
        let cc = connected_components(&g);
        assert_eq!(cc.count(), 3);
        assert_eq!(cc.sizes(), vec![1, 1, 1]);
        assert_eq!(cc.max_size(), 1);
    }

    #[test]
    fn two_components_with_members() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let cc = connected_components(&g);
        assert_eq!(cc.count(), 3);
        let members = cc.members();
        assert_eq!(members[cc.label(0)], vec![0, 1, 2]);
        assert_eq!(members[cc.label(3)], vec![3, 4]);
        assert_eq!(members[cc.label(5)], vec![5]);
        assert_eq!(cc.labels().len(), 6);
    }

    #[test]
    fn bipartite_components_reindex_correctly() {
        // two components: (u0; v0, v1) and (u1, u2; v2)
        let b = BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 2), (2, 2)]).unwrap();
        let comps = bipartite_components(&b);
        assert_eq!(comps.len(), 2);
        let c0 = comps.iter().find(|c| c.original_left.contains(&0)).unwrap();
        assert_eq!(c0.graph.left_count(), 1);
        assert_eq!(c0.graph.right_count(), 2);
        assert_eq!(c0.graph.edge_count(), 2);
        assert_eq!(c0.node_count(), 3);
        let c1 = comps.iter().find(|c| c.original_left.contains(&1)).unwrap();
        assert_eq!(c1.graph.left_count(), 2);
        assert_eq!(c1.graph.right_count(), 1);
        assert_eq!(c1.graph.rank(), 2);
    }

    #[test]
    fn grouped_members_match_per_component_lists() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]).unwrap();
        let cc = connected_components(&g);
        let grouped = cc.members_grouped();
        assert_eq!(grouped.count(), cc.count());
        let lists = cc.members();
        for (c, list) in lists.iter().enumerate() {
            assert_eq!(grouped.group(c), list.as_slice());
        }
        let total: usize = grouped.iter().map(<[usize]>::len).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn grouped_members_empty_graph() {
        let cc = connected_components(&Graph::new(0));
        let grouped = cc.members_grouped();
        assert_eq!(grouped.count(), 0);
        assert_eq!(grouped.iter().count(), 0);
    }

    #[test]
    fn bipartite_isolated_nodes_kept() {
        let b = BipartiteGraph::from_edges(2, 2, &[(0, 0)]).unwrap();
        let comps = bipartite_components(&b);
        assert_eq!(comps.len(), 3);
        let total_nodes: usize = comps.iter().map(|c| c.node_count()).sum();
        assert_eq!(total_nodes, 4);
    }
}
