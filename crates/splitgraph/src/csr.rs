//! Flat compressed-sparse-row (CSR) storage.
//!
//! A [`Csr`] packs all adjacency rows of a graph into two flat buffers: a
//! prefix-sum `offsets` array of length `n + 1` and a `targets` array holding
//! the concatenated rows, so row `v` is the contiguous slice
//! `targets[offsets[v]..offsets[v + 1]]`. Construction is a stable two-pass
//! counting sort over the input pairs — `O(n + m)` with no per-entry
//! shifting. A sorted `Csr` *is* the storage of [`crate::Graph`]
//! ([`crate::Graph::from_edges`] builds it in bulk), and the power-graph
//! kernels emit one row by row. The same layout doubles as a flat
//! *incidence* structure for multigraphs ([`Csr::from_incidence`]), where row
//! entries are edge ids instead of neighbor ids.

/// Flat CSR rows: `offsets` (length `n + 1`) into a concatenated `targets`
/// buffer. Rows preserve the insertion order of the building pass until
/// [`Csr::sort_rows`] is called.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Csr {
    /// Shared two-pass counting-sort core: `emit` maps the `e`-th pair to
    /// two `(row, value)` slots; the first pass counts rows, the second
    /// places values, preserving input order within each row.
    fn from_slots(
        n: usize,
        pairs: &[(usize, usize)],
        emit: impl Fn(usize, (usize, usize)) -> [(usize, usize); 2],
    ) -> Csr {
        let mut counts = vec![0usize; n + 1];
        for (e, &p) in pairs.iter().enumerate() {
            for (r, _) in emit(e, p) {
                debug_assert!(r < n, "row {r} out of range {n}");
                counts[r + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0usize; 2 * pairs.len()];
        for (e, &p) in pairs.iter().enumerate() {
            for (r, v) in emit(e, p) {
                targets[cursor[r]] = v;
                cursor[r] += 1;
            }
        }
        Csr { offsets, targets }
    }

    /// Builds rows from undirected pairs: each `{u, v}` appends `v` to row
    /// `u` and `u` to row `v` (a self-pair appends twice to the same row).
    pub fn from_undirected_pairs(n: usize, pairs: &[(usize, usize)]) -> Csr {
        Csr::from_slots(n, pairs, |_, (u, v)| [(u, v), (v, u)])
    }

    /// Builds a flat *incidence* structure from edge endpoints: row `v`
    /// lists the indices of the pairs incident to `v`, in input order; a
    /// self-loop `(v, v)` appears twice in row `v` (it contributes 2 to the
    /// degree), matching [`crate::MultiGraph`] semantics.
    pub fn from_incidence(n: usize, endpoints: &[(usize, usize)]) -> Csr {
        Csr::from_slots(n, endpoints, |e, (a, b)| [(a, e), (b, e)])
    }

    /// Assembles a CSR from already-built parts.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is not a monotone prefix-sum array ending at
    /// `targets.len()`.
    pub fn from_parts(offsets: Vec<usize>, targets: Vec<usize>) -> Csr {
        assert!(!offsets.is_empty(), "offsets must have length n + 1");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len(),
            "offsets must end at targets.len()"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        Csr { offsets, targets }
    }

    /// Number of rows `n`.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of entries across all rows.
    pub fn entry_count(&self) -> usize {
        self.targets.len()
    }

    /// The contiguous row of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn row(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Length of row `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn row_len(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorts every row ascending (`O(m log Δ)` total).
    pub fn sort_rows(&mut self) {
        for v in 0..self.node_count() {
            let (lo, hi) = (self.offsets[v], self.offsets[v + 1]);
            self.targets[lo..hi].sort_unstable();
        }
    }

    /// The `offsets` and `targets` buffers.
    pub(crate) fn parts(&self) -> (&[usize], &[usize]) {
        (&self.offsets, &self.targets)
    }

    /// Unpacks into one owned `Vec` per row (the growable incidence lists
    /// of [`crate::MultiGraph`]).
    pub fn into_rows(self) -> Vec<Vec<usize>> {
        let n = self.node_count();
        let mut rows = Vec::with_capacity(n);
        for v in 0..n {
            rows.push(self.row(v).to_vec());
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undirected_pairs_fill_both_rows() {
        let c = Csr::from_undirected_pairs(3, &[(0, 1), (1, 2)]);
        assert_eq!(c.row(0), &[1]);
        assert_eq!(c.row(1), &[0, 2]);
        assert_eq!(c.row(2), &[1]);
    }

    #[test]
    fn incidence_lists_edge_ids_with_double_self_loop() {
        let c = Csr::from_incidence(3, &[(0, 1), (1, 1), (2, 0)]);
        assert_eq!(c.row(0), &[0, 2]);
        assert_eq!(c.row(1), &[0, 1, 1]);
        assert_eq!(c.row(2), &[2]);
    }

    #[test]
    fn sort_rows_keeps_duplicates() {
        let mut c = Csr::from_parts(vec![0, 3, 5], vec![3, 1, 3, 2, 2]);
        c.sort_rows();
        assert_eq!(c.row(0), &[1, 3, 3]);
        assert_eq!(c.row(1), &[2, 2]);
        assert_eq!(c.entry_count(), 5);
    }

    #[test]
    fn empty_rows_and_round_trip() {
        let c = Csr::from_parts(vec![0, 0, 0, 1, 1], vec![0]);
        assert_eq!(c.row(0), &[] as &[usize]);
        assert_eq!(c.row_len(3), 0);
        assert_eq!(c.into_rows(), vec![vec![], vec![], vec![0], vec![]]);
    }
}
