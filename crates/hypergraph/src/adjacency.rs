//! Output→input functional dependency of a cell and the paper's
//! *replication potential* `ψ` (eq. 4).

use crate::bitvec::BitVec;
use std::fmt;

/// The functional dependency of a cell's outputs on its inputs.
///
/// Row `i` is the paper's adjacency vector `A_Xi`: bit `j` is set iff input
/// `j` controls output `X_i`. A cell with `n` inputs and `m` outputs has an
/// `m × n` matrix.
///
/// # Examples
///
/// The 2-output cell of the paper's Fig. 2 (`X1 = f1(a1..a4)`,
/// `X2 = f2(a4, a5)`) has replication potential 4:
///
/// ```
/// use netpart_hypergraph::AdjacencyMatrix;
///
/// let adj = AdjacencyMatrix::from_rows(5, &[&[0, 1, 2, 3], &[3, 4]]);
/// assert_eq!(adj.replication_potential(), 4);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct AdjacencyMatrix {
    n_inputs: usize,
    rows: Vec<BitVec>,
}

impl AdjacencyMatrix {
    /// A matrix where every output depends on every input.
    ///
    /// This is the conservative assumption for cells whose internal function
    /// is unknown; it yields `ψ = 0` for multi-output cells, so functional
    /// replication degenerates to traditional replication.
    pub fn full(n_inputs: usize, m_outputs: usize) -> Self {
        AdjacencyMatrix {
            n_inputs,
            rows: (0..m_outputs).map(|_| BitVec::ones(n_inputs)).collect(),
        }
    }

    /// The matrix of an I/O pad: no dependency information.
    ///
    /// Suitable for terminal nodes (0-input drivers or 0-output sinks).
    pub fn pad() -> Self {
        AdjacencyMatrix {
            n_inputs: 0,
            rows: Vec::new(),
        }
    }

    /// Builds a matrix from per-output support sets (input indices).
    ///
    /// # Panics
    ///
    /// Panics if any listed input index is `>= n_inputs`.
    pub fn from_rows(n_inputs: usize, supports: &[&[usize]]) -> Self {
        AdjacencyMatrix {
            n_inputs,
            rows: supports
                .iter()
                .map(|s| BitVec::from_indices(n_inputs, s))
                .collect(),
        }
    }

    /// Builds a matrix directly from adjacency vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have length `n_inputs`.
    pub fn from_bitvec_rows(n_inputs: usize, rows: Vec<BitVec>) -> Self {
        for r in &rows {
            assert_eq!(r.len(), n_inputs, "adjacency row length mismatch");
        }
        AdjacencyMatrix { n_inputs, rows }
    }

    /// Number of inputs (matrix columns).
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of outputs (matrix rows).
    pub fn m_outputs(&self) -> usize {
        self.rows.len()
    }

    /// The adjacency vector `A_Xo` of output `o`.
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of range.
    pub fn row(&self, o: usize) -> &BitVec {
        &self.rows[o]
    }

    /// Returns `true` if input `j` controls output `o`.
    ///
    /// # Panics
    ///
    /// Panics if `o` or `j` is out of range.
    pub fn depends(&self, o: usize, j: usize) -> bool {
        self.rows[o].get(j)
    }

    /// The union of the adjacency vectors of the outputs selected by `mask`
    /// (bit `o` of `mask` selects output `o`).
    ///
    /// An input is *connected* on a cell copy keeping exactly the outputs in
    /// `mask` iff its bit is set here (or it is a [global
    /// input](Self::is_global_input)).
    pub fn support_of_mask(&self, mask: u32) -> BitVec {
        let mut acc = BitVec::zeros(self.n_inputs);
        for (o, row) in self.rows.iter().enumerate() {
            if mask & (1 << o) != 0 {
                acc.or_assign(row);
            }
        }
        acc
    }

    /// The outputs that depend on input `j`, as an output mask (bit `o`
    /// set iff input `j` controls output `o`): column `j` of the matrix.
    ///
    /// A copy keeping the outputs in `mask` connects input `j` iff
    /// `input_mask(j) & mask != 0` or `input_mask(j) == 0` (a [global
    /// input](Self::is_global_input)) — the allocation-free form of the
    /// [`support_of_mask`](Self::support_of_mask) test. Only outputs
    /// `0..32` have a bit (an output mask cannot name more), so the mask
    /// is exact for cells of at most 32 outputs.
    ///
    /// ```
    /// use netpart_hypergraph::AdjacencyMatrix;
    ///
    /// // Fig. 1 cell: X depends on {a, b}, Y depends on {b, c}.
    /// let adj = AdjacencyMatrix::from_rows(3, &[&[0, 1], &[1, 2]]);
    /// assert_eq!(adj.input_mask(0), 0b01);
    /// assert_eq!(adj.input_mask(1), 0b11);
    /// assert_eq!(adj.input_mask(2), 0b10);
    /// ```
    pub fn input_mask(&self, j: usize) -> u32 {
        self.rows
            .iter()
            .take(32)
            .enumerate()
            .filter(|(_, r)| r.get(j))
            .fold(0, |acc, (o, _)| acc | 1 << o)
    }

    /// Returns `true` if input `j` controls no output at all.
    ///
    /// Such "global" inputs (e.g. a clock absorbed into a sequential cell
    /// model without a combinational output dependency) are treated as
    /// connected on every copy of a replicated cell — they can never float.
    pub fn is_global_input(&self, j: usize) -> bool {
        !self.rows.iter().any(|r| r.get(j))
    }

    /// The number of outputs that depend on input `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n_inputs`.
    pub fn fanout_of_input(&self, j: usize) -> usize {
        assert!(j < self.n_inputs, "input index out of range");
        self.rows.iter().filter(|r| r.get(j)).count()
    }

    /// The paper's replication potential `ψ` (eq. 4): the number of inputs
    /// that control **exactly one** output. Defined as 0 for cells with at
    /// most one output.
    ///
    /// ```
    /// use netpart_hypergraph::AdjacencyMatrix;
    ///
    /// // Fig. 1 cell: X depends on {a, b}, Y depends on {b, c} → ψ = 2.
    /// let adj = AdjacencyMatrix::from_rows(3, &[&[0, 1], &[1, 2]]);
    /// assert_eq!(adj.replication_potential(), 2);
    /// // Single-output cells have ψ = 0 by definition.
    /// assert_eq!(AdjacencyMatrix::full(4, 1).replication_potential(), 0);
    /// ```
    pub fn replication_potential(&self) -> usize {
        if self.m_outputs() <= 1 {
            return 0;
        }
        // Evaluate eq. 4 literally: for each output i, count inputs adjacent
        // to X_i and to no other output — ‖ A_Xi ∧ Π_{j≠i} ¬A_Xj ‖ — and sum.
        let mut psi = 0;
        for i in 0..self.m_outputs() {
            let mut only_i = self.rows[i].clone();
            for (j, row) in self.rows.iter().enumerate() {
                if j != i {
                    only_i = only_i.and(&row.complement());
                }
            }
            psi += only_i.norm();
        }
        psi
    }
}

impl fmt::Debug for AdjacencyMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AdjacencyMatrix({}x{})[",
            self.m_outputs(),
            self.n_inputs
        )?;
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_replication_potential_is_4() {
        let adj = AdjacencyMatrix::from_rows(5, &[&[0, 1, 2, 3], &[3, 4]]);
        assert_eq!(adj.replication_potential(), 4);
    }

    #[test]
    fn fig1_replication_potential_is_2() {
        let adj = AdjacencyMatrix::from_rows(3, &[&[0, 1], &[1, 2]]);
        assert_eq!(adj.replication_potential(), 2);
    }

    #[test]
    fn single_output_psi_zero() {
        assert_eq!(AdjacencyMatrix::full(5, 1).replication_potential(), 0);
        assert_eq!(AdjacencyMatrix::pad().replication_potential(), 0);
    }

    #[test]
    fn identical_supports_psi_zero() {
        // Two outputs both depending on every input: no input is exclusive.
        assert_eq!(AdjacencyMatrix::full(4, 2).replication_potential(), 0);
    }

    #[test]
    fn disjoint_supports_psi_is_all_inputs() {
        let adj = AdjacencyMatrix::from_rows(6, &[&[0, 1, 2], &[3, 4, 5]]);
        assert_eq!(adj.replication_potential(), 6);
    }

    #[test]
    fn three_output_psi() {
        // input 0 → {X0}, input 1 → {X0,X1}, input 2 → {X1,X2}, input 3 → {X2}
        let adj = AdjacencyMatrix::from_rows(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        assert_eq!(adj.replication_potential(), 2);
    }

    #[test]
    fn support_of_mask_unions_rows() {
        let adj = AdjacencyMatrix::from_rows(5, &[&[0, 1, 2, 3], &[3, 4]]);
        assert_eq!(
            adj.support_of_mask(0b01).iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(
            adj.support_of_mask(0b10).iter_ones().collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert_eq!(adj.support_of_mask(0b11).norm(), 5);
        assert_eq!(adj.support_of_mask(0).norm(), 0);
    }

    #[test]
    fn global_inputs_detected() {
        let adj = AdjacencyMatrix::from_rows(3, &[&[0], &[2]]);
        assert!(adj.is_global_input(1));
        assert!(!adj.is_global_input(0));
        assert_eq!(adj.fanout_of_input(0), 1);
        assert_eq!(adj.fanout_of_input(1), 0);
    }
}
