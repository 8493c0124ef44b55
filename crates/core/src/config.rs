//! Bipartitioning configuration.

use crate::budget::Budget;
use crate::fault::FaultPlan;
use netpart_hypergraph::Hypergraph;

/// Which replication moves the bipartitioner may perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Plain FM: single-cell moves only (the baseline of \[3\]).
    None,
    /// Traditional (Kring–Newton-style) replication: the replica connects
    /// every pin of the original (gain eq. 8).
    Traditional,
    /// Functional replication (the paper's contribution): the replica
    /// keeps one output and only the inputs that output depends on; cells
    /// qualify when their replication potential `ψ` is at least
    /// `threshold` (the paper's `T`, eq. 6).
    Functional {
        /// The threshold replication potential `T`; 0 admits every
        /// multi-output cell.
        threshold: u32,
    },
}

impl ReplicationMode {
    /// Functional replication with threshold `t`.
    pub fn functional(t: u32) -> Self {
        ReplicationMode::Functional { threshold: t }
    }

    /// Returns `true` if any replication move is enabled.
    pub fn replicates(self) -> bool {
        !matches!(self, ReplicationMode::None)
    }
}

/// How the FM pass selects the next move to try.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// The classic FM gain-bucket ladder with incremental delta updates
    /// — linear-time gain maintenance, the default.
    #[default]
    GainBuckets,
    /// A lazy max-heap that re-derives every touched neighbor's best
    /// move after each applied move. Kept as the benchmark baseline the
    /// `fm_pass` bench compares against.
    LazyHeap,
}

/// Configuration of one bipartitioning run.
///
/// Construct with [`BipartitionConfig::equal`] (the paper's first
/// experiment: two equal-sized halves) or
/// [`BipartitionConfig::bounded`] (explicit per-side area windows, used
/// by the k-way carver), then adjust with the builder methods.
#[derive(Clone, Debug, PartialEq)]
pub struct BipartitionConfig {
    /// Inclusive lower area bound per side.
    pub min_area: [u64; 2],
    /// Inclusive upper area bound per side.
    pub max_area: [u64; 2],
    /// Replication moves enabled.
    pub replication: ReplicationMode,
    /// Maximum FM passes (each pass is a full lock-all-cells sweep with
    /// rollback to the best balanced prefix).
    pub max_passes: usize,
    /// Seed for the initial random placement.
    pub seed: u64,
    /// Per-side objective weight for terminal (pad) cells: a pad on side
    /// `s` costs `terminal_weight[s]` on top of the cut. The k-way carver
    /// weights the chunk side to relieve its IOB budget; the equal-halves
    /// experiment leaves both at 0 ("completely relaxing the terminal
    /// constraints", §IV).
    pub terminal_weight: [i64; 2],
    /// Cap on the total area added by replication (None = only the side
    /// bounds limit growth). The k-way carver uses a small budget so
    /// replicas do not inflate the device count.
    pub max_growth: Option<u64>,
    /// Work limits for the run; when a limit trips mid-run the
    /// bipartitioner keeps its best state so far and reports the stop in
    /// [`BipartitionResult::stop`](crate::BipartitionResult::stop)
    /// instead of aborting. [`Budget::none`] by default.
    pub budget: Budget,
    /// Deterministic fault-injection plan (testing hook); see
    /// [`FaultPlan`]. [`FaultPlan::none`] by default.
    pub fault: FaultPlan,
    /// Move-selection structure of the FM pass;
    /// [`SelectionStrategy::GainBuckets`] by default.
    pub selection: SelectionStrategy,
}

impl BipartitionConfig {
    /// Bounds for two equal halves with relative tolerance `epsilon`
    /// (side areas within `total/2 · (1 ± epsilon)`).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative.
    pub fn equal(hg: &Hypergraph, epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "tolerance must be non-negative");
        let total = hg.total_area() as f64;
        let lo = (total / 2.0 * (1.0 - epsilon)).floor() as u64;
        let hi = (total / 2.0 * (1.0 + epsilon)).ceil() as u64;
        BipartitionConfig {
            min_area: [lo, lo],
            max_area: [hi.max(1), hi.max(1)],
            replication: ReplicationMode::None,
            max_passes: 16,
            seed: 0,
            terminal_weight: [0, 0],
            max_growth: None,
            budget: Budget::none(),
            fault: FaultPlan::none(),
            selection: SelectionStrategy::default(),
        }
    }

    /// Explicit per-side area windows.
    pub fn bounded(min_area: [u64; 2], max_area: [u64; 2]) -> Self {
        BipartitionConfig {
            min_area,
            max_area,
            replication: ReplicationMode::None,
            max_passes: 16,
            seed: 0,
            terminal_weight: [0, 0],
            max_growth: None,
            budget: Budget::none(),
            fault: FaultPlan::none(),
            selection: SelectionStrategy::default(),
        }
    }

    /// Caps total replication-induced area growth.
    pub fn with_max_growth(mut self, g: Option<u64>) -> Self {
        self.max_growth = g;
        self
    }

    /// Sets the per-side terminal weights.
    pub fn with_terminal_weight(mut self, w: [i64; 2]) -> Self {
        self.terminal_weight = w;
        self
    }

    /// Sets the replication mode.
    pub fn with_replication(mut self, mode: ReplicationMode) -> Self {
        self.replication = mode;
        self
    }

    /// Sets the RNG seed for the initial placement.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the FM pass limit.
    pub fn with_max_passes(mut self, n: usize) -> Self {
        self.max_passes = n.max(1);
        self
    }

    /// Sets the run budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Arms a fault-injection plan (testing hook).
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Sets the move-selection strategy of the FM pass.
    pub fn with_selection(mut self, s: SelectionStrategy) -> Self {
        self.selection = s;
        self
    }

    /// Returns `true` if `areas` satisfies both sides' bounds.
    pub fn balanced(&self, areas: [u64; 2]) -> bool {
        (0..2).all(|i| areas[i] >= self.min_area[i] && areas[i] <= self.max_area[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_hypergraph::{AdjacencyMatrix, CellKind, HypergraphBuilder};

    fn ten_cell_graph() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let pi = b.add_cell("pi", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        let n = b.add_net("n");
        b.connect_output(n, pi, 0).unwrap();
        for i in 0..10 {
            let c = b.add_cell(
                format!("c{i}"),
                CellKind::logic(1),
                1,
                1,
                AdjacencyMatrix::full(1, 1),
            );
            b.connect_input(n, c, 0).unwrap();
            let out = b.add_net(format!("o{i}"));
            b.connect_output(out, c, 0).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn equal_bounds_bracket_half() {
        let hg = ten_cell_graph();
        let cfg = BipartitionConfig::equal(&hg, 0.2);
        assert_eq!(cfg.min_area, [4, 4]);
        assert_eq!(cfg.max_area, [6, 6]);
        assert!(cfg.balanced([5, 5]));
        assert!(cfg.balanced([4, 6]));
        assert!(!cfg.balanced([3, 7]));
    }

    #[test]
    fn builder_methods() {
        let cfg = BipartitionConfig::bounded([0, 0], [10, 10])
            .with_replication(ReplicationMode::functional(2))
            .with_seed(9)
            .with_max_passes(0);
        assert_eq!(
            cfg.replication,
            ReplicationMode::Functional { threshold: 2 }
        );
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.max_passes, 1, "pass count clamps to at least 1");
        assert!(ReplicationMode::Traditional.replicates());
        assert!(!ReplicationMode::None.replicates());
    }
}
