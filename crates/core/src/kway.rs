//! Recursive, device-aware k-way partitioning: minimum total device cost
//! (eq. 1) and minimum interconnect (eq. 2) over a heterogeneous FPGA
//! library — the paper's second experiment, extending the framework of
//! \[3\] with functional replication.
//!
//! The carver repeatedly bipartitions the remaining circuit into a chunk
//! that is feasible on a chosen device (CLB count within `[l·c, u·c]`,
//! terminals within `t`) and a remainder, until the remainder itself fits
//! a device. Many randomized carves are attempted; among the feasible
//! k-way partitions found (the paper generates 50 per run), the cheapest
//! — tie-broken by average IOB utilization — wins.
//!
//! # Resilience
//!
//! [`kway_partition`] is a *driver*: it validates its input up front,
//! honors the [`Budget`]/[`FaultPlan`] in its configuration, and when
//! the requested attempt pool produces nothing feasible it climbs an
//! escalation ladder instead of giving up:
//!
//! 1. **Reseed** — grant a second attempt pool from a derived seed;
//! 2. **Relax the floor** — drop every device's lower utilization bound
//!    `l_i` to 0 (parts may underfill; cost suffers, feasibility wins);
//! 3. **Prefer larger devices** — place pieces on the *largest* fitting
//!    device instead of the cheapest, buying terminal headroom.
//!
//! Every rung actually climbed is recorded in
//! [`KWayResult::degradation`], so a caller can tell a pristine answer
//! from a rescued one. Only when the whole ladder fails (or the budget
//! dies first) does the driver return a typed [`PartitionError`].

use crate::budget::{Budget, RunClock};
use crate::config::{BipartitionConfig, ReplicationMode, SelectionStrategy};
use crate::error::{Degradation, PartitionError, Relaxation, StopReason};
use crate::extract::{extract_rest, Extraction};
use crate::fault::FaultPlan;
use crate::fm::bipartition_with_clock;
use netpart_fpga::{try_evaluate, DeviceLibrary, Evaluation};
use netpart_hypergraph::{CellCopy, CellId, Hypergraph, PartId, Placement};
use netpart_obs::{Event, Level, Recorder};
use netpart_rng::Rng;

/// Configuration of the k-way partitioner.
#[derive(Clone, Debug)]
pub struct KWayConfig {
    /// The device library to implement the circuit with.
    pub library: DeviceLibrary,
    /// Replication moves used inside each carve bipartition.
    /// [`ReplicationMode::Traditional`] is not supported here (its copies
    /// have no placement representation).
    pub replication: ReplicationMode,
    /// Stop after this many *feasible* k-way partitions (the paper uses
    /// 50 per run).
    pub candidates: usize,
    /// Hard cap on carve attempts (feasible or not) per escalation rung.
    pub max_attempts: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// FM pass limit inside each carve bipartition.
    pub max_passes: usize,
    /// Run the direct multi-way refinement pass (an extension beyond the
    /// paper: [`refine_kway`](crate::refine_kway) plus
    /// [`unreplicate_cleanup`](crate::unreplicate_cleanup)) on the winning
    /// partition.
    pub refine: bool,
    /// Whether the escalation ladder (reseed → relax floor → larger
    /// devices) may climb when the base attempt pool finds nothing
    /// feasible. `true` by default; the parallel portfolio engine turns
    /// it off for its first phase so that a sibling task's feasible
    /// result (the shared incumbent) can make the ladder unnecessary,
    /// and only re-enables it in a dedicated rescue phase when *no* task
    /// found anything.
    pub escalate: bool,
    /// Work limits shared across every attempt and escalation rung; on
    /// exhaustion the best feasible partition found so far is returned
    /// (with [`KWayResult::degradation`] set), or
    /// [`PartitionError::BudgetExhausted`] if there is none yet.
    pub budget: Budget,
    /// Deterministic fault-injection plan (testing hook).
    pub fault: FaultPlan,
    /// Move-selection structure used inside each carve bipartition;
    /// [`SelectionStrategy::GainBuckets`] by default.
    pub selection: SelectionStrategy,
}

impl KWayConfig {
    /// A configuration with the paper's defaults (50 candidate feasible
    /// partitions) for the given library.
    pub fn new(library: DeviceLibrary) -> Self {
        KWayConfig {
            library,
            replication: ReplicationMode::None,
            candidates: 50,
            max_attempts: 200,
            seed: 0,
            max_passes: 8,
            refine: false,
            escalate: true,
            budget: Budget::none(),
            fault: FaultPlan::none(),
            selection: SelectionStrategy::default(),
        }
    }

    /// Sets the hard cap on carve attempts (feasible or not). Each
    /// failed attempt costs a full recursive FM run, so this bounds the
    /// worst-case runtime on infeasible inputs. Call *after*
    /// [`with_candidates`](Self::with_candidates), which rescales the cap.
    pub fn with_max_attempts(mut self, n: usize) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Enables the post-carve multi-way refinement extension.
    pub fn with_refine(mut self, refine: bool) -> Self {
        self.refine = refine;
        self
    }

    /// Enables or disables the escalation ladder (see
    /// [`KWayConfig::escalate`]).
    pub fn with_escalation(mut self, on: bool) -> Self {
        self.escalate = on;
        self
    }

    /// Sets the replication mode.
    ///
    /// # Panics
    ///
    /// Panics on [`ReplicationMode::Traditional`].
    pub fn with_replication(mut self, mode: ReplicationMode) -> Self {
        assert!(
            !matches!(mode, ReplicationMode::Traditional),
            "traditional replication is not supported in k-way partitioning"
        );
        self.replication = mode;
        self
    }

    /// Sets the feasible-candidate target and scales the attempt cap to
    /// `8×` it (at least 32), bounding the cost of infeasible inputs.
    pub fn with_candidates(mut self, n: usize) -> Self {
        self.candidates = n.max(1);
        self.max_attempts = (8 * self.candidates).max(32);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the FM pass limit per carve step.
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

    /// Sets the move-selection strategy of the carve FM passes.
    pub fn with_selection(mut self, s: SelectionStrategy) -> Self {
        self.selection = s;
        self
    }
}

/// A feasible k-way partition with its devices and evaluation.
#[derive(Clone, Debug)]
pub struct KWayResult {
    /// The k-part placement on the original circuit (replicated cells
    /// have one copy per part they appear in).
    pub placement: Placement,
    /// Library index of the device implementing each part.
    pub devices: Vec<usize>,
    /// Cost/utilization evaluation (eqs. 1 and 2). When
    /// [`degradation`](Self::degradation) records a
    /// [`Relaxation::RelaxedFloor`], feasibility here is judged against
    /// the *relaxed* library (underfilled devices count as feasible).
    pub evaluation: Evaluation,
    /// Total carve attempts made, across every escalation rung.
    pub attempts: usize,
    /// Feasible partitions found (≥ 1).
    pub feasible_found: usize,
    /// How the driver degraded (budget shortfall, escalation rungs
    /// climbed) to produce this result; un-degraded when the requested
    /// candidate pool completed under the original constraints.
    pub degradation: Degradation,
}

impl KWayResult {
    /// The library this result was actually evaluated against: `base`
    /// itself, or its floor-relaxed variant when the escalation ladder
    /// recorded a [`Relaxation::RelaxedFloor`].
    pub fn effective_library(&self, base: &DeviceLibrary) -> DeviceLibrary {
        if self
            .degradation
            .relaxations
            .contains(&Relaxation::RelaxedFloor)
        {
            base.relaxed_floor()
        } else {
            base.clone()
        }
    }

    /// Serializes this result as an independently checkable
    /// [`SolutionCertificate`](netpart_verify::SolutionCertificate).
    ///
    /// `library` is the *base* configuration library; the certificate
    /// embeds [`effective_library`](Self::effective_library) so the
    /// verifier judges feasibility against the same window the run did.
    pub fn certificate(
        &self,
        hg: &Hypergraph,
        library: &DeviceLibrary,
        seed: u64,
    ) -> netpart_verify::SolutionCertificate {
        netpart_verify::SolutionCertificate::from_kway(
            hg,
            &self.placement,
            &self.effective_library(library),
            &self.devices,
            &self.evaluation,
            seed,
        )
    }
}

/// Records the cells of part `which` (of a placement of `piece`) into
/// the global assignment list under top-level part id `part`.
fn record_part(
    piece: &Extraction,
    placement: &Placement,
    which: PartId,
    part: u16,
    assignments: &mut Vec<(CellId, u32, u16)>,
) {
    for c in piece.hypergraph.cell_ids() {
        if let Some((top, top_mask)) = piece.origin[c.index()] {
            for copy in placement.copies(c) {
                if copy.part == which {
                    assignments.push((
                        top,
                        crate::extract::project_mask(top_mask, copy.outputs),
                        part,
                    ));
                }
            }
        }
    }
}

/// Emits the paper-metric gauges for an incumbent evaluation: `$_k`
/// (eq. 1) as `paper.cost_k`, `k̄` (eq. 2) as `paper.kbar` and the
/// per-device histogram as `paper.devices`. Shared with the portfolio
/// engine so both layers report the paper's metrics identically.
pub fn record_paper_gauges(recorder: &dyn Recorder, eval: &Evaluation, lib: &DeviceLibrary) {
    recorder.record(&Event::gauge("paper", "cost_k", eval.total_cost as f64));
    recorder.record(&Event::gauge("paper", "kbar", eval.avg_iob_util));
    let bins: Vec<u64> = eval
        .device_histogram(lib.len())
        .into_iter()
        .map(|n| n as u64)
        .collect();
    recorder.record(&Event::hist("paper", "devices", bins));
}

/// The IOBs a whole piece uses on one device: its pins on terminal
/// cells. With every cell in one part no net crosses and every pin is
/// connected, so [`Placement::part_terminals`] reduces to this sum —
/// without building the placement or walking the nets.
fn whole_piece_terminals(hg: &Hypergraph) -> u64 {
    let terminals: usize = hg
        .cells()
        .iter()
        .filter(|c| c.is_terminal())
        .map(|c| c.n_inputs() + c.m_outputs())
        .sum();
    debug_assert_eq!(
        terminals,
        Placement::new_uniform(hg, 1, PartId(0)).part_terminals(hg, PartId(0)),
        "one-part IOB count"
    );
    terminals as u64
}

/// One carve attempt against `lib` (the possibly-relaxed library):
/// returns the global placement and device list, or `None` if the
/// attempt dead-ends or the clock trips.
///
/// Pieces that fit no device are split recursively, mixing two
/// strategies: **balanced halving** (the recursive min-cut bisection of
/// \[3\]) and **device carving** (split off a chunk sized exactly for a
/// randomly chosen device, with the FM objective weighted to keep pads
/// out of the chunk). Pieces that fit take their cheapest feasible
/// device — or, when `prefer_large` (escalation rung 3), the largest,
/// trading cost for terminal headroom.
fn carve_once(
    hg: &Hypergraph,
    cfg: &KWayConfig,
    lib: &DeviceLibrary,
    prefer_large: bool,
    rng: &mut Rng,
    clock: &RunClock,
) -> Option<(Placement, Vec<usize>)> {
    // (top-level cell, top-level mask, part)
    let mut assignments: Vec<(CellId, u32, u16)> = Vec::new();
    let mut devices: Vec<usize> = Vec::new();
    let mut stack: Vec<Extraction> = vec![Extraction::identity(hg)];

    while let Some(piece) = stack.pop() {
        if clock.stopped().is_some() {
            return None;
        }
        if devices.len() + stack.len() >= netpart_hypergraph::MAX_PARTS {
            return None;
        }
        let area = piece.hypergraph.total_area();
        let terminals = whole_piece_terminals(&piece.hypergraph);
        let fitting = if prefer_large {
            lib.largest_fitting(area, terminals)
        } else {
            lib.cheapest_fitting(area, terminals)
        };
        if let Some(dev) = fitting {
            let part = devices.len() as u16;
            let di = lib.index_of(dev.name()).expect("library device");
            let single = Placement::new_uniform(&piece.hypergraph, 1, PartId(0));
            record_part(&piece, &single, PartId(0), part, &mut assignments);
            devices.push(di);
            continue;
        }
        let recorder = clock.recorder();
        if recorder.enabled(Level::Trace) {
            recorder.record(
                &Event::new("kway", "carve.no_fit", Level::Trace)
                    .field("area", area)
                    .field("terminals", terminals),
            );
        }
        if area < 2 {
            if recorder.enabled(Level::Debug) {
                recorder.record(
                    &Event::new("kway", "carve.unsplittable", Level::Debug)
                        .field("area", area)
                        .field("terminals", terminals),
                );
            }
            return None; // terminals alone make the piece infeasible
        }

        // Choose a split strategy for this piece.
        let carve_device = if rng.gen_bool(0.5) {
            // Prefer the largest device whose feasibility window fits
            // inside the piece, randomized for candidate diversity.
            let eligible: Vec<usize> = (0..lib.len())
                .filter(|&i| {
                    let d = lib.device(i);
                    d.min_clbs() <= (area - 1).min(d.max_clbs())
                })
                .collect();
            if eligible.is_empty() {
                None
            } else if rng.gen_bool(0.6) {
                eligible.last().copied()
            } else {
                Some(eligible[rng.gen_range(0..eligible.len())])
            }
        } else {
            None
        };

        // Retry plan: the chosen strategy twice, then balanced halving
        // as a fallback (halving always lets the recursion proceed; an
        // oversized piece is simply split again).
        let plans: Vec<Option<usize>> = match carve_device {
            Some(di) => vec![Some(di), Some(di), None, None],
            None => vec![None, None, None],
        };

        let mut split_done = false;
        for plan in plans {
            let (bounds_min, bounds_max, tweight) = match plan {
                Some(di) => {
                    let d = lib.device(di);
                    (
                        [d.min_clbs(), 0],
                        [d.max_clbs().min(area - 1), area],
                        [1i64, 0i64],
                    )
                }
                None => {
                    // Balanced halving with ±10% slack.
                    let lo = (area as f64 / 2.0 * 0.9).floor() as u64;
                    let hi = (area as f64 / 2.0 * 1.1).ceil() as u64;
                    ([lo, lo], [hi.max(1), hi.max(1)], [0i64, 0i64])
                }
            };
            let bcfg = BipartitionConfig::bounded(bounds_min, bounds_max)
                .with_replication(cfg.replication)
                .with_seed(rng.next_u64())
                .with_max_passes(cfg.max_passes)
                .with_terminal_weight(tweight)
                .with_max_growth(Some((area / 16).max(4)))
                .with_selection(cfg.selection);
            let res = bipartition_with_clock(&piece.hypergraph, &bcfg, clock);
            if clock.stopped().is_some() {
                return None;
            }
            if !res.balanced {
                if recorder.enabled(Level::Trace) {
                    recorder.record(
                        &Event::new("kway", "carve.split_unbalanced", Level::Trace)
                            .field("area", area)
                            .field("got", vec![res.areas[0], res.areas[1]])
                            .field("want_min", vec![bounds_min[0], bounds_min[1]])
                            .field("want_max", vec![bounds_max[0], bounds_max[1]]),
                    );
                }
                continue;
            }
            let placement = res.placement.expect("non-traditional modes export");
            match plan {
                Some(di) => {
                    let tcounts = placement.part_terminal_counts(&piece.hypergraph);
                    let dev = lib.device(di);
                    if tcounts[0] as u64 > u64::from(dev.iobs()) {
                        if recorder.enabled(Level::Trace) {
                            recorder.record(
                                &Event::new("kway", "carve.chunk_overflow", Level::Trace)
                                    .field("terminals", tcounts[0])
                                    .field("iobs", dev.iobs())
                                    .field("device", dev.name()),
                            );
                        }
                        continue;
                    }
                    let part = devices.len() as u16;
                    record_part(&piece, &placement, PartId(0), part, &mut assignments);
                    devices.push(di);
                    stack.push(extract_rest(
                        &piece.hypergraph,
                        &placement,
                        PartId(1),
                        &piece.origin,
                    ));
                }
                None => {
                    stack.push(extract_rest(
                        &piece.hypergraph,
                        &placement,
                        PartId(0),
                        &piece.origin,
                    ));
                    stack.push(extract_rest(
                        &piece.hypergraph,
                        &placement,
                        PartId(1),
                        &piece.origin,
                    ));
                }
            }
            split_done = true;
            break;
        }
        if !split_done {
            return None;
        }
    }

    // Stitch the global placement together.
    let k = devices.len();
    let mut copies: Vec<Vec<CellCopy>> = vec![Vec::new(); hg.n_cells()];
    for (cell, mask, part) in assignments {
        copies[cell.index()].push(CellCopy {
            part: PartId(part),
            outputs: mask,
        });
    }
    let mut placement = Placement::new_uniform(hg, k.max(1), PartId(0));
    for c in hg.cell_ids() {
        let list = std::mem::take(&mut copies[c.index()]);
        debug_assert!(!list.is_empty(), "every cell must land somewhere");
        placement.set_copies(c, list);
    }
    debug_assert!(placement.validate(hg).is_ok());
    Some((placement, devices))
}

/// The best candidate found so far, with the library it was judged by.
struct BestCandidate {
    placement: Placement,
    devices: Vec<usize>,
    evaluation: Evaluation,
}

struct StageOutcome {
    attempts: usize,
    feasible: usize,
}

/// Runs one escalation rung: up to `max_attempts` carves against `lib`,
/// stopping early at `cfg.candidates` feasible partitions or a tripped
/// clock.
#[allow(clippy::too_many_arguments)]
fn run_stage(
    hg: &Hypergraph,
    cfg: &KWayConfig,
    lib: &DeviceLibrary,
    prefer_large: bool,
    rng: &mut Rng,
    clock: &RunClock,
    max_attempts: usize,
    feasible_so_far: usize,
    best: &mut Option<BestCandidate>,
    rung: &'static str,
) -> StageOutcome {
    let recorder = clock.recorder();
    let mut attempts = 0usize;
    let mut feasible = 0usize;
    while attempts < max_attempts && feasible_so_far + feasible < cfg.candidates {
        if clock.tick_attempt().is_some() {
            break;
        }
        attempts += 1;
        let Some((placement, devices)) = carve_once(hg, cfg, lib, prefer_large, rng, clock) else {
            if clock.stopped().is_some() {
                break;
            }
            continue;
        };
        // `devices` indexes `lib` by construction, so evaluation cannot
        // fail; a defect here is skipped rather than propagated.
        let Ok(eval) = try_evaluate(hg, &placement, lib, &devices) else {
            debug_assert!(false, "carve produced an unevaluable placement");
            continue;
        };
        if !eval.feasible {
            continue;
        }
        feasible += 1;
        let better = match &*best {
            None => true,
            Some(b) => {
                (eval.total_cost, eval.avg_iob_util)
                    < (b.evaluation.total_cost, b.evaluation.avg_iob_util)
            }
        };
        if better {
            if recorder.enabled(Level::Info) {
                recorder.record(
                    &Event::new("kway", "incumbent", Level::Info)
                        .field("rung", rung)
                        .field("attempt", attempts)
                        .field("cost", eval.total_cost)
                        .field("kbar", eval.avg_iob_util)
                        .field("k", eval.k()),
                );
                record_paper_gauges(recorder, &eval, lib);
            }
            *best = Some(BestCandidate {
                placement,
                devices,
                evaluation: eval,
            });
        }
    }
    if recorder.enabled(Level::Debug) {
        recorder.record(
            &Event::new("kway", "stage", Level::Debug)
                .field("rung", rung)
                .field("attempts", attempts)
                .field("feasible", feasible),
        );
        recorder.record(&Event::counter("kway", "attempts", attempts as u64).at(Level::Debug));
        recorder.record(&Event::counter("kway", "feasible", feasible as u64).at(Level::Debug));
    }
    StageOutcome { attempts, feasible }
}

/// Finds a minimum-cost feasible k-way partition.
///
/// Randomized carve attempts run until [`KWayConfig::candidates`]
/// feasible partitions are found or [`KWayConfig::max_attempts`] is
/// exhausted; the best by `(total cost, average IOB utilization)` is
/// returned. If the first pool yields nothing feasible, the escalation
/// ladder (reseed → relax `l_i` floor → prefer larger devices) is
/// climbed before declaring the input infeasible; rungs climbed are
/// recorded in [`KWayResult::degradation`].
///
/// # Errors
///
/// * [`PartitionError::InvalidInput`] on an empty hypergraph or a
///   [`ReplicationMode::Traditional`] configuration.
/// * [`PartitionError::InfeasibleLibrary`] when a single cell exceeds
///   every device (detected statically) or the full escalation ladder
///   finds nothing feasible.
/// * [`PartitionError::BudgetExhausted`] when the budget (or an injected
///   fault) trips before the first feasible partition exists.
pub fn kway_partition(hg: &Hypergraph, cfg: &KWayConfig) -> Result<KWayResult, PartitionError> {
    let clock = RunClock::new(&cfg.budget, &cfg.fault);
    kway_partition_with_clock(hg, cfg, &clock)
}

/// [`kway_partition`] against an externally owned [`RunClock`], so a
/// parallel portfolio can share one wall deadline and
/// [`CancelToken`](crate::CancelToken) across concurrently carving
/// tasks. The clock's budget/fault plan (not `cfg.budget`/`cfg.fault`)
/// is what is enforced here.
pub fn kway_partition_with_clock(
    hg: &Hypergraph,
    cfg: &KWayConfig,
    clock: &RunClock,
) -> Result<KWayResult, PartitionError> {
    if hg.n_cells() == 0 {
        return Err(PartitionError::invalid_input(
            "cannot partition an empty hypergraph",
        ));
    }
    if matches!(cfg.replication, ReplicationMode::Traditional) {
        return Err(PartitionError::invalid_input(
            "traditional replication is not supported in k-way partitioning",
        ));
    }
    let max_clbs = cfg.library.max_clbs_per_device();
    if hg.total_area() > 0 && max_clbs == 0 {
        return Err(PartitionError::InfeasibleLibrary {
            reason: "every device in the library has zero usable CLB capacity".into(),
            attempts: 0,
        });
    }
    if let Some(biggest) = hg.cells().iter().map(|c| u64::from(c.area())).max() {
        if biggest > max_clbs {
            return Err(PartitionError::InfeasibleLibrary {
                reason: format!(
                    "a single cell of area {biggest} exceeds the largest usable device capacity {max_clbs}"
                ),
                attempts: 0,
            });
        }
    }

    let recorder = clock.recorder();
    if recorder.enabled(Level::Debug) {
        // The replication-potential distribution d_X(ψ) (paper eq. 5) of
        // the input — deterministic per circuit, emitted once per run.
        let bins: Vec<u64> = hg
            .replication_potential_distribution()
            .into_iter()
            .map(|n| n as u64)
            .collect();
        recorder.record(&Event::hist("paper", "d_psi", bins).at(Level::Debug));
    }
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut best: Option<BestCandidate> = None;
    let mut degradation = Degradation {
        requested: cfg.candidates,
        ..Degradation::default()
    };
    let mut attempts = 0usize;
    let mut feasible = 0usize;
    let mut floor_relaxed = false;

    // Rung 0: exactly as configured.
    let s = run_stage(
        hg,
        cfg,
        &cfg.library,
        false,
        &mut rng,
        clock,
        cfg.max_attempts,
        0,
        &mut best,
        "base",
    );
    attempts += s.attempts;
    feasible += s.feasible;

    // The ladder only climbs while escalation is enabled, nothing
    // feasible exists and work is still allowed; each rung is recorded
    // whether or not it rescues the run, so the report shows everything
    // that was tried.
    let escalate_event = |rung: &'static str, attempts_so_far: usize| {
        if recorder.enabled(Level::Info) {
            recorder.record(
                &Event::new("kway", "escalate", Level::Info)
                    .field("rung", rung)
                    .field("attempts_so_far", attempts_so_far),
            );
        }
    };
    if cfg.escalate && best.is_none() && clock.stopped().is_none() {
        escalate_event("reseed", attempts);
        degradation.relaxations.push(Relaxation::Reseeded {
            extra_attempts: cfg.max_attempts,
        });
        let mut rng2 = Rng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
        let s = run_stage(
            hg,
            cfg,
            &cfg.library,
            false,
            &mut rng2,
            clock,
            cfg.max_attempts,
            0,
            &mut best,
            "reseed",
        );
        attempts += s.attempts;
        feasible += s.feasible;
    }
    let relaxed = if cfg.escalate && best.is_none() && clock.stopped().is_none() {
        escalate_event("relaxed_floor", attempts);
        degradation.relaxations.push(Relaxation::RelaxedFloor);
        floor_relaxed = true;
        let relaxed = cfg.library.relaxed_floor();
        let s = run_stage(
            hg,
            cfg,
            &relaxed,
            false,
            &mut rng,
            clock,
            cfg.max_attempts,
            0,
            &mut best,
            "relaxed_floor",
        );
        attempts += s.attempts;
        feasible += s.feasible;
        Some(relaxed)
    } else {
        None
    };
    if cfg.escalate && best.is_none() && clock.stopped().is_none() {
        escalate_event("larger_device", attempts);
        degradation.relaxations.push(Relaxation::NextLargerDevice);
        let lib = relaxed.as_ref().unwrap_or(&cfg.library);
        let s = run_stage(
            hg,
            cfg,
            lib,
            true,
            &mut rng,
            clock,
            cfg.max_attempts,
            0,
            &mut best,
            "larger_device",
        );
        attempts += s.attempts;
        feasible += s.feasible;
    }

    degradation.completed = feasible.min(cfg.candidates);
    degradation.budget_exhausted = clock.stopped() == Some(StopReason::BudgetExhausted);
    degradation.fault_injected = clock.stopped() == Some(StopReason::FaultInjected);

    if recorder.enabled(Level::Debug) {
        // Budget consumption at the end of the attempt pools. Note the
        // clock may be shared across portfolio tasks, in which case
        // these are pool-wide totals.
        recorder.record(
            &Event::new("kway", "budget", Level::Debug)
                .field("moves", clock.moves())
                .field("passes", clock.passes())
                .field("attempts", clock.attempts())
                .field("stopped", format!("{:?}", clock.stopped())),
        );
    }

    let Some(mut b) = best else {
        return Err(match clock.stopped() {
            Some(StopReason::BudgetExhausted) => PartitionError::BudgetExhausted {
                budget: cfg.budget.describe(),
                completed: attempts,
            },
            Some(StopReason::FaultInjected) => PartitionError::BudgetExhausted {
                budget: "injected fault".into(),
                completed: attempts,
            },
            Some(StopReason::Cancelled) => PartitionError::BudgetExhausted {
                budget: "cancelled by the portfolio".into(),
                completed: attempts,
            },
            _ => PartitionError::InfeasibleLibrary {
                reason: if cfg.escalate {
                    "no feasible k-way partition found, even after reseeding, \
                     floor relaxation and larger-device escalation"
                        .into()
                } else {
                    "no feasible k-way partition found in the base attempt pool \
                     (escalation disabled)"
                        .to_string()
                },
                attempts,
            },
        });
    };

    if cfg.refine {
        let lib = if floor_relaxed {
            relaxed.as_ref().unwrap_or(&cfg.library)
        } else {
            &cfg.library
        };
        crate::refine::unreplicate_cleanup(hg, &mut b.placement, &b.devices, lib);
        crate::refine::refine_kway(hg, &mut b.placement, &b.devices, lib, 4);
        b.evaluation = try_evaluate(hg, &b.placement, lib, &b.devices)
            .map_err(|e| PartitionError::internal(e.to_string()))?;
    }
    if recorder.enabled(Level::Info) {
        recorder.record(
            &Event::new("kway", "done", Level::Info)
                .field("cost", b.evaluation.total_cost)
                .field("kbar", b.evaluation.avg_iob_util)
                .field("k", b.evaluation.k())
                .field("attempts", attempts)
                .field("feasible", feasible)
                .field("relaxations", degradation.relaxations.len())
                .field("degraded", degradation.is_degraded()),
        );
    }
    let result = KWayResult {
        placement: b.placement,
        devices: b.devices,
        evaluation: b.evaluation,
        attempts,
        feasible_found: feasible,
        degradation,
    };
    // Debug builds re-derive every claim through the independent
    // verifier before handing the result out; a violation here means
    // the incremental bookkeeping and the from-scratch re-evaluation
    // disagree, which is always a bug.
    if cfg!(debug_assertions) {
        let cert = result.certificate(hg, &cfg.library, cfg.seed);
        let report = netpart_verify::verify(hg, &cert);
        if recorder.enabled(Level::Debug) {
            recorder.record(
                &Event::new("verify", "report", Level::Debug)
                    .field("violations", report.violations().len() as u64)
                    .field("clean", report.is_clean())
                    .field("cut", report.recomputed().cut),
            );
        }
        debug_assert!(report.is_clean(), "post-run certificate self-check: {report}");
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_netlist::{generate, GeneratorConfig};
    use netpart_techmap::{map, MapperConfig};

    fn mapped(gates: usize, dffs: usize, seed: u64) -> Hypergraph {
        let nl = generate(&GeneratorConfig::new(gates).with_dff(dffs).with_seed(seed));
        map(&nl, &MapperConfig::xc3000())
            .unwrap()
            .to_hypergraph(&nl)
    }

    fn quick_cfg() -> KWayConfig {
        KWayConfig::new(DeviceLibrary::xc3000())
            .with_candidates(4)
            .with_max_attempts(200)
            .with_seed(1)
            .with_max_passes(8)
    }

    #[test]
    fn fit_check_count_matches_part_terminals_on_replicated_pieces() {
        let hg = mapped(600, 40, 7);
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(5)
            .with_replication(ReplicationMode::functional(0));
        let p = crate::bipartition(&hg, &cfg)
            .placement
            .expect("functional mode exports");
        assert!(p.replicated_cell_count() > 0, "fixture must replicate");
        let origin = Extraction::identity(&hg).origin;
        for rest in [PartId(0), PartId(1)] {
            let piece = extract_rest(&hg, &p, rest, &origin);
            let one = Placement::new_uniform(&piece.hypergraph, 1, PartId(0));
            assert_eq!(
                whole_piece_terminals(&piece.hypergraph),
                one.part_terminals(&piece.hypergraph, PartId(0)) as u64,
                "rest {rest}"
            );
        }
    }

    #[test]
    fn small_circuit_lands_on_one_device() {
        let hg = mapped(120, 0, 3);
        assert!(hg.total_area() <= 304, "fixture should fit one XC3090");
        let res = kway_partition(&hg, &quick_cfg()).unwrap();
        assert_eq!(res.devices.len(), 1);
        assert!(res.evaluation.feasible);
        res.placement.validate(&hg).unwrap();
    }

    /// The 2000-gate fixture needs the full escalation ladder (two
    /// attempt pools fail, the relaxed-floor rung rescues it), ~30 s.
    /// `large_circuit_budgeted_returns_promptly` is the fast default
    /// variant; run this one with `cargo test -- --ignored`.
    #[test]
    #[ignore = "slow (~30s): climbs the full escalation ladder"]
    fn large_circuit_uses_multiple_devices_feasibly() {
        let hg = mapped(2000, 100, 5);
        let res = kway_partition(&hg, &quick_cfg()).unwrap();
        assert!(res.devices.len() >= 2);
        assert!(res.evaluation.feasible);
        res.placement.validate(&hg).unwrap();
        // Every part respects its device bounds, re-checked against the
        // library actually used (relaxed if the ladder said so).
        let lib = if res
            .degradation
            .relaxations
            .contains(&Relaxation::RelaxedFloor)
        {
            quick_cfg().library.relaxed_floor()
        } else {
            quick_cfg().library
        };
        for pe in &res.evaluation.parts {
            let d = lib.device(pe.device);
            assert!(d.fits(pe.clbs, pe.terminals), "part {pe:?} infeasible");
        }
    }

    /// Fast-budget variant of the ignored ladder test above: the same
    /// hard fixture under a wall budget must come back within twice the
    /// budget (plus scheduling slack) with either a typed error or a
    /// degraded-but-feasible result — never a hang or a panic.
    #[test]
    fn large_circuit_budgeted_returns_promptly() {
        let hg = mapped(2000, 100, 5);
        let budget_ms = 1500u64;
        let cfg = quick_cfg().with_budget(Budget::wall_ms(budget_ms));
        let t0 = std::time::Instant::now();
        let out = kway_partition(&hg, &cfg);
        let elapsed = t0.elapsed().as_millis() as u64;
        assert!(
            elapsed <= 2 * budget_ms + 500,
            "budgeted run overshot: {elapsed}ms for a {budget_ms}ms budget"
        );
        match out {
            Ok(res) => {
                assert!(res.evaluation.feasible);
                assert!(res.degradation.is_degraded());
            }
            Err(PartitionError::BudgetExhausted { .. }) => {}
            other => panic!("expected budget outcome, got {other:?}"),
        }
    }

    #[test]
    fn replication_does_not_break_feasibility() {
        let hg = mapped(1200, 60, 7);
        let cfg = quick_cfg().with_replication(ReplicationMode::functional(0));
        let res = kway_partition(&hg, &cfg).unwrap();
        assert!(res.evaluation.feasible);
        res.placement.validate(&hg).unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let hg = mapped(800, 40, 11);
        let a = kway_partition(&hg, &quick_cfg()).unwrap();
        let b = kway_partition(&hg, &quick_cfg()).unwrap();
        assert_eq!(a.evaluation.total_cost, b.evaluation.total_cost);
        assert_eq!(a.devices, b.devices);
        assert_eq!(a.degradation, b.degradation);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn traditional_mode_rejected() {
        let _ = quick_cfg().with_replication(ReplicationMode::Traditional);
    }

    #[test]
    fn traditional_mode_in_struct_is_invalid_input() {
        let hg = mapped(100, 0, 1);
        let cfg = KWayConfig {
            replication: ReplicationMode::Traditional,
            ..quick_cfg()
        };
        assert!(matches!(
            kway_partition(&hg, &cfg),
            Err(PartitionError::InvalidInput { .. })
        ));
    }

    #[test]
    fn empty_hypergraph_is_invalid_input() {
        let hg = netpart_hypergraph::HypergraphBuilder::new()
            .finish()
            .unwrap();
        assert!(matches!(
            kway_partition(&hg, &quick_cfg()),
            Err(PartitionError::InvalidInput { .. })
        ));
    }

    #[test]
    fn oversized_cell_is_statically_infeasible() {
        use netpart_fpga::Device;
        let hg = mapped(400, 0, 2);
        // A library whose biggest device holds 3 usable CLBs: even one
        // mapped cell cluster may fit, but the total area never will —
        // and once pieces shrink to single cells, terminals kill it. The
        // static check fires only when a single cell exceeds max_clbs;
        // build a library with zero usable capacity instead.
        let lib = DeviceLibrary::new(vec![Device::new("NIL", 10, 10, 1, 0.0, 0.0)]);
        let cfg = KWayConfig {
            library: lib,
            ..quick_cfg()
        };
        match kway_partition(&hg, &cfg) {
            Err(PartitionError::InfeasibleLibrary { attempts, .. }) => assert_eq!(attempts, 0),
            other => panic!("expected static InfeasibleLibrary, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhausted_before_any_feasible_is_typed() {
        let hg = mapped(800, 40, 3);
        let cfg = quick_cfg().with_budget(Budget::wall_ms(0));
        match kway_partition(&hg, &cfg) {
            Err(PartitionError::BudgetExhausted { .. }) => {}
            Ok(res) => assert!(res.degradation.is_degraded(), "a rescue must be reported"),
            other => panic!("expected BudgetExhausted or degraded Ok, got {other:?}"),
        }
    }

    #[test]
    fn fault_after_attempts_is_typed_or_degraded() {
        let hg = mapped(800, 40, 3);
        let cfg = quick_cfg().with_fault(FaultPlan::none().kill_after_attempts(1));
        match kway_partition(&hg, &cfg) {
            Err(PartitionError::BudgetExhausted { budget, .. }) => {
                assert_eq!(budget, "injected fault");
            }
            Ok(res) => assert!(res.degradation.fault_injected),
            other => panic!("expected fault outcome, got {other:?}"),
        }
    }
}
#[cfg(test)]
mod refine_flag_tests {
    use super::*;
    use netpart_netlist::{generate, GeneratorConfig};
    use netpart_techmap::{map, MapperConfig};

    #[test]
    fn refine_flag_improves_or_matches_interconnect() {
        let nl = generate(&GeneratorConfig::new(1200).with_dff(60).with_seed(13));
        let hg = map(&nl, &MapperConfig::xc3000())
            .unwrap()
            .to_hypergraph(&nl);
        let base = KWayConfig::new(DeviceLibrary::xc3000())
            .with_candidates(2)
            .with_seed(3)
            .with_max_passes(8)
            .with_replication(crate::ReplicationMode::functional(1));
        let plain = kway_partition(&hg, &base).unwrap();
        let refined = kway_partition(&hg, &base.clone().with_refine(true)).unwrap();
        assert!(refined.evaluation.feasible);
        assert!(refined.evaluation.avg_iob_util <= plain.evaluation.avg_iob_util + 1e-9);
        assert_eq!(refined.evaluation.total_cost, plain.evaluation.total_cost);
        refined.placement.validate(&hg).unwrap();
    }
}
