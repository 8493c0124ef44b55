//! The deterministic parallel portfolio: multi-start FM and k-way
//! carving fanned across `std::thread` workers.
//!
//! Both portfolios run on one worker pool. A *unit* is one seeded
//! bipartition *start* or one k-way carving *task*.
//!
//! # Determinism model
//!
//! Workers claim units from an ascending atomic counter, so unit `i`
//! always begins no later than any unit `j > i` is claimed; results land
//! in index-addressed slots and the winner is reduced in **fixed seed
//! order** (lowest `(cost, index)` wins), never in arrival order. Three
//! consequences:
//!
//! * **Fault-free, unbudgeted runs** record all `n` units and are
//!   byte-identical for every `--jobs` level: the recorded set and the
//!   reduction are both independent of thread interleaving.
//! * **Zero-wall-budget runs** record exactly the guaranteed first
//!   unit (whose clock carries no deadline) at every `--jobs` level —
//!   degraded, and still byte-identical.
//! * **Mid-flight wall trips** are inherently timing-dependent: which
//!   units finished before the deadline varies. A unit that runs into
//!   the shared deadline cancels its siblings. A bipartition start cut
//!   short that way (or by the cancel) is excluded; a k-way task cut
//!   short that way is recorded with its degraded result. Every
//!   recorded unit that the deadline did not reach is
//!   bitwise-deterministic (per-unit clocks, no shared move pool), and
//!   the reduction over the recorded set follows fixed seed order — the
//!   strongest guarantee a physical clock allows.
//!
//! The shared [`Incumbent`] prunes only on *perfect* (zero-cut)
//! bipartition starts: the claim counter is ascending, so when start `j`
//! publishes cut 0 every unclaimed index exceeds `j` and can at best
//! tie — and ties break toward the lower index. Recorded results above
//! the perfect index are discarded after the join, making even the
//! early-exit set identical across `--jobs` levels.

use crate::hash::{ContentHash, Fnv1a};
use crate::incumbent::Incumbent;
use netpart_core::{
    kway_partition_with_clock, run_start, BipartitionConfig, BipartitionResult, Budget,
    CancelToken, Degradation, FaultPlan, KWayConfig, KWayResult, PartitionError, RunClock,
    StopReason,
};
use netpart_hypergraph::Hypergraph;
use netpart_multilevel::{ml_kway_partition_with_clock, ml_run_start, MultilevelConfig};
use netpart_obs::{BufferRecorder, Event, Level, NoopRecorder, Recorder, Span, TIMING_SCOPE};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A shareable no-op recorder for the untraced entry points.
fn noop_recorder() -> Arc<dyn Recorder> {
    Arc::new(NoopRecorder)
}

/// Emits the scheduling-timeline claim event for one worker picking up
/// one unit of work. Reserved-scope: stripped whole-line by determinism
/// checks.
fn record_claim(recorder: &dyn Recorder, worker: usize, unit: usize) {
    if recorder.enabled(Level::Debug) {
        recorder.record(
            &Event::new(TIMING_SCOPE, "claim", Level::Debug)
                .field("worker", worker)
                .field("unit", unit),
        );
    }
}

/// Emits the scheduling-timeline per-worker summary. Reserved-scope.
fn record_worker(recorder: &dyn Recorder, stats: &WorkerStats) {
    if recorder.enabled(Level::Debug) {
        recorder.record(
            &Event::new(TIMING_SCOPE, "worker", Level::Debug)
                .field("worker", stats.worker)
                .field("starts", stats.starts)
                .field("passes", stats.passes)
                .field("moves", stats.moves)
                .field("cutoff_hits", stats.cutoff_hits)
                .field("wall_ms", stats.wall_ms),
        );
    }
}

/// Work observed by one portfolio worker thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Starts (or k-way tasks) this worker ran to completion or
    /// truncation.
    pub starts: usize,
    /// FM passes executed across those starts.
    pub passes: u64,
    /// FM moves applied across those starts.
    pub moves: u64,
    /// Wall time spent inside starts, in milliseconds.
    pub wall_ms: u64,
    /// Times this worker stopped early — a shared-deadline or
    /// cancellation skip, an incumbent cutoff, or an injected worker
    /// fault.
    pub cutoff_hits: u64,
}

/// One recorded start of a bipartition portfolio.
#[derive(Clone, Debug)]
pub struct StartResult {
    /// The start index (seed offset from the base configuration).
    pub index: usize,
    /// The completed bipartition.
    pub result: BipartitionResult,
}

/// The outcome of [`portfolio_bipartition`].
#[derive(Clone, Debug)]
pub struct PortfolioResult {
    /// Recorded starts in ascending index order. Truncated (cancelled
    /// or deadline-tripped) starts other than the guaranteed first are
    /// excluded — see the module docs for the determinism model.
    pub results: Vec<StartResult>,
    /// Position in [`results`](Self::results) of the winning start.
    pub best_pos: usize,
    /// How the portfolio degraded from the request, if at all.
    pub degradation: Degradation,
    /// Per-worker statistics, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Total portfolio wall time.
    pub wall: Duration,
}

impl PortfolioResult {
    /// The winning run.
    pub fn best(&self) -> &BipartitionResult {
        &self.results[self.best_pos].result
    }

    /// The winning start's index (its seed offset).
    pub fn best_start(&self) -> usize {
        self.results[self.best_pos].index
    }

    /// The smallest cut over recorded balanced runs.
    pub fn best_cut(&self) -> usize {
        self.best().cut
    }

    /// Serializes the incumbent (winning start) as an independently
    /// checkable certificate, stamped with the winning start's derived
    /// seed. `None` when the winner exported no placement.
    pub fn certificate(
        &self,
        hg: &Hypergraph,
        cfg: &BipartitionConfig,
    ) -> Option<netpart_verify::SolutionCertificate> {
        self.best()
            .certificate(hg, cfg.seed.wrapping_add(self.best_start() as u64))
    }

    /// The mean cut over recorded balanced runs.
    pub fn avg_cut(&self) -> f64 {
        let balanced: Vec<_> = self.results.iter().filter(|s| s.result.balanced).collect();
        if balanced.is_empty() {
            return f64::NAN;
        }
        balanced.iter().map(|s| s.result.cut as f64).sum::<f64>() / balanced.len() as f64
    }

    /// The mean number of replicated cells over recorded balanced runs.
    pub fn avg_replicated(&self) -> f64 {
        let balanced: Vec<_> = self.results.iter().filter(|s| s.result.balanced).collect();
        if balanced.is_empty() {
            return f64::NAN;
        }
        balanced
            .iter()
            .map(|s| s.result.replicated_cells as f64)
            .sum::<f64>()
            / balanced.len() as f64
    }

    /// A stable digest of the complete recorded outcome — every start's
    /// cut, areas, replication count, stop reason and full placement,
    /// plus the winner. Two portfolio runs are byte-identical exactly
    /// when their fingerprints agree, which is what the `--jobs`
    /// determinism tests pin.
    pub fn fingerprint(&self, hg: &Hypergraph) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.best_pos);
        h.write_usize(self.results.len());
        for s in &self.results {
            h.write_usize(s.index);
            let r = &s.result;
            h.write_usize(r.cut);
            h.write_u64(r.areas[0]);
            h.write_u64(r.areas[1]);
            h.write_usize(r.replicated_cells);
            h.write_usize(r.passes);
            h.write_u8(u8::from(r.balanced));
            h.write_u8(match r.stop {
                StopReason::Converged => 0,
                StopReason::PassLimit => 1,
                StopReason::BudgetExhausted => 2,
                StopReason::FaultInjected => 3,
                StopReason::Cancelled => 4,
            });
            match &r.placement {
                None => h.write_u8(0),
                Some(p) => {
                    h.write_u8(1);
                    for c in hg.cell_ids() {
                        let copies = p.copies(c);
                        h.write_usize(copies.len());
                        for copy in copies {
                            h.write_u64(u64::from(copy.part.0));
                            h.write_u32(copy.outputs);
                        }
                    }
                }
            }
        }
        h.finish()
    }
}

/// Caps the packable unit index (the [`Incumbent`] packs indices into
/// 32 bits).
const MAX_STARTS: usize = u32::MAX as usize >> 1;

/// What a unit body reports back to the [`Pool`] when it returns.
struct Ran<T> {
    /// The unit's outcome, kept in its slot if the unit is recorded.
    out: T,
    /// FM passes to add to [`WorkerStats::passes`].
    passes: u64,
    /// Why the unit stopped; the pool acts on a budget, fault or
    /// cancellation stop and ignores the rest.
    stop: Option<StopReason>,
    /// Whether the unit came back without a solution (a cutoff hit).
    empty: bool,
    /// The unit's cost to offer the shared [`Incumbent`]. Once a
    /// recorded unit offers 0, no higher unit is claimed; `None` offers
    /// nothing.
    cost: Option<u64>,
}

/// The worker pool both portfolios run on: `units` seeded units of
/// work claimed in ascending order by `jobs` threads.
///
/// Unit 0 is the first-start guarantee: its clock carries neither the
/// shared deadline nor the cancel token. Every other unit is skipped
/// once the deadline has passed, a sibling cancelled, or a recorded
/// unit is perfect. `per_unit.max_moves` and `fault` apply to each
/// unit alone, so they trip at deterministic points.
struct Pool<'a> {
    units: usize,
    jobs: usize,
    deadline: Option<Instant>,
    per_unit: Budget,
    fault: &'a FaultPlan,
    /// Whether a unit cut short by the shared deadline (or by a sibling
    /// cancelling on it) is still recorded. Which units finish before a
    /// physical deadline depends on the interleaving either way.
    keep_cut_short: bool,
    recorder: &'a Arc<dyn Recorder>,
}

/// A unit's recorded outcome and its buffered events.
type Slot<T> = Option<(T, Vec<Event>)>;

/// What the workers of one [`Pool`] run share.
struct Shared<T> {
    cancel: CancelToken,
    incumbent: Incumbent,
    next: AtomicUsize,
    budget_seen: AtomicBool,
    fault_seen: AtomicBool,
    slots: Vec<Mutex<Slot<T>>>,
}

/// What a [`Pool`] run leaves behind.
struct Pooled<T> {
    /// Per unit index: the recorded outcome and its buffered events, or
    /// `None` for a unit that was skipped, lost or excluded.
    slots: Vec<Slot<T>>,
    workers: Vec<WorkerStats>,
    budget_seen: bool,
    fault_seen: bool,
}

impl<'a> Pool<'a> {
    /// A pool whose shared deadline starts now: `budget.wall_ms` bounds
    /// every run of this pool together, `budget.max_moves` each unit.
    fn new(
        units: usize,
        jobs: usize,
        budget: &Budget,
        fault: &'a FaultPlan,
        keep_cut_short: bool,
        recorder: &'a Arc<dyn Recorder>,
    ) -> Self {
        Pool {
            units,
            jobs: jobs.clamp(1, units),
            deadline: budget
                .wall_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            per_unit: Budget {
                wall_ms: None,
                max_moves: budget.max_moves,
            },
            fault,
            keep_cut_short,
            recorder,
        }
    }

    /// Runs `body(index, clock)` for every unit that is claimed and not
    /// skipped. Each unit's events go to its own buffer and come back
    /// with its slot, for the caller to replay in index order.
    fn run<T: Send>(&self, body: impl Fn(usize, &RunClock) -> Ran<T> + Sync) -> Pooled<T> {
        let shared = Shared {
            cancel: CancelToken::new(),
            incumbent: Incumbent::new(),
            next: AtomicUsize::new(0),
            budget_seen: AtomicBool::new(false),
            fault_seen: AtomicBool::new(false),
            slots: (0..self.units).map(|_| Mutex::new(None)).collect(),
        };
        let workers = std::thread::scope(|scope| {
            let (shared, body) = (&shared, &body);
            let handles: Vec<_> = (0..self.jobs)
                .map(|w| scope.spawn(move || self.work(w, shared, body)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        Pooled {
            slots: shared
                .slots
                .into_iter()
                .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
                .collect(),
            workers,
            budget_seen: shared.budget_seen.into_inner(),
            fault_seen: shared.fault_seen.into_inner(),
        }
    }

    /// One worker: claims units until none are left or it is stopped.
    fn work<T>(
        &self,
        w: usize,
        shared: &Shared<T>,
        body: &impl Fn(usize, &RunClock) -> Ran<T>,
    ) -> WorkerStats {
        let recorder = self.recorder.as_ref();
        // Worker lifecycle span: presence and interleaving depend on
        // scheduling, so it rides the reserved timing scope and is
        // stripped whole-line.
        let _worker_span = Span::enter_with(recorder, TIMING_SCOPE, "worker", "worker", w);
        let mut stats = WorkerStats {
            worker: w,
            ..WorkerStats::default()
        };
        loop {
            let i = shared.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.units {
                break;
            }
            record_claim(recorder, w, i);
            if i > 0 {
                // A perfect incumbent makes every unclaimed (higher)
                // index provably useless.
                if shared.incumbent.is_perfect() || shared.cancel.is_cancelled() {
                    stats.cutoff_hits += 1;
                    break;
                }
                if self.deadline.is_some_and(|d| Instant::now() >= d) {
                    shared.budget_seen.store(true, Ordering::Release);
                    shared.cancel.cancel();
                    stats.cutoff_hits += 1;
                    break;
                }
            }
            if self.fault.kill_start == Some(i as u64) {
                // The worker "dies" before running the unit; the unit is
                // lost, siblings carry on.
                shared.fault_seen.store(true, Ordering::Release);
                stats.cutoff_hits += 1;
                break;
            }
            let buffer = Arc::new(BufferRecorder::mirroring(recorder));
            let (deadline, cancel) = match i {
                0 => (None, None),
                _ => (self.deadline, Some(shared.cancel.clone())),
            };
            let clock = RunClock::with_shared(&self.per_unit, self.fault, deadline, cancel)
                .with_recorder(buffer.clone());
            let run_t0 = Instant::now();
            let panic_here = self.fault.panic_in_worker == Some(i as u64);
            let ran = catch_unwind(AssertUnwindSafe(|| {
                assert!(!panic_here, "injected worker panic at unit {i}");
                body(i, &clock)
            }));
            stats.moves += clock.moves();
            stats.wall_ms += run_t0.elapsed().as_millis() as u64;
            let Ok(ran) = ran else {
                // A panicking worker thread is dead; the pool records the
                // loss and joins cleanly.
                shared.fault_seen.store(true, Ordering::Release);
                stats.cutoff_hits += 1;
                break;
            };
            stats.passes += ran.passes;
            stats.starts += 1;
            let budget = ran.stop == Some(StopReason::BudgetExhausted);
            if budget {
                shared.budget_seen.store(true, Ordering::Release);
            }
            if ran.stop == Some(StopReason::FaultInjected) {
                shared.fault_seen.store(true, Ordering::Release);
            }
            // A budget stop comes from the shared deadline
            // (interleaving-dependent) or the per-unit move limit
            // (deterministic); `tick_move` checks the move limit first, so
            // a move-limit trip always shows the full count. Only a
            // deadline trip cancels the siblings, which carry their own
            // move limits.
            let wall_trip = budget
                && deadline.is_some()
                && self.per_unit.max_moves.is_none_or(|m| clock.moves() < m);
            if wall_trip {
                shared.cancel.cancel();
            }
            let cut_short = wall_trip || ran.stop == Some(StopReason::Cancelled);
            let excluded = cut_short && !self.keep_cut_short;
            if excluded || ran.empty {
                stats.cutoff_hits += 1;
            }
            if excluded {
                continue;
            }
            if let Some(cost) = ran.cost {
                shared.incumbent.offer(cost, i);
            }
            if let Ok(mut slot) = shared.slots[i].lock() {
                *slot = Some((ran.out, buffer.take()));
            }
        }
        record_worker(recorder, &stats);
        stats
    }
}

/// Runs `n` seeded bipartition starts (seeds `base.seed + 0..n`) across
/// `jobs` worker threads and reduces the winner in fixed seed order.
///
/// `base.budget.wall_ms` bounds the *whole portfolio* via a deadline
/// shared by every worker; `base.budget.max_moves` and `base.fault`
/// apply to each start individually (a shared move pool would make the
/// recorded set depend on thread interleaving). The first start runs
/// without the wall deadline, so a usable solution exists whenever one
/// is reachable at all — the same guarantee
/// [`run_many`](netpart_core::run_many) makes.
///
/// # Errors
///
/// * [`PartitionError::InvalidInput`] if `n == 0`, `n` exceeds the
///   2³¹-start cap, or the hypergraph has no cells.
/// * [`PartitionError::BudgetExhausted`] if the budget (or a worker
///   fault) tripped before any recorded run achieved balance.
/// * [`PartitionError::InfeasibleLibrary`] if every recorded run
///   completed but none satisfied the area bounds.
pub fn portfolio_bipartition(
    hg: &Hypergraph,
    base: &BipartitionConfig,
    n: usize,
    jobs: usize,
) -> Result<PortfolioResult, PartitionError> {
    portfolio_bipartition_ml_traced(hg, base, n, jobs, None, &noop_recorder())
}

/// [`portfolio_bipartition`] with telemetry and an optional multilevel
/// V-cycle wrapped around every start.
///
/// Per-start events (FM pass trajectories, run summaries) are buffered
/// on each worker and **replayed into `recorder` in ascending start
/// order after the join**, so the deterministic part of the trace is
/// identical at every `jobs` level. Live scheduling events (claims,
/// worker summaries) go straight to the recorder under the reserved
/// [`TIMING_SCOPE`] and are dropped by determinism checks.
///
/// With `ml`, each start coarsens, partitions the coarsest graph with
/// its derived seed, and refines up — [`ml_run_start`] derives seeds
/// exactly like the flat [`run_start`], so the claim/record/reduce
/// machinery (and with it jobs-invariance) is untouched. `ml = None`
/// (or an `ml` whose chain comes up empty for this circuit) is the flat
/// portfolio verbatim.
pub fn portfolio_bipartition_ml_traced(
    hg: &Hypergraph,
    base: &BipartitionConfig,
    n: usize,
    jobs: usize,
    ml: Option<&MultilevelConfig>,
    recorder: &Arc<dyn Recorder>,
) -> Result<PortfolioResult, PartitionError> {
    if n == 0 {
        return Err(PartitionError::invalid_input(
            "portfolio needs at least one start",
        ));
    }
    if n > MAX_STARTS {
        return Err(PartitionError::invalid_input(format!(
            "portfolio start count {n} exceeds the {MAX_STARTS} cap"
        )));
    }
    if hg.n_cells() == 0 {
        return Err(PartitionError::invalid_input(
            "cannot partition an empty hypergraph",
        ));
    }
    let t0 = Instant::now();
    // A start cut short by the shared deadline is excluded: which
    // starts the deadline reaches depends on the interleaving.
    let pool = Pool::new(n, jobs, &base.budget, &base.fault, false, recorder);
    let jobs = pool.jobs;
    let pooled = pool.run(|i, clock| {
        let res = match ml {
            Some(m) => ml_run_start(hg, base, m, i as u64, clock),
            None => run_start(hg, base, i as u64, clock),
        };
        Ran {
            passes: res.passes as u64,
            stop: Some(res.stop),
            empty: false,
            cost: res.balanced.then_some(res.cut as u64),
            out: res,
        }
    });

    // Deterministic reduction in fixed seed order.
    let mut recorded: Vec<(StartResult, Vec<Event>)> = pooled
        .slots
        .into_iter()
        .enumerate()
        .filter_map(|(index, slot)| {
            slot.map(|(result, events)| (StartResult { index, result }, events))
        })
        .collect();
    // Discard anything past a perfect winner, so the early-exit set is
    // jobs-invariant (starts past the winner were provably useless).
    let perfect_cutoff = recorded
        .iter()
        .find(|(s, _)| s.result.balanced && s.result.cut == 0)
        .map(|(s, _)| s.index);
    let requested = match perfect_cutoff {
        Some(j) => {
            recorded.retain(|(s, _)| s.index <= j);
            recorded.len()
        }
        None => n,
    };

    // Deterministic trace replay: now that the recorded set is final
    // and jobs-invariant, emit each start's header, its buffered
    // events, and the incumbent trajectory in ascending index order —
    // exactly the sequence a jobs=1 run produces.
    if recorder.enabled(Level::Info) {
        recorder.record(
            &Event::new("portfolio", "begin", Level::Info)
                .field("kind", "bipartition")
                .field("starts", n)
                .timing("jobs", jobs),
        );
    }
    let mut incumbent_cut: Option<usize> = None;
    let mut results: Vec<StartResult> = Vec::with_capacity(recorded.len());
    for (s, events) in recorded {
        if recorder.enabled(Level::Info) {
            recorder.record(
                &Event::new("portfolio", "start", Level::Info)
                    .field("index", s.index)
                    .field("cut", s.result.cut)
                    .field("balanced", s.result.balanced)
                    .field("replicated", s.result.replicated_cells)
                    .field("passes", s.result.passes)
                    .field("stop", format!("{:?}", s.result.stop)),
            );
        }
        for e in &events {
            recorder.record(e);
        }
        if s.result.balanced && incumbent_cut.is_none_or(|c| s.result.cut < c) {
            incumbent_cut = Some(s.result.cut);
            if recorder.enabled(Level::Info) {
                recorder.record(
                    &Event::new("portfolio", "incumbent", Level::Info)
                        .field("index", s.index)
                        .field("cut", s.result.cut),
                );
                recorder.record(&Event::gauge("portfolio", "best_cut", s.result.cut as f64));
            }
        }
        results.push(s);
    }

    let degradation = Degradation {
        requested,
        completed: results.len(),
        budget_exhausted: pooled.budget_seen,
        fault_injected: pooled.fault_seen,
        relaxations: Vec::new(),
    };
    let best_pos = results
        .iter()
        .enumerate()
        .filter(|(_, s)| s.result.balanced)
        .min_by_key(|(_, s)| (s.result.cut, s.index))
        .map(|(pos, _)| pos);
    if recorder.enabled(Level::Info) {
        let mut e = Event::new("portfolio", "summary", Level::Info)
            .field("recorded", results.len())
            .field("requested", requested)
            .field("budget_exhausted", degradation.budget_exhausted)
            .field("fault_injected", degradation.fault_injected);
        if let Some(bp) = best_pos {
            e = e
                .field("best_index", results[bp].index)
                .field("best_cut", results[bp].result.cut);
        }
        recorder.record(
            &e.timing("wall_ms", t0.elapsed().as_millis() as u64)
                .timing("jobs", jobs),
        );
    }
    match best_pos {
        Some(best_pos) => Ok(PortfolioResult {
            results,
            best_pos,
            degradation,
            workers: pooled.workers,
            wall: t0.elapsed(),
        }),
        None if degradation.budget_exhausted || degradation.fault_injected => {
            Err(PartitionError::BudgetExhausted {
                budget: if degradation.fault_injected {
                    "injected fault".into()
                } else {
                    base.budget.describe()
                },
                completed: degradation.completed,
            })
        }
        None => Err(PartitionError::InfeasibleLibrary {
            reason: format!(
                "no run satisfied the area bounds [{:?}..{:?}]",
                base.min_area, base.max_area
            ),
            attempts: degradation.completed,
        }),
    }
}

/// The outcome of [`portfolio_kway`].
#[derive(Clone, Debug)]
pub struct KWayPortfolioResult {
    /// The winning task's result (reduced by `(total cost, average IOB
    /// utilization, task index)`).
    pub result: KWayResult,
    /// The winning task's index.
    pub winner: usize,
    /// Tasks requested.
    pub tasks: usize,
    /// Tasks that produced a feasible result.
    pub feasible_tasks: usize,
    /// Whether the escalation rescue phase (see below) produced the
    /// winner.
    pub rescued: bool,
    /// Per-worker statistics, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Total portfolio wall time.
    pub wall: Duration,
}

impl KWayPortfolioResult {
    /// Serializes the winning task's result as an independently
    /// checkable certificate. `cfg` is the base configuration handed to
    /// [`portfolio_kway`]; the certificate is stamped with the winning
    /// task's derived seed and embeds the library the winner was
    /// actually judged against (floor-relaxed if escalation relaxed it).
    pub fn certificate(
        &self,
        hg: &Hypergraph,
        cfg: &KWayConfig,
    ) -> netpart_verify::SolutionCertificate {
        self.result
            .certificate(hg, &cfg.library, cfg.seed.wrapping_add(self.winner as u64))
    }
}

/// Runs k-way portfolio task `t` of `tasks` on its pool clock: a
/// derived seed and a proportional share of the candidate/attempt
/// pools. The task depends only on `(cfg, t, tasks)` — never on `jobs`
/// — so the task set is identical at every thread count.
fn kway_task(
    hg: &Hypergraph,
    cfg: &KWayConfig,
    t: usize,
    tasks: usize,
    escalate: bool,
    ml: Option<&MultilevelConfig>,
    clock: &RunClock,
) -> Ran<Result<KWayResult, PartitionError>> {
    let mut task = cfg.clone();
    task.seed = cfg.seed.wrapping_add(t as u64);
    task.candidates = cfg.candidates.div_ceil(tasks).max(1);
    task.max_attempts = cfg.max_attempts.div_ceil(tasks).max(1);
    task.escalate = escalate;
    let out = match ml {
        Some(m) => ml_kway_partition_with_clock(hg, &task, m, clock),
        None => kway_partition_with_clock(hg, &task, clock),
    };
    // A typed budget error is a task that came back empty; it names an
    // injected fault by its budget text.
    let (stop, empty) = match &out {
        Ok(r) if r.degradation.budget_exhausted => (Some(StopReason::BudgetExhausted), false),
        Ok(r) if r.degradation.fault_injected => (Some(StopReason::FaultInjected), false),
        Err(PartitionError::BudgetExhausted { budget, .. }) if budget == "injected fault" => {
            (Some(StopReason::FaultInjected), true)
        }
        Err(PartitionError::BudgetExhausted { .. }) => (Some(StopReason::BudgetExhausted), true),
        _ => (None, false),
    };
    Ran {
        out,
        passes: 0,
        stop,
        empty,
        cost: None,
    }
}

fn merge_worker_stats(into: &mut Vec<WorkerStats>, from: Vec<WorkerStats>) {
    for f in from {
        match into.iter_mut().find(|s| s.worker == f.worker) {
            Some(s) => {
                s.starts += f.starts;
                s.passes += f.passes;
                s.moves += f.moves;
                s.wall_ms += f.wall_ms;
                s.cutoff_hits += f.cutoff_hits;
            }
            None => into.push(f),
        }
    }
}

/// Runs `tasks` independent k-way carving tasks (derived seeds, split
/// candidate pools) across `jobs` workers and reduces the cheapest
/// feasible result in fixed task order.
///
/// Escalation is two-phase: every task first runs with the ladder
/// *disabled* — a sibling's feasible result (the shared incumbent of
/// this portfolio) makes climbing unnecessary, and racy ladder climbs
/// would be interleaving-dependent. Only when *no* task finds anything
/// feasible (and no budget tripped) does a rescue phase re-run the
/// tasks with the full ladder enabled. The task set depends only on
/// `(cfg, tasks)`, so for a fixed `tasks` the reduction is identical at
/// every `jobs` level.
///
/// # Errors
///
/// Mirrors [`kway_partition`](netpart_core::kway_partition): invalid
/// input, budget exhaustion before any feasible result, or
/// infeasibility after the rescue phase.
pub fn portfolio_kway(
    hg: &Hypergraph,
    cfg: &KWayConfig,
    tasks: usize,
    jobs: usize,
) -> Result<KWayPortfolioResult, PartitionError> {
    portfolio_kway_ml_traced(hg, cfg, tasks, jobs, None, &noop_recorder())
}

/// A short deterministic label for a task's typed error, for trace
/// headers.
fn error_label(e: &PartitionError) -> &'static str {
    match e {
        PartitionError::InvalidInput { .. } => "invalid_input",
        PartitionError::InfeasibleLibrary { .. } => "infeasible",
        PartitionError::BudgetExhausted { .. } => "budget_exhausted",
        PartitionError::InternalInvariant { .. } => "internal",
    }
}

type KWayTasks = Pooled<Result<KWayResult, PartitionError>>;

/// Replays one k-way phase's buffered telemetry in ascending task
/// order: a `portfolio.task` header, the task's buffered events, and
/// the incumbent trajectory (with the paper-metric gauges) whenever the
/// running best improves. Returns with `incumbent` updated.
fn replay_kway_phase(
    recorder: &dyn Recorder,
    phase: &KWayTasks,
    phase_name: &'static str,
    lib: &netpart_fpga::DeviceLibrary,
    incumbent: &mut Option<(u64, f64)>,
) {
    for (t, slot) in phase.slots.iter().enumerate() {
        let Some((out, events)) = slot else { continue };
        if recorder.enabled(Level::Info) {
            let e = Event::new("portfolio", "task", Level::Info)
                .field("task", t)
                .field("phase", phase_name);
            recorder.record(&match out {
                Ok(r) => e
                    .field("status", "ok")
                    .field("cost", r.evaluation.total_cost)
                    .field("kbar", r.evaluation.avg_iob_util)
                    .field("k", r.evaluation.k())
                    .field("attempts", r.attempts)
                    .field("feasible", r.feasible_found),
                Err(err) => e.field("status", error_label(err)),
            });
        }
        for ev in events {
            recorder.record(ev);
        }
        if let Ok(r) = out {
            let key = (r.evaluation.total_cost, r.evaluation.avg_iob_util);
            if incumbent.is_none_or(|best| key < best) {
                *incumbent = Some(key);
                if recorder.enabled(Level::Info) {
                    recorder.record(
                        &Event::new("portfolio", "incumbent", Level::Info)
                            .field("task", t)
                            .field("cost", r.evaluation.total_cost)
                            .field("kbar", r.evaluation.avg_iob_util)
                            .field("k", r.evaluation.k()),
                    );
                    netpart_core::record_paper_gauges(recorder, &r.evaluation, lib);
                }
            }
        }
    }
}

/// [`portfolio_kway`] with telemetry and an optional multilevel V-cycle
/// wrapped around every carving task.
///
/// The replay contract is [`portfolio_bipartition_ml_traced`]'s:
/// per-task events are buffered on the workers and replayed in
/// ascending task order after each phase joins, so fixed-seed traces
/// are identical at every `jobs` level (wall-budgeted runs excepted —
/// which tasks finish before a mid-flight deadline is inherently
/// timing-dependent, exactly as for results). `ml = None` is the flat
/// portfolio verbatim; task seeding, phases and the reduction are
/// identical either way.
pub fn portfolio_kway_ml_traced(
    hg: &Hypergraph,
    cfg: &KWayConfig,
    tasks: usize,
    jobs: usize,
    ml: Option<&MultilevelConfig>,
    recorder: &Arc<dyn Recorder>,
) -> Result<KWayPortfolioResult, PartitionError> {
    if tasks == 0 {
        return Err(PartitionError::invalid_input(
            "portfolio needs at least one task",
        ));
    }
    if tasks > MAX_STARTS {
        return Err(PartitionError::invalid_input(format!(
            "portfolio task count {tasks} exceeds the {MAX_STARTS} cap"
        )));
    }
    let t0 = Instant::now();
    // One pool for both phases, so they share one deadline. A task cut
    // short by that deadline is recorded with its degraded result.
    let pool = Pool::new(tasks, jobs, &cfg.budget, &cfg.fault, true, recorder);
    let mut workers = Vec::new();

    if recorder.enabled(Level::Info) {
        recorder.record(
            &Event::new("portfolio", "begin", Level::Info)
                .field("kind", "kway")
                .field("tasks", tasks)
                .field("candidates", cfg.candidates)
                .timing("jobs", jobs),
        );
    }
    let mut incumbent: Option<(u64, f64)> = None;
    let mut replay = |phase: &KWayTasks, name| {
        replay_kway_phase(recorder.as_ref(), phase, name, &cfg.library, &mut incumbent);
    };
    let mut phase = pool.run(|t, clock| kway_task(hg, cfg, t, tasks, false, ml, clock));
    replay(&phase, "base");
    let (mut budget_seen, mut fault_seen) = (phase.budget_seen, phase.fault_seen);
    let feasible = phase.slots.iter().any(|s| matches!(s, Some((Ok(_), _))));
    let rescued = !feasible && !budget_seen && !fault_seen && cfg.escalate;
    if rescued {
        // Rescue phase: nothing feasible anywhere — climb the ladder.
        if recorder.enabled(Level::Info) {
            recorder.record(&Event::new("portfolio", "rescue", Level::Info).field("tasks", tasks));
        }
        merge_worker_stats(&mut workers, phase.workers);
        phase = pool.run(|t, clock| kway_task(hg, cfg, t, tasks, true, ml, clock));
        replay(&phase, "rescue");
        budget_seen |= phase.budget_seen;
        fault_seen |= phase.fault_seen;
    }
    merge_worker_stats(&mut workers, phase.workers);

    let mut picked = Vec::new();
    let mut errors = Vec::new();
    for (t, slot) in phase.slots.into_iter().enumerate() {
        match slot {
            Some((Ok(r), _)) => picked.push((t, r)),
            Some((Err(e), _)) => errors.push((t, e)),
            None => {}
        }
    }

    let feasible_tasks = picked.len();
    let winner = picked.into_iter().min_by(|(ta, a), (tb, b)| {
        (a.evaluation.total_cost, a.evaluation.avg_iob_util, *ta)
            .partial_cmp(&(b.evaluation.total_cost, b.evaluation.avg_iob_util, *tb))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    if recorder.enabled(Level::Info) {
        let mut e = Event::new("portfolio", "summary", Level::Info)
            .field("tasks", tasks)
            .field("feasible_tasks", feasible_tasks)
            .field("rescued", rescued);
        if let Some((t, r)) = &winner {
            e = e
                .field("winner", *t)
                .field("cost", r.evaluation.total_cost)
                .field("kbar", r.evaluation.avg_iob_util)
                .field("k", r.evaluation.k());
        }
        recorder.record(
            &e.timing("wall_ms", t0.elapsed().as_millis() as u64)
                .timing("jobs", jobs),
        );
    }

    match winner {
        Some((t, mut result)) => {
            result.degradation.budget_exhausted |= budget_seen;
            result.degradation.fault_injected |= fault_seen;
            Ok(KWayPortfolioResult {
                result,
                winner: t,
                tasks,
                feasible_tasks,
                rescued,
                workers,
                wall: t0.elapsed(),
            })
        }
        None if budget_seen || fault_seen => Err(PartitionError::BudgetExhausted {
            budget: if fault_seen {
                "injected fault".into()
            } else {
                cfg.budget.describe()
            },
            completed: errors.len(),
        }),
        None => {
            // Propagate the lowest-index typed error (typically the
            // shared InfeasibleLibrary verdict), or synthesize one.
            let attempts: usize = errors
                .iter()
                .map(|(_, e)| match e {
                    PartitionError::InfeasibleLibrary { attempts, .. } => *attempts,
                    _ => 0,
                })
                .sum();
            match errors.into_iter().next() {
                Some((_, PartitionError::InfeasibleLibrary { reason, .. })) => {
                    Err(PartitionError::InfeasibleLibrary { reason, attempts })
                }
                Some((_, e)) => Err(e),
                None => Err(PartitionError::InfeasibleLibrary {
                    reason: "every portfolio task was lost before completing".into(),
                    attempts: 0,
                }),
            }
        }
    }
}

/// The composite cache key of a bipartition portfolio request.
pub fn bipartition_key(hg: &Hypergraph, base: &BipartitionConfig, n: usize) -> u64 {
    crate::hash::combine(&[hg.content_hash(), base.content_hash(), n as u64])
}

/// The composite cache key of a k-way portfolio request.
pub fn kway_key(hg: &Hypergraph, cfg: &KWayConfig, tasks: usize) -> u64 {
    crate::hash::combine(&[hg.content_hash(), cfg.content_hash(), tasks as u64])
}

/// Extends a flat request key with an optional multilevel
/// configuration. A `None` key is the flat key unchanged, so enabling
/// the cache never invalidates pre-multilevel entries; a `Some` key
/// folds in every V-cycle knob, so flat and multilevel requests (and
/// multilevel requests with different knobs) never collide.
pub fn with_multilevel_key(flat: u64, ml: Option<&MultilevelConfig>) -> u64 {
    match ml {
        None => flat,
        Some(m) => crate::hash::combine(&[flat, m.content_hash()]),
    }
}
