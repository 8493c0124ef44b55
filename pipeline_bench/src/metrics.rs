//! From measured rounds to named metrics.
//!
//! A round runs the pipeline once on every circuit of a workload. Each
//! end-to-end metric is a per-round sum over the circuits, reported as
//! the median over the run's untraced rounds; each per-layer metric is
//! the median over the traced rounds.

use crate::pipeline::OpOutcome;
use crate::trace::SpanRecord;
use std::collections::BTreeMap;
use std::time::Duration;

/// One measured round.
#[derive(Debug)]
pub struct Round {
    /// Whether the program's events were recorded.
    pub traced: bool,
    /// Wall time of the whole round.
    pub wall: Duration,
    /// `(operation id, outcome)` per circuit.
    pub ops: Vec<(u64, OpOutcome)>,
}

/// A metric's name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The gated end-to-end metrics, reported by every workload.
pub const END_TO_END: [MetricDef; 6] = [
    def("setup_s", "s"),
    def("partition_s", "s"),
    def("verify_s", "s"),
    def("total_s", "s"),
    def("peak_rss_mb", "MB"),
    def("cut", "count"),
];

/// The per-layer metrics of the traced run. A layer a workload does not
/// run reports 0.
pub const PER_LAYER: [MetricDef; 50] = [
    def("netlist.parse_ms", "ms"),
    def("netlist.validate_ms", "ms"),
    def("netlist.gates", "count"),
    def("techmap.decompose_ms", "ms"),
    def("techmap.map_ms", "ms"),
    def("techmap.to_hypergraph_ms", "ms"),
    def("techmap.clbs", "count"),
    def("techmap.nets", "count"),
    def("techmap.pins", "count"),
    def("multilevel.coarsen_ms", "ms"),
    def("multilevel.initial_ms", "ms"),
    def("multilevel.uncoarsen_ms", "ms"),
    def("multilevel.levels_built", "count"),
    def("multilevel.levels_kept", "count"),
    def("multilevel.kept_ratio", "ratio"),
    def("multilevel.coarsest_cells", "count"),
    def("multilevel.coarsest_nets", "count"),
    def("core.fm_passes", "count"),
    def("core.fm_pass_ms", "ms"),
    def("core.fm_selects", "count"),
    def("core.fm_applied", "count"),
    def("core.fm_kept", "count"),
    def("core.fm_kept_ratio", "ratio"),
    def("core.fm_repairs", "count"),
    def("core.fm_moves", "count"),
    def("core.replicated_cells", "count"),
    def("kway.attempts", "count"),
    def("kway.feasible", "count"),
    def("kway.feasible_ratio", "ratio"),
    def("kway.k", "count"),
    def("kway.degraded", "count"),
    def("kway.device_cost", "dollars"),
    def("kway.iob_util", "ratio"),
    def("engine.wall_ms", "ms"),
    def("engine.busy_ms", "ms"),
    def("engine.utilization", "ratio"),
    def("engine.starts", "count"),
    def("engine.cutoff_hits", "count"),
    def("board.route_ms", "ms"),
    def("board.routed_nets", "count"),
    def("board.hops", "count"),
    def("board.congestion", "count"),
    def("verify.cert_bytes", "bytes"),
    def("verify.write_ms", "ms"),
    def("verify.parse_ms", "ms"),
    def("verify.reingest_ms", "ms"),
    def("verify.check_ms", "ms"),
    def("obs.trace_overhead", "ratio"),
    def("obs.unattributed_ms", "ms"),
    def("obs.attributed_ratio", "ratio"),
];

fn secs(d: Option<&Duration>) -> f64 {
    d.map_or(0.0, Duration::as_secs_f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Round {
    fn outcomes(&self) -> impl Iterator<Item = &OpOutcome> {
        self.ops.iter().map(|(_, o)| o)
    }

    /// Σ over circuits of stage `name`, seconds.
    pub fn stage_s(&self, name: &str) -> f64 {
        self.outcomes().map(|o| secs(o.times.get(name))).sum()
    }

    /// Σ over circuits of deterministic value `key`.
    pub fn det(&self, key: &str) -> u64 {
        self.outcomes()
            .map(|o| o.det.get(key).copied().unwrap_or(0))
            .sum()
    }

    /// Σ over circuits of the pipeline's wall time, seconds.
    pub fn total_s(&self) -> f64 {
        self.outcomes().map(|o| o.wall.as_secs_f64()).sum()
    }

    /// Mean k̄ (eq. 2) over the circuits with a k-way result.
    pub fn mean_iob_util(&self) -> f64 {
        let utils: Vec<f64> = self
            .outcomes()
            .filter_map(|o| o.det.get("kway.iob_util_bits"))
            .map(|&b| f64::from_bits(b))
            .collect();
        ratio(utils.iter().sum(), utils.len() as f64)
    }

    /// The per-layer values of this (traced) round, from its spans.
    /// `selfs` is `trace::self_times` over the whole span file.
    pub fn per_layer(
        &self,
        spans: &[SpanRecord],
        selfs: &BTreeMap<u64, u64>,
    ) -> BTreeMap<&'static str, f64> {
        let ids: Vec<u64> = self.ops.iter().map(|(id, _)| *id).collect();
        let mine: Vec<&SpanRecord> = spans.iter().filter(|s| ids.contains(&s.op)).collect();
        let dur_ms = |prefix: &str| -> f64 {
            mine.iter()
                .filter(|s| s.name.starts_with(prefix))
                .map(|s| s.dur_us as f64 / 1e3)
                .sum()
        };
        let passes: Vec<f64> = mine
            .iter()
            .filter(|s| s.name == "fm/pass")
            .map(|s| selfs[&s.id] as f64 / 1e3)
            .collect();
        // Wall time inside the named layer spans: the direct children
        // of each operation's root span.
        let roots: Vec<u64> = mine
            .iter()
            .filter(|s| s.name == "op")
            .map(|s| s.id)
            .collect();
        let attributed_ms: f64 = mine
            .iter()
            .filter(|s| s.parent.is_some_and(|p| roots.contains(&p)))
            .map(|s| s.dur_us as f64 / 1e3)
            .sum();
        let wall_ms = self.wall.as_secs_f64() * 1e3;
        let ms = |stage: &str| self.stage_s(stage) * 1e3;
        let d = |key: &str| self.det(key) as f64;
        let (built, kept) = (d("trace.levels_built"), d("trace.levels_kept"));
        let (applied, kept_moves) = (d("trace.fm_applied"), d("trace.fm_kept"));
        let engine_wall: f64 = self.outcomes().map(|o| o.engine.wall_ms).sum();
        let engine_busy: f64 = self.outcomes().map(|o| o.engine.busy_ms).sum();
        let engine_capacity: f64 = self
            .outcomes()
            .map(|o| o.engine.wall_ms * o.engine.jobs as f64)
            .sum();
        BTreeMap::from([
            ("netlist.parse_ms", ms("netlist.parse")),
            ("netlist.validate_ms", ms("netlist.validate")),
            ("netlist.gates", d("netlist.gates")),
            ("techmap.decompose_ms", ms("techmap.decompose")),
            ("techmap.map_ms", ms("techmap.map")),
            ("techmap.to_hypergraph_ms", ms("techmap.to_hypergraph")),
            ("techmap.clbs", d("techmap.clbs")),
            ("techmap.nets", d("techmap.nets")),
            ("techmap.pins", d("techmap.pins")),
            ("multilevel.coarsen_ms", dur_ms("ml/coarsen")),
            ("multilevel.initial_ms", dur_ms("ml/initial")),
            ("multilevel.uncoarsen_ms", dur_ms("ml/level")),
            ("multilevel.levels_built", built),
            ("multilevel.levels_kept", kept),
            ("multilevel.kept_ratio", ratio(kept, built)),
            ("multilevel.coarsest_cells", d("trace.coarsest_cells")),
            ("multilevel.coarsest_nets", d("trace.coarsest_nets")),
            ("core.fm_passes", d("trace.fm_passes")),
            (
                "core.fm_pass_ms",
                ratio(passes.iter().sum(), passes.len() as f64),
            ),
            ("core.fm_selects", d("trace.fm_selects")),
            ("core.fm_applied", applied),
            ("core.fm_kept", kept_moves),
            ("core.fm_kept_ratio", ratio(kept_moves, applied)),
            ("core.fm_repairs", d("trace.fm_repairs")),
            ("core.fm_moves", d("core.moves")),
            ("core.replicated_cells", d("core.replicated_cells")),
            ("kway.attempts", d("trace.kway_attempts")),
            ("kway.feasible", d("trace.kway_feasible")),
            (
                "kway.feasible_ratio",
                ratio(d("trace.kway_feasible"), d("trace.kway_attempts")),
            ),
            ("kway.k", d("kway.k")),
            ("kway.degraded", d("kway.degraded")),
            ("kway.device_cost", d("kway.device_cost")),
            ("kway.iob_util", self.mean_iob_util()),
            ("engine.wall_ms", engine_wall),
            ("engine.busy_ms", engine_busy),
            ("engine.utilization", ratio(engine_busy, engine_capacity)),
            ("engine.starts", d("engine.starts")),
            (
                "engine.cutoff_hits",
                self.outcomes().map(|o| o.engine.cutoff_hits as f64).sum(),
            ),
            ("board.route_ms", ms("board.route")),
            ("board.routed_nets", d("board.routed_nets")),
            ("board.hops", d("board.hops")),
            ("board.congestion", d("board.congestion")),
            ("verify.cert_bytes", d("verify.cert_bytes")),
            ("verify.write_ms", ms("verify.write")),
            ("verify.parse_ms", ms("verify.parse")),
            ("verify.reingest_ms", ms("verify.reingest")),
            ("verify.check_ms", ms("verify.check")),
            ("obs.unattributed_ms", (wall_ms - attributed_ms).max(0.0)),
            ("obs.attributed_ratio", ratio(attributed_ms, wall_ms)),
        ])
    }
}

/// The median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of the usual tail percentiles with at least ten samples
/// above it, as `(percentile, value)`; `None` below 20 samples.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    [99u32, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| xs.len() as f64 * (1.0 - f64::from(p) / 100.0) >= 10.0)
        .map(|p| (p, quantile(xs, f64::from(p) / 100.0)))
}
