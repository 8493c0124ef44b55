//! The traced run's span recorder.
//!
//! [`Tracer`] keeps every span in memory until the run ends. The
//! benchmark opens a span around each call into a layer
//! ([`Tracer::enter`] / [`Tracer::exit`]); the program's own `span.enter`
//! / `span.exit` events arrive through the [`Recorder`] hooks
//! (`Engine::with_recorder`, `RunClock::with_recorder`) and nest under
//! whichever span is open. The same hook supplies the work counters
//! (`fm.pass`, `ml.coarsen`, `kway.attempts`, `kway.feasible`).
//!
//! The portfolio engine buffers each start's events and replays them
//! after its workers join, so a program span's *duration* is real (its
//! `elapsed_us`) but the moment the tracer sees it is not: program spans
//! carry a duration and no start or end.

use netpart::obs::profile::span_key;
use netpart::obs::trace::Json;
use netpart::obs::{parse_json, Event, Kind, Level, Recorder, Value, TIMING_SCOPE};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Unique within one tracer, in order of entry.
    pub id: u64,
    /// The span open when this one was entered.
    pub parent: Option<u64>,
    /// The pipeline operation the span belongs to.
    pub op: u64,
    /// `layer.call` for the benchmark's spans, `scope/label[#detail]`
    /// for the program's.
    pub name: String,
    /// Start and end in µs since the tracer was created (benchmark
    /// spans only).
    pub interval: Option<(u64, u64)>,
    /// Duration in µs.
    pub dur_us: u64,
}

/// Work counters observed through the program's events during one
/// operation. Every field is deterministic for a fixed input.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `fm.pass` events.
    pub fm_passes: u64,
    /// Σ `selects` over `fm.pass` events.
    pub fm_selects: u64,
    /// Σ `applied` over `fm.pass` events.
    pub fm_applied: u64,
    /// Σ `kept` over `fm.pass` events.
    pub fm_kept: u64,
    /// Σ `repairs` over `fm.pass` events.
    pub fm_repairs: u64,
    /// Coarsening levels attempted (`ml/coarsen` spans).
    pub levels_built: u64,
    /// Coarsening levels kept (`ml.coarsen` events).
    pub levels_kept: u64,
    /// Cells of the last kept level.
    pub coarsest_cells: u64,
    /// Nets of the last kept level.
    pub coarsest_nets: u64,
    /// Σ of the `kway.attempts` counter.
    pub kway_attempts: u64,
    /// Σ of the `kway.feasible` counter.
    pub kway_feasible: u64,
}

impl Counts {
    fn observe(&mut self, e: &Event) {
        let field = |key: &str| {
            e.fields.iter().find_map(|(k, v)| match v {
                Value::U64(x) if *k == key => Some(*x),
                _ => None,
            })
        };
        let delta = match e.kind {
            Kind::Counter(d) => d,
            _ => 0,
        };
        match (e.scope, e.name) {
            ("fm", "pass") => {
                self.fm_passes += 1;
                self.fm_selects += field("selects").unwrap_or(0);
                self.fm_applied += field("applied").unwrap_or(0);
                self.fm_kept += field("kept").unwrap_or(0);
                self.fm_repairs += field("repairs").unwrap_or(0);
            }
            ("ml", "coarsen") => {
                self.levels_kept += 1;
                self.coarsest_cells = field("coarse_cells").unwrap_or(0);
                self.coarsest_nets = field("coarse_nets").unwrap_or(0);
            }
            ("kway", "attempts") => self.kway_attempts += delta,
            ("kway", "feasible") => self.kway_feasible += delta,
            _ => {}
        }
    }
}

#[derive(Debug)]
struct Open {
    id: u64,
    parent: Option<u64>,
    name: String,
    /// `Some` for benchmark spans.
    start: Option<Instant>,
}

#[derive(Debug, Default)]
struct State {
    op: u64,
    next_id: u64,
    open: Vec<Open>,
    spans: Vec<SpanRecord>,
    counts: Counts,
    errors: Vec<String>,
}

/// In-memory span and counter sink for the traced run.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Tracer {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer state poisoned: a recording thread panicked")
    }

    /// Starts pipeline operation `op`: later spans carry its id and the
    /// counters restart from zero.
    pub fn begin_op(&self, op: u64) {
        let mut s = self.lock();
        s.op = op;
        s.counts = Counts::default();
    }

    /// The counters observed since [`begin_op`](Self::begin_op).
    pub fn counts(&self) -> Counts {
        self.lock().counts.clone()
    }

    /// Opens a benchmark span.
    pub fn enter(&self, name: &str) {
        let mut s = self.lock();
        s.push(name.to_string(), Some(Instant::now()));
    }

    /// Closes the innermost span, which must be the benchmark span `name`.
    pub fn exit(&self, name: &str) {
        let end = Instant::now();
        let mut s = self.lock();
        match s.open.pop() {
            Some(Open {
                id,
                parent,
                name: open_name,
                start: Some(start),
            }) if open_name == name => {
                let from = start.duration_since(self.t0).as_micros() as u64;
                let to = end.duration_since(self.t0).as_micros() as u64;
                let op = s.op;
                s.spans.push(SpanRecord {
                    id,
                    parent,
                    op,
                    name: open_name,
                    interval: Some((from, to)),
                    dur_us: to - from,
                });
            }
            other => {
                let msg = format!("span {name} closed while {other:?} was innermost");
                s.errors.push(msg);
            }
        }
    }

    /// Every closed span, in order of closing.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// Span nesting errors seen so far (empty when the stream was
    /// balanced).
    pub fn errors(&self) -> Vec<String> {
        let s = self.lock();
        let mut errors = s.errors.clone();
        if !s.open.is_empty() {
            errors.push(format!("{} span(s) never closed", s.open.len()));
        }
        errors
    }
}

impl State {
    fn push(&mut self, name: String, start: Option<Instant>) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map(|o| o.id);
        self.open.push(Open {
            id,
            parent,
            name,
            start,
        });
    }
}

impl Recorder for Tracer {
    fn enabled(&self, _level: Level) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        // Worker lifecycle spans overlap across threads; the engine's
        // own result carries the per-worker figures instead.
        if event.scope == TIMING_SCOPE {
            return;
        }
        let mut s = self.lock();
        match (event.name, span_key(event)) {
            ("span.enter", Some(key)) => {
                if key.starts_with("ml/coarsen") {
                    s.counts.levels_built += 1;
                }
                s.push(key, None);
            }
            ("span.exit", Some(key)) => match s.open.pop() {
                Some(Open {
                    id,
                    parent,
                    name,
                    start: None,
                }) if name == key => {
                    let dur_us = event
                        .timing
                        .iter()
                        .find_map(|(k, v)| match v {
                            Value::U64(us) if *k == "elapsed_us" => Some(*us),
                            _ => None,
                        })
                        .unwrap_or(0);
                    let op = s.op;
                    s.spans.push(SpanRecord {
                        id,
                        parent,
                        op,
                        name,
                        interval: None,
                        dur_us,
                    });
                }
                other => {
                    let msg = format!("program span {key} closed while {other:?} was innermost");
                    s.errors.push(msg);
                }
            },
            _ => s.counts.observe(event),
        }
    }
}

/// Self time of every span, by id: its duration minus the part its
/// children cover. Children with an interval cover their union within
/// the parent; program children, which have only a duration, cover
/// their summed duration. The result is clamped at zero, which is what
/// a parent whose children ran on parallel workers gets.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, s.dur_us.saturating_sub(covered_us(s, kids)))
        })
        .collect()
}

fn covered_us(parent: &SpanRecord, kids: &[&SpanRecord]) -> u64 {
    let mut timed: Vec<(u64, u64)> = Vec::new();
    let mut untimed = 0u64;
    for k in kids {
        match (k.interval, parent.interval) {
            (Some((a, b)), Some((pa, pb))) => timed.push((a.max(pa), b.min(pb))),
            _ => untimed += k.dur_us,
        }
    }
    timed.sort_unstable();
    let mut union = 0u64;
    let mut reach = 0u64;
    for (a, b) in timed {
        let a = a.max(reach);
        if b > a {
            union += b - a;
            reach = b;
        }
    }
    (union + untimed).min(parent.dur_us)
}

/// The layer (crate) a span's time belongs to.
pub fn layer_of(name: &str) -> &'static str {
    let head = name.split(['.', '/', '#']).next().unwrap_or(name);
    match head {
        "netlist" => "netlist",
        "techmap" => "techmap",
        "ml" => "multilevel",
        "fm" => "core",
        "kway" => "kway",
        "engine" => "engine",
        "board" => "board",
        "verify" => "verify",
        _ => "bench",
    }
}

/// Serialises spans as JSON lines, one span per line.
pub fn to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"dur_us\":{}}}",
            s.id,
            opt(s.parent),
            s.op,
            s.name,
            opt(s.interval.map(|i| i.0)),
            opt(s.interval.map(|i| i.1)),
            s.dur_us
        );
    }
    out
}

/// Parses the output of [`to_jsonl`].
pub fn from_jsonl(text: &str) -> Result<Vec<SpanRecord>, String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let j = parse_json(line).map_err(|e| format!("span line {}: {e}", i + 1))?;
            let num = |k: &str| j.get(k).and_then(Json::as_u64);
            let need = |k: &str| num(k).ok_or_else(|| format!("span line {}: no {k}", i + 1));
            let interval = match (num("start_us"), num("end_us")) {
                (Some(a), Some(b)) => Some((a, b)),
                _ => None,
            };
            Ok(SpanRecord {
                id: need("id")?,
                parent: num("parent"),
                op: need("op")?,
                name: j
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("span line {}: no name", i + 1))?
                    .to_string(),
                interval,
                dur_us: need("dur_us")?,
            })
        })
        .collect()
}

/// The self-time tables: one row per span name, heaviest first, then
/// one row per layer. Shares are of `wall_us`; spans that ran on
/// parallel workers can add up to more than 100%.
pub fn self_time_table(spans: &[SpanRecord], selfs: &BTreeMap<u64, u64>, wall_us: u64) -> String {
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        let row = by_name.entry(s.name.as_str()).or_default();
        row.0 += 1;
        row.1 += s.dur_us;
        row.2 += selfs[&s.id];
        *by_layer.entry(layer_of(&s.name)).or_default() += selfs[&s.id];
    }
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then(a.0.cmp(b.0)));
    let pct = |us: u64| 100.0 * us as f64 / wall_us.max(1) as f64;
    let mut out = format!(
        "{:<28} {:<10} {:>7} {:>12} {:>12} {:>7}\n",
        "span", "layer", "calls", "total_ms", "self_ms", "self_%"
    );
    for (name, (calls, total, own)) in rows {
        let _ = writeln!(
            out,
            "{:<28} {:<10} {:>7} {:>12.3} {:>12.3} {:>7.2}",
            name,
            layer_of(name),
            calls,
            total as f64 / 1e3,
            own as f64 / 1e3,
            pct(own)
        );
    }
    let _ = writeln!(out, "\n{:<10} {:>12} {:>7}", "layer", "self_ms", "self_%");
    let mut layers: Vec<_> = by_layer.into_iter().collect();
    layers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (layer, own) in layers {
        let _ = writeln!(
            out,
            "{layer:<10} {:>12.3} {:>7.2}",
            own as f64 / 1e3,
            pct(own)
        );
    }
    out
}
