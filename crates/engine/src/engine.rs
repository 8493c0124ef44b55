//! The [`Engine`] facade: a configured portfolio runner with an
//! optional request-level result cache.

use crate::cache::{CacheStats, ResultCache};
use crate::portfolio::{
    bipartition_key, kway_key, portfolio_bipartition_ml_traced, portfolio_kway_ml_traced,
    with_multilevel_key, KWayPortfolioResult, PortfolioResult,
};
use netpart_core::{BipartitionConfig, KWayConfig, PartitionError};
use netpart_hypergraph::Hypergraph;
use netpart_multilevel::MultilevelConfig;
use netpart_obs::{Event, Level, NoopRecorder, Recorder, Span};
use std::sync::Arc;

/// A portfolio engine instance: thread count plus (optionally) a
/// request cache that lives as long as the engine.
///
/// Caching is keyed by the content hash of `(hypergraph, configuration,
/// start count)` — see [`ContentHash`](crate::ContentHash) — and is
/// therefore *jobs-invariant*: a request computed at `--jobs 1` serves
/// an identical later request at `--jobs 8` and vice versa, which is
/// only sound because the portfolio reduction itself is deterministic
/// across thread counts. Only successful results are cached; errors are
/// recomputed. Budgeted requests are cached like any other (the budget
/// is part of the key): a cache hit then simply replays the degraded
/// solution the budget originally allowed, which keeps repeated
/// requests consistent with each other.
#[derive(Debug)]
pub struct Engine {
    jobs: usize,
    cache_enabled: bool,
    multilevel: Option<MultilevelConfig>,
    recorder: Arc<dyn Recorder>,
    bipartitions: ResultCache<PortfolioResult>,
    kways: ResultCache<KWayPortfolioResult>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            jobs: 1,
            cache_enabled: false,
            multilevel: None,
            recorder: Arc::new(NoopRecorder),
            bipartitions: ResultCache::default(),
            kways: ResultCache::default(),
        }
    }
}

impl Engine {
    /// An engine fanning work across `jobs` worker threads (clamped to
    /// at least 1), with the cache disabled.
    pub fn new(jobs: usize) -> Self {
        Engine {
            jobs: jobs.max(1),
            ..Engine::default()
        }
    }

    /// Enables or disables the result cache.
    pub fn with_cache(mut self, on: bool) -> Self {
        self.cache_enabled = on;
        self
    }

    /// Enables (`Some`) or disables (`None`) the multilevel V-cycle:
    /// every portfolio start/task coarsens the circuit, partitions the
    /// coarsest graph and refines back up (see
    /// [`netpart_multilevel`]). Cache keys fold in the configuration,
    /// so flat and multilevel requests never serve each other; seed
    /// derivation and reduction order are unchanged, so `--jobs`
    /// invariance holds exactly as in the flat engine.
    #[must_use]
    pub fn with_multilevel(mut self, ml: Option<MultilevelConfig>) -> Self {
        self.multilevel = ml;
        self
    }

    /// Attaches a telemetry recorder: portfolio runs launched through
    /// this engine emit their deterministic trace into it (see
    /// [`portfolio_bipartition_ml_traced`](crate::portfolio_bipartition_ml_traced)),
    /// and cache lookups emit
    /// `engine.cache` hit/miss events.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The configured worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Whether the result cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// The multilevel configuration, when the V-cycle is enabled.
    pub fn multilevel(&self) -> Option<&MultilevelConfig> {
        self.multilevel.as_ref()
    }

    fn record_cache(&self, kind: &'static str, hit: bool) {
        if self.recorder.enabled(Level::Debug) {
            self.recorder.record(
                &Event::new("engine", "cache", Level::Debug)
                    .field("kind", kind)
                    .field("hit", hit),
            );
            let name = if hit { "cache_hits" } else { "cache_misses" };
            self.recorder
                .record(&Event::counter("engine", name, 1).at(Level::Debug));
        }
    }

    /// Runs (or serves from cache) a multi-start bipartition portfolio;
    /// see [`portfolio_bipartition`](crate::portfolio_bipartition) for
    /// semantics and errors. The second return value is `true` on a
    /// cache hit.
    pub fn bipartition_many(
        &self,
        hg: &Hypergraph,
        base: &BipartitionConfig,
        n: usize,
    ) -> Result<(Arc<PortfolioResult>, bool), PartitionError> {
        let ml = self.multilevel.as_ref();
        let _span = Span::enter(self.recorder.as_ref(), "engine", "bipartition");
        if !self.cache_enabled {
            return portfolio_bipartition_ml_traced(hg, base, n, self.jobs, ml, &self.recorder)
                .map(|r| (Arc::new(r), false));
        }
        let key = with_multilevel_key(bipartition_key(hg, base, n), ml);
        let out = self.bipartitions.try_get_or_compute(key, || {
            portfolio_bipartition_ml_traced(hg, base, n, self.jobs, ml, &self.recorder)
        });
        if let Ok((_, hit)) = &out {
            self.record_cache("bipartition", *hit);
        }
        out
    }

    /// Runs (or serves from cache) a k-way carving portfolio; see
    /// [`portfolio_kway`](crate::portfolio_kway) for semantics and
    /// errors. The second return value is `true` on a cache hit.
    pub fn kway(
        &self,
        hg: &Hypergraph,
        cfg: &KWayConfig,
        tasks: usize,
    ) -> Result<(Arc<KWayPortfolioResult>, bool), PartitionError> {
        let ml = self.multilevel.as_ref();
        let _span = Span::enter(self.recorder.as_ref(), "engine", "kway");
        if !self.cache_enabled {
            return portfolio_kway_ml_traced(hg, cfg, tasks, self.jobs, ml, &self.recorder)
                .map(|r| (Arc::new(r), false));
        }
        let key = with_multilevel_key(kway_key(hg, cfg, tasks), ml);
        let out = self.kways.try_get_or_compute(key, || {
            portfolio_kway_ml_traced(hg, cfg, tasks, self.jobs, ml, &self.recorder)
        });
        if let Ok((_, hit)) = &out {
            self.record_cache("kway", *hit);
        }
        out
    }

    /// Combined hit/miss/size counters over both caches.
    pub fn cache_stats(&self) -> CacheStats {
        let b = self.bipartitions.stats();
        let k = self.kways.stats();
        CacheStats {
            hits: b.hits + k.hits,
            misses: b.misses + k.misses,
            entries: b.entries + k.entries,
        }
    }

    /// Drops every cached result (counters are kept).
    pub fn clear_cache(&self) {
        self.bipartitions.clear();
        self.kways.clear();
    }
}
