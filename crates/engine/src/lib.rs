//! Parallel portfolio search engine: deterministic multi-threaded
//! multi-start partitioning with a shared incumbent and result cache.
//!
//! The paper's quality numbers come from *portfolios* — many randomized
//! FM starts (Table III runs 20 per circuit) and many k-way carve
//! attempts (50 feasible candidates per run) — and portfolios are
//! embarrassingly parallel *if* the reduction is kept deterministic.
//! This crate fans those units of work across `std::thread` workers
//! while guaranteeing that `--jobs N` reduces to the identical best
//! solution as `--jobs 1` for a fixed seed:
//!
//! * work is claimed from an ascending counter and reduced in **fixed
//!   seed order** (lowest `(cost, index)`), never arrival order — see
//!   [`portfolio_bipartition`] / [`portfolio_kway`];
//! * a shared [`Incumbent`] (one atomic `fetch_min`, interleaving
//!   -independent by construction) lets workers skip provably useless
//!   work and gates the k-way escalation ladder behind a rescue phase;
//! * the shared wall deadline and [`CancelToken`](netpart_core::CancelToken)
//!   integrate with the core's `RunClock`/`Degradation` machinery, so a
//!   tripped budget drains every worker and still returns best-so-far;
//! * an in-memory [`ResultCache`] keyed by stable [`ContentHash`]
//!   digests answers repeated requests in O(1) — the [`Engine`] facade
//!   wires it all together.
//!
//! Everything here is std-only: no registry dependencies, per the
//! workspace's hermetic-build policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
mod hash;
mod incumbent;
mod portfolio;

pub use cache::{CacheStats, ResultCache};
pub use engine::Engine;
pub use hash::{combine, ContentHash, Fnv1a};
pub use incumbent::Incumbent;
pub use portfolio::{
    bipartition_key, kway_key, portfolio_bipartition, portfolio_bipartition_ml_traced,
    portfolio_kway, portfolio_kway_ml_traced, with_multilevel_key, KWayPortfolioResult,
    PortfolioResult, StartResult, WorkerStats,
};
