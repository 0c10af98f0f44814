//! Work-stealing sweep engine: one pool, one job graph, memoized cells.
//!
//! The figure/ablation harness's heaviest workload is the full-figure
//! sweep: hundreds of embarrassingly-parallel (workload × mechanism ×
//! config) simulation cells. This crate schedules all of them as **one**
//! job graph on **one** persistent worker pool:
//!
//! * [`SweepPlan`] — figures enumerate their cells up front; identical
//!   cells (canonical `SimConfig`+workload key) are deduped, so the
//!   Fig 6/7 matrix computed once feeds every downstream figure.
//! * [`pool`] — an in-tree work-stealing pool (per-worker Chase–Lev
//!   deques plus a global injector; crossbeam was vendored out in PR 1)
//!   seeded longest-expected-cell-first ([`CellSpec::cost`]) to kill tail
//!   stragglers.
//! * [`ResultCache`] — memoized results, in-memory per process and
//!   optionally on disk under a versioned directory — the seed of the
//!   sweep server's shared cache.
//! * [`SweepResults`] — deterministic merge: results are published into
//!   pre-allocated slots by cell id, so outputs are byte-identical
//!   regardless of worker count.

pub mod cache;
pub mod cell;
pub mod engine;

pub use cache::{ResultCache, CACHE_SCHEMA, CACHE_VERSION};
pub use cell::{CellSource, CellSpec};
pub use engine::{
    default_jobs, CellId, SweepEngine, SweepError, SweepPlan, SweepResults, SweepStats,
};
pub use pool::PoolError;
