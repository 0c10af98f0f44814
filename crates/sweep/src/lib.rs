//! Sweep engine: one job graph, one shared cursor, memoized cells.
//!
//! The figure/ablation harness's heaviest workload is the full-figure
//! sweep: hundreds of embarrassingly-parallel (workload × mechanism ×
//! config) simulation cells, all known before the first one runs. This
//! crate schedules them as **one** job graph:
//!
//! * [`SweepPlan`] — figures enumerate their cells up front; identical
//!   cells (canonical `SimConfig`+workload key) are deduped, so the
//!   Fig 6/7 matrix computed once feeds every downstream figure.
//! * [`SweepEngine::run`] — `--jobs` scoped workers (the calling thread
//!   is one) claim the next cell from one shared atomic cursor over the
//!   cells sorted longest-expected-first ([`CellSpec::cost`]), so the
//!   tail of the sweep is short cells. One code path serves every job
//!   count.
//! * [`ResultCache`] — memoized results, in-memory per process and
//!   optionally on disk under a versioned directory.
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
