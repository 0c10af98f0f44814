//! Set-associative cache and deep-hierarchy simulation substrate.
//!
//! The ReDHiP paper evaluates on a 4-level hierarchy (private L1–L3, shared
//! L4) simulated trace-by-trace. This crate provides that substrate from
//! scratch:
//!
//! * [`geometry::BlockGeometry`] — address ↔ (tag, set, offset) math.
//! * [`replacement`] — LRU, tree-PLRU, random, and SRRIP policies.
//! * [`cache::Cache`] — one set-associative writeback cache with probe /
//!   access / fill / invalidate / extract primitives and tag-array iteration
//!   (the recalibration engine reads LLC tags through this).
//! * [`traversal::Traversal`] — a reusable per-access event log: which
//!   arrays were looked up, where the access hit, every fill, writeback and
//!   invalidation, and every block inserted into or removed from each level
//!   (consumed by the predictors and the energy model).
//! * [`hierarchy::DeepHierarchy`] — a multi-core hierarchy implementing the
//!   paper's three inclusion policies (fully inclusive, fully exclusive, and
//!   the hybrid of §III-C) with correct back-invalidation and victim
//!   cascading.
//!
//! The crate is deliberately free of timing and energy knowledge: it reports
//! *what happened* per access and the `sim` crate prices it.

pub mod cache;
pub mod config;
pub mod geometry;
pub mod hierarchy;
pub mod inline_vec;
pub mod replacement;
pub mod traversal;

pub use cache::{Cache, Evicted};
pub use config::CacheConfig;
pub use geometry::BlockGeometry;
pub use hierarchy::{DeepHierarchy, HierarchyConfig, InclusionPolicy};
pub use replacement::ReplacementPolicy;
pub use traversal::{HierarchyStats, LevelId, LevelStats, Traversal};
