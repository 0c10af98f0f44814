//! Multi-core trace-driven system simulator.
//!
//! Wires the substrates together the way the paper's evaluation
//! infrastructure does: per-core trace streams (from `workloads`) drive an
//! 8-core deep hierarchy (`cache-sim`) under one of eight mechanisms —
//!
//! * **Base** — walk L1→L2→L3→L4→memory, parallel tag+data everywhere.
//! * **ReDHiP** — consult the prediction table after each L1 miss; bypass
//!   the whole lower hierarchy on a predicted miss; recalibrate
//!   periodically (`redhip`).
//! * **CBF** — same lookup point, counting-Bloom-filter predictor.
//! * **Phased** — no predictor; L3/L4 serialize tag → data.
//! * **Oracle** — perfect LLC-residency knowledge at zero cost.
//! * **LevelPred** — per-load predicted hit level steers the lookup order
//!   ([`predictor`] registry, arXiv:2103.14808).
//! * **Perceptron** — hashed perceptron gating the DRAM bypass behind a
//!   confidence threshold (arXiv:2403.15181).
//! * **WayMemo** — tag-way read skipping on memoized re-touched blocks
//!   (arXiv:0710.4703).
//!
//! Timing follows the paper's model: non-memory instructions cost
//! `gap × avg_cpi` cycles, memory time is the serialized lookup chain, the
//! prediction table adds its wire + access delay on every L1 miss, memory
//! itself is a 0-cycle perfect store, and recalibration stalls every core.
//! Energy events come from the per-access [`cache_sim::Traversal`] log and
//! are priced by `energy-model`.
//!
//! Entry points: [`config::SimConfig`] → [`run::run_traces`] →
//! [`run::RunResult`]; [`metrics`] computes the paper's derived quantities
//! (speedup, normalized dynamic energy, the performance-energy metric).

pub mod config;
pub mod metrics;
pub mod predictor;
pub mod report;
pub mod run;
pub mod stats;
pub mod system;

pub use config::{
    AccountingOptions, CbfParams, LevelPredParams, Mechanism, PerceptronParams, SimConfig,
    WayMemoParams,
};
pub use metrics::Comparison;
pub use predictor::{parse_spec, spec_string, MechanismInfo, ParsedSpec, REGISTRY};
pub use run::{run_feeds, run_feeds_with, run_traces, run_traces_with, CoreFeed, RunResult};
pub use stats::{PredictionStats, PrefetchSummary};
pub use system::System;
pub use telemetry::{
    Heartbeat, HeartbeatObserver, NullObserver, RecalibMarker, SimObserver, Tee, TelemetryRecord,
    WindowSample, WindowedCollector,
};
