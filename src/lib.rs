//! Umbrella crate for the ReDHiP reproduction workspace.
//!
//! Re-exports the public API of every member crate so examples and
//! downstream users can depend on a single crate:
//!
//! * [`redhip`] — the paper's contribution: prediction table, recalibration
//!   engine, CBF baseline.
//! * [`cache_sim`] — the deep-hierarchy simulation substrate.
//! * [`energy_model`] — Table I parameters and energy accounting.
//! * [`sim`] — the multi-core trace-driven simulator.
//! * [`workloads`] — the 11 evaluation workloads.
//! * [`mem_trace`] — trace records, synthetic streams, the v2 trace file
//!   format and its reader, statistics.
//! * [`prefetch`] — the stride prefetcher of §V-C.
//!
//! # Quickstart
//!
//! ```
//! use redhip_repro::prelude::*;
//!
//! // Paper-default ReDHiP on the demo-scale platform.
//! let mut cfg = SimConfig::new(demo_scale(), Mechanism::Redhip);
//! cfg.refs_per_core = 20_000;
//! let traces = (0..cfg.platform.cores)
//!     .map(|core| Benchmark::Mcf.trace(core, Scale::Smoke))
//!     .collect();
//! let result = run_traces(&cfg, traces);
//! assert!(result.prediction.bypasses > 0);
//! ```

pub use cache_sim;
pub use energy_model;
pub use mem_trace;
pub use prefetch;
pub use redhip;
pub use sim;
pub use workloads;

/// Everything needed for typical experiments.
pub mod prelude {
    pub use cache_sim::{DeepHierarchy, HierarchyConfig, InclusionPolicy, ReplacementPolicy};
    pub use energy_model::presets::{demo_scale, table_i};
    pub use mem_trace::{DynTrace, MemOp, ShardSpec, StreamTrace, TraceFeed, TraceRecord};
    pub use prefetch::{StrideConfig, StridePrefetcher};
    pub use redhip::{CountingBloomFilter, PredictionTable, RecalibrationEngine};
    pub use sim::{
        run_feeds, run_traces, run_traces_with, Comparison, CoreFeed, Heartbeat, HeartbeatObserver,
        Mechanism, NullObserver, RecalibMarker, RunResult, SimConfig, SimObserver, Tee,
        TelemetryRecord, WindowSample, WindowedCollector,
    };
    pub use workloads::{Benchmark, FileMode, Scale, TraceFileWorkload};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_pulls_a_working_pipeline() {
        let mut cfg = SimConfig::new(demo_scale(), Mechanism::Base);
        cfg.refs_per_core = 1_000;
        let traces = (0..cfg.platform.cores)
            .map(|core| Benchmark::Lbm.trace(core, Scale::Smoke))
            .collect();
        let r = run_traces(&cfg, traces);
        assert_eq!(r.total_refs(), 8_000);
    }
}
