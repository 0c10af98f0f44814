//! SPEC-2006-like kernel generators.
//!
//! One module per benchmark from the paper's subset. Each documents the
//! memory structure of the original program and builds a stream with the
//! same character from the `mem_trace::synth` primitives (or a bespoke
//! kernel where the structure demands it, e.g. `mcf`'s pointer chasing).
//!
//! Region base addresses are distinct per benchmark so that the `mix`
//! workload's per-core streams stay recognizable in diagnostics; the
//! simulator additionally offsets each core's whole address space.

pub mod astar;
pub mod bwaves;
pub mod cactusadm;
pub mod gemsfdtd;
pub mod lbm;
pub mod mcf;
pub mod milc;
pub mod soplex;

use mem_trace::record::TraceRecord;
use mem_trace::DynTrace;

/// Boxes a concrete generator as a [`DynTrace`].
pub(crate) fn boxed<T>(t: T) -> DynTrace
where
    T: Iterator<Item = TraceRecord> + Send + 'static,
{
    Box::new(t)
}

/// Mixes a benchmark seed with the core id deterministically.
pub(crate) fn seed_for(base: u64, core: usize) -> u64 {
    base ^ (core as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::scale::Scale;
    use mem_trace::stats::TraceStats;
    use mem_trace::DynTrace;

    /// Asserts the properties every workload needs for the evaluation: a
    /// growing footprint (full-run footprints exceed the LLC; sweep-style
    /// kernels only reveal theirs over millions of references, so the
    /// threshold for this short sample is per-benchmark), a plausible
    /// L1-like short-reuse band, and a non-degenerate store mix.
    pub fn check_workload(
        trace: DynTrace,
        refs: usize,
        reuse_band: (f64, f64),
        stride_band: (f64, f64),
        min_footprint: u64,
    ) -> TraceStats {
        let stats = TraceStats::measure(trace, refs);
        assert_eq!(stats.records as usize, refs, "generator ended early");
        assert!(
            stats.footprint_bytes() > min_footprint,
            "footprint {} below {min_footprint}",
            stats.footprint_bytes()
        );
        let reuse = stats.short_reuse_fraction();
        assert!(
            reuse >= reuse_band.0 && reuse <= reuse_band.1,
            "short-reuse {reuse:.3} outside {reuse_band:?}"
        );
        let stride = stats.stride_predictability();
        assert!(
            stride >= stride_band.0 && stride <= stride_band.1,
            "stride predictability {stride:.3} outside {stride_band:?}"
        );
        stats
    }

    /// Standard scale/refs for generator tests.
    pub fn demo_sample() -> (Scale, usize) {
        (Scale::Demo, 120_000)
    }
}
