//! Shared experiment plumbing: scales, configs, per-workload runs.
//!
//! Figure sets run on the `sweep` crate's work-stealing engine; worker
//! counts honor `REDHIP_JOBS` (see [`sweep::default_jobs`]).

use energy_model::presets::{demo_scale, table_i};
use energy_model::PlatformSpec;
use sim::{run_traces, run_traces_with, Mechanism, RunResult, SimConfig, SimObserver};
use workloads::{Benchmark, Scale};

/// Which platform/workload scale an experiment runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureScale {
    /// Tiny: for tests and smoke runs of the harness itself.
    Smoke,
    /// Default: the 8×-scaled platform (see `energy_model::presets`).
    Demo,
    /// Full Table I configuration (slow; paper-sized runs).
    Paper,
}

impl FigureScale {
    /// The matching workload scale.
    pub fn workload_scale(self) -> Scale {
        match self {
            FigureScale::Smoke => Scale::Smoke,
            FigureScale::Demo => Scale::Demo,
            FigureScale::Paper => Scale::Paper,
        }
    }

    /// The matching platform parameters.
    pub fn platform(self) -> PlatformSpec {
        match self {
            // Smoke uses the demo platform: tiny workloads against the
            // demo hierarchy exercise every code path cheaply.
            FigureScale::Smoke | FigureScale::Demo => demo_scale(),
            FigureScale::Paper => table_i(),
        }
    }

    /// Default references per core.
    pub fn default_refs(self) -> usize {
        match self {
            FigureScale::Smoke => 20_000,
            _ => self.workload_scale().default_refs_per_core(),
        }
    }

    /// Parses `smoke` / `demo` / `paper`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(FigureScale::Smoke),
            "demo" => Some(FigureScale::Demo),
            "paper" => Some(FigureScale::Paper),
            _ => None,
        }
    }
}

/// Builds the paper-default configuration for one mechanism at a scale.
pub fn mechanism_config(scale: FigureScale, mechanism: Mechanism, refs: usize) -> SimConfig {
    let mut cfg = SimConfig::new(scale.platform(), mechanism);
    cfg.refs_per_core = refs;
    cfg.recalib_period = Some(scale.workload_scale().recalib_period());
    cfg
}

/// Runs one workload under `cfg`: one generator per core (each core of
/// `mix`/`blas`/`pmf` differs by construction; the SPEC benchmarks are the
/// paper's duplicated-trace setup with per-core seeds).
pub fn run_workload(cfg: &SimConfig, benchmark: Benchmark, scale: FigureScale) -> RunResult {
    let mut cfg = cfg.clone();
    cfg.avg_cpi = benchmark.avg_cpi();
    let ws = scale.workload_scale();
    let traces = (0..cfg.platform.cores)
        .map(|core| benchmark.trace(core, ws))
        .collect();
    run_traces(&cfg, traces)
}

/// Like [`run_workload`], but reports telemetry to `obs` while running.
pub fn run_workload_with<O: SimObserver>(
    cfg: &SimConfig,
    benchmark: Benchmark,
    scale: FigureScale,
    obs: O,
) -> (RunResult, O) {
    let mut cfg = cfg.clone();
    cfg.avg_cpi = benchmark.avg_cpi();
    let ws = scale.workload_scale();
    let traces = (0..cfg.platform.cores)
        .map(|core| benchmark.trace(core, ws))
        .collect();
    run_traces_with(&cfg, traces, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(FigureScale::parse("demo"), Some(FigureScale::Demo));
        assert_eq!(FigureScale::parse("PAPER"), Some(FigureScale::Paper));
        assert_eq!(FigureScale::parse("nope"), None);
    }

    #[test]
    fn smoke_platform_is_demo_hierarchy() {
        let p = FigureScale::Smoke.platform();
        assert_eq!(p.llc().capacity_bytes, 8 << 20);
        assert_eq!(FigureScale::Paper.platform().llc().capacity_bytes, 64 << 20);
    }

    #[test]
    fn mechanism_config_applies_scale_defaults() {
        let c = mechanism_config(FigureScale::Demo, Mechanism::Redhip, 1234);
        assert_eq!(c.refs_per_core, 1234);
        assert_eq!(c.recalib_period, Some(65_536));
    }

    #[test]
    fn smoke_workload_run_end_to_end() {
        let cfg = mechanism_config(FigureScale::Smoke, Mechanism::Redhip, 5_000);
        let r = run_workload(&cfg, Benchmark::Mcf, FigureScale::Smoke);
        assert_eq!(r.total_refs(), 5_000 * 8);
        assert!(r.hit_rate(0) > 0.2);
        assert!(r.prediction.lookups > 0);
    }
}
