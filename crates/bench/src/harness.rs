//! Shared experiment plumbing: configs, per-workload runs, parallel sweeps.
//!
//! Parallel execution rides on the `sweep` crate's work-stealing pool;
//! worker counts honor `REDHIP_JOBS` (see [`sweep::default_jobs`]).

use energy_model::presets::{demo_scale, table_i};
use energy_model::PlatformSpec;
use sim::{run_traces, run_traces_with, Mechanism, RunResult, SimConfig, SimObserver};
use sweep::{SweepEngine, SweepPlan, SweepResults};
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

/// [`run_parallel`] with a stderr [`telemetry::Heartbeat`]: the workers
/// bump a shared atomic tick counter and the calling thread drains it into
/// the heartbeat, so long sweeps report jobs/s, % complete and ETA without
/// any lock on the job hot path.
pub fn run_parallel_hb<J, R, F>(label: &str, jobs: Vec<J>, worker: F) -> Vec<R>
where
    J: Send + Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    run_parallel_inner(Some(label), jobs, worker)
}

/// Runs a set of jobs on the work-stealing pool (the harness is
/// embarrassingly parallel across workload × mechanism). Results return in
/// job order regardless of worker count or completion order.
pub fn run_parallel<J, R, F>(jobs: Vec<J>, worker: F) -> Vec<R>
where
    J: Send + Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    run_parallel_inner(None, jobs, worker)
}

fn run_parallel_inner<J, R, F>(label: Option<&str>, jobs: Vec<J>, worker: F) -> Vec<R>
where
    J: Send + Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let n = jobs.len();
    let mut heart = label.map(|l| telemetry::Heartbeat::new(l, "jobs", n as u64));
    let threads = sweep::default_jobs().min(n.max(1));
    if threads <= 1 {
        let out = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let r = worker(j);
                if let Some(h) = heart.as_mut() {
                    h.set_done(i as u64 + 1);
                }
                r
            })
            .collect();
        if let Some(h) = heart.as_mut() {
            h.finish();
        }
        return out;
    }
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let order: Vec<usize> = (0..n).collect();
    let ticks = std::sync::atomic::AtomicU64::new(0);
    pool::run_ordered(
        threads,
        &order,
        &ticks,
        |done| {
            if let Some(h) = heart.as_mut() {
                h.set_done(done);
            }
        },
        |i| {
            *slots[i].lock().expect("slot poisoned") = Some(worker(&jobs[i]));
        },
    )
    .unwrap_or_else(|e| panic!("{e}"));
    if let Some(h) = heart.as_mut() {
        h.finish();
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("job produced no result")
        })
        .collect()
}

/// Runs a single-figure [`SweepPlan`] immediately on a default engine —
/// the compatibility path for callers that want one figure without
/// assembling the whole-figure-set job graph themselves.
pub fn run_plan(plan: &SweepPlan, label: &str) -> SweepResults {
    SweepEngine::new(sweep::default_jobs())
        .run(plan, label)
        .unwrap_or_else(|e| panic!("{e}"))
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
    fn run_parallel_preserves_order() {
        let jobs: Vec<u64> = (0..20).collect();
        let out = run_parallel(jobs, |&j| j * 2);
        assert_eq!(out, (0..20).map(|j| j * 2).collect::<Vec<_>>());
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
