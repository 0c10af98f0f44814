//! End-to-end simulator throughput per mechanism (references/second): the
//! number that determines how long the figure harness takes. Also measures
//! the observer overhead: `NullObserver` (the default path, expected to be
//! free) against an attached `WindowedCollector` and a full telemetry
//! `Tee` (collector + silent heartbeat).

use bench::micro::Group;
use energy_model::presets::demo_scale;
use sim::{run_traces, run_traces_with, CoreTrace, Mechanism, SimConfig};
use telemetry::{Heartbeat, HeartbeatObserver, NullObserver, Tee, WindowedCollector};
use workloads::{Benchmark, Scale};

const REFS: usize = 5_000;

fn traces() -> Vec<CoreTrace> {
    (0..8)
        .map(|c| Benchmark::Mcf.trace(c, Scale::Smoke))
        .collect()
}

fn mechanisms() {
    let g = Group::new("sim", (REFS * 8) as u64);
    for mech in [
        Mechanism::Base,
        Mechanism::Redhip,
        Mechanism::Cbf,
        Mechanism::Phased,
        Mechanism::Oracle,
    ] {
        let mut cfg = SimConfig::new(demo_scale(), mech);
        cfg.refs_per_core = REFS;
        cfg.recalib_period = Some(8_192);
        g.bench_with_setup(&format!("{}_40k_refs", mech.name()), traces, |t| {
            run_traces(&cfg, t)
        });
    }
}

/// Observer overhead on the ReDHiP configuration: explicit `NullObserver`
/// (must match the plain `run_traces` row above), a windowed collector,
/// and the full CLI telemetry stack.
fn observers() {
    let g = Group::new("sim_observer", (REFS * 8) as u64);
    let mut cfg = SimConfig::new(demo_scale(), Mechanism::Redhip);
    cfg.refs_per_core = REFS;
    cfg.recalib_period = Some(8_192);
    let levels = cfg.platform.levels.len();

    g.bench_with_setup("redhip_null_observer", traces, |t| {
        run_traces_with(&cfg, t, NullObserver)
    });
    g.bench_with_setup("redhip_windowed_collector", traces, |t| {
        run_traces_with(&cfg, t, WindowedCollector::new(1_000, levels))
    });
    g.bench_with_setup("redhip_collector_plus_heartbeat", traces, |t| {
        let obs = Tee::new(
            WindowedCollector::new(1_000, levels),
            HeartbeatObserver::new(Heartbeat::new("bench", "refs", (REFS * 8) as u64).silent()),
        );
        run_traces_with(&cfg, t, obs)
    });
}

fn prefetch_overhead() {
    let g = Group::new("sim_prefetch", (REFS * 8) as u64);
    let mut cfg = SimConfig::new(demo_scale(), Mechanism::Base);
    cfg.refs_per_core = REFS;
    cfg.prefetch = Some(prefetch::StrideConfig::default());
    g.bench_with_setup("base_plus_stride_prefetch", traces, |t| run_traces(&cfg, t));
}

fn main() {
    mechanisms();
    observers();
    prefetch_overhead();
}
