//! End-to-end coverage for traces of unequal length: the scheduler must
//! drain every core to its own end, and `cycles_per_ref` must keep the
//! per-core-average semantics its unit tests pin, on a real run.

use redhip_repro::prelude::*;

const FULL: usize = 20_000;
const SHORT: u64 = 1_000;

fn asymmetric_run(mechanism: Mechanism) -> RunResult {
    let mut platform = demo_scale();
    platform.cores = 2;
    let mut cfg = SimConfig::new(platform, mechanism);
    cfg.refs_per_core = FULL;
    cfg.avg_cpi = Benchmark::Mcf.avg_cpi();
    cfg.recalib_period = Some(4_096);
    // Core 0 runs out of trace early; core 1 runs to the configured target.
    let short: CoreTrace = Box::new(Benchmark::Mcf.trace(0, Scale::Smoke).take(SHORT as usize));
    let full: CoreTrace = Benchmark::Mcf.trace(1, Scale::Smoke);
    run_traces(&cfg, vec![short, full])
}

#[test]
fn unequal_trace_lengths_drain_each_core_independently() {
    for mechanism in [Mechanism::Base, Mechanism::Redhip, Mechanism::Phased] {
        let r = asymmetric_run(mechanism);
        assert_eq!(
            r.refs_per_core,
            vec![SHORT, FULL as u64],
            "{mechanism:?}: exhausted core must stop at its trace end"
        );
        assert_eq!(r.total_refs(), SHORT + FULL as u64);
        assert!(r.cycles > 0);
    }
}

#[test]
fn cycles_per_ref_uses_per_core_average_on_asymmetric_runs() {
    let r = asymmetric_run(Mechanism::Base);
    // cycles_per_ref is cycles divided by the *mean* per-core reference
    // count — cycles * cores / total_refs — not cycles / total_refs.
    let cores = r.refs_per_core.len() as f64;
    let expected = r.cycles as f64 * cores / r.total_refs() as f64;
    assert!(
        (r.cycles_per_ref() - expected).abs() < 1e-9,
        "cycles_per_ref {} != cycles*cores/total_refs {}",
        r.cycles_per_ref(),
        expected
    );
    // Sanity: on this workload the metric must sit strictly between the
    // naive per-ref quotient and the single-core quotient.
    let naive = r.cycles as f64 / r.total_refs() as f64;
    assert!(
        r.cycles_per_ref() > naive,
        "per-core average must exceed naive"
    );
}

#[test]
fn asymmetric_runs_are_deterministic() {
    // The batched scheduler takes a data-dependent number of inner steps
    // per outer pick; re-running the same asymmetric workload must give
    // bit-identical cycles and energy.
    let a = asymmetric_run(Mechanism::Redhip);
    let b = asymmetric_run(Mechanism::Redhip);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.refs_per_core, b.refs_per_core);
    assert_eq!(
        a.energy.total_dynamic_j().to_bits(),
        b.energy.total_dynamic_j().to_bits()
    );
    assert_eq!(a.prediction.recalibrations, b.prediction.recalibrations);
}
