//! Telemetry integration tests: the windowed JSONL stream must exactly
//! reproduce the end-of-run aggregates, be byte-identical across
//! same-seed runs, and expose the paper's accuracy sawtooth around
//! recalibration events.

use energy_model::presets::demo_scale;
use mem_trace::record::{MemOp, TraceRecord};
use mem_trace::DynTrace;
use sim::{
    run_traces, run_traces_with, Mechanism, RunResult, SimConfig, TelemetryRecord,
    WindowedCollector,
};

fn telemetry_cfg(cores: usize) -> SimConfig {
    let mut platform = demo_scale();
    platform.cores = cores;
    let mut cfg = SimConfig::new(platform, Mechanism::Redhip);
    cfg.refs_per_core = 30_000;
    cfg.recalib_period = Some(2_000);
    cfg
}

/// Mixed hot/cold stream (same shape as the `sim` unit-test workload): a
/// hot 8 KB region the L1 absorbs plus cold never-reused misses the
/// predictor learns to bypass.
fn stream(seed: u64) -> DynTrace {
    Box::new((0..u64::MAX).map(move |i| {
        let x = (i.wrapping_mul(6364136223846793005).wrapping_add(seed)) >> 33;
        let addr = if i % 8 != 0 {
            (x % 128) * 64
        } else {
            0x1000_0000 + (x % (1 << 22)) * 64
        };
        let op = if i % 5 == 0 {
            MemOp::Store
        } else {
            MemOp::Load
        };
        TraceRecord::new(0x400 + (i % 7) * 4, addr, op, 2)
    }))
}

fn run_collected(cfg: &SimConfig, window: u64) -> (RunResult, WindowedCollector) {
    let traces = (0..cfg.platform.cores)
        .map(|c| stream(c as u64 + 1))
        .collect();
    let collector = WindowedCollector::new(window, cfg.platform.levels.len());
    run_traces_with(cfg, traces, collector)
}

/// Summing every window's integer counters (and the markers' energy)
/// reproduces the final `RunResult` aggregates exactly.
#[test]
fn window_sums_reproduce_aggregates() {
    let cfg = telemetry_cfg(2);
    // Window width that does not divide refs_per_core: forces partial
    // final windows, which must still be emitted and counted.
    let (result, obs) = run_collected(&cfg, 7_000);

    let total_window_refs: u64 = obs.windows().map(|w| w.refs).sum();
    assert_eq!(total_window_refs, result.total_refs());

    // Per-level demand counters, level by level.
    for (lvl, agg) in result.hierarchy.levels.iter().enumerate() {
        let lookups: u64 = obs
            .windows()
            .map(|w| w.level_lookups.get(lvl).copied().unwrap_or(0))
            .sum();
        let hits: u64 = obs
            .windows()
            .map(|w| w.level_hits.get(lvl).copied().unwrap_or(0))
            .sum();
        let fills: u64 = obs
            .windows()
            .map(|w| w.level_fills.get(lvl).copied().unwrap_or(0))
            .sum();
        assert_eq!(lookups, agg.lookups, "L{} lookups", lvl + 1);
        assert_eq!(hits, agg.hits, "L{} hits", lvl + 1);
        assert_eq!(fills, agg.fills, "L{} fills", lvl + 1);
    }

    // Predictor outcomes.
    let p = &result.prediction;
    let bypasses: u64 = obs.windows().map(|w| w.bypasses).sum();
    let walk_hits: u64 = obs.windows().map(|w| w.walk_hits).sum();
    let false_positives: u64 = obs.windows().map(|w| w.false_positives).sum();
    let lookups: u64 = obs.windows().map(|w| w.pred_lookups()).sum();
    assert_eq!(bypasses, p.bypasses);
    assert_eq!(walk_hits, p.walk_hits);
    assert_eq!(false_positives, p.false_positives);
    assert_eq!(lookups, p.lookups);
    assert!(p.bypasses > 0, "workload produced no bypasses");

    // One marker per completed recalibration, in stream order.
    assert_eq!(obs.recalibrations().count() as u64, p.recalibrations);
    assert!(p.recalibrations > 0, "workload produced no recalibrations");
    for (i, m) in obs.recalibrations().enumerate() {
        assert_eq!(m.index as usize, i);
        assert_eq!(m.core_refs.len(), cfg.platform.cores);
    }

    // The latency histogram covers every reference.
    let hist_refs: u64 = obs
        .windows()
        .map(|w| w.latency_hist.iter().sum::<u64>())
        .sum();
    assert_eq!(hist_refs, result.total_refs());

    // Energy: window deltas plus recalibration markers account for the
    // whole dynamic total (f64 accumulation order differs, so compare to
    // relative tolerance rather than bit equality).
    let window_nj: f64 = obs.windows().map(|w| w.energy_nj).sum();
    let marker_nj: f64 = obs.recalibrations().map(|m| m.energy_nj).sum();
    let total_j = (window_nj + marker_nj) * 1e-9;
    let agg_j = result.energy.total_dynamic_j();
    assert!(
        (total_j - agg_j).abs() <= agg_j * 1e-9,
        "telemetry energy {total_j} vs aggregate {agg_j}"
    );
}

/// Two identical runs emit byte-identical JSONL (telemetry is
/// deterministic, suitable for golden files and run diffing).
#[test]
fn same_seed_runs_are_byte_identical() {
    let cfg = telemetry_cfg(2);
    let (_, a) = run_collected(&cfg, 5_000);
    let (_, b) = run_collected(&cfg, 5_000);
    let ja = a.to_jsonl();
    assert_eq!(ja.as_bytes(), b.to_jsonl().as_bytes());

    // And the stream round-trips through the parser.
    let parsed = WindowedCollector::parse_jsonl(&ja).expect("valid JSONL");
    assert_eq!(parsed.len(), a.records().len());
}

/// The collector-attached run must not change simulation results.
#[test]
fn observer_does_not_perturb_the_simulation() {
    let cfg = telemetry_cfg(2);
    let (with_obs, _) = run_collected(&cfg, 5_000);
    let plain = run_traces(&cfg, (0..2).map(|c| stream(c as u64 + 1)).collect());
    assert_eq!(with_obs.cycles, plain.cycles);
    assert_eq!(with_obs.prediction.lookups, plain.prediction.lookups);
    assert_eq!(with_obs.prediction.bypasses, plain.prediction.bypasses);
    assert_eq!(
        with_obs.hierarchy.memory_fetches,
        plain.hierarchy.memory_fetches
    );
}

/// The paper's temporal claim (Figs. 9-12): prediction-table accuracy
/// decays as the table goes stale and snaps back at recalibration. On a
/// drift-inducing trace, the window right after each recalibration must be
/// more accurate than the window right before it.
#[test]
fn recalibration_restores_window_accuracy_on_drifting_trace() {
    // Shrink the LLC to 1 MB (16 K lines) so evictions cycle within a
    // short run; a single core keeps the inclusive hierarchy valid.
    let mut platform = demo_scale();
    platform.cores = 1;
    platform.levels.last_mut().unwrap().capacity_bytes = 1 << 20;
    let mut cfg = SimConfig::new(platform, Mechanism::Redhip);
    cfg.refs_per_core = 48_000;
    cfg.recalib_period = Some(8_000);

    // Drift: uniform random over a 2 MB region — twice the LLC. Every miss
    // fills a line (setting its table bit) and evicts another whose bit
    // goes stale, so false positives accumulate between recalibrations and
    // vanish right after one rebuilds the table from cache contents.
    let drift: DynTrace = Box::new((0..u64::MAX).map(|i| {
        let mut z = i
            .wrapping_add(0x9E3779B97F4A7C15)
            .wrapping_mul(0xBF58476D1CE4E5B9);
        z ^= z >> 31;
        TraceRecord::new(0x400, 0x4000_0000 + (z % 32_768) * 64, MemOp::Load, 1)
    }));
    let collector = WindowedCollector::new(1_000, cfg.platform.levels.len());
    let (_, obs) = run_traces_with(&cfg, vec![drift], collector);

    assert!(
        obs.recalibrations().count() >= 2,
        "drift trace must trigger recalibrations"
    );

    // Walk the chronological stream: for each marker compare the windows
    // immediately before and after it.
    let records = obs.records();
    let mut pre_acc = Vec::new();
    let mut post_acc = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        if let TelemetryRecord::Recalib(_) = rec {
            let before = records[..i].iter().rev().find_map(|r| match r {
                TelemetryRecord::Window(w) => Some(w),
                _ => None,
            });
            let after = records[i + 1..].iter().find_map(|r| match r {
                TelemetryRecord::Window(w) => Some(w),
                _ => None,
            });
            if let (Some(b), Some(a)) = (before, after) {
                pre_acc.push(b.accuracy());
                post_acc.push(a.accuracy());
            }
        }
    }
    assert!(!pre_acc.is_empty());
    let pre = pre_acc.iter().sum::<f64>() / pre_acc.len() as f64;
    let post = post_acc.iter().sum::<f64>() / post_acc.len() as f64;
    assert!(
        post > pre,
        "expected the sawtooth recovery: post-recalibration accuracy {post:.4} \
         must exceed pre-recalibration accuracy {pre:.4}"
    );
}
