//! Telemetry timeline: watch prediction accuracy saw-tooth around
//! recalibration events (the temporal dynamic behind the paper's
//! Figs. 9-12).
//!
//! ```sh
//! cargo run --release --example telemetry_timeline
//! ```
//!
//! A `WindowedCollector` rides along with the simulation and closes a
//! window every 1 000 references. On a drifting workload the prediction
//! table goes stale between recalibrations — bits set for long-evicted
//! lines turn into false positives — so per-window accuracy decays, then
//! snaps back each time the table is rebuilt from cache contents.

use redhip_repro::prelude::*;

/// Uniform random references over a region twice the LLC: every miss
/// fills one line and evicts another whose table bit goes stale.
fn drift_trace(region_blocks: u64) -> DynTrace {
    Box::new((0..u64::MAX).map(move |i| {
        let mut z = i
            .wrapping_add(0x9E3779B97F4A7C15)
            .wrapping_mul(0xBF58476D1CE4E5B9);
        z ^= z >> 31;
        TraceRecord::new(
            0x400,
            0x4000_0000 + (z % region_blocks) * 64,
            MemOp::Load,
            1,
        )
    }))
}

fn bar(frac: f64, width: usize) -> String {
    let filled = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

fn main() {
    // Demo platform with the LLC shrunk to 1 MB (16 K lines) and a single
    // core, so the eviction churn that drives staleness happens within a
    // few seconds of simulation.
    let mut platform = demo_scale();
    platform.cores = 1;
    platform.levels.last_mut().unwrap().capacity_bytes = 1 << 20;
    let llc_lines = platform.llc().capacity_bytes / 64;

    let mut cfg = SimConfig::new(platform, Mechanism::Redhip);
    cfg.refs_per_core = 48_000;
    cfg.recalib_period = Some(8_000);

    println!(
        "drifting workload over {} blocks against a {}-line LLC, recalibrating every {} refs\n",
        2 * llc_lines,
        llc_lines,
        cfg.recalib_period.unwrap()
    );

    let collector = WindowedCollector::new(1_000, cfg.platform.levels.len());
    let (result, obs) = run_traces_with(&cfg, vec![drift_trace(2 * llc_lines)], collector);

    // Chronological walk over the stream: windows as accuracy bars,
    // recalibrations as markers. The saw-tooth is the point: accuracy
    // drifts down within an interval and recovers at each marker.
    println!("  window   accuracy  fp/window  (60-char bar spans 0.85 .. 1.00)");
    for rec in obs.records() {
        match rec {
            TelemetryRecord::Window(w) => {
                let acc = w.accuracy();
                let frac = (acc - 0.85) / 0.15;
                println!(
                    "  {:>6}   {:.4}    {:>5}      |{}|",
                    w.index,
                    acc,
                    w.false_positives,
                    bar(frac, 60)
                );
            }
            TelemetryRecord::Recalib(m) => {
                println!(
                    "  ---- recalibration {} (stall {} cycles, {:.1} uJ) ----",
                    m.index,
                    m.stall_cycles,
                    m.energy_nj * 1e-3
                );
            }
        }
    }

    let p = &result.prediction;
    println!(
        "\ntotals: {} lookups, {} bypasses, {} walk hits, {} false positives, {} recalibrations",
        p.lookups, p.bypasses, p.walk_hits, p.false_positives, p.recalibrations
    );
    println!(
        "overall accuracy {:.4}, miss coverage {:.4}",
        p.accuracy(),
        p.miss_coverage()
    );
}
