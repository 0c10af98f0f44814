//! Human-readable rendering of a [`RunResult`].

use crate::run::RunResult;
use std::fmt::Write;

/// Renders a full single-run report (used by the `redhip-sim` CLI and
/// handy in tests/examples).
pub fn render(result: &RunResult) -> String {
    let mut out = String::new();
    let refs = result.total_refs();
    let _ = writeln!(out, "references simulated : {refs}");
    let _ = writeln!(out, "execution cycles     : {}", result.cycles);
    let _ = writeln!(out, "cycles / reference   : {:.3}", result.cycles_per_ref());
    let _ = writeln!(out, "\nper-level cache behaviour:");
    let _ = writeln!(
        out,
        "  {:<6}{:>12}{:>10}{:>12}{:>12}{:>12}",
        "level", "lookups", "hit rate", "fills", "evictions", "wb in"
    );
    for (i, l) in result.hierarchy.levels.iter().enumerate() {
        let _ = writeln!(
            out,
            "  L{:<5}{:>12}{:>9.1}%{:>12}{:>12}{:>12}",
            i + 1,
            l.lookups,
            l.hit_rate() * 100.0,
            l.fills,
            l.evictions,
            l.writebacks_in
        );
    }
    let _ = writeln!(
        out,
        "  memory fetches {} | memory writebacks {}",
        result.hierarchy.memory_fetches, result.hierarchy.memory_writebacks
    );

    if result.prediction.lookups > 0 {
        let p = &result.prediction;
        let _ = writeln!(out, "\npredictor:");
        let _ = writeln!(out, "  lookups          : {}", p.lookups);
        let _ = writeln!(
            out,
            "  bypasses         : {} ({:.1}% of true LLC misses)",
            p.bypasses,
            p.miss_coverage() * 100.0
        );
        let _ = writeln!(out, "  walk hits        : {}", p.walk_hits);
        let _ = writeln!(out, "  false positives  : {}", p.false_positives);
        let _ = writeln!(out, "  updates          : {}", p.updates);
        let _ = writeln!(out, "  recalibrations   : {}", p.recalibrations);
        let _ = writeln!(out, "  accuracy         : {:.1}%", p.accuracy() * 100.0);
    }

    if result.prefetch.issued > 0 {
        let pf = &result.prefetch;
        let _ = writeln!(out, "\nprefetcher:");
        let _ = writeln!(out, "  issued           : {}", pf.issued);
        let _ = writeln!(
            out,
            "  fills            : {} ({:.1}% useful)",
            pf.fills,
            pf.usefulness() * 100.0
        );
        let _ = writeln!(out, "  already resident : {}", pf.already_resident);
        let _ = writeln!(out, "  filtered by PT   : {}", pf.predictor_filtered);
    }

    let e = &result.energy;
    let _ = writeln!(out, "\nenergy (J):");
    for (i, d) in e.dynamic_by_level_j.iter().enumerate() {
        let _ = writeln!(out, "  L{} dynamic       : {:.6e}", i + 1, d);
    }
    let _ = writeln!(out, "  predictor        : {:.6e}", e.predictor_dynamic_j);
    let _ = writeln!(out, "  recalibration    : {:.6e}", e.recalibration_j);
    let _ = writeln!(out, "  prefetcher       : {:.6e}", e.prefetcher_j);
    let _ = writeln!(out, "  total dynamic    : {:.6e}", e.total_dynamic_j());
    let _ = writeln!(out, "  total leakage    : {:.6e}", e.total_leakage_j());
    let _ = writeln!(out, "  TOTAL            : {:.6e}", e.total_j());
    let _ = writeln!(
        out,
        "  lower-level share of dynamic: {:.1}%",
        e.lower_level_dynamic_share() * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::mechanism::Mechanism;
    use crate::run::run_traces;
    use energy_model::presets::demo_scale;
    use mem_trace::record::TraceRecord;
    use mem_trace::DynTrace;

    #[test]
    fn report_contains_all_sections() {
        let mut platform = demo_scale();
        platform.cores = 1;
        let mut cfg = SimConfig::new(platform, Mechanism::Redhip);
        cfg.refs_per_core = 5_000;
        cfg.recalib_period = Some(512);
        let t: DynTrace = Box::new((0..u64::MAX).map(|i| {
            let a = if i % 3 == 0 {
                (i * 97) % (1 << 30)
            } else {
                (i % 64) * 64
            };
            TraceRecord::load(0x400, a)
        }));
        let r = run_traces(&cfg, vec![t]);
        let s = render(&r);
        for needle in [
            "references simulated",
            "per-level cache behaviour",
            "predictor:",
            "bypasses",
            "total dynamic",
            "lower-level share",
        ] {
            assert!(s.contains(needle), "missing section {needle}:\n{s}");
        }
    }

    #[test]
    fn base_report_omits_predictor_section() {
        let mut platform = demo_scale();
        platform.cores = 1;
        let mut cfg = SimConfig::new(platform, Mechanism::Base);
        cfg.refs_per_core = 1_000;
        let t: DynTrace = Box::new((0..u64::MAX).map(|i| TraceRecord::load(0, i * 64)));
        let r = run_traces(&cfg, vec![t]);
        let s = render(&r);
        assert!(!s.contains("predictor:"));
        assert!(!s.contains("prefetcher:"));
    }
}
