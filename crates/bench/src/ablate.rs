//! Ablation studies for the design decisions DESIGN.md calls out.
//!
//! These go beyond the paper's own sweeps: each isolates one design choice
//! of ReDHiP (or of our energy accounting) and quantifies it on a
//! representative workload subset.
//!
//! Each ablation is a parameter study like Figures 11–15: `plan_*`
//! enumerates its cells into a shared [`SweepPlan`] and returns a
//! [`StudyPlan`] that renders the table from the sweep's results. Its
//! output name (`ablate_cbf_width`, ...) is also its `figures` target; the
//! base cells dedupe against the Figure 6–10 matrix when both are planned
//! into one job graph.

use crate::figures::{cfg_for, over_base, paired, Metric, Settings, Study, StudyPlan};
use cache_sim::ReplacementPolicy;
use minijson::json;
use sim::{AccountingOptions, Mechanism};
use sweep::SweepPlan;
use workloads::Benchmark;

/// Representative subset: irregular (mcf), streaming (lbm), skewed
/// (astar), and graph (blas).
fn ablation_workloads() -> Vec<Benchmark> {
    vec![
        Benchmark::Mcf,
        Benchmark::Lbm,
        Benchmark::Astar,
        Benchmark::Blas,
    ]
}

const CBF_WIDTHS: [u32; 4] = [2, 3, 4, 6];

/// A1 — CBF counter width under the fixed 512 KB-equivalent budget:
/// narrower counters buy more entries but overflow (disable) more often.
pub fn plan_cbf_counter_width(s: &Settings, plan: &mut SweepPlan) -> StudyPlan {
    let labels: Vec<String> = CBF_WIDTHS.iter().map(|w| format!("{w}-bit")).collect();
    let cfgs = CBF_WIDTHS.iter().map(|&bits| {
        let mut cfg = cfg_for(s, Mechanism::Cbf);
        cfg.cbf.counter_bits = bits;
        cfg
    });
    Study {
        name: "ablate_cbf_width",
        title: "CBF counter width at fixed budget",
        heading: "Ablation: CBF counter width under a fixed area budget (normalized dynamic energy)",
        footer: "narrow counters trade entry count against sticky overflow; the referenced prior work found 3 bits sufficient for a 256 KB cache",
        paper_note: None,
        axis: ("counter_bits", json!(CBF_WIDTHS)),
        metric: Metric::DynamicRatio,
        workloads: ablation_workloads(),
        bases: vec![cfg_for(s, Mechanism::Base)],
        columns: over_base(&labels, cfgs),
    }
    .plan(s, plan)
}

const RECALIB_BANKS: [u64; 4] = [1, 2, 4, 8];

/// A2 — recalibration banking degree: banks only change the stall cycles
/// (energy is constant), so this measures the latency side of the paper's
/// "medium effort" choice.
pub fn plan_recalib_banking(s: &Settings, plan: &mut SweepPlan) -> StudyPlan {
    let labels: Vec<String> = RECALIB_BANKS.iter().map(|b| format!("{b} bank")).collect();
    let cfgs = RECALIB_BANKS.iter().map(|&banks| {
        let mut cfg = cfg_for(s, Mechanism::Redhip);
        cfg.recalib_banks = banks;
        cfg
    });
    Study {
        name: "ablate_recalib_banking",
        title: "Recalibration banking degree",
        heading: "Ablation: recalibration banking degree (speedup over Base; banking shortens the stall, energy is unchanged)",
        footer: "the paper's medium-effort design uses 4 banks",
        paper_note: None,
        axis: ("banks", json!(RECALIB_BANKS)),
        metric: Metric::Speedup,
        workloads: ablation_workloads(),
        bases: vec![cfg_for(s, Mechanism::Base)],
        columns: over_base(&labels, cfgs),
    }
    .plan(s, plan)
}

/// A3 — entry width: the shipped 1-bit table + periodic recalibration vs
/// the always-exact counting design (what "recalibrate every miss" would
/// deliver, at 32× the storage). The gap is the accuracy still lost to
/// staleness at the default period.
pub fn plan_entry_width(s: &Settings, plan: &mut SweepPlan) -> StudyPlan {
    let labels = vec!["1-bit+recalib".to_string(), "exact counters".to_string()];
    let cfgs = [false, true].into_iter().map(|exact| {
        let mut cfg = cfg_for(s, Mechanism::Redhip);
        cfg.count_prediction_overhead = false;
        if exact {
            cfg.recalib_period = Some(1); // exact-counting path
        }
        cfg
    });
    Study {
        name: "ablate_entry_width",
        title: "1-bit entries vs exact counters",
        heading: "Ablation: 1-bit recalibrated table vs continuously-exact counters (normalized dynamic energy, overhead ignored)",
        footer: "the residual gap is recalibration-period staleness — the price of 1-bit entries, which buy an 8x smaller table per entry than even 3-bit counters",
        paper_note: None,
        axis: ("variants", json!(&labels)),
        metric: Metric::DynamicRatio,
        workloads: ablation_workloads(),
        bases: vec![cfg_for(s, Mechanism::Base)],
        columns: over_base(&labels, cfgs),
    }
    .plan(s, plan)
}

/// A4 — energy-accounting sensitivity: does charging fills/writebacks/
/// back-invalidation probes change ReDHiP's *relative* savings? The Base
/// uses the same accounting as the variant, otherwise ratios mix schemes.
pub fn plan_accounting(s: &Settings, plan: &mut SweepPlan) -> StudyPlan {
    let labels = ["lookups only", "+fills", "+writebacks", "+probes"].map(String::from);
    let (bases, columns) = paired(s, &labels, |cfg, i| {
        cfg.accounting = AccountingOptions {
            charge_fills: i >= 1,
            charge_writebacks: i >= 2,
            charge_invalidation_probes: i >= 3,
        };
    });
    Study {
        name: "ablate_accounting",
        title: "Energy-accounting sensitivity",
        heading: "Ablation: ReDHiP's dynamic-energy saving under progressively more inclusive accounting (each column compares against Base under the same accounting)",
        footer: "fills/writebacks are identical across mechanisms, so charging them dilutes but never reverses the saving",
        paper_note: None,
        axis: ("variants", json!(labels)),
        metric: Metric::DynamicSaving,
        workloads: ablation_workloads(),
        bases,
        columns,
    }
    .plan(s, plan)
}

/// A5 — replacement policy: is the benefit robust to the LLC replacement
/// policy (LRU vs tree-PLRU vs SRRIP vs random)?
pub fn plan_replacement(s: &Settings, plan: &mut SweepPlan) -> StudyPlan {
    let policies = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Srrip,
        ReplacementPolicy::Random,
    ];
    let labels = ["LRU", "TreePLRU", "SRRIP", "Random"].map(String::from);
    let (bases, columns) = paired(s, &labels, |cfg, i| cfg.replacement = policies[i]);
    Study {
        name: "ablate_replacement",
        title: "Replacement-policy robustness",
        heading: "Ablation: ReDHiP's dynamic-energy saving under different replacement policies (each vs Base with the same policy)",
        footer: "the mechanism predicts residency, not replacement, so the benefit should be policy-robust",
        paper_note: None,
        axis: ("policies", json!(labels)),
        metric: Metric::DynamicSaving,
        workloads: ablation_workloads(),
        bases,
        columns,
    }
    .plan(s, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::FigureScale;
    use sweep::SweepEngine;

    fn smoke() -> Settings {
        Settings::new(FigureScale::Smoke, Some(3_000))
    }

    fn render(planner: fn(&Settings, &mut SweepPlan) -> StudyPlan) -> crate::figures::FigureOutput {
        let mut plan = SweepPlan::new();
        let p = planner(&smoke(), &mut plan);
        p.render(&SweepEngine::new(2).quiet().run(&plan, "t").unwrap())
    }

    #[test]
    fn entry_width_runs() {
        let f = render(plan_entry_width);
        assert!(f.text.contains("exact counters"));
    }

    #[test]
    fn accounting_runs() {
        let f = render(plan_accounting);
        assert!(f.text.contains("+probes"));
    }

    #[test]
    fn planned_ablations_dedupe_their_base_cells() {
        let s = smoke();
        let mut plan = SweepPlan::new();
        plan_cbf_counter_width(&s, &mut plan);
        plan_recalib_banking(&s, &mut plan);
        // cbf and banking each request 4 base cells; they collide with
        // each other.
        assert_eq!(plan.dedup_hits(), 4);
    }
}
