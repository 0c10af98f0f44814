//! One function per table/figure of the paper's evaluation section.
//!
//! Every function returns a [`FigureOutput`]: a rendered text table (what
//! the `figures` binary prints), a JSON value (what it writes to the
//! results directory), and the paper's reference numbers for the same
//! artifact so EXPERIMENTS.md can record paper-vs-measured side by side.
//!
//! Each figure is split into a `plan_*` half that enumerates its cells
//! into a shared [`SweepPlan`] (deduplicating against every other figure's
//! cells) and a `*_from` half that renders the figure from the sweep's
//! results. The plain figure functions (`fig11(&s)`, ...) wrap the two for
//! callers that want a single figure; the `figures` binary plans the whole
//! requested set into one job graph and runs it once.

use crate::harness::{mechanism_config, run_plan, FigureScale};
use crate::table::TextTable;
use cache_sim::InclusionPolicy;
use minijson::{json, Json, ToJson};
use prefetch::StrideConfig;
use sim::metrics::mean;
use sim::{Comparison, Mechanism, RunResult, SimConfig};
use sweep::{CellId, SweepPlan, SweepResults};
use workloads::Benchmark;

/// Mechanisms compared against Base, in the paper's legend order.
pub const COMPARED: [Mechanism; 4] = [
    Mechanism::Oracle,
    Mechanism::Cbf,
    Mechanism::Phased,
    Mechanism::Redhip,
];

/// Every non-Base mechanism, for the predictor shoot-out: the paper's
/// legend order followed by the registry contenders.
pub const SHOOTOUT: [Mechanism; 7] = [
    Mechanism::Oracle,
    Mechanism::Cbf,
    Mechanism::Phased,
    Mechanism::Redhip,
    Mechanism::LevelPred,
    Mechanism::Perceptron,
    Mechanism::WayMemo,
];

/// Common experiment settings.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Platform/workload scale.
    pub scale: FigureScale,
    /// References per core.
    pub refs: usize,
    /// Workload set (defaults to the paper's 11).
    pub workloads: Vec<Benchmark>,
}

impl Settings {
    /// Paper-default settings at `scale`.
    pub fn new(scale: FigureScale, refs: Option<usize>) -> Self {
        Self {
            scale,
            refs: refs.unwrap_or_else(|| scale.default_refs()),
            workloads: Benchmark::ALL.to_vec(),
        }
    }
}

/// A regenerated figure/table.
#[derive(Debug, Clone)]
pub struct FigureOutput {
    /// Short identifier (`fig6`, `table1`, ...).
    pub name: &'static str,
    /// Human title.
    pub title: String,
    /// Rendered text.
    pub text: String,
    /// Structured results.
    pub json: Json,
}

fn cfg_for(s: &Settings, mechanism: Mechanism) -> SimConfig {
    mechanism_config(s.scale, mechanism, s.refs)
}

fn ws(s: &Settings) -> workloads::Scale {
    s.scale.workload_scale()
}

/// A Base + N-mechanism result matrix (Figures 6–10 share the [`COMPARED`]
/// one; the predictor shoot-out runs a [`SHOOTOUT`] one).
pub struct Matrix {
    /// The settings it ran with.
    pub settings: Settings,
    /// Mechanisms compared against Base, in column order.
    pub mechanisms: Vec<Mechanism>,
    /// Base per workload.
    pub base: Vec<RunResult>,
    /// `results[mech][workload]`, mech order = [`Matrix::mechanisms`].
    pub results: Vec<Vec<RunResult>>,
}

/// Planned cell ids for a workload × mechanism matrix.
pub struct MatrixPlan {
    mechanisms: Vec<Mechanism>,
    base: Vec<CellId>,
    results: Vec<Vec<CellId>>,
}

/// Enumerates a workload × `mechanisms` matrix (plus Base) into `plan`.
pub fn plan_matrix_of(s: &Settings, plan: &mut SweepPlan, mechanisms: &[Mechanism]) -> MatrixPlan {
    let scale = ws(s);
    let base = s
        .workloads
        .iter()
        .map(|&w| plan.cell(&cfg_for(s, Mechanism::Base), w, scale))
        .collect();
    let results = mechanisms
        .iter()
        .map(|&m| {
            s.workloads
                .iter()
                .map(|&w| plan.cell(&cfg_for(s, m), w, scale))
                .collect()
        })
        .collect();
    MatrixPlan {
        mechanisms: mechanisms.to_vec(),
        base,
        results,
    }
}

/// Enumerates the Figure 6–10 matrix into `plan`.
pub fn plan_matrix(s: &Settings, plan: &mut SweepPlan) -> MatrixPlan {
    plan_matrix_of(s, plan, &COMPARED)
}

/// Enumerates the predictor shoot-out matrix (all 7 non-Base mechanisms)
/// into `plan`.
pub fn plan_shootout(s: &Settings, plan: &mut SweepPlan) -> MatrixPlan {
    plan_matrix_of(s, plan, &SHOOTOUT)
}

/// Assembles the [`Matrix`] from a finished sweep.
pub fn matrix_from(s: &Settings, p: &MatrixPlan, res: &SweepResults) -> Matrix {
    Matrix {
        settings: s.clone(),
        mechanisms: p.mechanisms.clone(),
        base: p.base.iter().map(|&id| res.get(id).clone()).collect(),
        results: p
            .results
            .iter()
            .map(|ids| ids.iter().map(|&id| res.get(id).clone()).collect())
            .collect(),
    }
}

/// Runs the full workload × mechanism matrix (Figures 6–10 share it).
pub fn run_matrix(s: &Settings) -> Matrix {
    let mut plan = SweepPlan::new();
    let p = plan_matrix(s, &mut plan);
    let res = run_plan(&plan, "[figures] matrix");
    matrix_from(s, &p, &res)
}

fn series_table(
    m: &Matrix,
    cell: impl Fn(&Comparison) -> f64,
    fmt: impl Fn(f64) -> String,
) -> (TextTable, Vec<Vec<f64>>) {
    let mut header = vec!["workload"];
    for mech in &m.mechanisms {
        header.push(mech.name());
    }
    let mut t = TextTable::new(&header);
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); m.mechanisms.len()];
    for (wi, &w) in m.settings.workloads.iter().enumerate() {
        let mut row = vec![w.name().to_string()];
        for (mi, _) in m.mechanisms.iter().enumerate() {
            let c = Comparison::new(&m.base[wi], &m.results[mi][wi]);
            let v = cell(&c);
            series[mi].push(v);
            row.push(fmt(v));
        }
        t.row(row);
    }
    let mut avg_row = vec!["average".to_string()];
    for s in &series {
        avg_row.push(fmt(mean(s)));
    }
    t.row(avg_row);
    (t, series)
}

fn matrix_json(m: &Matrix, series: &[Vec<f64>], metric: &str) -> Json {
    json!({
        "metric": metric,
        "workloads": m.settings.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
        "mechanisms": m.mechanisms.iter().map(|x| x.name()).collect::<Vec<_>>(),
        "values": series.to_vec(),
        "averages": series.iter().map(|s| mean(s)).collect::<Vec<_>>(),
    })
}

/// Table I: the architecture parameters in use.
pub fn table1(scale: FigureScale) -> FigureOutput {
    let p = scale.platform();
    let mut t = TextTable::new(&[
        "structure",
        "size",
        "assoc",
        "tag cyc",
        "data cyc",
        "tag nJ",
        "data nJ",
        "leak W",
    ]);
    for (i, l) in p.levels.iter().enumerate() {
        t.row(vec![
            format!(
                "L{}{}",
                i + 1,
                if i + 1 == p.levels.len() {
                    " (shared)"
                } else {
                    ""
                }
            ),
            format!("{}K", l.capacity_bytes >> 10),
            l.assoc.to_string(),
            l.tag_delay.to_string(),
            l.data_delay.to_string(),
            format!("{:.4}", l.tag_energy_nj),
            format!("{:.4}", l.data_energy_nj),
            format!("{:.4}", l.leakage_w),
        ]);
    }
    t.row(vec![
        "PT".into(),
        format!("{}K", p.predictor.size_bytes >> 10),
        "direct".into(),
        format!("{}+{}w", p.predictor.access_delay, p.predictor.wire_delay),
        "-".into(),
        format!("{:.4}", p.predictor.access_energy_nj),
        "-".into(),
        format!("{:.4}", p.predictor.leakage_w),
    ]);
    let text = format!(
        "Table I ({:?} scale): {} cores @ {} GHz; PT overhead = {:.2}% of LLC\n{}",
        scale,
        p.cores,
        p.freq_ghz,
        p.predictor_overhead_ratio() * 100.0,
        t.render()
    );
    FigureOutput {
        name: "table1",
        title: "Architecture parameters".into(),
        json: p.to_json(),
        text,
    }
}

/// Figure 6: performance speedup of Oracle/CBF/Phased/ReDHiP vs Base.
pub fn fig6(m: &Matrix) -> FigureOutput {
    let (t, series) = series_table(m, |c| c.speedup(), TextTable::pct);
    let text = format!(
        "Figure 6: speedup over Base (positive = faster)\n{}\npaper averages: Oracle +13%, CBF <+4%, Phased -3%, ReDHiP +8%\n",
        t.render()
    );
    FigureOutput {
        name: "fig6",
        title: "Speedup vs Base".into(),
        json: json!({
            "measured": matrix_json(m, &series, "speedup"),
            "paper_averages": json!({"Oracle": 0.13, "CBF": 0.04, "Phased": -0.03, "ReDHiP": 0.08}),
        }),
        text,
    }
}

/// Figure 7: dynamic energy normalized to Base.
pub fn fig7(m: &Matrix) -> FigureOutput {
    let (t, series) = series_table(m, |c| c.dynamic_ratio(), TextTable::ratio);
    let text = format!(
        "Figure 7: dynamic cache energy normalized to Base (lower = better)\n{}\npaper averages: Oracle 0.29, CBF 0.82, Phased 0.45, ReDHiP 0.39\n",
        t.render()
    );
    FigureOutput {
        name: "fig7",
        title: "Normalized dynamic energy".into(),
        json: json!({
            "measured": matrix_json(m, &series, "dynamic_ratio"),
            "paper_averages": json!({"Oracle": 0.29, "CBF": 0.82, "Phased": 0.45, "ReDHiP": 0.39}),
        }),
        text,
    }
}

/// Figure 8: the performance-energy metric (CBF/Phased/ReDHiP; Oracle is a
/// theoretical bound, shown too).
pub fn fig8(m: &Matrix) -> FigureOutput {
    let (t, series) = series_table(m, |c| c.perf_energy_metric(), TextTable::ratio);
    let text = format!(
        "Figure 8: performance-energy metric (1+speedup)x(1+total saving); higher = better\n{}\npaper: ReDHiP is by far the best (~1.3 avg); CBF and Phased cluster near 1.1\n",
        t.render()
    );
    FigureOutput {
        name: "fig8",
        title: "Performance-energy metric".into(),
        json: json!({
            "measured": matrix_json(m, &series, "perf_energy_metric"),
            "paper_note": "ReDHiP best ~1.3; CBF/Phased ~1.05-1.15",
        }),
        text,
    }
}

/// The predictor shoot-out: every non-Base mechanism's speedup and
/// normalized dynamic energy side by side (Figure 6/7-style rows over the
/// [`SHOOTOUT`] columns, including the registry contenders).
pub fn shootout(m: &Matrix) -> FigureOutput {
    let (t_speed, speedup) = series_table(m, |c| c.speedup(), TextTable::pct);
    let (t_energy, dynamic) = series_table(m, |c| c.dynamic_ratio(), TextTable::ratio);
    let text = format!(
        "Predictor shoot-out: speedup over Base (positive = faster)\n{}\n\
         Predictor shoot-out: dynamic cache energy normalized to Base (lower = better)\n{}\n",
        t_speed.render(),
        t_energy.render()
    );
    FigureOutput {
        name: "shootout",
        title: "Predictor shoot-out".into(),
        json: json!({
            "speedup": matrix_json(m, &speedup, "speedup"),
            "dynamic_ratio": matrix_json(m, &dynamic, "dynamic_ratio"),
        }),
        text,
    }
}

/// Runs the shoot-out matrix and renders it (single-figure entry point).
pub fn run_shootout(s: &Settings) -> FigureOutput {
    let mut plan = SweepPlan::new();
    let p = plan_shootout(s, &mut plan);
    let res = run_plan(&plan, "[figures] shootout");
    shootout(&matrix_from(s, &p, &res))
}

fn hit_rate_figure(
    name: &'static str,
    title: &str,
    workloads: &[Benchmark],
    runs: &[RunResult],
    paper_note: &str,
) -> FigureOutput {
    let mut t = TextTable::new(&["workload", "L1", "L2", "L3", "L4"]);
    let mut per_level: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for (wi, &w) in workloads.iter().enumerate() {
        let mut row = vec![w.name().to_string()];
        for (lvl, col) in per_level.iter_mut().enumerate() {
            let hr = runs[wi].hit_rate(lvl);
            col.push(hr);
            row.push(format!("{:.1}%", hr * 100.0));
        }
        t.row(row);
    }
    let mut avg = vec!["average".to_string()];
    for l in &per_level {
        avg.push(format!("{:.1}%", mean(l) * 100.0));
    }
    t.row(avg);
    FigureOutput {
        name,
        title: title.into(),
        json: json!({
            "workloads": workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
            "hit_rates_per_level": &per_level,
            "averages": per_level.iter().map(|l| mean(l)).collect::<Vec<_>>(),
        }),
        text: format!("{title}\n{}\n{paper_note}\n", t.render()),
    }
}

/// Figure 9: per-level hit rates under Base.
pub fn fig9(m: &Matrix) -> FigureOutput {
    hit_rate_figure(
        "fig9",
        "Figure 9: per-level hit rate, Base (no prediction)",
        &m.settings.workloads,
        &m.base,
        "paper: wide variation per benchmark; lower levels see only the upper levels' misses",
    )
}

/// Figure 10: per-level hit rates under ReDHiP.
pub fn fig10(m: &Matrix) -> FigureOutput {
    let redhip_idx = m
        .mechanisms
        .iter()
        .position(|&x| x == Mechanism::Redhip)
        .expect("ReDHiP in the matrix");
    let mut out = hit_rate_figure(
        "fig10",
        "Figure 10: per-level hit rate, ReDHiP",
        &m.settings.workloads,
        &m.results[redhip_idx],
        "paper: L2/L3/L4 hit rates improve by +14/+12/+18 points on average \
         (bypassed lookups would all have missed)",
    );
    // Also report the deltas vs Figure 9 — the paper's quoted improvement.
    let mut deltas = Vec::new();
    for lvl in 1..4 {
        let base_avg = mean(&m.base.iter().map(|r| r.hit_rate(lvl)).collect::<Vec<_>>());
        let red_avg = mean(
            &m.results[redhip_idx]
                .iter()
                .map(|r| r.hit_rate(lvl))
                .collect::<Vec<_>>(),
        );
        deltas.push(red_avg - base_avg);
    }
    out.text.push_str(&format!(
        "measured avg improvement: L2 {:+.1}pp, L3 {:+.1}pp, L4 {:+.1}pp (paper: +14/+12/+18)\n",
        deltas[0] * 100.0,
        deltas[1] * 100.0,
        deltas[2] * 100.0
    ));
    out.json.set("improvement_vs_base_pp", json!(deltas));
    out.json
        .set("paper_improvement_pp", json!([0.14, 0.12, 0.18]));
    out
}

/// Figure 11: dynamic energy vs prediction-table size (overhead ignored,
/// as in the paper's accuracy study). Sizes are expressed relative to the
/// platform default (512 KB paper / 64 KB demo): 4×, 2×, 1×, 1/2, 1/4, 1/8.
pub fn fig11(s: &Settings) -> FigureOutput {
    let mut plan = SweepPlan::new();
    let p = plan_fig11(s, &mut plan);
    let res = run_plan(&plan, "[figures] fig11");
    fig11_from(s, &p, &res)
}

/// Planned cell ids for Figure 11, per workload: base then each PT size.
pub struct Fig11Plan {
    sizes: Vec<u64>,
    ids: Vec<CellId>,
}

/// Enumerates Figure 11's PT-size sweep into `plan`.
pub fn plan_fig11(s: &Settings, plan: &mut SweepPlan) -> Fig11Plan {
    let default_bytes = s.scale.platform().predictor.size_bytes;
    let factors: [(u64, u64); 6] = [(4, 1), (2, 1), (1, 1), (1, 2), (1, 4), (1, 8)];
    let sizes: Vec<u64> = factors
        .iter()
        .map(|&(n, d)| default_bytes * n / d)
        .collect();
    let scale = ws(s);
    let mut ids = Vec::new();
    for &w in &s.workloads {
        ids.push(plan.cell(&cfg_for(s, Mechanism::Base), w, scale));
        for &sz in &sizes {
            let mut cfg = cfg_for(s, Mechanism::Redhip);
            cfg.pt_bytes = Some(sz);
            cfg.count_prediction_overhead = false; // the paper's Fig 11 setup
            ids.push(plan.cell(&cfg, w, scale));
        }
    }
    Fig11Plan { sizes, ids }
}

/// Renders Figure 11 from a finished sweep.
pub fn fig11_from(s: &Settings, p: &Fig11Plan, res: &SweepResults) -> FigureOutput {
    let sizes = p.sizes.clone();
    let outs: Vec<RunResult> = p.ids.iter().map(|&id| res.get(id).clone()).collect();
    let stride = sizes.len() + 1;
    let mut header = vec!["workload".to_string()];
    for &sz in &sizes {
        header.push(format!("{}K", sz >> 10));
    }
    let hdr: Vec<&str> = header.iter().map(|h| h.as_str()).collect();
    let mut t = TextTable::new(&hdr);
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    for (wi, &w) in s.workloads.iter().enumerate() {
        let base = &outs[wi * stride];
        let mut row = vec![w.name().to_string()];
        for (si, _) in sizes.iter().enumerate() {
            let c = Comparison::new(base, &outs[wi * stride + 1 + si]);
            series[si].push(c.dynamic_ratio());
            row.push(TextTable::ratio(c.dynamic_ratio()));
        }
        t.row(row);
    }
    let mut avg = vec!["average".to_string()];
    for se in &series {
        avg.push(TextTable::ratio(mean(se)));
    }
    t.row(avg);
    FigureOutput {
        name: "fig11",
        title: "Dynamic energy vs PT size".into(),
        json: json!({
            "sizes_bytes": sizes,
            "workloads": s.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
            "dynamic_ratio": &series,
            "averages": series.iter().map(|x| mean(x)).collect::<Vec<_>>(),
            "paper_note": "gain marginal beyond the default size; the smallest table is nearly useless",
        }),
        text: format!(
            "Figure 11: normalized dynamic energy vs prediction-table size (prediction overhead ignored)\n{}\npaper: accuracy gain marginal beyond the default size; 1/8 of the default is nearly useless\n",
            t.render()
        ),
    }
}

/// Figure 12: dynamic energy vs recalibration period, from every L1 miss
/// (1) to never. Periods scale with the platform (paper: 1 … 100 M, ∞).
pub fn fig12(s: &Settings) -> FigureOutput {
    let mut plan = SweepPlan::new();
    let p = plan_fig12(s, &mut plan);
    let res = run_plan(&plan, "[figures] fig12");
    fig12_from(s, &p, &res)
}

/// Planned cell ids for Figure 12, per workload: base then each period.
pub struct Fig12Plan {
    periods: Vec<Option<u64>>,
    ids: Vec<CellId>,
}

/// Enumerates Figure 12's recalibration-period sweep into `plan`.
pub fn plan_fig12(s: &Settings, plan: &mut SweepPlan) -> Fig12Plan {
    let base_period = s.scale.workload_scale().recalib_period();
    let periods: Vec<Option<u64>> = vec![
        Some(1),
        Some((base_period / 64).max(2)),
        Some(base_period / 8),
        Some(base_period),
        Some(base_period * 8),
        Some(base_period * 64),
        None,
    ];
    let scale = ws(s);
    let mut ids = Vec::new();
    for &w in &s.workloads {
        ids.push(plan.cell(&cfg_for(s, Mechanism::Base), w, scale));
        for &period in &periods {
            let mut cfg = cfg_for(s, Mechanism::Redhip);
            cfg.recalib_period = period;
            cfg.count_prediction_overhead = false; // accuracy study
            ids.push(plan.cell(&cfg, w, scale));
        }
    }
    Fig12Plan { periods, ids }
}

/// Renders Figure 12 from a finished sweep.
pub fn fig12_from(s: &Settings, p: &Fig12Plan, res: &SweepResults) -> FigureOutput {
    let periods = p.periods.clone();
    let outs: Vec<RunResult> = p.ids.iter().map(|&id| res.get(id).clone()).collect();
    let stride = periods.len() + 1;
    let labels: Vec<String> = periods
        .iter()
        .map(|p| match p {
            Some(1) => "every".into(),
            Some(v) => format!("{v}"),
            None => "never".into(),
        })
        .collect();
    let mut header = vec!["workload".to_string()];
    header.extend(labels.iter().cloned());
    let hdr: Vec<&str> = header.iter().map(|h| h.as_str()).collect();
    let mut t = TextTable::new(&hdr);
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); periods.len()];
    for (wi, &w) in s.workloads.iter().enumerate() {
        let base = &outs[wi * stride];
        let mut row = vec![w.name().to_string()];
        for (pi, _) in periods.iter().enumerate() {
            let c = Comparison::new(base, &outs[wi * stride + 1 + pi]);
            series[pi].push(c.dynamic_ratio());
            row.push(TextTable::ratio(c.dynamic_ratio()));
        }
        t.row(row);
    }
    let mut avg = vec!["average".to_string()];
    for se in &series {
        avg.push(TextTable::ratio(mean(se)));
    }
    t.row(avg);
    FigureOutput {
        name: "fig12",
        title: "Dynamic energy vs recalibration period".into(),
        json: json!({
            "periods_l1_misses": labels,
            "workloads": s.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
            "dynamic_ratio": &series,
            "averages": series.iter().map(|x| mean(x)).collect::<Vec<_>>(),
            "paper_note": "little gain from recalibrating more often than the default period; precipitous accuracy loss at ~100x the default and beyond",
        }),
        text: format!(
            "Figure 12: normalized dynamic energy vs recalibration period in L1 misses (overhead ignored; 'every' = per miss, the paper's perfect recalibration)\n{}\npaper: recalibrating at the default period captures nearly all benefit; much longer periods collapse toward never-recalibrate\n",
            t.render()
        ),
    }
}

/// Figure 13: ReDHiP's dynamic-energy savings under the three inclusion
/// policies (each normalized to Base under the *same* policy).
pub fn fig13(s: &Settings) -> FigureOutput {
    let mut plan = SweepPlan::new();
    let p = plan_fig13(s, &mut plan);
    let res = run_plan(&plan, "[figures] fig13");
    fig13_from(s, &p, &res)
}

/// Planned cell ids for Figure 13, per workload: (base, redhip) per policy.
pub struct Fig13Plan {
    ids: Vec<CellId>,
}

/// Enumerates Figure 13's inclusion-policy study into `plan`.
pub fn plan_fig13(s: &Settings, plan: &mut SweepPlan) -> Fig13Plan {
    let policies = [
        InclusionPolicy::Inclusive,
        InclusionPolicy::Hybrid,
        InclusionPolicy::Exclusive,
    ];
    let scale = ws(s);
    let mut ids = Vec::new();
    for &w in &s.workloads {
        for &policy in &policies {
            for mech in [Mechanism::Base, Mechanism::Redhip] {
                let mut cfg = cfg_for(s, mech);
                cfg.policy = policy;
                ids.push(plan.cell(&cfg, w, scale));
            }
        }
    }
    Fig13Plan { ids }
}

/// Renders Figure 13 from a finished sweep.
pub fn fig13_from(s: &Settings, p: &Fig13Plan, res: &SweepResults) -> FigureOutput {
    let policies = [
        InclusionPolicy::Inclusive,
        InclusionPolicy::Hybrid,
        InclusionPolicy::Exclusive,
    ];
    let outs: Vec<RunResult> = p.ids.iter().map(|&id| res.get(id).clone()).collect();
    let stride = policies.len() * 2;
    let mut t = TextTable::new(&["workload", "Inclusive", "Hybrid", "Exclusive"]);
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    for (wi, &w) in s.workloads.iter().enumerate() {
        let mut row = vec![w.name().to_string()];
        for (pi, _) in policies.iter().enumerate() {
            let base = &outs[wi * stride + pi * 2];
            let red = &outs[wi * stride + pi * 2 + 1];
            let c = Comparison::new(base, red);
            series[pi].push(c.dynamic_saving());
            row.push(TextTable::pct(c.dynamic_saving()));
        }
        t.row(row);
    }
    let mut avg = vec!["average".to_string()];
    for se in &series {
        avg.push(TextTable::pct(mean(se)));
    }
    t.row(avg);
    FigureOutput {
        name: "fig13",
        title: "Dynamic energy savings per inclusion policy".into(),
        json: json!({
            "policies": ["Inclusive", "Hybrid", "Exclusive"],
            "workloads": s.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
            "dynamic_saving": &series,
            "averages": series.iter().map(|x| mean(x)).collect::<Vec<_>>(),
            "paper_note": "hybrid ~= inclusive; exclusive ~15 points lower but still >40% better than its base",
        }),
        text: format!(
            "Figure 13: ReDHiP dynamic-energy savings by inclusion policy (each vs Base under the same policy)\n{}\npaper: Hybrid ~= Inclusive; Exclusive saves ~15 points less but still >40%\n",
            t.render()
        ),
    }
}

#[derive(Clone, Copy)]
enum PfCfg {
    Base,
    SpOnly,
    RedhipOnly,
    SpRedhip,
}

const PF_CONFIGS: [PfCfg; 4] = [
    PfCfg::Base,
    PfCfg::SpOnly,
    PfCfg::RedhipOnly,
    PfCfg::SpRedhip,
];

/// Figures 14 & 15: stride prefetching alone, ReDHiP alone, and combined.
pub fn fig14_15(s: &Settings) -> (FigureOutput, FigureOutput) {
    let mut plan = SweepPlan::new();
    let p = plan_fig14_15(s, &mut plan);
    let res = run_plan(&plan, "[figures] fig14-15");
    fig14_15_from(s, &p, &res)
}

/// Planned cell ids for Figures 14/15, per workload: the four
/// prefetch × mechanism combinations.
pub struct Fig1415Plan {
    ids: Vec<CellId>,
}

/// Enumerates the prefetch-interaction study into `plan`.
pub fn plan_fig14_15(s: &Settings, plan: &mut SweepPlan) -> Fig1415Plan {
    let scale = ws(s);
    let mut ids = Vec::new();
    for &w in &s.workloads {
        for pf in PF_CONFIGS {
            let mut cfg = match pf {
                PfCfg::Base | PfCfg::SpOnly => cfg_for(s, Mechanism::Base),
                PfCfg::RedhipOnly | PfCfg::SpRedhip => cfg_for(s, Mechanism::Redhip),
            };
            if matches!(pf, PfCfg::SpOnly | PfCfg::SpRedhip) {
                cfg.prefetch = Some(StrideConfig::default());
            }
            ids.push(plan.cell(&cfg, w, scale));
        }
    }
    Fig1415Plan { ids }
}

/// Renders Figures 14 and 15 from a finished sweep.
pub fn fig14_15_from(
    s: &Settings,
    p: &Fig1415Plan,
    res: &SweepResults,
) -> (FigureOutput, FigureOutput) {
    let outs: Vec<RunResult> = p.ids.iter().map(|&id| res.get(id).clone()).collect();
    let stride = PF_CONFIGS.len();
    let names = ["SP only", "ReDHiP only", "SP+ReDHiP"];
    let mut t14 = TextTable::new(&["workload", names[0], names[1], names[2]]);
    let mut t15 = TextTable::new(&["workload", names[0], names[1], names[2]]);
    let mut sp14: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut sp15: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for (wi, &w) in s.workloads.iter().enumerate() {
        let base = &outs[wi * stride];
        let mut r14 = vec![w.name().to_string()];
        let mut r15 = vec![w.name().to_string()];
        for ci in 1..stride {
            let c = Comparison::new(base, &outs[wi * stride + ci]);
            sp14[ci - 1].push(c.speedup());
            sp15[ci - 1].push(c.dynamic_ratio());
            r14.push(TextTable::pct(c.speedup()));
            r15.push(TextTable::ratio(c.dynamic_ratio()));
        }
        t14.row(r14);
        t15.row(r15);
    }
    let mut a14 = vec!["average".to_string()];
    let mut a15 = vec!["average".to_string()];
    for i in 0..3 {
        a14.push(TextTable::pct(mean(&sp14[i])));
        a15.push(TextTable::ratio(mean(&sp15[i])));
    }
    t14.row(a14);
    t15.row(a15);

    let f14 = FigureOutput {
        name: "fig14",
        title: "Speedup: prefetch vs ReDHiP vs both".into(),
        json: json!({
            "configs": names,
            "workloads": s.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
            "speedup": &sp14,
            "averages": sp14.iter().map(|x| mean(x)).collect::<Vec<_>>(),
            "paper_note": "performance benefits are additive: SP+ReDHiP beats either alone",
        }),
        text: format!(
            "Figure 14: speedup of SP only / ReDHiP only / SP+ReDHiP over Base\n{}\npaper: complementary — combined speedup exceeds either alone\n",
            t14.render()
        ),
    };
    let f15 = FigureOutput {
        name: "fig15",
        title: "Dynamic energy: prefetch vs ReDHiP vs both".into(),
        json: json!({
            "configs": names,
            "workloads": s.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
            "dynamic_ratio": &sp15,
            "averages": sp15.iter().map(|x| mean(x)).collect::<Vec<_>>(),
            "paper_note": "SP alone costs energy (>1.0 on several benchmarks); combined lands between SP's cost and ReDHiP's savings",
        }),
        text: format!(
            "Figure 15: dynamic energy of SP only / ReDHiP only / SP+ReDHiP, normalized to Base\n{}\npaper: prefetching alone is costly; ReDHiP offsets it — combined sits between the two\n",
            t15.render()
        ),
    };
    (f14, f15)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_settings() -> Settings {
        let mut s = Settings::new(FigureScale::Smoke, Some(4_000));
        s.workloads = vec![Benchmark::Mcf, Benchmark::Lbm];
        s
    }

    #[test]
    fn matrix_shape_and_fig6_7_8_9_10() {
        let s = smoke_settings();
        let m = run_matrix(&s);
        assert_eq!(m.base.len(), 2);
        assert_eq!(m.results.len(), 4);
        for f in [fig6(&m), fig7(&m), fig8(&m), fig9(&m), fig10(&m)] {
            assert!(f.text.contains("mcf"), "{} missing workload", f.name);
            assert!(f.text.contains("average"));
            assert!(!f.json.is_null());
        }
    }

    #[test]
    fn shootout_covers_all_non_base_mechanisms() {
        let mut s = smoke_settings();
        s.workloads = vec![Benchmark::Mcf];
        let f = run_shootout(&s);
        for mech in SHOOTOUT {
            assert!(f.text.contains(mech.name()), "{} missing", mech.name());
        }
        assert_eq!(
            f.json["speedup"]["mechanisms"].as_array().unwrap().len(),
            SHOOTOUT.len()
        );
    }

    #[test]
    fn fig11_sweeps_sizes() {
        let mut s = smoke_settings();
        s.workloads = vec![Benchmark::Mcf];
        let f = fig11(&s);
        assert!(f.text.contains("Figure 11"));
        assert_eq!(f.json["sizes_bytes"].as_array().unwrap().len(), 6);
    }

    #[test]
    fn fig12_includes_every_and_never() {
        let mut s = smoke_settings();
        s.workloads = vec![Benchmark::Mcf];
        let f = fig12(&s);
        assert!(f.text.contains("every"));
        assert!(f.text.contains("never"));
    }

    #[test]
    fn fig13_covers_three_policies() {
        let mut s = smoke_settings();
        s.workloads = vec![Benchmark::Mcf];
        let f = fig13(&s);
        assert!(f.text.contains("Exclusive"));
        assert_eq!(f.json["averages"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn fig14_15_prefetch_combo() {
        let mut s = smoke_settings();
        s.workloads = vec![Benchmark::Lbm];
        let (f14, f15) = fig14_15(&s);
        assert!(f14.text.contains("SP+ReDHiP"));
        assert!(f15.text.contains("SP+ReDHiP"));
    }

    #[test]
    fn table1_prints_platform() {
        let f = table1(FigureScale::Paper);
        assert!(f.text.contains("65536K")); // 64 MB LLC
        assert!(f.text.contains("0.78%"));
    }
}
