//! One function per table/figure of the paper's evaluation section.
//!
//! Every figure renders to a [`FigureOutput`]: a text table (what the
//! `figures` binary prints), a JSON value (what it writes to the results
//! directory), and the paper's reference numbers for the same artifact so
//! EXPERIMENTS.md can record paper-vs-measured side by side.
//!
//! Figures are planned into one shared [`SweepPlan`] (deduplicating
//! against every other figure's cells) and rendered from the sweep's
//! results. Figures 6–10 and the predictor shoot-out read one workload ×
//! mechanism [`Matrix`] (`plan_matrix`/`plan_shootout`, then
//! [`matrix_from`]). Figures 11–15, like the [`crate::ablate`] studies,
//! are each one parameter study: `plan_figN` returns a [`StudyPlan`] whose
//! [`render`](StudyPlan::render) draws the table once the sweep ran.

use crate::harness::{mechanism_config, FigureScale};
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
/// legend order followed by the related-work contenders.
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

pub(crate) fn cfg_for(s: &Settings, mechanism: Mechanism) -> SimConfig {
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
fn plan_matrix_of(s: &Settings, plan: &mut SweepPlan, mechanisms: &[Mechanism]) -> MatrixPlan {
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
/// [`SHOOTOUT`] columns, including the related-work contenders).
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

/// What each cell of a [`Study`] reports about its variant run against
/// its base run. The metric fixes the study's JSON key and cell format.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Metric {
    /// [`Comparison::speedup`], as a signed percentage.
    Speedup,
    /// [`Comparison::dynamic_ratio`], as a ratio.
    DynamicRatio,
    /// [`Comparison::dynamic_saving`], as a signed percentage.
    DynamicSaving,
}

impl Metric {
    fn key(self) -> &'static str {
        match self {
            Metric::Speedup => "speedup",
            Metric::DynamicRatio => "dynamic_ratio",
            Metric::DynamicSaving => "dynamic_saving",
        }
    }

    fn of(self, c: &Comparison) -> f64 {
        match self {
            Metric::Speedup => c.speedup(),
            Metric::DynamicRatio => c.dynamic_ratio(),
            Metric::DynamicSaving => c.dynamic_saving(),
        }
    }

    fn fmt(self, v: f64) -> String {
        match self {
            Metric::DynamicRatio => TextTable::ratio(v),
            Metric::Speedup | Metric::DynamicSaving => TextTable::pct(v),
        }
    }
}

/// One column of a [`Study`]: a variant config compared against the
/// study's base run `bases[base]`.
pub(crate) struct Column {
    pub(crate) label: String,
    pub(crate) cfg: SimConfig,
    pub(crate) base: usize,
}

/// A parameter study: a table of workloads × columns whose every cell is
/// one [`Comparison`] of a variant run against a base run. Figures 11–15
/// and the [`crate::ablate`] studies are all of this shape.
pub(crate) struct Study {
    /// Output identifier, also the `figures` target (`fig11`, ...).
    pub(crate) name: &'static str,
    pub(crate) title: &'static str,
    /// Text line above the table.
    pub(crate) heading: &'static str,
    /// Text line below the table: the expected reading.
    pub(crate) footer: &'static str,
    /// The paper's reading, for the JSON. Paper figures carry it and list
    /// their workloads; the ablations, on a fixed subset, omit both.
    pub(crate) paper_note: Option<&'static str>,
    /// JSON key and values describing the columns.
    pub(crate) axis: (&'static str, Json),
    pub(crate) metric: Metric,
    /// Table rows.
    pub(crate) workloads: Vec<Benchmark>,
    /// Base runs, indexed by [`Column::base`].
    pub(crate) bases: Vec<SimConfig>,
    pub(crate) columns: Vec<Column>,
}

impl Study {
    /// Enumerates the study's cells into `plan`, workload by workload.
    /// Within a workload each column requests its base the first time a
    /// column needs it, then its variant. The `figures` manifest hash folds
    /// cells in plan order, so this order is part of the output.
    pub(crate) fn plan(self, s: &Settings, plan: &mut SweepPlan) -> StudyPlan {
        let scale = ws(s);
        let mut cells = Vec::with_capacity(self.workloads.len());
        for &w in &self.workloads {
            let mut base_ids = vec![None; self.bases.len()];
            let mut row = Vec::with_capacity(self.columns.len());
            for col in &self.columns {
                let base = *base_ids[col.base]
                    .get_or_insert_with(|| plan.cell(&self.bases[col.base], w, scale));
                row.push((base, plan.cell(&col.cfg, w, scale)));
            }
            cells.push(row);
        }
        StudyPlan { study: self, cells }
    }
}

/// A parameter study (workloads × columns, each cell one variant run
/// against a base run) planned into a [`SweepPlan`]; renders once the
/// sweep ran.
pub struct StudyPlan {
    study: Study,
    /// `(base, variant)` cell ids per workload, per column.
    cells: Vec<Vec<(CellId, CellId)>>,
}

impl StudyPlan {
    /// Renders the study's table from a finished sweep: one row per
    /// workload plus an average row.
    pub fn render(&self, res: &SweepResults) -> FigureOutput {
        let st = &self.study;
        let metric = st.metric;
        let mut header = vec!["workload"];
        header.extend(st.columns.iter().map(|c| c.label.as_str()));
        let mut t = TextTable::new(&header);
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); st.columns.len()];
        for (w, ids) in st.workloads.iter().zip(&self.cells) {
            let mut row = vec![w.name().to_string()];
            for (col, &(base, variant)) in series.iter_mut().zip(ids) {
                let v = metric.of(&Comparison::new(res.get(base), res.get(variant)));
                col.push(v);
                row.push(metric.fmt(v));
            }
            t.row(row);
        }
        let averages: Vec<f64> = series.iter().map(|x| mean(x)).collect();
        let mut avg = vec!["average".to_string()];
        avg.extend(averages.iter().map(|&v| metric.fmt(v)));
        t.row(avg);
        let mut json = Json::Obj(vec![(st.axis.0.to_string(), st.axis.1.clone())]);
        if st.paper_note.is_some() {
            json.set(
                "workloads",
                json!(st.workloads.iter().map(|w| w.name()).collect::<Vec<_>>()),
            );
        }
        json.set(metric.key(), json!(series));
        json.set("averages", json!(averages));
        if let Some(note) = st.paper_note {
            json.set("paper_note", json!(note));
        }
        FigureOutput {
            name: st.name,
            title: st.title.into(),
            json,
            text: format!("{}\n{}\n{}\n", st.heading, t.render(), st.footer),
        }
    }
}

/// Each label's column compared against one shared Base run, `bases[0]`.
pub(crate) fn over_base(
    labels: &[String],
    cfgs: impl IntoIterator<Item = SimConfig>,
) -> Vec<Column> {
    labels
        .iter()
        .zip(cfgs)
        .map(|(label, cfg)| Column {
            label: label.clone(),
            cfg,
            base: 0,
        })
        .collect()
}

/// Each label's column compared against its own Base run: both built by
/// `knob(cfg, i)` from the settings' Base and ReDHiP configs, so the
/// ratio never mixes the knob's settings.
pub(crate) fn paired(
    s: &Settings,
    labels: &[String],
    knob: impl Fn(&mut SimConfig, usize),
) -> (Vec<SimConfig>, Vec<Column>) {
    let with = |mech, i| {
        let mut cfg = cfg_for(s, mech);
        knob(&mut cfg, i);
        cfg
    };
    let bases = (0..labels.len())
        .map(|i| with(Mechanism::Base, i))
        .collect();
    let columns = labels
        .iter()
        .enumerate()
        .map(|(i, label)| Column {
            label: label.clone(),
            cfg: with(Mechanism::Redhip, i),
            base: i,
        })
        .collect();
    (bases, columns)
}

/// Figure 11: dynamic energy vs prediction-table size (overhead ignored,
/// as in the paper's accuracy study). Sizes are expressed relative to the
/// platform default (512 KB paper / 64 KB demo): 4×, 2×, 1×, 1/2, 1/4, 1/8.
pub fn plan_fig11(s: &Settings, plan: &mut SweepPlan) -> StudyPlan {
    let default_bytes = s.scale.platform().predictor.size_bytes;
    let factors: [(u64, u64); 6] = [(4, 1), (2, 1), (1, 1), (1, 2), (1, 4), (1, 8)];
    let sizes: Vec<u64> = factors
        .iter()
        .map(|&(n, d)| default_bytes * n / d)
        .collect();
    let labels: Vec<String> = sizes.iter().map(|sz| format!("{}K", sz >> 10)).collect();
    let cfgs = sizes.iter().map(|&sz| {
        let mut cfg = cfg_for(s, Mechanism::Redhip);
        cfg.pt_bytes = Some(sz);
        cfg.count_prediction_overhead = false; // the paper's Fig 11 setup
        cfg
    });
    Study {
        name: "fig11",
        title: "Dynamic energy vs PT size",
        heading: "Figure 11: normalized dynamic energy vs prediction-table size (prediction overhead ignored)",
        footer: "paper: accuracy gain marginal beyond the default size; 1/8 of the default is nearly useless",
        paper_note: Some("gain marginal beyond the default size; the smallest table is nearly useless"),
        axis: ("sizes_bytes", json!(&sizes)),
        metric: Metric::DynamicRatio,
        workloads: s.workloads.clone(),
        bases: vec![cfg_for(s, Mechanism::Base)],
        columns: over_base(&labels, cfgs),
    }
    .plan(s, plan)
}

/// Figure 12: dynamic energy vs recalibration period, from every L1 miss
/// (1) to never. Periods scale with the platform (paper: 1 … 100 M, ∞).
pub fn plan_fig12(s: &Settings, plan: &mut SweepPlan) -> StudyPlan {
    let base_period = s.scale.workload_scale().recalib_period();
    let periods = [
        Some(1),
        Some((base_period / 64).max(2)),
        Some(base_period / 8),
        Some(base_period),
        Some(base_period * 8),
        Some(base_period * 64),
        None,
    ];
    let labels: Vec<String> = periods
        .iter()
        .map(|p| match p {
            Some(1) => "every".into(),
            Some(v) => format!("{v}"),
            None => "never".into(),
        })
        .collect();
    let cfgs = periods.iter().map(|&period| {
        let mut cfg = cfg_for(s, Mechanism::Redhip);
        cfg.recalib_period = period;
        cfg.count_prediction_overhead = false; // accuracy study
        cfg
    });
    Study {
        name: "fig12",
        title: "Dynamic energy vs recalibration period",
        heading: "Figure 12: normalized dynamic energy vs recalibration period in L1 misses (overhead ignored; 'every' = per miss, the paper's perfect recalibration)",
        footer: "paper: recalibrating at the default period captures nearly all benefit; much longer periods collapse toward never-recalibrate",
        paper_note: Some("little gain from recalibrating more often than the default period; precipitous accuracy loss at ~100x the default and beyond"),
        axis: ("periods_l1_misses", json!(&labels)),
        metric: Metric::DynamicRatio,
        workloads: s.workloads.clone(),
        bases: vec![cfg_for(s, Mechanism::Base)],
        columns: over_base(&labels, cfgs),
    }
    .plan(s, plan)
}

/// Figure 13: ReDHiP's dynamic-energy savings under the three inclusion
/// policies (each normalized to Base under the *same* policy).
pub fn plan_fig13(s: &Settings, plan: &mut SweepPlan) -> StudyPlan {
    let policies = [
        InclusionPolicy::Inclusive,
        InclusionPolicy::Hybrid,
        InclusionPolicy::Exclusive,
    ];
    let labels = ["Inclusive", "Hybrid", "Exclusive"].map(String::from);
    let (bases, columns) = paired(s, &labels, |cfg, i| cfg.policy = policies[i]);
    Study {
        name: "fig13",
        title: "Dynamic energy savings per inclusion policy",
        heading: "Figure 13: ReDHiP dynamic-energy savings by inclusion policy (each vs Base under the same policy)",
        footer: "paper: Hybrid ~= Inclusive; Exclusive saves ~15 points less but still >40%",
        paper_note: Some("hybrid ~= inclusive; exclusive ~15 points lower but still >40% better than its base"),
        axis: ("policies", json!(labels)),
        metric: Metric::DynamicSaving,
        workloads: s.workloads.clone(),
        bases,
        columns,
    }
    .plan(s, plan)
}

/// Figure 14: speedup of stride prefetching alone, ReDHiP alone, and
/// both, over one Base run. Figure 15 reuses these columns.
fn prefetch_study(s: &Settings) -> Study {
    let mut sp_only = cfg_for(s, Mechanism::Base);
    sp_only.prefetch = Some(StrideConfig::default());
    let redhip_only = cfg_for(s, Mechanism::Redhip);
    let mut sp_redhip = redhip_only.clone();
    sp_redhip.prefetch = Some(StrideConfig::default());
    let labels = ["SP only", "ReDHiP only", "SP+ReDHiP"].map(String::from);
    Study {
        name: "fig14",
        title: "Speedup: prefetch vs ReDHiP vs both",
        heading: "Figure 14: speedup of SP only / ReDHiP only / SP+ReDHiP over Base",
        footer: "paper: complementary — combined speedup exceeds either alone",
        paper_note: Some("performance benefits are additive: SP+ReDHiP beats either alone"),
        axis: ("configs", json!(&labels[..])),
        metric: Metric::Speedup,
        workloads: s.workloads.clone(),
        bases: vec![cfg_for(s, Mechanism::Base)],
        columns: over_base(&labels, [sp_only, redhip_only, sp_redhip]),
    }
}

/// Enumerates Figure 14 (prefetch × ReDHiP speedup) into `plan`.
pub fn plan_fig14(s: &Settings, plan: &mut SweepPlan) -> StudyPlan {
    prefetch_study(s).plan(s, plan)
}

/// Figure 15: dynamic energy of Figure 14's configurations.
pub fn plan_fig15(s: &Settings, plan: &mut SweepPlan) -> StudyPlan {
    Study {
        name: "fig15",
        title: "Dynamic energy: prefetch vs ReDHiP vs both",
        heading: "Figure 15: dynamic energy of SP only / ReDHiP only / SP+ReDHiP, normalized to Base",
        footer: "paper: prefetching alone is costly; ReDHiP offsets it — combined sits between the two",
        paper_note: Some("SP alone costs energy (>1.0 on several benchmarks); combined lands between SP's cost and ReDHiP's savings"),
        metric: Metric::DynamicRatio,
        ..prefetch_study(s)
    }
    .plan(s, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep::SweepEngine;

    fn smoke_settings() -> Settings {
        let mut s = Settings::new(FigureScale::Smoke, Some(4_000));
        s.workloads = vec![Benchmark::Mcf, Benchmark::Lbm];
        s
    }

    /// Plans one figure with `planner` and runs it on a quiet engine.
    fn run<P>(
        s: &Settings,
        planner: impl FnOnce(&Settings, &mut SweepPlan) -> P,
    ) -> (P, SweepResults) {
        let mut plan = SweepPlan::new();
        let p = planner(s, &mut plan);
        let res = SweepEngine::new(2).quiet().run(&plan, "t").unwrap();
        (p, res)
    }

    fn study(s: &Settings, planner: fn(&Settings, &mut SweepPlan) -> StudyPlan) -> FigureOutput {
        let (p, res) = run(s, planner);
        p.render(&res)
    }

    #[test]
    fn matrix_shape_and_fig6_7_8_9_10() {
        let s = smoke_settings();
        let (p, res) = run(&s, plan_matrix);
        let m = matrix_from(&s, &p, &res);
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
        let (p, res) = run(&s, plan_shootout);
        let f = shootout(&matrix_from(&s, &p, &res));
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
        let f = study(&s, plan_fig11);
        assert!(f.text.contains("Figure 11"));
        assert_eq!(f.json["sizes_bytes"].as_array().unwrap().len(), 6);
    }

    #[test]
    fn fig12_includes_every_and_never() {
        let mut s = smoke_settings();
        s.workloads = vec![Benchmark::Mcf];
        let f = study(&s, plan_fig12);
        assert!(f.text.contains("every"));
        assert!(f.text.contains("never"));
    }

    #[test]
    fn fig13_covers_three_policies() {
        let mut s = smoke_settings();
        s.workloads = vec![Benchmark::Mcf];
        let f = study(&s, plan_fig13);
        assert!(f.text.contains("Exclusive"));
        assert_eq!(f.json["averages"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn fig14_and_fig15_share_their_cells() {
        let mut s = smoke_settings();
        s.workloads = vec![Benchmark::Lbm];
        let mut plan = SweepPlan::new();
        let p14 = plan_fig14(&s, &mut plan);
        let unique = plan.len();
        let p15 = plan_fig15(&s, &mut plan);
        assert_eq!(plan.len(), unique, "fig15 planned a cell fig14 lacks");
        let res = SweepEngine::new(2).quiet().run(&plan, "t").unwrap();
        let (f14, f15) = (p14.render(&res), p15.render(&res));
        assert!(f14.text.contains("SP+ReDHiP"));
        assert!(f15.text.contains("SP+ReDHiP"));
        assert!(f14.json.get("speedup").is_some());
        assert!(f15.json.get("dynamic_ratio").is_some());
    }

    #[test]
    fn table1_prints_platform() {
        let f = table1(FigureScale::Paper);
        assert!(f.text.contains("65536K")); // 64 MB LLC
        assert!(f.text.contains("0.78%"));
    }
}
