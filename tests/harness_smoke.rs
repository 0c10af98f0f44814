//! Smoke tests of the figure-regeneration harness: every figure function
//! produces well-formed output at smoke scale. (The real runs live in the
//! `figures` binary; see EXPERIMENTS.md.)

use bench::figures::{self, FigureOutput, Settings, StudyPlan};
use bench::harness::FigureScale;
use sweep::{SweepEngine, SweepPlan, SweepResults};
use workloads::Benchmark;

fn settings() -> Settings {
    let mut s = Settings::new(FigureScale::Smoke, Some(2_500));
    s.workloads = vec![Benchmark::Mcf, Benchmark::Blas];
    s
}

fn sweep(plan: &SweepPlan) -> SweepResults {
    SweepEngine::new(2)
        .quiet()
        .run(plan, "[test]")
        .expect("sweep runs")
}

/// Plans `planners` into one sweep, runs it, and renders each study.
fn studies(
    s: &Settings,
    planners: &[fn(&Settings, &mut SweepPlan) -> StudyPlan],
) -> Vec<FigureOutput> {
    let mut plan = SweepPlan::new();
    let plans: Vec<StudyPlan> = planners.iter().map(|p| p(s, &mut plan)).collect();
    let res = sweep(&plan);
    plans.iter().map(|p| p.render(&res)).collect()
}

#[test]
fn figures_6_through_10_from_one_matrix() {
    let s = settings();
    let mut plan = SweepPlan::new();
    let mp = figures::plan_matrix(&s, &mut plan);
    let m = figures::matrix_from(&s, &mp, &sweep(&plan));
    let outs = [
        figures::fig6(&m),
        figures::fig7(&m),
        figures::fig8(&m),
        figures::fig9(&m),
        figures::fig10(&m),
    ];
    for f in &outs {
        assert!(
            f.text.contains("average"),
            "{} lacks an average row",
            f.name
        );
        assert!(f.json.is_object(), "{} json malformed", f.name);
        // Every workload appears in the rendered table.
        for w in &s.workloads {
            assert!(f.text.contains(w.name()), "{} missing {}", f.name, w);
        }
    }
    // Fig 10 carries the paper-vs-measured hit-rate deltas.
    assert!(outs[4].json.get("improvement_vs_base_pp").is_some());
}

#[test]
fn sweep_figures_have_expected_axes() {
    let mut s = settings();
    s.workloads = vec![Benchmark::Mcf];
    let f = studies(
        &s,
        &[
            figures::plan_fig11,
            figures::plan_fig12,
            figures::plan_fig13,
        ],
    );
    assert_eq!(f[0].json["sizes_bytes"].as_array().unwrap().len(), 6);
    assert_eq!(f[1].json["periods_l1_misses"].as_array().unwrap().len(), 7);
    assert_eq!(f[2].json["policies"].as_array().unwrap().len(), 3);
}

#[test]
fn prefetch_figures_pair() {
    let mut s = settings();
    s.workloads = vec![Benchmark::Bwaves];
    let f = studies(&s, &[figures::plan_fig14, figures::plan_fig15]);
    let (f14, f15) = (&f[0], &f[1]);
    assert_eq!(f14.json["configs"].as_array().unwrap().len(), 3);
    assert_eq!(f15.json["configs"].as_array().unwrap().len(), 3);
    // The stride-friendly workload must actually issue prefetches: SP-only
    // speedup should differ from zero in some direction.
    let sp = f14.json["speedup"][0][0].as_f64().unwrap();
    assert!(sp.is_finite());
}

#[test]
fn table1_matches_figure_scale() {
    let demo = figures::table1(FigureScale::Demo);
    assert!(demo.text.contains("8192K"), "demo LLC is 8 MB");
    let paper = figures::table1(FigureScale::Paper);
    assert!(paper.text.contains("65536K"), "paper LLC is 64 MB");
}
