//! Determinism guarantees of the sweep engine.
//!
//! The engine's contract is that worker count is invisible in the output:
//! `--jobs 1`, `--jobs 4` and the host default must produce byte-identical
//! figure JSON, and simulating the golden-diff cells on concurrent threads
//! must reproduce the committed snapshots exactly. The memoizing cache must
//! never change bytes either — a rehydrated result re-serializes
//! identically — and repeated cells across figures are simulated once.

use bench::ablate;
use bench::figures::{self, Settings, StudyPlan};
use bench::harness::FigureScale;
use energy_model::presets::demo_scale;
use mem_trace::synth::{PointerChase, Region, SequentialStream, ZipfOverRecords};
use mem_trace::DynTrace;
use minijson::ToJson;
use sim::{run_traces, Mechanism, SimConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use sweep::{ResultCache, SweepEngine, SweepPlan};
use workloads::Benchmark;

fn test_settings() -> Settings {
    let mut s = Settings::new(FigureScale::Smoke, Some(1_500));
    s.workloads = vec![Benchmark::Mcf, Benchmark::Lbm];
    s
}

/// Plans the full figure set (matrix, every parameter study and every
/// ablation) into one job graph, the way the `figures` binary does for
/// `all`.
fn plan_figure_set(
    s: &Settings,
    plan: &mut SweepPlan,
) -> (figures::MatrixPlan, figures::MatrixPlan, Vec<StudyPlan>) {
    let matrix = figures::plan_matrix(s, plan);
    let shootout = figures::plan_shootout(s, plan);
    let studies = [
        figures::plan_fig11,
        figures::plan_fig12,
        figures::plan_fig13,
        figures::plan_fig14,
        figures::plan_fig15,
        ablate::plan_cbf_counter_width,
        ablate::plan_recalib_banking,
        ablate::plan_entry_width,
        ablate::plan_accounting,
        ablate::plan_replacement,
    ]
    .iter()
    .map(|planner| planner(s, plan))
    .collect();
    (matrix, shootout, studies)
}

/// Renders every figure of the set to one concatenated JSON string —
/// the byte-level artifact the determinism guarantee is stated over.
fn render_figure_set(s: &Settings, engine: &SweepEngine) -> (String, u64, u64) {
    let mut plan = SweepPlan::new();
    let (mp, sp, studies) = plan_figure_set(s, &mut plan);
    let dedup = plan.dedup_hits();
    let res = engine.run(&plan, "[test] sweep").expect("sweep runs");
    let m = figures::matrix_from(s, &mp, &res);
    let sm = figures::matrix_from(s, &sp, &res);
    let mut out = String::new();
    let matrix_figures = [
        figures::fig6(&m),
        figures::fig7(&m),
        figures::fig8(&m),
        figures::fig9(&m),
        figures::fig10(&m),
        figures::shootout(&sm),
    ];
    for f in matrix_figures
        .into_iter()
        .chain(studies.iter().map(|p| p.render(&res)))
    {
        out.push_str(f.name);
        out.push('\n');
        out.push_str(&f.json.pretty());
        out.push('\n');
        out.push_str(&f.text);
    }
    (out, dedup, res.stats.simulated)
}

#[test]
fn figure_set_is_byte_identical_across_worker_counts() {
    let s = test_settings();
    let (one, dedup1, sim1) = render_figure_set(&s, &SweepEngine::new(1).quiet());
    let (four, dedup4, sim4) = render_figure_set(&s, &SweepEngine::new(4).quiet());
    let (host, _, _) = render_figure_set(&s, &SweepEngine::new(sweep::default_jobs()).quiet());
    assert_eq!(one, four, "--jobs 1 vs --jobs 4 diverged");
    assert_eq!(one, host, "--jobs 1 vs host default diverged");
    // The figure set genuinely shares cells (base runs, matrix overlap);
    // the sweep would silently lose its point if planning stopped deduping.
    assert!(dedup1 > 0, "no cross-figure dedup in the figure set");
    assert_eq!(dedup1, dedup4);
    assert_eq!(sim1, sim4);
}

/// The whole figure set at the test settings, pinned byte for byte: a
/// change to how figures are planned or rendered must not move a digit.
/// Regenerate (only for a deliberate output change) with
/// `REGEN_GOLDEN=1 cargo test --test sweep_determinism`.
#[test]
fn figure_set_matches_committed_golden() {
    let (got, _, _) = render_figure_set(&test_settings(), &SweepEngine::new(2).quiet());
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("figures_smoke.txt");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write figures golden");
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        want == got,
        "figure set diverged from tests/golden/figures_smoke.txt"
    );
}

#[test]
fn repeated_cells_are_simulated_exactly_once() {
    let s = test_settings();
    let mut plan = SweepPlan::new();
    let _ = plan_figure_set(&s, &mut plan);
    let unique = plan.len() as u64;
    let engine = SweepEngine::new(2).quiet();
    let first = engine.run(&plan, "[test] first").expect("first run");
    assert_eq!(first.stats.simulated, unique);
    assert_eq!(first.stats.cache_hits, 0);
    assert_eq!(
        engine.cache().counters.misses.load(Ordering::Relaxed),
        unique
    );
    // Re-planning the same figures against the same engine touches the
    // simulator zero times: every cell is a memory-cache hit.
    let mut again = SweepPlan::new();
    let _ = plan_figure_set(&s, &mut again);
    let second = engine.run(&again, "[test] second").expect("second run");
    assert_eq!(second.stats.simulated, 0);
    assert_eq!(second.stats.cache_hits, unique);
    assert_eq!(second.stats.refs_simulated, 0);
}

#[test]
fn disk_cache_rehydration_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("sweep-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut s = test_settings();
    s.workloads = vec![Benchmark::Mcf];
    let cold = SweepEngine::new(2)
        .with_cache(ResultCache::with_disk(dir.clone()))
        .quiet();
    let (first, _, simulated) = render_figure_set(&s, &cold);
    assert!(simulated > 0);
    // A fresh engine (fresh process, conceptually) serves everything from
    // disk and must render the very same bytes.
    let warm = SweepEngine::new(2)
        .with_cache(ResultCache::with_disk(dir.clone()))
        .quiet();
    let (second, _, resimulated) = render_figure_set(&s, &warm);
    assert_eq!(resimulated, 0, "disk cache missed");
    assert!(warm.cache().counters.disk_hits.load(Ordering::Relaxed) > 0);
    assert_eq!(first, second, "disk rehydration changed figure bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- golden cells on concurrent threads ----------------------------------
//
// Mirrors tests/golden_diff.rs (integration tests cannot import each
// other): the same 24 cells (3 workloads × 8 mechanisms), but simulated
// concurrently on 4 threads that claim cells from one shared cursor. The
// committed snapshots must be reproduced byte-identically — concurrent
// simulations in one process add no nondeterminism.

const GOLDEN_MECHANISMS: [Mechanism; 8] = [
    Mechanism::Base,
    Mechanism::Phased,
    Mechanism::Cbf,
    Mechanism::Redhip,
    Mechanism::Oracle,
    Mechanism::LevelPred,
    Mechanism::Perceptron,
    Mechanism::WayMemo,
];
const GOLDEN_WORKLOADS: [&str; 3] = ["stream", "zipf", "chase"];
const GOLDEN_CORES: usize = 2;

fn golden_trace(workload: &str, core: usize) -> DynTrace {
    let seed = 0x601D_BA5E + core as u64;
    match workload {
        "stream" => Box::new(
            SequentialStream::new(Region::new(0x1000_0000, 4 << 20), 64, 0x400, 7, 2)
                .with_repeats(3),
        ),
        "zipf" => Box::new(ZipfOverRecords::new(
            Region::new(0x2000_0000, 32 << 20),
            64,
            0.9,
            seed,
            0x500,
            0.2,
            3,
        )),
        "chase" => Box::new(PointerChase::new(0x3000_0000, 1 << 15, 64, seed, 0x600, 1)),
        other => panic!("unknown golden workload {other}"),
    }
}

fn golden_config(mechanism: Mechanism) -> SimConfig {
    let mut platform = demo_scale();
    platform.cores = GOLDEN_CORES;
    let mut cfg = SimConfig::new(platform, mechanism);
    cfg.refs_per_core = 12_000;
    cfg.recalib_period = Some(1_500);
    cfg
}

#[test]
fn golden_cells_on_concurrent_threads_match_committed_snapshots() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    let cells: Vec<(&str, Mechanism)> = GOLDEN_WORKLOADS
        .iter()
        .flat_map(|&w| GOLDEN_MECHANISMS.iter().map(move |&m| (w, m)))
        .collect();
    let slots: Vec<Mutex<Option<String>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(workload, mechanism)) = cells.get(i) else {
                    break;
                };
                let cfg = golden_config(mechanism);
                let traces = (0..GOLDEN_CORES)
                    .map(|c| golden_trace(workload, c))
                    .collect();
                let mut text = run_traces(&cfg, traces).to_json().pretty();
                text.push('\n');
                *slots[i].lock().expect("slot") = Some(text);
            });
        }
    });
    for (i, (workload, mechanism)) in cells.iter().enumerate() {
        let name = format!("{workload}_{}.json", mechanism.name());
        let want = std::fs::read_to_string(dir.join(&name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
        let got = slots[i]
            .lock()
            .expect("slot")
            .take()
            .expect("cell produced output");
        assert!(want == got, "concurrent run diverged from golden {name}");
    }
}
