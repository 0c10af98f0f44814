//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures [TARGETS...] [--scale smoke|demo|paper] [--refs N] [--out DIR]
//!         [--jobs N] [--cache] [--cache-dir DIR]
//!         [--metrics[=FILE]]
//!
//! TARGETS: all (default) | table1 | fig1 | fig6..fig15 | core (table1,
//!          fig1, fig6-10) | sweeps (fig11-13) | prefetch (fig14-15)
//!          | ablations (every ablate_* output) | ablate_cbf_width
//!          | ablate_recalib_banking | ablate_entry_width
//!          | ablate_accounting | ablate_replacement
//!          | shootout (every non-Base mechanism incl. the registry
//!            contenders: speedup + normalized dynamic energy)
//! ```
//!
//! Any other target is an error (exit 2). Every requested figure's cells
//! are enumerated into ONE deduplicated job graph and run by the sweep
//! engine's workers, so a cell shared by several figures (e.g.
//! the Base runs of Figures 6–12) is simulated exactly once. `--jobs N`
//! (or `REDHIP_JOBS`) sets the worker count; output is byte-identical
//! regardless. `--cache` memoizes results on disk under `DIR/cache/` so
//! re-runs skip finished cells.
//!
//! Text renders to stdout and is mirrored to `DIR/figures.log`;
//! structured results land in `DIR/<name>.json` (default `results/`) —
//! no shell redirection into the repo root needed. An invalid
//! configuration (e.g. `--refs 0`) or an unwritable output path is
//! reported with its cause and exits 1.

use bench::figures::{self, FigureOutput, Settings, StudyPlan};
use bench::harness::FigureScale;
use bench::{ablate, figdata};
use std::collections::BTreeSet;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use sweep::{default_jobs, ResultCache, SweepEngine, SweepPlan};

fn usage() -> ! {
    eprintln!(
        "usage: figures [all|core|sweeps|prefetch|ablations|shootout|table1|fig1|fig6..fig15\
         |ablate_cbf_width|ablate_recalib_banking|ablate_entry_width|ablate_accounting\
         |ablate_replacement]... [--scale smoke|demo|paper] [--refs N] [--out DIR] [--jobs N] \
         [--cache] [--cache-dir DIR] [--metrics[=FILE]]"
    );
    std::process::exit(2);
}

type Planner = fn(&Settings, &mut SweepPlan) -> StudyPlan;

/// Every parameter study as (target, group, planner), in report order.
const STUDIES: [(&str, &str, Planner); 10] = [
    ("fig11", "sweeps", figures::plan_fig11),
    ("fig12", "sweeps", figures::plan_fig12),
    ("fig13", "sweeps", figures::plan_fig13),
    ("fig14", "prefetch", figures::plan_fig14),
    ("fig15", "prefetch", figures::plan_fig15),
    (
        "ablate_cbf_width",
        "ablations",
        ablate::plan_cbf_counter_width,
    ),
    (
        "ablate_recalib_banking",
        "ablations",
        ablate::plan_recalib_banking,
    ),
    ("ablate_entry_width", "ablations", ablate::plan_entry_width),
    ("ablate_accounting", "ablations", ablate::plan_accounting),
    ("ablate_replacement", "ablations", ablate::plan_replacement),
];

/// The Figure 6–10 matrix figures.
const MATRIX_FIGURES: [&str; 5] = ["fig6", "fig7", "fig8", "fig9", "fig10"];

/// Targets outside [`STUDIES`] and [`MATRIX_FIGURES`]: the groups, the
/// shoot-out, and the two figures that need no sweep.
const OTHER_TARGETS: [&str; 8] = [
    "all",
    "core",
    "sweeps",
    "prefetch",
    "ablations",
    "shootout",
    "table1",
    "fig1",
];

fn is_target(t: &str) -> bool {
    STUDIES.iter().any(|&(name, _, _)| name == t)
        || MATRIX_FIGURES.contains(&t)
        || OTHER_TARGETS.contains(&t)
}

struct Args {
    targets: BTreeSet<String>,
    scale: FigureScale,
    refs: Option<usize>,
    out: PathBuf,
    jobs: Option<usize>,
    cache_dir: Option<PathBuf>,
    /// Where to write the `redhip-metrics/v1` snapshot; `None` leaves the
    /// registry disabled.
    metrics: Option<PathBuf>,
}

impl Args {
    /// The run's text log: every rendered table, mirrored under the
    /// results directory (not the repo root).
    fn log_path(&self) -> PathBuf {
        self.out.join("figures.log")
    }
}

fn parse_args() -> Args {
    let mut targets = BTreeSet::new();
    let mut scale = FigureScale::Demo;
    let mut refs = None;
    let mut out = PathBuf::from("results");
    let mut jobs = None;
    let mut cache = false;
    let mut cache_dir = None;
    // None = disabled, Some(None) = default path (<out>/metrics.jsonl).
    let mut metrics: Option<Option<PathBuf>> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage());
                scale = FigureScale::parse(&v).unwrap_or_else(|| usage());
            }
            "--refs" => {
                let v = it.next().unwrap_or_else(|| usage());
                refs = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--out" => {
                out = PathBuf::from(it.next().unwrap_or_else(|| usage()));
            }
            "--jobs" => {
                let v = it.next().unwrap_or_else(|| usage());
                let n: usize = v.parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                jobs = Some(n);
            }
            "--cache" => cache = true,
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            "--metrics" => metrics = Some(None),
            t if t.starts_with("--metrics=") => {
                let p = &t["--metrics=".len()..];
                if p.is_empty() {
                    usage();
                }
                metrics = Some(Some(PathBuf::from(p)));
            }
            "--help" | "-h" => usage(),
            t if t.starts_with('-') => usage(),
            t if is_target(t) => {
                targets.insert(t.to_string());
            }
            t => {
                eprintln!("error: unknown target {t:?}");
                usage();
            }
        }
    }
    if targets.is_empty() {
        targets.insert("all".to_string());
    }
    // `--cache` without a directory uses `<out>/cache`; the env var is the
    // no-flag way to point several runs at one shared cache.
    if cache_dir.is_none() {
        if let Ok(dir) = std::env::var("REDHIP_SWEEP_CACHE") {
            if !dir.trim().is_empty() {
                cache_dir = Some(PathBuf::from(dir));
            }
        }
    }
    if cache && cache_dir.is_none() {
        cache_dir = Some(out.join("cache"));
    }
    let metrics = metrics.map(|p| p.unwrap_or_else(|| out.join("metrics.jsonl")));
    Args {
        targets,
        scale,
        refs,
        out,
        jobs,
        cache_dir,
        metrics,
    }
}

fn wants(args: &Args, name: &str, group: &str) -> bool {
    args.targets.contains("all") || args.targets.contains(name) || args.targets.contains(group)
}

/// Names `path` in an I/O error, so the report says which file failed.
fn at(path: &Path) -> impl FnOnce(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

fn emit(args: &Args, manifest: &metrics::RunManifest, f: &FigureOutput) -> io::Result<()> {
    println!("{}", f.text);
    std::fs::create_dir_all(&args.out).map_err(at(&args.out))?;
    let log_path = args.log_path();
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log_path)
        .map_err(at(&log_path))?;
    writeln!(log, "{}", f.text).map_err(at(&log_path))?;
    let path = args.out.join(format!("{}.json", f.name));
    // Object-shaped figures carry the run manifest (deterministic identity
    // fields only: results directories are byte-compared across --jobs);
    // array-shaped ones (fig1's static data) are written as-is.
    let doc = match &f.json {
        minijson::Json::Obj(_) => {
            let mut d = f.json.clone();
            d.set("manifest", manifest.to_json());
            d
        }
        other => other.clone(),
    };
    std::fs::write(&path, doc.pretty()).map_err(at(&path))?;
    eprintln!("[figures] wrote {}", path.display());
    Ok(())
}

/// The figure-set run manifest: one deterministic identity record for the
/// whole invocation (per-cell manifests live in the result cache entries).
fn run_manifest(args: &Args, settings: &Settings, plan: &SweepPlan) -> metrics::RunManifest {
    let targets: Vec<&str> = args.targets.iter().map(String::as_str).collect();
    let workload = format!("figures:{}", targets.join("+"));
    // Fold the planned cells' content hashes in plan order, so the hash
    // pins exactly what this invocation simulates.
    let config_hash = plan
        .cells()
        .iter()
        .fold(sweep::cell::fnv1a64(workload.as_bytes()), |h, c| {
            h.rotate_left(7) ^ c.content_hash()
        });
    metrics::RunManifest {
        mechanism: "sweep".to_string(),
        predictor_spec: "sweep".to_string(),
        workload,
        seed: format!("synth(core,{:?}):refs={}", args.scale, settings.refs),
        config_hash,
    }
}

fn main() {
    let args = parse_args();
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let settings = Settings::new(args.scale, args.refs);
    let jobs = args.jobs.unwrap_or_else(default_jobs);
    // Fresh log per run; `emit` appends each figure as it lands.
    std::fs::create_dir_all(&args.out).map_err(at(&args.out))?;
    let log_path = args.log_path();
    std::fs::write(&log_path, "").map_err(at(&log_path))?;
    eprintln!(
        "[figures] scale={:?} refs/core={} workloads={} jobs={} targets={:?}",
        args.scale,
        settings.refs,
        settings.workloads.len(),
        jobs,
        args.targets
    );
    let t0 = std::time::Instant::now();
    if args.metrics.is_some() {
        metrics::enable();
    }

    // Phase 1: enumerate every requested figure's cells into one plan.
    // Cells shared across figures dedupe here and are simulated once.
    let plan_span = metrics::PHASE_PLAN.start();
    let mut plan = SweepPlan::new();
    let need_matrix = MATRIX_FIGURES.iter().any(|n| wants(args, n, "core"));
    let matrix_plan = need_matrix.then(|| figures::plan_matrix(&settings, &mut plan));
    let shootout_plan =
        wants(args, "shootout", "shootout").then(|| figures::plan_shootout(&settings, &mut plan));
    let studies: Vec<StudyPlan> = STUDIES
        .iter()
        .filter(|&&(name, group, _)| wants(args, name, group))
        .map(|&(_, _, planner)| planner(&settings, &mut plan))
        .collect();
    drop(plan_span);
    let manifest = run_manifest(args, &settings, &plan);

    if wants(args, "table1", "core") {
        emit(args, &manifest, &figures::table1(args.scale))?;
    }
    if wants(args, "fig1", "core") {
        emit(
            args,
            &manifest,
            &FigureOutput {
                name: "fig1",
                title: "Cache sizes by year".into(),
                text: figdata::render_figure1(),
                json: minijson::Json::Arr(
                    figdata::FIGURE1
                        .iter()
                        .map(|p| minijson::json!({"year": p.year, "level": p.level, "kb": p.kb}))
                        .collect(),
                ),
            },
        )?;
    }

    // Phase 2: one engine, one run over the whole deduplicated job graph.
    let mut engine = SweepEngine::new(jobs);
    if let Some(dir) = &args.cache_dir {
        eprintln!("[figures] result cache: {}", dir.display());
        engine = engine.with_cache(ResultCache::with_disk(dir.clone()));
    }
    eprintln!(
        "[figures] planned {} unique cells ({} deduped away)",
        plan.len(),
        plan.dedup_hits()
    );
    let res = engine.run(&plan, "[figures] sweep")?;

    // Phase 3: render and emit in report order.
    let render_span = metrics::PHASE_RENDER.start();
    if let Some(mp) = &matrix_plan {
        let m = figures::matrix_from(&settings, mp, &res);
        let renderers: [fn(&figures::Matrix) -> FigureOutput; 5] = [
            figures::fig6,
            figures::fig7,
            figures::fig8,
            figures::fig9,
            figures::fig10,
        ];
        for (name, render) in MATRIX_FIGURES.iter().zip(renderers) {
            if wants(args, name, "core") {
                emit(args, &manifest, &render(&m))?;
            }
        }
    }
    if let Some(sp) = &shootout_plan {
        let m = figures::matrix_from(&settings, sp, &res);
        emit(args, &manifest, &figures::shootout(&m))?;
    }
    for study in &studies {
        emit(args, &manifest, &study.render(&res))?;
    }
    drop(render_span);
    eprintln!("[figures] {}", res.stats.summary());
    eprintln!("[figures] done in {:?}", t0.elapsed());

    if let Some(path) = &args.metrics {
        let mut out = metrics::snapshot_jsonl();
        out.push_str(&manifest.to_json_with_phases().dump());
        out.push('\n');
        std::fs::write(path, out).map_err(at(path))?;
        eprintln!(
            "[figures] wrote {} (metrics snapshot + run manifest)",
            path.display()
        );
    }
    Ok(())
}
