//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures [TARGETS...] [--scale smoke|demo|paper] [--refs N] [--out DIR]
//!         [--jobs N] [--cache] [--cache-dir DIR]
//!         [--metrics[=FILE]]
//!
//! TARGETS: all (default) | table1 | fig1 | fig6..fig15 | core (fig6-10)
//!          | sweeps (fig11-13) | prefetch (fig14-15) | ablations
//!          | shootout (every non-Base mechanism incl. the registry
//!            contenders: speedup + normalized dynamic energy)
//! ```
//!
//! Every requested figure's cells are enumerated into ONE deduplicated job
//! graph and run on the work-stealing sweep engine, so a cell shared by
//! several figures (e.g. the Base runs of Figures 6–12) is simulated
//! exactly once. `--jobs N` (or `REDHIP_JOBS`) sets the worker count;
//! output is byte-identical regardless. `--cache` memoizes results on disk
//! under `DIR/cache/` so re-runs skip finished cells.
//!
//! Text renders to stdout and is mirrored to `DIR/figures.log`;
//! structured results land in `DIR/<name>.json` (default `results/`) —
//! no shell redirection into the repo root needed.

use bench::figures::{self, FigureOutput, Settings};
use bench::harness::FigureScale;
use bench::{ablate, figdata};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::PathBuf;
use sweep::{default_jobs, ResultCache, SweepEngine, SweepPlan};

fn usage() -> ! {
    eprintln!(
        "usage: figures [all|core|sweeps|prefetch|ablations|shootout|table1|fig1|fig6..fig15]... \
         [--scale smoke|demo|paper] [--refs N] [--out DIR] [--jobs N] \
         [--cache] [--cache-dir DIR] [--metrics[=FILE]]"
    );
    std::process::exit(2);
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
            t => {
                targets.insert(t.to_string());
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

fn emit(args: &Args, manifest: &metrics::RunManifest, f: &FigureOutput) {
    println!("{}", f.text);
    std::fs::create_dir_all(&args.out).expect("create results dir");
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(args.log_path())
        .expect("open figures.log");
    writeln!(log, "{}", f.text).expect("append figures.log");
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
    let mut file = std::fs::File::create(&path).expect("create json");
    file.write_all(doc.pretty().as_bytes()).expect("write json");
    eprintln!("[figures] wrote {}", path.display());
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
    let settings = Settings::new(args.scale, args.refs);
    let jobs = args.jobs.unwrap_or_else(default_jobs);
    // Fresh log per run; `emit` appends each figure as it lands.
    std::fs::create_dir_all(&args.out).expect("create results dir");
    std::fs::write(args.log_path(), "").expect("truncate figures.log");
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
    let need_matrix = ["fig6", "fig7", "fig8", "fig9", "fig10"]
        .iter()
        .any(|n| wants(&args, n, "core"));
    let matrix_plan = need_matrix.then(|| figures::plan_matrix(&settings, &mut plan));
    let shootout_plan =
        wants(&args, "shootout", "shootout").then(|| figures::plan_shootout(&settings, &mut plan));
    let p11 = wants(&args, "fig11", "sweeps").then(|| figures::plan_fig11(&settings, &mut plan));
    let p12 = wants(&args, "fig12", "sweeps").then(|| figures::plan_fig12(&settings, &mut plan));
    let p13 = wants(&args, "fig13", "sweeps").then(|| figures::plan_fig13(&settings, &mut plan));
    let p1415 = (wants(&args, "fig14", "prefetch") || wants(&args, "fig15", "prefetch"))
        .then(|| figures::plan_fig14_15(&settings, &mut plan));
    let want_ablations = args.targets.contains("ablations") || args.targets.contains("all");
    let ablation_settings = {
        let mut s = settings.clone();
        s.workloads = ablate::ablation_workloads();
        s
    };
    let ablation_plan = want_ablations.then(|| ablate::plan_all(&ablation_settings, &mut plan));
    drop(plan_span);
    let manifest = run_manifest(&args, &settings, &plan);

    if wants(&args, "table1", "core") {
        emit(&args, &manifest, &figures::table1(args.scale));
    }
    if wants(&args, "fig1", "core") {
        emit(
            &args,
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
        );
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
    let res = match engine.run(&plan, "[figures] sweep") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[figures] {e}");
            std::process::exit(1);
        }
    };

    // Phase 3: render and emit in report order.
    let render_span = metrics::PHASE_RENDER.start();
    if let Some(mp) = &matrix_plan {
        let m = figures::matrix_from(&settings, mp, &res);
        if wants(&args, "fig6", "core") {
            emit(&args, &manifest, &figures::fig6(&m));
        }
        if wants(&args, "fig7", "core") {
            emit(&args, &manifest, &figures::fig7(&m));
        }
        if wants(&args, "fig8", "core") {
            emit(&args, &manifest, &figures::fig8(&m));
        }
        if wants(&args, "fig9", "core") {
            emit(&args, &manifest, &figures::fig9(&m));
        }
        if wants(&args, "fig10", "core") {
            emit(&args, &manifest, &figures::fig10(&m));
        }
    }
    if let Some(sp) = &shootout_plan {
        let m = figures::matrix_from(&settings, sp, &res);
        emit(&args, &manifest, &figures::shootout(&m));
    }
    if let Some(p) = &p11 {
        emit(&args, &manifest, &figures::fig11_from(&settings, p, &res));
    }
    if let Some(p) = &p12 {
        emit(&args, &manifest, &figures::fig12_from(&settings, p, &res));
    }
    if let Some(p) = &p13 {
        emit(&args, &manifest, &figures::fig13_from(&settings, p, &res));
    }
    if let Some(p) = &p1415 {
        let (f14, f15) = figures::fig14_15_from(&settings, p, &res);
        if wants(&args, "fig14", "prefetch") {
            emit(&args, &manifest, &f14);
        }
        if wants(&args, "fig15", "prefetch") {
            emit(&args, &manifest, &f15);
        }
    }
    if let Some(p) = &ablation_plan {
        for f in ablate::all_from(&ablation_settings, p, &res) {
            emit(&args, &manifest, &f);
        }
    }
    drop(render_span);
    eprintln!("[figures] {}", res.stats.summary());
    eprintln!("[figures] done in {:?}", t0.elapsed());

    if let Some(path) = &args.metrics {
        let mut out = metrics::snapshot_jsonl();
        out.push_str(&manifest.to_json_with_phases().dump());
        out.push('\n');
        std::fs::write(path, out).expect("write metrics");
        eprintln!(
            "[figures] wrote {} (metrics snapshot + run manifest)",
            path.display()
        );
    }
}
