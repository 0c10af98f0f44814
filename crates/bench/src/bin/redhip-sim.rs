//! `redhip-sim` — run one configuration on one workload and report.
//!
//! [`USAGE`] documents the flags, and `redhip-sim --help` prints it; the
//! `trace` subcommands are documented in [`bench::tracecli::USAGE`].

use bench::harness::{mechanism_config, FigureScale};
use cache_sim::InclusionPolicy;
use minijson::ToJson;
use sim::{Comparison, Heartbeat, HeartbeatObserver, Mechanism, RunResult, Tee, WindowedCollector};
use workloads::Benchmark;

/// The usage text, printed by `--help`.
const USAGE: &str = "\
redhip-sim --benchmark mcf --mechanism redhip [options]

  --benchmark NAME     bwaves|GemsFDTD|lbm|mcf|milc|soplex|astar|
                       cactusADM|mix|pmf|blas            (required)
  --mechanism M        registry spec string (default redhip):
                       base|redhip|phased|oracle|cbf[:bits=..,hashes=..]|
                       level-pred[:conf=..,max=..,penalty=..]|
                       perceptron[:theta=..,history=..]|
                       way-memo[:entries=..,penalty=..]
  --policy P           inclusive|exclusive|hybrid        (default inclusive)
  --scale S            smoke|demo|paper                  (default demo)
  --refs N             references per core               (default per scale)
  --pt-bytes N         prediction-table size override
  --recalib N          recalibration period in L1 misses (0 = never)
  --prefetch           enable the stride prefetcher
  --compare            also run Base and print the comparison
  --json FILE          write the RunResult as JSON
  --telemetry FILE     write windowed time-series telemetry as JSONL
                       (window samples + recalibration markers)
  --window N           telemetry window width in refs per core
                       (default 100000)
  --metrics[=FILE]     enable the process metrics registry and write a
                       redhip-metrics/v1 snapshot plus the run manifest
                       (with phase timings) as JSONL (default
                       metrics.jsonl)
  --quiet              suppress the stderr heartbeat
  --help               print this text

Trace toolchain (`redhip-sim trace --help` lists the flags):

  redhip-sim trace record   record a benchmark's streams to a v2 file
  redhip-sim trace convert  v2 rechunk or lackey text -> v2
  redhip-sim trace info     print a trace file's layout and stats
  redhip-sim trace replay   stream a trace file through the simulator
";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    std::process::exit(2);
}

/// Writes `contents` to `path`, or exits 1 naming the path and the OS
/// error.
fn write_or_exit(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    // `redhip-sim trace <record|convert|info|replay> ...` dispatches to the
    // trace toolchain before the flag parser sees anything.
    {
        let mut args = std::env::args().skip(1);
        if args.next().as_deref() == Some("trace") {
            bench::tracecli::main(args.collect());
            return;
        }
    }

    let mut benchmark = None;
    let mut mechanism = sim::ParsedSpec::new(Mechanism::Redhip);
    let mut policy = InclusionPolicy::Inclusive;
    let mut scale = FigureScale::Demo;
    let mut refs: Option<usize> = None;
    let mut pt_bytes = None;
    let mut recalib: Option<Option<u64>> = None;
    let mut prefetch = false;
    let mut compare = false;
    let mut json_path: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut window: u64 = 100_000;
    let mut quiet = false;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--benchmark" | "-b" => {
                let v = next("--benchmark");
                benchmark = Some(
                    Benchmark::from_name(&v)
                        .unwrap_or_else(|| usage(&format!("unknown benchmark {v}"))),
                );
            }
            "--mechanism" | "-m" => {
                let spec = next("--mechanism").to_ascii_lowercase();
                mechanism = sim::parse_spec(&spec).unwrap_or_else(|e| usage(&e));
            }
            "--policy" | "-p" => {
                policy = match next("--policy").to_ascii_lowercase().as_str() {
                    "inclusive" => InclusionPolicy::Inclusive,
                    "exclusive" => InclusionPolicy::Exclusive,
                    "hybrid" => InclusionPolicy::Hybrid,
                    other => usage(&format!("unknown policy {other}")),
                };
            }
            "--scale" => {
                let v = next("--scale");
                scale =
                    FigureScale::parse(&v).unwrap_or_else(|| usage(&format!("unknown scale {v}")));
            }
            "--refs" => {
                refs = Some(
                    next("--refs")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --refs")),
                )
            }
            "--pt-bytes" => {
                pt_bytes = Some(
                    next("--pt-bytes")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --pt-bytes")),
                )
            }
            "--recalib" => {
                let v: u64 = next("--recalib")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --recalib"));
                recalib = Some(if v == 0 { None } else { Some(v) });
            }
            "--prefetch" => prefetch = true,
            "--compare" => compare = true,
            "--json" => json_path = Some(next("--json")),
            "--telemetry" => telemetry_path = Some(next("--telemetry")),
            "--metrics" => metrics_path = Some("metrics.jsonl".to_string()),
            other if other.starts_with("--metrics=") => {
                let p = &other["--metrics=".len()..];
                if p.is_empty() {
                    usage("--metrics= needs a path");
                }
                metrics_path = Some(p.to_string());
            }
            "--window" => {
                window = next("--window")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --window"));
                if window == 0 {
                    usage("--window must be positive");
                }
            }
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    // Enable before any simulation so phase timers cover the whole run.
    if metrics_path.is_some() {
        metrics::enable();
    }

    let benchmark = benchmark.unwrap_or_else(|| usage("--benchmark is required"));

    let refs = refs.unwrap_or_else(|| scale.default_refs());
    let mut cfg = mechanism_config(scale, mechanism.mechanism, refs);
    mechanism.apply(&mut cfg);
    let mechanism = mechanism.mechanism;
    cfg.policy = policy;
    cfg.pt_bytes = pt_bytes;
    if let Some(r) = recalib {
        cfg.recalib_period = r;
    }
    if prefetch {
        cfg.prefetch = Some(prefetch::StrideConfig::default());
    }
    if let Err(e) = cfg.validate() {
        usage(&e);
    }
    // The one cell this run simulates; its manifest is the `--metrics`
    // run manifest.
    let cell = sweep::CellSpec::new(&cfg, benchmark, scale.workload_scale());

    eprintln!(
        "[redhip-sim] {} / {} / {:?} / {:?} scale, {} refs/core ...",
        benchmark,
        mechanism.name(),
        policy,
        scale,
        refs
    );

    let total_refs = (refs * cfg.platform.cores) as u64;
    let heartbeat = || {
        let h = Heartbeat::new("[redhip-sim]", "refs", total_refs);
        HeartbeatObserver::new(if quiet { h.silent() } else { h })
    };

    // The whole run counts as the simulate phase.
    let sim_span = metrics::PHASE_SIMULATE.start();

    // Telemetry wants a collector; the heartbeat rides along either way.
    let result: RunResult = if let Some(path) = &telemetry_path {
        let collector = WindowedCollector::new(window, cfg.platform.levels.len());
        let obs = Tee::new(collector, heartbeat());
        let (result, obs) = cell.simulate_with(obs);
        write_or_exit(path, obs.a.to_jsonl());
        eprintln!(
            "[redhip-sim] wrote {path} ({} windows, {} recalibration markers)",
            obs.a.windows().count(),
            obs.a.recalibrations().count()
        );
        result
    } else if quiet {
        cell.simulate()
    } else {
        cell.simulate_with(heartbeat()).0
    };

    drop(sim_span);

    println!("=== {} under {} ===", benchmark, mechanism.name());
    print!("{}", sim::report::render(&result));

    if compare && mechanism != Mechanism::Base {
        let mut base = cell.clone();
        base.cfg.mechanism = Mechanism::Base;
        base.cfg.prefetch = None;
        let base = base.simulate();
        let c = Comparison::new(&base, &result);
        println!("\n=== vs Base ===");
        println!("speedup              : {:+.2}%", c.speedup() * 100.0);
        println!("dynamic energy ratio : {:.3}", c.dynamic_ratio());
        println!("total energy saving  : {:+.2}%", c.total_saving() * 100.0);
        println!("perf-energy metric   : {:.3}", c.perf_energy_metric());
    }

    if let Some(path) = json_path {
        write_or_exit(&path, result.to_json().pretty());
        eprintln!("[redhip-sim] wrote {path}");
    }

    if let Some(path) = metrics_path {
        let manifest = cell.manifest();
        let mut out = metrics::snapshot_jsonl();
        out.push_str(&manifest.to_json_with_phases().dump());
        out.push('\n');
        write_or_exit(&path, out);
        eprintln!("[redhip-sim] wrote {path} (metrics snapshot + run manifest)");
    }
}
