//! The repository's benchmark: one command, two workloads, every metric
//! by name with its unit, and a correctness gate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload walk-demo --seed 0 --seconds 50 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod common;
mod host;
mod layers;
mod replay_v2;
mod stats;
mod sweep_smoke;
mod tracer;
mod walk_demo;

use common::Report;
use stats::median;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [&str; 2] = ["walk-demo", "replay-v2"];

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload '{value}' (one of {WORKLOADS:?})"));
                }
                workload = Some(value);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .ok()
                    .filter(|&s: &u64| s < (1 << 32))
                    .ok_or("--seed takes an integer below 2^32")?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s > 0.0 && s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn walk_demo_e2e(a: &Args) -> Report {
    let mut report = Report::default();
    let (w, setup_s) = walk_demo::setup(a.seed);
    let mut setup_secs = vec![setup_s];
    let rounds = w.rounds(a.seed, a.seconds, None, &mut report, &mut setup_secs);
    w.check_generator_path(a.seed, &rounds, &mut report);
    let cmp = w.comparisons(&rounds);
    report.metric("refs_per_s", rounds.rate(false), "1/s");
    report.metric("setup_s", median(&setup_secs), "s");
    report.metric("peak_rss_mb", median(&rounds.peak_mb), "MB");
    redhip_metrics(&mut report, &cmp);
    report
}

fn replay_v2_e2e(a: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (rp, setup_s) = replay_v2::setup(a.seed)?;
    let mut setup_secs = vec![setup_s];
    let rounds = rp.rounds(a.seed, a.seconds, None, &mut report, &mut setup_secs);
    rp.check_in_memory(&rounds, &mut report);
    report.metric("refs_per_s", rounds.rate(false), "1/s");
    report.metric("setup_s", median(&setup_secs), "s");
    report.metric("peak_rss_mb", median(&rounds.peak_mb), "MB");
    redhip_metrics(
        &mut report,
        &[sim::Comparison::new(&rounds.first[0], &rounds.first[1])],
    );
    Ok(report)
}

/// Reports the geometric means over benchmarks of ReDHiP's speedup ratio
/// and dynamic-energy ratio against Base (simulated).
fn redhip_metrics(report: &mut Report, cmp: &[sim::Comparison]) {
    let (speedup, dynamic) = stats::redhip_geomeans(cmp);
    report.metric("redhip_speedup", speedup, "ratio");
    report.metric("redhip_dyn_energy_ratio", dynamic, "ratio");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <walk-demo|replay-v2> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let cpu0 = host::cpu_times();
    let run = match (args.trace, args.workload.as_str()) {
        (true, w) => layers::traced(w, args.seed, args.seconds),
        (false, "walk-demo") => Ok(walk_demo_e2e(&args)),
        (false, _) => replay_v2_e2e(&args),
    };
    let report = run.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} could not be measured ({})", m.name, m.value);
        std::process::exit(1);
    }
    let steal = host::steal_frac(cpu0, host::cpu_times());
    for (k, v) in host::identity() {
        println!("# {k}: {v}");
    }
    println!("# host.steal_frac: {steal:.4}");
    for m in &report.metrics {
        println!(
            "{:<28} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                minijson::Json::from(m.name.as_str()).dump(),
                m.value,
                minijson::Json::from(m.unit).dump()
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
