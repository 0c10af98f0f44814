//! Simulator-throughput baselines: measured refs/s per mechanism, persisted
//! as JSON so the repo carries a bench trajectory across PRs.
//!
//! `redhip-sim --bench-json FILE` writes one snapshot (see [`measure`]);
//! committed snapshots (`BENCH_baseline.json`, `BENCH_pr5.json`, ...) pin
//! the numbers a PR claims. `redhip-sim --bench-compare OLD NEW` renders the
//! ratio table between two snapshots (see [`compare`]).
//!
//! The measured configuration mirrors `benches/sim_throughput.rs`: the
//! demo-scale platform, 8 cores, smoke-scale traces of one benchmark, and
//! every registered mechanism. Wall-clock includes trace generation
//! (~3 ns/ref, i.e. noise next to the simulator itself).

use minijson::{json, Json};
use sim::{run_traces, CoreTrace, Mechanism, SimConfig};
use std::time::Instant;
use sweep::{SweepEngine, SweepPlan};
use workloads::{Benchmark, Scale};

/// Schema tag written into every snapshot.
pub const SCHEMA: &str = "redhip-bench/v1";

/// The mechanisms measured, in report order: the paper's five followed by
/// the registry contenders. `--bench-compare` tolerates snapshots recorded
/// before a mechanism existed (rows are joined by name).
pub const MECHANISMS: [Mechanism; 8] = [
    Mechanism::Base,
    Mechanism::Redhip,
    Mechanism::Cbf,
    Mechanism::Phased,
    Mechanism::Oracle,
    Mechanism::LevelPred,
    Mechanism::Perceptron,
    Mechanism::WayMemo,
];

/// Knobs for one measurement.
#[derive(Debug, Clone, Copy)]
pub struct BenchOptions {
    /// References per core per run (the sim_throughput default is 5000).
    pub refs_per_core: usize,
    /// Timed runs per mechanism; the fastest is reported. 1 = smoke mode.
    pub samples: usize,
    /// Workload generating the trace.
    pub benchmark: Benchmark,
    /// Worker threads for the sweep-level aggregate measurement.
    pub jobs: usize,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            refs_per_core: 5_000,
            samples: 3,
            benchmark: Benchmark::Mcf,
            jobs: sweep::default_jobs(),
        }
    }
}

fn config(mechanism: Mechanism, refs_per_core: usize) -> SimConfig {
    let mut cfg = SimConfig::new(energy_model::presets::demo_scale(), mechanism);
    cfg.refs_per_core = refs_per_core;
    cfg.recalib_period = Some(8_192);
    cfg
}

/// Measures refs/s for every mechanism and returns the snapshot document.
pub fn measure(opts: &BenchOptions) -> Json {
    let cores = config(Mechanism::Base, opts.refs_per_core).platform.cores;
    let total_refs = (opts.refs_per_core * cores) as u64;
    let mut results = Vec::new();
    for mech in MECHANISMS {
        let cfg = config(mech, opts.refs_per_core);
        let mut best = f64::INFINITY;
        for _ in 0..opts.samples.max(1) {
            let traces: Vec<CoreTrace> = (0..cores)
                .map(|c| opts.benchmark.trace(c, Scale::Smoke))
                .collect();
            let start = Instant::now();
            let r = run_traces(&cfg, traces);
            let took = start.elapsed().as_secs_f64();
            assert_eq!(r.total_refs(), total_refs, "run was truncated");
            best = best.min(took);
        }
        results.push(json!({
            "mechanism": mech.name(),
            "ns_per_run": best * 1e9,
            "refs_per_sec": total_refs as f64 / best,
        }));
    }
    // Sweep-level aggregate: all five mechanisms as one deduplicated job
    // graph on the work-stealing engine. A fresh engine per sample keeps
    // the memoizing cache from short-circuiting the later samples.
    let jobs = opts.jobs.max(1);
    let mut best_sweep = f64::INFINITY;
    for _ in 0..opts.samples.max(1) {
        let mut plan = SweepPlan::new();
        for mech in MECHANISMS {
            plan.cell(
                &config(mech, opts.refs_per_core),
                opts.benchmark,
                Scale::Smoke,
            );
        }
        let engine = SweepEngine::new(jobs).quiet();
        let start = Instant::now();
        let r = engine.run(&plan, "[bench] sweep").expect("sweep run");
        let took = start.elapsed().as_secs_f64();
        assert_eq!(r.stats.simulated, MECHANISMS.len() as u64, "cells skipped");
        best_sweep = best_sweep.min(took);
    }
    let sweep_refs = total_refs * MECHANISMS.len() as u64;

    // Trace-ingestion aggregate (PR 7+): record the measured workload's
    // per-core streams round-robin into a v2 temp file, then time (a) a
    // full chunk decode and (b) an end-to-end streaming replay under
    // ReDHiP. Decode must run far ahead of replay for the streaming
    // pipeline to be simulator-bound.
    let trace = {
        use mem_trace::{ShardSpec, StreamTrace};
        use sim::{run_feeds, CoreFeed};
        let path =
            std::env::temp_dir().join(format!("redhip-bench-trace-{}.trace", std::process::id()));
        {
            let mut streams: Vec<_> = (0..cores)
                .map(|c| opts.benchmark.trace(c, Scale::Smoke))
                .collect();
            let interleaved =
                (0..total_refs).map(|i| streams[i as usize % cores].next().expect("infinite"));
            mem_trace::stream::write_v2_file(&path, interleaved, 1 << 14).expect("write trace");
        }
        let stream = StreamTrace::open(&path).expect("open trace");
        let info = stream.info();
        let mut best_decode = f64::INFINITY;
        for _ in 0..opts.samples.max(1) {
            let start = Instant::now();
            let mut acc = 0u64;
            for r in stream.clone() {
                acc ^= r.addr;
            }
            std::hint::black_box(acc);
            best_decode = best_decode.min(start.elapsed().as_secs_f64());
        }
        let cfg = config(Mechanism::Redhip, opts.refs_per_core);
        let mut best_replay = f64::INFINITY;
        for _ in 0..opts.samples.max(1) {
            let feeds: Vec<CoreFeed> = (0..cores)
                .map(|i| {
                    Box::new(stream.shard(ShardSpec::Interleave {
                        shards: cores as u32,
                        index: i as u32,
                    })) as CoreFeed
                })
                .collect();
            let start = Instant::now();
            let r = run_feeds(&cfg, feeds);
            let took = start.elapsed().as_secs_f64();
            assert_eq!(r.total_refs(), total_refs, "replay was truncated");
            best_replay = best_replay.min(took);
        }
        let _ = std::fs::remove_file(&path);
        json!({
            "records": info.total_records,
            "file_bytes": info.file_bytes,
            "decode_records_per_sec": info.total_records as f64 / best_decode,
            "decode_gb_per_sec": info.file_bytes as f64 / 1e9 / best_decode,
            "replay_refs_per_sec": total_refs as f64 / best_replay,
        })
    };

    json!({
        "schema": SCHEMA,
        "benchmark": opts.benchmark.to_string(),
        "scale": "smoke",
        "refs_per_core": opts.refs_per_core as u64,
        "cores": cores as u64,
        "total_refs": total_refs,
        "samples": opts.samples as u64,
        "results": Json::Arr(results),
        "sweep": json!({
            "jobs": jobs as u64,
            "cells": MECHANISMS.len() as u64,
            "total_refs": sweep_refs,
            "ns_per_run": best_sweep * 1e9,
            "refs_per_sec": sweep_refs as f64 / best_sweep,
        }),
        "trace": trace,
    })
}

/// Aggregate sweep throughput of a snapshot, if recorded (PR 6+).
fn sweep_refs_per_sec(doc: &Json) -> Option<f64> {
    doc.get("sweep")?.f64_of("refs_per_sec").ok()
}

/// A metric from the trace-ingestion section, if recorded (PR 7+).
fn trace_metric(doc: &Json, key: &str) -> Option<f64> {
    doc.get("trace")?.f64_of(key).ok()
}

fn refs_per_sec(doc: &Json, mechanism: &str) -> Option<f64> {
    doc.get("results")?
        .as_array()?
        .iter()
        .find(|r| r.get("mechanism").and_then(Json::as_str) == Some(mechanism))?
        .f64_of("refs_per_sec")
        .ok()
}

/// Renders one snapshot as an aligned refs/s table.
pub fn render(doc: &Json) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{:<10} {:>14}", "mechanism", "refs/s");
    for mech in MECHANISMS {
        if let Some(rps) = refs_per_sec(doc, mech.name()) {
            let _ = writeln!(out, "{:<10} {rps:>14.0}", mech.name());
        }
    }
    if let Some(rps) = sweep_refs_per_sec(doc) {
        let jobs = doc
            .get("sweep")
            .and_then(|s| s.get("jobs"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let _ = writeln!(out, "{:<10} {rps:>14.0}  ({jobs} job(s))", "sweep");
    }
    if let Some(rps) = trace_metric(doc, "replay_refs_per_sec") {
        let gbs = trace_metric(doc, "decode_gb_per_sec").unwrap_or(0.0);
        let drps = trace_metric(doc, "decode_records_per_sec").unwrap_or(0.0);
        let _ = writeln!(out, "{:<10} {drps:>14.0}  ({gbs:.2} GB/s)", "decode");
        let _ = writeln!(out, "{:<10} {rps:>14.0}", "replay");
    }
    out
}

/// Renders the mechanism-by-mechanism ratio table `new / old` between two
/// snapshot documents, ending with the geometric-mean speedup line.
pub fn compare(old: &Json, new: &Json) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>8}",
        "mechanism", "old refs/s", "new refs/s", "ratio"
    );
    let mut log_sum = 0.0;
    let mut n = 0u32;
    for mech in MECHANISMS {
        let (Some(a), Some(b)) = (
            refs_per_sec(old, mech.name()),
            refs_per_sec(new, mech.name()),
        ) else {
            let _ = writeln!(out, "{:<10} (missing from one snapshot)", mech.name());
            continue;
        };
        let ratio = b / a;
        log_sum += ratio.ln();
        n += 1;
        let _ = writeln!(out, "{:<10} {a:>14.0} {b:>14.0} {ratio:>7.2}x", mech.name());
    }
    // The sweep aggregate is informational (absent from pre-PR6 snapshots)
    // and excluded from the geomean, which stays per-mechanism.
    match (sweep_refs_per_sec(old), sweep_refs_per_sec(new)) {
        (Some(a), Some(b)) => {
            let _ = writeln!(out, "{:<10} {a:>14.0} {b:>14.0} {:>7.2}x", "sweep", b / a);
        }
        (None, Some(b)) => {
            let _ = writeln!(out, "{:<10} {:>14} {b:>14.0}", "sweep", "-");
        }
        _ => {}
    }
    // Trace-ingestion rows likewise (absent from pre-PR7 snapshots).
    for (label, key) in [
        ("decode", "decode_records_per_sec"),
        ("replay", "replay_refs_per_sec"),
    ] {
        match (trace_metric(old, key), trace_metric(new, key)) {
            (Some(a), Some(b)) => {
                let _ = writeln!(out, "{label:<10} {a:>14.0} {b:>14.0} {:>7.2}x", b / a);
            }
            (None, Some(b)) => {
                let _ = writeln!(out, "{label:<10} {:>14} {b:>14.0}", "-");
            }
            _ => {}
        }
    }
    if n > 0 {
        let _ = writeln!(out, "geomean speedup: {:.2}x", (log_sum / n as f64).exp());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Json {
        measure(&BenchOptions {
            refs_per_core: 200,
            samples: 1,
            benchmark: Benchmark::Mcf,
            jobs: 2,
        })
    }

    #[test]
    fn snapshot_has_schema_and_all_mechanisms() {
        let doc = tiny();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(
            doc.get("results").and_then(Json::as_array).unwrap().len(),
            MECHANISMS.len()
        );
        for mech in MECHANISMS {
            let rps = refs_per_sec(&doc, mech.name()).expect("mechanism present");
            assert!(rps > 0.0, "{}: nonpositive refs/s", mech.name());
        }
        // The document round-trips through text (what --bench-json writes).
        let text = doc.pretty();
        let parsed = minijson::parse(&text).expect("valid JSON");
        assert_eq!(refs_per_sec(&parsed, "Base"), refs_per_sec(&doc, "Base"));
    }

    #[test]
    fn snapshot_records_sweep_aggregate() {
        let doc = tiny();
        let rps = sweep_refs_per_sec(&doc).expect("sweep section present");
        assert!(rps > 0.0);
        assert_eq!(
            doc.get("sweep")
                .and_then(|s| s.get("cells"))
                .and_then(Json::as_u64),
            Some(MECHANISMS.len() as u64)
        );
        assert!(render(&doc).contains("sweep"));
    }

    #[test]
    fn snapshot_records_trace_ingestion() {
        let doc = tiny();
        let decode = trace_metric(&doc, "decode_records_per_sec").expect("trace section");
        let replay = trace_metric(&doc, "replay_refs_per_sec").expect("trace section");
        assert!(decode > 0.0 && replay > 0.0);
        // Decode must outrun replay for streaming to be simulator-bound.
        assert!(decode > replay, "decode {decode} <= replay {replay}");
        let table = render(&doc);
        assert!(
            table.contains("decode") && table.contains("replay"),
            "{table}"
        );
    }

    #[test]
    fn compare_tolerates_missing_trace_section() {
        let new = tiny();
        let mut old = new.clone();
        old.set("trace", Json::Null);
        let table = compare(&old, &new);
        assert!(table.contains("geomean speedup: 1.00x"), "{table}");
        assert!(table.contains("replay"), "{table}");
    }

    #[test]
    fn compare_tolerates_missing_sweep_section() {
        let new = tiny();
        // A pre-PR6 snapshot: same document minus the sweep section.
        let mut old = new.clone();
        old.set("sweep", Json::Null);
        let table = compare(&old, &new);
        assert!(table.contains("geomean speedup: 1.00x"), "{table}");
        assert!(table.contains("sweep"), "{table}");
    }

    #[test]
    fn compare_accepts_every_committed_snapshot() {
        // The committed snapshots span every schema addition and carry
        // sections this reader skips (`parallel`, `metrics`); each one
        // must still compare and render.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let load = |p: &std::path::Path| {
            minijson::parse(&std::fs::read_to_string(p).expect("read snapshot")).expect("parse")
        };
        let base = load(&root.join("BENCH_baseline.json"));
        let mut seen = 0;
        for entry in std::fs::read_dir(&root).expect("repo root") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let doc = load(&path);
                let table = compare(&base, &doc);
                assert!(table.contains("geomean speedup"), "{name}: {table}");
                assert!(render(&doc).contains("Base"), "{name}");
                seen += 1;
            }
        }
        assert!(seen >= 2, "no committed snapshots found");
    }

    #[test]
    fn compare_of_identical_snapshots_is_unity() {
        let doc = tiny();
        let table = compare(&doc, &doc);
        assert!(table.contains("geomean speedup: 1.00x"), "{table}");
        for mech in MECHANISMS {
            assert!(table.contains(mech.name()), "{table}");
        }
    }
}
