//! Golden differential tests for the simulator hot path.
//!
//! Every mechanism × three synthetic workloads at fixed seeds, snapshotted
//! as full `RunResult` JSON (cycles, energy breakdown, per-level hit rates,
//! predictor counters) under `tests/golden/`. The snapshots were taken from
//! the pre-optimization simulator; the optimized hot path must reproduce
//! each one **byte-identically** — any drift in replacement decisions,
//! float accumulation order, interleaving, or counter bookkeeping fails
//! here before it can silently skew a figure.
//!
//! Regenerate (only when an *intentional* semantic change is made, with a
//! PR note explaining why):
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test golden_diff
//! ```

use energy_model::presets::demo_scale;
use mem_trace::synth::{PointerChase, Region, SequentialStream, ZipfOverRecords};
use minijson::ToJson;
use sim::{run_traces, CoreTrace, Mechanism, SimConfig};
use std::path::PathBuf;

const MECHANISMS: [Mechanism; 8] = [
    Mechanism::Base,
    Mechanism::Phased,
    Mechanism::Cbf,
    Mechanism::Redhip,
    Mechanism::Oracle,
    Mechanism::LevelPred,
    Mechanism::Perceptron,
    Mechanism::WayMemo,
];

const WORKLOADS: [&str; 3] = ["stream", "zipf", "chase"];

/// Cores in the golden configuration (kept small so the suite stays fast in
/// debug builds while still covering multi-core interleaving).
const CORES: usize = 2;
const REFS_PER_CORE: usize = 12_000;
const RECALIB_PERIOD: u64 = 1_500;

/// One synthetic per-core trace at a fixed seed. The three workloads cover
/// the regimes that stress different hot-path branches: a mostly-L1-hitting
/// sequential stream, a Zipf-skewed mix with heavy LLC traffic, and a
/// serially-dependent pointer chase sized between L2 and LLC.
fn trace(workload: &str, core: usize) -> CoreTrace {
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
    platform.cores = CORES;
    let mut cfg = SimConfig::new(platform, mechanism);
    cfg.refs_per_core = REFS_PER_CORE;
    cfg.recalib_period = Some(RECALIB_PERIOD);
    cfg
}

fn run_one(workload: &str, mechanism: Mechanism) -> String {
    let cfg = golden_config(mechanism);
    let traces = (0..CORES).map(|c| trace(workload, c)).collect();
    let result = run_traces(&cfg, traces);
    let mut text = result.to_json().pretty();
    text.push('\n');
    text
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Points at the first differing line so a golden failure is diagnosable
/// without an external diff tool.
fn first_diff(want: &str, got: &str) -> String {
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return format!(
                "first difference at line {}:\n  golden: {w}\n  got   : {g}",
                i + 1
            );
        }
    }
    format!(
        "line count differs: golden {} vs got {}",
        want.lines().count(),
        got.lines().count()
    )
}

#[test]
fn golden_run_results_are_reproduced_byte_identically() {
    let regen = std::env::var_os("REGEN_GOLDEN").is_some();
    let dir = golden_dir();
    if regen {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    for workload in WORKLOADS {
        for mechanism in MECHANISMS {
            let name = format!("{workload}_{}.json", mechanism.name());
            let path = dir.join(&name);
            let got = run_one(workload, mechanism);
            if regen {
                std::fs::write(&path, &got).expect("write golden");
                eprintln!("regenerated {name}");
                continue;
            }
            let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden {name} ({e}); run REGEN_GOLDEN=1 cargo test --test golden_diff"
                )
            });
            assert!(
                want == got,
                "golden mismatch for {name}: {}",
                first_diff(&want, &got)
            );
        }
    }
}

/// The snapshots themselves must stay meaningful: valid JSON carrying the
/// fields the differential assertion is advertised to pin.
#[test]
fn golden_snapshots_are_complete_run_results() {
    for workload in WORKLOADS {
        for mechanism in MECHANISMS {
            let name = format!("{workload}_{}.json", mechanism.name());
            let text = std::fs::read_to_string(golden_dir().join(&name))
                .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
            let doc = minijson::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(doc.u64_of("cycles").unwrap() > 0, "{name}: zero cycles");
            let refs: u64 = doc
                .arr_of("refs_per_core")
                .unwrap()
                .iter()
                .map(|v| v.as_u64().unwrap())
                .sum();
            assert_eq!(refs, (CORES * REFS_PER_CORE) as u64, "{name}: truncated");
            for key in ["energy", "hierarchy", "prediction", "prefetch"] {
                assert!(doc.get(key).is_some(), "{name}: missing {key}");
            }
            // Predictor mechanisms must actually exercise the predictor in
            // their goldens, or the differential test pins nothing.
            if mechanism.has_predictor() || mechanism == Mechanism::Oracle {
                assert!(
                    doc.get("prediction").unwrap().u64_of("lookups").unwrap() > 0,
                    "{name}: predictor never consulted"
                );
            }
        }
    }
}
