//! Golden differential tests for the simulator hot path.
//!
//! Every mechanism × three synthetic workloads at fixed seeds, snapshotted
//! as full `RunResult` JSON (cycles, energy breakdown, per-level hit rates,
//! predictor counters) under `tests/golden/`. The snapshots were taken from
//! the pre-optimization simulator; the optimized hot path must reproduce
//! each one **byte-identically** — any drift in replacement decisions,
//! float accumulation order, interleaving, or counter bookkeeping fails
//! here before it can silently skew a figure. Nine *arm* snapshots add the
//! configurations that matrix never reaches: the exact table (period 1),
//! the exclusive and hybrid policies, the prefetch filter, and, on a
//! shrunken LLC, the back-invalidation of LLC victims — priced, with
//! several cores owning one line, and at 32 ways.
//!
//! Regenerate (only when an *intentional* semantic change is made, with a
//! PR note explaining why):
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test golden_diff
//! ```

use cache_sim::hierarchy::InclusionPolicy;
use energy_model::presets::demo_scale;
use mem_trace::synth::{PointerChase, Region, SequentialStream, ZipfOverRecords};
use minijson::{Json, ToJson};
use prefetch::StrideConfig;
use sim::{run_traces, AccountingOptions, CoreTrace, Mechanism, SimConfig};
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
        // One stream that every core touches at the same physical
        // addresses: each core's copy is pre-XORed with that core's page
        // scramble (`core_physical` in `sim::run`, an involution), so with
        // `address_space_bit = 0` all cores share every block. One
        // reference per block, so the footprint outgrows a small LLC.
        "shared_stream" => {
            let scramble = (core as u64).wrapping_mul(0x9e37_79b9) & 0x03ff_ffff;
            Box::new(
                SequentialStream::new(Region::new(0x1000_0000, 4 << 20), 64, 0x400, 7, 2).map(
                    move |mut r| {
                        r.addr ^= scramble << 12;
                        r
                    },
                ),
            )
        }
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
    run_config(workload, &golden_config(mechanism))
}

fn run_config(workload: &str, cfg: &SimConfig) -> String {
    let traces = (0..CORES).map(|c| trace(workload, c)).collect();
    let result = run_traces(cfg, traces);
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

/// Compares `got` with the committed snapshot `name`, or rewrites the
/// snapshot when `REGEN_GOLDEN` is set.
fn check_golden(name: &str, got: &str) {
    let dir = golden_dir();
    let path = dir.join(name);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        std::fs::write(&path, got).expect("write golden");
        eprintln!("regenerated {name}");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); run REGEN_GOLDEN=1 cargo test --test golden_diff")
    });
    assert!(
        want == got,
        "golden mismatch for {name}: {}",
        first_diff(&want, got)
    );
}

#[test]
fn golden_run_results_are_reproduced_byte_identically() {
    for workload in WORKLOADS {
        for mechanism in MECHANISMS {
            let name = format!("{workload}_{}.json", mechanism.name());
            check_golden(&name, &run_one(workload, mechanism));
        }
    }
}

/// One configuration outside the matrix. Every matrix golden runs
/// inclusive, at period 1500 and without prefetch, so none of them reaches
/// the exact table (period 1), the exclusive bank or the prefetch filter;
/// each arm snapshot pins one of those paths.
struct Arm {
    /// Snapshot file stem under `tests/golden/`.
    name: &'static str,
    workload: &'static str,
    mechanism: Mechanism,
    configure: fn(&mut SimConfig),
    /// `(path, value)` entries of the snapshot that prove the arm's path
    /// ran. A path is dotted member names, with numeric segments indexing
    /// arrays: `"hierarchy.levels.3.evictions"` is the LLC's evictions.
    ran: &'static [(&'static str, u64)],
}

fn stride_prefetch(cfg: &mut SimConfig) {
    cfg.prefetch = Some(StrideConfig::default());
}

/// Shrinks the LLC to 1 MB (1024 sets × 16 ways). At the demo-scale 8 MB
/// no other golden run ever evicts an LLC line, so without this the
/// back-invalidation of the inclusive LLC would go unpinned.
fn small_llc(cfg: &mut SimConfig) {
    cfg.platform.levels.last_mut().unwrap().capacity_bytes = 1 << 20;
}

const ARMS: [Arm; 9] = [
    Arm {
        name: "zipf_ReDHiP_period1",
        workload: "zipf",
        mechanism: Mechanism::Redhip,
        configure: |cfg| cfg.recalib_period = Some(1),
        ran: &[
            ("prediction.lookups", 19_090),
            ("prediction.recalibrations", 0),
        ],
    },
    Arm {
        name: "zipf_ReDHiP_exclusive",
        workload: "zipf",
        mechanism: Mechanism::Redhip,
        configure: |cfg| cfg.policy = InclusionPolicy::Exclusive,
        ran: &[
            ("prediction.false_positives", 2_250),
            ("prediction.recalibrations", 12),
        ],
    },
    Arm {
        name: "zipf_ReDHiP_hybrid",
        workload: "zipf",
        mechanism: Mechanism::Redhip,
        configure: |cfg| cfg.policy = InclusionPolicy::Hybrid,
        ran: &[
            ("prediction.lookups", 19_062),
            ("prediction.recalibrations", 12),
        ],
    },
    Arm {
        name: "stream_ReDHiP_prefetch",
        workload: "stream",
        mechanism: Mechanism::Redhip,
        configure: stride_prefetch,
        ran: &[
            ("prefetch.issued", 23_994),
            ("prefetch.predictor_filtered", 7_924),
        ],
    },
    Arm {
        name: "stream_CBF_prefetch",
        workload: "stream",
        mechanism: Mechanism::Cbf,
        configure: stride_prefetch,
        ran: &[
            ("prefetch.issued", 23_994),
            ("prefetch.predictor_filtered", 7_924),
        ],
    },
    Arm {
        name: "stream_WayMemo_prefetch",
        workload: "stream",
        mechanism: Mechanism::WayMemo,
        configure: stride_prefetch,
        ran: &[
            ("prefetch.issued", 23_994),
            ("prefetch.predictor_filtered", 0),
        ],
    },
    Arm {
        name: "zipf_ReDHiP_charged",
        workload: "zipf",
        mechanism: Mechanism::Redhip,
        configure: |cfg| {
            small_llc(cfg);
            cfg.accounting = AccountingOptions {
                charge_fills: true,
                charge_writebacks: true,
                charge_invalidation_probes: true,
            };
        },
        ran: &[
            ("hierarchy.memory_writebacks", 352),
            ("hierarchy.levels.3.evictions", 1_195),
        ],
    },
    Arm {
        name: "shared_stream_ReDHiP_prefetch",
        workload: "shared_stream",
        mechanism: Mechanism::Redhip,
        configure: |cfg| {
            small_llc(cfg);
            stride_prefetch(cfg);
            cfg.address_space_bit = 0;
            // 24k distinct blocks, each touched by both cores, outgrow the
            // 16k-line LLC.
            cfg.refs_per_core = 2 * REFS_PER_CORE;
        },
        ran: &[
            ("prefetch.issued", 47_998),
            ("prefetch.already_resident", 2_810),
            ("hierarchy.levels.3.evictions", 28_809),
        ],
    },
    Arm {
        name: "zipf_ReDHiP_llc32way",
        workload: "zipf",
        mechanism: Mechanism::Redhip,
        configure: |cfg| {
            // 512 sets × 32 ways: the only golden LLC wider than 16 ways.
            small_llc(cfg);
            cfg.platform.levels.last_mut().unwrap().assoc = 32;
        },
        ran: &[
            ("hierarchy.memory_writebacks", 225),
            ("hierarchy.memory_fetches", 15_649),
            ("hierarchy.levels.3.evictions", 745),
        ],
    },
];

#[test]
fn golden_arm_snapshots_are_reproduced_byte_identically() {
    for arm in &ARMS {
        let mut cfg = golden_config(arm.mechanism);
        (arm.configure)(&mut cfg);
        let name = format!("{}.json", arm.name);
        let got = run_config(arm.workload, &cfg);
        check_golden(&name, &got);
        let doc = minijson::parse(&got).unwrap_or_else(|e| panic!("{name}: {e}"));
        for &(path, want) in arm.ran {
            let value = path
                .split('.')
                .try_fold(&doc, |node, key| match key.parse::<usize>() {
                    Ok(i) => node.as_array()?.get(i),
                    Err(_) => node.get(key),
                })
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{name}: no counter at {path}"));
            assert_eq!(value, want, "{name}: {path}");
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
