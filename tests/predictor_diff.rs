//! Differential fuzz harness over the mechanism table.
//!
//! Seeded-random configurations × synthetic workloads, checked against the
//! physics every mechanism must respect rather than against snapshots:
//!
//! * references are conserved — no mechanism drops or invents work;
//! * the state-preserving overlays (Phased, LevelPred, Perceptron,
//!   WayMemo) keep fills, per-level hits, memory fetches and writebacks
//!   identical to Base — their steer re-prices lookups, never state;
//! * Oracle's bypass accuracy bounds every predictor's from above (and
//!   its false-positive count is exactly zero);
//! * LevelPred degenerates to Base pricing when its confidence threshold
//!   can never be met and prediction overhead is uncounted.
//!
//! The PRNG is a fixed-seed splitmix64, so failures replay exactly.

use energy_model::presets::demo_scale;
use mem_trace::synth::{PointerChase, Region, SequentialStream, ZipfOverRecords};
use mem_trace::DynTrace;
use minijson::ToJson;
use sim::{apply_spec, run_traces, Mechanism, RunResult, SimConfig};

const CORES: usize = 2;
const ROUNDS: u64 = 4;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `lo..=hi`.
fn draw(state: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix(state) % (hi - lo + 1)
}

/// One synthetic per-core trace: the same three regimes the golden suite
/// covers (sequential stream, Zipf mix, pointer chase), but at fuzzed
/// seeds and footprints.
fn trace(kind: u64, seed: u64, core: usize) -> DynTrace {
    let s = seed ^ (core as u64).wrapping_mul(0x9E37_79B9);
    match kind % 3 {
        0 => Box::new(
            SequentialStream::new(Region::new(0x1000_0000, 2 << 20), 64, 0x400, 7, 2)
                .with_repeats(2 + (seed % 3) as u32),
        ),
        1 => Box::new(ZipfOverRecords::new(
            Region::new(0x2000_0000, 16 << 20),
            64,
            0.9,
            s,
            0x500,
            0.2,
            3,
        )),
        _ => Box::new(PointerChase::new(0x3000_0000, 1 << 14, 64, s, 0x600, 1)),
    }
}

fn fuzz_config(spec: &str, refs: usize, recalib: Option<u64>) -> SimConfig {
    let mut platform = demo_scale();
    platform.cores = CORES;
    let mut cfg = SimConfig::new(platform, Mechanism::Base);
    apply_spec(&mut cfg, spec).expect("fuzz spec applies");
    cfg.refs_per_core = refs;
    cfg.recalib_period = recalib;
    cfg.validate().expect("fuzz config is valid");
    cfg
}

fn run_cfg(cfg: &SimConfig, kind: u64, seed: u64) -> RunResult {
    let traces = (0..CORES).map(|c| trace(kind, seed, c)).collect();
    run_traces(cfg, traces)
}

/// `1 - false_positives/lookups`: the fraction of predictor consultations
/// that did not end in a penalized wrong call.
fn accuracy(r: &RunResult) -> f64 {
    if r.prediction.lookups == 0 {
        1.0
    } else {
        1.0 - r.prediction.false_positives as f64 / r.prediction.lookups as f64
    }
}

/// Mechanisms whose walk is exactly Base's walk (state-preserving): the
/// steer or phasing only re-prices lookups.
fn preserves_state(m: Mechanism) -> bool {
    matches!(
        m,
        Mechanism::Phased | Mechanism::LevelPred | Mechanism::Perceptron | Mechanism::WayMemo
    )
}

#[test]
fn seeded_random_configs_respect_cross_mechanism_invariants() {
    let mut rng = 0xD1FF_F00Du64;
    for round in 0..ROUNDS {
        let kind = draw(&mut rng, 0, 2);
        let seed = splitmix(&mut rng);
        let refs = draw(&mut rng, 3_000, 7_000) as usize;
        let recalib = match draw(&mut rng, 0, 2) {
            0 => None,
            _ => Some(draw(&mut rng, 400, 2_500)),
        };
        let ctx = format!("round={round} kind={kind} seed={seed:#x} refs={refs}");

        let base = run_cfg(&fuzz_config("base", refs, recalib), kind, seed);
        let oracle = run_cfg(&fuzz_config("oracle", refs, recalib), kind, seed);
        assert_eq!(
            oracle.prediction.false_positives, 0,
            "{ctx}: oracle mispredicted"
        );

        let specs = [
            "redhip".to_string(),
            "cbf".to_string(),
            "phased".to_string(),
            {
                // `validate` accepts conf ≤ max + 1 only.
                let max = draw(&mut rng, 1, 7);
                format!(
                    "level-pred:conf={},max={max},penalty={}",
                    draw(&mut rng, 1, (max + 1).min(4)),
                    draw(&mut rng, 0, 16)
                )
            },
            format!(
                "perceptron:theta={},history={}",
                draw(&mut rng, 0, 40),
                draw(&mut rng, 0, 12)
            ),
            format!(
                "way-memo:entries={},penalty={}",
                1u64 << draw(&mut rng, 4, 10),
                draw(&mut rng, 0, 4)
            ),
        ];
        for spec in &specs {
            let cfg = fuzz_config(spec, refs, recalib);
            let r = run_cfg(&cfg, kind, seed);

            // Work conservation: every core simulated exactly its target.
            assert_eq!(r.refs_per_core, base.refs_per_core, "{ctx} {spec}");

            // Oracle bounds every predictor's bypass accuracy from above.
            assert!(
                accuracy(&oracle) >= accuracy(&r) - 1e-12,
                "{ctx} {spec}: predictor beat the oracle ({} > {})",
                accuracy(&r),
                accuracy(&oracle)
            );

            if preserves_state(cfg.mechanism) {
                // The walk is Base's walk: state counters must agree
                // exactly, level by level.
                for (lvl, (b, n)) in base
                    .hierarchy
                    .levels
                    .iter()
                    .zip(r.hierarchy.levels.iter())
                    .enumerate()
                {
                    assert_eq!(n.fills, b.fills, "{ctx} {spec}: L{lvl} fills");
                    assert_eq!(n.hits, b.hits, "{ctx} {spec}: L{lvl} hits");
                    assert_eq!(n.evictions, b.evictions, "{ctx} {spec}: L{lvl} evictions");
                }
                assert_eq!(
                    r.hierarchy.memory_fetches, base.hierarchy.memory_fetches,
                    "{ctx} {spec}: memory fetches"
                );
                assert_eq!(
                    r.hierarchy.memory_writebacks, base.hierarchy.memory_writebacks,
                    "{ctx} {spec}: memory writebacks"
                );
            }
            if matches!(cfg.mechanism, Mechanism::Phased | Mechanism::WayMemo) {
                // These never steer, so even the charged lookup counts
                // match Base: the whole hierarchy block is identical.
                assert_eq!(
                    r.hierarchy.to_json().pretty(),
                    base.hierarchy.to_json().pretty(),
                    "{ctx} {spec}: hierarchy diverged from Base"
                );
            }
        }
    }
}

#[test]
fn level_pred_degenerates_to_base_when_never_confident() {
    let mut rng = 0xBA5E_CA5Eu64;
    for round in 0..ROUNDS {
        let kind = draw(&mut rng, 0, 2);
        let seed = splitmix(&mut rng);
        let refs = draw(&mut rng, 3_000, 6_000) as usize;
        let ctx = format!("round={round} kind={kind} seed={seed:#x}");

        let mut base_cfg = fuzz_config("base", refs, Some(1_500));
        base_cfg.count_prediction_overhead = false;
        let base = run_cfg(&base_cfg, kind, seed);

        // conf = max + 1 can never be met: every probe steers Walk, and
        // with prediction overhead uncounted the pricing is exactly Base's.
        let mut cfg = fuzz_config("level-pred:conf=4,max=3", refs, Some(1_500));
        cfg.count_prediction_overhead = false;
        let r = run_cfg(&cfg, kind, seed);

        assert_eq!(r.cycles, base.cycles, "{ctx}: cycles diverged");
        assert_eq!(
            r.hierarchy.to_json().pretty(),
            base.hierarchy.to_json().pretty(),
            "{ctx}: hierarchy diverged"
        );
        assert_eq!(
            r.energy.dynamic_by_level_j, base.energy.dynamic_by_level_j,
            "{ctx}: dynamic energy diverged"
        );
        // The predictor is still consulted (and still pays leakage) — only
        // its *effect* degenerates.
        assert!(r.prediction.lookups > 0, "{ctx}: predictor never probed");
    }
}
