//! Registry-level property tests: spec-string round-trips over random
//! parameters, parser error quality, and a [`PredictorImpl`] conformance
//! suite (probe purity, recalibration idempotence and order-independence
//! — mirroring `crates/redhip/tests/properties.rs`) run on every
//! registered predictor through `build_impl`.

use energy_model::presets::demo_scale;
use sim::{
    build_impl, parse_spec, spec_string, Mechanism, PredictorImpl, SimConfig, Steer, WalkOutcome,
    REGISTRY,
};

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random parameterized spec string for `mechanism` (`None` when the
/// mechanism takes no parameters).
fn random_spec(mechanism: Mechanism, st: &mut u64) -> Option<String> {
    Some(match mechanism {
        Mechanism::Cbf => format!(
            "cbf:bits={},hashes={}",
            1 + splitmix(st) % 7,
            1 + splitmix(st) % 4
        ),
        Mechanism::LevelPred => format!(
            "level-pred:conf={},max={},penalty={}",
            splitmix(st) % 9,
            1 + splitmix(st) % 8,
            splitmix(st) % 33
        ),
        Mechanism::Perceptron => format!(
            "perceptron:theta={},history={}",
            splitmix(st) % 101,
            splitmix(st) % 17
        ),
        Mechanism::WayMemo => format!(
            "way-memo:entries={},penalty={}",
            1 + splitmix(st) % 4096,
            splitmix(st) % 9
        ),
        _ => return None,
    })
}

/// Property: printing a parsed spec re-parses to the same spec, and the
/// canonical print is a fixed point (`print(parse(print(x))) == print(x)`).
#[test]
fn spec_string_round_trips_over_random_parameters() {
    let mut st = 0x5EC5_7A1Eu64;
    for info in &REGISTRY {
        for _case in 0..32 {
            let spec = match random_spec(info.mechanism, &mut st) {
                Some(s) => s,
                None => info.spec_name.to_string(),
            };
            let parsed = parse_spec(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(parsed.mechanism, info.mechanism, "{spec}");
            let mut cfg = SimConfig::new(demo_scale(), Mechanism::Base);
            parsed.apply(&mut cfg);
            let printed = spec_string(&cfg);
            let reparsed = parse_spec(&printed).unwrap_or_else(|e| panic!("{printed}: {e}"));
            assert_eq!(
                parsed, reparsed,
                "round-trip changed `{spec}` → `{printed}`"
            );
            let mut cfg2 = SimConfig::new(demo_scale(), Mechanism::Base);
            reparsed.apply(&mut cfg2);
            assert_eq!(printed, spec_string(&cfg2), "print is not a fixed point");
        }
    }
}

#[test]
fn parser_errors_name_the_alternatives() {
    let err = parse_spec("markov").unwrap_err();
    assert!(err.contains("unknown mechanism `markov`"), "{err}");
    for info in &REGISTRY {
        assert!(
            err.contains(info.spec_name),
            "{err}: missing {}",
            info.spec_name
        );
    }
    let err = parse_spec("perceptron:weights=4").unwrap_err();
    assert!(err.contains("unknown key `weights`"), "{err}");
    assert!(err.contains("theta, history"), "{err}");
    let err = parse_spec("oracle:x=1").unwrap_err();
    assert!(err.contains("takes no parameters"), "{err}");
    // Values the filter cannot be built with name the valid range.
    for (spec, range) in [
        ("cbf:bits=0", "1..=8"),
        ("cbf:bits=9", "1..=8"),
        ("cbf:hashes=0", "at least 1"),
    ] {
        let err = parse_spec(spec).unwrap_err();
        assert!(err.contains(range), "{spec}: {err}");
    }
}

/// Distinct parameterizations of the same mechanism must print distinct
/// canonical specs (the aliasing bug the run manifests guard against).
#[test]
fn distinct_parameterizations_print_distinct_specs() {
    let mut a = SimConfig::new(demo_scale(), Mechanism::LevelPred);
    let mut b = a.clone();
    a.level_pred.conf_threshold = 2;
    b.level_pred.conf_threshold = 3;
    assert_ne!(spec_string(&a), spec_string(&b));
    let a = SimConfig::new(demo_scale(), Mechanism::Perceptron);
    let mut b = a.clone();
    b.perceptron.theta += 1;
    assert_ne!(spec_string(&a), spec_string(&b));
}

// ---- PredictorImpl conformance -------------------------------------------

/// Replays a deterministic access history into `p`: probes, training
/// outcomes, LLC fill/evict events, and (for L1-observing predictors)
/// L1-hit memo traffic. Two predictors fed the same seed see the exact
/// same history. Like an inclusive LLC, the history only evicts a block
/// it filled earlier and has not evicted since.
fn replay(p: &mut dyn PredictorImpl, seed: u64, n: usize) {
    let mut st = seed;
    let mut filled: Vec<u64> = Vec::new();
    for _ in 0..n {
        let block = splitmix(&mut st) % (1 << 18);
        let core = (splitmix(&mut st) % 2) as usize;
        if p.observes_l1_hits() && splitmix(&mut st).is_multiple_of(4) {
            let _ = p.l1_hit_memoized(core, block);
            continue;
        }
        let _ = p.probe(core, block);
        let hit_level = match splitmix(&mut st) % 5 {
            0 => None,
            k => Some((k - 1) as u8),
        };
        p.train(core, block, WalkOutcome { hit_level });
        if splitmix(&mut st).is_multiple_of(3) {
            p.on_llc_fill(block);
            filled.push(block);
        }
        if splitmix(&mut st).is_multiple_of(7) && !filled.is_empty() {
            let victim = (splitmix(&mut st) % filled.len() as u64) as usize;
            p.on_llc_evict(filled.swap_remove(victim));
        }
    }
}

/// Observable fingerprint of a predictor's state: steers (and memo
/// verdicts) over a fixed probe set. The fingerprint itself may touch
/// memo state, so it is only meaningful when the compared predictors run
/// it over the same sequence — which is exactly how it is used.
fn fingerprint(p: &mut dyn PredictorImpl, seed: u64) -> Vec<(u8, bool)> {
    let mut st = seed;
    (0..512)
        .map(|_| {
            let block = splitmix(&mut st) % (1 << 18);
            let steer = match p.probe(0, block) {
                Steer::Walk => 0u8,
                Steer::OffChip => 1,
                Steer::Level(l) => 2 + l,
            };
            let memo = p.observes_l1_hits() && p.l1_hit_memoized(0, block);
            (steer, memo)
        })
        .collect()
}

fn predictor_mechanisms() -> Vec<Mechanism> {
    REGISTRY
        .iter()
        .map(|i| i.mechanism)
        .filter(|m| m.has_predictor())
        .collect()
}

fn build(mechanism: Mechanism) -> Box<dyn PredictorImpl> {
    let cfg = SimConfig::new(demo_scale(), mechanism);
    build_impl(&cfg).expect("predictor mechanism has an impl")
}

/// Construction is deterministic and training is a pure function of the
/// history: two instances fed the same history fingerprint identically.
#[test]
fn identical_histories_produce_identical_state() {
    for mechanism in predictor_mechanisms() {
        let (mut a, mut b) = (build(mechanism), build(mechanism));
        replay(a.as_mut(), 0xF00D, 4_000);
        replay(b.as_mut(), 0xF00D, 4_000);
        assert_eq!(
            fingerprint(a.as_mut(), 0x5A17),
            fingerprint(b.as_mut(), 0x5A17),
            "{mechanism:?}: same history, different state"
        );
    }
}

/// `probe` is state-pure: repeated probes of the same block return the
/// same steer, and a burst of probes does not change any later steer.
#[test]
fn probe_is_state_pure() {
    for mechanism in predictor_mechanisms() {
        let (mut a, mut b) = (build(mechanism), build(mechanism));
        replay(a.as_mut(), 0xCAFE, 4_000);
        replay(b.as_mut(), 0xCAFE, 4_000);
        let mut st = 0x9090u64;
        for _ in 0..256 {
            let block = splitmix(&mut st) % (1 << 18);
            let first = a.probe(0, block);
            for _ in 0..8 {
                assert_eq!(
                    a.probe(0, block),
                    first,
                    "{mechanism:?}: probe flip-flopped"
                );
            }
        }
        // `a` absorbed 2304 extra probes; `b` none. States must agree.
        assert_eq!(
            fingerprint(a.as_mut(), 0x7E57),
            fingerprint(b.as_mut(), 0x7E57),
            "{mechanism:?}: probing perturbed state"
        );
    }
}

/// Recalibration idempotence, phrased as an equality between copies (the
/// fingerprint itself may touch memo state, so the second recalibration
/// happens before any sampling): recalibrating twice from the same
/// resident set leaves the same state as recalibrating once.
#[test]
fn recalibration_is_idempotent_for_every_predictor() {
    let mut st = 0x1D34u64;
    for mechanism in predictor_mechanisms() {
        let resident: Vec<u64> = (0..600).map(|_| splitmix(&mut st) % (1 << 18)).collect();
        let (mut once, mut twice) = (build(mechanism), build(mechanism));
        replay(once.as_mut(), 0xBEEF, 4_000);
        replay(twice.as_mut(), 0xBEEF, 4_000);
        if !once.supports_recalibration() {
            continue;
        }
        once.recalibrate(&mut resident.iter().copied());
        twice.recalibrate(&mut resident.iter().copied());
        twice.recalibrate(&mut resident.iter().copied());
        assert_eq!(
            fingerprint(once.as_mut(), 0x1111),
            fingerprint(twice.as_mut(), 0x1111),
            "{mechanism:?}: recalibration is not idempotent"
        );
    }
}

/// Recalibration order-independence: the rebuilt state depends on the
/// resident *set*, not the sweep order the hardware happens to use.
#[test]
fn recalibration_is_order_independent_for_every_predictor() {
    let mut st = 0x0DD5u64;
    for mechanism in predictor_mechanisms() {
        let forward: Vec<u64> = (0..600).map(|_| splitmix(&mut st) % (1 << 18)).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        let (mut a, mut b) = (build(mechanism), build(mechanism));
        replay(a.as_mut(), 0xABBA, 4_000);
        replay(b.as_mut(), 0xABBA, 4_000);
        if !a.supports_recalibration() {
            continue;
        }
        a.recalibrate(&mut forward.iter().copied());
        b.recalibrate(&mut reversed.iter().copied());
        assert_eq!(
            fingerprint(a.as_mut(), 0x2222),
            fingerprint(b.as_mut(), 0x2222),
            "{mechanism:?}: recalibration depends on sweep order"
        );
    }
}
