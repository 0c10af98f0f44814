//! Registry-level property tests: spec-string round-trips over random
//! parameters and parser error quality. The predictor conformance suite
//! (determinism, probe purity, recalibration idempotence and order
//! independence) runs on the predictors `System` steps, so it lives beside
//! them in `src/predictor.rs`.

use energy_model::presets::demo_scale;
use sim::{parse_spec, spec_string, Mechanism, SimConfig, REGISTRY};

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
