//! Mechanism-table property tests: spec-string round-trips over random
//! parameters and parser error quality. The predictor conformance suite
//! (determinism, probe purity, recalibration idempotence and order
//! independence) runs on the predictors `System` steps, so it lives beside
//! them in `src/predictor.rs`.

use energy_model::presets::demo_scale;
use minijson::ToJson;
use sim::{apply_spec, spec_string, Mechanism, SimConfig, MECHANISMS};

/// A demo-scale configuration with `spec` applied.
fn applied(spec: &str) -> Result<SimConfig, String> {
    let mut cfg = SimConfig::new(demo_scale(), Mechanism::Base);
    apply_spec(&mut cfg, spec).map(|()| cfg)
}

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
            1 + splitmix(st) % 3
        ),
        // `validate` accepts conf ≤ max + 1 only.
        Mechanism::LevelPred => {
            let max = 1 + splitmix(st) % 8;
            format!(
                "level-pred:conf={},max={max},penalty={}",
                splitmix(st) % (max + 2),
                splitmix(st) % 33
            )
        }
        Mechanism::Perceptron => format!(
            "perceptron:theta={},history={}",
            splitmix(st) % 101,
            splitmix(st) % 17
        ),
        // Powers of two from 2 to 4096, the counts `validate` accepts.
        Mechanism::WayMemo => format!(
            "way-memo:entries={},penalty={}",
            2u64 << (splitmix(st) % 12),
            splitmix(st) % 9
        ),
        _ => return None,
    })
}

/// Property: printing an applied spec re-applies to the same
/// configuration, and the canonical print is a fixed point
/// (`print(apply(print(x))) == print(x)`).
#[test]
fn spec_string_round_trips_over_random_parameters() {
    let mut st = 0x5EC5_7A1Eu64;
    for row in &MECHANISMS {
        for _case in 0..32 {
            let spec = match random_spec(row.mechanism, &mut st) {
                Some(s) => s,
                None => row.spec.to_string(),
            };
            let cfg = applied(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(cfg.mechanism, row.mechanism, "{spec}");
            let printed = spec_string(&cfg);
            let back = applied(&printed).unwrap_or_else(|e| panic!("{printed}: {e}"));
            assert_eq!(
                cfg.to_json().dump(),
                back.to_json().dump(),
                "round-trip changed `{spec}` → `{printed}`"
            );
            assert_eq!(printed, spec_string(&back), "print is not a fixed point");
        }
    }
}

#[test]
fn parser_errors_name_the_alternatives() {
    let err = applied("markov").unwrap_err();
    assert!(err.contains("unknown mechanism `markov`"), "{err}");
    for row in &MECHANISMS {
        assert!(err.contains(row.spec), "{err}: missing {}", row.spec);
    }
    let err = applied("perceptron:weights=4").unwrap_err();
    assert!(err.contains("unknown key `weights`"), "{err}");
    assert!(err.contains("theta, history"), "{err}");
    let err = applied("oracle:x=1").unwrap_err();
    assert!(err.contains("takes no parameters"), "{err}");
    // Values the predictor cannot build or tell apart name the range.
    for (spec, range) in [
        ("cbf:bits=0", "1..=8"),
        ("cbf:bits=9", "1..=8"),
        ("cbf:hashes=0", "1..=3"),
        ("cbf:hashes=4", "1..=3"),
        ("level-pred:max=256", "0..=255"),
        ("level-pred:conf=257", "0..=256"),
        ("perceptron:history=65", "0..=64"),
        ("perceptron:theta=385", "-384..=384"),
        ("way-memo:penalty=4294967296", "0..=4294967295"),
    ] {
        let err = applied(spec).unwrap_err();
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
