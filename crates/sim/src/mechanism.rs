//! The mechanism table: one [`Row`] per compared mechanism.
//!
//! A row is the only place a mechanism is described: its spec-string name
//! (`--mechanism level-pred:conf=2`), display name, JSON tag, one-line
//! summary, whether it builds a predictor, the inclusion policies it is
//! modelled for, and its spec keys. A [`Key`] holds its spec name, its
//! JSON field, the inclusive range of values the model tells apart and can
//! build, its default, and how to read and write it on a [`SimConfig`].
//!
//! Everything else reads the rows: [`Mechanism::name`],
//! [`Mechanism::has_predictor`], the configuration's JSON,
//! [`apply_spec`], [`spec_string`], the range and policy checks of
//! [`SimConfig::validate`] and the `redhip-sim --help` mechanism list.
//! The simulator itself reads the typed parameter fields; nothing here is
//! consulted per reference.

use crate::config::SimConfig;
use cache_sim::InclusionPolicy::{self, Exclusive, Hybrid, Inclusive};
use minijson::{Json, ToJson};
use redhip::perceptron::THETA_LIMIT;
use redhip::XorHash;

/// Which of the compared mechanisms to simulate: the paper's five plus
/// three related-work contenders. [`MECHANISMS`] describes each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// No prediction/optimization; all levels parallel tag+data.
    Base,
    /// The paper's contribution (single PT for inclusive/hybrid; one table
    /// per cache for the fully-exclusive configuration, §III-C).
    Redhip,
    /// Counting-Bloom-filter predictor at the same area budget.
    Cbf,
    /// Phased Cache: L3/L4 serialize tag→data; no predictor.
    Phased,
    /// Perfect LLC-residency predictor with zero overhead.
    Oracle,
    /// Per-load predicted hit level steering the lookup order, with a
    /// mispredict penalty (Jalili & Erez, arXiv:2103.14808).
    LevelPred,
    /// Hashed two-level perceptron with a confidence threshold gating the
    /// DRAM bypass (Jamet et al., arXiv:2403.15181).
    Perceptron,
    /// Way memoization: tag-way read skipping on re-touched blocks, charged
    /// in the energy model (arXiv:0710.4703).
    WayMemo,
}

impl Mechanism {
    /// This mechanism's row of [`MECHANISMS`].
    pub(crate) fn row(self) -> &'static Row {
        &MECHANISMS[self as usize]
    }

    /// Display name as in the figures.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Whether this mechanism instantiates a predictor structure (and so
    /// pays its leakage). The related-work contenders all do: they are
    /// sized to the same area budget as the PT for an equal-area
    /// comparison.
    pub fn has_predictor(self) -> bool {
        self.row().has_predictor
    }
}

impl ToJson for Mechanism {
    fn to_json(&self) -> Json {
        Json::Str(self.row().tag.to_string())
    }
}

/// One mechanism: everything the spec parser, the printer, the checks,
/// the JSON and the usage text know about it.
#[derive(Debug)]
pub struct Row {
    /// The variant it describes. Rows are in variant order.
    pub mechanism: Mechanism,
    /// Spec-string name (`--mechanism <spec>[:key=value,...]`).
    pub spec: &'static str,
    /// Display name, as in the figures.
    pub(crate) name: &'static str,
    /// The configuration JSON's `mechanism` tag.
    pub(crate) tag: &'static str,
    /// One-line semantics for `--help` and the README.
    pub summary: &'static str,
    /// Whether it builds a predictor structure (and pays its leakage).
    pub(crate) has_predictor: bool,
    /// The inclusion policies it is modelled for.
    pub(crate) policies: &'static [InclusionPolicy],
    /// Its spec keys, in spec-string and JSON order.
    pub keys: &'static [Key],
}

/// One spec key of a mechanism.
#[derive(Debug)]
pub struct Key {
    /// Spec-string name (`hashes` in `cbf:hashes=2`).
    pub name: &'static str,
    /// Member name in the configuration JSON's parameter block.
    pub(crate) field: &'static str,
    /// Smallest accepted value.
    pub min: i64,
    /// Largest accepted value.
    pub max: i64,
    /// The value when a spec does not name the key.
    pub default: i64,
    /// Reads the key's typed field.
    get: fn(&SimConfig) -> i64,
    /// Writes the key's typed field; only ever given a value in
    /// `min..=max`.
    set: fn(&mut SimConfig, i64),
}

impl Key {
    fn accepts(&self, value: i64) -> bool {
        (self.min..=self.max).contains(&value)
    }

    /// The error for `got`, a value outside the range or not an integer.
    fn out_of_range(&self, row: &Row, got: impl std::fmt::Display) -> String {
        format!(
            "`{}:{}` must be an integer in {}..={} (got {got})",
            row.spec, self.name, self.min, self.max
        )
    }
}

impl Row {
    /// The name of the JSON parameter block of a row with keys: its spec
    /// name with `-` as `_` (`level_pred`). Renaming a spec therefore
    /// renames its block, and so changes every sweep cache key.
    pub(crate) fn block(&self) -> String {
        self.spec.replace('-', "_")
    }

    /// `cfg`'s values of this row's keys, as a JSON object.
    pub(crate) fn params_json(&self, cfg: &SimConfig) -> Json {
        Json::Obj(
            self.keys
                .iter()
                .map(|k| (k.field.to_string(), Json::Int((k.get)(cfg))))
                .collect(),
        )
    }

    /// Checks that `cfg`, which selects this row, uses a policy the row
    /// is modelled for and holds every key in its range.
    pub(crate) fn check(&self, cfg: &SimConfig) -> Result<(), String> {
        if !self.policies.contains(&cfg.policy) {
            let supported: Vec<String> = self.policies.iter().map(|p| format!("{p:?}")).collect();
            return Err(format!(
                "{} is not modelled for the {:?} hierarchy (supported: {})",
                self.name,
                cfg.policy,
                supported.join(", ")
            ));
        }
        for key in self.keys {
            let value = (key.get)(cfg);
            if !key.accepts(value) {
                return Err(key.out_of_range(self, value));
            }
        }
        Ok(())
    }
}

/// Every policy.
const ANY: &[InclusionPolicy] = &[Inclusive, Exclusive, Hybrid];
/// Policies whose LLC includes every level above it: only there does
/// absence from the LLC imply absence on chip (§III-C gives ReDHiP
/// per-level tables for the exclusive hierarchy instead).
const LLC_INCLUSIVE: &[InclusionPolicy] = &[Inclusive, Hybrid];
/// The inclusive hierarchy alone: the contenders' recalibration scrub and
/// steering penalties assume L1 ⊆ LLC.
const INCLUSIVE: &[InclusionPolicy] = &[Inclusive];

/// A penalty in extra cycles per wrong steer or stale memo entry.
const fn penalty(
    field: &'static str,
    default: i64,
    get: fn(&SimConfig) -> i64,
    set: fn(&mut SimConfig, i64),
) -> Key {
    Key {
        name: "penalty",
        field,
        min: 0,
        max: u32::MAX as i64,
        default,
        get,
        set,
    }
}

/// Every mechanism, in [`Mechanism`] variant order.
pub const MECHANISMS: [Row; 8] = [
    Row {
        mechanism: Mechanism::Base,
        spec: "base",
        name: "Base",
        tag: "Base",
        summary: "no prediction; every level reads all tag+data ways in parallel",
        has_predictor: false,
        policies: ANY,
        keys: &[],
    },
    Row {
        mechanism: Mechanism::Redhip,
        spec: "redhip",
        name: "ReDHiP",
        tag: "Redhip",
        summary: "recalibrated 1-bit LLC-residency table gating DRAM bypass",
        has_predictor: true,
        policies: ANY,
        keys: &[],
    },
    Row {
        mechanism: Mechanism::Cbf,
        spec: "cbf",
        name: "CBF",
        tag: "Cbf",
        summary: "counting Bloom filter tracking LLC residency at equal area",
        has_predictor: true,
        policies: LLC_INCLUSIVE,
        keys: &[
            Key {
                name: "bits",
                field: "counter_bits",
                min: 1,
                max: 8,
                default: 4,
                get: |c| c.cbf.counter_bits.into(),
                set: |c, v| c.cbf.counter_bits = v as u32,
            },
            // Further members of the xor-hash family repeat the first ones.
            Key {
                name: "hashes",
                field: "num_hashes",
                min: 1,
                max: XorHash::FAMILY_SIZE as i64,
                default: 1,
                get: |c| c.cbf.num_hashes.into(),
                set: |c, v| c.cbf.num_hashes = v as u32,
            },
        ],
    },
    Row {
        mechanism: Mechanism::Phased,
        spec: "phased",
        name: "Phased",
        tag: "Phased",
        summary: "L3/L4 serialize tag then data access; no predictor",
        has_predictor: false,
        policies: LLC_INCLUSIVE,
        keys: &[],
    },
    Row {
        mechanism: Mechanism::Oracle,
        spec: "oracle",
        name: "Oracle",
        tag: "Oracle",
        summary: "perfect zero-overhead LLC-residency prediction",
        has_predictor: false,
        policies: LLC_INCLUSIVE,
        keys: &[],
    },
    Row {
        mechanism: Mechanism::LevelPred,
        spec: "level-pred",
        name: "LevelPred",
        tag: "LevelPred",
        summary: "per-load predicted hit level steers the lookup order",
        has_predictor: true,
        policies: INCLUSIVE,
        keys: &[
            // Confidences reach at most 255, so every threshold above 256
            // never steers, like 256; `validate` also bounds it by
            // `max + 1`.
            Key {
                name: "conf",
                field: "conf_threshold",
                min: 0,
                max: u8::MAX as i64 + 1,
                default: 2,
                get: |c| c.level_pred.conf_threshold.into(),
                set: |c, v| c.level_pred.conf_threshold = v as u32,
            },
            Key {
                name: "max",
                field: "conf_max",
                min: 0,
                max: u8::MAX as i64,
                default: 3,
                get: |c| c.level_pred.conf_max.into(),
                set: |c, v| c.level_pred.conf_max = v as u8,
            },
            penalty(
                "mispredict_penalty",
                8,
                |c| c.level_pred.mispredict_penalty.into(),
                |c, v| c.level_pred.mispredict_penalty = v as u32,
            ),
        ],
    },
    Row {
        mechanism: Mechanism::Perceptron,
        spec: "perceptron",
        name: "Perceptron",
        tag: "Perceptron",
        summary: "hashed perceptron with confidence threshold gating DRAM bypass",
        has_predictor: true,
        policies: INCLUSIVE,
        keys: &[
            Key {
                name: "theta",
                field: "theta",
                min: -(THETA_LIMIT as i64),
                max: THETA_LIMIT as i64,
                default: 12,
                get: |c| c.perceptron.theta.into(),
                set: |c, v| c.perceptron.theta = v as i32,
            },
            // The history register is 64 bits wide.
            Key {
                name: "history",
                field: "history_bits",
                min: 0,
                max: 64,
                default: 8,
                get: |c| c.perceptron.history_bits.into(),
                set: |c, v| c.perceptron.history_bits = v as u32,
            },
        ],
    },
    Row {
        mechanism: Mechanism::WayMemo,
        spec: "way-memo",
        name: "WayMemo",
        tag: "WayMemo",
        summary: "tag-way read skipping on memoized re-touched blocks",
        has_predictor: true,
        policies: INCLUSIVE,
        keys: &[
            // `validate` also bounds the memo by the LLC's capacity and
            // accepts only powers of two.
            Key {
                name: "entries",
                field: "entries",
                min: 2,
                max: u32::MAX as i64,
                default: 256,
                get: |c| c.way_memo.entries.into(),
                set: |c, v| c.way_memo.entries = v as u32,
            },
            penalty(
                "stale_penalty",
                1,
                |c| c.way_memo.stale_penalty.into(),
                |c, v| c.way_memo.stale_penalty = v as u32,
            ),
        ],
    },
];

/// Sets every key of every row to its default.
pub(crate) fn reset_keys(cfg: &mut SimConfig) {
    for key in MECHANISMS.iter().flat_map(|row| row.keys) {
        (key.set)(cfg, key.default);
    }
}

/// Applies a `--mechanism` spec string, a row's spec name optionally
/// followed by `:key=value,...`, to `cfg`: selects the mechanism and
/// gives every key the spec names its value and every other key its
/// default. On an error `cfg` is unchanged; the error names every known
/// mechanism (for an unknown name), every key the mechanism takes (for an
/// unknown key) or the key's range (for a value outside it).
pub fn apply_spec(cfg: &mut SimConfig, spec: &str) -> Result<(), String> {
    let (name, params) = spec.split_once(':').unwrap_or((spec, ""));
    let row = MECHANISMS.iter().find(|r| r.spec == name).ok_or_else(|| {
        let known: Vec<&str> = MECHANISMS.iter().map(|r| r.spec).collect();
        format!(
            "unknown mechanism `{name}`; known mechanisms: {}",
            known.join(", ")
        )
    })?;
    let mut named = Vec::new();
    for kv in params.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("malformed parameter `{kv}` (expected key=value)"))?;
        let key = row.keys.iter().find(|key| key.name == k).ok_or_else(|| {
            if row.keys.is_empty() {
                format!("mechanism `{name}` takes no parameters (got `{k}`)")
            } else {
                let known: Vec<&str> = row.keys.iter().map(|key| key.name).collect();
                format!(
                    "unknown key `{k}` for `{name}`; known keys: {}",
                    known.join(", ")
                )
            }
        })?;
        let value = v
            .parse()
            .ok()
            .filter(|&x| key.accepts(x))
            .ok_or_else(|| key.out_of_range(row, format_args!("`{v}`")))?;
        named.push((key, value));
    }
    cfg.mechanism = row.mechanism;
    reset_keys(cfg);
    for (key, value) in named {
        (key.set)(cfg, value);
    }
    Ok(())
}

/// The canonical spec string of a configuration: the row's spec name and
/// every key's value, so distinct parameterizations print distinct
/// specs. `apply_spec` of the printed string reproduces the mechanism and
/// its keys.
pub fn spec_string(cfg: &SimConfig) -> String {
    let row = cfg.mechanism.row();
    let params: Vec<String> = row
        .keys
        .iter()
        .map(|k| format!("{}={}", k.name, (k.get)(cfg)))
        .collect();
    if params.is_empty() {
        row.spec.to_string()
    } else {
        format!("{}:{}", row.spec, params.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use energy_model::presets::demo_scale;

    #[test]
    fn rows_are_in_variant_order_with_unique_names() {
        for (i, row) in MECHANISMS.iter().enumerate() {
            assert_eq!(row.mechanism as usize, i, "{}", row.spec);
        }
        for pick in [|r: &Row| r.spec, |r: &Row| r.name, |r: &Row| r.tag] {
            let mut names: Vec<&str> = MECHANISMS.iter().map(pick).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), MECHANISMS.len());
        }
    }

    #[test]
    fn defaults_lie_in_their_ranges_and_validate() {
        for row in &MECHANISMS {
            for key in row.keys {
                assert!(key.accepts(key.default), "{}:{}", row.spec, key.name);
            }
            let cfg = SimConfig::new(demo_scale(), row.mechanism);
            assert_eq!(cfg.validate(), Ok(()), "{}", row.spec);
        }
    }

    #[test]
    fn display_names_and_json_tags() {
        let names: Vec<&str> = MECHANISMS.iter().map(|r| r.mechanism.name()).collect();
        assert_eq!(
            names,
            [
                "Base",
                "ReDHiP",
                "CBF",
                "Phased",
                "Oracle",
                "LevelPred",
                "Perceptron",
                "WayMemo"
            ]
        );
        assert_eq!(Mechanism::Redhip.to_json().dump(), "\"Redhip\"");
        assert_eq!(Mechanism::Cbf.to_json().dump(), "\"Cbf\"");
        assert_eq!(Mechanism::Cbf.row().block(), "cbf");
        assert_eq!(Mechanism::LevelPred.row().block(), "level_pred");
        assert_eq!(Mechanism::WayMemo.row().block(), "way_memo");
    }

    fn applied(spec: &str) -> Result<SimConfig, String> {
        let mut cfg = SimConfig::new(demo_scale(), Mechanism::Base);
        apply_spec(&mut cfg, spec).map(|()| cfg)
    }

    #[test]
    fn bare_names_select_their_mechanism_with_default_keys() {
        for row in &MECHANISMS {
            let cfg = applied(row.spec).expect("bare name applies");
            assert_eq!(cfg.mechanism, row.mechanism);
            let fresh = SimConfig::new(demo_scale(), row.mechanism);
            assert_eq!(cfg.to_json().dump(), fresh.to_json().dump());
        }
    }

    #[test]
    fn parameters_set_their_keys() {
        let cfg = applied("level-pred:conf=5,penalty=16").unwrap();
        assert_eq!(cfg.mechanism, Mechanism::LevelPred);
        assert_eq!(cfg.level_pred.conf_threshold, 5);
        assert_eq!(cfg.level_pred.mispredict_penalty, 16);
        assert_eq!(cfg.level_pred.conf_max, 3);
        assert_eq!(applied("perceptron:theta=-3").unwrap().perceptron.theta, -3);
    }

    #[test]
    fn errors_name_the_alternatives_and_the_range() {
        let err = applied("ghost").unwrap_err();
        assert!(err.contains("unknown mechanism `ghost`"), "{err}");
        for row in &MECHANISMS {
            assert!(err.contains(row.spec), "{err}");
        }
        let err = applied("level-pred:confidence=2").unwrap_err();
        assert!(err.contains("unknown key `confidence`"), "{err}");
        assert!(err.contains("conf, max, penalty"), "{err}");
        let err = applied("base:x=1").unwrap_err();
        assert!(err.contains("takes no parameters"), "{err}");
        let err = applied("way-memo:entries").unwrap_err();
        assert!(err.contains("expected key=value"), "{err}");
        let err = applied("cbf:bits=lots").unwrap_err();
        assert!(
            err.contains("`cbf:bits` must be an integer in 1..=8 (got `lots`)"),
            "{err}"
        );
        let err = applied("cbf:hashes=4294967295").unwrap_err();
        assert!(
            err.contains("`cbf:hashes` must be an integer in 1..=3"),
            "{err}"
        );
    }

    #[test]
    fn spec_string_round_trips() {
        let mut cfg = SimConfig::new(demo_scale(), Mechanism::LevelPred);
        cfg.level_pred.conf_threshold = 7;
        cfg.level_pred.mispredict_penalty = 3;
        let s = spec_string(&cfg);
        assert_eq!(s, "level-pred:conf=7,max=3,penalty=3");
        let back = applied(&s).unwrap();
        assert_eq!(spec_string(&back), s);
        assert_eq!(back.level_pred, cfg.level_pred);
    }

    #[test]
    fn apply_spec_resets_unnamed_keys_and_leaves_cfg_alone_on_error() {
        let mut cfg = SimConfig::new(demo_scale(), Mechanism::Base);
        apply_spec(&mut cfg, "cbf:bits=2,hashes=3").unwrap();
        assert_eq!((cfg.cbf.counter_bits, cfg.cbf.num_hashes), (2, 3));
        apply_spec(&mut cfg, "cbf:hashes=2").unwrap();
        assert_eq!((cfg.cbf.counter_bits, cfg.cbf.num_hashes), (4, 2));
        let before = spec_string(&cfg);
        assert!(apply_spec(&mut cfg, "level-pred:conf=1,max=x").is_err());
        assert_eq!(spec_string(&cfg), before);
        assert_eq!(cfg.mechanism, Mechanism::Cbf);
    }
}
