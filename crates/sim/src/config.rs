//! Simulation configuration.

use crate::mechanism::Mechanism;
use cache_sim::traversal::MAX_LEVELS;
use cache_sim::{InclusionPolicy, ReplacementPolicy};
use energy_model::PlatformSpec;
use minijson::{json, Json, ToJson};
use prefetch::StrideConfig;

/// CBF design knobs (Table/§II parameters of the baseline). Like the
/// other parameter blocks, its `Default` is all zeros: [`SimConfig::new`]
/// sets the mechanism table's defaults, and the table holds each key's
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CbfParams {
    /// Bits per counter.
    pub counter_bits: u32,
    /// Number of hash functions (the referenced work: 1 suffices).
    pub num_hashes: u32,
}

/// LevelPred design knobs (used when `mechanism == LevelPred`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelPredParams {
    /// Minimum confidence for a prediction to steer the lookup; below it
    /// the access falls back to the full in-order walk. The threshold
    /// `conf_max + 1` makes LevelPred degenerate to Base pricing; larger
    /// ones are rejected by [`SimConfig::validate`].
    pub conf_threshold: u32,
    /// Saturation point of the per-entry confidence counters.
    pub conf_max: u8,
    /// Extra cycles charged per steered lookup that missed its level.
    pub mispredict_penalty: u32,
}

/// PerceptronOffChip design knobs (used when `mechanism == Perceptron`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerceptronParams {
    /// Confidence threshold θ: a weight sum ≥ θ gates the DRAM bypass.
    pub theta: i32,
    /// Bits of per-core off-chip outcome history folded into the hashes.
    pub history_bits: u32,
}

/// WayMemo design knobs (used when `mechanism == WayMemo`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WayMemoParams {
    /// Memo slots per core (rounded down to a power of two).
    pub entries: u32,
    /// Extra cycles charged when a stale memo entry fires.
    pub stale_penalty: u32,
}

/// Which event classes are charged dynamic energy.
///
/// The paper's model (like most tag/data lookup analyses) prices array
/// *lookups*; fill writes and writeback writes are identical across the
/// compared mechanisms and are excluded by default to match its
/// accounting. Every knob exists so the `accounting_ablation` bench can
/// quantify the choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccountingOptions {
    /// Charge a data-array write for every line fill.
    pub charge_fills: bool,
    /// Charge a data-array write for every writeback received.
    pub charge_writebacks: bool,
    /// Charge a tag-array access for every back-invalidation probe.
    pub charge_invalidation_probes: bool,
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Architecture parameters (sizes, delays, energies).
    pub platform: PlatformSpec,
    /// Compared mechanism.
    pub mechanism: Mechanism,
    /// Cache inclusion policy (§III-C / Fig. 13).
    pub policy: InclusionPolicy,
    /// Replacement policy for every level.
    pub replacement: ReplacementPolicy,
    /// Stride prefetcher, if enabled (§V-C / Figs. 14–15). Inclusive only.
    pub prefetch: Option<StrideConfig>,
    /// Prediction-table capacity override in bytes (Fig. 11 sweep);
    /// `None` uses the platform's predictor size.
    pub pt_bytes: Option<u64>,
    /// L1 misses between recalibrations (Fig. 12 sweep); `None` = never.
    pub recalib_period: Option<u64>,
    /// Parallel recalibration banks (the paper's medium effort: 4).
    pub recalib_banks: u64,
    /// CBF parameters (used when `mechanism == Cbf`).
    pub cbf: CbfParams,
    /// LevelPred parameters (used when `mechanism == LevelPred`).
    pub level_pred: LevelPredParams,
    /// Perceptron parameters (used when `mechanism == Perceptron`).
    pub perceptron: PerceptronParams,
    /// WayMemo parameters (used when `mechanism == WayMemo`).
    pub way_memo: WayMemoParams,
    /// Average CPI charged per non-memory instruction.
    pub avg_cpi: f64,
    /// Memory references simulated per core.
    pub refs_per_core: usize,
    /// Charge predictor lookup energy/latency and recalibration overhead.
    /// The paper disables this for the Fig. 11/12 accuracy studies.
    pub count_prediction_overhead: bool,
    /// Energy accounting details.
    pub accounting: AccountingOptions,
    /// Offset applied per core to separate address spaces (bit position).
    /// 0 disables separation (all cores share addresses).
    pub address_space_bit: u32,
}

impl SimConfig {
    /// A ready-to-run configuration for `mechanism` on `platform` with the
    /// paper's defaults for everything else.
    pub fn new(platform: PlatformSpec, mechanism: Mechanism) -> Self {
        let mut cfg = Self {
            platform,
            mechanism,
            policy: InclusionPolicy::Inclusive,
            replacement: ReplacementPolicy::Lru,
            prefetch: None,
            pt_bytes: None,
            recalib_period: Some(65_536),
            recalib_banks: 4,
            cbf: CbfParams::default(),
            level_pred: LevelPredParams::default(),
            perceptron: PerceptronParams::default(),
            way_memo: WayMemoParams::default(),
            avg_cpi: 1.5,
            refs_per_core: 1_000_000,
            count_prediction_overhead: true,
            accounting: AccountingOptions::default(),
            address_space_bit: 44,
        };
        crate::mechanism::reset_keys(&mut cfg);
        cfg
    }

    /// Effective prediction-table capacity in bytes.
    pub fn effective_pt_bytes(&self) -> u64 {
        self.pt_bytes.unwrap_or(self.platform.predictor.size_bytes)
    }

    /// Validates cross-field constraints, returning a description of the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        let cores = self.platform.cores;
        if cores == 0 {
            return Err("the platform needs at least one core".into());
        }
        let depth = self.platform.levels.len();
        if !(2..=MAX_LEVELS).contains(&depth) {
            return Err(format!(
                "the hierarchy needs 2..={MAX_LEVELS} levels (private levels, then the \
                 shared LLC), got {depth}"
            ));
        }
        let caches = crate::system::hierarchy_config(self);
        let shapes = caches.private_levels.iter().chain([&caches.shared_llc]);
        for (i, cache) in shapes.enumerate() {
            cache.check().map_err(|e| format!("L{}: {e}", i + 1))?;
        }
        // Each shared-LLC entry word holds one core-valid bit per core
        // beside the tag of a 58-bit block address (64-byte blocks), so the
        // tag must leave `cores` bits free: cores ≤ log2(LLC sets) + 4.
        let llc = self.platform.llc();
        let sets = llc.capacity_bytes / 64 / llc.assoc as u64;
        let max_cores = sets.max(1).ilog2() as usize + 4;
        if cores > max_cores {
            return Err(format!(
                "{cores} cores exceed the {max_cores} core-valid bits a {sets}-set LLC \
                 entry can hold"
            ));
        }
        self.mechanism.row().check(self)?;
        if self.prefetch.is_some() && self.policy != InclusionPolicy::Inclusive {
            return Err("prefetching is modelled for the inclusive hierarchy only".into());
        }
        // The predictor budget, whenever it sizes a table or is given.
        let llc = self.platform.llc().capacity_bytes;
        let pt_bytes = self.effective_pt_bytes();
        if (self.mechanism.has_predictor() || self.pt_bytes.is_some())
            && !(1..=llc).contains(&pt_bytes)
        {
            return Err(format!(
                "pt-bytes must be in 1..={llc}, the LLC's capacity (got {pt_bytes})"
            ));
        }
        // Cross-field rules, which depend on the platform.
        let violation = match (self.mechanism, self.policy) {
            (Mechanism::Cbf, _) => {
                // A w-bit index tells apart at most w members of the
                // xor-hash family (narrower indices fold them together),
                // so n hashes need at least 2^n counters.
                let (bits, hashes) = (self.cbf.counter_bits, self.cbf.num_hashes);
                let need = 1u64 << hashes;
                (pt_bytes * 8 / u64::from(bits) < need).then(|| {
                    format!(
                        "a {pt_bytes}-byte predictor budget holds fewer than {need} {bits}-bit \
                         CBF counters, the fewest {hashes} distinct hashes can index"
                    )
                })
            }
            (Mechanism::Redhip, InclusionPolicy::Exclusive) => (pt_bytes == llc).then(|| {
                format!(
                    "pt-bytes must be below the {llc}-byte LLC for the exclusive per-cache \
                     tables (got {pt_bytes})"
                )
            }),
            // 8 × bytes one-bit entries, indexed by a mask.
            (Mechanism::Redhip, _) => (!pt_bytes.is_power_of_two()).then(|| {
                format!(
                    "pt-bytes must be a power of two, so that the table holds a power-of-two \
                     number of 1-bit entries (got {pt_bytes})"
                )
            }),
            // Each core's memo holds `entries` 8-byte slots, indexed by a
            // mask: any other count would be rounded to a power of two,
            // one model under two spec strings.
            (Mechanism::WayMemo, _) => {
                let entries = self.way_memo.entries;
                if u64::from(entries) * 8 > llc {
                    Some(format!(
                        "way-memo entries must fit in the {llc}-byte LLC at 8 bytes each, \
                         at most {} (got entries={entries})",
                        llc / 8
                    ))
                } else {
                    (!entries.is_power_of_two()).then(|| {
                        format!(
                            "way-memo entries must be a power of two, the number of slots \
                             the memo is built with (got entries={entries})"
                        )
                    })
                }
            }
            // A confidence never exceeds `max`, so every threshold above
            // `max + 1` never steers, like `max + 1`.
            (Mechanism::LevelPred, _) => {
                let (conf, max) = (self.level_pred.conf_threshold, self.level_pred.conf_max);
                (conf > u32::from(max) + 1).then(|| {
                    format!(
                        "level-pred conf must be at most max + 1 = {}, the threshold that \
                         already never steers (got conf={conf}, max={max})",
                        u32::from(max) + 1
                    )
                })
            }
            _ => None,
        };
        if let Some(e) = violation {
            return Err(e);
        }
        if self.avg_cpi <= 0.0 {
            return Err("avg_cpi must be positive".into());
        }
        if self.refs_per_core == 0 {
            return Err("refs_per_core must be positive".into());
        }
        Ok(())
    }
}

impl ToJson for AccountingOptions {
    fn to_json(&self) -> Json {
        json!({
            "charge_fills": self.charge_fills,
            "charge_writebacks": self.charge_writebacks,
            "charge_invalidation_probes": self.charge_invalidation_probes,
        })
    }
}

impl ToJson for SimConfig {
    fn to_json(&self) -> Json {
        let mut doc = json!({
            "platform": self.platform.to_json(),
            "mechanism": self.mechanism.to_json(),
            "policy": self.policy.to_json(),
            "replacement": self.replacement.to_json(),
            "prefetch": self.prefetch.as_ref().map_or(Json::Null, |p| p.to_json()),
            "pt_bytes": Json::from(self.pt_bytes),
            "recalib_period": Json::from(self.recalib_period),
            "recalib_banks": self.recalib_banks,
        });
        // The CBF parameter block predates the other mechanisms and is
        // written for every mechanism; each other block is appended only
        // for the mechanism that owns it. That keeps every serialization
        // written before a block existed (goldens, sweep canonical keys,
        // disk caches) byte-identical while still folding the full
        // predictor spec into the canonical key.
        let cbf = Mechanism::Cbf.row();
        doc.set(&cbf.block(), cbf.params_json(self));
        for (key, value) in [
            ("avg_cpi", Json::from(self.avg_cpi)),
            ("refs_per_core", Json::from(self.refs_per_core)),
            (
                "count_prediction_overhead",
                Json::from(self.count_prediction_overhead),
            ),
            ("accounting", self.accounting.to_json()),
            ("address_space_bit", Json::from(self.address_space_bit)),
        ] {
            doc.set(key, value);
        }
        let own = self.mechanism.row();
        if !own.keys.is_empty() {
            doc.set(&own.block(), own.params_json(self));
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use energy_model::presets::demo_scale;

    #[test]
    fn defaults_match_paper_choices() {
        let c = SimConfig::new(demo_scale(), Mechanism::Redhip);
        assert_eq!(c.recalib_banks, 4);
        assert_eq!(c.policy, InclusionPolicy::Inclusive);
        assert!(c.count_prediction_overhead);
        assert_eq!(c.effective_pt_bytes(), 64 << 10);
        assert!(c.validate().is_ok());
    }

    /// `cfg` with the LLC reshaped to `capacity_bytes` at `assoc` ways.
    fn with_llc(mut c: SimConfig, capacity_bytes: u64, assoc: usize) -> SimConfig {
        let llc = c.platform.levels.last_mut().unwrap();
        llc.capacity_bytes = capacity_bytes;
        llc.assoc = assoc;
        c
    }

    #[test]
    fn hierarchy_depth_outside_two_to_eight_levels_is_rejected() {
        let mut c = SimConfig::new(demo_scale(), Mechanism::Base);
        let l1 = c.platform.levels[0];
        c.platform.levels.truncate(1);
        assert!(c.validate().unwrap_err().contains("got 1"));
        c.platform.levels.clear();
        assert!(c.validate().unwrap_err().contains("got 0"));
        c.platform.levels = vec![l1; 9];
        assert!(c.validate().unwrap_err().contains("got 9"));
        c.platform.levels.truncate(8);
        assert!(c.validate().is_ok());
        crate::system::System::new(c.clone());
        c.platform.levels.truncate(2);
        assert!(c.validate().is_ok());
        crate::system::System::new(c);
    }

    #[test]
    fn non_power_of_two_set_count_is_rejected() {
        let c = SimConfig::new(demo_scale(), Mechanism::Base);
        // 6 MB at 16 ways is 6144 sets; 8 MB at 12 ways does not divide.
        for (bytes, assoc) in [(6 << 20, 16), (8 << 20, 12)] {
            let err = with_llc(c.clone(), bytes, assoc).validate().unwrap_err();
            assert!(
                err.starts_with("L4: ") && err.contains("power-of-two"),
                "{err}"
            );
        }
        assert!(with_llc(c, 6 << 20, 12).validate().is_ok(), "8192 sets");
    }

    #[test]
    fn associativity_outside_one_to_sixty_four_is_rejected() {
        let mut c = SimConfig::new(demo_scale(), Mechanism::Base);
        c.platform.levels[0].assoc = 0;
        assert!(c.validate().unwrap_err().starts_with("L1: associativity 0"));
        let c = SimConfig::new(demo_scale(), Mechanism::Base);
        let err = with_llc(c.clone(), 8 << 20, 128).validate().unwrap_err();
        assert!(err.contains("outside 1..=64"), "{err}");
        assert!(with_llc(c, 8 << 20, 64).validate().is_ok());
    }

    #[test]
    fn tree_plru_needs_a_power_of_two_of_at_most_sixteen_ways() {
        let mut c = SimConfig::new(demo_scale(), Mechanism::Base);
        c.replacement = ReplacementPolicy::TreePlru;
        assert!(c.validate().is_ok());
        for (bytes, assoc) in [(6 << 20, 12), (8 << 20, 32)] {
            let err = with_llc(c.clone(), bytes, assoc).validate().unwrap_err();
            assert!(err.contains("tree-PLRU"), "{err}");
        }
        c.replacement = ReplacementPolicy::Lru;
        assert!(with_llc(c, 6 << 20, 12).validate().is_ok());
    }

    #[test]
    fn pt_override_takes_effect() {
        let mut c = SimConfig::new(demo_scale(), Mechanism::Redhip);
        c.pt_bytes = Some(8 << 10);
        assert_eq!(c.effective_pt_bytes(), 8 << 10);
    }

    #[test]
    fn exclusive_rejects_predictorless_bypass_mechanisms() {
        for m in [
            Mechanism::Cbf,
            Mechanism::Oracle,
            Mechanism::Phased,
            Mechanism::LevelPred,
            Mechanism::Perceptron,
            Mechanism::WayMemo,
        ] {
            let mut c = SimConfig::new(demo_scale(), m);
            c.policy = InclusionPolicy::Exclusive;
            assert!(c.validate().is_err(), "{m:?} must be rejected");
        }
        for m in [Mechanism::Base, Mechanism::Redhip] {
            let mut c = SimConfig::new(demo_scale(), m);
            c.policy = InclusionPolicy::Exclusive;
            assert!(c.validate().is_ok(), "{m:?} must be accepted");
        }
    }

    #[test]
    fn predictor_budgets_the_tables_cannot_be_built_with_are_rejected() {
        let mut c = SimConfig::new(demo_scale(), Mechanism::Redhip);
        for bad in [3, 96 << 10] {
            c.pt_bytes = Some(bad);
            let err = c.validate().unwrap_err();
            assert!(err.contains("power of two"), "{err}");
        }
        c.pt_bytes = Some(1);
        assert!(c.validate().is_ok());
        c.policy = InclusionPolicy::Exclusive;
        c.pt_bytes = Some(8 << 20);
        assert!(c.validate().unwrap_err().contains("below the"));
        c.pt_bytes = Some(96 << 10);
        assert!(c.validate().is_ok(), "the exclusive bank rounds any size");

        let mut c = SimConfig::new(demo_scale(), Mechanism::Cbf);
        c.pt_bytes = Some(3);
        assert!(
            c.validate().is_ok(),
            "the CBF rounds its counter count down"
        );
        c.pt_bytes = Some(1);
        c.cbf.counter_bits = 8;
        assert!(c.validate().unwrap_err().contains("fewer than 2"));
        c.pt_bytes = None;
        c.cbf.counter_bits = 0;
        assert!(c.validate().unwrap_err().contains("`cbf:bits`"));
        c.cbf.counter_bits = 4;
        c.cbf.num_hashes = 0;
        assert!(c.validate().unwrap_err().contains("1..=3"));
    }

    #[test]
    fn every_budget_outside_one_byte_to_the_llc_is_rejected_naming_pt_bytes() {
        for m in [
            Mechanism::Redhip,
            Mechanism::Cbf,
            Mechanism::LevelPred,
            Mechanism::Perceptron,
            Mechanism::WayMemo,
            Mechanism::Base,
        ] {
            let mut c = SimConfig::new(demo_scale(), m);
            let llc = c.platform.llc().capacity_bytes;
            c.pt_bytes = Some(llc);
            assert!(c.validate().is_ok(), "{m:?}");
            for bad in [0, llc + 1, 1 << 40, u64::MAX] {
                c.pt_bytes = Some(bad);
                let err = c.validate().unwrap_err();
                assert!(err.contains("pt-bytes must be in 1..="), "{m:?}: {err}");
            }
        }
        // A budget nobody gave sizes nothing for the predictorless.
        let mut c = SimConfig::new(demo_scale(), Mechanism::Oracle);
        c.platform.predictor.size_bytes = 0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cbf_hashes_need_an_index_that_tells_them_apart() {
        let mut c = SimConfig::new(demo_scale(), Mechanism::Cbf);
        c.cbf.counter_bits = 8;
        // n bytes of 8-bit counters index n counters: 2^hashes needed.
        for (bytes, hashes, ok) in [(2, 1, true), (3, 2, false), (4, 2, true), (7, 3, false)] {
            c.pt_bytes = Some(bytes);
            c.cbf.num_hashes = hashes;
            let r = c.validate();
            assert_eq!(r.is_ok(), ok, "{bytes} B, {hashes} hashes: {r:?}");
        }
        c.pt_bytes = Some(8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn way_memo_larger_than_the_llc_is_rejected() {
        let mut c = SimConfig::new(demo_scale(), Mechanism::WayMemo);
        let llc = c.platform.llc().capacity_bytes;
        c.way_memo.entries = (llc / 8) as u32;
        assert!(c.validate().is_ok());
        for bad in [(llc / 8) as u32 + 1, u32::MAX] {
            c.way_memo.entries = bad;
            let err = c.validate().unwrap_err();
            assert!(err.contains(&format!("entries={bad}")), "{err}");
        }
    }

    #[test]
    fn way_memo_entries_must_be_a_power_of_two() {
        let mut c = SimConfig::new(demo_scale(), Mechanism::WayMemo);
        for good in [2, 4, 256, 4096] {
            c.way_memo.entries = good;
            assert!(c.validate().is_ok(), "entries={good}");
        }
        for bad in [3, 255, 257, 300] {
            c.way_memo.entries = bad;
            let err = c.validate().unwrap_err();
            assert!(
                err.contains("power of two") && err.contains(&format!("entries={bad}")),
                "{err}"
            );
        }
        c.way_memo.entries = 1;
        let err = c.validate().unwrap_err();
        assert!(
            err.contains("`way-memo:entries`") && err.contains("2..="),
            "{err}"
        );
    }

    #[test]
    fn level_pred_conf_above_max_plus_one_is_rejected() {
        let mut c = SimConfig::new(demo_scale(), Mechanism::LevelPred);
        assert!(c.validate().is_ok(), "the defaults: conf 2, max 3");
        for (conf, max) in [(0, 0), (1, 0), (4, 3), (256, 255)] {
            c.level_pred.conf_threshold = conf;
            c.level_pred.conf_max = max;
            assert!(c.validate().is_ok(), "conf={conf}, max={max}");
        }
        for (conf, max) in [(2, 0), (5, 3), (200, 3), (256, 254)] {
            c.level_pred.conf_threshold = conf;
            c.level_pred.conf_max = max;
            let err = c.validate().unwrap_err();
            assert!(err.contains(&format!("conf={conf}, max={max}")), "{err}");
        }
    }

    #[test]
    fn zero_cores_are_rejected() {
        let mut c = SimConfig::new(demo_scale(), Mechanism::Base);
        c.platform.cores = 0;
        assert!(c.validate().unwrap_err().contains("at least one core"));
    }

    #[test]
    fn core_counts_the_llc_cannot_track_are_rejected() {
        let mut c = SimConfig::new(demo_scale(), Mechanism::Base);
        // Demo scale: 8192 LLC sets → 13 + 4 = 17 core-valid bits.
        c.platform.cores = 17;
        assert!(c.validate().is_ok());
        crate::System::new(c.clone());
        c.platform.cores = 18;
        assert!(c.validate().unwrap_err().contains("core-valid"));
        // Table I: 65536 LLC sets → 20.
        let mut c = SimConfig::new(energy_model::presets::table_i(), Mechanism::Redhip);
        c.platform.cores = 20;
        assert!(c.validate().is_ok());
        c.platform.cores = 21;
        assert!(c.validate().unwrap_err().contains("core-valid"));
    }

    #[test]
    fn prefetch_requires_inclusive() {
        let mut c = SimConfig::new(demo_scale(), Mechanism::Base);
        c.prefetch = Some(StrideConfig::default());
        c.policy = InclusionPolicy::Hybrid;
        assert!(c.validate().is_err());
        c.policy = InclusionPolicy::Inclusive;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn mechanism_metadata() {
        assert!(Mechanism::Redhip.has_predictor());
        assert!(Mechanism::Cbf.has_predictor());
        assert!(!Mechanism::Oracle.has_predictor());
        assert_eq!(Mechanism::Phased.name(), "Phased");
        assert!(Mechanism::LevelPred.has_predictor());
        assert!(Mechanism::Perceptron.has_predictor());
        assert!(Mechanism::WayMemo.has_predictor());
        assert_eq!(Mechanism::LevelPred.name(), "LevelPred");
    }

    #[test]
    fn registry_mechanisms_require_inclusive() {
        for m in [
            Mechanism::LevelPred,
            Mechanism::Perceptron,
            Mechanism::WayMemo,
        ] {
            let mut c = SimConfig::new(demo_scale(), m);
            assert!(c.validate().is_ok(), "{m:?} inclusive must pass");
            c.policy = InclusionPolicy::Hybrid;
            assert!(c.validate().is_err(), "{m:?} hybrid must be rejected");
        }
    }

    #[test]
    fn param_blocks_serialize_only_for_their_mechanism() {
        // The JSON of a mechanism without a block must not change: sweep
        // canonical keys and golden snapshots depend on it byte for byte.
        let base = SimConfig::new(demo_scale(), Mechanism::Base).to_json();
        assert!(base.get("level_pred").is_none());
        assert!(base.get("perceptron").is_none());
        assert!(base.get("way_memo").is_none());

        let mut c = SimConfig::new(demo_scale(), Mechanism::LevelPred);
        c.level_pred.conf_threshold = 5;
        let doc = c.to_json();
        assert_eq!(
            doc.get("level_pred").unwrap().u64_of("conf_threshold"),
            Ok(5)
        );
        assert!(doc.get("perceptron").is_none());
    }

    #[test]
    fn config_json_keeps_its_member_order_and_values() {
        let mut c = SimConfig::new(demo_scale(), Mechanism::Perceptron);
        c.perceptron.theta = -3;
        let text = c.to_json().dump();
        let order = [
            "\"recalib_banks\":4,\"cbf\":{\"counter_bits\":4,\"num_hashes\":1},\"avg_cpi\":1.5,",
            "\"address_space_bit\":44,\"perceptron\":{\"theta\":-3,\"history_bits\":8}}",
        ];
        for part in order {
            assert!(text.contains(part), "{text}");
        }
        let mut c = SimConfig::new(demo_scale(), Mechanism::Cbf);
        c.cbf.num_hashes = 2;
        let text = c.to_json().dump();
        assert!(
            text.contains(
                "\"recalib_banks\":4,\"cbf\":{\"counter_bits\":4,\"num_hashes\":2},\"avg_cpi\""
            ),
            "{text}"
        );
        assert!(text.ends_with("\"address_space_bit\":44}"), "{text}");
    }
}
