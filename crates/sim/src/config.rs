//! Simulation configuration.

use cache_sim::traversal::MAX_LEVELS;
use cache_sim::{InclusionPolicy, ReplacementPolicy};
use energy_model::PlatformSpec;
use minijson::{json, FromJson, Json, ToJson};
use prefetch::StrideConfig;

/// Which of the compared mechanisms to simulate: the paper's five plus the
/// three related-work contenders from the predictor registry.
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
    /// Display name as in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::Base => "Base",
            Mechanism::Redhip => "ReDHiP",
            Mechanism::Cbf => "CBF",
            Mechanism::Phased => "Phased",
            Mechanism::Oracle => "Oracle",
            Mechanism::LevelPred => "LevelPred",
            Mechanism::Perceptron => "Perceptron",
            Mechanism::WayMemo => "WayMemo",
        }
    }

    /// Whether this mechanism instantiates a predictor structure (and so
    /// pays its leakage). The registry contenders all do — they are sized
    /// to the same area budget as the PT for an equal-area comparison.
    pub fn has_predictor(self) -> bool {
        matches!(
            self,
            Mechanism::Redhip
                | Mechanism::Cbf
                | Mechanism::LevelPred
                | Mechanism::Perceptron
                | Mechanism::WayMemo
        )
    }
}

/// CBF design knobs (Table/§II parameters of the baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbfParams {
    /// Bits per counter.
    pub counter_bits: u32,
    /// Number of hash functions (the referenced work: 1 suffices).
    pub num_hashes: u32,
}

impl Default for CbfParams {
    fn default() -> Self {
        Self {
            counter_bits: 4,
            num_hashes: 1,
        }
    }
}

impl CbfParams {
    /// Checks the knobs against what the filter can be built with: 1 to 8
    /// bits per counter and at least one hash function.
    pub(crate) fn check(&self) -> Result<(), String> {
        if !(1..=8).contains(&self.counter_bits) {
            return Err(format!(
                "`bits` for `cbf` must be in 1..=8 (got {})",
                self.counter_bits
            ));
        }
        if self.num_hashes == 0 {
            return Err("`hashes` for `cbf` must be at least 1 (got 0)".into());
        }
        Ok(())
    }
}

/// LevelPred design knobs (used when `mechanism == LevelPred`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelPredParams {
    /// Minimum confidence for a prediction to steer the lookup; below it
    /// the access falls back to the full in-order walk. A threshold above
    /// `conf_max` makes LevelPred degenerate to Base pricing.
    pub conf_threshold: u32,
    /// Saturation point of the per-entry confidence counters.
    pub conf_max: u32,
    /// Extra cycles charged per steered lookup that missed its level.
    pub mispredict_penalty: u64,
}

impl Default for LevelPredParams {
    fn default() -> Self {
        Self {
            conf_threshold: 2,
            conf_max: 3,
            mispredict_penalty: 8,
        }
    }
}

/// PerceptronOffChip design knobs (used when `mechanism == Perceptron`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerceptronParams {
    /// Confidence threshold θ: a weight sum ≥ θ gates the DRAM bypass.
    pub theta: i32,
    /// Bits of per-core off-chip outcome history folded into the hashes.
    pub history_bits: u32,
}

impl Default for PerceptronParams {
    fn default() -> Self {
        Self {
            theta: 12,
            history_bits: 8,
        }
    }
}

/// WayMemo design knobs (used when `mechanism == WayMemo`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayMemoParams {
    /// Memo slots per core (rounded down to a power of two).
    pub entries: u32,
    /// Extra cycles charged when a stale memo entry fires.
    pub stale_penalty: u64,
}

impl Default for WayMemoParams {
    fn default() -> Self {
        Self {
            entries: 256,
            stale_penalty: 1,
        }
    }
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
        Self {
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
        }
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
        if self.policy == InclusionPolicy::Exclusive
            && !matches!(self.mechanism, Mechanism::Base | Mechanism::Redhip)
        {
            return Err(format!(
                "{} is undefined for a fully exclusive hierarchy: absence \
                 from the LLC does not imply absence on chip (§III-C gives \
                 ReDHiP per-level tables; Base needs no predictor)",
                self.mechanism.name()
            ));
        }
        if matches!(
            self.mechanism,
            Mechanism::LevelPred | Mechanism::Perceptron | Mechanism::WayMemo
        ) && self.policy != InclusionPolicy::Inclusive
        {
            return Err(format!(
                "{} is modelled for the inclusive hierarchy only (its \
                 recalibration scrub and steering penalties assume L1 ⊆ LLC)",
                self.mechanism.name()
            ));
        }
        if self.prefetch.is_some() && self.policy != InclusionPolicy::Inclusive {
            return Err("prefetching is modelled for the inclusive hierarchy only".into());
        }
        let pt_bytes = self.effective_pt_bytes();
        match (self.mechanism, self.policy) {
            (Mechanism::Cbf, _) => {
                self.cbf.check()?;
                if pt_bytes.saturating_mul(8) / u64::from(self.cbf.counter_bits) < 2 {
                    return Err(format!(
                        "a {pt_bytes}-byte predictor budget holds fewer than 2 {}-bit CBF counters",
                        self.cbf.counter_bits
                    ));
                }
            }
            (Mechanism::Redhip, InclusionPolicy::Exclusive) => {
                let llc = self.platform.llc().capacity_bytes;
                if pt_bytes == 0 || pt_bytes >= llc {
                    return Err(format!(
                        "prediction-table size must be between 1 and {} bytes, below the \
                         {llc}-byte LLC (got {pt_bytes})",
                        llc - 1
                    ));
                }
            }
            (Mechanism::Redhip, _) => {
                // 8 × bytes one-bit entries, indexed by a mask.
                let llc = self.platform.llc().capacity_bytes;
                if !pt_bytes.is_power_of_two() || pt_bytes > llc {
                    return Err(format!(
                        "prediction-table size must be a power of two no larger than the \
                         {llc}-byte LLC, so that it holds a power-of-two number of 1-bit \
                         entries (got {pt_bytes})"
                    ));
                }
            }
            (Mechanism::WayMemo, _) => {
                // Each core's memo holds `entries` 8-byte slots.
                let llc = self.platform.llc().capacity_bytes;
                let entries = self.way_memo.entries;
                if u64::from(entries) * 8 > llc {
                    return Err(format!(
                        "way-memo entries must fit in the {llc}-byte LLC at 8 bytes each, \
                         at most {} (got entries={entries})",
                        llc / 8
                    ));
                }
            }
            _ => {}
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

impl ToJson for Mechanism {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Mechanism::Base => "Base",
                Mechanism::Redhip => "Redhip",
                Mechanism::Cbf => "Cbf",
                Mechanism::Phased => "Phased",
                Mechanism::Oracle => "Oracle",
                Mechanism::LevelPred => "LevelPred",
                Mechanism::Perceptron => "Perceptron",
                Mechanism::WayMemo => "WayMemo",
            }
            .to_string(),
        )
    }
}

impl FromJson for Mechanism {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.as_str() {
            Some("Base") => Ok(Mechanism::Base),
            Some("Redhip") => Ok(Mechanism::Redhip),
            Some("Cbf") => Ok(Mechanism::Cbf),
            Some("Phased") => Ok(Mechanism::Phased),
            Some("Oracle") => Ok(Mechanism::Oracle),
            Some("LevelPred") => Ok(Mechanism::LevelPred),
            Some("Perceptron") => Ok(Mechanism::Perceptron),
            Some("WayMemo") => Ok(Mechanism::WayMemo),
            _ => Err(format!("not a Mechanism: {v:?}")),
        }
    }
}

impl ToJson for CbfParams {
    fn to_json(&self) -> Json {
        json!({
            "counter_bits": self.counter_bits,
            "num_hashes": self.num_hashes,
        })
    }
}

impl FromJson for CbfParams {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            counter_bits: v.u64_of("counter_bits")? as u32,
            num_hashes: v.u64_of("num_hashes")? as u32,
        })
    }
}

impl ToJson for LevelPredParams {
    fn to_json(&self) -> Json {
        json!({
            "conf_threshold": self.conf_threshold,
            "conf_max": self.conf_max,
            "mispredict_penalty": self.mispredict_penalty,
        })
    }
}

impl FromJson for LevelPredParams {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            conf_threshold: v.u64_of("conf_threshold")? as u32,
            conf_max: v.u64_of("conf_max")? as u32,
            mispredict_penalty: v.u64_of("mispredict_penalty")?,
        })
    }
}

impl ToJson for PerceptronParams {
    fn to_json(&self) -> Json {
        json!({
            "theta": i64::from(self.theta),
            "history_bits": self.history_bits,
        })
    }
}

impl FromJson for PerceptronParams {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            theta: v
                .member("theta")?
                .as_i64()
                .ok_or_else(|| "member `theta` is not an i64".to_string())?
                as i32,
            history_bits: v.u64_of("history_bits")? as u32,
        })
    }
}

impl ToJson for WayMemoParams {
    fn to_json(&self) -> Json {
        json!({
            "entries": self.entries,
            "stale_penalty": self.stale_penalty,
        })
    }
}

impl FromJson for WayMemoParams {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            entries: v.u64_of("entries")? as u32,
            stale_penalty: v.u64_of("stale_penalty")?,
        })
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

impl FromJson for AccountingOptions {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            charge_fills: v.bool_of("charge_fills")?,
            charge_writebacks: v.bool_of("charge_writebacks")?,
            charge_invalidation_probes: v.bool_of("charge_invalidation_probes")?,
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
            "cbf": self.cbf.to_json(),
            "avg_cpi": self.avg_cpi,
            "refs_per_core": self.refs_per_core,
            "count_prediction_overhead": self.count_prediction_overhead,
            "accounting": self.accounting.to_json(),
            "address_space_bit": self.address_space_bit,
        });
        // Mechanism-specific parameter blocks are emitted only for the
        // mechanism that owns them. That keeps every pre-registry
        // serialization (goldens, sweep canonical keys, disk caches)
        // byte-identical while still folding the full predictor spec into
        // the canonical key — two LevelPred configs that differ only in a
        // confidence threshold get different keys.
        match self.mechanism {
            Mechanism::LevelPred => doc.set("level_pred", self.level_pred.to_json()),
            Mechanism::Perceptron => doc.set("perceptron", self.perceptron.to_json()),
            Mechanism::WayMemo => doc.set("way_memo", self.way_memo.to_json()),
            _ => {}
        }
        doc
    }
}

impl FromJson for SimConfig {
    fn from_json(v: &Json) -> Result<Self, String> {
        let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
            match v.member(key)? {
                Json::Null => Ok(None),
                other => other
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("{key}: not a u64")),
            }
        };
        Ok(Self {
            platform: energy_model::PlatformSpec::from_json(v.member("platform")?)?,
            mechanism: Mechanism::from_json(v.member("mechanism")?)?,
            policy: InclusionPolicy::from_json(v.member("policy")?)?,
            replacement: ReplacementPolicy::from_json(v.member("replacement")?)?,
            prefetch: match v.member("prefetch")? {
                Json::Null => None,
                other => Some(StrideConfig::from_json(other)?),
            },
            pt_bytes: opt_u64("pt_bytes")?,
            recalib_period: opt_u64("recalib_period")?,
            recalib_banks: v.u64_of("recalib_banks")?,
            cbf: CbfParams::from_json(v.member("cbf")?)?,
            level_pred: match v.get("level_pred") {
                Some(p) => LevelPredParams::from_json(p)?,
                None => LevelPredParams::default(),
            },
            perceptron: match v.get("perceptron") {
                Some(p) => PerceptronParams::from_json(p)?,
                None => PerceptronParams::default(),
            },
            way_memo: match v.get("way_memo") {
                Some(p) => WayMemoParams::from_json(p)?,
                None => WayMemoParams::default(),
            },
            avg_cpi: v.f64_of("avg_cpi")?,
            refs_per_core: v.u64_of("refs_per_core")? as usize,
            count_prediction_overhead: v.bool_of("count_prediction_overhead")?,
            accounting: AccountingOptions::from_json(v.member("accounting")?)?,
            address_space_bit: v.u64_of("address_space_bit")? as u32,
        })
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
        for bad in [0, 3, 96 << 10, 16 << 20] {
            c.pt_bytes = Some(bad);
            let err = c.validate().unwrap_err();
            assert!(err.contains("power of two"), "{err}");
        }
        c.pt_bytes = Some(1);
        assert!(c.validate().is_ok());
        c.policy = InclusionPolicy::Exclusive;
        c.pt_bytes = Some(0);
        assert!(c.validate().is_err());
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
        assert!(c.validate().unwrap_err().contains("1..=8"));
        c.cbf.counter_bits = 4;
        c.cbf.num_hashes = 0;
        assert!(c.validate().unwrap_err().contains("at least 1"));
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
        // The JSON of a pre-registry mechanism must not change — sweep
        // canonical keys and golden snapshots depend on it byte-for-byte.
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
        let back = SimConfig::from_json(&doc).unwrap();
        assert_eq!(back.level_pred, c.level_pred);

        let p = SimConfig::new(demo_scale(), Mechanism::Perceptron);
        let back = SimConfig::from_json(&p.to_json()).unwrap();
        assert_eq!(back.perceptron, p.perceptron);
        let w = SimConfig::new(demo_scale(), Mechanism::WayMemo);
        let back = SimConfig::from_json(&w.to_json()).unwrap();
        assert_eq!(back.way_memo, w.way_memo);
    }

    #[test]
    fn config_serializes() {
        let c = SimConfig::new(demo_scale(), Mechanism::Base);
        let s = c.to_json().dump();
        let back = SimConfig::from_json(&minijson::parse(&s).unwrap()).unwrap();
        assert_eq!(back.mechanism, Mechanism::Base);
        assert_eq!(back.refs_per_core, c.refs_per_core);
    }
}
