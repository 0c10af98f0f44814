//! Pluggable predictor registry.
//!
//! The paper's five mechanisms keep their hand-devirtualized fast paths in
//! [`PredictorState`] (moved here from `system.rs` — the branchless
//! ReDHiP/CBF probes must stay byte-identical to the golden snapshots).
//! Everything else goes through the [`PredictorImpl`] trait: related-work
//! contenders plug in as `PredictorState::Custom` trait objects and the
//! `System` drives them through one generic dispatch path.
//!
//! The registry also owns the user-facing *spec strings*
//! (`level-pred:conf=2,max=3,penalty=8`): [`parse_spec`] turns one into a
//! mechanism plus parameter overrides, [`spec_string`] prints a config's
//! canonical spec. The canonical print is embedded in run manifests so two
//! configs of the same mechanism with different parameters never alias.

use crate::config::{
    CbfParams, LevelPredParams, Mechanism, PerceptronParams, SimConfig, WayMemoParams,
};
use cache_sim::hierarchy::InclusionPolicy;
use cache_sim::traversal::LevelId;
use energy_model::PredictorSpec;
use redhip::{
    CbfConfig, CountingBloomFilter, LevelPredictor, OffChipPerceptron, Prediction, PredictionTable,
    PredictorBank, PresencePredictor, RecalibrationEngine, WayMemo, LEVEL_MEMORY, LEVEL_UNTRAINED,
};

// ---------------------------------------------------------------- trait

/// Where a custom predictor steers an L1 miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steer {
    /// No confident prediction: walk every level in order (Base pricing).
    Walk,
    /// Go straight to this level's arrays (LevelPred).
    Level(LevelId),
    /// Predicted off chip: bypass the on-chip walk (Perceptron).
    OffChip,
}

/// What the hierarchy walk actually observed, fed back for training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Level that served the request; `None` = memory.
    pub hit_level: Option<LevelId>,
}

/// A predictor mechanism plugged into the registry's dispatch path.
///
/// The contract mirrors how `System` drives it on every L1 miss:
/// [`probe`](Self::probe) (which must be state-pure — calling it twice in
/// a row returns the same steer and perturbs nothing), then the Base-order
/// walk, then [`train`](Self::train) with the observed outcome. The steer
/// re-prices which array lookups are charged; it never changes hierarchy
/// *state*, so fills, promotions, and evictions stay identical to Base.
pub trait PredictorImpl: Send {
    /// Steering decision for an L1 miss. Must not mutate predictor state
    /// observably: training happens only in [`train`](Self::train).
    fn probe(&mut self, core: usize, block: u64) -> Steer;

    /// Learns from the walk that followed the probe.
    fn train(&mut self, core: usize, block: u64, outcome: WalkOutcome);

    /// L1-hit hook (WayMemo): whether this hit's tag-way reads can be
    /// skipped because the block was memoized. Implementations record the
    /// block on a memo miss — the L1 hit proves residency. Only called
    /// when [`observes_l1_hits`](Self::observes_l1_hits) is true.
    fn l1_hit_memoized(&mut self, core: usize, block: u64) -> bool {
        let _ = (core, block);
        false
    }

    /// L1-miss hook (WayMemo): whether a stale memo entry fired — the
    /// memo promised L1 residency but the access missed. Implementations
    /// clear the stale entry. Only called when
    /// [`observes_l1_hits`](Self::observes_l1_hits) is true.
    fn l1_stale_memo(&mut self, core: usize, block: u64) -> bool {
        let _ = (core, block);
        false
    }

    /// Whether the L1-hit fast path must consult this predictor.
    fn observes_l1_hits(&self) -> bool {
        false
    }

    /// Extra cycles charged when a confident steer (or a stale memo entry)
    /// turns out wrong.
    fn mispredict_penalty_cycles(&self) -> u64 {
        0
    }

    /// An LLC line was filled (adapters for the trait conformance suite).
    fn on_llc_fill(&mut self, block: u64) {
        let _ = block;
    }

    /// An LLC line was evicted.
    fn on_llc_evict(&mut self, block: u64) {
        let _ = block;
    }

    /// Whether periodic recalibration applies to this predictor.
    fn supports_recalibration(&self) -> bool {
        false
    }

    /// Rebuilds/scrubs predictor state from the LLC-resident block set.
    /// Must be idempotent and independent of the iterator's order.
    fn recalibrate(&mut self, resident: &mut dyn Iterator<Item = u64>) {
        let _ = resident;
    }
}

// ---------------------------------------------------------------- registry

/// One registered mechanism: its spec-string name and metadata.
#[derive(Debug, Clone, Copy)]
pub struct MechanismInfo {
    /// Spec-string name (`--mechanism <spec_name>[:k=v,...]`).
    pub spec_name: &'static str,
    /// The `Mechanism` it selects.
    pub mechanism: Mechanism,
    /// One-line semantics for `--help`/docs.
    pub summary: &'static str,
}

/// Every mechanism the spec parser knows, in presentation order.
pub const REGISTRY: [MechanismInfo; 8] = [
    MechanismInfo {
        spec_name: "base",
        mechanism: Mechanism::Base,
        summary: "no prediction; every level reads all tag+data ways in parallel",
    },
    MechanismInfo {
        spec_name: "redhip",
        mechanism: Mechanism::Redhip,
        summary: "recalibrated 1-bit LLC-residency table gating DRAM bypass",
    },
    MechanismInfo {
        spec_name: "cbf",
        mechanism: Mechanism::Cbf,
        summary: "counting Bloom filter tracking LLC residency at equal area",
    },
    MechanismInfo {
        spec_name: "phased",
        mechanism: Mechanism::Phased,
        summary: "L3/L4 serialize tag then data access; no predictor",
    },
    MechanismInfo {
        spec_name: "oracle",
        mechanism: Mechanism::Oracle,
        summary: "perfect zero-overhead LLC-residency prediction",
    },
    MechanismInfo {
        spec_name: "level-pred",
        mechanism: Mechanism::LevelPred,
        summary: "per-load predicted hit level steers the lookup order",
    },
    MechanismInfo {
        spec_name: "perceptron",
        mechanism: Mechanism::Perceptron,
        summary: "hashed perceptron with confidence threshold gating DRAM bypass",
    },
    MechanismInfo {
        spec_name: "way-memo",
        mechanism: Mechanism::WayMemo,
        summary: "tag-way read skipping on memoized re-touched blocks",
    },
];

/// A parsed `--mechanism` spec: the mechanism plus parameter overrides
/// (fields not named in the spec keep their defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpec {
    /// Selected mechanism.
    pub mechanism: Mechanism,
    /// CBF parameters (`cbf:bits=..,hashes=..`).
    pub cbf: CbfParams,
    /// LevelPred parameters (`level-pred:conf=..,max=..,penalty=..`).
    pub level_pred: LevelPredParams,
    /// Perceptron parameters (`perceptron:theta=..,history=..`).
    pub perceptron: PerceptronParams,
    /// WayMemo parameters (`way-memo:entries=..,penalty=..`).
    pub way_memo: WayMemoParams,
}

impl ParsedSpec {
    /// A spec selecting `mechanism` with all-default parameters.
    pub fn new(mechanism: Mechanism) -> Self {
        Self {
            mechanism,
            cbf: CbfParams::default(),
            level_pred: LevelPredParams::default(),
            perceptron: PerceptronParams::default(),
            way_memo: WayMemoParams::default(),
        }
    }

    /// Applies the spec to a configuration.
    pub fn apply(&self, cfg: &mut SimConfig) {
        cfg.mechanism = self.mechanism;
        cfg.cbf = self.cbf;
        cfg.level_pred = self.level_pred;
        cfg.perceptron = self.perceptron;
        cfg.way_memo = self.way_memo;
    }
}

fn known_keys(mechanism: Mechanism) -> &'static [&'static str] {
    match mechanism {
        Mechanism::Cbf => &["bits", "hashes"],
        Mechanism::LevelPred => &["conf", "max", "penalty"],
        Mechanism::Perceptron => &["theta", "history"],
        Mechanism::WayMemo => &["entries", "penalty"],
        _ => &[],
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("value `{value}` for key `{key}` is not a number"))
}

/// Parses a `--mechanism` spec string: a registry name, optionally
/// followed by `:key=value,...` parameters. Errors name every known
/// mechanism (for an unknown name) or every key the mechanism takes (for
/// an unknown key).
pub fn parse_spec(s: &str) -> Result<ParsedSpec, String> {
    let (name, params) = match s.split_once(':') {
        Some((n, p)) => (n, Some(p)),
        None => (s, None),
    };
    let info = REGISTRY
        .iter()
        .find(|i| i.spec_name == name)
        .ok_or_else(|| {
            let known: Vec<&str> = REGISTRY.iter().map(|i| i.spec_name).collect();
            format!(
                "unknown mechanism `{name}`; known mechanisms: {}",
                known.join(", ")
            )
        })?;
    let mut spec = ParsedSpec::new(info.mechanism);
    let Some(params) = params else {
        return Ok(spec);
    };
    for kv in params.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = kv
            .split_once('=')
            .ok_or_else(|| format!("malformed parameter `{kv}` (expected key=value)"))?;
        let keys = known_keys(info.mechanism);
        if !keys.contains(&key) {
            return Err(if keys.is_empty() {
                format!("mechanism `{name}` takes no parameters (got `{key}`)")
            } else {
                format!(
                    "unknown key `{key}` for `{name}`; known keys: {}",
                    keys.join(", ")
                )
            });
        }
        match (info.mechanism, key) {
            (Mechanism::Cbf, "bits") => spec.cbf.counter_bits = parse_num(key, value)?,
            (Mechanism::Cbf, "hashes") => spec.cbf.num_hashes = parse_num(key, value)?,
            (Mechanism::LevelPred, "conf") => {
                spec.level_pred.conf_threshold = parse_num(key, value)?
            }
            (Mechanism::LevelPred, "max") => spec.level_pred.conf_max = parse_num(key, value)?,
            (Mechanism::LevelPred, "penalty") => {
                spec.level_pred.mispredict_penalty = parse_num(key, value)?
            }
            (Mechanism::Perceptron, "theta") => spec.perceptron.theta = parse_num(key, value)?,
            (Mechanism::Perceptron, "history") => {
                spec.perceptron.history_bits = parse_num(key, value)?
            }
            (Mechanism::WayMemo, "entries") => spec.way_memo.entries = parse_num(key, value)?,
            (Mechanism::WayMemo, "penalty") => spec.way_memo.stale_penalty = parse_num(key, value)?,
            _ => unreachable!("key membership checked above"),
        }
    }
    if spec.mechanism == Mechanism::Cbf {
        spec.cbf.check()?;
    }
    Ok(spec)
}

/// The canonical spec string of a configuration: parameter-bearing
/// mechanisms print every parameter, so distinct parameterizations print
/// distinct specs. `parse_spec(spec_string(cfg))` round-trips.
pub fn spec_string(cfg: &SimConfig) -> String {
    match cfg.mechanism {
        Mechanism::Base => "base".into(),
        Mechanism::Redhip => "redhip".into(),
        Mechanism::Phased => "phased".into(),
        Mechanism::Oracle => "oracle".into(),
        Mechanism::Cbf => format!(
            "cbf:bits={},hashes={}",
            cfg.cbf.counter_bits, cfg.cbf.num_hashes
        ),
        Mechanism::LevelPred => format!(
            "level-pred:conf={},max={},penalty={}",
            cfg.level_pred.conf_threshold,
            cfg.level_pred.conf_max,
            cfg.level_pred.mispredict_penalty
        ),
        Mechanism::Perceptron => format!(
            "perceptron:theta={},history={}",
            cfg.perceptron.theta, cfg.perceptron.history_bits
        ),
        Mechanism::WayMemo => format!(
            "way-memo:entries={},penalty={}",
            cfg.way_memo.entries, cfg.way_memo.stale_penalty
        ),
    }
}

// ---------------------------------------------------------------- impls

/// LevelPred: steers to the predicted hit level above a confidence
/// threshold (arXiv:2103.14808).
struct LevelPredImpl {
    table: LevelPredictor,
    conf_threshold: u32,
    penalty: u64,
}

impl PredictorImpl for LevelPredImpl {
    fn probe(&mut self, _core: usize, block: u64) -> Steer {
        let (level, conf) = self.table.predict(block);
        if level != LEVEL_UNTRAINED && u32::from(conf) >= self.conf_threshold {
            if level == LEVEL_MEMORY {
                Steer::OffChip
            } else {
                Steer::Level(level)
            }
        } else {
            Steer::Walk
        }
    }

    fn train(&mut self, _core: usize, block: u64, outcome: WalkOutcome) {
        self.table
            .train(block, outcome.hit_level.unwrap_or(LEVEL_MEMORY));
    }

    fn mispredict_penalty_cycles(&self) -> u64 {
        self.penalty
    }
}

/// PerceptronOffChip: hashed perceptron gating the DRAM bypass
/// (arXiv:2403.15181).
struct PerceptronImpl {
    p: OffChipPerceptron,
}

impl PredictorImpl for PerceptronImpl {
    fn probe(&mut self, core: usize, block: u64) -> Steer {
        let sum = self.p.predict(core, block);
        if self.p.confident_off_chip(sum) {
            Steer::OffChip
        } else {
            Steer::Walk
        }
    }

    fn train(&mut self, core: usize, block: u64, outcome: WalkOutcome) {
        // `predict` is pure and nothing moved since the probe, so the sum
        // the decision was made with is recomputed rather than cached —
        // that keeps `probe` state-pure for the conformance suite.
        let sum = self.p.predict(core, block);
        self.p.train(core, block, sum, outcome.hit_level.is_none());
    }
}

/// WayMemo: skips L1 tag-way reads for memoized re-touched blocks
/// (arXiv:0710.4703). Never steers — the hierarchy walk is exactly Base;
/// only the L1 access energy changes.
struct WayMemoImpl {
    memos: Vec<WayMemo>,
    penalty: u64,
}

impl PredictorImpl for WayMemoImpl {
    fn probe(&mut self, _core: usize, _block: u64) -> Steer {
        Steer::Walk
    }

    fn train(&mut self, core: usize, block: u64, _outcome: WalkOutcome) {
        // Whether the walk hit on chip or filled from memory, the block is
        // now L1-resident.
        self.memos[core].record(block);
    }

    fn l1_hit_memoized(&mut self, core: usize, block: u64) -> bool {
        if self.memos[core].probe(block) {
            true
        } else {
            self.memos[core].record(block);
            false
        }
    }

    fn l1_stale_memo(&mut self, core: usize, block: u64) -> bool {
        if self.memos[core].probe(block) {
            self.memos[core].clear(block);
            true
        } else {
            false
        }
    }

    fn observes_l1_hits(&self) -> bool {
        true
    }

    fn mispredict_penalty_cycles(&self) -> u64 {
        self.penalty
    }

    fn supports_recalibration(&self) -> bool {
        true
    }

    fn recalibrate(&mut self, resident: &mut dyn Iterator<Item = u64>) {
        // Inclusive hierarchy: L1 ⊆ LLC, so scrubbing against the LLC
        // resident set removes every entry that could be stale.
        let resident: Vec<u64> = resident.collect();
        for m in &mut self.memos {
            m.retain(resident.iter().copied());
        }
    }
}

/// ReDHiP behind the trait, for the conformance suite only — `System`
/// keeps the devirtualized [`PredictorState::Table`] fast path.
struct RedhipAdapter {
    table: PredictionTable,
}

impl PredictorImpl for RedhipAdapter {
    fn probe(&mut self, _core: usize, block: u64) -> Steer {
        if self.table.test(block) {
            Steer::Walk
        } else {
            Steer::OffChip
        }
    }

    fn train(&mut self, _core: usize, _block: u64, _outcome: WalkOutcome) {}

    fn on_llc_fill(&mut self, block: u64) {
        self.table.set(block);
    }

    fn supports_recalibration(&self) -> bool {
        true
    }

    fn recalibrate(&mut self, resident: &mut dyn Iterator<Item = u64>) {
        self.table.recalibrate_from(resident);
    }
}

/// CBF behind the trait, for the conformance suite only.
struct CbfAdapter {
    cbf: CountingBloomFilter,
}

impl PredictorImpl for CbfAdapter {
    fn probe(&mut self, _core: usize, block: u64) -> Steer {
        match self.cbf.predict(block) {
            Prediction::Absent => Steer::OffChip,
            Prediction::MaybePresent => Steer::Walk,
        }
    }

    fn train(&mut self, _core: usize, _block: u64, _outcome: WalkOutcome) {}

    fn on_llc_fill(&mut self, block: u64) {
        self.cbf.on_fill(block);
    }

    fn on_llc_evict(&mut self, block: u64) {
        self.cbf.on_evict(block);
    }

    fn supports_recalibration(&self) -> bool {
        self.cbf.supports_recalibration()
    }

    fn recalibrate(&mut self, resident: &mut dyn Iterator<Item = u64>) {
        self.cbf.recalibrate(resident);
    }
}

/// Builds the trait-object implementation of a predictor mechanism, sized
/// to the config's area budget. `None` for the predictorless mechanisms
/// (Base/Phased/Oracle). ReDHiP and CBF build thin adapters — used by the
/// conformance suite; `System` dispatches them devirtualized.
pub fn build_impl(cfg: &SimConfig) -> Option<Box<dyn PredictorImpl>> {
    let pt_bytes = cfg.effective_pt_bytes();
    let cores = cfg.platform.cores;
    match cfg.mechanism {
        Mechanism::Base | Mechanism::Phased | Mechanism::Oracle => None,
        Mechanism::Redhip => Some(Box::new(RedhipAdapter {
            table: PredictionTable::from_capacity_bytes(pt_bytes),
        })),
        Mechanism::Cbf => {
            let c = CbfConfig::from_budget(pt_bytes, cfg.cbf.counter_bits, cfg.cbf.num_hashes);
            Some(Box::new(CbfAdapter {
                cbf: CountingBloomFilter::new(c),
            }))
        }
        Mechanism::LevelPred => Some(Box::new(LevelPredImpl {
            table: LevelPredictor::from_capacity_bytes(
                pt_bytes,
                cfg.level_pred.conf_max.min(u32::from(u8::MAX)) as u8,
            ),
            conf_threshold: cfg.level_pred.conf_threshold,
            penalty: cfg.level_pred.mispredict_penalty,
        })),
        Mechanism::Perceptron => Some(Box::new(PerceptronImpl {
            p: OffChipPerceptron::from_capacity_bytes(
                pt_bytes,
                cores,
                cfg.perceptron.history_bits,
                cfg.perceptron.theta,
            ),
        })),
        Mechanism::WayMemo => Some(Box::new(WayMemoImpl {
            memos: (0..cores)
                .map(|_| WayMemo::with_entries(u64::from(cfg.way_memo.entries)))
                .collect(),
            penalty: cfg.way_memo.stale_penalty,
        })),
    }
}

// ---------------------------------------------------------------- state

/// Predictor state per mechanism.
pub(crate) enum PredictorState {
    /// Base / Phased: no predictor.
    None,
    /// Oracle: consults the LLC directly at zero cost.
    Oracle,
    /// Single table beside the (inclusive) LLC behind the predictor trait:
    /// CBF, or ReDHiP's perfect-recalibration variant.
    Single(Box<dyn PresencePredictor + Send>),
    /// The common ReDHiP configuration, devirtualized: holding the
    /// [`PredictionTable`] directly lets the per-miss probe inline to a
    /// single load+mask instead of a virtual call.
    Table(PredictionTable),
    /// §III-C fully-exclusive configuration: one scaled table per cache.
    /// Index layout: `(level-1) * cores + core` for private levels,
    /// last index = shared LLC.
    Multi {
        bank: PredictorBank,
        /// Per-table scaled energy/latency spec (same order as the bank).
        specs: Vec<PredictorSpec>,
        /// Per-table recalibration engines (same order).
        engines: Vec<RecalibrationEngine>,
    },
    /// A registry mechanism behind the [`PredictorImpl`] trait.
    Custom(Box<dyn PredictorImpl>),
}

/// Builds the predictor state for `cfg` (plus the single-table
/// recalibration engine when the mechanism uses one). `llc_sets` /
/// `llc_assoc` describe the shared LLC the engine scans.
pub(crate) fn build_state(
    cfg: &SimConfig,
    pt_spec: &PredictorSpec,
    llc_sets: u64,
    llc_assoc: usize,
) -> (PredictorState, Option<RecalibrationEngine>) {
    let p = &cfg.platform;
    let pt_bytes = cfg.effective_pt_bytes();
    let mut recalib_engine = None;
    let state = match (cfg.mechanism, cfg.policy) {
        (Mechanism::Base | Mechanism::Phased, _) => PredictorState::None,
        (Mechanism::Oracle, _) => PredictorState::Oracle,
        (Mechanism::Cbf, _) => {
            let c = CbfConfig::from_budget(pt_bytes, cfg.cbf.counter_bits, cfg.cbf.num_hashes);
            PredictorState::Single(Box::new(CountingBloomFilter::new(c)))
        }
        (Mechanism::Redhip, InclusionPolicy::Inclusive | InclusionPolicy::Hybrid)
            if cfg.recalib_period == Some(1) =>
        {
            // "Perfect recalibration" (Fig. 12's leftmost point): a
            // table rebuilt after every L1 miss is semantically an
            // exactly-counted bits-hash table, maintained incrementally.
            PredictorState::Single(Box::new(redhip::ExactCountingTable::from_capacity_bytes(
                pt_bytes,
            )))
        }
        (Mechanism::Redhip, InclusionPolicy::Inclusive | InclusionPolicy::Hybrid) => {
            let table = PredictionTable::from_capacity_bytes(pt_bytes);
            recalib_engine = Some(RecalibrationEngine::new(
                llc_sets,
                llc_assoc,
                table.lines(),
                cfg.recalib_banks,
                p.llc().tag_energy_nj,
                pt_spec.access_energy_nj,
            ));
            PredictorState::Table(table)
        }
        (Mechanism::Redhip, InclusionPolicy::Exclusive) => build_multi(cfg, pt_spec),
        (Mechanism::LevelPred | Mechanism::Perceptron | Mechanism::WayMemo, _) => {
            PredictorState::Custom(build_impl(cfg).expect("registry mechanism has an impl"))
        }
    };
    (state, recalib_engine)
}

/// Builds the per-cache table bank for the exclusive configuration.
fn build_multi(cfg: &SimConfig, base_spec: &PredictorSpec) -> PredictorState {
    let p = &cfg.platform;
    let ratio = cfg.effective_pt_bytes() as f64 / p.llc().capacity_bytes as f64;
    let cores = p.cores;
    let levels = p.levels.len();
    let mut capacities = Vec::new();
    // Private levels L2..L(n-1), one table per core each.
    for lvl in 1..levels - 1 {
        for _ in 0..cores {
            capacities.push(p.levels[lvl].capacity_bytes);
        }
    }
    capacities.push(p.llc().capacity_bytes);
    let bank = PredictorBank::with_overhead_ratio(&capacities, ratio);
    let mut specs = Vec::with_capacity(bank.len());
    let mut engines = Vec::with_capacity(bank.len());
    for (i, &cap) in capacities.iter().enumerate() {
        let table = bank.table(i);
        specs.push(base_spec.scaled_to(table.capacity_bytes()));
        let lvl = if i + 1 == capacities.len() {
            levels - 1
        } else {
            1 + i / cores
        };
        let spec = &p.levels[lvl];
        let sets = cap / 64 / spec.assoc as u64;
        engines.push(RecalibrationEngine::new(
            sets,
            spec.assoc,
            table.lines(),
            cfg.recalib_banks,
            spec.tag_energy_nj.max(spec.data_energy_nj * 0.2),
            specs[i].access_energy_nj,
        ));
    }
    PredictorState::Multi {
        bank,
        specs,
        engines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use energy_model::presets::demo_scale;

    #[test]
    fn registry_covers_every_mechanism_once() {
        for m in [
            Mechanism::Base,
            Mechanism::Redhip,
            Mechanism::Cbf,
            Mechanism::Phased,
            Mechanism::Oracle,
            Mechanism::LevelPred,
            Mechanism::Perceptron,
            Mechanism::WayMemo,
        ] {
            assert_eq!(
                REGISTRY.iter().filter(|i| i.mechanism == m).count(),
                1,
                "{m:?}"
            );
        }
        let mut names: Vec<&str> = REGISTRY.iter().map(|i| i.spec_name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len(), "spec names must be unique");
    }

    #[test]
    fn parse_bare_names() {
        for info in &REGISTRY {
            let spec = parse_spec(info.spec_name).expect("bare name parses");
            assert_eq!(spec.mechanism, info.mechanism);
            assert_eq!(spec, ParsedSpec::new(info.mechanism));
        }
    }

    #[test]
    fn parse_with_parameters() {
        let s = parse_spec("level-pred:conf=5,penalty=16").unwrap();
        assert_eq!(s.mechanism, Mechanism::LevelPred);
        assert_eq!(s.level_pred.conf_threshold, 5);
        assert_eq!(s.level_pred.mispredict_penalty, 16);
        assert_eq!(s.level_pred.conf_max, LevelPredParams::default().conf_max);
        let s = parse_spec("perceptron:theta=-3").unwrap();
        assert_eq!(s.perceptron.theta, -3);
    }

    #[test]
    fn unknown_mechanism_lists_known_names() {
        let err = parse_spec("ghost").unwrap_err();
        assert!(err.contains("unknown mechanism `ghost`"), "{err}");
        for info in &REGISTRY {
            assert!(err.contains(info.spec_name), "{err}");
        }
    }

    #[test]
    fn unknown_key_lists_known_keys() {
        let err = parse_spec("level-pred:confidence=2").unwrap_err();
        assert!(err.contains("unknown key `confidence`"), "{err}");
        assert!(err.contains("conf, max, penalty"), "{err}");
        let err = parse_spec("base:x=1").unwrap_err();
        assert!(err.contains("takes no parameters"), "{err}");
        let err = parse_spec("way-memo:entries").unwrap_err();
        assert!(err.contains("expected key=value"), "{err}");
        let err = parse_spec("cbf:bits=lots").unwrap_err();
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn spec_string_round_trips() {
        let mut cfg = SimConfig::new(demo_scale(), Mechanism::LevelPred);
        cfg.level_pred.conf_threshold = 7;
        cfg.level_pred.mispredict_penalty = 3;
        let s = spec_string(&cfg);
        assert_eq!(s, "level-pred:conf=7,max=3,penalty=3");
        let parsed = parse_spec(&s).unwrap();
        let mut cfg2 = SimConfig::new(demo_scale(), Mechanism::Base);
        parsed.apply(&mut cfg2);
        assert_eq!(spec_string(&cfg2), s);
        assert_eq!(cfg2.level_pred, cfg.level_pred);
    }

    #[test]
    fn build_impl_exists_exactly_for_predictor_mechanisms() {
        for info in &REGISTRY {
            let cfg = SimConfig::new(demo_scale(), info.mechanism);
            assert_eq!(
                build_impl(&cfg).is_some(),
                info.mechanism.has_predictor(),
                "{:?}",
                info.mechanism
            );
        }
    }
}
