//! The predictor `System` consults.
//!
//! One crate-private enum over the concrete tables: none (Base, Phased),
//! the Oracle, ReDHiP's 1-bit table, the exact table ReDHiP uses at
//! recalibration period 1, the counting Bloom filter, the exclusive
//! configuration's per-cache bank, LevelPred, the perceptron and WayMemo.
//! [`Predictor::new`] builds the one a configuration selects from its typed
//! parameter fields, which the mechanism table
//! ([`crate::mechanism::MECHANISMS`]) has checked. `System` probes it on
//! every L1 miss, trains it with the walk's outcome, feeds it the cache's
//! fills and evictions and recalibrates it. Every call is one match over
//! that closed set, so the ReDHiP probe stays a single load and mask.

use crate::config::SimConfig;
use crate::mechanism::Mechanism;
use cache_sim::hierarchy::{DeepHierarchy, InclusionPolicy};
use cache_sim::traversal::{LevelId, Traversal};
use energy_model::{CacheSpec, PredictorSpec};
use redhip::{
    CbfConfig, CountingBloomFilter, ExactCountingTable, LevelPredictor, OffChipPerceptron,
    PredictionTable, RecalibCost, RecalibrationEngine, WayMemo, LEVEL_MEMORY, LEVEL_UNTRAINED,
};

/// A [`Steer::Lookup`] mask naming every level below L1.
pub(crate) const ALL_LEVELS: u8 = !0;

/// Where a probe sends an L1 miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Steer {
    /// Look up the levels whose bit is set (bit `l` = level `l`), in
    /// order, and fill from memory when none holds the block. A presence
    /// table that proves absence clears every bit: the miss bypasses the
    /// hierarchy.
    Lookup(u8),
    /// Read this level's arrays directly (LevelPred).
    Level(LevelId),
    /// Predicted off chip, to be validated by one LLC tag probe (LevelPred,
    /// Perceptron).
    OffChip,
}

impl Steer {
    /// The walk a presence table's verdict implies: every level, or none.
    fn presence(maybe_present: bool) -> Self {
        Self::Lookup(if maybe_present { ALL_LEVELS } else { 0 })
    }
}

/// The predictor `System` consults on every L1 miss: one variant per
/// concrete table.
pub(crate) enum Predictor {
    /// Base / Phased: no predictor.
    None,
    /// Oracle: consults the LLC directly at zero cost.
    Oracle,
    /// ReDHiP (§III-A): the 1-bit table, and the engine that prices its
    /// recalibration.
    Table {
        table: PredictionTable,
        engine: RecalibrationEngine,
    },
    /// ReDHiP at recalibration period 1 ("perfect recalibration", Fig. 12's
    /// leftmost point): a table rebuilt after every L1 miss is an exactly
    /// counted bits-hash table, maintained incrementally.
    Exact(ExactCountingTable),
    /// Counting Bloom filter tracking LLC residency at equal area.
    Cbf(CountingBloomFilter),
    /// ReDHiP in the fully-exclusive configuration (§III-C).
    Bank(Bank),
    /// LevelPred: steers to the predicted hit level above a confidence
    /// threshold (arXiv:2103.14808).
    LevelPred {
        table: LevelPredictor,
        conf_threshold: u32,
        penalty: u64,
    },
    /// Hashed perceptron gating the DRAM bypass (arXiv:2403.15181).
    Perceptron(OffChipPerceptron),
    /// WayMemo: skips L1 tag-way reads for memoized re-touched blocks
    /// (arXiv:0710.4703). Never steers: the hierarchy walk is exactly
    /// Base's; only the L1 access energy changes.
    WayMemo { memos: Vec<WayMemo>, penalty: u64 },
}

/// Sets of a cache level built from `spec` with 64-byte blocks.
fn sets(spec: &CacheSpec) -> u64 {
    spec.capacity_bytes / 64 / spec.assoc as u64
}

impl Predictor {
    /// Builds the predictor `cfg` selects, sized to its area budget.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        let p = &cfg.platform;
        let pt_bytes = cfg.effective_pt_bytes();
        let pt_spec = p.predictor.scaled_to(pt_bytes);
        match (cfg.mechanism, cfg.policy) {
            (Mechanism::Base | Mechanism::Phased, _) => Self::None,
            (Mechanism::Oracle, _) => Self::Oracle,
            (Mechanism::Cbf, _) => Self::Cbf(CountingBloomFilter::new(CbfConfig::from_budget(
                pt_bytes,
                cfg.cbf.counter_bits,
                cfg.cbf.num_hashes,
            ))),
            (Mechanism::Redhip, InclusionPolicy::Exclusive) => Self::Bank(Bank::new(cfg, &pt_spec)),
            (Mechanism::Redhip, _) if cfg.recalib_period == Some(1) => {
                Self::Exact(ExactCountingTable::from_capacity_bytes(pt_bytes))
            }
            (Mechanism::Redhip, _) => {
                let table = PredictionTable::from_capacity_bytes(pt_bytes);
                let llc = p.llc();
                let engine = RecalibrationEngine::new(
                    sets(llc),
                    llc.assoc,
                    table.lines(),
                    cfg.recalib_banks,
                    llc.tag_energy_nj,
                    pt_spec.access_energy_nj,
                );
                Self::Table { table, engine }
            }
            (Mechanism::LevelPred, _) => Self::LevelPred {
                table: LevelPredictor::from_capacity_bytes(pt_bytes, cfg.level_pred.conf_max),
                conf_threshold: cfg.level_pred.conf_threshold,
                penalty: cfg.level_pred.mispredict_penalty.into(),
            },
            (Mechanism::Perceptron, _) => Self::Perceptron(OffChipPerceptron::from_capacity_bytes(
                pt_bytes,
                p.cores,
                cfg.perceptron.history_bits,
                cfg.perceptron.theta,
            )),
            (Mechanism::WayMemo, _) => Self::WayMemo {
                memos: (0..p.cores)
                    .map(|_| WayMemo::with_entries(u64::from(cfg.way_memo.entries)))
                    .collect(),
                penalty: cfg.way_memo.stale_penalty.into(),
            },
        }
    }

    /// Steers an L1 miss of `block` on `core`; `None` when no predictor is
    /// consulted (Base / Phased). Takes `&self`: training happens only in
    /// [`train`](Self::train), so probing never changes a later verdict.
    #[inline]
    pub(crate) fn probe(
        &self,
        core: usize,
        block: u64,
        hierarchy: &DeepHierarchy,
    ) -> Option<Steer> {
        Some(match self {
            Self::None => return None,
            Self::Oracle => Steer::presence(hierarchy.llc().probe(block)),
            // The branchless probe: one load + mask. A zero bit proves
            // absence (no false negatives, ever).
            Self::Table { table, .. } => Steer::presence(table.test(block)),
            Self::Exact(t) => Steer::presence(t.test(block)),
            Self::Cbf(f) => Steer::presence(f.test(block)),
            Self::Bank(bank) => Steer::Lookup(bank.plan(core, block)),
            Self::LevelPred {
                table,
                conf_threshold,
                ..
            } => {
                let (level, conf) = table.predict(block);
                if level == LEVEL_UNTRAINED || u32::from(conf) < *conf_threshold {
                    Steer::Lookup(ALL_LEVELS)
                } else if level == LEVEL_MEMORY {
                    Steer::OffChip
                } else {
                    Steer::Level(level)
                }
            }
            Self::Perceptron(p) if p.confident_off_chip(p.predict(core, block)) => Steer::OffChip,
            Self::Perceptron(_) | Self::WayMemo { .. } => Steer::Lookup(ALL_LEVELS),
        })
    }

    /// Whether a presence table (ReDHiP, the exact table, CBF) proves
    /// `block` absent from the LLC; `None` for the other predictors. Used
    /// to filter prefetches.
    #[inline]
    pub(crate) fn proves_absent(&self, block: u64) -> Option<bool> {
        match self {
            Self::Table { table, .. } => Some(!table.test(block)),
            Self::Exact(t) => Some(!t.test(block)),
            Self::Cbf(f) => Some(!f.test(block)),
            _ => None,
        }
    }

    /// Learns from the walk that followed a probe: `hit_level` is the
    /// level that served the block, `None` for memory.
    #[inline]
    pub(crate) fn train(&mut self, core: usize, block: u64, hit_level: Option<LevelId>) {
        match self {
            Self::LevelPred { table, .. } => table.train(block, hit_level.unwrap_or(LEVEL_MEMORY)),
            Self::Perceptron(p) => {
                // `predict` is pure and nothing moved since the probe, so
                // the sum the decision was made with is recomputed rather
                // than cached.
                let sum = p.predict(core, block);
                p.train(core, block, sum, hit_level.is_none());
            }
            // Whether the walk hit on chip or filled from memory, the
            // block is now L1-resident.
            Self::WayMemo { memos, .. } => memos[core].record(block),
            _ => {}
        }
    }

    /// Feeds one traversal's cache events to the tables, calling
    /// `write(nj)` once per table write, in event order, with that write's
    /// energy (`pt_nj` for the single-table predictors). ReDHiP's 1-bit
    /// table takes only LLC fills: evictions are ignored by design
    /// (§III-A). The counting tables take LLC fills and evictions. The
    /// bank takes every fill below L1 into the issuing `core`'s tables.
    pub(crate) fn update(
        &mut self,
        core: usize,
        t: &Traversal,
        llc: LevelId,
        pt_nj: f64,
        mut write: impl FnMut(f64),
    ) {
        match self {
            Self::Table { table, .. } => {
                for block in t.inserted_at(llc) {
                    table.set(block);
                    write(pt_nj);
                }
            }
            Self::Exact(p) => count_llc_events(t, llc, pt_nj, write, |block, fill| {
                if fill {
                    p.on_fill(block)
                } else {
                    p.on_evict(block)
                }
            }),
            Self::Cbf(p) => count_llc_events(t, llc, pt_nj, write, |block, fill| {
                if fill {
                    p.on_fill(block)
                } else {
                    p.on_evict(block)
                }
            }),
            Self::Bank(bank) => bank.update(core, t, write),
            _ => {}
        }
    }

    /// L1-hit hook: `Some(memoized)` under WayMemo, saying whether the
    /// hit's tag-way reads are skipped because the block was memoized (a
    /// memo miss records the block: the hit proves residency). `None` for
    /// the predictors that do not observe L1 hits.
    #[inline]
    pub(crate) fn memo_l1_hit(&mut self, core: usize, block: u64) -> Option<bool> {
        let Self::WayMemo { memos, .. } = self else {
            return None;
        };
        let memoized = memos[core].probe(block);
        if !memoized {
            memos[core].record(block);
        }
        Some(memoized)
    }

    /// L1-miss hook: whether a stale WayMemo entry fired, that is, the memo
    /// promised L1 residency but the access missed. Clears the entry.
    #[inline]
    pub(crate) fn memo_stale(&mut self, core: usize, block: u64) -> bool {
        let Self::WayMemo { memos, .. } = self else {
            return false;
        };
        let stale = memos[core].probe(block);
        if stale {
            memos[core].clear(block);
        }
        stale
    }

    /// Extra cycles charged when a confident steer or a stale memo entry
    /// turns out wrong.
    pub(crate) fn mispredict_penalty(&self) -> u64 {
        match self {
            Self::LevelPred { penalty, .. } | Self::WayMemo { penalty, .. } => *penalty,
            _ => 0,
        }
    }

    /// Energy of one probe, nJ; `None` when probes are free (Oracle) or
    /// there is no predictor. The bank reads every table at once.
    pub(crate) fn probe_nj(&self, pt_spec: &PredictorSpec) -> Option<f64> {
        match self {
            Self::None | Self::Oracle => None,
            Self::Bank(bank) => Some(bank.probe_nj),
            _ => Some(pt_spec.access_energy_nj),
        }
    }

    /// Whether periodic recalibration applies.
    pub(crate) fn recalibrates(&self) -> bool {
        matches!(
            self,
            Self::Table { .. } | Self::Bank(_) | Self::WayMemo { .. }
        )
    }

    /// Recalibrates from the hierarchy's contents and returns the modelled
    /// hardware cost; `None` when no engine is modelled.
    pub(crate) fn recalibrate(&mut self, hierarchy: &DeepHierarchy) -> Option<RecalibCost> {
        let cost = match self {
            Self::Bank(bank) => return Some(bank.recalibrate(hierarchy)),
            Self::Table { engine, .. } => Some(engine.cost()),
            // WayMemo's scrub is a metadata sweep with no engine model
            // yet, so it is free (like the Oracle's knowledge refresh).
            _ => None,
        };
        self.rebuild(hierarchy.llc().resident_blocks());
        cost
    }

    /// Rebuilds the LLC-tracking state from the LLC-resident block set:
    /// ReDHiP's table re-derives every bit, WayMemo drops every entry
    /// whose block left (the hierarchy is inclusive, L1 ⊆ LLC, so that
    /// covers every entry that could be stale). Idempotent and independent
    /// of the iteration order.
    fn rebuild(&mut self, resident: impl Iterator<Item = u64>) {
        match self {
            Self::Table { table, .. } => table.recalibrate_from(resident),
            Self::WayMemo { memos, .. } => {
                let resident: Vec<u64> = resident.collect();
                for m in memos {
                    m.retain(resident.iter().copied());
                }
            }
            _ => {}
        }
    }
}

/// Feeds a counting table the LLC fills and then the LLC evictions of `t`:
/// `count(block, true)` per fill, `count(block, false)` per eviction.
fn count_llc_events(
    t: &Traversal,
    llc: LevelId,
    nj: f64,
    mut write: impl FnMut(f64),
    mut count: impl FnMut(u64, bool),
) {
    for block in t.inserted_at(llc) {
        count(block, true);
        write(nj);
    }
    for block in t.removed_at(llc) {
        count(block, false);
        write(nj);
    }
}

/// The §III-C fully-exclusive configuration: one scaled 1-bit table per
/// cache. Table `(level-1) * cores + core` covers a private level of one
/// core; the last table covers the shared LLC.
pub(crate) struct Bank {
    tables: Vec<PredictionTable>,
    /// Per-table write energy, nJ (same order as the tables).
    write_nj: Vec<f64>,
    /// Per-table recalibration engines (same order).
    engines: Vec<RecalibrationEngine>,
    /// Energy of one probe, which reads every table at once.
    probe_nj: f64,
    cores: usize,
    llc: LevelId,
}

impl Bank {
    fn new(cfg: &SimConfig, pt_spec: &PredictorSpec) -> Self {
        let p = &cfg.platform;
        let ratio = cfg.effective_pt_bytes() as f64 / p.llc().capacity_bytes as f64;
        let cores = p.cores;
        let levels = p.levels.len();
        // Private levels L2..L(n-1), one table per core each, then the LLC.
        let covered: Vec<&CacheSpec> = (1..levels - 1)
            .flat_map(|lvl| std::iter::repeat_n(&p.levels[lvl], cores))
            .chain([p.llc()])
            .collect();
        let tables: Vec<PredictionTable> = covered
            .iter()
            .map(|s| PredictionTable::with_overhead_ratio(s.capacity_bytes, ratio))
            .collect();
        let mut write_nj = Vec::with_capacity(tables.len());
        let mut engines = Vec::with_capacity(tables.len());
        for (spec, table) in covered.into_iter().zip(&tables) {
            let nj = pt_spec.scaled_to(table.capacity_bytes()).access_energy_nj;
            write_nj.push(nj);
            engines.push(RecalibrationEngine::new(
                sets(spec),
                spec.assoc,
                table.lines(),
                cfg.recalib_banks,
                spec.tag_energy_nj.max(spec.data_energy_nj * 0.2),
                nj,
            ));
        }
        Self {
            probe_nj: write_nj.iter().sum(),
            tables,
            write_nj,
            engines,
            cores,
            llc: (levels - 1) as LevelId,
        }
    }

    /// The table covering `level` for `core`.
    fn index(&self, level: LevelId, core: usize) -> usize {
        if level == self.llc {
            self.tables.len() - 1
        } else {
            (level as usize - 1) * self.cores + core
        }
    }

    /// The levels whose table may hold `block`, as a [`Steer::Lookup`]
    /// mask. All tables are read at once.
    fn plan(&self, core: usize, block: u64) -> u8 {
        let mut levels = 0;
        for lvl in 1..=self.llc {
            if self.tables[self.index(lvl, core)].test(block) {
                levels |= 1 << lvl;
            }
        }
        levels
    }

    /// 1-bit tables: only fills matter (recalibration clears staleness);
    /// L1 has no table.
    fn update(&mut self, core: usize, t: &Traversal, mut write: impl FnMut(f64)) {
        for &(lvl, block) in t.inserted.iter() {
            if lvl == 0 {
                continue;
            }
            let idx = self.index(lvl, core);
            self.tables[idx].set(block);
            write(self.write_nj[idx]);
        }
    }

    /// Rebuilds every table from its cache. The engines run in parallel:
    /// the stall is the slowest one's, the energy is their sum.
    fn recalibrate(&mut self, hierarchy: &DeepHierarchy) -> RecalibCost {
        let mut cycles = 0u64;
        let mut energy_nj = 0.0;
        for lvl in 1..self.llc {
            for core in 0..self.cores {
                let idx = self.index(lvl, core);
                let cache = hierarchy.private_cache(core, lvl);
                self.tables[idx].recalibrate_from(cache.resident_blocks());
                let cost = self.engines[idx].cost();
                cycles = cycles.max(cost.cycles);
                energy_nj += cost.energy_nj;
            }
        }
        let idx = self.tables.len() - 1;
        self.tables[idx].recalibrate_from(hierarchy.llc().resident_blocks());
        let cost = self.engines[idx].cost();
        RecalibCost {
            cycles: cycles.max(cost.cycles),
            energy_nj: energy_nj + cost.energy_nj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use energy_model::presets::demo_scale;

    #[test]
    fn new_builds_the_predictor_the_config_selects() {
        let build = |mechanism, configure: fn(&mut SimConfig)| {
            let mut cfg = SimConfig::new(demo_scale(), mechanism);
            configure(&mut cfg);
            Predictor::new(&cfg)
        };
        let inclusive = |_: &mut SimConfig| {};
        let period1 = |cfg: &mut SimConfig| cfg.recalib_period = Some(1);
        let exclusive = |cfg: &mut SimConfig| cfg.policy = InclusionPolicy::Exclusive;
        let hybrid = |cfg: &mut SimConfig| cfg.policy = InclusionPolicy::Hybrid;
        assert!(matches!(build(Mechanism::Base, inclusive), Predictor::None));
        assert!(matches!(
            build(Mechanism::Phased, inclusive),
            Predictor::None
        ));
        assert!(matches!(
            build(Mechanism::Oracle, inclusive),
            Predictor::Oracle
        ));
        assert!(matches!(
            build(Mechanism::Redhip, inclusive),
            Predictor::Table { .. }
        ));
        assert!(matches!(
            build(Mechanism::Redhip, hybrid),
            Predictor::Table { .. }
        ));
        assert!(matches!(
            build(Mechanism::Redhip, period1),
            Predictor::Exact(_)
        ));
        assert!(matches!(
            build(Mechanism::Redhip, exclusive),
            Predictor::Bank(_)
        ));
        assert!(matches!(
            build(Mechanism::Cbf, inclusive),
            Predictor::Cbf(_)
        ));
        assert!(matches!(
            build(Mechanism::LevelPred, inclusive),
            Predictor::LevelPred { .. }
        ));
        assert!(matches!(
            build(Mechanism::Perceptron, inclusive),
            Predictor::Perceptron(_)
        ));
        assert!(matches!(
            build(Mechanism::WayMemo, inclusive),
            Predictor::WayMemo { .. }
        ));
    }

    // ---- conformance: the predictors `System` steps ----------------------

    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Blocks the histories draw from: few enough that replays, resident
    /// sets and fingerprints touch the same table entries and memo slots.
    const BLOCKS: u64 = 1 << 12;

    /// Every predictor with state: ReDHiP's table, the exact table
    /// (period 1), CBF, LevelPred, Perceptron and WayMemo.
    fn conformance_configs() -> Vec<SimConfig> {
        let mut cfgs: Vec<SimConfig> = crate::MECHANISMS
            .iter()
            .filter(|r| r.has_predictor)
            .map(|r| SimConfig::new(demo_scale(), r.mechanism))
            .collect();
        let mut exact = SimConfig::new(demo_scale(), Mechanism::Redhip);
        exact.recalib_period = Some(1);
        cfgs.push(exact);
        cfgs
    }

    /// Runs `check` on a pair of fresh predictors for every conformance
    /// config, with a hierarchy to probe against. The label names the
    /// config in assertion messages.
    fn for_each_pair(mut check: impl FnMut(&str, &DeepHierarchy, Predictor, Predictor)) {
        let configs = conformance_configs();
        let hierarchy = DeepHierarchy::new(&crate::system::hierarchy_config(&configs[0]));
        for cfg in &configs {
            let label = format!(
                "{} period {:?}",
                crate::spec_string(cfg),
                cfg.recalib_period
            );
            check(&label, &hierarchy, Predictor::new(cfg), Predictor::new(cfg));
        }
    }

    /// Replays a deterministic access history into `p` through the calls
    /// `System` makes: the WayMemo L1 hooks, probes, training on a random
    /// outcome, and LLC fills and evictions. Two predictors fed the same
    /// seed see the same history. Like an inclusive LLC, the history only
    /// evicts a block it filled earlier and has not evicted since.
    fn replay(p: &mut Predictor, h: &DeepHierarchy, seed: u64, n: usize) {
        let llc = h.llc_level();
        let mut st = seed;
        let mut filled: Vec<u64> = Vec::new();
        let mut t = Traversal::new();
        for _ in 0..n {
            let block = splitmix(&mut st) % BLOCKS;
            let core = (splitmix(&mut st) % 2) as usize;
            if splitmix(&mut st).is_multiple_of(4) && p.memo_l1_hit(core, block).is_some() {
                continue;
            }
            let _ = p.probe(core, block, h);
            let _ = p.memo_stale(core, block);
            let hit_level = match splitmix(&mut st) % 5 {
                0 => None,
                k => Some((k - 1) as u8),
            };
            p.train(core, block, hit_level);
            t.clear();
            if splitmix(&mut st).is_multiple_of(3) {
                t.inserted.push((llc, block));
                filled.push(block);
            }
            if splitmix(&mut st).is_multiple_of(7) && !filled.is_empty() {
                let victim = (splitmix(&mut st) % filled.len() as u64) as usize;
                t.removed.push((llc, filled.swap_remove(victim)));
            }
            p.update(core, &t, llc, 1.0, |_| {});
        }
    }

    /// Observable fingerprint of a predictor's state: steers and memo
    /// verdicts over a fixed probe set. The memo hook records blocks, so
    /// the fingerprint is only comparable between predictors that run it
    /// over the same sequence, which is how it is used.
    fn fingerprint(p: &mut Predictor, h: &DeepHierarchy, seed: u64) -> Vec<(Steer, Option<bool>)> {
        let mut st = seed;
        (0..512)
            .map(|_| {
                let block = splitmix(&mut st) % BLOCKS;
                let steer = p.probe(0, block, h).expect("a stateful predictor");
                (steer, p.memo_l1_hit(0, block))
            })
            .collect()
    }

    fn resident_set(st: &mut u64) -> Vec<u64> {
        (0..600).map(|_| splitmix(st) % BLOCKS).collect()
    }

    /// Construction is deterministic and training is a pure function of
    /// the history: two instances fed the same history fingerprint alike.
    #[test]
    fn identical_histories_produce_identical_state() {
        for_each_pair(|label, h, mut a, mut b| {
            replay(&mut a, h, 0xF00D, 4_000);
            replay(&mut b, h, 0xF00D, 4_000);
            assert_eq!(
                fingerprint(&mut a, h, 0x5A17),
                fingerprint(&mut b, h, 0x5A17),
                "{label}: same history, different state"
            );
        });
    }

    /// Probing is pure: repeated probes of a block agree, and a burst of
    /// probes changes no later verdict.
    #[test]
    fn probe_is_state_pure() {
        for_each_pair(|label, h, mut a, mut b| {
            replay(&mut a, h, 0xCAFE, 4_000);
            replay(&mut b, h, 0xCAFE, 4_000);
            let mut st = 0x9090u64;
            for _ in 0..256 {
                let block = splitmix(&mut st) % BLOCKS;
                let first = a.probe(0, block, h);
                for _ in 0..8 {
                    assert_eq!(a.probe(0, block, h), first, "{label}: probe flip-flopped");
                }
            }
            assert_eq!(
                fingerprint(&mut a, h, 0x7E57),
                fingerprint(&mut b, h, 0x7E57),
                "{label}: probing perturbed state"
            );
        });
    }

    /// Recalibrating twice from one resident set leaves the same state as
    /// recalibrating once.
    #[test]
    fn recalibration_is_idempotent() {
        let mut st = 0x1D34u64;
        for_each_pair(|label, h, mut once, mut twice| {
            let resident = resident_set(&mut st);
            replay(&mut once, h, 0xBEEF, 4_000);
            replay(&mut twice, h, 0xBEEF, 4_000);
            if !once.recalibrates() {
                return;
            }
            once.rebuild(resident.iter().copied());
            twice.rebuild(resident.iter().copied());
            twice.rebuild(resident.iter().copied());
            assert_eq!(
                fingerprint(&mut once, h, 0x1111),
                fingerprint(&mut twice, h, 0x1111),
                "{label}: recalibration is not idempotent"
            );
        });
    }

    /// The rebuilt state depends on the resident *set*, not on the sweep
    /// order the hardware happens to use.
    #[test]
    fn recalibration_is_order_independent() {
        let mut st = 0x0DD5u64;
        for_each_pair(|label, h, mut a, mut b| {
            let forward = resident_set(&mut st);
            let reversed: Vec<u64> = forward.iter().rev().copied().collect();
            replay(&mut a, h, 0xABBA, 4_000);
            replay(&mut b, h, 0xABBA, 4_000);
            if !a.recalibrates() {
                return;
            }
            a.rebuild(forward.into_iter());
            b.rebuild(reversed.into_iter());
            assert_eq!(
                fingerprint(&mut a, h, 0x2222),
                fingerprint(&mut b, h, 0x2222),
                "{label}: recalibration depends on sweep order"
            );
        });
    }
}
