//! The system model: cores, hierarchy, predictor, prefetcher, accounting.

use crate::config::{Mechanism, SimConfig};
use crate::predictor::{build_state, PredictorState, Steer, WalkOutcome};
use crate::stats::{PredictionStats, PrefetchSummary};
use cache_sim::hierarchy::{DeepHierarchy, HierarchyConfig};
use cache_sim::traversal::{LevelId, Traversal, MEMORY};
use cache_sim::CacheConfig;
use energy_model::{EnergyAccount, PredictorSpec};
use mem_trace::record::TraceRecord;
use prefetch::StridePrefetcher;
use redhip::{Prediction, RecalibrationEngine};
use std::collections::HashSet;
use telemetry::{NullObserver, SimObserver};

/// Energy of one reference-prediction-table (prefetcher) access, nJ. Not in
/// Table I; estimated as half the prediction table's access energy (the RPT
/// is a comparably small SRAM structure). Affects only the prefetch studies
/// and is identical across mechanisms.
const RPT_ACCESS_NJ: f64 = 0.01;

/// A complete simulated machine processing one record at a time.
///
/// Generic over a [`SimObserver`] for telemetry; the default
/// [`NullObserver`] keeps the uninstrumented hot path (hook calls inline
/// to nothing and, where hook arguments cost anything to compute —
/// per-reference energy deltas — `O::ENABLED` skips the computation).
pub struct System<O: SimObserver = NullObserver> {
    cfg: SimConfig,
    obs: O,
    hierarchy: DeepHierarchy,
    predictor: PredictorState,
    prefetchers: Vec<StridePrefetcher>,
    energy: EnergyAccount,
    clocks: Vec<f64>,
    block_bits: u32,
    l1_misses_since_recalib: u64,
    pred_stats: PredictionStats,
    pf_summary: PrefetchSummary,
    pt_spec: PredictorSpec,
    recalib_engine: Option<RecalibrationEngine>,
    /// Precomputed L1-hit pricing (the mechanism's lookup flavour applied
    /// to level 0), so the dominant fast path skips `absorb_and_price`.
    l1_hit_nj: f64,
    l1_hit_cycles: u64,
    /// Miss count at which recalibration fires; `u64::MAX` when the
    /// mechanism never recalibrates. Folding the predictor-kind match into
    /// one constant makes the per-reference due-check a single compare.
    recalib_threshold: u64,
    /// Whether the L1-hit fast path consults the custom predictor
    /// (WayMemo observes every L1 access to skip tag-way reads).
    custom_l1: bool,
    /// Precomputed single-way L1 read energy (a memoized hit's price).
    way_hit_nj: f64,
    /// Blocks brought in by prefetch and not yet demanded (usefulness).
    prefetched: HashSet<u64>,
    // Reusable scratch.
    t: Traversal,
    pf_t: Traversal,
    pf_buf: Vec<u64>,
    steer_buf: Vec<(LevelId, bool)>,
}

impl System {
    /// Builds a system for `cfg` with the no-op [`NullObserver`].
    ///
    /// # Panics
    /// Panics when `cfg.validate()` fails.
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_observer(cfg, NullObserver)
    }
}

impl<O: SimObserver> System<O> {
    /// Builds a system for `cfg` that reports telemetry to `obs`.
    ///
    /// # Panics
    /// Panics when `cfg.validate()` fails.
    pub fn with_observer(cfg: SimConfig, obs: O) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        let p = &cfg.platform;
        let block = 64u64;
        let hier_cfg = HierarchyConfig {
            cores: p.cores,
            private_levels: p.levels[..p.levels.len() - 1]
                .iter()
                .map(|l| CacheConfig {
                    capacity_bytes: l.capacity_bytes,
                    assoc: l.assoc,
                    block_bytes: block,
                    policy: cfg.replacement,
                })
                .collect(),
            shared_llc: {
                let l = p.llc();
                CacheConfig {
                    capacity_bytes: l.capacity_bytes,
                    assoc: l.assoc,
                    block_bytes: block,
                    policy: cfg.replacement,
                }
            },
            policy: cfg.policy,
        };
        let hierarchy = DeepHierarchy::new(&hier_cfg);

        let pt_bytes = cfg.effective_pt_bytes();
        let pt_spec = p.predictor.scaled_to(pt_bytes);
        let llc_geom = hier_cfg.shared_llc.geometry();
        let llc_sets = llc_geom.sets();
        let llc_assoc = hier_cfg.shared_llc.assoc;

        let (predictor, recalib_engine) = build_state(&cfg, &pt_spec, llc_sets, llc_assoc);

        let prefetchers = match cfg.prefetch {
            Some(sc) => (0..p.cores).map(|_| StridePrefetcher::new(sc)).collect(),
            None => Vec::new(),
        };

        let recalib_threshold = match (&predictor, cfg.recalib_period) {
            (PredictorState::Table(_), Some(period)) => period,
            (PredictorState::Single(p), Some(period)) if p.supports_recalibration() => period,
            (PredictorState::Multi { .. }, Some(period)) => period,
            (PredictorState::Custom(p), Some(period)) if p.supports_recalibration() => period,
            _ => u64::MAX,
        };

        let custom_l1 = matches!(&predictor, PredictorState::Custom(p) if p.observes_l1_hits());

        // Price the L1 hit once, mirroring `absorb_and_price` exactly for a
        // `(0, true)` lookup under this mechanism.
        let l0 = &p.levels[0];
        let (l1_hit_nj, l1_hit_cycles) =
            if cfg.mechanism == Mechanism::Phased && l0.tag_energy_nj > 0.0 {
                (l0.phased_lookup_nj(true), l0.phased_latency(true))
            } else {
                (l0.parallel_lookup_nj(), l0.parallel_latency(true))
            };

        let levels = p.levels.len();
        let way_hit_nj = p.levels[0].way_lookup_nj();
        Self {
            obs,
            hierarchy,
            predictor,
            prefetchers,
            energy: EnergyAccount::new(levels),
            clocks: vec![0.0; p.cores],
            block_bits: 6,
            l1_misses_since_recalib: 0,
            pred_stats: PredictionStats::default(),
            pf_summary: PrefetchSummary::default(),
            pt_spec,
            recalib_engine,
            l1_hit_nj,
            l1_hit_cycles,
            recalib_threshold,
            custom_l1,
            way_hit_nj,
            prefetched: HashSet::new(),
            t: Traversal::new(),
            pf_t: Traversal::new(),
            pf_buf: Vec::new(),
            steer_buf: Vec::new(),
            cfg,
        }
    }

    /// Processes one trace record on `core`.
    pub fn step(&mut self, core: usize, rec: &TraceRecord) {
        let mut t = std::mem::take(&mut self.t);
        self.step_with(core, rec, &mut t);
        self.t = t;
    }

    /// Like [`System::step`], but uses caller-provided traversal scratch:
    /// the run harness owns one and skips the per-reference swap. Returns
    /// the stepping core's updated clock so the scheduler's inner loop can
    /// compare against its batch bound without re-reading the clock array.
    pub fn step_with(&mut self, core: usize, rec: &TraceRecord, t: &mut Traversal) -> f64 {
        // Energy delta for telemetry: snapshot before any charging. Gated
        // on `O::ENABLED` so the default path never sums the accumulators.
        let energy_before = if O::ENABLED {
            self.energy.total_dynamic_nj()
        } else {
            0.0
        };
        let block = rec.addr >> self.block_bits;
        let store = rec.op.is_store();
        self.clocks[core] += f64::from(rec.gap) * self.cfg.avg_cpi;

        // Fast path: an L1 hit is exactly one lookup event — count, price,
        // and report it directly, with no traversal bookkeeping. (On a hit
        // there are no fills, writebacks, probes, or predictor events.)
        if self.hierarchy.try_first_hit(core, block, store) {
            if self.custom_l1 {
                // WayMemo consults the memo on every L1 access: a memoized
                // hit reads a single way (cheaper); a miss reads all ways
                // at the standard price and records the block. Latency is
                // unchanged either way — the optimization is energy-only.
                let PredictorState::Custom(p) = &mut self.predictor else {
                    unreachable!("custom_l1 implies a custom predictor")
                };
                self.pred_stats.lookups += 1;
                if p.l1_hit_memoized(core, block) {
                    self.pred_stats.bypasses += 1;
                    self.energy.add_level(0, self.way_hit_nj);
                    metrics::PRED_MEMO_SKIPS.incr();
                } else {
                    self.energy.add_level(0, self.l1_hit_nj);
                }
            } else {
                self.energy.add_level(0, self.l1_hit_nj);
            }
            let latency = self.l1_hit_cycles;
            self.clocks[core] += latency as f64;
            if O::ENABLED {
                self.obs.on_level_access(core, 0, true);
            }
            if !self.prefetched.is_empty() && self.prefetched.remove(&block) {
                self.pf_summary.useful += 1;
            }
            if !self.prefetchers.is_empty() {
                self.do_prefetch(core, rec);
            }
            if O::ENABLED {
                let delta = self.energy.total_dynamic_nj() - energy_before;
                self.obs.on_ref(core, latency, delta);
            }
            if self.recalibration_due() {
                self.recalibrate();
            }
            return self.clocks[core];
        }

        // Overlap the host-memory reads of the deeper levels' arrays with
        // the bookkeeping between here and the walk.
        self.hierarchy.prefetch_walk_sets(core, block);
        t.clear();
        // The miss the fast path just observed; a missed L1 probe has no
        // side effects, so it is logged rather than repeated.
        t.lookups.push((0, false));
        self.l1_misses_since_recalib += 1;
        self.dispatch_l1_miss(core, block, store, t);
        self.apply_predictor_updates(core, t);
        let latency = self.absorb_and_price(t);
        self.clocks[core] += latency as f64;
        if O::ENABLED {
            // Mirror exactly what `absorb_stats` aggregates (demand
            // traversal only), so summed window counters reproduce
            // `HierarchyStats` without drift.
            for &(lvl, hit) in &t.lookups {
                self.obs.on_level_access(core, lvl, hit);
            }
            for &lvl in &t.fills {
                self.obs.on_fill(core, lvl);
            }
        }

        // Usefulness: a demand touch consumes the prefetched marker.
        if !self.prefetched.is_empty() && self.prefetched.remove(&block) {
            self.pf_summary.useful += 1;
        }

        if !self.prefetchers.is_empty() {
            self.do_prefetch(core, rec);
        }

        // The reference is complete here; recalibration (below) happens
        // *between* references, so its energy rides on the recalibration
        // marker rather than this reference's delta.
        if O::ENABLED {
            let delta = self.energy.total_dynamic_nj() - energy_before;
            self.obs.on_ref(core, latency, delta);
        }

        if self.recalibration_due() {
            self.recalibrate();
        }
        self.clocks[core]
    }

    fn dispatch_l1_miss(&mut self, core: usize, block: u64, store: bool, t: &mut Traversal) {
        match self.cfg.mechanism {
            Mechanism::Base | Mechanism::Phased => {
                self.walk(core, block, store, t);
            }
            Mechanism::Oracle => {
                self.pred_stats.lookups += 1;
                if self.hierarchy.llc().probe(block) {
                    let hit = self.walk(core, block, store, t);
                    debug_assert!(hit, "oracle: inclusive LLC residency implies on-chip hit");
                    self.pred_stats.walk_hits += 1;
                    self.obs.on_walk_hit(core);
                } else {
                    self.pred_stats.bypasses += 1;
                    self.obs.on_bypass(core);
                    self.hierarchy.fill_from_memory(core, block, store, t);
                }
            }
            Mechanism::Redhip | Mechanism::Cbf => match &self.predictor {
                PredictorState::Table(table) => {
                    self.pred_stats.lookups += 1;
                    if self.cfg.count_prediction_overhead {
                        self.energy.add_predictor(self.pt_spec.access_energy_nj);
                        self.clocks[core] += self.pt_spec.lookup_latency() as f64;
                    }
                    // The branchless probe: one load + mask. A zero bit
                    // proves absence (no false negatives, ever).
                    if table.test(block) {
                        if self.walk(core, block, store, t) {
                            self.pred_stats.walk_hits += 1;
                            self.obs.on_walk_hit(core);
                        } else {
                            self.pred_stats.false_positives += 1;
                            self.obs.on_false_positive(core);
                        }
                    } else {
                        debug_assert!(
                            !self.hierarchy.llc().probe(block),
                            "false negative: bypassed a resident block"
                        );
                        self.pred_stats.bypasses += 1;
                        self.obs.on_bypass(core);
                        self.hierarchy.fill_from_memory(core, block, store, t);
                    }
                }
                PredictorState::Single(p) => {
                    self.pred_stats.lookups += 1;
                    if self.cfg.count_prediction_overhead {
                        self.energy.add_predictor(self.pt_spec.access_energy_nj);
                        self.clocks[core] += self.pt_spec.lookup_latency() as f64;
                    }
                    let prediction = p.predict(block);
                    match prediction {
                        Prediction::Absent => {
                            debug_assert!(
                                !self.hierarchy.llc().probe(block),
                                "false negative: bypassed a resident block"
                            );
                            self.pred_stats.bypasses += 1;
                            self.obs.on_bypass(core);
                            self.hierarchy.fill_from_memory(core, block, store, t);
                        }
                        Prediction::MaybePresent => {
                            if self.walk(core, block, store, t) {
                                self.pred_stats.walk_hits += 1;
                                self.obs.on_walk_hit(core);
                            } else {
                                self.pred_stats.false_positives += 1;
                                self.obs.on_false_positive(core);
                            }
                        }
                    }
                }
                PredictorState::Multi { bank, specs, .. } => {
                    self.pred_stats.lookups += 1;
                    if self.cfg.count_prediction_overhead {
                        // All tables consulted simultaneously: energy for
                        // each, latency of one round trip.
                        let nj: f64 = specs.iter().map(|s| s.access_energy_nj).sum();
                        self.energy.add_predictor(nj);
                        self.clocks[core] += self.pt_spec.lookup_latency() as f64;
                    }
                    let levels = self.hierarchy.levels();
                    let mut plan = [false; 8];
                    for lvl in 1..levels {
                        let idx = self.multi_index(lvl, core);
                        plan[lvl as usize] = bank.predict(idx, block) == Prediction::MaybePresent;
                    }
                    let mut hit = false;
                    for lvl in 1..levels {
                        if !plan[lvl as usize] {
                            continue;
                        }
                        if self.hierarchy.lookup(core, lvl, block, t) {
                            self.hierarchy.promote(core, lvl, block, store, t);
                            hit = true;
                            break;
                        }
                    }
                    if hit {
                        self.pred_stats.walk_hits += 1;
                        self.obs.on_walk_hit(core);
                    } else {
                        if t.lookups.len() == 1 {
                            self.pred_stats.bypasses += 1;
                            self.obs.on_bypass(core);
                        } else {
                            self.pred_stats.false_positives += 1;
                            self.obs.on_false_positive(core);
                        }
                        self.hierarchy.fill_from_memory(core, block, store, t);
                    }
                }
                _ => unreachable!("Redhip/Cbf always instantiate a predictor"),
            },
            Mechanism::LevelPred | Mechanism::Perceptron | Mechanism::WayMemo => {
                self.dispatch_custom(core, block, store, t);
            }
        }
    }

    /// Registry-mechanism dispatch. The walk below always runs in exact
    /// Base order, so hierarchy *state* (fills, promotions, evictions,
    /// LRU) is identical to Base; the steer only rewrites which array
    /// lookups get *charged*. The charged list keeps exactly one
    /// `(level, hit=true)` entry — at the actual service level — iff the
    /// request hit on chip, so per-level hit totals are conserved against
    /// Base; steering probes that did not serve the data are charged as
    /// tag-resolving `(level, false)` accesses.
    fn dispatch_custom(&mut self, core: usize, block: u64, store: bool, t: &mut Traversal) {
        // Swap the predictor out so `self.walk` can borrow the rest of
        // the machine; restored below.
        let mut state = std::mem::replace(&mut self.predictor, PredictorState::None);
        let PredictorState::Custom(p) = &mut state else {
            unreachable!("registry mechanisms always instantiate a custom predictor")
        };
        self.pred_stats.lookups += 1;
        metrics::PRED_PROBES.incr();
        if self.cfg.count_prediction_overhead {
            // Equal-area comparison: the contender's probe is charged at
            // the prediction table's access energy and latency.
            self.energy.add_predictor(self.pt_spec.access_energy_nj);
            self.clocks[core] += self.pt_spec.lookup_latency() as f64;
        }
        if p.observes_l1_hits() && p.l1_stale_memo(core, block) {
            // A stale memo entry read a single way before discovering the
            // miss: charge the wasted way read plus the stale penalty.
            self.energy.add_level(0, self.way_hit_nj);
            self.clocks[core] += p.mispredict_penalty_cycles() as f64;
            self.pred_stats.false_positives += 1;
            self.obs.on_false_positive(core);
            metrics::PRED_MISPREDICTS.incr();
        }
        let steer = p.probe(core, block);
        let hit = self.walk(core, block, store, t);
        p.train(
            core,
            block,
            WalkOutcome {
                hit_level: t.hit_level,
            },
        );
        match steer {
            Steer::Walk => {
                // Charged exactly as walked — the Base lookup list.
                if hit {
                    self.pred_stats.walk_hits += 1;
                    self.obs.on_walk_hit(core);
                } else {
                    self.pred_stats.false_positives += 1;
                    self.obs.on_false_positive(core);
                }
            }
            Steer::Level(lvl) if t.hit_level == Some(lvl) => {
                // Correct steer: the only charged lookups are the L1 miss
                // and the direct access to the predicted level.
                metrics::PRED_STEERED.incr();
                self.steer_buf.clear();
                self.steer_buf.push((lvl, true));
                self.rewrite_lookups(t);
                self.pred_stats.walk_hits += 1;
                self.obs.on_walk_hit(core);
            }
            Steer::Level(lvl) => {
                // Wrong steer: the direct access tag-misses, then the
                // machine falls back to the full walk and pays a penalty.
                metrics::PRED_STEERED.incr();
                metrics::PRED_MISPREDICTS.incr();
                self.steer_buf.clear();
                self.steer_buf.push((lvl, false));
                self.steer_buf.extend(t.lookups.iter().skip(1).copied());
                self.rewrite_lookups(t);
                self.clocks[core] += p.mispredict_penalty_cycles() as f64;
                self.pred_stats.false_positives += 1;
                self.obs.on_false_positive(core);
            }
            Steer::OffChip if !hit => {
                // Correct off-chip steer: one LLC tag probe validates the
                // bypass (no no-false-negative guarantee to lean on), then
                // memory serves the request.
                metrics::PRED_STEERED.incr();
                self.steer_buf.clear();
                self.steer_buf.push((self.hierarchy.llc_level(), false));
                self.rewrite_lookups(t);
                self.pred_stats.bypasses += 1;
                self.obs.on_bypass(core);
            }
            Steer::OffChip => {
                // The LLC validation probe tag-resolves the block on chip:
                // the bypass is cancelled, the full walk is paid, plus the
                // penalty.
                metrics::PRED_STEERED.incr();
                metrics::PRED_MISPREDICTS.incr();
                self.steer_buf.clear();
                self.steer_buf.push((self.hierarchy.llc_level(), false));
                self.steer_buf.extend(t.lookups.iter().skip(1).copied());
                self.rewrite_lookups(t);
                self.clocks[core] += p.mispredict_penalty_cycles() as f64;
                self.pred_stats.false_positives += 1;
                self.obs.on_false_positive(core);
            }
        }
        self.predictor = state;
    }

    /// Replaces `t.lookups` with the L1 miss followed by `steer_buf` (the
    /// charged list `dispatch_custom` assembled).
    fn rewrite_lookups(&mut self, t: &mut Traversal) {
        t.lookups.clear();
        t.lookups.push((0, false));
        t.lookups.extend(self.steer_buf.iter().copied());
    }

    /// Walks every level below L1 in order; promotes on hit. Returns
    /// whether the request hit on chip (and fills from memory otherwise).
    fn walk(&mut self, core: usize, block: u64, store: bool, t: &mut Traversal) -> bool {
        let levels = self.hierarchy.levels();
        for lvl in 1..levels {
            if self.hierarchy.lookup(core, lvl, block, t) {
                self.hierarchy.promote(core, lvl, block, store, t);
                return true;
            }
        }
        self.hierarchy.fill_from_memory(core, block, store, t);
        false
    }

    /// Table index in the exclusive bank for `(level, core)`. Layout
    /// follows `build_multi`: private level `l` occupies indices
    /// `(l-1)·cores ..`, the shared LLC takes the final slot.
    fn multi_index(&self, level: LevelId, core: usize) -> usize {
        let cores = self.cfg.platform.cores;
        let levels = self.cfg.platform.levels.len();
        if level as usize == levels - 1 {
            (levels - 2) * cores
        } else {
            (level as usize - 1) * cores + core
        }
    }

    /// Feeds insert/remove events to the predictor. `core` is the issuing
    /// core: in the exclusive configuration (the only one with per-core
    /// tables) every private-level event of a traversal belongs to it.
    fn apply_predictor_updates(&mut self, core: usize, t: &Traversal) {
        let overhead = self.cfg.count_prediction_overhead;
        match &mut self.predictor {
            PredictorState::Table(table) => {
                // 1-bit entries: only LLC fills matter; evictions are
                // intentionally ignored (§III-A).
                let llc = self.hierarchy.llc_level();
                for &(lvl, block) in t.inserted.iter() {
                    if lvl == llc {
                        table.set(block);
                        self.pred_stats.updates += 1;
                        if overhead {
                            self.energy.add_predictor(self.pt_spec.access_energy_nj);
                        }
                    }
                }
            }
            PredictorState::Single(p) => {
                let llc = self.hierarchy.llc_level();
                for (lvl, block) in t.inserted.iter().copied() {
                    if lvl == llc {
                        p.on_fill(block);
                        self.pred_stats.updates += 1;
                        if overhead {
                            self.energy.add_predictor(self.pt_spec.access_energy_nj);
                        }
                    }
                }
                if p.wants_eviction_events() {
                    for (lvl, block) in t.removed.iter().copied() {
                        if lvl == llc {
                            p.on_evict(block);
                            self.pred_stats.updates += 1;
                            if overhead {
                                self.energy.add_predictor(self.pt_spec.access_energy_nj);
                            }
                        }
                    }
                }
            }
            PredictorState::Multi { .. } => {
                // 1-bit tables: only fills matter (recalibration clears
                // staleness); L1 has no table.
                for i in 0..t.inserted.len() {
                    let (lvl, block) = t.inserted[i];
                    if lvl == 0 {
                        continue;
                    }
                    let idx = self.multi_index(lvl, core);
                    let PredictorState::Multi { bank, specs, .. } = &mut self.predictor else {
                        unreachable!()
                    };
                    bank.on_fill(idx, block);
                    self.pred_stats.updates += 1;
                    if overhead {
                        self.energy.add_predictor(specs[idx].access_energy_nj);
                    }
                }
            }
            _ => {}
        }
    }

    #[inline]
    fn recalibration_due(&self) -> bool {
        self.l1_misses_since_recalib >= self.recalib_threshold
    }

    /// Rebuilds the table(s) from the cache contents, charging the modelled
    /// stall and energy.
    fn recalibrate(&mut self) {
        self.l1_misses_since_recalib = 0;
        self.pred_stats.recalibrations += 1;
        let overhead = self.cfg.count_prediction_overhead;
        // Overheads actually charged, reported on the telemetry marker
        // (they stay zero when overhead accounting is off).
        let mut charged_nj = 0.0;
        let mut charged_cycles = 0u64;
        match &mut self.predictor {
            PredictorState::Table(table) => {
                table.recalibrate_from(self.hierarchy.llc().resident_blocks());
                if overhead {
                    if let Some(engine) = &self.recalib_engine {
                        let cost = engine.cost();
                        self.energy.add_recalibration(cost.energy_nj);
                        for c in self.clocks.iter_mut() {
                            *c += cost.cycles as f64;
                        }
                        charged_nj = cost.energy_nj;
                        charged_cycles = cost.cycles;
                    }
                }
            }
            PredictorState::Single(p) => {
                p.recalibrate(&mut self.hierarchy.llc().resident_blocks());
                if overhead {
                    if let Some(engine) = &self.recalib_engine {
                        let cost = engine.cost();
                        self.energy.add_recalibration(cost.energy_nj);
                        for c in self.clocks.iter_mut() {
                            *c += cost.cycles as f64;
                        }
                        charged_nj = cost.energy_nj;
                        charged_cycles = cost.cycles;
                    }
                }
            }
            PredictorState::Multi { bank, engines, .. } => {
                let cores = self.cfg.platform.cores;
                let levels = self.cfg.platform.levels.len();
                let mut max_cycles = 0u64;
                let mut total_nj = 0.0;
                for lvl in 1..levels - 1 {
                    for core in 0..cores {
                        let idx = (lvl - 1) * cores + core;
                        bank.recalibrate(
                            idx,
                            self.hierarchy
                                .private_cache(core, lvl as u8)
                                .resident_blocks(),
                        );
                        let cost = engines[idx].cost();
                        max_cycles = max_cycles.max(cost.cycles);
                        total_nj += cost.energy_nj;
                    }
                }
                let llc_idx = (levels - 2) * cores;
                bank.recalibrate(llc_idx, self.hierarchy.llc().resident_blocks());
                let cost = engines[llc_idx].cost();
                max_cycles = max_cycles.max(cost.cycles);
                total_nj += cost.energy_nj;
                if overhead {
                    self.energy.add_recalibration(total_nj);
                    for c in self.clocks.iter_mut() {
                        *c += max_cycles as f64;
                    }
                    charged_nj = total_nj;
                    charged_cycles = max_cycles;
                }
            }
            PredictorState::Custom(p) => {
                // Registry predictors scrub against LLC residency like the
                // table does; their scrub is a metadata sweep with no
                // dedicated engine model yet, so no energy/stall is
                // charged (mirrors Oracle's free knowledge refresh).
                p.recalibrate(&mut self.hierarchy.llc().resident_blocks());
            }
            _ => {}
        }
        self.obs.on_recalibration(charged_nj, charged_cycles);
    }

    /// Folds a traversal into the hierarchy statistics and prices its
    /// events, one pass per event list instead of a statistics pass
    /// (`absorb_stats`) followed by a pricing pass over the same short
    /// vectors. The energy accumulators are charged in exactly the order
    /// the separate pricing pass used — the f64 sums are order-sensitive
    /// and pinned by the golden tests — while the integer statistics
    /// commute and ride along. Returns the serialized lookup latency.
    fn absorb_and_price(&mut self, t: &Traversal) -> u64 {
        let stats = self.hierarchy.stats_mut();
        let mut latency = 0u64;
        let phased_mech = self.cfg.mechanism == Mechanism::Phased;
        for &(lvl, hit) in &t.lookups {
            let s = &mut stats.levels[lvl as usize];
            s.lookups += 1;
            if hit {
                s.hits += 1;
            }
            let spec = &self.cfg.platform.levels[lvl as usize];
            let phased = phased_mech && spec.tag_energy_nj > 0.0;
            let (nj, cyc) = if phased {
                (spec.phased_lookup_nj(hit), spec.phased_latency(hit))
            } else {
                (spec.parallel_lookup_nj(), spec.parallel_latency(hit))
            };
            self.energy.add_level(lvl as usize, nj);
            latency += cyc;
        }
        let acc = self.cfg.accounting;
        for &lvl in &t.fills {
            stats.levels[lvl as usize].fills += 1;
            if acc.charge_fills {
                let spec = &self.cfg.platform.levels[lvl as usize];
                self.energy.add_level(lvl as usize, spec.data_energy_nj);
            }
        }
        for &lvl in &t.writebacks {
            if lvl == MEMORY {
                stats.memory_writebacks += 1;
            } else {
                stats.levels[lvl as usize].writebacks_in += 1;
                if acc.charge_writebacks {
                    let spec = &self.cfg.platform.levels[lvl as usize];
                    self.energy.add_level(lvl as usize, spec.data_energy_nj);
                }
            }
        }
        if acc.charge_invalidation_probes {
            for &lvl in &t.probes {
                let spec = &self.cfg.platform.levels[lvl as usize];
                // Tag-only probe; L1/L2 fold tag energy into data, so use
                // the explicit tag component (0 for them, per the model).
                self.energy.add_level(lvl as usize, spec.tag_energy_nj);
            }
        }
        if t.hit_level.is_none() && !t.fills.is_empty() {
            stats.memory_fetches += 1;
        }
        latency
    }

    /// Trains the prefetcher on a demand reference and services candidates.
    fn do_prefetch(&mut self, core: usize, rec: &TraceRecord) {
        self.pf_buf.clear();
        self.prefetchers[core].train(rec.pc, rec.addr, &mut self.pf_buf);
        self.energy.add_prefetcher(RPT_ACCESS_NJ);
        if self.pf_buf.is_empty() {
            return;
        }
        let candidates = std::mem::take(&mut self.pf_buf);
        let mut pf_t = std::mem::take(&mut self.pf_t);
        for &addr in &candidates {
            let block = addr >> self.block_bits;
            self.pf_summary.issued += 1;
            pf_t.clear();

            // ReDHiP/CBF filter the prefetch exactly like a demand miss.
            let mut filtered = false;
            match &self.predictor {
                PredictorState::Table(table) => {
                    if self.cfg.count_prediction_overhead {
                        self.energy.add_predictor(self.pt_spec.access_energy_nj);
                    }
                    filtered = !table.test(block);
                }
                PredictorState::Single(p) => {
                    if self.cfg.count_prediction_overhead {
                        self.energy.add_predictor(self.pt_spec.access_energy_nj);
                    }
                    if p.predict(block) == Prediction::Absent {
                        filtered = true;
                    }
                }
                _ => {}
            }

            let mut resident = false;
            if filtered {
                self.pf_summary.predictor_filtered += 1;
            } else {
                let levels = self.hierarchy.levels();
                for lvl in 1..levels {
                    if self.hierarchy.prefetch_probe(core, lvl, block, &mut pf_t) {
                        resident = true;
                        break;
                    }
                }
            }
            if resident {
                self.pf_summary.already_resident += 1;
            } else {
                // Fill through L1: prefetched data "appears earlier" at the top
                // of the hierarchy (the paper's model of prefetch benefit),
                // so later demand hits need no PT consultation.
                self.hierarchy.prefetch_fill(core, 0, block, &mut pf_t);
                self.pf_summary.fills += 1;
                self.prefetched.insert(block);
            }
            // Price: probe lookups at demand cost; prefetch fills are
            // *additional* data-array writes and always charged (they are
            // traffic the base machine never performs).
            for &(lvl, hit) in &pf_t.lookups {
                let spec = &self.cfg.platform.levels[lvl as usize];
                self.energy
                    .add_level(lvl as usize, spec.parallel_lookup_nj());
                let _ = hit;
            }
            for &lvl in &pf_t.fills {
                let spec = &self.cfg.platform.levels[lvl as usize];
                self.energy.add_level(lvl as usize, spec.data_energy_nj);
            }
            self.apply_predictor_updates(core, &pf_t);
        }
        self.pf_t = pf_t;
        self.pf_buf = candidates;
    }

    // ----- Accessors for the runner / tests ------------------------------

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Per-core cycle counts.
    pub fn clocks(&self) -> &[f64] {
        &self.clocks
    }

    /// Execution time: the slowest core's clock.
    pub fn cycles(&self) -> u64 {
        self.clocks.iter().fold(0.0f64, |a, &b| a.max(b)).ceil() as u64
    }

    /// The hierarchy (stats, invariant checks).
    pub fn hierarchy(&self) -> &DeepHierarchy {
        &self.hierarchy
    }

    /// Predictor outcome counters.
    pub fn prediction_stats(&self) -> PredictionStats {
        self.pred_stats
    }

    /// Recalibrations performed so far. The run loop polls this once per
    /// reference (a recalibration shifts every core's clock), so it is a
    /// dedicated accessor rather than a [`PredictionStats`] copy.
    #[inline]
    pub fn recalibration_count(&self) -> u64 {
        self.pred_stats.recalibrations
    }

    /// Prefetch outcome counters.
    pub fn prefetch_summary(&self) -> PrefetchSummary {
        self.pf_summary
    }

    /// Finishes the run: total energy over `self.cycles()`.
    pub fn finalize_energy(&self) -> energy_model::EnergyReport {
        self.energy.finalize(
            &self.cfg.platform,
            self.cycles(),
            self.cfg.mechanism.has_predictor(),
        )
    }

    /// The attached observer, mutably (e.g. to flush a heartbeat).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Ends observation: delivers the final
    /// [`on_window_close`](SimObserver::on_window_close) (flushing partial
    /// windows) and returns the observer.
    pub fn into_observer(mut self) -> O {
        self.obs.on_window_close();
        self.obs
    }
}
