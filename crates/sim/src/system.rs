//! The system model: cores, hierarchy, predictor, prefetcher, accounting.

use crate::config::{Mechanism, SimConfig};
use crate::predictor::{Predictor, Steer, ALL_LEVELS};
use crate::stats::{PredictionStats, PrefetchSummary};
use cache_sim::hierarchy::{DeepHierarchy, HierarchyConfig};
use cache_sim::traversal::{LevelId, Traversal, MEMORY};
use cache_sim::CacheConfig;
use energy_model::{CacheSpec, EnergyAccount, PredictorSpec};
use mem_trace::record::TraceRecord;
use prefetch::StridePrefetcher;
use redhip::RecalibCost;
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
    predictor: Predictor,
    prefetchers: Vec<StridePrefetcher>,
    energy: EnergyAccount,
    clocks: Vec<f64>,
    block_bits: u32,
    l1_misses_since_recalib: u64,
    pred_stats: PredictionStats,
    pf_summary: PrefetchSummary,
    pt_spec: PredictorSpec,
    /// Energy charged per probe; `None` when probes are free or overhead
    /// accounting is off.
    probe_nj: Option<f64>,
    /// Precomputed L1-hit pricing (the mechanism's lookup flavour applied
    /// to level 0), so the dominant fast path skips `absorb_and_price`.
    l1_hit_nj: f64,
    l1_hit_cycles: u64,
    /// Miss count at which recalibration fires; `u64::MAX` when the
    /// predictor never recalibrates, so the per-reference due-check is a
    /// single compare.
    recalib_threshold: u64,
    /// Precomputed single-way L1 read energy (a memoized hit's price).
    way_hit_nj: f64,
    /// Blocks brought in by prefetch and not yet demanded (usefulness).
    prefetched: HashSet<u64>,
    // Reusable scratch.
    t: Traversal,
    pf_t: Traversal,
    pf_buf: Vec<u64>,
}

/// The cache hierarchy `cfg` describes, with 64-byte blocks.
pub(crate) fn hierarchy_config(cfg: &SimConfig) -> HierarchyConfig {
    let cache = |l: &CacheSpec| CacheConfig {
        capacity_bytes: l.capacity_bytes,
        assoc: l.assoc,
        block_bytes: 64,
        policy: cfg.replacement,
    };
    let p = &cfg.platform;
    HierarchyConfig {
        cores: p.cores,
        private_levels: p.levels[..p.levels.len() - 1].iter().map(cache).collect(),
        shared_llc: cache(p.llc()),
        policy: cfg.policy,
    }
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
        let hierarchy = DeepHierarchy::new(&hierarchy_config(&cfg));

        let predictor = Predictor::new(&cfg);
        let pt_spec = p.predictor.scaled_to(cfg.effective_pt_bytes());
        let probe_nj = predictor
            .probe_nj(&pt_spec)
            .filter(|_| cfg.count_prediction_overhead);
        let recalib_threshold = match cfg.recalib_period {
            Some(period) if predictor.recalibrates() => period,
            _ => u64::MAX,
        };

        let prefetchers = match cfg.prefetch {
            Some(sc) => (0..p.cores).map(|_| StridePrefetcher::new(sc)).collect(),
            None => Vec::new(),
        };

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
            probe_nj,
            l1_hit_nj,
            l1_hit_cycles,
            recalib_threshold,
            way_hit_nj,
            prefetched: HashSet::new(),
            t: Traversal::new(),
            pf_t: Traversal::new(),
            pf_buf: Vec::new(),
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
            // WayMemo consults the memo on every L1 access: a memoized hit
            // reads a single way (cheaper); a memo miss reads all ways at
            // the standard price. Latency is unchanged either way — the
            // optimization is energy-only.
            let nj = match self.predictor.memo_l1_hit(core, block) {
                None => self.l1_hit_nj,
                Some(memoized) => {
                    self.pred_stats.lookups += 1;
                    if memoized {
                        self.pred_stats.bypasses += 1;
                        self.way_hit_nj
                    } else {
                        self.l1_hit_nj
                    }
                }
            };
            self.energy.add_level(0, nj);
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

    /// Probes the predictor on an L1 miss and walks where it steers.
    ///
    /// A confident `Level` or `OffChip` steer still walks in exact Base
    /// order, so hierarchy *state* (fills, promotions, evictions, LRU) is
    /// identical to Base; the steer only rewrites which array lookups are
    /// *charged* (see [`charge_steer`](Self::charge_steer)).
    fn dispatch_l1_miss(&mut self, core: usize, block: u64, store: bool, t: &mut Traversal) {
        let Some(steer) = self.predictor.probe(core, block, &self.hierarchy) else {
            self.walk(core, block, store, ALL_LEVELS, t);
            return;
        };
        self.pred_stats.lookups += 1;
        if let Some(nj) = self.probe_nj {
            self.energy.add_predictor(nj);
            self.clocks[core] += self.pt_spec.lookup_latency() as f64;
        }
        if self.predictor.memo_stale(core, block) {
            // A stale memo entry read a single way before discovering the
            // miss: charge the wasted way read plus the stale penalty.
            self.energy.add_level(0, self.way_hit_nj);
            self.mispredicted(core);
        }
        let levels = match steer {
            Steer::Lookup(levels) => levels,
            Steer::Level(_) | Steer::OffChip => ALL_LEVELS,
        };
        debug_assert!(
            levels != 0 || !self.hierarchy.llc().probe(block),
            "false negative: bypassed a resident block"
        );
        let hit = self.walk(core, block, store, levels, t);
        self.predictor.train(core, block, t.hit_level);
        match steer {
            Steer::Lookup(_) if hit => self.walk_hit(core),
            // No level was read: the predictor proved absence.
            Steer::Lookup(_) if t.lookups.len() == 1 => self.bypassed(core),
            Steer::Lookup(_) => {
                self.pred_stats.false_positives += 1;
                self.obs.on_false_positive(core);
            }
            Steer::Level(lvl) => {
                let correct = t.hit_level == Some(lvl);
                self.charge_steer(core, t, (lvl, correct), correct);
                if correct {
                    self.walk_hit(core);
                }
            }
            Steer::OffChip => {
                let llc = self.hierarchy.llc_level();
                self.charge_steer(core, t, (llc, false), !hit);
                if !hit {
                    self.bypassed(core);
                }
            }
        }
    }

    /// Rewrites the charged lookups of a confident steer: the L1 miss, then
    /// `first` — the direct access to the predicted level, or the LLC tag
    /// probe that validates an off-chip steer. A wrong steer falls back to
    /// the Base walk and pays it too, plus the mispredict penalty. The
    /// list keeps exactly one `(level, true)` entry, at the level that
    /// served the data, iff the request hit on chip, so per-level hit
    /// totals match Base.
    fn charge_steer(
        &mut self,
        core: usize,
        t: &mut Traversal,
        first: (LevelId, bool),
        correct: bool,
    ) {
        let walked = t.lookups;
        t.lookups.clear();
        t.lookups.push((0, false));
        t.lookups.push(first);
        if !correct {
            t.lookups.extend(walked.iter().skip(1).copied());
            self.mispredicted(core);
        }
    }

    fn walk_hit(&mut self, core: usize) {
        self.pred_stats.walk_hits += 1;
        self.obs.on_walk_hit(core);
    }

    fn bypassed(&mut self, core: usize) {
        self.pred_stats.bypasses += 1;
        self.obs.on_bypass(core);
    }

    /// A wrong confident steer or a stale memo entry: penalty cycles and a
    /// false positive.
    fn mispredicted(&mut self, core: usize) {
        self.clocks[core] += self.predictor.mispredict_penalty() as f64;
        self.pred_stats.false_positives += 1;
        self.obs.on_false_positive(core);
    }

    /// Looks up, in order, the levels below L1 whose bit is set in
    /// `levels`; promotes on hit. Returns whether the request hit on chip
    /// (and fills from memory otherwise).
    fn walk(
        &mut self,
        core: usize,
        block: u64,
        store: bool,
        levels: u8,
        t: &mut Traversal,
    ) -> bool {
        for lvl in 1..self.hierarchy.levels() {
            if levels & (1 << lvl) != 0 && self.hierarchy.lookup(core, lvl, block, t) {
                self.hierarchy.promote(core, lvl, block, store, t);
                return true;
            }
        }
        self.hierarchy.fill_from_memory(core, block, store, t);
        false
    }

    /// Feeds a traversal's cache events to the predictor, counting and
    /// charging every table write.
    fn apply_predictor_updates(&mut self, core: usize, t: &Traversal) {
        let (stats, energy) = (&mut self.pred_stats, &mut self.energy);
        let overhead = self.cfg.count_prediction_overhead;
        let llc = self.hierarchy.llc_level();
        self.predictor
            .update(core, t, llc, self.pt_spec.access_energy_nj, |nj| {
                stats.updates += 1;
                if overhead {
                    energy.add_predictor(nj);
                }
            });
    }

    #[inline]
    fn recalibration_due(&self) -> bool {
        self.l1_misses_since_recalib >= self.recalib_threshold
    }

    /// Rebuilds the predictor from the cache contents, charging the
    /// modelled stall and energy.
    fn recalibrate(&mut self) {
        self.l1_misses_since_recalib = 0;
        self.pred_stats.recalibrations += 1;
        // Overheads actually charged, reported on the telemetry marker
        // (they stay zero when overhead accounting is off).
        let charged = match self.predictor.recalibrate(&self.hierarchy) {
            Some(cost) if self.cfg.count_prediction_overhead => {
                self.energy.add_recalibration(cost.energy_nj);
                for c in self.clocks.iter_mut() {
                    *c += cost.cycles as f64;
                }
                cost
            }
            _ => RecalibCost {
                cycles: 0,
                energy_nj: 0.0,
            },
        };
        self.obs.on_recalibration(charged.energy_nj, charged.cycles);
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

            // The presence tables filter the prefetch exactly like a
            // demand miss.
            let filtered = match self.predictor.proves_absent(block) {
                Some(absent) => {
                    if self.cfg.count_prediction_overhead {
                        self.energy.add_predictor(self.pt_spec.access_energy_nj);
                    }
                    absent
                }
                None => false,
            };

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

    /// Ends observation: delivers the final
    /// [`on_window_close`](SimObserver::on_window_close) (flushing partial
    /// windows) and returns the observer.
    pub fn into_observer(mut self) -> O {
        self.obs.on_window_close();
        self.obs
    }
}
