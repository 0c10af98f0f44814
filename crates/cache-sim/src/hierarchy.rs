//! Multi-core deep cache hierarchy with the paper's three inclusion policies.
//!
//! The hierarchy exposes *mechanism-agnostic* primitives — `access_first`,
//! `lookup`, `promote`, `fill_from_memory` — and the `sim` crate sequences
//! them according to the active mechanism (Base walks every level; ReDHiP
//! may jump straight from the L1 miss to `fill_from_memory`; the exclusive
//! multi-table configuration may skip individual levels). All inclusion
//! bookkeeping (back-invalidation, victim cascading, writeback folding)
//! happens here so the invariants hold no matter what the mechanism does.

use crate::cache::{Cache, Evicted};
use crate::config::CacheConfig;
use crate::traversal::{HierarchyStats, LevelId, Traversal, MEMORY};

/// Inclusion policy of the hierarchy (§III-C of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InclusionPolicy {
    /// Every level contains all data of the levels above it (paper default).
    Inclusive,
    /// Every level holds distinct data; lower levels act as victim caches.
    Exclusive,
    /// Private levels (L1..L3) are exclusive among themselves; the shared
    /// LLC is inclusive of everything.
    Hybrid,
}

impl minijson::ToJson for InclusionPolicy {
    fn to_json(&self) -> minijson::Json {
        minijson::Json::Str(
            match self {
                InclusionPolicy::Inclusive => "Inclusive",
                InclusionPolicy::Exclusive => "Exclusive",
                InclusionPolicy::Hybrid => "Hybrid",
            }
            .to_string(),
        )
    }
}

/// Static description of a hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Number of cores (each gets a private copy of `private_levels`).
    pub cores: usize,
    /// Per-core private levels, outermost first (L1, L2, L3, ...).
    pub private_levels: Vec<CacheConfig>,
    /// The shared last-level cache.
    pub shared_llc: CacheConfig,
    /// Inclusion policy.
    pub policy: InclusionPolicy,
}

impl HierarchyConfig {
    /// Total number of levels including the LLC.
    pub fn levels(&self) -> usize {
        self.private_levels.len() + 1
    }
}

/// A multi-core hierarchy: per-core private caches plus one shared LLC.
#[derive(Debug, Clone)]
pub struct DeepHierarchy {
    cores: usize,
    policy: InclusionPolicy,
    /// Private caches flattened core-major: entry `core * (levels-1) + level`,
    /// level 0 = L1. One contiguous array means the per-reference cache pick
    /// is a single indexed load instead of a nested-`Vec` double pointer
    /// chase.
    private: Vec<Cache>,
    shared: Cache,
    stats: HierarchyStats,
    levels: u8,
    /// Physical private-cache lookups made by LLC back-invalidation.
    #[cfg(test)]
    purge_lookups: u64,
}

impl DeepHierarchy {
    /// Builds an empty hierarchy.
    ///
    /// # Panics
    /// Panics if there are no private levels or no cores, or if the LLC
    /// entry word has no room for one core-valid bit per core (see
    /// [`Cache`]).
    pub fn new(config: &HierarchyConfig) -> Self {
        assert!(config.cores >= 1, "need at least one core");
        assert!(
            !config.private_levels.is_empty(),
            "need at least one private level above the LLC"
        );
        assert!(
            config.levels() <= crate::traversal::MAX_LEVELS,
            "hierarchy depth {} exceeds the traversal event-list capacity {}",
            config.levels(),
            crate::traversal::MAX_LEVELS
        );
        let private = (0..config.cores)
            .flat_map(|_| config.private_levels.iter().map(|c| Cache::new(*c)))
            .collect();
        Self {
            cores: config.cores,
            policy: config.policy,
            private,
            shared: Cache::with_owners(config.shared_llc, config.cores),
            stats: HierarchyStats::new(config.levels()),
            levels: config.levels() as u8,
            #[cfg(test)]
            purge_lookups: 0,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Number of levels including the LLC.
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Level index of the shared LLC.
    pub fn llc_level(&self) -> LevelId {
        self.levels - 1
    }

    /// Inclusion policy.
    pub fn policy(&self) -> InclusionPolicy {
        self.policy
    }

    /// Read access to the shared LLC (oracle probes, recalibration).
    pub fn llc(&self) -> &Cache {
        &self.shared
    }

    /// Index of `(core, level)` in the flattened private-cache array.
    #[inline]
    fn pidx(&self, core: usize, level: LevelId) -> usize {
        core * (self.levels as usize - 1) + level as usize
    }

    /// Read access to a private cache (multi-table recalibration).
    pub fn private_cache(&self, core: usize, level: LevelId) -> &Cache {
        &self.private[self.pidx(core, level)]
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Folds a completed traversal into the aggregate statistics.
    pub fn absorb_stats(&mut self, t: &Traversal) {
        self.stats.absorb(t);
    }

    /// Mutable statistics access, for callers that fold a traversal's
    /// events and price them in a single pass (the simulator miss path)
    /// instead of walking the event lists once here and once for energy.
    pub fn stats_mut(&mut self) -> &mut HierarchyStats {
        &mut self.stats
    }

    fn cache_mut(&mut self, core: usize, level: LevelId) -> &mut Cache {
        if level == self.levels - 1 {
            &mut self.shared
        } else {
            let i = self.pidx(core, level);
            &mut self.private[i]
        }
    }

    fn cache_ref(&self, core: usize, level: LevelId) -> &Cache {
        if level == self.levels - 1 {
            &self.shared
        } else {
            &self.private[self.pidx(core, level)]
        }
    }

    /// Hints the host CPU to pull the set stripes an imminent walk of
    /// levels `1..levels` will touch (see [`Cache::prefetch_set`]). Called
    /// right after an L1 miss is detected, it overlaps the host-memory
    /// latency of the per-level array reads instead of paying them one
    /// dependent load at a time.
    #[inline]
    pub fn prefetch_walk_sets(&self, core: usize, block: u64) {
        for lvl in 1..self.levels {
            self.cache_ref(core, lvl).prefetch_set(block);
        }
    }

    /// L1 demand access. Logs the lookup; returns true on hit.
    pub fn access_first(
        &mut self,
        core: usize,
        block: u64,
        is_store: bool,
        t: &mut Traversal,
    ) -> bool {
        let i = self.pidx(core, 0);
        let hit = self.private[i].access(block, is_store);
        t.lookups.push((0, hit));
        if hit {
            t.hit_level = Some(0);
        }
        hit
    }

    /// L1 demand access that counts its own statistics instead of logging
    /// a traversal — the hot path for the (overwhelmingly common) L1 hit.
    /// On a hit, the effect on hierarchy state and stats is identical to
    /// `access_first` + `absorb_stats` of the one-lookup traversal. On a
    /// miss nothing is counted: the caller restarts through
    /// [`DeepHierarchy::access_first`] so the full traversal carries the
    /// miss, exactly as before.
    #[inline]
    pub fn try_first_hit(&mut self, core: usize, block: u64, is_store: bool) -> bool {
        let i = self.pidx(core, 0);
        let hit = self.private[i].access(block, is_store);
        if hit {
            let s = &mut self.stats.levels[0];
            s.lookups += 1;
            s.hits += 1;
        }
        hit
    }

    /// Demand lookup at an arbitrary level (> L1). Logs the lookup and
    /// updates replacement recency on hit, but performs no data movement —
    /// follow a hit with [`DeepHierarchy::promote`].
    pub fn lookup(&mut self, core: usize, level: LevelId, block: u64, t: &mut Traversal) -> bool {
        debug_assert!(level > 0 && level < self.levels);
        // Recency is updated on hit; dirtiness is managed during promotion.
        let hit = self.cache_mut(core, level).access(block, false);
        t.lookups.push((level, hit));
        if hit {
            t.hit_level = Some(level);
        }
        hit
    }

    /// Moves/copies the block found at `hit_level` up to L1 according to the
    /// inclusion policy.
    pub fn promote(
        &mut self,
        core: usize,
        hit_level: LevelId,
        block: u64,
        is_store: bool,
        t: &mut Traversal,
    ) {
        debug_assert!(hit_level > 0, "L1 hits need no promotion");
        match self.policy {
            InclusionPolicy::Inclusive => {
                if hit_level == self.llc_level() {
                    self.shared.add_owner(block, core);
                }
                // Install into every level above the hit, top of the fill
                // order being the level just above the hit.
                for lvl in (0..hit_level).rev() {
                    let dirty = lvl == 0 && is_store;
                    self.fill_private_inclusive(core, lvl, block, dirty, t);
                }
            }
            InclusionPolicy::Exclusive => {
                let ev = self
                    .cache_mut(core, hit_level)
                    .invalidate(block)
                    .expect("exclusive promote: block vanished from hit level");
                t.removed.push((hit_level, block));
                self.insert_top_exclusive(core, block, ev.dirty || is_store, self.levels, t);
            }
            InclusionPolicy::Hybrid => {
                if hit_level == self.llc_level() {
                    // LLC is inclusive: copy up, leave the LLC line resident.
                    self.shared.add_owner(block, core);
                    self.insert_top_exclusive(core, block, is_store, self.levels - 1, t);
                } else {
                    let ev = self
                        .cache_mut(core, hit_level)
                        .invalidate(block)
                        .expect("hybrid promote: block vanished from hit level");
                    t.removed.push((hit_level, block));
                    self.insert_top_exclusive(
                        core,
                        block,
                        ev.dirty || is_store,
                        self.levels - 1,
                        t,
                    );
                }
            }
        }
    }

    /// Brings a block in from memory after a full (or predicted) miss.
    pub fn fill_from_memory(&mut self, core: usize, block: u64, is_store: bool, t: &mut Traversal) {
        match self.policy {
            InclusionPolicy::Inclusive => {
                self.fill_llc_inclusive(core, block, t);
                for lvl in (0..self.levels - 1).rev() {
                    let dirty = lvl == 0 && is_store;
                    self.fill_private_inclusive(core, lvl, block, dirty, t);
                }
            }
            InclusionPolicy::Exclusive => {
                self.insert_top_exclusive(core, block, is_store, self.levels, t);
            }
            InclusionPolicy::Hybrid => {
                self.fill_llc_inclusive(core, block, t);
                self.insert_top_exclusive(core, block, is_store, self.levels - 1, t);
            }
        }
    }

    /// Installs `block` into the (inclusive) shared LLC on behalf of
    /// `core`, handling victim back-invalidation across all cores.
    fn fill_llc_inclusive(&mut self, core: usize, block: u64, t: &mut Traversal) {
        let llc = self.llc_level();
        let evicted = self.shared.fill_owned(block, core);
        t.fills.push(llc);
        t.inserted.push((llc, block));
        if let Some((v, owners)) = evicted {
            self.stats.count_eviction(llc);
            t.removed.push((llc, v.block));
            let mut dirty = v.dirty;
            // Inclusion: purge every upper copy in every core. Every
            // private set is probed logically (and priced), but only the
            // cores whose core-valid bit is set can hold a copy; for the
            // rest the physical lookup would find nothing and is skipped.
            for c in 0..self.cores {
                let owned = owners >> c & 1 != 0;
                for lvl in 0..(self.levels - 1) {
                    t.probes.push(lvl);
                    if !owned {
                        continue;
                    }
                    #[cfg(test)]
                    {
                        self.purge_lookups += 1;
                    }
                    let i = self.pidx(c, lvl);
                    if let Some(up) = self.private[i].invalidate(v.block) {
                        self.stats.count_invalidation(lvl);
                        t.removed.push((lvl, v.block));
                        dirty |= up.dirty;
                    }
                }
            }
            if dirty {
                t.writebacks.push(MEMORY);
            }
        }
    }

    /// Installs `block` into private level `lvl` of `core` (inclusive
    /// policy), invalidating the victim's upper copies and folding dirty
    /// data down to `lvl + 1`.
    fn fill_private_inclusive(
        &mut self,
        core: usize,
        lvl: LevelId,
        block: u64,
        dirty: bool,
        t: &mut Traversal,
    ) {
        let i = self.pidx(core, lvl);
        let evicted = self.private[i].fill(block, dirty);
        t.fills.push(lvl);
        t.inserted.push((lvl, block));
        if let Some(v) = evicted {
            self.stats.count_eviction(lvl);
            t.removed.push((lvl, v.block));
            let mut wb_dirty = v.dirty;
            for up in 0..lvl {
                t.probes.push(up);
                let i = self.pidx(core, up);
                if let Some(e) = self.private[i].invalidate(v.block) {
                    self.stats.count_invalidation(up);
                    t.removed.push((up, v.block));
                    wb_dirty |= e.dirty;
                }
            }
            if wb_dirty {
                let below = lvl + 1;
                t.writebacks.push(below);
                let ok = self.cache_mut(core, below).mark_dirty(v.block);
                debug_assert!(
                    ok,
                    "inclusion violated: victim {0:#x} absent below",
                    v.block
                );
            }
        }
    }

    /// Exclusive-style insert into L1 with victim cascade down to
    /// `cascade_end` (exclusive: `levels`, i.e. through the LLC; hybrid:
    /// `levels - 1`, the last private level — its victim stays in the
    /// inclusive LLC). Dirty victims leaving the cascade are written back.
    fn insert_top_exclusive(
        &mut self,
        core: usize,
        block: u64,
        dirty: bool,
        cascade_end: u8,
        t: &mut Traversal,
    ) {
        let mut incoming: Option<Evicted> = Some(Evicted { block, dirty });
        let mut lvl: LevelId = 0;
        while let Some(line) = incoming.take() {
            if lvl >= cascade_end {
                // Victim leaves the cascade.
                if cascade_end == self.levels {
                    // Fully exclusive: LLC victim goes to memory.
                    if line.dirty {
                        t.writebacks.push(MEMORY);
                    }
                } else {
                    // Hybrid: last private victim merges into the inclusive
                    // LLC copy.
                    if line.dirty {
                        t.writebacks.push(self.levels - 1);
                        let ok = self.shared.mark_dirty(line.block);
                        debug_assert!(
                            ok,
                            "hybrid inclusion violated: private victim {0:#x} absent in LLC",
                            line.block
                        );
                    }
                }
                break;
            }
            // The shared LLC can already hold the block when several cores
            // reference the same addresses (the paper's workloads are
            // multi-programmed with disjoint address spaces, but we stay
            // robust without a coherence protocol): merge instead of
            // double-filling.
            if lvl == self.levels - 1 && self.shared.probe(line.block) {
                if line.dirty {
                    let ok = self.shared.mark_dirty(line.block);
                    debug_assert!(ok);
                    t.writebacks.push(lvl);
                }
                break;
            }
            let evicted = self.cache_mut(core, lvl).fill(line.block, line.dirty);
            t.fills.push(lvl);
            t.inserted.push((lvl, line.block));
            if let Some(v) = evicted {
                self.stats.count_eviction(lvl);
                t.removed.push((lvl, v.block));
                incoming = Some(v);
            }
            lvl += 1;
        }
    }

    // ----- Prefetch support (inclusive policy only) ---------------------

    /// Probes a level without updating recency (prefetch presence check).
    /// Logs a lookup (tag access) against the level.
    pub fn prefetch_probe(
        &mut self,
        core: usize,
        level: LevelId,
        block: u64,
        t: &mut Traversal,
    ) -> bool {
        let hit = self.cache_ref(core, level).probe(block);
        t.lookups.push((level, hit));
        if hit {
            t.hit_level = Some(level);
        }
        hit
    }

    /// Installs a prefetched block into the inclusive hierarchy at every
    /// level from the LLC up to `up_to_level` (exclusive of L1 when
    /// `up_to_level > 0`). Panics outside the inclusive policy.
    pub fn prefetch_fill(
        &mut self,
        core: usize,
        up_to_level: LevelId,
        block: u64,
        t: &mut Traversal,
    ) {
        assert_eq!(
            self.policy,
            InclusionPolicy::Inclusive,
            "prefetching is modelled for the inclusive hierarchy only"
        );
        if !self.shared.add_owner(block, core) {
            self.fill_llc_inclusive(core, block, t);
        }
        let mut lvl = self.levels - 2;
        loop {
            if !self.private[self.pidx(core, lvl)].probe(block) {
                self.fill_private_inclusive(core, lvl, block, false, t);
            }
            if lvl == up_to_level {
                break;
            }
            lvl -= 1;
        }
    }

    // ----- Invariant checks (tests / debugging) --------------------------

    /// Verifies the inclusion invariant appropriate to the policy. O(cache
    /// size); intended for tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        match self.policy {
            InclusionPolicy::Inclusive => {
                for core in 0..self.cores {
                    for lvl in 0..(self.levels as usize - 1) {
                        for b in self.private[self.pidx(core, lvl as u8)].resident_blocks() {
                            let below_ok = if lvl + 2 == self.levels as usize {
                                self.shared.probe(b)
                            } else {
                                self.private[self.pidx(core, lvl as u8 + 1)].probe(b)
                            };
                            if !below_ok {
                                return Err(format!(
                                    "inclusive: core {core} L{} block {b:#x} missing below",
                                    lvl + 1
                                ));
                            }
                            self.check_owner(core, lvl, b)?;
                        }
                    }
                }
            }
            InclusionPolicy::Exclusive => {
                for core in 0..self.cores {
                    for a in 0..(self.levels as usize - 1) {
                        for b in self.private[self.pidx(core, a as u8)].resident_blocks() {
                            for other in (a + 1)..(self.levels as usize - 1) {
                                if self.private[self.pidx(core, other as u8)].probe(b) {
                                    return Err(format!(
                                        "exclusive: core {core} block {b:#x} in both L{} and L{}",
                                        a + 1,
                                        other + 1
                                    ));
                                }
                            }
                            if self.shared.probe(b) {
                                return Err(format!(
                                    "exclusive: core {core} block {b:#x} in both L{} and LLC",
                                    a + 1
                                ));
                            }
                        }
                    }
                }
            }
            InclusionPolicy::Hybrid => {
                for core in 0..self.cores {
                    for a in 0..(self.levels as usize - 1) {
                        for b in self.private[self.pidx(core, a as u8)].resident_blocks() {
                            for other in (a + 1)..(self.levels as usize - 1) {
                                if self.private[self.pidx(core, other as u8)].probe(b) {
                                    return Err(format!(
                                        "hybrid: core {core} block {b:#x} in both L{} and L{}",
                                        a + 1,
                                        other + 1
                                    ));
                                }
                            }
                            if !self.shared.probe(b) {
                                return Err(format!(
                                    "hybrid: core {core} L{} block {b:#x} not covered by LLC",
                                    a + 1
                                ));
                            }
                            self.check_owner(core, a, b)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Core-valid invariant of the inclusive LLC: `block`, resident in
    /// private level `lvl` of `core`, must have `core`'s bit set, or an LLC
    /// eviction would skip the purge of this copy.
    fn check_owner(&self, core: usize, lvl: usize, block: u64) -> Result<(), String> {
        match self.shared.owners(block) {
            Some(mask) if mask >> core & 1 == 0 => Err(format!(
                "core {core} L{} block {block:#x}: core-valid bit clear in LLC (mask {mask:#b})",
                lvl + 1
            )),
            _ => Ok(()),
        }
    }

    /// True when `block` resides at any level reachable by `core`.
    pub fn resident_anywhere(&self, core: usize, block: u64) -> bool {
        let base = self.pidx(core, 0);
        let end = base + self.levels as usize - 1;
        self.private[base..end].iter().any(|c| c.probe(block)) || self.shared.probe(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::ReplacementPolicy;

    fn tiny_config(policy: InclusionPolicy) -> HierarchyConfig {
        HierarchyConfig {
            cores: 2,
            private_levels: vec![
                CacheConfig::lru(128, 2, 64), // L1: 1 set × 2 ways
                CacheConfig::lru(256, 2, 64), // L2: 2 sets × 2 ways
                CacheConfig::lru(512, 2, 64), // L3: 4 sets × 2 ways
            ],
            shared_llc: CacheConfig::lru(2048, 4, 64), // L4: 8 sets × 4 ways
            policy,
        }
    }

    /// Runs a full demand access the way the Base mechanism would.
    fn demand(h: &mut DeepHierarchy, core: usize, block: u64, store: bool, t: &mut Traversal) {
        t.clear();
        if h.access_first(core, block, store, t) {
            h.absorb_stats(t);
            return;
        }
        for lvl in 1..h.levels() {
            if h.lookup(core, lvl, block, t) {
                h.promote(core, lvl, block, store, t);
                h.absorb_stats(t);
                return;
            }
        }
        h.fill_from_memory(core, block, store, t);
        h.absorb_stats(t);
    }

    #[test]
    fn inclusive_miss_fills_all_levels() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Inclusive));
        let mut t = Traversal::new();
        demand(&mut h, 0, 0x40, false, &mut t);
        assert_eq!(t.lookups.len(), 4);
        assert_eq!(t.fills.len(), 4);
        assert!(h.private_cache(0, 0).probe(0x40));
        assert!(h.private_cache(0, 1).probe(0x40));
        assert!(h.private_cache(0, 2).probe(0x40));
        assert!(h.llc().probe(0x40));
        h.check_invariants().unwrap();
    }

    #[test]
    fn second_access_hits_l1() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Inclusive));
        let mut t = Traversal::new();
        demand(&mut h, 0, 0x40, false, &mut t);
        demand(&mut h, 0, 0x40, false, &mut t);
        assert_eq!(t.hit_level, Some(0));
        assert_eq!(t.lookups.len(), 1);
        assert_eq!(h.stats().levels[0].hits, 1);
    }

    #[test]
    fn inclusive_llc_eviction_back_invalidates() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Inclusive));
        let mut t = Traversal::new();
        // LLC set 0 holds 4 ways; blocks mapping to LLC set 0 are multiples
        // of 8 blocks (8 sets). Fill 5 such blocks to force an LLC eviction.
        let blocks: Vec<u64> = (0..5).map(|i| i * 8).collect();
        for &b in &blocks {
            demand(&mut h, 0, b, false, &mut t);
        }
        // The LLC victim must have vanished from the private levels too.
        let victim = t
            .removed
            .iter()
            .find(|&&(l, _)| l == 3)
            .map(|&(_, b)| b)
            .expect("LLC eviction expected");
        assert!(!h.resident_anywhere(0, victim));
        h.check_invariants().unwrap();
    }

    #[test]
    fn inclusive_dirty_l1_eviction_writes_back_to_l2() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Inclusive));
        let mut t = Traversal::new();
        // L1 has 1 set × 2 ways; three blocks that share L1 set but spread
        // over LLC sets: any blocks work since L1 has a single set.
        demand(&mut h, 0, 1, true, &mut t); // store → dirty in L1
        demand(&mut h, 0, 2, false, &mut t);
        // Evicts block 1 from L1: a writeback must arrive at L2 (level 1).
        demand(&mut h, 0, 3, false, &mut t);
        assert!(h.stats().levels[1].writebacks_in >= 1);
        h.check_invariants().unwrap();
    }

    #[test]
    fn inclusive_hit_at_llc_promotes_to_upper_levels() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Inclusive));
        let mut t = Traversal::new();
        demand(&mut h, 0, 0x40, false, &mut t);
        // Evict 0x40 from L1/L2/L3 by filling conflicting blocks, but keep
        // it in the larger LLC: blocks 1..3 share L1 set (1 set) and L2/L3
        // sets cycle faster than LLC's 8 sets.
        for b in [0x48u64, 0x50, 0x58, 0x60, 0x68] {
            demand(&mut h, 0, b, false, &mut t);
        }
        if h.llc().probe(0x40) && !h.private_cache(0, 0).probe(0x40) {
            demand(&mut h, 0, 0x40, false, &mut t);
            assert!(t.hit_level.is_some());
            assert!(h.private_cache(0, 0).probe(0x40), "promoted to L1");
        }
        h.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_full_miss_fills_only_l1() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Exclusive));
        let mut t = Traversal::new();
        demand(&mut h, 0, 0x40, false, &mut t);
        assert!(h.private_cache(0, 0).probe(0x40));
        assert!(!h.private_cache(0, 1).probe(0x40));
        assert!(!h.private_cache(0, 2).probe(0x40));
        assert!(!h.llc().probe(0x40));
        h.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_victims_cascade_down() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Exclusive));
        let mut t = Traversal::new();
        // L1 = 2 ways/1 set. Three distinct blocks: third fill pushes the
        // first block into L2.
        demand(&mut h, 0, 1, false, &mut t);
        demand(&mut h, 0, 2, false, &mut t);
        demand(&mut h, 0, 3, false, &mut t);
        assert!(h.private_cache(0, 1).probe(1), "victim moved to L2");
        assert!(!h.private_cache(0, 0).probe(1));
        h.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_hit_moves_block_up_and_out_of_lower_level() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Exclusive));
        let mut t = Traversal::new();
        demand(&mut h, 0, 1, false, &mut t);
        demand(&mut h, 0, 2, false, &mut t);
        demand(&mut h, 0, 3, false, &mut t); // block 1 now in L2
        demand(&mut h, 0, 1, false, &mut t); // hit in L2 → move back to L1
        assert!(h.private_cache(0, 0).probe(1));
        assert!(
            !h.private_cache(0, 1).probe(1),
            "exclusive: removed from L2"
        );
        h.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_dirty_line_keeps_dirty_through_moves() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Exclusive));
        let mut t = Traversal::new();
        demand(&mut h, 0, 1, true, &mut t); // dirty in L1
                                            // Push it all the way down: L1(2) → L2(4 lines) → L3(8) → LLC(32).
        for b in 2..20u64 {
            demand(&mut h, 0, b, false, &mut t);
        }
        // Wherever block 1 is now, displacing it to memory must produce a
        // memory writeback. Flush it out by filling more conflicting lines.
        let before = h.stats().memory_writebacks;
        for b in 20..200u64 {
            demand(&mut h, 0, b, false, &mut t);
        }
        assert!(
            h.stats().memory_writebacks > before,
            "dirty data must reach memory when displaced off-chip"
        );
        h.check_invariants().unwrap();
    }

    #[test]
    fn hybrid_llc_covers_private_levels() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Hybrid));
        let mut t = Traversal::new();
        for b in 0..30u64 {
            demand(&mut h, 0, b, b % 4 == 0, &mut t);
            demand(&mut h, 1, b + 1000, false, &mut t);
        }
        h.check_invariants().unwrap();
    }

    #[test]
    fn hybrid_hit_in_llc_copies_rather_than_extracts() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Hybrid));
        let mut t = Traversal::new();
        demand(&mut h, 0, 1, false, &mut t);
        // Displace 1 from the private levels (exclusive chain has 2+4+8 = 14
        // lines; 20 extra blocks push it out into... dropped, still in LLC).
        for b in 2..30u64 {
            demand(&mut h, 0, b, false, &mut t);
        }
        if h.llc().probe(1) && !h.private_cache(0, 0).probe(1) {
            demand(&mut h, 0, 1, false, &mut t);
            assert_eq!(t.hit_level, Some(3));
            assert!(h.llc().probe(1), "LLC keeps its copy (inclusive)");
            assert!(h.private_cache(0, 0).probe(1), "copy promoted to L1");
        }
        h.check_invariants().unwrap();
    }

    #[test]
    fn hybrid_private_victim_dirty_merges_into_llc() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Hybrid));
        let mut t = Traversal::new();
        demand(&mut h, 0, 1, true, &mut t); // dirty
        let mut saw_llc_wb = false;
        for b in 2..40u64 {
            t.clear();
            demand(&mut h, 0, b, false, &mut t);
            if t.writebacks.contains(&3) {
                saw_llc_wb = true;
            }
        }
        assert!(saw_llc_wb, "dirty private victim must write back into LLC");
        h.check_invariants().unwrap();
    }

    #[test]
    fn cores_have_isolated_private_caches() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Inclusive));
        let mut t = Traversal::new();
        demand(&mut h, 0, 0x40, false, &mut t);
        assert!(h.private_cache(0, 0).probe(0x40));
        assert!(!h.private_cache(1, 0).probe(0x40));
        // Core 1 hits in the shared LLC though.
        demand(&mut h, 1, 0x40, false, &mut t);
        assert_eq!(t.hit_level, Some(3));
        h.check_invariants().unwrap();
    }

    #[test]
    fn prefetch_fill_installs_down_to_l2_not_l1() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Inclusive));
        let mut t = Traversal::new();
        h.prefetch_fill(0, 1, 0x80, &mut t);
        assert!(!h.private_cache(0, 0).probe(0x80));
        assert!(h.private_cache(0, 1).probe(0x80));
        assert!(h.private_cache(0, 2).probe(0x80));
        assert!(h.llc().probe(0x80));
        h.check_invariants().unwrap();
    }

    #[test]
    fn prefetch_fill_is_idempotent_for_resident_blocks() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Inclusive));
        let mut t = Traversal::new();
        h.prefetch_fill(0, 1, 0x80, &mut t);
        h.absorb_stats(&t);
        let fills_before = h.stats().levels[1].fills;
        assert_eq!(fills_before, 1);
        t.clear();
        h.prefetch_fill(0, 1, 0x80, &mut t);
        h.absorb_stats(&t);
        assert!(t.fills.is_empty(), "no refill of resident block");
        assert_eq!(h.stats().levels[1].fills, fills_before);
    }

    #[test]
    fn core_valid_bits_cover_sharers_and_limit_the_purge() {
        for policy in [InclusionPolicy::Inclusive, InclusionPolicy::Hybrid] {
            let mut h = DeepHierarchy::new(&tiny_config(policy));
            let mut t = Traversal::new();
            let (mut llc_promotes, mut prefetch_shares) = (0, 0);
            let (mut one_owner, mut two_owners) = (0, 0);
            let mut x = 0x0c0f_fee5_u64;
            for i in 0..4000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let core = (x % 2) as usize;
                let bit = 1u64 << core;
                // Both cores draw from one 61-block pool, so blocks are
                // shared, and the 32-line LLC keeps evicting.
                let block = (x >> 8) % 61;
                let before = h.llc().owners(block);
                let set = h.llc().set_of(block);
                let set_owners: Vec<(u64, u64)> = h
                    .llc()
                    .blocks_in_set(set)
                    .map(|b| (b, h.llc().owners(b).unwrap()))
                    .collect();
                let lookups = h.purge_lookups;
                let newly_shared = before.is_some_and(|m| m & bit == 0);
                if policy == InclusionPolicy::Inclusive && i % 4 == 0 {
                    t.clear();
                    h.prefetch_fill(core, 1, block, &mut t);
                    prefetch_shares += usize::from(newly_shared);
                } else {
                    demand(&mut h, core, block, i % 3 == 0, &mut t);
                    llc_promotes += usize::from(newly_shared && t.hit_level == Some(3));
                }
                assert_ne!(h.llc().owners(block).unwrap() & bit, 0, "requester owns");
                if let Some(&(_, victim)) = t.removed.iter().find(|&&(l, _)| l == 3) {
                    let mask = set_owners.iter().find(|&&(b, _)| b == victim).unwrap().1;
                    // Every private set is still probed logically ...
                    assert_eq!(t.probes[..6], [0, 1, 2, 0, 1, 2]);
                    // ... but only the owner cores are looked up.
                    assert_eq!(h.purge_lookups - lookups, 3 * u64::from(mask.count_ones()));
                    match mask.count_ones() {
                        1 => one_owner += 1,
                        2 => two_owners += 1,
                        n => panic!("LLC victim with {n} owners"),
                    }
                }
                h.check_invariants()
                    .unwrap_or_else(|e| panic!("{policy:?} step {i}: {e}"));
            }
            assert!(
                llc_promotes > 0,
                "{policy:?}: no LLC-hit promote shared a block"
            );
            assert!(
                one_owner > 0 && two_owners > 0,
                "{policy:?}: {one_owner}/{two_owners}"
            );
            if policy == InclusionPolicy::Inclusive {
                assert!(prefetch_shares > 0, "no prefetch of an LLC-resident block");
            }
        }
    }

    #[test]
    #[should_panic]
    fn prefetch_fill_rejected_outside_inclusive() {
        let mut h = DeepHierarchy::new(&tiny_config(InclusionPolicy::Exclusive));
        let mut t = Traversal::new();
        h.prefetch_fill(0, 1, 0x80, &mut t);
    }

    #[test]
    fn random_workload_preserves_invariants_all_policies() {
        for policy in [
            InclusionPolicy::Inclusive,
            InclusionPolicy::Exclusive,
            InclusionPolicy::Hybrid,
        ] {
            let mut cfg = tiny_config(policy);
            cfg.private_levels[0].policy = ReplacementPolicy::TreePlru;
            let mut h = DeepHierarchy::new(&cfg);
            let mut t = Traversal::new();
            let mut x = 0x1234_5678u64;
            for i in 0..3000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let core = (x % 2) as usize;
                // Per-core disjoint block ranges, as the simulator runs
                // multi-programmed workloads (exclusive hierarchies have no
                // chip-wide single-copy guarantee under sharing without a
                // coherence protocol, which the paper does not model).
                let block = (x % 97) | ((core as u64) << 20);
                demand(&mut h, core, block, i % 5 == 0, &mut t);
            }
            h.check_invariants()
                .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        }
    }
}
