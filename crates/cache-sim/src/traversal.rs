//! Per-access event log and aggregate hierarchy statistics.
//!
//! Every demand access (and every prefetch probe) produces a [`Traversal`]:
//! the ordered list of array lookups, where the request was satisfied, and
//! every fill / writeback / removal that resulted. The `sim` crate prices
//! these events for latency and energy, and feeds insert/remove events to
//! the predictors (ReDHiP's table on LLC fills, CBF on fills *and*
//! evictions, the per-level tables of the exclusive configuration on every
//! level's events).
//!
//! `Traversal` is designed as a reusable scratch object: call
//! [`Traversal::clear`] and hand it back to the hierarchy. Its vectors
//! retain capacity, so steady-state simulation performs no allocation.

use crate::inline_vec::InlineVec;

/// Cache level index: 0 = L1, `levels-1` = LLC.
pub type LevelId = u8;

/// Pseudo-level denoting main memory in writeback targets.
pub const MEMORY: LevelId = u8::MAX;

/// Capacity of the per-level-bounded event lists: one entry per level of
/// the deepest supported hierarchy (`DeepHierarchy::new` asserts ≤ 8
/// levels). Lists that can grow with the core count (`removed`, `probes`)
/// stay heap-backed.
pub const MAX_LEVELS: usize = 8;

/// Event log of a single hierarchy operation.
///
/// The per-level event lists are fixed-capacity inline arrays: every
/// demand access writes and reads them, and keeping them off the heap
/// keeps the whole log in two cache lines of scratch.
#[derive(Debug, Clone, Default)]
pub struct Traversal {
    /// Array lookups in issue order: `(level, hit)`.
    pub lookups: InlineVec<(LevelId, bool), MAX_LEVELS>,
    /// Fill (line install) events per level, in order.
    pub fills: InlineVec<LevelId, MAX_LEVELS>,
    /// Writeback data arriving at a level (`MEMORY` = off-chip), at most
    /// one per filled level.
    pub writebacks: InlineVec<LevelId, MAX_LEVELS>,
    /// Level that supplied the data; `None` when served from memory.
    pub hit_level: Option<LevelId>,
    /// Blocks installed into a level.
    pub inserted: InlineVec<(LevelId, u64), MAX_LEVELS>,
    /// Blocks displaced from a level (replacement victim, back-invalidation,
    /// or exclusive move-up extraction). Back-invalidation sweeps every
    /// core, so this is unbounded by the level count.
    pub removed: Vec<(LevelId, u64)>,
    /// Tag-array probes performed for back-invalidation (inclusive
    /// victims), one entry per probed level — every core, so heap-backed.
    pub probes: Vec<LevelId>,
}

impl Traversal {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the log, retaining allocation capacity.
    pub fn clear(&mut self) {
        self.lookups.clear();
        self.fills.clear();
        self.writebacks.clear();
        self.hit_level = None;
        self.inserted.clear();
        self.removed.clear();
        self.probes.clear();
    }

    /// Blocks inserted into `level` during this operation.
    pub fn inserted_at(&self, level: LevelId) -> impl Iterator<Item = u64> + '_ {
        self.inserted
            .iter()
            .filter(move |&&(l, _)| l == level)
            .map(|&(_, b)| b)
    }

    /// Blocks removed from `level` during this operation.
    pub fn removed_at(&self, level: LevelId) -> impl Iterator<Item = u64> + '_ {
        self.removed
            .iter()
            .filter(move |&&(l, _)| l == level)
            .map(|&(_, b)| b)
    }

    /// Whether the demand data was found on chip.
    pub fn on_chip_hit(&self) -> bool {
        self.hit_level.is_some()
    }
}

/// Counters for one cache level, aggregated across cores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Demand lookups performed against this level's arrays.
    pub lookups: u64,
    /// Demand lookups that hit.
    pub hits: u64,
    /// Lines installed.
    pub fills: u64,
    /// Lines displaced by replacement.
    pub evictions: u64,
    /// Writeback data received from an upper level.
    pub writebacks_in: u64,
    /// Lines removed by back-invalidation (inclusion enforcement).
    pub invalidations: u64,
}

impl LevelStats {
    /// Hit rate over performed lookups (0 when never looked up).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

impl minijson::ToJson for LevelStats {
    fn to_json(&self) -> minijson::Json {
        minijson::json!({
            "lookups": self.lookups,
            "hits": self.hits,
            "fills": self.fills,
            "evictions": self.evictions,
            "writebacks_in": self.writebacks_in,
            "invalidations": self.invalidations,
        })
    }
}

/// Aggregate statistics for a whole hierarchy.
#[derive(Debug, Clone, Default)]
pub struct HierarchyStats {
    /// Per-level counters, index 0 = L1.
    pub levels: Vec<LevelStats>,
    /// Writebacks that left the LLC for memory.
    pub memory_writebacks: u64,
    /// Demand requests served by memory.
    pub memory_fetches: u64,
}

impl HierarchyStats {
    /// Creates zeroed stats for `levels` cache levels.
    pub fn new(levels: usize) -> Self {
        Self {
            levels: vec![LevelStats::default(); levels],
            memory_writebacks: 0,
            memory_fetches: 0,
        }
    }

    /// Folds one traversal into the aggregate.
    pub fn absorb(&mut self, t: &Traversal) {
        for &(lvl, hit) in &t.lookups {
            let s = &mut self.levels[lvl as usize];
            s.lookups += 1;
            if hit {
                s.hits += 1;
            }
        }
        for &lvl in &t.fills {
            self.levels[lvl as usize].fills += 1;
        }
        for &lvl in &t.writebacks {
            if lvl == MEMORY {
                self.memory_writebacks += 1;
            } else {
                self.levels[lvl as usize].writebacks_in += 1;
            }
        }
        if t.hit_level.is_none() && !t.fills.is_empty() {
            self.memory_fetches += 1;
        }
    }

    /// Records a replacement eviction at `level` (called by the hierarchy).
    pub fn count_eviction(&mut self, level: LevelId) {
        self.levels[level as usize].evictions += 1;
    }

    /// Records a back-invalidation at `level`.
    pub fn count_invalidation(&mut self, level: LevelId) {
        self.levels[level as usize].invalidations += 1;
    }
}

impl minijson::ToJson for HierarchyStats {
    fn to_json(&self) -> minijson::Json {
        minijson::json!({
            "levels": minijson::Json::Arr(self.levels.iter().map(|l| l.to_json()).collect()),
            "memory_writebacks": self.memory_writebacks,
            "memory_fetches": self.memory_fetches,
        })
    }
}

impl minijson::FromJson for LevelStats {
    fn from_json(v: &minijson::Json) -> Result<Self, String> {
        Ok(Self {
            lookups: v.u64_of("lookups")?,
            hits: v.u64_of("hits")?,
            fills: v.u64_of("fills")?,
            evictions: v.u64_of("evictions")?,
            writebacks_in: v.u64_of("writebacks_in")?,
            invalidations: v.u64_of("invalidations")?,
        })
    }
}

impl minijson::FromJson for HierarchyStats {
    fn from_json(v: &minijson::Json) -> Result<Self, String> {
        Ok(Self {
            levels: v
                .arr_of("levels")?
                .iter()
                .map(minijson::FromJson::from_json)
                .collect::<Result<_, _>>()?,
            memory_writebacks: v.u64_of("memory_writebacks")?,
            memory_fetches: v.u64_of("memory_fetches")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_resets_every_list() {
        let mut t = Traversal::new();
        t.lookups.push((0, true));
        t.inserted.push((1, 42));
        t.probes.push(2);
        t.hit_level = Some(0);
        t.clear();
        assert!(t.lookups.is_empty());
        assert!(t.inserted.is_empty());
        assert!(t.probes.is_empty());
        assert_eq!(t.hit_level, None);
    }

    #[test]
    fn inserted_and_removed_filters_by_level() {
        let mut t = Traversal::new();
        t.inserted.push((0, 1));
        t.inserted.push((3, 2));
        t.removed.push((3, 9));
        assert_eq!(t.inserted_at(3).collect::<Vec<_>>(), vec![2]);
        assert_eq!(t.removed_at(3).collect::<Vec<_>>(), vec![9]);
        assert_eq!(t.inserted_at(2).count(), 0);
    }

    #[test]
    fn stats_absorb_counts_lookups_and_memory() {
        let mut s = HierarchyStats::new(4);
        let mut t = Traversal::new();
        t.lookups
            .extend([(0, false), (1, false), (2, false), (3, false)]);
        t.fills.extend([3, 2, 1, 0]);
        t.writebacks.push(MEMORY);
        t.hit_level = None;
        s.absorb(&t);
        assert_eq!(s.levels[0].lookups, 1);
        assert_eq!(s.levels[3].fills, 1);
        assert_eq!(s.memory_writebacks, 1);
        assert_eq!(s.memory_fetches, 1);
    }

    #[test]
    fn hit_rate_computation() {
        let mut s = LevelStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.lookups = 10;
        s.hits = 9;
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn on_chip_hit_reflects_hit_level() {
        let mut t = Traversal::new();
        assert!(!t.on_chip_hit());
        t.hit_level = Some(2);
        assert!(t.on_chip_hit());
    }
}
