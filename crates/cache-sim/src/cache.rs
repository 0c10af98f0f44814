//! One set-associative writeback cache array.

use crate::config::CacheConfig;
use crate::geometry::BlockGeometry;
use crate::replacement::ReplacerState;

const ENTRY_VALID: u64 = 1;
const ENTRY_DIRTY: u64 = 1 << 1;
/// First bit above the flags: the core-valid field (shared LLC) or the tag.
const ENTRY_FLAG_BITS: u32 = 2;

/// Mask selecting the low `assoc` bits of a per-set validity word.
#[inline]
fn way_mask(assoc: usize) -> u64 {
    if assoc == 64 {
        u64::MAX
    } else {
        (1 << assoc) - 1
    }
}

/// Iterates the set bit positions of a word, ascending.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let w = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(w)
    }
}

/// A line evicted or invalidated out of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Block address of the displaced line.
    pub block: u64,
    /// Whether the line held modified data (requires a writeback).
    pub dirty: bool,
}

/// A set-associative cache storing tags and per-line valid/dirty metadata.
///
/// The cache is *mechanically pure*: it tracks residency and replacement
/// order only. Hit/miss counting, timing and energy belong to the caller
/// (see `sim`), which keeps this hot path minimal.
///
/// Tag and metadata live in one contiguous word array — entry layout
/// `tag << (2 + cores) | owners << 2 | dirty << 1 | valid` — so the
/// way-scan on every access is a single load, mask, and compare per way
/// over one cache-resident stripe. `owners` is the shared LLC's core-valid
/// field (bit `c` ⇔ core `c` may hold the block in its private levels);
/// private caches have `cores = 0` and no such field.
#[derive(Debug, Clone)]
pub struct Cache {
    geom: BlockGeometry,
    assoc: usize,
    /// Bit position of the tag in an entry word: `2 + cores`.
    tag_shift: u32,
    /// Selects the `tag | valid` bits of an entry word, the lookup key.
    key_mask: u64,
    entries: Vec<u64>,
    /// Per-set validity bitmask (bit `w` ⇔ way `w` valid), mirroring the
    /// valid bits in `entries`. Fills pick an invalid way from it in one
    /// bit-scan, and recalibration sweeps (`resident_blocks`) skip empty
    /// sets wholesale instead of touching every entry word.
    valid: Vec<u64>,
    repl: ReplacerState,
    live_lines: u64,
}

/// Touches one word per page so the OS maps the array up front. Zeroed
/// `Vec`s are backed by lazily-faulted pages; without this, a large LLC
/// tag array takes thousands of random-order page faults in the middle
/// of the simulated reference stream instead of a sequential sweep here.
fn prefault<T: Copy>(v: &mut [T]) {
    const PAGE: usize = 4096;
    let step = (PAGE / std::mem::size_of::<T>().max(1)).max(1);
    let mut i = 0;
    while i < v.len() {
        // SAFETY: `i` is in bounds; the element is rewritten with its own
        // value, so contents are unchanged.
        unsafe {
            let p = v.as_mut_ptr().add(i);
            std::ptr::write_volatile(p, std::ptr::read(p));
        }
        i += step;
    }
}

impl Cache {
    /// Builds an empty cache from its configuration.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_owners(config, 0)
    }

    /// Builds an empty cache whose entries carry a `cores`-bit core-valid
    /// field (the shared LLC of a `cores`-core hierarchy).
    ///
    /// # Panics
    /// Panics when the entry word cannot hold the field beside the tag of
    /// every 64-bit byte address: `cores > block_bits + set_bits - 2`.
    pub(crate) fn with_owners(config: CacheConfig, cores: usize) -> Self {
        let geom = config.geometry();
        let tag_bits = 64 - geom.block_bits - geom.set_bits;
        assert!(
            tag_bits as usize + ENTRY_FLAG_BITS as usize + cores <= 64,
            "{cores} core-valid bits do not fit beside a {tag_bits}-bit tag"
        );
        let tag_shift = ENTRY_FLAG_BITS + cores as u32;
        let lines = (geom.sets() as usize) * config.assoc;
        assert!(config.assoc <= 64, "valid mask holds at most 64 ways");
        let mut entries = vec![0; lines];
        let mut valid = vec![0; geom.sets() as usize];
        prefault(&mut entries);
        prefault(&mut valid);
        Self {
            geom,
            assoc: config.assoc,
            tag_shift,
            key_mask: !((1u64 << tag_shift) - 1) | ENTRY_VALID,
            entries,
            valid,
            repl: ReplacerState::new(config.policy, geom.sets() as usize, config.assoc),
            live_lines: 0,
        }
    }

    /// Address geometry of this array.
    pub fn geometry(&self) -> BlockGeometry {
        self.geom
    }

    /// Ways per set.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.geom.sets()
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> u64 {
        self.live_lines
    }

    /// Set index for a block address.
    #[inline]
    pub fn set_of(&self, block: u64) -> u64 {
        self.geom.set_of(block)
    }

    #[inline]
    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.assoc;
        // Masking out the dirty and core-valid bits leaves `tag | valid`:
        // one compare answers "valid and tag matches" per way. The scan
        // visits only the valid ways — a lookup in an empty set (the common
        // case deep in a large, lightly loaded level) is a single mask load.
        let want = (tag << self.tag_shift) | ENTRY_VALID;
        let mut m = self.valid[set];
        if m == way_mask(self.assoc) {
            // Full set — the steady state of a hot upper level, and the
            // case the L1-hit fast path takes on nearly every reference.
            // A straight scan beats per-way bit extraction here.
            for w in 0..self.assoc {
                if self.entries[base + w] & self.key_mask == want {
                    return Some(w);
                }
            }
            return None;
        }
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            if self.entries[base + w] & self.key_mask == want {
                return Some(w);
            }
            m &= m - 1;
        }
        None
    }

    /// Hints the host CPU to pull `block`'s set stripe (entries + validity
    /// mask) into cache. The arrays of a large simulated level exceed the
    /// host's caches, so a demand walk pays a host-DRAM miss per level;
    /// issuing the loads for every level up front overlaps those misses
    /// instead of serializing them. No architectural effect — behaviour is
    /// identical with or without the hint.
    #[inline]
    pub fn prefetch_set(&self, block: u64) {
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let set = self.geom.set_of(block) as usize;
            let entries = self.entries.as_ptr().add(set * self.assoc);
            _mm_prefetch(entries.cast::<i8>(), _MM_HINT_T0);
            if self.assoc > 8 {
                // A stripe wider than 8 ways spans a second 64-byte line,
                // and fills/victim scans touch every way.
                _mm_prefetch(entries.add(8).cast::<i8>(), _MM_HINT_T0);
            }
            _mm_prefetch(self.valid.as_ptr().add(set).cast::<i8>(), _MM_HINT_T0);
            self.repl.prefetch_set(set, self.assoc);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = block;
        }
    }

    /// Checks residency without touching replacement state (used by the
    /// oracle predictor and by invariant checks).
    #[inline]
    pub fn probe(&self, block: u64) -> bool {
        let set = self.geom.set_of(block) as usize;
        self.find_way(set, self.geom.tag_of(block)).is_some()
    }

    /// Demand access: on hit updates replacement recency and (for stores)
    /// the dirty bit. Returns whether the access hit.
    #[inline]
    pub fn access(&mut self, block: u64, is_store: bool) -> bool {
        let set = self.geom.set_of(block) as usize;
        let tag = self.geom.tag_of(block);
        match self.find_way(set, tag) {
            Some(w) => {
                self.repl.on_hit(set, w, self.assoc);
                if is_store {
                    self.entries[set * self.assoc + w] |= ENTRY_DIRTY;
                }
                true
            }
            None => false,
        }
    }

    /// Inserts `block`, evicting a victim if the set is full. The block must
    /// not already be resident (enforced in debug builds).
    pub fn fill(&mut self, block: u64, dirty: bool) -> Option<Evicted> {
        let flags = if dirty { ENTRY_DIRTY } else { 0 };
        self.install(block, flags).map(|(v, _)| v)
    }

    /// Inserts clean `block` with only `core`'s core-valid bit set; like
    /// [`Cache::fill`], but also reports the victim's core-valid mask.
    pub(crate) fn fill_owned(&mut self, block: u64, core: usize) -> Option<(Evicted, u64)> {
        debug_assert!((core as u32) < self.tag_shift - ENTRY_FLAG_BITS);
        self.install(block, 1 << (ENTRY_FLAG_BITS + core as u32))
    }

    /// Sets `core`'s core-valid bit on resident `block`. Returns false
    /// (and changes nothing) when the block is not resident.
    pub(crate) fn add_owner(&mut self, block: u64, core: usize) -> bool {
        debug_assert!((core as u32) < self.tag_shift - ENTRY_FLAG_BITS);
        let set = self.geom.set_of(block) as usize;
        match self.find_way(set, self.geom.tag_of(block)) {
            Some(w) => {
                self.entries[set * self.assoc + w] |= 1 << (ENTRY_FLAG_BITS + core as u32);
                true
            }
            None => false,
        }
    }

    /// Core-valid mask of `block` (bit `c` ⇔ core `c`), or `None` when the
    /// block is not resident.
    pub(crate) fn owners(&self, block: u64) -> Option<u64> {
        let set = self.geom.set_of(block) as usize;
        let w = self.find_way(set, self.geom.tag_of(block))?;
        Some(self.owner_field(self.entries[set * self.assoc + w]))
    }

    /// The core-valid field of an entry word: the bits between the dirty
    /// flag and the tag.
    #[inline]
    fn owner_field(&self, entry: u64) -> u64 {
        (entry & !self.key_mask) >> ENTRY_FLAG_BITS
    }

    /// Writes `block` with extra entry bits `flags` (dirty, core-valid)
    /// into a free way or over the replacement victim, which it returns
    /// with its core-valid mask.
    #[inline]
    fn install(&mut self, block: u64, flags: u64) -> Option<(Evicted, u64)> {
        let set = self.geom.set_of(block) as usize;
        let tag = self.geom.tag_of(block);
        debug_assert!(
            self.find_way(set, tag).is_none(),
            "fill of already-resident block {block:#x}"
        );
        debug_assert!(
            tag.leading_zeros() >= self.tag_shift,
            "tag {tag:#x} does not leave room for the entry flag bits"
        );
        let base = set * self.assoc;
        // Prefer the lowest invalid way (one bit-scan of the set's mask).
        let free = !self.valid[set] & way_mask(self.assoc);
        let (way, evicted) = match free {
            m if m != 0 => (m.trailing_zeros() as usize, None),
            _ => {
                let w = self.repl.victim(set, self.assoc);
                let old = self.entries[base + w];
                let evicted = Evicted {
                    block: self
                        .geom
                        .block_from_parts(old >> self.tag_shift, set as u64),
                    dirty: old & ENTRY_DIRTY != 0,
                };
                self.live_lines -= 1;
                (w, Some((evicted, self.owner_field(old))))
            }
        };
        self.entries[base + way] = (tag << self.tag_shift) | ENTRY_VALID | flags;
        self.valid[set] |= 1 << way;
        self.repl.on_fill(set, way, self.assoc);
        self.live_lines += 1;
        evicted
    }

    /// Removes `block` if resident, reporting its dirtiness. Used both for
    /// back-invalidation (inclusive) and for move-up extraction (exclusive).
    pub fn invalidate(&mut self, block: u64) -> Option<Evicted> {
        let set = self.geom.set_of(block) as usize;
        let tag = self.geom.tag_of(block);
        let w = self.find_way(set, tag)?;
        let idx = set * self.assoc + w;
        let dirty = self.entries[idx] & ENTRY_DIRTY != 0;
        self.entries[idx] = 0;
        self.valid[set] &= !(1 << w);
        self.live_lines -= 1;
        Some(Evicted { block, dirty })
    }

    /// Marks a resident block dirty (writeback arriving from an upper level).
    /// Returns false when the block is not resident.
    pub fn mark_dirty(&mut self, block: u64) -> bool {
        let set = self.geom.set_of(block) as usize;
        let tag = self.geom.tag_of(block);
        match self.find_way(set, tag) {
            Some(w) => {
                self.entries[set * self.assoc + w] |= ENTRY_DIRTY;
                true
            }
            None => false,
        }
    }

    /// Iterates the block addresses of all valid lines in `set` — the
    /// tag-array read that ReDHiP's recalibration hardware performs.
    pub fn blocks_in_set(&self, set: u64) -> impl Iterator<Item = u64> + '_ {
        let base = set as usize * self.assoc;
        self.entries[base..base + self.assoc]
            .iter()
            .filter(|&&e| e & ENTRY_VALID != 0)
            .map(move |&e| self.geom.block_from_parts(e >> self.tag_shift, set))
    }

    /// Iterates all resident block addresses (recalibration, diagnostics).
    /// Driven by the per-set validity masks, so the sweep costs one word
    /// per set plus one load per *resident* line — on a lightly loaded
    /// cache it never touches the bulk of the entry array.
    pub fn resident_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.valid
            .iter()
            .enumerate()
            .filter(|&(_, &mask)| mask != 0)
            .flat_map(move |(set, &mask)| {
                let base = set * self.assoc;
                BitIter(mask).map(move |w| {
                    self.geom
                        .block_from_parts(self.entries[base + w] >> self.tag_shift, set as u64)
                })
            })
    }

    /// Empties the cache.
    pub fn flush(&mut self) {
        self.entries.fill(0);
        self.valid.fill(0);
        self.live_lines = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::ReplacementPolicy;

    fn small_cache() -> Cache {
        // 4 sets × 2 ways × 64B blocks.
        Cache::new(CacheConfig::lru(512, 2, 64))
    }

    /// Block address landing in `set` with the given tag.
    fn blk(tag: u64, set: u64) -> u64 {
        (tag << 2) | set
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache();
        assert!(!c.access(blk(1, 0), false));
        assert_eq!(c.fill(blk(1, 0), false), None);
        assert!(c.access(blk(1, 0), false));
        assert!(c.probe(blk(1, 0)));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn fill_evicts_lru_victim() {
        let mut c = small_cache();
        c.fill(blk(1, 0), false);
        c.fill(blk(2, 0), false);
        c.access(blk(1, 0), false); // tag 1 MRU, tag 2 LRU
        let ev = c.fill(blk(3, 0), false).expect("set full, must evict");
        assert_eq!(ev.block, blk(2, 0));
        assert!(!ev.dirty);
        assert!(c.probe(blk(1, 0)) && c.probe(blk(3, 0)) && !c.probe(blk(2, 0)));
    }

    #[test]
    fn store_dirties_line_and_eviction_reports_it() {
        let mut c = small_cache();
        c.fill(blk(1, 1), false);
        c.access(blk(1, 1), true);
        c.fill(blk(2, 1), false);
        let ev = c.fill(blk(3, 1), false).unwrap();
        assert_eq!(ev.block, blk(1, 1));
        assert!(ev.dirty);
    }

    #[test]
    fn fill_with_dirty_flag() {
        let mut c = small_cache();
        c.fill(blk(7, 2), true);
        let ev = c.invalidate(blk(7, 2)).unwrap();
        assert!(ev.dirty);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn invalidate_missing_block_is_none() {
        let mut c = small_cache();
        assert_eq!(c.invalidate(blk(9, 3)), None);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = small_cache();
        c.fill(blk(1, 0), false);
        c.fill(blk(2, 0), false);
        // Probing tag 1 must NOT refresh it; tag 1 is still LRU.
        assert!(c.probe(blk(1, 0)));
        let ev = c.fill(blk(3, 0), false).unwrap();
        assert_eq!(ev.block, blk(1, 0));
    }

    #[test]
    fn mark_dirty_only_when_resident() {
        let mut c = small_cache();
        assert!(!c.mark_dirty(blk(1, 0)));
        c.fill(blk(1, 0), false);
        assert!(c.mark_dirty(blk(1, 0)));
        let ev = c.invalidate(blk(1, 0)).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn blocks_in_set_reconstructs_full_addresses() {
        let mut c = small_cache();
        c.fill(blk(5, 2), false);
        c.fill(blk(9, 2), false);
        let mut in_set: Vec<u64> = c.blocks_in_set(2).collect();
        in_set.sort_unstable();
        assert_eq!(in_set, vec![blk(5, 2), blk(9, 2)]);
        assert_eq!(c.blocks_in_set(0).count(), 0);
    }

    #[test]
    fn resident_blocks_and_flush() {
        let mut c = small_cache();
        for s in 0..4 {
            c.fill(blk(1, s), false);
        }
        assert_eq!(c.resident_blocks().count(), 4);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.resident_blocks().count(), 0);
    }

    #[test]
    fn invalid_ways_are_preferred_over_eviction() {
        let mut c = small_cache();
        c.fill(blk(1, 0), false);
        c.fill(blk(2, 0), false);
        c.invalidate(blk(1, 0));
        // Set has a hole; filling must not evict tag 2.
        assert_eq!(c.fill(blk(3, 0), false), None);
        assert!(c.probe(blk(2, 0)));
    }

    #[test]
    fn core_valid_bits_ride_beside_the_tag() {
        let mut c = Cache::with_owners(CacheConfig::lru(512, 2, 64), 3);
        assert_eq!(c.fill_owned(blk(1, 0), 2), None);
        assert_eq!(c.owners(blk(1, 0)), Some(0b100));
        assert!(c.add_owner(blk(1, 0), 0));
        assert!(!c.add_owner(blk(2, 0), 1), "absent block gains no owner");
        // Lookups, dirtiness and address reconstruction ignore the field.
        assert!(c.access(blk(1, 0), true) && c.probe(blk(1, 0)));
        assert_eq!(c.blocks_in_set(0).collect::<Vec<_>>(), vec![blk(1, 0)]);
        c.fill_owned(blk(2, 0), 1);
        let (ev, owners) = c.fill_owned(blk(3, 0), 1).unwrap();
        assert_eq!(
            ev,
            Evicted {
                block: blk(1, 0),
                dirty: true
            }
        );
        assert_eq!(owners, 0b101);
        assert_eq!(c.owners(blk(3, 0)), Some(0b010));
    }

    #[test]
    #[should_panic(expected = "core-valid bits")]
    fn core_valid_field_must_fit_beside_the_tag() {
        // 4 sets, 64-byte blocks: a 56-bit tag leaves room for 6 bits.
        Cache::with_owners(CacheConfig::lru(512, 2, 64), 7);
    }

    #[test]
    fn random_policy_cache_works_end_to_end() {
        let mut c = Cache::new(CacheConfig {
            capacity_bytes: 1024,
            assoc: 4,
            block_bytes: 64,
            policy: ReplacementPolicy::Random,
        });
        for i in 0..100u64 {
            let b = i * 7 + 3;
            if !c.access(b, false) {
                c.fill(b, false);
            }
        }
        assert!(c.occupancy() <= 16);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = small_cache();
        for i in 0..1000u64 {
            if !c.access(i, i % 3 == 0) {
                c.fill(i, false);
            }
        }
        assert!(c.occupancy() <= 8);
    }
}
