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
///
/// Under LRU the entry order *is* the recency order: way 0 holds the most
/// recently used line, the valid lines form a prefix of the set, and the
/// victim is the last valid way. A hit or fill moves its line to way 0 and
/// an invalidation closes the gap, so no replacement state exists beside
/// the entries, and hot lines are found by the first compares of a scan.
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
    /// valid bits in `entries`; under LRU always a prefix `(1 << n) - 1`.
    /// Fills find a free way from it in one bit-scan, and recalibration
    /// sweeps (`resident_blocks`) skip empty sets wholesale instead of
    /// touching every entry word.
    valid: Vec<u64>,
    /// State of a way-indexed policy; `None` under LRU, whose recency is
    /// the entry order.
    repl: Option<ReplacerState>,
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
    /// Panics when [`CacheConfig::check`] fails, or when the entry word
    /// cannot hold the field beside the tag of every 64-bit byte address:
    /// `cores > block_bits + set_bits - 2`.
    pub(crate) fn with_owners(config: CacheConfig, cores: usize) -> Self {
        if let Err(e) = config.check() {
            panic!("cannot build the cache: {e}");
        }
        let geom = config.geometry();
        let tag_bits = 64 - geom.block_bits - geom.set_bits;
        assert!(
            tag_bits as usize + ENTRY_FLAG_BITS as usize + cores <= 64,
            "{cores} core-valid bits do not fit beside a {tag_bits}-bit tag"
        );
        let tag_shift = ENTRY_FLAG_BITS + cores as u32;
        let lines = (geom.sets() as usize) * config.assoc;
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
        if m & m.wrapping_add(1) == 0 {
            // The valid ways are a prefix: every LRU set, and any full set
            // (the steady state of a hot upper level). A straight scan
            // beats per-way bit extraction here, and under LRU it meets
            // the most recently used lines first.
            for w in 0..m.count_ones() as usize {
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
            if let Some(repl) = &self.repl {
                repl.prefetch_set(set, self.assoc);
            }
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
        let Some(w) = self.find_way(set, tag) else {
            return false;
        };
        let base = set * self.assoc;
        let way = match &mut self.repl {
            None => {
                self.move_to_front(base, w);
                0
            }
            Some(repl) => {
                repl.on_hit(set, w, self.assoc);
                w
            }
        };
        if is_store {
            self.entries[base + way] |= ENTRY_DIRTY;
        }
        true
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
        let valid = self.valid[set];
        let full = valid == way_mask(self.assoc);
        // The way the new line displaces: under LRU the first free way of
        // the prefix or, in a full set, the last (LRU) way.
        let way = match &mut self.repl {
            None => (valid.count_ones() as usize).min(self.assoc - 1),
            Some(repl) if full => repl.victim(set, self.assoc),
            Some(_) => (!valid).trailing_zeros() as usize,
        };
        let old = self.entries[base + way];
        let entry = (tag << self.tag_shift) | ENTRY_VALID | flags;
        match &mut self.repl {
            None => {
                self.move_to_front(base, way);
                self.entries[base] = entry;
                self.valid[set] = way_mask(way + 1);
            }
            Some(repl) => {
                self.entries[base + way] = entry;
                self.valid[set] |= 1 << way;
                repl.on_fill(set, way, self.assoc);
            }
        }
        if !full {
            self.live_lines += 1;
            return None;
        }
        let evicted = Evicted {
            block: self
                .geom
                .block_from_parts(old >> self.tag_shift, set as u64),
            dirty: old & ENTRY_DIRTY != 0,
        };
        Some((evicted, self.owner_field(old)))
    }

    /// LRU promotion: moves way `w` of the set at `base` to way 0 and ages
    /// ways `0..w` by one.
    #[inline]
    fn move_to_front(&mut self, base: usize, w: usize) {
        let entry = self.entries[base + w];
        for i in (base..base + w).rev() {
            self.entries[i + 1] = self.entries[i];
        }
        self.entries[base] = entry;
    }

    /// Removes `block` if resident, reporting its dirtiness. Used both for
    /// back-invalidation (inclusive) and for move-up extraction (exclusive).
    pub fn invalidate(&mut self, block: u64) -> Option<Evicted> {
        let set = self.geom.set_of(block) as usize;
        let tag = self.geom.tag_of(block);
        let w = self.find_way(set, tag)?;
        let base = set * self.assoc;
        let dirty = self.entries[base + w] & ENTRY_DIRTY != 0;
        if self.repl.is_none() {
            // Close the gap so the valid ways stay a recency-ordered prefix.
            let n = self.valid[set].count_ones() as usize;
            self.entries.copy_within(base + w + 1..base + n, base + w);
            self.entries[base + n - 1] = 0;
            self.valid[set] >>= 1;
        } else {
            self.entries[base + w] = 0;
            self.valid[set] &= !(1 << w);
        }
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
    fn resident_blocks_covers_every_set() {
        let mut c = small_cache();
        for s in 0..4 {
            c.fill(blk(1, s), false);
        }
        c.fill(blk(2, 3), false);
        let mut all: Vec<u64> = c.resident_blocks().collect();
        all.sort_unstable();
        let want = [blk(1, 0), blk(1, 1), blk(1, 2), blk(1, 3), blk(2, 3)];
        assert_eq!(all, want);
    }

    #[test]
    fn lru_stack_property() {
        // One 8-way set: touching ways in any order leaves the line
        // touched longest ago as the victim.
        let mut c = Cache::new(CacheConfig::lru(512, 8, 64));
        for t in 0..8 {
            c.fill(t, false);
        }
        for t in [3u64, 5, 0, 7, 2, 6, 4] {
            assert!(c.access(t, false));
        }
        // Tag 1 was never re-touched after its fill.
        assert_eq!(c.fill(8, false).unwrap().block, 1);
        assert_eq!(c.fill(9, false).unwrap().block, 3);
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
    #[should_panic(expected = "tree-PLRU")]
    fn plru_rejects_non_power_of_two() {
        Cache::new(CacheConfig {
            policy: ReplacementPolicy::TreePlru,
            ..CacheConfig::lru(1536, 6, 64)
        });
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

    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One resident line of the reference model.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Line {
        block: u64,
        dirty: bool,
        owners: u64,
    }

    impl Line {
        fn evicted(&self) -> Evicted {
            Evicted {
                block: self.block,
                dirty: self.dirty,
            }
        }
    }

    /// Naive LRU cache: one recency list per set, most recent first.
    struct LruModel {
        sets: Vec<Vec<Line>>,
        assoc: usize,
    }

    impl LruModel {
        fn set(&mut self, block: u64) -> &mut Vec<Line> {
            let n = self.sets.len() as u64;
            &mut self.sets[(block % n) as usize]
        }

        fn find(&mut self, block: u64) -> Option<&mut Line> {
            self.set(block).iter_mut().find(|l| l.block == block)
        }

        fn access(&mut self, block: u64, is_store: bool) -> bool {
            let set = self.set(block);
            let Some(pos) = set.iter().position(|l| l.block == block) else {
                return false;
            };
            let mut line = set.remove(pos);
            line.dirty |= is_store;
            set.insert(0, line);
            true
        }

        fn fill(&mut self, line: Line) -> Option<Line> {
            let assoc = self.assoc;
            let set = self.set(line.block);
            let victim = (set.len() == assoc).then(|| set.pop().unwrap());
            set.insert(0, line);
            victim
        }

        fn invalidate(&mut self, block: u64) -> Option<Line> {
            let set = self.set(block);
            let pos = set.iter().position(|l| l.block == block)?;
            Some(set.remove(pos))
        }

        fn occupancy(&self) -> u64 {
            self.sets.iter().map(|s| s.len() as u64).sum()
        }
    }

    /// The way-ordered LRU cache must make every decision a naive
    /// recency-list model makes, at every associativity the entry word
    /// supports, with owners, dirty bits and invalidation holes in play.
    #[test]
    fn lru_cache_matches_recency_list_model() {
        const SETS: u64 = 4;
        const CORES: usize = 4;
        let mut rng = 0x1A55_0C1A_7E5Eu64;
        for assoc in [1usize, 2, 3, 4, 8, 12, 16, 32, 64] {
            let capacity = SETS * assoc as u64 * 64;
            let mut c = Cache::with_owners(CacheConfig::lru(capacity, assoc, 64), CORES);
            let mut m = LruModel {
                sets: vec![Vec::new(); SETS as usize],
                assoc,
            };
            // Half again as many blocks per set as ways: hits, misses and
            // evictions all stay frequent.
            let pool = SETS * (assoc as u64 * 3 / 2 + 2);
            for op in 0..20_000 {
                let r = splitmix(&mut rng);
                let block = (r >> 8) % pool;
                let core = (r >> 4) as usize % CORES;
                let ctx = format!("assoc {assoc}, op {op}, block {block}");
                match r % 16 {
                    0..=6 => {
                        let store = r & 0x80 != 0;
                        assert_eq!(c.access(block, store), m.access(block, store), "{ctx}");
                    }
                    7..=10 if m.find(block).is_none() => {
                        let (dirty, owners) = match r % 16 {
                            7 | 8 => (false, 1 << core),
                            _ => (r & 0x80 != 0, 0),
                        };
                        let got = match owners {
                            0 => c.fill(block, dirty).map(|v| (v, 0)),
                            _ => c.fill_owned(block, core),
                        };
                        // `fill` reports the victim without its owners.
                        let want = m
                            .fill(Line {
                                block,
                                dirty,
                                owners,
                            })
                            .map(|l| (l.evicted(), if owners == 0 { 0 } else { l.owners }));
                        assert_eq!(got, want, "{ctx}: victim");
                    }
                    11 => {
                        let want = m.invalidate(block).map(|l| l.evicted());
                        assert_eq!(c.invalidate(block), want, "{ctx}");
                    }
                    12 => {
                        let want = m.find(block).map(|l| l.dirty = true).is_some();
                        assert_eq!(c.mark_dirty(block), want, "{ctx}");
                    }
                    13 => {
                        let want = m.find(block).map(|l| l.owners |= 1 << core).is_some();
                        assert_eq!(c.add_owner(block, core), want, "{ctx}");
                    }
                    _ => {
                        assert_eq!(c.probe(block), m.find(block).is_some(), "{ctx}");
                        let want = m.find(block).map(|l| l.owners);
                        assert_eq!(c.owners(block), want, "{ctx}");
                    }
                }
                assert_eq!(c.occupancy(), m.occupancy(), "{ctx}");
                let set = block % SETS;
                let mut got: Vec<u64> = c.blocks_in_set(set).collect();
                let mut want: Vec<u64> = m.sets[set as usize].iter().map(|l| l.block).collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{ctx}: resident set");
            }
            let mut got: Vec<u64> = c.resident_blocks().collect();
            let mut want: Vec<u64> = m.sets.iter().flatten().map(|l| l.block).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "assoc {assoc}: resident blocks");
        }
    }
}
