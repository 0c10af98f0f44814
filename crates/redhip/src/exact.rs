//! Continuously-exact bits-hash counting table.
//!
//! Semantically identical to a [`crate::table::PredictionTable`] that is
//! recalibrated after *every* L1 miss (the leftmost point of the paper's
//! Figure 12, "perfect recalibration"): each bits-hash index holds the
//! exact count of resident blocks mapping to it, maintained incrementally
//! on fills and evictions, so a zero count is always exactly "no resident
//! alias". Used by the Fig. 12 sweep (which ignores overhead, as the paper
//! does for that study) and by the entry-width ablation: this is what the
//! 1-bit design would have to become if recalibration were free.

use crate::hash::BitsHash;

/// Exact per-index reference counts under the bits-hash.
#[derive(Debug, Clone)]
pub struct ExactCountingTable {
    counts: Vec<u32>,
    hash: BitsHash,
}

impl ExactCountingTable {
    /// Builds a table with `index_bits`-bit indices.
    pub fn new(index_bits: u32) -> Self {
        let hash = BitsHash::new(index_bits);
        let mut counts = vec![0; hash.table_entries() as usize];
        crate::prefault(&mut counts);
        Self { counts, hash }
    }

    /// Builds from the same byte-capacity convention as the 1-bit table
    /// (2^p entries for `bytes × 8 = 2^p`) so sweeps compare equal-`p`
    /// designs. Note the *hardware* cost of this design would be 32× the
    /// bits — that is exactly the paper's argument for 1-bit entries.
    pub fn from_capacity_bytes(bytes: u64) -> Self {
        let bits = bytes * 8;
        assert!(bits.is_power_of_two());
        Self::new(bits.trailing_zeros())
    }

    /// Index width `p`.
    pub fn index_bits(&self) -> u32 {
        self.hash.index_bits
    }

    /// Whether a resident block aliases `block`'s index; `false` proves
    /// absence.
    pub fn test(&self, block: u64) -> bool {
        self.counts[self.hash.index(block) as usize] > 0
    }

    /// Records that `block` was installed in the covered cache.
    pub fn on_fill(&mut self, block: u64) {
        self.counts[self.hash.index(block) as usize] += 1;
    }

    /// Records that `block` left the covered cache.
    pub fn on_evict(&mut self, block: u64) {
        let c = &mut self.counts[self.hash.index(block) as usize];
        debug_assert!(*c > 0, "eviction without matching fill");
        *c = c.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn counts_track_aliases_exactly() {
        let mut t = ExactCountingTable::new(8);
        t.on_fill(5);
        t.on_fill(5 + 256); // alias
        assert!(t.test(5));
        t.on_evict(5);
        assert!(t.test(5), "alias still resident");
        t.on_evict(5 + 256);
        assert!(!t.test(5));
    }

    #[test]
    fn capacity_convention_matches_table() {
        let t = ExactCountingTable::from_capacity_bytes(64 << 10);
        assert_eq!(t.index_bits(), 19);
    }

    /// Equivalence with recalibrate-every-step: after each operation,
    /// the exact table predicts identically to a freshly recalibrated
    /// 1-bit table. Deterministic randomized test.
    #[test]
    fn equals_fresh_recalibration_randomized() {
        use crate::table::PredictionTable;
        let mut st = 0xE8AC7u64;
        for _case in 0..64 {
            let mut exact = ExactCountingTable::new(7);
            let mut resident: HashSet<u64> = HashSet::new();
            let len = 1 + (splitmix(&mut st) % 199) as usize;
            for _ in 0..len {
                let fill = splitmix(&mut st) & 1 == 1;
                let block = splitmix(&mut st) % 2048;
                if fill {
                    if resident.insert(block) {
                        exact.on_fill(block);
                    }
                } else if resident.remove(&block) {
                    exact.on_evict(block);
                }
                let mut fresh = PredictionTable::new(7);
                fresh.recalibrate_from(resident.iter().copied());
                for probe in [block, block ^ 1, block.wrapping_add(128), 0] {
                    assert_eq!(exact.test(probe), fresh.test(probe));
                }
            }
        }
    }
}
