//! The ReDHiP prediction table: direct-mapped, 1-bit entries, bits-hash.

use crate::hash::BitsHash;

/// Direct-mapped bitmap predicting LLC residency.
///
/// A bit is set when a block whose hash maps to it is filled into the LLC
/// and is *never cleared on eviction* (§III-A, "Entry Width"): with a 1-bit
/// entry there is nothing to decrement. Staleness accumulates as false
/// positives until [`PredictionTable::recalibrate_from`] rebuilds the whole
/// table from the LLC's true contents.
///
/// The invariant that makes bypassing safe: the set of bits is always a
/// superset of the hashes of resident blocks (fills set bits immediately;
/// recalibration replaces the table with exactly the resident hashes).
/// Therefore a zero bit proves absence — no false negatives, ever.
#[derive(Debug, Clone)]
pub struct PredictionTable {
    words: Vec<u64>,
    hash: BitsHash,
}

/// Bits per table word (the paper's "64-bit line", one per LLC set when
/// `p − k = 6`).
pub const WORD_BITS: u32 = 64;
/// `log2(WORD_BITS)`.
const WORD_SHIFT: u32 = WORD_BITS.trailing_zeros();

impl PredictionTable {
    /// Builds a table with `index_bits`-bit indices (capacity
    /// `2^index_bits` one-bit entries = `2^index_bits / 8` bytes).
    pub fn new(index_bits: u32) -> Self {
        let hash = BitsHash::new(index_bits);
        let words = (hash.table_entries() / u64::from(WORD_BITS)).max(1);
        let mut words = vec![0; words as usize];
        crate::prefault(&mut words);
        Self { words, hash }
    }

    /// Builds the table from a capacity in bytes (must give a power-of-two
    /// entry count; the paper's 512 KB → 2^22 entries → p = 22).
    pub fn from_capacity_bytes(bytes: u64) -> Self {
        let bits = bytes * 8;
        assert!(
            bits.is_power_of_two(),
            "table capacity must hold a power-of-two number of 1-bit entries"
        );
        Self::new(bits.trailing_zeros())
    }

    /// Builds the table for one cache of the fully-exclusive configuration
    /// (§III-C): `ratio` of the covered cache's capacity, rounded down to a
    /// power-of-two entry count of at least 64.
    pub fn with_overhead_ratio(cache_capacity_bytes: u64, ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio < 1.0);
        let bits = ((cache_capacity_bytes as f64 * ratio) * 8.0) as u64;
        Self::new((63 - bits.leading_zeros().min(57)).max(6))
    }

    /// Index width `p`.
    pub fn index_bits(&self) -> u32 {
        self.hash.index_bits
    }

    /// Capacity in 1-bit entries.
    pub fn entries(&self) -> u64 {
        self.hash.table_entries()
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.entries() / 8
    }

    /// Number of 64-bit lines.
    pub fn lines(&self) -> u64 {
        self.words.len() as u64
    }

    #[inline]
    fn locate(&self, block: u64) -> (usize, u64) {
        let idx = self.hash.index(block);
        ((idx >> WORD_SHIFT) as usize, idx & u64::from(WORD_BITS - 1))
    }

    /// Tests the bit for `block`: one masked load — the probe the paper
    /// prices at a single small-SRAM access.
    #[inline(always)]
    pub fn test(&self, block: u64) -> bool {
        let (w, b) = self.locate(block);
        self.words[w] >> b & 1 != 0
    }

    /// Sets the bit for `block`.
    #[inline]
    pub fn set(&mut self, block: u64) {
        let (w, b) = self.locate(block);
        self.words[w] |= 1 << b;
    }

    /// Number of set bits (diagnostics: table occupancy / staleness).
    pub fn popcount(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Rebuilds the table from the true resident block set — the functional
    /// effect of the Figure 4 hardware (the decoder + OR-tree per set). The
    /// cycle/energy *cost* of doing this is modelled separately by
    /// [`crate::recalib::RecalibrationEngine`].
    pub fn recalibrate_from(&mut self, resident: impl Iterator<Item = u64>) {
        self.words.fill(0);
        for block in resident {
            self.set(block);
        }
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
    fn paper_sizing_512kb_is_p22() {
        let t = PredictionTable::from_capacity_bytes(512 << 10);
        assert_eq!(t.index_bits(), 22);
        assert_eq!(t.entries(), 1 << 22);
        assert_eq!(t.capacity_bytes(), 512 << 10);
        assert_eq!(t.lines(), 65536); // one 64-bit line per 64MB-LLC set
    }

    #[test]
    fn demo_sizing_64kb_is_p19() {
        let t = PredictionTable::from_capacity_bytes(64 << 10);
        assert_eq!(t.index_bits(), 19);
        assert_eq!(t.lines(), 8192); // one line per 8MB-LLC set (demo scale)
    }

    #[test]
    fn overhead_ratio_sizing_matches_paper() {
        // 0.78% of a 64 MB LLC → 512 KB → 2^22 entries; of 4 MB L3 → 32 KB;
        // of 256 KB L2 → 2 KB.
        for (cache, table) in [
            (256 << 10, 2 << 10),
            (4 << 20, 32 << 10),
            (64 << 20, 512 << 10),
        ] {
            let t = PredictionTable::with_overhead_ratio(cache, 0.0078125);
            assert_eq!(t.capacity_bytes(), table);
        }
    }

    #[test]
    fn tiny_caches_get_minimum_table() {
        let t = PredictionTable::with_overhead_ratio(1 << 10, 0.0078125);
        assert!(t.entries() >= 64);
    }

    #[test]
    fn fill_sets_bit_until_recalibration() {
        let mut t = PredictionTable::new(10);
        assert!(!t.test(5));
        t.set(5);
        assert!(t.test(5));
        // No eviction input exists: the stale positive stays until the
        // table is rebuilt from the (now empty) resident set.
        t.set(6);
        assert!(t.test(5), "1-bit: stale positive");
        t.recalibrate_from(std::iter::empty());
        assert!(!t.test(5));
    }

    #[test]
    fn aliasing_blocks_share_a_bit() {
        let mut t = PredictionTable::new(8);
        t.set(3);
        // 3 + 256 aliases with 3 under an 8-bit bits-hash.
        assert!(t.test(3 + 256));
        assert!(!t.test(4));
    }

    #[test]
    fn recalibration_clears_stale_bits() {
        let mut t = PredictionTable::new(12);
        for b in 0..100u64 {
            t.set(b);
        }
        assert_eq!(t.popcount(), 100);
        // Cache now only holds blocks 0..10.
        t.recalibrate_from(0..10u64);
        assert_eq!(t.popcount(), 10);
        assert!(!t.test(50));
        assert!(t.test(5));
    }

    #[test]
    fn recalibrate_equals_fresh_fill() {
        let resident: Vec<u64> = vec![1, 77, 4096, 123_456, 99];
        let mut stale = PredictionTable::new(14);
        for b in 0..500u64 {
            stale.set(b * 3);
        }
        stale.recalibrate_from(resident.iter().copied());

        let mut fresh = PredictionTable::new(14);
        for &b in &resident {
            fresh.set(b);
        }
        assert_eq!(stale.words, fresh.words);
    }

    /// The bypass-safety invariant: under arbitrary interleavings of
    /// fills, evictions, and recalibrations mirroring a ground-truth
    /// resident set, no resident block ever tests absent.
    /// Deterministic randomized test.
    #[test]
    fn no_false_negatives_randomized() {
        let mut st = 0x7AB1Eu64;
        for _case in 0..96 {
            let index_bits = 6 + (splitmix(&mut st) % 8) as u32;
            let mut t = PredictionTable::new(index_bits);
            let mut resident: HashSet<u64> = HashSet::new();
            let len = 1 + (splitmix(&mut st) % 299) as usize;
            for _ in 0..len {
                let op = splitmix(&mut st) % 3;
                let block = splitmix(&mut st) % 4096;
                match op {
                    0 => {
                        if resident.insert(block) {
                            t.set(block);
                        }
                    }
                    1 => {
                        // Evictions reach no 1-bit table (§III-A).
                        resident.remove(&block);
                    }
                    _ => t.recalibrate_from(resident.iter().copied()),
                }
                for &r in &resident {
                    assert!(t.test(r));
                }
            }
        }
    }

    /// Right after recalibration the only positives are aliases of
    /// resident blocks (per-bit exactness).
    #[test]
    fn recalibration_exact_per_bit_randomized() {
        let mut st = 0x7AB1Fu64;
        for _case in 0..256 {
            let n_resident = (splitmix(&mut st) % 64) as usize;
            let resident: HashSet<u64> = (0..n_resident)
                .map(|_| splitmix(&mut st) % 100_000)
                .collect();
            let probe: Vec<u64> = (0..32).map(|_| splitmix(&mut st) % 100_000).collect();
            let mut t = PredictionTable::new(10);
            for b in 0..2000u64 {
                t.set(b); // heavy staleness
            }
            t.recalibrate_from(resident.iter().copied());
            let hash = BitsHash::new(10);
            let live: HashSet<u64> = resident.iter().map(|&b| hash.index(b)).collect();
            for p in probe {
                let predicted = t.test(p);
                assert_eq!(predicted, live.contains(&hash.index(p)));
            }
        }
    }
}
