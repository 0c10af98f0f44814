//! Counting-Bloom-filter predictor — the prior-work baseline (Ghosh et
//! al., "Efficient system-on-chip energy management with a segmented bloom
//! filter", the paper's reference 9), given the same 512 KB area budget as
//! ReDHiP in the paper's comparison.

use crate::hash::XorHash;

/// CBF design parameters (§II: entries, counter width, hash function count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbfConfig {
    /// log2 of the number of counters.
    pub index_bits: u32,
    /// Bits per counter (the referenced work finds 3 sufficient for a 256 KB
    /// cache; larger caches need more or rely on saturation).
    pub counter_bits: u32,
    /// Number of hash functions (1 is sufficient per the referenced work).
    pub num_hashes: u32,
}

impl CbfConfig {
    /// Derives the largest power-of-two-entry configuration fitting an area
    /// budget in bytes with the given counter width and hash count.
    pub fn from_budget(budget_bytes: u64, counter_bits: u32, num_hashes: u32) -> Self {
        assert!((1..=8).contains(&counter_bits));
        assert!(num_hashes >= 1);
        let bits = budget_bytes * 8;
        let entries = bits / u64::from(counter_bits);
        assert!(entries >= 2, "budget too small");
        // Round down to a power of two for mask indexing.
        let index_bits = 63 - entries.leading_zeros();
        Self {
            index_bits,
            counter_bits,
            num_hashes,
        }
    }

    /// Storage actually used, in bytes.
    pub fn storage_bytes(&self) -> u64 {
        (1u64 << self.index_bits) * u64::from(self.counter_bits) / 8
    }
}

/// A counting Bloom filter over block addresses.
///
/// Counters increment on fills and decrement on evictions. A counter that
/// would overflow is *disabled* (sticky at maximum, never decremented
/// again) — the conservative choice from the referenced work that preserves
/// the no-false-negative guarantee at the price of permanent false
/// positives on that entry.
#[derive(Debug, Clone)]
pub struct CountingBloomFilter {
    config: CbfConfig,
    counters: Vec<u8>,
    disabled: Vec<bool>,
    hashes: Vec<XorHash>,
    max: u8,
    disabled_count: u64,
}

impl CountingBloomFilter {
    /// Builds an empty filter.
    pub fn new(config: CbfConfig) -> Self {
        let entries = 1usize << config.index_bits;
        let hashes = (0..config.num_hashes)
            .map(|s| XorHash::new(config.index_bits, s))
            .collect();
        let mut counters = vec![0; entries];
        crate::prefault(&mut counters);
        let mut disabled = vec![false; entries];
        crate::prefault(&mut disabled);
        Self {
            config,
            counters,
            disabled,
            hashes,
            max: ((1u16 << config.counter_bits) - 1) as u8,
            disabled_count: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> CbfConfig {
        self.config
    }

    /// Number of permanently disabled (overflowed) counters.
    pub fn disabled_counters(&self) -> u64 {
        self.disabled_count
    }

    /// Number of counters currently non-zero (occupancy diagnostic).
    pub fn nonzero_counters(&self) -> u64 {
        self.counters.iter().filter(|&&c| c != 0).count() as u64
    }

    /// Whether `block` may be resident: Bloom semantics, so `false` (some
    /// hash position is zero) proves absence.
    pub fn test(&self, block: u64) -> bool {
        self.hashes
            .iter()
            .all(|h| self.counters[h.index(block) as usize] != 0)
    }

    /// Records that `block` was installed in the covered cache.
    pub fn on_fill(&mut self, block: u64) {
        for h in &self.hashes {
            let i = h.index(block) as usize;
            if self.disabled[i] {
                continue;
            }
            if self.counters[i] == self.max {
                // Overflow: disable, leave sticky at max.
                self.disabled[i] = true;
                self.disabled_count += 1;
            } else {
                self.counters[i] += 1;
            }
        }
    }

    /// Records that `block` left the covered cache.
    pub fn on_evict(&mut self, block: u64) {
        for h in &self.hashes {
            let i = h.index(block) as usize;
            if self.disabled[i] {
                continue;
            }
            debug_assert!(
                self.counters[i] > 0,
                "CBF decrement below zero: eviction without matching fill"
            );
            self.counters[i] = self.counters[i].saturating_sub(1);
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

    fn small() -> CountingBloomFilter {
        CountingBloomFilter::new(CbfConfig {
            index_bits: 8,
            counter_bits: 3,
            num_hashes: 1,
        })
    }

    #[test]
    fn paper_budget_512kb_4bit_counters() {
        let c = CbfConfig::from_budget(512 << 10, 4, 1);
        assert_eq!(c.index_bits, 20); // 1M counters × 4 bits = 512 KB
        assert_eq!(c.storage_bytes(), 512 << 10);
    }

    #[test]
    fn budget_rounds_down_to_power_of_two() {
        let c = CbfConfig::from_budget(512 << 10, 3, 1);
        // 4 Mbit / 3 = 1398101 entries → 2^20.
        assert_eq!(c.index_bits, 20);
        assert!(c.storage_bytes() <= 512 << 10);
    }

    #[test]
    fn fill_then_evict_restores_absent() {
        let mut f = small();
        assert!(!f.test(42));
        f.on_fill(42);
        assert!(f.test(42));
        f.on_evict(42);
        assert!(!f.test(42));
    }

    #[test]
    fn aliased_fills_keep_counter_positive() {
        let mut f = small();
        // 1 and 257 alias under an 8-bit xor-hash of low bits? Construct
        // aliases by probing: find two blocks with equal index.
        let h = XorHash::new(8, 0);
        let a = 5u64;
        let b = (1..10_000u64)
            .find(|&b| h.index(b) == h.index(a) && b != a)
            .unwrap();
        f.on_fill(a);
        f.on_fill(b);
        f.on_evict(a);
        assert!(f.test(b));
        f.on_evict(b);
        assert!(!f.test(b));
    }

    #[test]
    fn overflow_disables_counter_sticky() {
        let mut f = CountingBloomFilter::new(CbfConfig {
            index_bits: 4,
            counter_bits: 2, // max 3
            num_hashes: 1,
        });
        let h = XorHash::new(4, 0);
        // Five distinct blocks hashing to one counter overflow it.
        let target = h.index(7);
        let aliases: Vec<u64> = (0..100_000u64)
            .filter(|&b| h.index(b) == target)
            .take(5)
            .collect();
        assert_eq!(aliases.len(), 5);
        for &b in &aliases {
            f.on_fill(b);
        }
        assert_eq!(f.disabled_counters(), 1);
        // Evicting everything cannot clear a disabled counter.
        for &b in &aliases {
            f.on_evict(b);
        }
        assert!(f.test(aliases[0]));
    }

    #[test]
    fn multi_hash_requires_all_positions() {
        let mut f = CountingBloomFilter::new(CbfConfig {
            index_bits: 10,
            counter_bits: 4,
            num_hashes: 3,
        });
        f.on_fill(1234);
        assert!(f.test(1234));
        f.on_evict(1234);
        assert!(!f.test(1234));
    }

    #[test]
    fn nonzero_counter_diagnostic() {
        let mut f = small();
        assert_eq!(f.nonzero_counters(), 0);
        f.on_fill(1);
        f.on_fill(2);
        assert!(f.nonzero_counters() >= 1);
    }

    /// No false negatives under arbitrary fill/evict interleavings that
    /// mirror a ground-truth resident set (including deliberate overflow
    /// pressure via a tiny filter). Deterministic randomized test.
    #[test]
    fn no_false_negatives_randomized() {
        let mut st = 0xCBF0u64;
        for _case in 0..128 {
            let counter_bits = 2 + (splitmix(&mut st) % 3) as u32;
            let num_hashes = 1 + (splitmix(&mut st) % 3) as u32;
            let mut f = CountingBloomFilter::new(CbfConfig {
                index_bits: 6,
                counter_bits,
                num_hashes,
            });
            let mut resident: HashSet<u64> = HashSet::new();
            let len = 1 + (splitmix(&mut st) % 399) as usize;
            for _ in 0..len {
                let fill = splitmix(&mut st) & 1 == 1;
                let block = splitmix(&mut st) % 512;
                if fill {
                    if resident.insert(block) {
                        f.on_fill(block);
                    }
                } else if resident.remove(&block) {
                    f.on_evict(block);
                }
                for &r in &resident {
                    assert!(f.test(r));
                }
            }
        }
    }

    /// Without overflow, the filter returns to exactly-empty when the
    /// resident set empties.
    #[test]
    fn balanced_ops_restore_empty_randomized() {
        let mut st = 0xCBF1u64;
        for _case in 0..256 {
            let n = 1 + (splitmix(&mut st) % 29) as usize;
            let mut blocks: HashSet<u64> = HashSet::new();
            while blocks.len() < n {
                blocks.insert(splitmix(&mut st) % 10_000);
            }
            let mut f = CountingBloomFilter::new(CbfConfig {
                index_bits: 12,
                counter_bits: 6, // ample headroom: ≤30 blocks
                num_hashes: 2,
            });
            for &b in &blocks {
                f.on_fill(b);
            }
            for &b in &blocks {
                f.on_evict(b);
            }
            assert_eq!(f.nonzero_counters(), 0);
            assert_eq!(f.disabled_counters(), 0);
        }
    }
}
