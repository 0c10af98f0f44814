//! Static configuration of one cache array.

use crate::geometry::BlockGeometry;
use crate::replacement::ReplacementPolicy;

/// Configuration of one set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Ways per set.
    pub assoc: usize,
    /// Block size in bytes (64 in the paper).
    pub block_bytes: u64,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
}

impl CacheConfig {
    /// Convenience constructor with LRU replacement.
    pub fn lru(capacity_bytes: u64, assoc: usize, block_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            assoc,
            block_bytes,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// Derived geometry. Panics on invalid size combinations (see
    /// [`BlockGeometry::from_capacity`]).
    pub fn geometry(&self) -> BlockGeometry {
        BlockGeometry::from_capacity(self.capacity_bytes, self.assoc, self.block_bytes)
    }

    /// Total number of cache lines.
    pub fn lines(&self) -> u64 {
        self.capacity_bytes / self.block_bytes
    }

    /// Checks that a [`Cache`](crate::Cache) can be built from this
    /// configuration: a power-of-two block size and set count, 1..=64 ways
    /// (one validity-mask bit per way), and for tree-PLRU a power-of-two
    /// associativity of at most 16 (its tree packs into a `u16`).
    pub fn check(&self) -> Result<(), String> {
        let assoc = self.assoc;
        if !self.block_bytes.is_power_of_two() {
            return Err(format!(
                "block size {} is not a power of two",
                self.block_bytes
            ));
        }
        if !(1..=64).contains(&assoc) {
            return Err(format!("associativity {assoc} is outside 1..=64 ways"));
        }
        let lines = self.lines();
        if !lines.is_multiple_of(assoc as u64) || !(lines / assoc as u64).is_power_of_two() {
            return Err(format!(
                "{} bytes do not form a power-of-two number of {assoc}-way sets of \
                 {}-byte blocks",
                self.capacity_bytes, self.block_bytes
            ));
        }
        if self.policy == ReplacementPolicy::TreePlru && (!assoc.is_power_of_two() || assoc > 16) {
            return Err(format!(
                "tree-PLRU needs a power-of-two associativity of at most 16 ways (got {assoc})"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_constructor_and_lines() {
        let c = CacheConfig::lru(256 << 10, 8, 64);
        assert_eq!(c.policy, ReplacementPolicy::Lru);
        assert_eq!(c.lines(), 4096);
        assert_eq!(c.geometry().sets(), 512);
    }

    #[test]
    fn check_rejects_unbuildable_shapes() {
        assert_eq!(CacheConfig::lru(4 << 20, 64, 64).check(), Ok(()));
        let plru = |capacity_bytes, assoc| CacheConfig {
            policy: ReplacementPolicy::TreePlru,
            ..CacheConfig::lru(capacity_bytes, assoc, 64)
        };
        assert_eq!(plru(32 << 10, 16).check(), Ok(()));
        for (bad, why) in [
            (CacheConfig::lru(96 << 10, 4, 64), "power-of-two number"),
            (CacheConfig::lru(32 << 10, 12, 64), "power-of-two number"),
            (CacheConfig::lru(32 << 10, 4, 48), "block size"),
            (CacheConfig::lru(32 << 10, 0, 64), "outside 1..=64"),
            (CacheConfig::lru(64 << 10, 128, 64), "outside 1..=64"),
            (plru(48 << 10, 6), "tree-PLRU"),
            (plru(64 << 10, 32), "tree-PLRU"),
        ] {
            let err = bad.check().unwrap_err();
            assert!(err.contains(why), "{bad:?}: {err}");
        }
    }

    #[test]
    fn table_i_line_counts() {
        assert_eq!(CacheConfig::lru(32 << 10, 4, 64).lines(), 512); // L1
        assert_eq!(CacheConfig::lru(256 << 10, 8, 64).lines(), 4096); // L2
        assert_eq!(CacheConfig::lru(4 << 20, 16, 64).lines(), 65536); // L3
        assert_eq!(CacheConfig::lru(64 << 20, 16, 64).lines(), 1 << 20); // L4: "1 million tags"
    }
}
