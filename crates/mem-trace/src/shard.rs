//! Deterministic trace sharding: one large trace driving many consumers.
//!
//! Two schemes, both pure functions of `(total_records, shards, index)`
//! so every cursor agrees on the partition without coordination:
//!
//! * **Interleave by index** — shard `k` of `n` takes global records
//!   `k, k+n, k+2n, …`. Re-merging the shards round-robin reproduces the
//!   original record order exactly, which is how one interleaved-recorded
//!   file drives `n` simulated cores with byte-identical results to the
//!   original per-core streams.
//! * **Split by range** — shard `k` of `n` takes the contiguous slice
//!   `[k·total/n, (k+1)·total/n)`. Each consumer seeks straight to its
//!   first chunk via the v2 index, so `n` parallel sweep cells touch
//!   disjoint file regions.
//!
//! [`crate::StreamTrace::shard`] applies a spec to an open trace.

/// Which slice of a trace one consumer replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardSpec {
    /// The whole trace.
    All,
    /// Records whose global index ≡ `index` (mod `shards`).
    Interleave {
        /// Total number of shards.
        shards: u32,
        /// This shard's residue class, `< shards`.
        index: u32,
    },
    /// The `index`-th of `shards` equal contiguous record ranges.
    Range {
        /// Total number of shards.
        shards: u32,
        /// This shard's slot, `< shards`.
        index: u32,
    },
}

impl ShardSpec {
    /// The iteration window over global record indices:
    /// `(first, one-past-last, stride)`.
    ///
    /// # Panics
    /// Panics when `shards == 0` or `index >= shards`.
    pub fn window(self, total_records: u64) -> (u64, u64, u64) {
        match self {
            ShardSpec::All => (0, total_records, 1),
            ShardSpec::Interleave { shards, index } => {
                assert!(shards > 0 && index < shards, "bad interleave shard");
                (
                    u64::from(index).min(total_records),
                    total_records,
                    u64::from(shards),
                )
            }
            ShardSpec::Range { shards, index } => {
                assert!(shards > 0 && index < shards, "bad range shard");
                // u128 keeps total × index exact for paper-scale counts.
                let lo = (total_records as u128 * index as u128 / shards as u128) as u64;
                let hi = (total_records as u128 * (index + 1) as u128 / shards as u128) as u64;
                (lo, hi, 1)
            }
        }
    }

    /// Records this shard will emit.
    pub fn len(self, total_records: u64) -> u64 {
        let (lo, hi, stride) = self.window(total_records);
        if hi > lo {
            (hi - lo).div_ceil(stride)
        } else {
            0
        }
    }

    /// True when the shard selects nothing.
    pub fn is_empty(self, total_records: u64) -> bool {
        self.len(total_records) == 0
    }

    /// Stable tag for canonical keys and CLI display, e.g. `interleave2/8`.
    pub fn tag(self) -> String {
        match self {
            ShardSpec::All => "all".to_string(),
            ShardSpec::Interleave { shards, index } => format!("interleave{index}/{shards}"),
            ShardSpec::Range { shards, index } => format!("range{index}/{shards}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_windows_partition_every_index() {
        for total in [0u64, 1, 7, 100] {
            for shards in [1u32, 2, 3, 8] {
                let mut seen = vec![false; total as usize];
                for index in 0..shards {
                    let (lo, hi, stride) = ShardSpec::Interleave { shards, index }.window(total);
                    let mut g = lo;
                    while g < hi {
                        assert!(!seen[g as usize]);
                        seen[g as usize] = true;
                        g += stride;
                    }
                }
                assert!(seen.iter().all(|&s| s), "total {total} shards {shards}");
            }
        }
    }

    #[test]
    fn range_windows_partition_contiguously() {
        for total in [0u64, 1, 7, 100, 101] {
            for shards in [1u32, 2, 3, 8] {
                let mut expect_lo = 0;
                let mut sum = 0;
                for index in 0..shards {
                    let (lo, hi, stride) = ShardSpec::Range { shards, index }.window(total);
                    assert_eq!(stride, 1);
                    assert_eq!(lo, expect_lo);
                    assert!(hi >= lo);
                    expect_lo = hi;
                    sum += hi - lo;
                }
                assert_eq!(expect_lo, total);
                assert_eq!(sum, total);
            }
        }
    }

    #[test]
    fn shard_len_matches_window() {
        assert_eq!(ShardSpec::All.len(10), 10);
        assert_eq!(
            ShardSpec::Interleave {
                shards: 3,
                index: 0
            }
            .len(10),
            4
        );
        assert_eq!(
            ShardSpec::Interleave {
                shards: 3,
                index: 2
            }
            .len(10),
            3
        );
        assert_eq!(
            ShardSpec::Range {
                shards: 3,
                index: 1
            }
            .len(10),
            3
        );
        assert!(ShardSpec::Interleave {
            shards: 4,
            index: 3
        }
        .is_empty(2));
    }

    #[test]
    fn tags_are_stable() {
        assert_eq!(ShardSpec::All.tag(), "all");
        assert_eq!(
            ShardSpec::Interleave {
                shards: 8,
                index: 2
            }
            .tag(),
            "interleave2/8"
        );
        assert_eq!(
            ShardSpec::Range {
                shards: 4,
                index: 0
            }
            .tag(),
            "range0/4"
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_shard_panics() {
        let _ = ShardSpec::Interleave {
            shards: 2,
            index: 2,
        }
        .window(10);
    }
}
