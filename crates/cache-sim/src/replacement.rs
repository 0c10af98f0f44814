//! Replacement policies.
//!
//! The paper's hierarchy uses LRU throughout; the other policies exist for
//! ablations (and because lower-level caches in practice often run PLRU or
//! RRIP). LRU keeps no state here: `Cache` holds each set's lines in
//! recency order. Every other policy picks victims by way position, so it
//! keeps its own per-set state and exposes three hooks: `on_hit`,
//! `on_fill`, and `victim`.

/// Which replacement policy a cache runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Exact least-recently-used (each set's ways kept in recency order).
    Lru,
    /// Tree pseudo-LRU (requires power-of-two associativity).
    TreePlru,
    /// Uniform random (xorshift64*, deterministic per cache).
    Random,
    /// Static re-reference interval prediction, 2-bit RRPV (Jaleel et al.).
    Srrip,
}

impl minijson::ToJson for ReplacementPolicy {
    fn to_json(&self) -> minijson::Json {
        minijson::Json::Str(
            match self {
                ReplacementPolicy::Lru => "Lru",
                ReplacementPolicy::TreePlru => "TreePlru",
                ReplacementPolicy::Random => "Random",
                ReplacementPolicy::Srrip => "Srrip",
            }
            .to_string(),
        )
    }
}

/// Runtime state of a way-indexed replacement policy for a whole cache.
#[derive(Debug, Clone)]
pub(crate) enum ReplacerState {
    TreePlru { bits: Vec<u16> },
    Random { state: u64 },
    Srrip { rrpv: Vec<u8> },
}

impl ReplacerState {
    /// Hints the host CPU to pull `set`'s replacement metadata into cache
    /// (see `Cache::prefetch_set`). No-op for stateless policies.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub(crate) fn prefetch_set(&self, set: usize, assoc: usize) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        unsafe {
            match self {
                ReplacerState::TreePlru { bits } => {
                    _mm_prefetch(bits.as_ptr().add(set).cast::<i8>(), _MM_HINT_T0);
                }
                ReplacerState::Random { .. } => {}
                ReplacerState::Srrip { rrpv } => {
                    _mm_prefetch(rrpv.as_ptr().add(set * assoc).cast::<i8>(), _MM_HINT_T0);
                }
            }
        }
    }
}

const SRRIP_MAX: u8 = 3; // 2-bit RRPV
const SRRIP_INSERT: u8 = 2; // "long re-reference" insertion

impl ReplacerState {
    /// State for `policy` over `sets` sets of `assoc` ways; `None` for LRU,
    /// whose recency order is the entry order of each set. The shape must
    /// pass [`CacheConfig::check`](crate::CacheConfig::check).
    pub(crate) fn new(policy: ReplacementPolicy, sets: usize, assoc: usize) -> Option<Self> {
        Some(match policy {
            ReplacementPolicy::Lru => return None,
            ReplacementPolicy::TreePlru => ReplacerState::TreePlru {
                bits: vec![0; sets],
            },
            ReplacementPolicy::Random => ReplacerState::Random {
                state: 0x9e37_79b9_7f4a_7c15,
            },
            ReplacementPolicy::Srrip => ReplacerState::Srrip {
                rrpv: vec![SRRIP_MAX; sets * assoc],
            },
        })
    }

    /// Records a hit on `way` of `set`.
    #[inline]
    pub(crate) fn on_hit(&mut self, set: usize, way: usize, assoc: usize) {
        match self {
            ReplacerState::TreePlru { bits } => {
                bits[set] = plru_touch(bits[set], assoc, way);
            }
            ReplacerState::Random { .. } => {}
            ReplacerState::Srrip { rrpv } => {
                rrpv[set * assoc + way] = 0;
            }
        }
    }

    /// Records a fill into `way` of `set`.
    #[inline]
    pub(crate) fn on_fill(&mut self, set: usize, way: usize, assoc: usize) {
        match self {
            ReplacerState::TreePlru { bits } => {
                bits[set] = plru_touch(bits[set], assoc, way);
            }
            ReplacerState::Random { .. } => {}
            ReplacerState::Srrip { rrpv } => {
                rrpv[set * assoc + way] = SRRIP_INSERT;
            }
        }
    }

    /// Chooses a victim way within a fully-valid `set`.
    #[inline]
    pub(crate) fn victim(&mut self, set: usize, assoc: usize) -> usize {
        match self {
            ReplacerState::TreePlru { bits } => plru_victim(bits[set], assoc),
            ReplacerState::Random { state } => {
                // xorshift64*
                let mut x = *state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *state = x;
                (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) as usize % assoc
            }
            ReplacerState::Srrip { rrpv } => {
                let base = set * assoc;
                loop {
                    for w in 0..assoc {
                        if rrpv[base + w] >= SRRIP_MAX {
                            return w;
                        }
                    }
                    for w in 0..assoc {
                        rrpv[base + w] += 1;
                    }
                }
            }
        }
    }
}

/// Walks the PLRU tree toward `way`, flipping each node to point away from
/// the touched half. Bit convention: node bit 1 ⇒ the LRU side is the right
/// half. Nodes are indexed heap-style from 1; bit of node `i` is `1 << (i-1)`.
#[inline]
fn plru_touch(mut bits: u16, assoc: usize, way: usize) -> u16 {
    let mut idx = 1usize;
    let (mut lo, mut hi) = (0usize, assoc);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let bit = 1u16 << (idx - 1);
        if way < mid {
            bits |= bit; // touched left → LRU on the right
            idx *= 2;
            hi = mid;
        } else {
            bits &= !bit; // touched right → LRU on the left
            idx = idx * 2 + 1;
            lo = mid;
        }
    }
    bits
}

/// Follows the PLRU tree toward the LRU leaf.
#[inline]
fn plru_victim(bits: u16, assoc: usize) -> usize {
    let mut idx = 1usize;
    let (mut lo, mut hi) = (0usize, assoc);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let bit = 1u16 << (idx - 1);
        if bits & bit != 0 {
            idx = idx * 2 + 1; // LRU on the right
            lo = mid;
        } else {
            idx *= 2; // LRU on the left
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plru_never_victimizes_most_recent() {
        let mut r = ReplacerState::new(ReplacementPolicy::TreePlru, 1, 8).unwrap();
        for w in 0..8 {
            r.on_fill(0, w, 8);
        }
        for w in 0..8 {
            r.on_hit(0, w, 8);
            assert_ne!(r.victim(0, 8), w, "PLRU must not pick the MRU way");
        }
    }

    #[test]
    fn plru_victim_then_touch_alternates_halves() {
        let mut r = ReplacerState::new(ReplacementPolicy::TreePlru, 1, 4).unwrap();
        for w in 0..4 {
            r.on_fill(0, w, 4);
        }
        let v1 = r.victim(0, 4);
        r.on_hit(0, v1, 4);
        let v2 = r.victim(0, 4);
        // After touching the previous victim the new victim is in the other half.
        assert_ne!(v1 / 2, v2 / 2);
    }

    #[test]
    fn random_victims_cover_all_ways() {
        let mut r = ReplacerState::new(ReplacementPolicy::Random, 1, 4).unwrap();
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.victim(0, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "random should reach every way");
    }

    #[test]
    fn srrip_prefers_distant_rrpv() {
        let mut r = ReplacerState::new(ReplacementPolicy::Srrip, 1, 4).unwrap();
        for w in 0..4 {
            r.on_fill(0, w, 4);
        }
        r.on_hit(0, 2, 4); // rrpv[2] = 0
                           // All others sit at 2; aging promotes them to 3 before way 2.
        let v = r.victim(0, 4);
        assert_ne!(v, 2);
    }

    #[test]
    fn srrip_victim_terminates_and_ages() {
        let mut r = ReplacerState::new(ReplacementPolicy::Srrip, 1, 2).unwrap();
        r.on_fill(0, 0, 2);
        r.on_fill(0, 1, 2);
        r.on_hit(0, 0, 2);
        r.on_hit(0, 1, 2);
        // Both at rrpv 0 → two aging rounds, then way 0 wins.
        assert_eq!(r.victim(0, 2), 0);
    }
}
