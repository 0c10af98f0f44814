//! Workload scale presets, matched to the platform presets in
//! `energy-model`.

/// How big to make each workload's data structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny footprints for unit/integration tests (seconds of wall time).
    Smoke,
    /// Matches `energy_model::presets::demo_scale()` (4 MB LLC): per-core
    /// footprints of one to a few tens of MB, several times the LLC — the
    /// same LLC-pressure regime as the paper. Default for figure runs.
    Demo,
    /// Matches Table I (64 MB LLC): footprints in the hundreds of MB, as
    /// the paper's workloads ("SPEC benchmarks typically consume tens to
    /// hundreds of megabytes, the large-scale applications several GB").
    Paper,
}

impl Scale {
    /// Scales a Demo-reference byte size.
    pub fn bytes(self, demo_bytes: u64) -> u64 {
        match self {
            Scale::Smoke => (demo_bytes / 16).max(4096),
            Scale::Demo => demo_bytes,
            Scale::Paper => demo_bytes * 16,
        }
    }

    /// Scales a Demo-reference element/vertex count.
    pub fn count(self, demo_count: u64) -> u64 {
        match self {
            Scale::Smoke => (demo_count / 16).max(64),
            Scale::Demo => demo_count,
            Scale::Paper => demo_count * 16,
        }
    }

    /// Default number of memory references simulated per core at this scale
    /// (the paper: 500 M per core; Demo is sized so the full figure suite
    /// regenerates in minutes on one CPU while still cycling the scaled
    /// LLC several times; pass `--refs` to the figures harness for longer
    /// runs).
    pub fn default_refs_per_core(self) -> usize {
        match self {
            Scale::Smoke => 60_000,
            Scale::Demo => 600_000,
            Scale::Paper => 24_000_000,
        }
    }

    /// Recalibration period in L1 misses, scaled like the paper's 1 M (the
    /// ratio of recalibrations per simulated reference stays comparable).
    pub fn recalib_period(self) -> u64 {
        match self {
            Scale::Smoke => 4_096,
            Scale::Demo => 65_536,
            Scale::Paper => 1_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_is_16x_demo() {
        assert_eq!(Scale::Paper.bytes(1 << 20), 16 << 20);
        assert_eq!(Scale::Paper.count(1000), 16_000);
    }

    #[test]
    fn smoke_shrinks_with_floors() {
        assert_eq!(Scale::Smoke.bytes(1 << 20), 1 << 16);
        assert_eq!(Scale::Smoke.bytes(100), 4096);
        assert_eq!(Scale::Smoke.count(32), 64);
    }

    #[test]
    fn demo_is_identity() {
        assert_eq!(Scale::Demo.bytes(12345678), 12345678);
        assert_eq!(Scale::Demo.count(777), 777);
    }

    #[test]
    fn recalib_period_scales_with_the_llc() {
        // The paper recalibrates every 1M L1 misses against a 64 MB LLC;
        // the demo hierarchy is 8× smaller, and so is its period (to the
        // nearest power of two), keeping per-miss recalibration overhead
        // comparable.
        assert_eq!(Scale::Paper.recalib_period(), 1_000_000);
        assert!(Scale::Demo.recalib_period() >= 1_000_000 / 16);
        assert!(Scale::Demo.recalib_period() <= 1_000_000 / 8);
    }
}
