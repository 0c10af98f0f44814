//! `milc` — lattice QCD (MIMD Lattice Computation).
//!
//! Sweeps a 4-D space-time lattice; each site update reads SU(3) gauge-link
//! matrices (3×3 complex doubles = 144 B) for several directions and writes
//! the site's result. Memory character: multiple large arrays walked with a
//! constant record stride, modest compute gaps, mostly loads.

use super::{boxed, seed_for};
use crate::scale::Scale;
use mem_trace::synth::{LineTouches, Region, SequentialStream, WeightedMix, ZipfOverRecords};
use mem_trace::DynTrace;

const LINKS: u64 = 0x06_0000_0000;
const SITES: u64 = 0x06_8000_0000;

/// Builds the milc-like trace for one core.
pub fn trace(core: usize, scale: Scale) -> DynTrace {
    let link_bytes = scale.bytes(5 << 20);
    let site_bytes = scale.bytes(4 << 20);

    // Four direction link arrays. The kernel reads every element of each
    // SU(3) record (18 doubles), so the sweep is dense: unit (8 B) stride
    // with the usual 7-of-8 in-line reuse, exactly like the real su3_mat
    // loads.
    let mut sources: Vec<Box<dyn Iterator<Item = mem_trace::TraceRecord> + Send>> = Vec::new();
    let mut weights = Vec::new();
    for dir in 0..4u64 {
        let base = LINKS + dir * 0x1000_0000;
        sources.push(Box::new(
            SequentialStream::new(Region::new(base, link_bytes), 8, 0x6000 + dir * 0x40, 0, 3)
                .with_repeats(2),
        ));
        weights.push(0.17);
    }
    // Site results: unit-stride read-modify-write.
    sources.push(Box::new(
        SequentialStream::new(Region::new(SITES, site_bytes), 8, 0x6200, 2, 3).with_repeats(2),
    ));
    weights.push(0.16);
    // Staple accumulators: skewed reuse over an LLC-scale region (lattice
    // sites near the active time slice are revisited across directions).
    sources.push(Box::new(LineTouches::new(
        ZipfOverRecords::new(
            Region::new(SITES + 0x1000_0000, scale.bytes(3 << 20)),
            64,
            0.9,
            seed_for(0x313c00, core) ^ 9,
            0x6300,
            0.3,
            2,
        ),
        3,
    )));
    weights.push(0.16);

    boxed(WeightedMix::new(
        sources,
        &weights,
        seed_for(0x313c00, core),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil::{check_workload, demo_sample};

    #[test]
    fn character_matches_milc() {
        let (scale, refs) = demo_sample();
        // Record-strided link reads rarely revisit a line; the site stream
        // provides most short reuse. Strides are perfectly regular.
        let stats = check_workload(trace(0, scale), refs, (0.7, 0.95), (0.75, 1.0), 256 << 10);
        assert!(stats.store_fraction() > 0.08 && stats.store_fraction() < 0.3);
    }

    #[test]
    fn links_dominate_footprint() {
        use mem_trace::stats::TraceStats;
        let stats = TraceStats::measure(trace(0, Scale::Demo), 2_000_000);
        assert!(stats.footprint_bytes() > 2 << 20);
    }
}
