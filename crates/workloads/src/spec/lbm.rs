//! `lbm` — Lattice-Boltzmann fluid dynamics.
//!
//! The classic two-lattice formulation: every timestep streams the whole
//! source lattice (19 distribution values per cell) and writes the
//! destination lattice, then the roles swap. Memory character: two very
//! large arrays, almost pure streaming, ~40% stores, near-perfect stride
//! predictability — the poster child for stride prefetching.

use super::{boxed, seed_for};
use crate::scale::Scale;
use mem_trace::synth::{LineTouches, Region, SequentialStream, WeightedMix, ZipfOverRecords};
use mem_trace::DynTrace;

const SRC: u64 = 0x04_0000_0000;
const DST: u64 = 0x04_8000_0000;
const FLAGS: u64 = 0x04_f000_0000;
const OBSTACLES: u64 = 0x04_e000_0000;

/// Builds the lbm-like trace for one core.
pub fn trace(core: usize, scale: Scale) -> DynTrace {
    let lattice = scale.bytes(12 << 20);
    let flags = scale.bytes(512 << 10);

    // Read the source lattice cell by cell (19 doubles ≈ two cache lines).
    let src = SequentialStream::new(Region::new(SRC, lattice), 8, 0x4000, 0, 2).with_repeats(3);
    // Write the destination lattice (store stream).
    let dst = SequentialStream::new(Region::new(DST, lattice), 8, 0x4040, 1, 2).with_repeats(2);
    // Cell-type flags, one byte-ish per cell → block stride.
    let flags = SequentialStream::new(Region::new(FLAGS, flags), 64, 0x4080, 0, 2);

    // Obstacle/boundary cells: revisited every step (collision handling),
    // skewed toward a small hot set that lives in the lower levels.
    let obstacles = LineTouches::new(
        ZipfOverRecords::new(
            Region::new(OBSTACLES, scale.bytes(2 << 20)),
            64,
            0.9,
            seed_for(0x1b3d00, core) ^ 3,
            0x40c0,
            0.3,
            2,
        ),
        2,
    );

    boxed(WeightedMix::new(
        vec![
            Box::new(src),
            Box::new(dst),
            Box::new(flags),
            Box::new(obstacles),
        ],
        &[0.44, 0.36, 0.05, 0.15],
        seed_for(0x1b3d00, core),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil::{check_workload, demo_sample};

    #[test]
    fn character_matches_lbm() {
        let (scale, refs) = demo_sample();
        let stats = check_workload(trace(0, scale), refs, (0.83, 0.99), (0.75, 1.0), 256 << 10);
        // The destination stream is all stores: ≈ 42% store share.
        assert!(stats.store_fraction() > 0.3 && stats.store_fraction() < 0.55);
    }

    #[test]
    fn footprint_covers_both_lattices() {
        use mem_trace::stats::TraceStats;
        let stats = TraceStats::measure(trace(0, Scale::Demo), 4_000_000);
        assert!(stats.footprint_bytes() > 10 << 20);
    }
}
