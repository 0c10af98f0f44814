//! `cactusADM` — numerical relativity (ADM formulation), the Cactus
//! BenchADM kernel.
//!
//! Evolves Einstein field variables on a 3-D grid: a stencil over the
//! metric tensor components plus streaming reads of many per-point
//! coefficient arrays. Compared with GemsFDTD the grid is flatter and each
//! point touches more auxiliary state, diluting short-range reuse.

use super::{boxed, seed_for};
use crate::scale::Scale;
use mem_trace::synth::{
    LineTouches, Region, SequentialStream, Stencil3D, WeightedMix, ZipfOverRecords,
};
use mem_trace::DynTrace;

const GRID_IN: u64 = 0x03_0000_0000;
const GRID_OUT: u64 = 0x03_4000_0000;
const COEFF: u64 = 0x03_8000_0000;

/// Builds the cactusADM-like trace for one core.
pub fn trace(core: usize, scale: Scale) -> DynTrace {
    let (nx, ny, nz) = match scale {
        Scale::Smoke => (24, 24, 12),
        Scale::Demo => (128, 96, 48),
        Scale::Paper => (320, 240, 120),
    };
    let coeff_bytes = scale.bytes(6 << 20);

    let stencil = Stencil3D::new(GRID_IN, GRID_OUT, (nx, ny, nz), 8, 0x3000, 3);
    // Coefficient arrays streamed alongside the sweep (unit stride).
    let coeff = SequentialStream::new(Region::new(COEFF, coeff_bytes), 8, 0x3100, 0, 2);
    // Horizon/gauge lookup tables: skewed reuse, LLC-resident head.
    let tables = LineTouches::new(
        ZipfOverRecords::new(
            Region::new(COEFF + 0x1000_0000, scale.bytes(2 << 20)),
            64,
            0.9,
            seed_for(0xcac705, core) ^ 7,
            0x3200,
            0.15,
            2,
        ),
        2,
    );

    boxed(WeightedMix::new(
        vec![Box::new(stencil), Box::new(coeff), Box::new(tables)],
        &[0.55, 0.30, 0.15],
        seed_for(0xcac705, core),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil::{check_workload, demo_sample};

    #[test]
    fn character_matches_cactusadm() {
        let (scale, refs) = demo_sample();
        let stats = check_workload(trace(0, scale), refs, (0.5, 0.95), (0.7, 1.0), 256 << 10);
        assert!(stats.store_fraction() > 0.04 && stats.store_fraction() < 0.15);
    }

    #[test]
    fn scales_change_grid_volume() {
        use mem_trace::stats::TraceStats;
        let small = TraceStats::measure(trace(0, Scale::Smoke), 60_000);
        let demo = TraceStats::measure(trace(0, Scale::Demo), 60_000);
        assert!(demo.footprint_bytes() > small.footprint_bytes());
    }
}
