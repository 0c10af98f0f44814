//! `GemsFDTD` — finite-difference time-domain electromagnetics.
//!
//! The solver sweeps 3-D field grids (E and H) with a 7-point stencil,
//! alternating read sweeps of one grid with writes to the other. Memory
//! character: large grids streamed plane-by-plane, strong short-range reuse
//! from the z±1 neighbours, plane-distance reuse caught by mid-level
//! caches, very high stride predictability.

use super::{boxed, seed_for};
use crate::scale::Scale;
use mem_trace::synth::{LineTouches, Region, Stencil3D, WeightedMix, ZipfOverRecords};
use mem_trace::DynTrace;

const E_BASE: u64 = 0x02_0000_0000;
const H_BASE: u64 = 0x02_8000_0000;
const MAT_BASE: u64 = 0x02_f000_0000;

/// Grid dimensions at demo scale (≈ 6.8 MB per grid at 8 B/element).
const DEMO_DIMS: (u64, u64, u64) = (96, 96, 96);

/// Builds the GemsFDTD-like trace for one core.
pub fn trace(core: usize, scale: Scale) -> DynTrace {
    let (nx, ny, nz) = DEMO_DIMS;
    let f = match scale {
        Scale::Smoke => 4,
        Scale::Demo => 1,
        Scale::Paper => 1,
    };
    // Paper scale grows the grid ~16× in volume (2.5× per axis).
    let (nx, ny, nz) = if scale == Scale::Paper {
        (nx * 5 / 2, ny * 5 / 2, nz * 5 / 2)
    } else {
        (nx / f, ny / f, nz / f)
    };
    // Update E from H; the stencil writes the E grid.
    let stencil = Stencil3D::new(H_BASE, E_BASE, (nx, ny, nz), 8, 0x2000, 2);
    // Source/material parameter table: skewed lookups per cell class.
    let materials = LineTouches::new(
        ZipfOverRecords::new(
            Region::new(MAT_BASE, scale.bytes(2 << 20)),
            64,
            0.9,
            seed_for(0x6e3500, core),
            0x2100,
            0.1,
            2,
        ),
        2,
    );
    boxed(WeightedMix::new(
        vec![Box::new(stencil), Box::new(materials)],
        &[0.85, 0.15],
        seed_for(0x6e3500, core) ^ 1,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil::{check_workload, demo_sample};
    use mem_trace::stats::TraceStats;

    #[test]
    fn character_matches_gemsfdtd() {
        let (scale, refs) = demo_sample();
        let stats = check_workload(trace(0, scale), refs, (0.5, 0.95), (0.7, 1.0), 256 << 10);
        // Mostly the stencil's one store per 8 accesses.
        assert!(stats.store_fraction() > 0.08 && stats.store_fraction() < 0.18);
    }

    #[test]
    fn footprint_is_two_grids() {
        let stats = TraceStats::measure(trace(0, Scale::Smoke), 400_000);
        // Smoke grid 24³ × 8 B ≈ 110 KB per grid; footprint must cover both.
        assert!(stats.footprint_bytes() > 150 << 10);
    }
}
