//! `bwaves` — blast-wave CFD, a blocked dense solver.
//!
//! The original program sweeps several large 3-D state arrays with unit and
//! small strides inside a block-implicit solver, plus a heavily reused
//! working block. Memory character: large streaming footprint, very high
//! stride predictability, moderate store share.

use super::{boxed, seed_for};
use crate::scale::Scale;
use mem_trace::synth::{LineTouches, Region, SequentialStream, WeightedMix, ZipfOverRecords};
use mem_trace::DynTrace;

const BASE: u64 = 0x01_0000_0000;

/// Builds the bwaves-like trace for one core.
pub fn trace(core: usize, scale: Scale) -> DynTrace {
    let big = scale.bytes(8 << 20);
    let coeff = scale.bytes(4 << 20);
    let hot = scale.bytes(256 << 10);

    // State array Q: element-wise read sweep.
    let q = SequentialStream::new(Region::new(BASE, big), 8, 0x1000, 0, 2).with_repeats(3);
    // Residual array R: read-modify-write sweep.
    let r = SequentialStream::new(Region::new(BASE + 0x1_0000_0000, big), 8, 0x1040, 3, 2)
        .with_repeats(2);
    // Jacobian blocks: block-strided (one touch per cache line).
    let jac = SequentialStream::new(Region::new(BASE + 0x2_0000_0000, coeff), 64, 0x1080, 0, 1);
    // Hot solver block: small, reused every iteration.
    let blk = SequentialStream::new(Region::new(BASE + 0x3_0000_0000, hot), 8, 0x10c0, 6, 2)
        .with_repeats(3);
    // Boundary/coefficient hot set: skewed reuse over an LLC-scale region
    // (hot lines resident in the lower levels, the tail missing) — the
    // per-block solver revisits boundary blocks far more often than bulk.
    let work = LineTouches::new(
        ZipfOverRecords::new(
            Region::new(BASE + 0x4_0000_0000, scale.bytes(3 << 20)),
            64,
            0.85,
            seed_for(0xb3a7e5, core) ^ 5,
            0x1100,
            0.25,
            2,
        ),
        3,
    );

    boxed(WeightedMix::new(
        vec![
            Box::new(q),
            Box::new(r),
            Box::new(jac),
            Box::new(blk),
            Box::new(work),
        ],
        &[0.28, 0.22, 0.05, 0.30, 0.15],
        seed_for(0xb3a7e5, core),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil::{check_workload, demo_sample};

    #[test]
    fn character_matches_bwaves() {
        let (scale, refs) = demo_sample();
        let stats = check_workload(trace(0, scale), refs, (0.85, 0.99), (0.75, 1.0), 256 << 10);
        assert!(stats.store_fraction() > 0.05 && stats.store_fraction() < 0.4);
    }

    #[test]
    fn cores_share_structure_but_differ_in_interleaving() {
        let a: Vec<_> = trace(0, Scale::Smoke).take(50).collect();
        let b: Vec<_> = trace(1, Scale::Smoke).take(50).collect();
        assert_ne!(a, b, "core seeds must decorrelate the mixes");
    }
}
