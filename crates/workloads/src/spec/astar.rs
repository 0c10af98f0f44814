//! `astar` — A* path-finding over large game maps.
//!
//! Expands nodes from a priority queue: the open list's head region is hot
//! (heavily re-touched), successors scatter over the map with mild
//! locality, and the visited/cost maps take unpredictable single-line hits.
//! Memory character: skewed reuse + random component, little stride
//! regularity beyond the queue maintenance.

use super::{boxed, seed_for};
use crate::scale::Scale;
use mem_trace::record::TraceRecord;
use mem_trace::synth::{RandomInRegion, Region, SequentialStream, WeightedMix, ZipfOverRecords};
use mem_trace::DynTrace;

/// Expands every record of an inner stream into three same-line field
/// accesses (offset +0, +16, +32), as a node expansion does.
struct FieldExpand<T> {
    inner: T,
    current: Option<TraceRecord>,
    phase: u8,
}

impl<T> FieldExpand<T> {
    fn new(inner: T) -> Self {
        Self {
            inner,
            current: None,
            phase: 0,
        }
    }
}

impl<T: Iterator<Item = TraceRecord>> Iterator for FieldExpand<T> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.phase == 0 || self.current.is_none() {
            self.current = Some(self.inner.next()?);
        }
        let base = self.current.expect("set above");
        let rec = match self.phase {
            0 => base,
            1 => TraceRecord::new(base.pc + 4, base.addr + 16, base.op, 1),
            _ => TraceRecord::new(base.pc + 8, base.addr + 32, base.op, 2),
        };
        self.phase = (self.phase + 1) % 3;
        Some(rec)
    }
}

const MAP: u64 = 0x08_0000_0000;
const COSTS: u64 = 0x08_8000_0000;
const HEAP: u64 = 0x08_f000_0000;

/// Builds the astar-like trace for one core.
pub fn trace(core: usize, scale: Scale) -> DynTrace {
    let map_bytes = scale.bytes(12 << 20);
    let cost_bytes = scale.bytes(6 << 20);
    let heap_bytes = scale.bytes(192 << 10);
    let seed = seed_for(0xa57a00, core);

    // Node expansions: popular map regions dominate (corridors, frontiers).
    // Each expansion reads the node's coordinates, cost, and successor list
    // head — three fields in the node's cache line.
    let expand = FieldExpand::new(ZipfOverRecords::new(
        Region::new(MAP, map_bytes),
        64,
        1.05,
        seed ^ 2,
        0x8000,
        0.0,
        2,
    ));
    // Cost/visited map updates: uniform scatter, half stores.
    let costs = RandomInRegion::new(Region::new(COSTS, cost_bytes), seed ^ 3, 0x8040, 0.5, 2, 8);
    // Priority-queue maintenance: tight sequential churn with stores.
    let heap = SequentialStream::new(Region::new(HEAP, heap_bytes), 8, 0x8080, 3, 2);

    boxed(WeightedMix::new(
        vec![Box::new(expand), Box::new(costs), Box::new(heap)],
        &[0.45, 0.12, 0.43],
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil::{check_workload, demo_sample};

    #[test]
    fn character_matches_astar() {
        let (scale, refs) = demo_sample();
        let stats = check_workload(trace(0, scale), refs, (0.6, 0.9), (0.25, 0.75), 1 << 20);
        assert!(stats.store_fraction() > 0.08 && stats.store_fraction() < 0.4);
    }

    #[test]
    fn map_footprint_exceeds_llc() {
        use mem_trace::stats::TraceStats;
        let stats = TraceStats::measure(trace(0, Scale::Demo), 2_000_000);
        assert!(stats.footprint_bytes() > 4 << 20);
    }
}
