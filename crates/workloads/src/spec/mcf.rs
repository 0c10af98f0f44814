//! `mcf` — single-depot vehicle scheduling via network simplex.
//!
//! The benchmark famous for destroying memory hierarchies: the network
//! simplex walks linked node/arc structures whose traversal order is data
//! dependent and effectively random at scale. Each visited node's fields
//! are then touched with spatial locality before the walk jumps on.
//!
//! We reproduce that shape with a bespoke kernel: node visits scatter
//! uniformly over a pool far larger than the per-core LLC share (the
//! traversal order of the real program is data-dependent, not cyclic, so
//! uniform selection is the right stand-in — a fixed permutation cycle
//! would trigger LRU's pathological 0%-hit corner instead of mcf's
//! characteristic low-but-nonzero lower-level hit rates). Each visit
//! expands into several same-node field accesses: loads of the adjacent
//! arc/potential fields and an occasional store to the flow field.

use super::{boxed, seed_for};
use crate::scale::Scale;
use mem_trace::record::{MemOp, TraceRecord};
use mem_trace::DynTrace;

const POOL: u64 = 0x05_0000_0000;
/// Node record size: two cache lines, like mcf's node + spill of arcs.
const NODE_BYTES: u64 = 128;

/// Emits node visits with per-node field locality.
struct McfTrace {
    nodes: u64,
    state: u64,
    node_addr: u64,
    phase: u8,
    visits: u64,
}

impl McfTrace {
    #[inline]
    fn next_node(&mut self) -> u64 {
        // xorshift64*: serially dependent (each pick feeds the next), like
        // following data-dependent pointers.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 24) % self.nodes
    }
}

impl Iterator for McfTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let rec = match self.phase {
            0 => {
                // Jump to the next node: the serially-dependent load of the
                // linking pointer.
                let n = self.next_node();
                self.node_addr = POOL + n * NODE_BYTES;
                self.visits += 1;
                TraceRecord::new(0x5000, self.node_addr, MemOp::Load, 3)
            }
            // Arc/potential/cost fields of the first line.
            1 => TraceRecord::new(0x5004, self.node_addr + 8, MemOp::Load, 2),
            2 => TraceRecord::new(0x5008, self.node_addr + 16, MemOp::Load, 1),
            3 => TraceRecord::new(0x500c, self.node_addr + 24, MemOp::Load, 2),
            4 => TraceRecord::new(0x5010, self.node_addr + 40, MemOp::Load, 2),
            // Spill line: adjacent arcs.
            5 => TraceRecord::new(0x5014, self.node_addr + 64, MemOp::Load, 2),
            6 => TraceRecord::new(0x5018, self.node_addr + 72, MemOp::Load, 1),
            7 => TraceRecord::new(0x501c, self.node_addr + 88, MemOp::Load, 2),
            8 => TraceRecord::new(0x5020, self.node_addr + 104, MemOp::Load, 2),
            _ => {
                // Flow update on every third visited node.
                let op = if self.visits.is_multiple_of(3) {
                    MemOp::Store
                } else {
                    MemOp::Load
                };
                TraceRecord::new(0x5024, self.node_addr + 48, op, 2)
            }
        };
        self.phase = (self.phase + 1) % 10;
        Some(rec)
    }
}

/// Builds the mcf-like trace for one core.
pub fn trace(core: usize, scale: Scale) -> DynTrace {
    // Demo: 4 MB/core pool (32 MB across 8 cores vs the 8 MB LLC).
    let nodes = scale.count(32_768);
    boxed(McfTrace {
        nodes,
        state: seed_for(0x3cf000, core) | 1,
        node_addr: POOL,
        phase: 0,
        visits: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil::{check_workload, demo_sample};

    #[test]
    fn character_matches_mcf() {
        let (scale, refs) = demo_sample();
        // 8 of 10 accesses hit the visited node's two lines, and the node
        // sequence is unpredictable.
        let stats = check_workload(trace(0, scale), refs, (0.65, 0.9), (0.0, 0.25), 1 << 20);
        assert!(stats.store_fraction() > 0.03 && stats.store_fraction() < 0.15);
    }

    #[test]
    fn pool_exceeds_per_core_llc_share() {
        use mem_trace::stats::TraceStats;
        let stats = TraceStats::measure(trace(0, Scale::Demo), 2_000_000);
        // 4 MB/core: 8 copies (32 MB) heavily over-commit the 8 MB LLC.
        assert!(stats.footprint_bytes() > 3 << 20);
    }

    #[test]
    fn field_accesses_follow_the_hop() {
        let recs: Vec<_> = trace(0, Scale::Smoke).take(12).collect();
        let node = recs[0].addr;
        assert_eq!(recs[1].addr, node + 8);
        assert_eq!(recs[5].addr, node + 64);
        assert_ne!(recs[10].addr, node, "next visit jumps elsewhere");
    }

    #[test]
    fn node_sequence_revisits_eventually() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        let mut revisit = false;
        for r in trace(0, Scale::Smoke).take(100_000) {
            if r.pc == 0x5000 && !seen.insert(r.addr) {
                revisit = true;
                break;
            }
        }
        assert!(revisit, "uniform selection must revisit nodes (LLC reuse)");
    }
}
