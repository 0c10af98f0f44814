//! `soplex` — simplex linear-programming solver.
//!
//! Works over a large sparse constraint matrix: row-wise pricing streams
//! nonzeros sequentially, column updates scatter into the matrix with a
//! popularity skew (dense columns get hit far more often), and small dense
//! vectors (reduced costs, basis) are reused constantly.

use super::{boxed, seed_for};
use crate::scale::Scale;
use mem_trace::record::TraceRecord;
use mem_trace::synth::{Region, SequentialStream, WeightedMix, ZipfOverRecords};
use mem_trace::DynTrace;

/// Walks four consecutive 16 B entries from each column start produced by
/// the inner stream.
struct ColumnWalk<T> {
    inner: T,
    current: Option<TraceRecord>,
    phase: u8,
}

impl<T> ColumnWalk<T> {
    fn new(inner: T) -> Self {
        Self {
            inner,
            current: None,
            phase: 0,
        }
    }
}

impl<T: Iterator<Item = TraceRecord>> Iterator for ColumnWalk<T> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.phase == 0 || self.current.is_none() {
            self.current = Some(self.inner.next()?);
        }
        let base = self.current.expect("set above");
        let rec = TraceRecord::new(
            base.pc + u64::from(self.phase) * 4,
            base.addr + u64::from(self.phase) * 16,
            base.op,
            if self.phase == 0 { base.gap } else { 1 },
        );
        self.phase = (self.phase + 1) % 4;
        Some(rec)
    }
}

const MATRIX: u64 = 0x07_0000_0000;
const COLS: u64 = 0x07_8000_0000;
const VECS: u64 = 0x07_f000_0000;

/// Builds the soplex-like trace for one core.
pub fn trace(core: usize, scale: Scale) -> DynTrace {
    let nnz_bytes = scale.bytes(10 << 20);
    let col_bytes = scale.bytes(8 << 20);
    let vec_bytes = scale.bytes(160 << 10);
    let seed = seed_for(0x50b1e0, core);

    // Row pricing: stream the nonzero array (value+index pairs, 16 B).
    let rows = SequentialStream::new(Region::new(MATRIX, nnz_bytes), 16, 0x7000, 0, 2);
    // Column updates: Zipf-skewed scatter over column starts, with stores;
    // each visit walks four 16 B nonzeros of the column (one line).
    let cols = ColumnWalk::new(ZipfOverRecords::new(
        Region::new(COLS, col_bytes),
        256,
        0.9,
        seed ^ 1,
        0x7040,
        0.5,
        2,
    ));
    // Dense work vectors: tight reuse loop.
    let vecs = SequentialStream::new(Region::new(VECS, vec_bytes), 8, 0x7080, 5, 2);

    boxed(WeightedMix::new(
        vec![Box::new(rows), Box::new(cols), Box::new(vecs)],
        &[0.38, 0.20, 0.42],
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil::{check_workload, demo_sample};

    #[test]
    fn character_matches_soplex() {
        let (scale, refs) = demo_sample();
        let stats = check_workload(trace(0, scale), refs, (0.6, 0.92), (0.5, 0.95), 512 << 10);
        assert!(stats.store_fraction() > 0.1 && stats.store_fraction() < 0.35);
    }

    #[test]
    fn column_scatter_is_skewed() {
        use mem_trace::stats::TraceStats;
        // The Zipf component alone: high footprint yet substantial reuse of
        // hot columns relative to a uniform scatter would show in the
        // short-reuse fraction; just confirm the whole mix touches >LLC/2.
        let stats = TraceStats::measure(trace(0, Scale::Demo), 1_000_000);
        assert!(stats.footprint_bytes() > 2 << 20);
    }
}
