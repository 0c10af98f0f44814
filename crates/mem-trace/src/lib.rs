//! Memory-reference trace substrate for the ReDHiP reproduction.
//!
//! The paper drives its cache/energy simulator from Pin-collected traces of
//! memory references. This crate provides the equivalent substrate:
//!
//! * [`TraceRecord`] — one memory reference (program counter, data address,
//!   load/store, and the number of non-memory instructions since the previous
//!   reference, which the simulator charges at the workload's average CPI).
//! * [`TraceSource`] — a stream of records (any `Iterator<Item = TraceRecord>`).
//!   Records carry virtual addresses; the simulator (`sim::run`) maps each
//!   core's stream into its own physical address range.
//! * [`synth`] — composable synthetic access-pattern building blocks
//!   (sequential, strided, random-in-region, pointer chase, Zipf) from which
//!   `workloads` assembles benchmark-like streams.
//! * [`codec`] — the binary on-disk formats: monolithic fixed-width v1 and
//!   chunked, delta-compressed, seekable v2 ([`codec::ChunkWriter`]).
//! * [`stream`] — [`StreamTrace`]: replays a v2 file chunk-at-a-time from a
//!   memory mapping or positioned reads, with bounded resident memory and
//!   zero per-record allocation; [`shard`] splits one trace across cores.
//! * [`import`] — converts externally captured Valgrind/lackey-style text
//!   traces into the binary formats.
//! * [`stats`] — streaming trace characterization (footprint, stride
//!   predictability, operation mix, short-reuse proxy).
//! * [`reuse`] — exact LRU reuse-distance analysis (Fenwick-tree
//!   algorithm), the ground truth for locality validation.

pub mod chunk;
pub mod codec;
pub mod import;
pub mod record;
pub mod reuse;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod stream;
pub mod synth;
pub mod varint;
pub mod zipf;

pub use codec::TraceIoError;
pub use record::{MemOp, TraceRecord};
pub use reuse::ReuseHistogram;
pub use rng::Rng64;
pub use shard::ShardSpec;
pub use stats::TraceStats;
pub use stream::StreamTrace;

/// A stream of memory-reference records.
///
/// Implemented for every `Iterator<Item = TraceRecord>`, so all standard
/// iterator adapters apply. The simulator pulls records lazily; generators in
/// the `workloads` crate typically run their kernel incrementally.
pub trait TraceSource: Iterator<Item = TraceRecord> {}

impl<T: Iterator<Item = TraceRecord>> TraceSource for T {}

/// Bulk record delivery: the refill side of the simulator's chunked
/// pull-ahead buffer.
///
/// `Iterator` hands over one record per (usually virtual) call;
/// `TraceFeed` appends up to `max` records per call, which lets block
/// producers — above all [`StreamTrace`], whose records already sit
/// decoded in a scratch buffer — service a refill with one bounds check
/// and a `memcpy` instead of `max` dynamic dispatches. Any iterator
/// becomes a feed via [`IterFeed`].
pub trait TraceFeed {
    /// Appends up to `max` records to `out`, returning how many were
    /// appended. Fewer than `max` (including 0) means the stream ended.
    fn refill(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize;
}

impl<T: TraceFeed + ?Sized> TraceFeed for Box<T> {
    #[inline]
    fn refill(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        (**self).refill(out, max)
    }
}

/// Adapts any [`TraceSource`] iterator into a [`TraceFeed`] by pulling
/// records one at a time — the compatibility path for the synthetic
/// generators.
#[derive(Debug, Clone)]
pub struct IterFeed<I>(pub I);

impl<I: Iterator<Item = TraceRecord>> IterFeed<I> {
    /// Wraps `source`.
    pub fn new(source: I) -> Self {
        Self(source)
    }
}

impl<I: Iterator<Item = TraceRecord>> TraceFeed for IterFeed<I> {
    #[inline]
    fn refill(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        let before = out.len();
        out.extend(self.0.by_ref().take(max));
        out.len() - before
    }
}

/// An owned, in-memory trace. Useful for tests, for replaying a decoded trace
/// file, and for duplicating one trace across several cores.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VecTrace {
    records: Vec<TraceRecord>,
}

impl VecTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing record vector.
    pub fn from_records(records: Vec<TraceRecord>) -> Self {
        Self { records }
    }

    /// Collects (up to `limit`) records from any source.
    pub fn collect_from(source: impl TraceSource, limit: usize) -> Self {
        // Most callers pass a bounded limit over an endless generator,
        // whose size hint is (0, None) — collect() would then grow the
        // vector through every doubling. Pre-reserve from the best
        // available hint instead: the source's upper bound when it has
        // one, else the limit itself (capped so an "everything" limit
        // over an unknown-length source cannot demand an absurd upfront
        // allocation).
        let (lo, hi) = source.size_hint();
        let cap = hi.unwrap_or(usize::MAX).min(limit).min((1 << 24).max(lo));
        let mut records = Vec::with_capacity(cap);
        records.extend(source.take(limit));
        Self { records }
    }

    /// Number of records in the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// Borrowed view of the records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Iterates the records by value (cloning the backing storage lazily).
    pub fn iter(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.records.iter().copied()
    }
}

impl IntoIterator for VecTrace {
    type Item = TraceRecord;
    type IntoIter = std::vec::IntoIter<TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl FromIterator<TraceRecord> for VecTrace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        Self {
            records: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(addr: u64) -> TraceRecord {
        TraceRecord::load(0x400000, addr)
    }

    #[test]
    fn vec_trace_roundtrip() {
        let mut t = VecTrace::new();
        assert!(t.is_empty());
        t.push(rec(0x1000));
        t.push(rec(0x2000));
        assert_eq!(t.len(), 2);
        let collected: Vec<_> = t.clone().into_iter().collect();
        assert_eq!(collected, t.records());
    }

    #[test]
    fn collect_from_respects_limit() {
        let src = (0..100u64).map(|i| rec(i * 64));
        let t = VecTrace::collect_from(src, 10);
        assert_eq!(t.len(), 10);
        assert_eq!(t.records()[9].addr, 9 * 64);
    }

    #[test]
    fn from_iterator_builds_trace() {
        let t: VecTrace = (0..4u64).map(rec).collect();
        assert_eq!(t.len(), 4);
    }
}
