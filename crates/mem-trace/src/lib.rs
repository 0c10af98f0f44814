//! Memory-reference trace substrate for the ReDHiP reproduction.
//!
//! The paper drives its cache/energy simulator from Pin-collected traces of
//! memory references. This crate provides the equivalent substrate:
//!
//! * [`TraceRecord`] — one memory reference (program counter, data address,
//!   load/store, and the number of non-memory instructions since the previous
//!   reference, which the simulator charges at the workload's average CPI).
//!   A stream of records is any `Iterator<Item = TraceRecord>`; [`DynTrace`]
//!   boxes one per simulated core. Records carry virtual addresses; the
//!   simulator (`sim::run`) maps each core's stream into its own physical
//!   address range.
//! * [`synth`] — composable synthetic access-pattern building blocks
//!   (sequential, strided, random-in-region, pointer chase, Zipf) from which
//!   `workloads` assembles benchmark-like streams.
//! * [`codec`] — the one on-disk format (v2): chunked, delta-compressed and
//!   seekable, written by [`codec::ChunkWriter`].
//! * [`stream`] — [`StreamTrace`], the one reader: it checks a whole file
//!   when it opens, then replays it chunk-at-a-time from a memory mapping or
//!   positioned reads, with bounded resident memory and zero per-record
//!   allocation; [`shard`] splits one trace across cores.
//! * [`import`] — converts externally captured Valgrind/lackey-style text
//!   traces into v2 files.
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

/// A boxed per-core record stream: what the workload generators return
/// and what `sim::run_traces` consumes, one per simulated core.
pub type DynTrace = Box<dyn Iterator<Item = TraceRecord> + Send>;

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

/// Adapts any record iterator into a [`TraceFeed`] by pulling
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

#[cfg(test)]
mod tests {
    use super::*;
    use codec::{encode_v2_chunked, INDEX_ENTRY_BYTES, TAIL_BYTES};
    use import::LackeyParser;

    const KINDS: [&str; 4] = ["truncate", "bit flip", "invert bytes", "enlarge count"];
    const CASES_PER_KIND: usize = 150;
    const LACKEY_CASES_PER_KIND: usize = 1000;

    fn u32_at(buf: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
    }

    fn u64_at(buf: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
    }

    /// Byte positions of every count field in a v2 buffer, with widths:
    /// each chunk header's and index entry's record count, and the tail's
    /// chunk count and total.
    fn count_fields(buf: &[u8]) -> Vec<(usize, usize)> {
        let tail = buf.len() - TAIL_BYTES;
        let index = u64_at(buf, tail) as usize;
        let mut fields = vec![(tail + 8, 8), (tail + 16, 8)];
        for entry in (index..tail).step_by(INDEX_ENTRY_BYTES) {
            fields.push((u64_at(buf, entry) as usize, 4));
            fields.push((entry + 12, 4));
        }
        fields
    }

    /// Applies mutation `kind` (an index into [`KINDS`]) to `buf`.
    fn mutate(buf: &mut Vec<u8>, kind: usize, rng: &mut Rng64, counts: &[(usize, usize)]) {
        match kind {
            0 => buf.truncate(rng.gen_index(buf.len())),
            1 => {
                let bit = rng.gen_index(buf.len() * 8);
                buf[bit / 8] ^= 1 << (bit % 8);
            }
            2 => {
                let at = rng.gen_index(buf.len());
                let end = (at + 1 + rng.gen_index(8)).min(buf.len());
                buf[at..end].iter_mut().for_each(|b| *b = !*b);
            }
            _ => {
                let (at, width) = counts[rng.gen_index(counts.len())];
                let grow = [1, 1 + rng.gen_index(1 << 20) as u64, u64::MAX][rng.gen_index(3)];
                if width == 4 {
                    let v = u64::from(u32_at(buf, at)).saturating_add(grow);
                    buf[at..at + 4]
                        .copy_from_slice(&(v.min(u64::from(u32::MAX)) as u32).to_le_bytes());
                } else {
                    let v = u64_at(buf, at).saturating_add(grow);
                    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    #[test]
    fn seeded_mutations_error_or_drain_never_panic() {
        let mut rng = Rng64::seed_from_u64(0x3A7E);
        let records: Vec<TraceRecord> = (0..3000u64)
            .map(|i| {
                let op = if i % 5 == 0 {
                    MemOp::Store
                } else {
                    MemOp::Load
                };
                TraceRecord::new(
                    0x400 + (i % 37) * 4,
                    (i * 4099) % (1 << 24),
                    op,
                    (i % 7) as u32,
                )
            })
            .collect();
        let clean = encode_v2_chunked(&records, 256);
        let counts = count_fields(&clean);
        let mut errors = [0usize; 4];
        for (kind, errs) in errors.iter_mut().enumerate() {
            for case in 0..CASES_PER_KIND {
                let mut buf = clean.clone();
                mutate(&mut buf, kind, &mut rng, &counts);
                match StreamTrace::from_bytes(buf) {
                    Err(_) => *errs += 1,
                    Ok(s) => {
                        // An accepted file must drain in full, by records
                        // and by bulk refills.
                        let total = s.total_records();
                        assert_eq!(
                            s.clone().count() as u64,
                            total,
                            "{} case {case}",
                            KINDS[kind]
                        );
                        let mut feed = s;
                        let mut out = Vec::new();
                        while feed.refill(&mut out, 128) > 0 {}
                        assert_eq!(out.len() as u64, total, "{} case {case}", KINDS[kind]);
                    }
                }
            }
        }
        for (kind, errs) in errors.iter().enumerate() {
            assert!(*errs > 0, "no {} mutation produced an error", KINDS[kind]);
        }

        // The lackey importer: mutated text parses to records or errors.
        // Short inversions can turn a line's first bytes into one
        // multi-byte UTF-8 character where the event tag stands; text
        // parses fast, so more cases make that likely to occur.
        let text: Vec<u8> = (0..200u64)
            .map(|i| {
                format!(
                    "I  {:08x},4\n {} {:08x},8\n",
                    0x400000 + i * 4,
                    ["L", "S", "M"][i as usize % 3],
                    0x7ff0_0000 + i * 64
                )
            })
            .collect::<String>()
            .into_bytes();
        let mut lackey_errors = [0usize; 3];
        for (kind, errs) in lackey_errors.iter_mut().enumerate() {
            for _ in 0..LACKEY_CASES_PER_KIND {
                let mut buf = text.clone();
                mutate(&mut buf, kind, &mut rng, &[]);
                if LackeyParser::new(&buf[..]).any(|r| r.is_err()) {
                    *errs += 1;
                }
            }
        }
        for (kind, errs) in lackey_errors.iter().enumerate() {
            assert!(
                *errs > 0,
                "no lackey {} mutation produced an error",
                KINDS[kind]
            );
        }
    }
}
