//! ReDHiP — Recalibrating Deep Hierarchy Prediction.
//!
//! This crate is the paper's primary contribution: predicting, on every L1
//! miss, whether the requested block is resident in the (inclusive)
//! last-level cache, so that predicted misses can bypass every lower cache
//! level and go straight to memory.
//!
//! The design deliberately trades *standing accuracy* for *recalibratability*
//! (§III of the paper):
//!
//! * [`table::PredictionTable`] — a direct-mapped table of **1-bit** entries
//!   indexed by [`hash::BitsHash`] (the low `p` address bits above the block
//!   offset). Bits are set on LLC fills and never cleared on evictions, so
//!   the table drifts toward false positives…
//! * [`recalib::RecalibrationEngine`] — …until it is periodically rebuilt
//!   from the LLC tag array. Because the PT index *contains* the cache set
//!   index (`p > k`, Figure 3), all lines affecting one 64-bit PT line live
//!   in a single cache set, and a whole set recalibrates in one cycle
//!   through a decoder + OR tree (Figure 4). The engine models that
//!   hardware's cycle and energy cost.
//! * [`cbf::CountingBloomFilter`] — the prior-work baseline (Ghosh et al.):
//!   xor-hashed k-bit saturating counters updated on fills *and* evictions.
//! * [`exact::ExactCountingTable`] — per-index counts of resident aliases:
//!   the 1-bit table recalibrated after every L1 miss (Fig. 12's period 1).
//!
//! The fully-exclusive configuration (§III-C) uses one 1-bit table per
//! cache, each sized by [`PredictionTable::with_overhead_ratio`].
//!
//! The three presence tables answer `test(block)` alike: `false` proves the
//! block absent, so bypassing is safe (no false negatives); `true` is only
//! a hint that it may be present (a false positive costs wasted lookups).
//!
//! The crate is substrate-agnostic: it never touches a cache directly. The
//! `sim` crate feeds it fill/evict events and tag-array iterators.

/// Faults in the pages behind a freshly zero-allocated table. The
/// predictor tables are touched with hashed (effectively random) indices,
/// so leaving them as untouched copy-on-write zero pages scatters page
/// faults across the simulation hot path; one sequential pass here is far
/// cheaper. The volatile write keeps the value-preserving store alive.
pub(crate) fn prefault<T: Copy>(v: &mut [T]) {
    const PAGE: usize = 4096;
    let step = (PAGE / std::mem::size_of::<T>().max(1)).max(1);
    let mut i = 0;
    while i < v.len() {
        // SAFETY: `i` is in bounds; the element is rewritten with its own
        // value, so contents are unchanged.
        unsafe {
            let p = v.as_mut_ptr().add(i);
            std::ptr::write_volatile(p, std::ptr::read(p));
        }
        i += step;
    }
}

pub mod cbf;
pub mod exact;
pub mod hash;
pub mod level_table;
pub mod perceptron;
pub mod recalib;
pub mod table;
pub mod waymemo;

pub use cbf::{CbfConfig, CountingBloomFilter};
pub use exact::ExactCountingTable;
pub use hash::{BitsHash, XorHash};
pub use level_table::{LevelPredictor, LEVEL_MEMORY, LEVEL_UNTRAINED};
pub use perceptron::OffChipPerceptron;
pub use recalib::{RecalibCost, RecalibrationEngine};
pub use table::PredictionTable;
pub use waymemo::WayMemo;
