//! Probabilistic matrix factorization (`pmf` in the paper's figures).
//!
//! The paper runs a PMF algorithm on GraphLab in 8 processes. We implement
//! the algorithm's dominant kernel directly: stochastic gradient descent
//! over a ratings stream, updating user and item latent-factor rows. Item
//! popularity follows a Zipf law (as in real recommender data), so hot item
//! rows are reused while the user side scatters.

use crate::scale::Scale;
use mem_trace::record::{MemOp, TraceRecord};
use mem_trace::zipf::Zipf;
use mem_trace::DynTrace;
use mem_trace::Rng64;

const RATINGS_BASE: u64 = 0x0a_0000_0000;
const USER_BASE: u64 = 0x0a_4000_0000;
const ITEM_BASE: u64 = 0x0a_8000_0000;

/// Latent dimension (factors per row).
pub const FACTORS: u64 = 16;
/// Bytes per factor row (f64 features).
pub const ROW_BYTES: u64 = FACTORS * 8;

/// Lazily emits the SGD kernel's references.
pub struct PmfTrace {
    users: u64,
    item_zipf: Zipf,
    rng: Rng64,
    rating_idx: u64,
    buf: Vec<TraceRecord>,
    pos: usize,
}

impl PmfTrace {
    /// Builds the generator for `users` users and `items` items.
    pub fn new(users: u64, items: u64, seed: u64) -> Self {
        Self {
            users,
            item_zipf: Zipf::new(items, 1.05),
            rng: Rng64::seed_from_u64(seed),
            rating_idx: 0,
            buf: Vec::with_capacity(64),
            pos: 0,
        }
    }

    /// One SGD step: read the rating, dot-product both rows, write both
    /// rows' updated factors.
    fn step(&mut self) {
        let u = self.rng.gen_below(self.users);
        let i = self.item_zipf.sample(&mut self.rng) - 1;
        let user_row = USER_BASE + u * ROW_BYTES;
        let item_row = ITEM_BASE + i * ROW_BYTES;
        // Rating entries stream sequentially (12 B packed → 16 B aligned).
        self.buf.push(TraceRecord::new(
            0xa000,
            RATINGS_BASE + (self.rating_idx % (1 << 24)) * 16,
            MemOp::Load,
            1,
        ));
        self.rating_idx += 1;
        // Dot product: read both rows factor-pair by factor-pair.
        for f in (0..FACTORS).step_by(2) {
            self.buf
                .push(TraceRecord::new(0xa010, user_row + f * 8, MemOp::Load, 1));
            self.buf
                .push(TraceRecord::new(0xa014, item_row + f * 8, MemOp::Load, 2));
        }
        // Gradient update: write the first element of each cache line of
        // both rows (the whole line is dirtied either way).
        for line in 0..(ROW_BYTES / 64).max(1) {
            self.buf.push(TraceRecord::new(
                0xa020,
                user_row + line * 64,
                MemOp::Store,
                3,
            ));
            self.buf.push(TraceRecord::new(
                0xa024,
                item_row + line * 64,
                MemOp::Store,
                3,
            ));
        }
    }
}

impl Iterator for PmfTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.pos >= self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            self.step();
        }
        let r = self.buf[self.pos];
        self.pos += 1;
        Some(r)
    }
}

/// Builds the PMF trace for one process rank.
pub fn trace(core: usize, scale: Scale) -> DynTrace {
    let users = scale.count(32_768); // demo: 4 MB of user rows
    let items = scale.count(65_536); // demo: 8 MB of item rows
    let seed = 0x3f00 ^ (core as u64).wrapping_mul(0x2545_f491);
    Box::new(PmfTrace::new(users, items, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::stats::TraceStats;

    #[test]
    fn step_structure_loads_then_stores() {
        let mut p = PmfTrace::new(64, 64, 1);
        let recs: Vec<_> = (&mut p).take(21).collect();
        // 1 rating + 16 row loads + 4 row stores per step.
        assert_eq!(recs[0].op, MemOp::Load);
        assert_eq!(recs.iter().filter(|r| r.op.is_store()).count(), 4);
        // Row loads alternate user/item and share two lines each.
        assert_eq!(recs[1].pc, 0xa010);
        assert_eq!(recs[2].pc, 0xa014);
    }

    #[test]
    fn store_fraction_is_about_one_fifth() {
        let stats = TraceStats::measure(trace(0, Scale::Smoke), 50_000);
        assert!(
            stats.store_fraction() > 0.15 && stats.store_fraction() < 0.25,
            "store fraction {}",
            stats.store_fraction()
        );
    }

    #[test]
    fn row_reuse_gives_l1_band() {
        let stats = TraceStats::measure(trace(0, Scale::Demo), 200_000);
        // Within a step: 8 loads per 2-line row + line-granular stores hit.
        let reuse = stats.short_reuse_fraction();
        assert!(reuse > 0.5 && reuse < 0.95, "short reuse {reuse}");
    }

    #[test]
    fn demo_footprint_exceeds_llc() {
        let stats = TraceStats::measure(trace(0, Scale::Demo), 2_000_000);
        assert!(stats.footprint_bytes() > 6 << 20);
    }

    #[test]
    fn hot_items_get_reused() {
        let mut p = PmfTrace::new(1 << 14, 1 << 15, 9);
        let mut item_rows = std::collections::HashMap::new();
        for r in (&mut p).take(300_000) {
            if r.pc == 0xa014 {
                *item_rows.entry(r.addr & !(ROW_BYTES - 1)).or_insert(0u64) += 1;
            }
        }
        let mut counts: Vec<u64> = item_rows.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top: u64 = counts.iter().take(counts.len() / 100 + 1).sum();
        assert!(
            top as f64 / total as f64 > 0.05,
            "Zipf head too light: {}",
            top as f64 / total as f64
        );
    }
}
