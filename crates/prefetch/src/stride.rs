//! PC-indexed reference prediction table with the Chen/Baer 2-bit FSM.

use minijson::{json, Json, ToJson};

/// Stride prefetcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideConfig {
    /// log2 of the number of RPT entries.
    pub index_bits: u32,
    /// Prefetch degree: how many strided addresses to issue per trigger.
    pub degree: u32,
    /// Minimum lookahead per degree step in bytes. Small strides (unit-
    /// stride FP loops) advance less than a cache line per access; real
    /// stride prefetchers therefore prefetch at least the next *line*, not
    /// the next element. 64 = one block.
    pub min_advance: u32,
}

impl Default for StrideConfig {
    fn default() -> Self {
        // A generously sized table, per the paper ("large enough that its
        // accuracy is comparable with the best prefetching techniques").
        Self {
            index_bits: 14, // 16K entries
            degree: 2,
            min_advance: 64,
        }
    }
}

impl ToJson for StrideConfig {
    fn to_json(&self) -> Json {
        json!({
            "index_bits": self.index_bits,
            "degree": self.degree,
            "min_advance": self.min_advance,
        })
    }
}

/// Per-instruction prediction state (Chen & Baer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum State {
    /// Entry newly allocated; stride not yet confirmed.
    #[default]
    Initial,
    /// Stride changed recently; one confirmation away from steady.
    Transient,
    /// Stride confirmed; prefetches are issued.
    Steady,
    /// Irregular pattern detected; prediction suppressed.
    NoPred,
}

#[derive(Debug, Clone, Copy, Default)]
struct RptEntry {
    tag: u64,
    last_addr: u64,
    stride: i64,
    state: State,
    valid: bool,
    /// Block address of the furthest prefetch issued, for duplicate
    /// filtering (the role an MSHR / prefetch queue plays in hardware).
    last_pf_block: u64,
}

/// Counters exposed by the prefetcher.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrideStats {
    /// Training observations (one per memory reference fed in).
    pub trains: u64,
    /// Prefetch addresses issued.
    pub issued: u64,
    /// Entry allocations (RPT misses).
    pub allocations: u64,
}

/// The stride prefetcher.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    config: StrideConfig,
    entries: Vec<RptEntry>,
    mask: u64,
    stats: StrideStats,
}

impl StridePrefetcher {
    /// Builds an empty prefetcher.
    pub fn new(config: StrideConfig) -> Self {
        assert!((4..=24).contains(&config.index_bits));
        assert!(config.degree >= 1);
        let n = 1usize << config.index_bits;
        Self {
            config,
            entries: vec![RptEntry::default(); n],
            mask: (n - 1) as u64,
            stats: StrideStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> StrideConfig {
        self.config
    }

    /// Accumulated counters.
    pub fn stats(&self) -> StrideStats {
        self.stats
    }

    /// Observes one memory reference and appends any prefetch candidate
    /// *byte addresses* to `out` (caller-owned scratch, not cleared here).
    pub fn train(&mut self, pc: u64, addr: u64, out: &mut Vec<u64>) {
        self.stats.trains += 1;
        // Drop the usual 4-byte instruction alignment from the index.
        let idx = ((pc >> 2) & self.mask) as usize;
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != pc {
            *e = RptEntry {
                tag: pc,
                last_addr: addr,
                stride: 0,
                state: State::Initial,
                valid: true,
                last_pf_block: u64::MAX,
            };
            self.stats.allocations += 1;
            return;
        }
        let new_stride = addr.wrapping_sub(e.last_addr) as i64;
        let correct = new_stride == e.stride;
        let was_steady = e.state == State::Steady;
        e.state = match (e.state, correct) {
            (State::Initial, true) => State::Steady,
            (State::Initial, false) => State::Transient,
            (State::Transient, true) => State::Steady,
            (State::Transient, false) => State::NoPred,
            (State::Steady, true) => State::Steady,
            (State::Steady, false) => State::Initial,
            (State::NoPred, true) => State::Transient,
            (State::NoPred, false) => State::NoPred,
        };
        // Chen/Baer: on a mispredicted stride the stride field is updated,
        // except when leaving the Steady state — a single noise access must
        // not retrain a steady stream. Any mispredict also resets the
        // duplicate-filter watermark (the stream moved somewhere new).
        if !correct {
            if !was_steady {
                e.stride = new_stride;
            }
            e.last_pf_block = u64::MAX;
        }
        e.last_addr = addr;
        if e.state == State::Steady && e.stride != 0 {
            // Advance at least `min_advance` per degree step so unit-stride
            // streams prefetch future lines rather than the current one.
            let step = if e.stride.unsigned_abs() >= u64::from(self.config.min_advance) {
                e.stride
            } else if e.stride > 0 {
                i64::from(self.config.min_advance)
            } else {
                -i64::from(self.config.min_advance)
            };
            for d in 1..=self.config.degree {
                let target = addr.wrapping_add((step * i64::from(d)) as u64);
                // Duplicate filter: hardware prefetchers squash requests for
                // lines already requested (MSHR / prefetch-queue role). The
                // watermark is the furthest block issued in stream direction.
                let block = target >> 6;
                let fresh = e.last_pf_block == u64::MAX
                    || (step > 0 && block > e.last_pf_block)
                    || (step < 0 && block < e.last_pf_block);
                if fresh {
                    e.last_pf_block = block;
                    out.push(target);
                    self.stats.issued += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StridePrefetcher {
        StridePrefetcher::new(StrideConfig {
            index_bits: 8,
            degree: 1,
            min_advance: 1,
        })
    }

    #[test]
    fn steady_stride_triggers_prefetch() {
        let mut p = pf();
        let mut out = Vec::new();
        p.train(0x400, 1000, &mut out); // allocate
        p.train(0x400, 1064, &mut out); // stride 64 learned (Initial→Transient)
        p.train(0x400, 1128, &mut out); // confirmed → Steady, prefetch 1192
        assert_eq!(out, vec![1192]);
        out.clear();
        p.train(0x400, 1192, &mut out);
        assert_eq!(out, vec![1256]);
        // Duplicate filtering: the 1256 line was already requested, so the
        // next trains only issue lines beyond the watermark.
        out.clear();
        p.train(0x400, 1256, &mut out);
        p.train(0x400, 1256 + 64, &mut out);
        assert_eq!(out, vec![1320, 1384]);
    }

    #[test]
    fn degree_issues_multiple_lookahead() {
        let mut p = StridePrefetcher::new(StrideConfig {
            index_bits: 8,
            degree: 3,
            min_advance: 1,
        });
        let mut out = Vec::new();
        for a in [0u64, 64, 128, 192] {
            p.train(0x10, a, &mut out);
        }
        // Steady at 128 issues 192/256/320; at 192 only the line beyond the
        // 320 watermark (384) survives the duplicate filter.
        assert_eq!(out, vec![192, 256, 320, 384]);
        assert_eq!(p.stats().issued, 4);
    }

    #[test]
    fn random_pattern_reaches_nopred_and_stays_quiet() {
        let mut p = pf();
        let mut out = Vec::new();
        let addrs = [10u64, 500, 17, 2000, 333, 90, 4444, 21];
        for &a in &addrs {
            p.train(0x20, a, &mut out);
        }
        assert!(out.is_empty(), "no prefetch for irregular stream: {out:?}");
    }

    #[test]
    fn zero_stride_never_prefetches() {
        let mut p = pf();
        let mut out = Vec::new();
        for _ in 0..10 {
            p.train(0x30, 4096, &mut out);
        }
        assert!(
            out.is_empty(),
            "repeated same-address access is not a stream"
        );
    }

    #[test]
    fn steady_state_survives_one_noise_access() {
        let mut p = pf();
        let mut out = Vec::new();
        for a in [0u64, 64, 128, 192] {
            p.train(0x40, a, &mut out);
        }
        out.clear();
        p.train(0x40, 5000, &mut out); // noise: Steady → Initial, stride kept
        assert!(out.is_empty());
        p.train(0x40, 5064, &mut out); // stride 64 matches again → Steady
        assert_eq!(out, vec![5128], "stream resumes after one noise access");
    }

    #[test]
    fn conflicting_pcs_evict_each_other() {
        let mut p = pf();
        let mut out = Vec::new();
        // Two PCs mapping to the same entry (index uses pc >> 2 low 8 bits).
        let pc_a = 0x1000u64;
        let pc_b = pc_a + (1 << 10); // same low index bits after >>2
        p.train(pc_a, 0, &mut out);
        p.train(pc_b, 0, &mut out);
        p.train(pc_a, 64, &mut out); // reallocated: no stride history
        assert!(out.is_empty());
        assert!(p.stats().allocations >= 3);
    }

    #[test]
    fn negative_strides_work() {
        let mut p = pf();
        let mut out = Vec::new();
        for a in [1000u64, 936, 872, 808] {
            out.clear();
            p.train(0x50, a, &mut out);
        }
        assert_eq!(out, vec![744]);
    }

    #[test]
    fn min_advance_jumps_whole_lines_for_unit_strides() {
        let mut p = StridePrefetcher::new(StrideConfig {
            index_bits: 8,
            degree: 2,
            min_advance: 64,
        });
        let mut out = Vec::new();
        for a in [0u64, 8, 16, 24] {
            p.train(0x70, a, &mut out);
        }
        // Stride 8 < 64 → prefetch the next lines, not the next bytes
        // (Steady at addr 16 issues +64 and +128; the window at 24 is
        // squashed by the duplicate filter).
        assert_eq!(out, vec![80, 144]);
        // Large strides keep their own advance (the train at 512 issued
        // 768 and 1024; at 768 only 1280 passes the duplicate filter).
        let mut out2 = Vec::new();
        for a in [0u64, 256, 512, 768] {
            out2.clear();
            p.train(0x80, a, &mut out2);
        }
        assert_eq!(out2, vec![1280]);
    }

    #[test]
    fn stats_count_trains_and_issues() {
        let mut p = pf();
        let mut out = Vec::new();
        for a in [0u64, 64, 128, 192, 256] {
            p.train(0x60, a, &mut out);
        }
        let s = p.stats();
        assert_eq!(s.trains, 5);
        assert_eq!(s.issued, out.len() as u64);
        assert!(s.issued >= 2);
    }
}
