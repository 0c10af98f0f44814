//! The central correctness property: bypassing is *safe*.
//!
//! This test reimplements the simulator's demand loop with its own
//! ground-truth checks: before honoring any "absent" verdict it probes
//! the whole hierarchy and asserts the block is genuinely absent (in the
//! inclusive hierarchy, absence from the LLC ⇒ absence everywhere). Runs
//! against real workload traces for ReDHiP's 1-bit table, the exact table
//! ReDHiP uses at recalibration period 1, and the CBF.

use redhip_repro::cache_sim::{CacheConfig, DeepHierarchy, HierarchyConfig, Traversal};
use redhip_repro::prelude::*;
use redhip_repro::redhip::{CbfConfig, ExactCountingTable};

/// The presence table under test, fed the way the simulator feeds it.
enum Presence<'a> {
    /// ReDHiP's 1-bit table: LLC fills and recalibration, no evictions.
    Bits(&'a mut PredictionTable),
    /// Per-index counts: LLC fills and evictions.
    Exact(&'a mut ExactCountingTable),
    /// Counting Bloom filter: LLC fills and evictions.
    Cbf(&'a mut CountingBloomFilter),
}

impl Presence<'_> {
    fn may_hold(&self, block: u64) -> bool {
        match self {
            Presence::Bits(t) => t.test(block),
            Presence::Exact(t) => t.test(block),
            Presence::Cbf(f) => f.test(block),
        }
    }

    fn fill(&mut self, block: u64) {
        match self {
            Presence::Bits(t) => t.set(block),
            Presence::Exact(t) => t.on_fill(block),
            Presence::Cbf(f) => f.on_fill(block),
        }
    }

    fn evict(&mut self, block: u64) {
        match self {
            Presence::Bits(_) => {}
            Presence::Exact(t) => t.on_evict(block),
            Presence::Cbf(f) => f.on_evict(block),
        }
    }

    /// Only the 1-bit table is rebuilt from the LLC's contents.
    fn recalibrate(&mut self, resident: impl Iterator<Item = u64>) {
        if let Presence::Bits(t) = self {
            t.recalibrate_from(resident);
        }
    }
}

fn tiny_hierarchy() -> DeepHierarchy {
    DeepHierarchy::new(&HierarchyConfig {
        cores: 2,
        private_levels: vec![
            CacheConfig::lru(8 << 10, 4, 64),
            CacheConfig::lru(32 << 10, 8, 64),
            CacheConfig::lru(64 << 10, 16, 64),
        ],
        shared_llc: CacheConfig::lru(512 << 10, 16, 64),
        policy: InclusionPolicy::Inclusive,
    })
}

fn drive(
    mut predictor: Presence,
    benchmark: Benchmark,
    recalibrate_every: Option<u64>,
    steps: usize,
) -> (u64, u64) {
    let mut h = tiny_hierarchy();
    let llc = h.llc_level();
    let mut traces: Vec<_> = (0..2).map(|c| benchmark.trace(c, Scale::Smoke)).collect();
    let mut t = Traversal::new();
    let (mut bypasses, mut l1_misses) = (0u64, 0u64);
    for step in 0..steps {
        let core = step % 2;
        let rec = traces[core].next().expect("infinite trace");
        // Disjoint per-core address spaces, like the simulator.
        let block = (rec.addr >> 6) | ((core as u64) << 40);
        t.clear();
        if !h.access_first(core, block, rec.op.is_store(), &mut t) {
            l1_misses += 1;
            if !predictor.may_hold(block) {
                // THE INVARIANT: a bypass may never skip resident data.
                assert!(
                    !h.llc().probe(block),
                    "{benchmark}: false negative — bypassed a block resident in the LLC"
                );
                assert!(
                    !h.resident_anywhere(core, block),
                    "{benchmark}: inclusive hierarchy held the block above the LLC"
                );
                bypasses += 1;
                h.fill_from_memory(core, block, rec.op.is_store(), &mut t);
            } else {
                let mut hit = false;
                for lvl in 1..h.levels() {
                    if h.lookup(core, lvl, block, &mut t) {
                        h.promote(core, lvl, block, rec.op.is_store(), &mut t);
                        hit = true;
                        break;
                    }
                }
                if !hit {
                    h.fill_from_memory(core, block, rec.op.is_store(), &mut t);
                }
            }
            if let Some(period) = recalibrate_every {
                if l1_misses % period == 0 {
                    predictor.recalibrate(h.llc().resident_blocks());
                }
            }
        }
        for b in t.inserted_at(llc) {
            predictor.fill(b);
        }
        for b in t.removed_at(llc) {
            predictor.evict(b);
        }
    }
    h.check_invariants().expect("inclusive invariant");
    (bypasses, l1_misses)
}

#[test]
fn prediction_table_never_false_negative_on_real_traces() {
    for benchmark in [Benchmark::Mcf, Benchmark::Blas, Benchmark::Soplex] {
        let mut table = PredictionTable::from_capacity_bytes(4 << 10);
        let (bypasses, misses) = drive(Presence::Bits(&mut table), benchmark, Some(2_048), 120_000);
        assert!(bypasses > 0, "{benchmark}: the table never fired");
        assert!(bypasses <= misses);
    }
}

#[test]
fn prediction_table_without_recalibration_is_still_safe() {
    // Staleness only creates false positives, never false negatives.
    let mut table = PredictionTable::from_capacity_bytes(4 << 10);
    let (bypasses, _) = drive(Presence::Bits(&mut table), Benchmark::Astar, None, 120_000);
    // It may fire less often, but must stay safe (asserted inside drive).
    let _ = bypasses;
}

#[test]
fn exact_counting_table_never_false_negative_on_real_traces() {
    // The period-1 ReDHiP table: counts follow every LLC fill and
    // eviction, so it needs no recalibration to stay safe.
    for benchmark in [Benchmark::Mcf, Benchmark::Blas, Benchmark::Soplex] {
        let mut table = ExactCountingTable::from_capacity_bytes(4 << 10);
        let (bypasses, misses) = drive(Presence::Exact(&mut table), benchmark, None, 120_000);
        assert!(bypasses > 0, "{benchmark}: the exact table never fired");
        assert!(bypasses <= misses);
    }
}

#[test]
fn cbf_never_false_negative_on_real_traces() {
    for benchmark in [Benchmark::Mcf, Benchmark::Pmf] {
        let mut cbf = CountingBloomFilter::new(CbfConfig {
            index_bits: 13,
            counter_bits: 3, // deliberately narrow: force overflow handling
            num_hashes: 1,
        });
        let (bypasses, _) = drive(Presence::Cbf(&mut cbf), benchmark, None, 120_000);
        assert!(bypasses > 0, "{benchmark}: the CBF never fired");
    }
}

#[test]
fn tiny_saturating_cbf_stays_safe_under_pressure() {
    // A pathologically small 2-bit filter saturates constantly; safety
    // must come from sticky disabling, not from luck.
    let mut cbf = CountingBloomFilter::new(CbfConfig {
        index_bits: 6,
        counter_bits: 2,
        num_hashes: 2,
    });
    let (_, misses) = drive(Presence::Cbf(&mut cbf), Benchmark::Blas, None, 60_000);
    assert!(misses > 0);
    assert!(
        cbf.disabled_counters() > 0,
        "pressure should overflow counters"
    );
}
