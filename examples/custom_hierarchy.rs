//! Driving the low-level substrate directly: build a custom three-level
//! exclusive hierarchy, attach a hand-rolled prediction table, and process
//! a synthetic stream one access at a time.
//!
//! This is the API the `sim` crate is built on — use it when you need a
//! hierarchy the high-level `SimConfig` doesn't describe.
//!
//! ```sh
//! cargo run --release --example custom_hierarchy
//! ```

use redhip_repro::cache_sim::{CacheConfig, Traversal};
use redhip_repro::mem_trace::synth::{PointerChase, Region, SequentialStream, WeightedMix};
use redhip_repro::prelude::*;

fn main() {
    // A 2-core, 3-level exclusive hierarchy with a tree-PLRU L1.
    let config = HierarchyConfig {
        cores: 2,
        private_levels: vec![
            CacheConfig {
                capacity_bytes: 16 << 10,
                assoc: 4,
                block_bytes: 64,
                policy: ReplacementPolicy::TreePlru,
            },
            CacheConfig::lru(128 << 10, 8, 64),
        ],
        shared_llc: CacheConfig::lru(1 << 20, 16, 64),
        policy: InclusionPolicy::Exclusive,
    };
    let mut hierarchy = DeepHierarchy::new(&config);
    let llc_level = hierarchy.llc_level();

    // One table per level below L1 (the paper's §III-C prescription for
    // exclusive hierarchies), here just for the LLC to keep things short.
    let mut table = PredictionTable::from_capacity_bytes(8 << 10);

    // Two different synthetic programs.
    let mut streams: Vec<Box<dyn Iterator<Item = TraceRecord> + Send>> = vec![
        Box::new(WeightedMix::new(
            vec![
                Box::new(SequentialStream::new(
                    Region::new(0, 4 << 20),
                    8,
                    0x100,
                    4,
                    2,
                )),
                Box::new(PointerChase::new(1 << 32, 50_000, 64, 7, 0x200, 2)),
            ],
            &[0.6, 0.4],
            1,
        )),
        Box::new(SequentialStream::new(
            Region::new(1 << 40, 8 << 20),
            8,
            0x300,
            0,
            1,
        )),
    ];

    let mut t = Traversal::new();
    let mut lookups = [0u64; 3];
    let mut bypass_hits = 0u64; // LLC lookups the table would have skipped
    for step in 0..400_000usize {
        let core = step % 2;
        let rec = streams[core].next().expect("infinite stream");
        let block = rec.addr >> 6;

        t.clear();
        if !hierarchy.access_first(core, block, rec.op.is_store(), &mut t) {
            let mut hit = false;
            for lvl in 1..hierarchy.levels() {
                // Consult the LLC table before paying its lookup.
                if lvl == llc_level && !table.test(block) {
                    bypass_hits += 1;
                    break;
                }
                lookups[lvl as usize - 1] += 1;
                if hierarchy.lookup(core, lvl, block, &mut t) {
                    hierarchy.promote(core, lvl, block, rec.op.is_store(), &mut t);
                    hit = true;
                    break;
                }
            }
            if !hit {
                hierarchy.fill_from_memory(core, block, rec.op.is_store(), &mut t);
            }
        }
        hierarchy.absorb_stats(&t);
        // Keep the table in sync with LLC insertions.
        for b in t.inserted_at(llc_level) {
            table.set(b);
        }
        // Recalibrate occasionally from the LLC tag array.
        if step % 100_000 == 99_999 {
            table.recalibrate_from(hierarchy.llc().resident_blocks());
        }
    }

    hierarchy
        .check_invariants()
        .expect("exclusive invariant must hold");
    let stats = hierarchy.stats();
    println!("custom 3-level exclusive hierarchy, 400k accesses on 2 cores");
    for (i, l) in stats.levels.iter().enumerate() {
        println!(
            "L{}: {:>7} lookups, hit rate {:>5.1}%, {:>6} evictions",
            i + 1,
            l.lookups,
            l.hit_rate() * 100.0,
            l.evictions
        );
    }
    println!("LLC lookups skipped by the 8 KB prediction table: {bypass_hits}");
    println!("exclusive inclusion invariant verified ✓");
}
