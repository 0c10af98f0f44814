//! Microbenchmarks of the predictor structures: the operations on the
//! simulator's hottest path (one prediction per L1 miss, one update per
//! LLC fill) plus the full-table recalibration rebuild.

use bench::micro::Group;
use redhip::{
    BitsHash, CbfConfig, CountingBloomFilter, ExactCountingTable, PredictionTable, XorHash,
};

fn hash_functions() {
    let bits = BitsHash::new(19);
    let xor = XorHash::new(19, 0);
    let g = Group::new("hash", 1);
    let mut x = 0x1234_5678u64;
    g.bench("bits_hash", || {
        x = x.wrapping_mul(0x9e37_79b9).wrapping_add(1);
        bits.index(x)
    });
    let mut x = 0x1234_5678u64;
    g.bench("xor_hash", || {
        x = x.wrapping_mul(0x9e37_79b9).wrapping_add(1);
        xor.index(x)
    });
}

fn prediction_table() {
    let g = Group::new("prediction_table", 1);
    let mut table = PredictionTable::from_capacity_bytes(64 << 10);
    for b in 0..100_000u64 {
        table.set(b * 7);
    }
    let mut x = 1u64;
    g.bench("predict", || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        table.test(x >> 20)
    });
    let mut x = 1u64;
    g.bench("on_fill", || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        table.set(x >> 20);
    });
}

fn cbf_ops() {
    let g = Group::new("cbf", 1);
    for hashes in [1u32, 2] {
        let mut cbf = CountingBloomFilter::new(CbfConfig {
            index_bits: 17,
            counter_bits: 4,
            num_hashes: hashes,
        });
        for b in 0..50_000u64 {
            cbf.on_fill(b * 3);
        }
        let mut x = 1u64;
        g.bench(&format!("predict_h{hashes}"), || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            cbf.test(x >> 20)
        });
        let mut x = 1u64;
        g.bench(&format!("fill_evict_h{hashes}"), || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let blk = x >> 20;
            cbf.on_fill(blk);
            cbf.on_evict(blk);
        });
    }
}

fn exact_counting() {
    let g = Group::new("exact_counting", 1);
    let mut t = ExactCountingTable::from_capacity_bytes(64 << 10);
    let mut x = 1u64;
    g.bench("fill_evict", || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let blk = x >> 20;
        t.on_fill(blk);
        t.on_evict(blk);
    });
}

fn recalibration() {
    // Functional rebuild of the demo-scale table from a full 8 MB LLC's
    // resident set (131072 lines).
    let resident: Vec<u64> = (0..131_072u64).map(|i| i * 37 + 5).collect();
    let g = Group::new("recalibration", resident.len() as u64);
    g.bench_with_setup(
        "rebuild_64k_table_from_128k_lines",
        || PredictionTable::from_capacity_bytes(64 << 10),
        |mut t| t.recalibrate_from(resident.iter().copied()),
    );
}

fn main() {
    hash_functions();
    prediction_table();
    cbf_ops();
    exact_counting();
    recalibration();
}
