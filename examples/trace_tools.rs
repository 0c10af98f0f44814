//! Trace capture, persistence, and locality analysis.
//!
//! Records a slice of the mcf workload to the v2 trace format, reads it
//! back through `StreamTrace`, verifies the round trip, and runs exact
//! reuse-distance analysis — the methodology used to validate every
//! workload generator in this reproduction (and the way you would analyse
//! your *own* traces before feeding them to the simulator).
//!
//! ```sh
//! cargo run --release --example trace_tools
//! ```

use redhip_repro::mem_trace::codec;
use redhip_repro::mem_trace::reuse::ReuseHistogram;
use redhip_repro::mem_trace::stats::TraceStats;
use redhip_repro::prelude::*;

fn main() {
    // 1. Capture 200k references of mcf.
    let trace: Vec<TraceRecord> = Benchmark::Mcf
        .trace(0, Scale::Smoke)
        .take(200_000)
        .collect();
    println!("captured {} references of mcf (rank 0)", trace.len());

    // 2. Persist and reload through the v2 codec and its one reader.
    let bytes = codec::encode_v2(&trace);
    println!(
        "encoded: {} bytes ({:.2} B/record incl. framing)",
        bytes.len(),
        bytes.len() as f64 / trace.len() as f64
    );
    let reloaded: Vec<TraceRecord> = StreamTrace::from_bytes(bytes)
        .expect("well-formed trace")
        .collect();
    assert_eq!(reloaded, trace, "lossless round trip");
    println!("decode verified: bit-exact round trip ✓");

    // 3. Characterize the stream.
    let stats = TraceStats::measure(trace.iter().copied(), trace.len());
    println!("\nstream character:");
    println!(
        "  footprint          : {:.2} MB",
        stats.footprint_bytes() as f64 / 1e6
    );
    println!(
        "  store fraction     : {:.1}%",
        stats.store_fraction() * 100.0
    );
    println!(
        "  stride predictable : {:.1}%",
        stats.stride_predictability() * 100.0
    );
    println!("  distinct PCs       : {}", stats.distinct_pcs);

    // 4. Exact reuse-distance analysis → LRU hit rates at the demo-scale
    //    cache sizes (fully-associative bound).
    let hist = ReuseHistogram::measure(trace.iter().copied(), trace.len());
    println!("\nreuse-distance profile:");
    println!(
        "  compulsory misses  : {:.1}%",
        hist.cold_fraction() * 100.0
    );
    match hist.median_distance_bound() {
        Some(0) => println!("  median reuse dist  : 0 (same-line reuse dominates)"),
        Some(m) => println!("  median reuse dist  : < {m} blocks"),
        None => println!("  median reuse dist  : n/a (pure streaming)"),
    }
    println!("  predicted fully-associative LRU hit rate:");
    for (label, lines) in [
        ("L1-sized  (32 KB)", 512usize),
        ("L2-sized (256 KB)", 4096),
        ("L3-sized (512 KB)", 8192),
    ] {
        println!("    {label}: {:.1}%", hist.lru_hit_rate(lines) * 100.0);
    }
    println!(
        "\nthese bounds are what the workload tests assert against: a generator whose\n\
         reuse profile drifts from its benchmark's published locality gets caught here."
    );
}
