//! Trace codec and streaming-replay throughput.
//!
//! The streaming pipeline only pays off if decode runs far ahead of the
//! simulator (~1 Mref/s): these rows pin encode, chunk decode (from memory
//! and from a file), bulk refill vs per-record iteration, interleave
//! sharding both one shard after another and in lock-step, and end-to-end
//! replay.

use bench::micro::Group;
use mem_trace::codec::DEFAULT_CHUNK_TARGET;
use mem_trace::stream::{write_v2_file, StreamTrace};
use mem_trace::{ShardSpec, TraceFeed, TraceRecord};
use sim::{CoreFeed, Mechanism, SimConfig};
use workloads::{Benchmark, Scale};

const RECORDS: usize = 100_000;

fn encode(trace: &[TraceRecord]) -> Vec<u8> {
    mem_trace::codec::encode_v2_chunked(trace, DEFAULT_CHUNK_TARGET)
}

fn main() {
    let records: Vec<TraceRecord> = Benchmark::Mcf
        .trace(0, Scale::Smoke)
        .take(RECORDS)
        .collect();
    let bytes = encode(&records);
    let g = Group::new("trace_io", RECORDS as u64);

    g.bench("encode_v2", || encode(&records).len());

    let mem = StreamTrace::from_bytes(bytes.clone()).expect("valid v2");
    g.bench("decode_mem", || {
        let mut acc = 0u64;
        for r in mem.clone() {
            acc ^= r.addr;
        }
        acc
    });

    // The same records read from a file with positioned reads.
    let path = std::env::temp_dir().join(format!("redhip-trace-io-{}.trace", std::process::id()));
    write_v2_file(&path, records.iter().copied(), DEFAULT_CHUNK_TARGET).expect("write");
    let file = StreamTrace::open(&path).expect("open");
    g.bench("decode_file", || {
        let mut acc = 0u64;
        for r in file.clone() {
            acc ^= r.addr;
        }
        acc
    });

    // Bulk refill is the simulator's ingestion path (BufferedTrace).
    g.bench("refill_bulk", || {
        let mut c = mem.clone();
        let mut buf = Vec::with_capacity(4096);
        let mut total = 0usize;
        loop {
            buf.clear();
            let n = c.refill(&mut buf, 4096);
            if n == 0 {
                break;
            }
            total += n;
        }
        total
    });

    // Draining 8 interleave shards one after another: no cursor shares
    // a decode, so every chunk is decoded once per shard.
    g.bench("shard_interleave8", || {
        let mut acc = 0u64;
        for i in 0..8 {
            for r in mem.shard(ShardSpec::Interleave {
                shards: 8,
                index: i,
            }) {
                acc ^= r.addr;
            }
        }
        acc
    });

    // The simulator's shape of the same split: 8 cursors refilled
    // round-robin, 128 records at a time, share each decoded chunk.
    g.bench("shard_interleave8_lockstep", || {
        let mut cursors: Vec<_> = (0..8)
            .map(|i| {
                mem.shard(ShardSpec::Interleave {
                    shards: 8,
                    index: i,
                })
            })
            .collect();
        let mut buf = Vec::with_capacity(128);
        let mut total = 0usize;
        loop {
            let mut round = 0usize;
            for c in &mut cursors {
                buf.clear();
                round += c.refill(&mut buf, 128);
            }
            if round == 0 {
                break;
            }
            total += round;
        }
        total
    });

    // End-to-end: stream the file through the simulator under ReDHiP.
    let replay = Group::new("trace_replay", RECORDS as u64);
    let mut cfg = SimConfig::new(energy_model::presets::demo_scale(), Mechanism::Redhip);
    let cores = cfg.platform.cores;
    cfg.refs_per_core = RECORDS / cores;
    cfg.recalib_period = Some(8_192);
    replay.bench_with_setup(
        "interleave_redhip",
        || {
            (0..cores)
                .map(|i| {
                    Box::new(file.shard(ShardSpec::Interleave {
                        shards: cores as u32,
                        index: i as u32,
                    })) as CoreFeed
                })
                .collect::<Vec<_>>()
        },
        |feeds| sim::run_feeds(&cfg, feeds).total_refs(),
    );

    let _ = std::fs::remove_file(&path);
}
