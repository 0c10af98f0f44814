//! End-to-end guarantees of the streaming trace pipeline.
//!
//! The contract the v2 codec and `StreamTrace` must keep: a recorded
//! trace file replayed through `run_feeds` produces **byte-identical**
//! `SimStats` to simulating the original generators in process — for
//! every mechanism — while holding only a bounded window of the file
//! resident. Sharding must be a partition: re-merging the interleave
//! shards reconstructs the original record sequence exactly.

use mem_trace::codec::ChunkWriter;
use mem_trace::stream::{write_v2_file, StreamTrace};
use mem_trace::{DynTrace, ShardSpec, TraceRecord};
use minijson::ToJson;
use sim::{run_feeds, run_traces, CoreFeed, Mechanism, SimConfig};
use workloads::{Benchmark, FileMode, Scale, TraceFileWorkload};

const REFS_PER_CORE: usize = 6_000;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("redhip-replay-{}-{tag}.trace", std::process::id()))
}

fn config(mechanism: Mechanism) -> SimConfig {
    let mut cfg = SimConfig::new(energy_model::presets::demo_scale(), mechanism);
    cfg.refs_per_core = REFS_PER_CORE;
    cfg.recalib_period = Some(8_192);
    cfg
}

/// Records `cores` per-core generator streams round-robin into one v2
/// file, the way `redhip-sim trace record` does.
fn record_interleaved(path: &std::path::Path, benchmark: Benchmark, cores: usize, chunk: u32) {
    let mut streams: Vec<_> = (0..cores)
        .map(|c| benchmark.trace(c, Scale::Smoke))
        .collect();
    let sink = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    let mut w = ChunkWriter::with_chunk_target(sink, chunk).unwrap();
    for _ in 0..REFS_PER_CORE {
        for s in streams.iter_mut() {
            w.push(s.next().unwrap()).unwrap();
        }
    }
    w.finish().unwrap();
}

#[test]
fn replay_matches_synthesis_for_every_mechanism() {
    let path = temp_path("mech");
    let cores = config(Mechanism::Base).platform.cores;
    record_interleaved(&path, Benchmark::Mcf, cores, 1 << 12);
    let workload = TraceFileWorkload::open(&path, FileMode::Interleave).unwrap();

    for mechanism in [
        Mechanism::Base,
        Mechanism::Redhip,
        Mechanism::Cbf,
        Mechanism::Phased,
        Mechanism::Oracle,
    ] {
        let cfg = config(mechanism);
        let traces: Vec<DynTrace> = (0..cores)
            .map(|c| Benchmark::Mcf.trace(c, Scale::Smoke))
            .collect();
        let synth = run_traces(&cfg, traces);

        let feeds: Vec<CoreFeed> = (0..cores)
            .map(|c| Box::new(workload.feed(c, cores)) as CoreFeed)
            .collect();
        let replay = run_feeds(&cfg, feeds);

        assert_eq!(
            synth.to_json().pretty(),
            replay.to_json().pretty(),
            "{}: replay diverged from in-process simulation",
            mechanism.name()
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Replays `base`'s interleave shards, one per core, under `cfg`.
fn replay_interleaved(cfg: &SimConfig, base: &StreamTrace) -> String {
    let cores = cfg.platform.cores as u32;
    let feeds: Vec<CoreFeed> = (0..cores)
        .map(|index| {
            Box::new(base.shard(ShardSpec::Interleave {
                shards: cores,
                index,
            })) as CoreFeed
        })
        .collect();
    run_feeds(cfg, feeds).to_json().pretty()
}

#[test]
fn replay_is_identical_across_chunk_sizes() {
    let cores = config(Mechanism::Redhip).platform.cores;
    let cfg = config(Mechanism::Redhip);
    let mut reference = None;
    for (tag, chunk) in [("small", 512u32), ("large", 1 << 15)] {
        let path = temp_path(tag);
        record_interleaved(&path, Benchmark::Soplex, cores, chunk);
        let workload = TraceFileWorkload::open(&path, FileMode::Interleave).unwrap();
        let feeds: Vec<CoreFeed> = (0..cores)
            .map(|c| Box::new(workload.feed(c, cores)) as CoreFeed)
            .collect();
        let got = run_feeds(&cfg, feeds).to_json().pretty();
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(want, &got, "chunk {chunk}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn file_replay_matches_in_memory_replay() {
    let cfg = config(Mechanism::Redhip);
    let path = temp_path("file-vs-mem");
    record_interleaved(&path, Benchmark::Soplex, cfg.platform.cores, 1 << 11);
    let file = StreamTrace::open(&path).unwrap();
    let mem = StreamTrace::from_bytes(std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(
        replay_interleaved(&cfg, &file),
        replay_interleaved(&cfg, &mem)
    );
    assert!(file.error().is_none());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn interleave_shards_partition_and_remerge_exactly() {
    let path = temp_path("shard");
    let original: Vec<TraceRecord> = Benchmark::Milc
        .trace(0, Scale::Smoke)
        .take(30_000)
        .collect();
    write_v2_file(&path, original.iter().copied(), 1 << 10).unwrap();
    let stream = StreamTrace::open(&path).unwrap();

    for shards in [2u32, 3, 8] {
        let parts: Vec<Vec<TraceRecord>> = (0..shards)
            .map(|index| {
                stream
                    .shard(ShardSpec::Interleave { shards, index })
                    .collect()
            })
            .collect();
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, original.len(), "{shards} shards lost records");
        let mut merged = Vec::with_capacity(total);
        for i in 0..original.len() {
            merged.push(parts[i % shards as usize][i / shards as usize]);
        }
        assert_eq!(merged, original, "{shards}-way remerge diverged");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn streaming_keeps_resident_window_bounded() {
    let path = temp_path("resident");
    let chunk = 1 << 10;
    let records = 200_000u64;
    let source = (0..records).map(|i| TraceRecord::load(0x400 + i % 17, (i * 4093) % (1 << 30)));
    write_v2_file(&path, source, chunk).unwrap();

    let mut cursor = StreamTrace::open(&path).unwrap();
    let mut seen = 0u64;
    while cursor.next().is_some() {
        seen += 1;
        // The decoded scratch never grows beyond one chunk, no matter how
        // far the cursor advances through the file.
        assert!(
            cursor.resident_records() <= chunk as usize,
            "resident window {} exceeds chunk target {chunk} after {seen} records",
            cursor.resident_records()
        );
    }
    assert_eq!(seen, records);
    let _ = std::fs::remove_file(&path);
}
