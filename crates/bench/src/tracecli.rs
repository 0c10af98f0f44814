//! The `redhip-sim trace` subcommands: record, convert, info, replay.
//!
//! They all read and write the one v2 trace format
//! ([`mem_trace::codec`]); [`USAGE`] documents their flags, and
//! `redhip-sim trace --help` prints it. A trace file that fails to open
//! or decode is a usage error: exit 2 with a message naming the path.

use crate::harness::{mechanism_config, FigureScale};
use mem_trace::codec::{ChunkWriter, WriteSummary, DEFAULT_CHUNK_TARGET};
use mem_trace::import::import_lackey;
use mem_trace::stream::{write_v2_file, StreamTrace};
use minijson::{json, ToJson};
use sim::{CoreFeed, Mechanism};
use std::io::BufReader;
use std::time::Instant;
use workloads::{Benchmark, FileMode, TraceFileWorkload};

/// The trace subcommands' usage text, printed by `redhip-sim trace --help`.
pub const USAGE: &str = "\
redhip-sim trace record --benchmark NAME --out FILE [options]
    Runs the benchmark's per-core generators and records their streams
    round-robin-interleaved by index into one v2 trace file. Replaying
    with `--mode interleave` on the same core count reconstructs each
    core's exact stream, so `trace replay` reproduces the in-process
    simulation byte for byte.
      --scale S     smoke|demo|paper workload scale  (default demo)
      --refs N      records per core                 (default per scale)
      --cores N     streams to interleave            (default 8)
      --chunk N     records per chunk                (default 65536)

redhip-sim trace convert --in FILE --out FILE [--chunk N]
    Rechunks a v2 trace file, or imports Valgrind/lackey-style text
    (anything not starting with the trace magic), into a v2 file.

redhip-sim trace info --in FILE [--json]
    Prints the file layout: records, chunks, bytes/record, and the
    compression against 21-byte fixed-width records.

redhip-sim trace replay --in FILE [options]
    Feeds the file to the simulator chunk-at-a-time (bounded memory,
    zero per-record allocation) and reports results + throughput.
      --mode M        dup|interleave|range            (default dup)
      --mechanism M   registry spec string — see `redhip-sim --help`
                      (default redhip)
      --scale S       smoke|demo|paper platform       (default demo)
      --refs N        references per core             (default: shard len)
      --cpi X         CPI charged for gap instructions (default 1.5)
      --buffered      positioned reads instead of mmap
      --json FILE     write the RunResult as JSON
      --quiet         suppress the stderr heartbeat
";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `redhip-sim trace --help` for usage");
    std::process::exit(2);
}

/// Prints [`USAGE`] and exits 0.
fn help() -> ! {
    print!("{USAGE}");
    std::process::exit(0);
}

/// Reports a failure to write `path` and exits 1.
fn write_failed(path: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("error: writing {path}: {e}");
    std::process::exit(1);
}

/// Entry point: `args` are everything after the literal `trace`.
pub fn main(args: Vec<String>) {
    let mut it = args.into_iter();
    match it.next().as_deref() {
        Some("record") => record(it.collect()),
        Some("convert") => convert(it.collect()),
        Some("info") => info(it.collect()),
        Some("replay") => replay(it.collect()),
        Some("--help" | "-h" | "help") => help(),
        other => usage(&format!(
            "unknown trace subcommand {other:?} (expected record|convert|info|replay)"
        )),
    }
}

/// Tiny flag cursor shared by the subcommands.
struct Flags {
    args: std::vec::IntoIter<String>,
}

impl Flags {
    fn new(args: Vec<String>) -> Self {
        Self {
            args: args.into_iter(),
        }
    }

    /// The next flag; `--help` anywhere a flag may stand prints the
    /// usage and exits 0.
    fn next(&mut self) -> Option<String> {
        let flag = self.args.next();
        if matches!(flag.as_deref(), Some("--help" | "-h")) {
            help();
        }
        flag
    }

    fn value(&mut self, name: &str) -> String {
        self.args
            .next()
            .unwrap_or_else(|| usage(&format!("{name} needs a value")))
    }

    fn parse<T: std::str::FromStr>(&mut self, name: &str) -> T {
        self.value(name)
            .parse()
            .unwrap_or_else(|_| usage(&format!("bad {name}")))
    }
}

fn record(args: Vec<String>) {
    let mut benchmark = None;
    let mut out = None;
    let mut scale = FigureScale::Demo;
    let mut refs: Option<usize> = None;
    let mut cores = 8usize;
    let mut chunk = DEFAULT_CHUNK_TARGET;
    let mut f = Flags::new(args);
    while let Some(a) = f.next() {
        match a.as_str() {
            "--benchmark" | "-b" => {
                let v = f.value("--benchmark");
                benchmark = Some(
                    Benchmark::from_name(&v)
                        .unwrap_or_else(|| usage(&format!("unknown benchmark {v}"))),
                );
            }
            "--out" | "-o" => out = Some(f.value("--out")),
            "--scale" => {
                let v = f.value("--scale");
                scale =
                    FigureScale::parse(&v).unwrap_or_else(|| usage(&format!("unknown scale {v}")));
            }
            "--refs" => refs = Some(f.parse("--refs")),
            "--cores" => cores = f.parse("--cores"),
            "--chunk" => chunk = f.parse("--chunk"),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let benchmark = benchmark.unwrap_or_else(|| usage("--benchmark is required"));
    let out = out.unwrap_or_else(|| usage("--out is required"));
    let refs = refs.unwrap_or_else(|| scale.default_refs());
    if cores == 0 {
        usage("--cores must be positive");
    }

    eprintln!(
        "[trace record] {} x {cores} cores x {refs} records/core -> {out} (chunk {chunk})",
        benchmark.name()
    );
    let started = Instant::now();
    let ws = scale.workload_scale();
    let streams = (0..cores).map(|c| benchmark.trace(c, ws)).collect();
    let summary =
        write_recording(&out, streams, refs, chunk).unwrap_or_else(|e| write_failed(&out, e));
    let secs = started.elapsed().as_secs_f64();
    eprintln!(
        "[trace record] {} records, {} chunks, {} bytes ({:.1} MB/s) in {secs:.2}s",
        summary.records,
        summary.chunks,
        summary.file_bytes,
        summary.file_bytes as f64 / 1e6 / secs.max(1e-9)
    );
}

/// Writes `refs` rounds of one record per stream to a v2 file at `out`,
/// synced to disk.
fn write_recording(
    out: &str,
    mut streams: Vec<workloads::DynTrace>,
    refs: usize,
    chunk: u32,
) -> std::io::Result<WriteSummary> {
    let sink = std::io::BufWriter::new(std::fs::File::create(out)?);
    let mut w = ChunkWriter::with_chunk_target(sink, chunk)?;
    'outer: for _ in 0..refs {
        for s in streams.iter_mut() {
            // Generators are endless; a None (a short custom stream) just
            // ends the recording at a full round so shards stay aligned.
            let Some(r) = s.next() else { break 'outer };
            w.push(r)?;
        }
    }
    let (sink, summary) = w.finish()?;
    sink.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    Ok(summary)
}

fn convert(args: Vec<String>) {
    let mut input = None;
    let mut out = None;
    let mut chunk = DEFAULT_CHUNK_TARGET;
    let mut f = Flags::new(args);
    while let Some(a) = f.next() {
        match a.as_str() {
            "--in" | "-i" => input = Some(f.value("--in")),
            "--out" | "-o" => out = Some(f.value("--out")),
            "--chunk" => chunk = f.parse("--chunk"),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let input = input.unwrap_or_else(|| usage("--in is required"));
    let out = out.unwrap_or_else(|| usage("--out is required"));
    // Creating `out` truncates it, and the input is read while the output
    // is written: converting a file onto itself would destroy it mid-read.
    if let (Ok(a), Ok(b)) = (std::fs::canonicalize(&input), std::fs::canonicalize(&out)) {
        if a == b {
            usage(&format!("--out {out} names the --in file"));
        }
    }

    // Sniff: binary traces open with the RDHP magic; anything else is
    // treated as lackey-style text.
    let mut head = [0u8; 4];
    {
        use std::io::Read;
        let mut file = std::fs::File::open(&input)
            .unwrap_or_else(|e| usage(&format!("cannot open {input}: {e}")));
        let n = file.read(&mut head).unwrap_or(0);
        head[n..].fill(0);
    }
    let summary = if u32::from_le_bytes(head) == mem_trace::codec::MAGIC {
        let stream = StreamTrace::open(&input).unwrap_or_else(|e| usage(&format!("{input}: {e}")));
        write_v2_file(&out, stream, chunk).unwrap_or_else(|e| write_failed(&out, e))
    } else {
        let file = std::fs::File::open(&input)
            .unwrap_or_else(|e| usage(&format!("cannot open {input}: {e}")));
        import_lackey(BufReader::new(file), &out, chunk)
            .unwrap_or_else(|e| usage(&format!("{input}: {e}")))
    };
    eprintln!(
        "[trace convert] {input} -> {out}: {} records, {} chunks, {} bytes",
        summary.records, summary.chunks, summary.file_bytes
    );
}

fn info(args: Vec<String>) {
    let mut input = None;
    let mut as_json = false;
    let mut f = Flags::new(args);
    while let Some(a) = f.next() {
        match a.as_str() {
            "--in" | "-i" => input = Some(f.value("--in")),
            "--json" => as_json = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let input = input.unwrap_or_else(|| usage("--in is required"));
    let s = StreamTrace::open(&input).unwrap_or_else(|e| usage(&format!("{input}: {e}")));
    let i = s.info();
    if as_json {
        let doc = json!({
            "path": input.as_str(),
            "version": 2u64,
            "backend": s.backend(),
            "records": i.total_records,
            "chunks": i.chunks,
            "chunk_target": i.chunk_target as u64,
            "file_bytes": i.file_bytes,
            "payload_bytes": i.payload_bytes,
            "payload_bytes_per_record": i.bytes_per_record(),
            "v1_equivalent_bytes": i.raw_bytes(),
        });
        println!("{}", doc.pretty());
        return;
    }
    println!("path            : {input}");
    println!("version         : v2");
    println!("records         : {}", i.total_records);
    println!("chunks          : {} (target {})", i.chunks, i.chunk_target);
    println!("file bytes      : {}", i.file_bytes);
    println!(
        "payload/record  : {:.2} B (fixed width: {} B)",
        i.bytes_per_record(),
        mem_trace::codec::RECORD_BYTES
    );
    if i.raw_bytes() > 0 {
        println!(
            "compression     : {:.2}x vs fixed width",
            i.raw_bytes() as f64 / i.file_bytes as f64
        );
    }
}

fn replay(args: Vec<String>) {
    let mut input = None;
    let mut mode = FileMode::Duplicate;
    let mut mechanism = sim::ParsedSpec::new(Mechanism::Redhip);
    let mut scale = FigureScale::Demo;
    let mut refs: Option<usize> = None;
    let mut cpi: Option<f64> = None;
    let mut buffered = false;
    let mut json_path: Option<String> = None;
    let mut quiet = false;
    let mut f = Flags::new(args);
    while let Some(a) = f.next() {
        match a.as_str() {
            "--in" | "-i" => input = Some(f.value("--in")),
            "--mode" => {
                let v = f.value("--mode");
                mode = FileMode::from_tag(&v)
                    .unwrap_or_else(|| usage(&format!("unknown mode {v} (dup|interleave|range)")));
            }
            "--mechanism" | "-m" => {
                let spec = f.value("--mechanism").to_ascii_lowercase();
                mechanism = sim::parse_spec(&spec).unwrap_or_else(|e| usage(&e));
            }
            "--scale" => {
                let v = f.value("--scale");
                scale =
                    FigureScale::parse(&v).unwrap_or_else(|| usage(&format!("unknown scale {v}")));
            }
            "--refs" => refs = Some(f.parse("--refs")),
            "--cpi" => cpi = Some(f.parse("--cpi")),
            "--buffered" => buffered = true,
            "--json" => json_path = Some(f.value("--json")),
            "--quiet" | "-q" => quiet = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let input = input.unwrap_or_else(|| usage("--in is required"));

    // --buffered keeps resident memory at one raw + one decoded chunk per
    // core via positioned reads, even for files far larger than RAM.
    let mut workload = if buffered {
        TraceFileWorkload::open_buffered(&input, mode)
    } else {
        TraceFileWorkload::open(&input, mode)
    }
    .unwrap_or_else(|e| usage(&format!("{input}: {e}")));
    if let Some(c) = cpi {
        workload.set_avg_cpi(c);
    }

    let mut cfg = mechanism_config(scale, mechanism.mechanism, 0);
    mechanism.apply(&mut cfg);
    let mechanism = mechanism.mechanism;
    let cores = cfg.platform.cores;
    // Default target: exactly what the shard can supply, so a replay of a
    // recorded file consumes it fully.
    let shard_len = mode.shard(0, cores).len(workload.total_records()) as usize;
    cfg.refs_per_core = refs.unwrap_or(shard_len.max(1));
    cfg.avg_cpi = workload.avg_cpi();
    if let Err(e) = cfg.validate() {
        usage(&e);
    }

    eprintln!(
        "[trace replay] {input} ({} records, mode {}) under {} x {cores} cores, {} refs/core",
        workload.total_records(),
        mode.tag(),
        mechanism.name(),
        cfg.refs_per_core
    );
    let started = Instant::now();
    let feeds: Vec<CoreFeed> = (0..cores)
        .map(|core| Box::new(workload.feed(core, cores)) as CoreFeed)
        .collect();
    let result = if quiet {
        sim::run_feeds(&cfg, feeds)
    } else {
        let total = (cfg.refs_per_core * cores) as u64;
        let hb =
            sim::HeartbeatObserver::new(telemetry::Heartbeat::new("[trace replay]", "refs", total));
        sim::run_feeds_with(&cfg, feeds, hb).0
    };
    let secs = started.elapsed().as_secs_f64();

    println!("=== replay {} under {} ===", input, mechanism.name());
    print!("{}", sim::report::render(&result));
    println!(
        "replay throughput    : {:.2} Mrefs/s ({:.2}s wall)",
        result.total_refs() as f64 / 1e6 / secs.max(1e-9),
        secs
    );
    if let Some(path) = json_path {
        std::fs::write(&path, result.to_json().pretty()).unwrap_or_else(|e| write_failed(&path, e));
        eprintln!("[trace replay] wrote {path}");
    }
}
