//! `replay-v2`: demo-scale `milc` written to a v2 trace file (set-up, the
//! write side) and replayed through `TraceFileWorkload` in interleave mode
//! for Base and ReDHiP (timed, the read side).
//!
//! Why: the codec, `StreamTrace` and the feed path carry the cost here,
//! and no other workload touches them. milc misses L1 on 9 % of
//! references and builds no graph, so set-up is generation plus encoding.

use crate::common::{generate, run_memory, same, timed, CoreRecords, Report, Rounds};
use crate::tracer::Tracer;
use mem_trace::codec::DEFAULT_CHUNK_TARGET;
use mem_trace::stream::write_v2_file;
use sim::{CoreFeed, Mechanism, RunResult, SimConfig};
use std::path::{Path, PathBuf};
use workloads::{Benchmark, FileMode, Scale, TraceFileWorkload};

pub const BENCH: Benchmark = Benchmark::Milc;

/// References per core.
pub const REFS: usize = 200_000;

/// Scratch directory, relative to the directory the benchmark runs in.
pub const OUT_DIR: &str = ".bench_out";

/// The written trace, the records it was written from, and the cells.
pub struct Replay {
    pub records: Vec<CoreRecords>,
    pub path: PathBuf,
    pub workload: TraceFileWorkload,
    pub cells: Vec<(String, SimConfig)>,
}

fn trace_path(seed: u64, tag: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("replay-{}-{seed}-{tag}.trace", std::process::id()))
}

/// Writes per-core records round-robin (record `i` of core `c` at
/// position `i * cores + c`), the layout interleave mode replays.
pub fn write(records: &[CoreRecords], path: &Path) -> Result<u64, String> {
    let n = records.first().map_or(0, |r| r.len());
    let interleaved = (0..n).flat_map(|i| records.iter().map(move |r| r[i]));
    write_v2_file(path, interleaved, DEFAULT_CHUNK_TARGET)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))
}

fn generate_and_write(seed: u64, path: &Path) -> Result<Vec<CoreRecords>, String> {
    let cores = bench::harness::FigureScale::Demo.platform().cores;
    let records = generate(BENCH, seed, Scale::Demo, REFS, cores);
    write(&records, path)?;
    Ok(records)
}

/// Generates, writes and opens the trace for `seed`; returns the set-up
/// time with it.
pub fn setup(seed: u64) -> Result<(Replay, f64), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = trace_path(seed, "main");
    let (opened, secs) = timed(|| -> Result<_, String> {
        let records = generate_and_write(seed, &path)?;
        let mut w = TraceFileWorkload::open(&path, FileMode::Interleave)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        w.set_avg_cpi(BENCH.avg_cpi());
        Ok((records, w))
    });
    let (records, workload) = match opened {
        Ok(v) => v,
        Err(e) => {
            let _ = std::fs::remove_file(&path);
            return Err(e);
        }
    };
    let cells = [Mechanism::Base, Mechanism::Redhip]
        .into_iter()
        .map(|m| {
            (
                format!("{}/{}", BENCH.name(), m.name()),
                crate::walk_demo::config(m, BENCH, REFS),
            )
        })
        .collect();
    Ok((
        Replay {
            records,
            path,
            workload,
            cells,
        },
        secs,
    ))
}

impl Replay {
    /// One replay of `cfg` from the file.
    pub fn replay(&self, cfg: &SimConfig) -> RunResult {
        let cores = cfg.platform.cores;
        let feeds = (0..cores)
            .map(|c| Box::new(self.workload.feed(c, cores)) as CoreFeed)
            .collect();
        sim::run_feeds(cfg, feeds)
    }

    /// Replays the cells round-robin for `seconds`. After each round the
    /// set-up is repeated into a second file and timed into `setup_secs`;
    /// it must write the same bytes.
    pub fn rounds(
        &self,
        seed: u64,
        seconds: f64,
        tracer: Option<&mut Tracer>,
        report: &mut Report,
        setup_secs: &mut Vec<f64>,
    ) -> Rounds {
        let again = trace_path(seed, "again");
        let rounds = Rounds::run(
            &self.cells,
            seconds,
            tracer,
            report,
            |c| self.replay(&self.cells[c].1),
            |report| {
                let (written, s) = timed(|| generate_and_write(seed, &again));
                setup_secs.push(s);
                let ok =
                    written.is_ok() && std::fs::read(&again).ok() == std::fs::read(&self.path).ok();
                report.op(ok, || "rewritten trace file differs".into());
            },
        );
        let _ = std::fs::remove_file(&again);
        rounds
    }

    /// Each replayed result must equal an in-memory run over the records
    /// the file was written from.
    pub fn check_in_memory(&self, rounds: &Rounds, report: &mut Report) {
        for (c, (name, cfg)) in self.cells.iter().enumerate() {
            let (r, _) = run_memory(cfg, &self.records);
            report.op(same(&r, &rounds.first[c]), || {
                format!("{name}: replay differs from in-memory run_feeds")
            });
        }
    }
}

impl Drop for Replay {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_dir(OUT_DIR);
    }
}
