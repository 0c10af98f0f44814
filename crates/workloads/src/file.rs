//! File-backed workloads: a recorded trace replayed as one feed per core.
//!
//! A [`TraceFileWorkload`] wraps an open [`StreamTrace`] (v2 trace file)
//! plus a policy for distributing its records across simulated cores:
//!
//! * **dup** — every core replays the whole file (the paper's
//!   multi-programmed methodology: duplicate one benchmark per core; the
//!   harness's per-core physical mapping keeps the copies competing).
//! * **interleave** — core `i` of `n` takes records `i, i+n, i+2n, …`.
//!   A file recorded by round-robin interleaving `n` per-core streams
//!   (`redhip-sim trace record`) replays each core's exact stream,
//!   reproducing the in-process simulation byte for byte.
//! * **range** — core `i` takes the `i`-th contiguous `1/n` slice, for
//!   treating one long single-threaded trace as `n` independent programs.
//!
//! `redhip-sim trace replay --mode dup|interleave|range` names these modes;
//! each core's [`TraceFileWorkload::feed`] goes to `sim::run_feeds`.

use mem_trace::{ShardSpec, StreamTrace, TraceIoError};
use std::path::Path;

/// Average CPI charged for a recorded trace's gap instructions. External
/// traces carry no CPI metadata, so a mid-pack SPEC-like default applies;
/// override with [`TraceFileWorkload::set_avg_cpi`].
pub const DEFAULT_FILE_CPI: f64 = 1.5;

/// How a trace file's records are distributed across cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileMode {
    /// Every core replays the whole file.
    Duplicate,
    /// Core `i` of `n` replays interleave shard `i`.
    Interleave,
    /// Core `i` of `n` replays the `i`-th contiguous range.
    Range,
}

impl FileMode {
    /// Stable tag, as `redhip-sim trace replay --mode` spells it.
    pub fn tag(self) -> &'static str {
        match self {
            FileMode::Duplicate => "dup",
            FileMode::Interleave => "interleave",
            FileMode::Range => "range",
        }
    }

    /// Parses a tag.
    pub fn from_tag(s: &str) -> Option<FileMode> {
        match s {
            "dup" => Some(FileMode::Duplicate),
            "interleave" => Some(FileMode::Interleave),
            "range" => Some(FileMode::Range),
            _ => None,
        }
    }

    /// The shard one core replays under this mode.
    pub fn shard(self, core: usize, cores: usize) -> ShardSpec {
        match self {
            FileMode::Duplicate => ShardSpec::All,
            FileMode::Interleave => ShardSpec::Interleave {
                shards: cores as u32,
                index: core as u32,
            },
            FileMode::Range => ShardSpec::Range {
                shards: cores as u32,
                index: core as u32,
            },
        }
    }
}

/// An open trace file replayed as a workload. The cursors handed to
/// cores share one file handle and each decoded chunk, so cores replaying
/// the file together decode each chunk once.
#[derive(Debug)]
pub struct TraceFileWorkload {
    base: StreamTrace,
    mode: FileMode,
    avg_cpi: f64,
}

impl TraceFileWorkload {
    /// Opens `path` with the given distribution mode.
    pub fn open(path: impl AsRef<Path>, mode: FileMode) -> Result<Self, TraceIoError> {
        Ok(Self {
            base: StreamTrace::open(path)?,
            mode,
            avg_cpi: DEFAULT_FILE_CPI,
        })
    }

    /// Overrides the CPI charged for gap instructions.
    pub fn set_avg_cpi(&mut self, cpi: f64) {
        self.avg_cpi = cpi;
    }

    /// CPI charged for gap instructions.
    pub fn avg_cpi(&self) -> f64 {
        self.avg_cpi
    }

    /// Total records in the file.
    pub fn total_records(&self) -> u64 {
        self.base.total_records()
    }

    /// The first read failure of any cursor since open
    /// ([`StreamTrace::error`]): when set, some core's feed ended early
    /// and a run over this file is short.
    pub fn error(&self) -> Option<&TraceIoError> {
        self.base.error()
    }

    /// The stream cursor core `core` of `cores` replays — a
    /// [`mem_trace::TraceFeed`] the simulator refills from in bulk.
    pub fn feed(&self, core: usize, cores: usize) -> StreamTrace {
        self.base.shard(self.mode.shard(core, cores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::record::TraceRecord;

    fn write_sample(tag: &str, n: u64) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("redhip-filewl-{}-{tag}.trace", std::process::id()));
        let t = (0..n).map(|i| TraceRecord::load(0x400 + i % 13, i * 64));
        mem_trace::stream::write_v2_file(&path, t, 64).unwrap();
        path
    }

    #[test]
    fn modes_distribute_records_as_documented() {
        let path = write_sample("modes", 90);
        let all: Vec<TraceRecord> = {
            let w = TraceFileWorkload::open(&path, FileMode::Duplicate).unwrap();
            w.feed(0, 3).collect()
        };
        assert_eq!(all.len(), 90);

        let w = TraceFileWorkload::open(&path, FileMode::Duplicate).unwrap();
        for core in 0..3 {
            let got: Vec<_> = w.feed(core, 3).collect();
            assert_eq!(got, all, "dup core {core}");
        }

        let w = TraceFileWorkload::open(&path, FileMode::Interleave).unwrap();
        let mut rebuilt = Vec::new();
        let parts: Vec<Vec<_>> = (0..3).map(|c| w.feed(c, 3).collect()).collect();
        for i in 0..all.len() {
            rebuilt.push(parts[i % 3][i / 3]);
        }
        assert_eq!(rebuilt, all);

        let w = TraceFileWorkload::open(&path, FileMode::Range).unwrap();
        let joined: Vec<_> = (0..3)
            .flat_map(|c| w.feed(c, 3).collect::<Vec<_>>())
            .collect();
        assert_eq!(joined, all);
        let _ = std::fs::remove_file(&path);
    }
}
