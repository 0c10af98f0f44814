//! File-backed workloads: recorded traces replayed through the registry.
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
//! Workload specs name these as `file:PATH`, `file:PATH:interleave`,
//! `file:PATH:range` (default `dup`); [`crate::WorkloadSource::parse`]
//! accepts either a registry benchmark name or such a spec.

use mem_trace::DynTrace;
use mem_trace::{ShardSpec, StreamTrace, TraceIoError};
use std::io;
use std::path::Path;

/// Average CPI charged for a recorded trace's gap instructions. External
/// traces carry no CPI metadata, so a mid-pack SPEC-like default applies;
/// override with [`TraceFileWorkload::set_avg_cpi`].
pub const DEFAULT_FILE_CPI: f64 = 1.5;

/// How a trace file's records are distributed across cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FileMode {
    /// Every core replays the whole file.
    #[default]
    Duplicate,
    /// Core `i` of `n` replays interleave shard `i`.
    Interleave,
    /// Core `i` of `n` replays the `i`-th contiguous range.
    Range,
}

impl FileMode {
    /// Stable tag used in specs and canonical keys.
    pub fn tag(self) -> &'static str {
        match self {
            FileMode::Duplicate => "dup",
            FileMode::Interleave => "interleave",
            FileMode::Range => "range",
        }
    }

    /// Parses a spec suffix.
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

/// An open trace file registered as a workload. Cheap to share: the
/// cursors handed to cores share one underlying mapping and each decoded
/// chunk, so cores (or concurrent sweep cells) replaying the file
/// together decode each chunk once.
#[derive(Debug)]
pub struct TraceFileWorkload {
    base: StreamTrace,
    mode: FileMode,
    avg_cpi: f64,
    /// The path exactly as given in the spec (not canonicalized), so
    /// canonical keys are reproducible across machines and sessions.
    spec_path: String,
}

impl TraceFileWorkload {
    /// Opens `path` with the given distribution mode.
    pub fn open(path: impl AsRef<Path>, mode: FileMode) -> Result<Self, TraceIoError> {
        let path = path.as_ref();
        Ok(Self {
            base: StreamTrace::open(path)?,
            mode,
            avg_cpi: DEFAULT_FILE_CPI,
            spec_path: path.display().to_string(),
        })
    }

    /// Like [`open`](Self::open) but with positioned reads instead of
    /// mmap — same records, bounded resident memory without a mapping.
    pub fn open_buffered(path: impl AsRef<Path>, mode: FileMode) -> Result<Self, TraceIoError> {
        let path = path.as_ref();
        Ok(Self {
            base: StreamTrace::open_buffered(path)?,
            mode,
            avg_cpi: DEFAULT_FILE_CPI,
            spec_path: path.display().to_string(),
        })
    }

    /// Parses a `file:PATH[:dup|:interleave|:range]` spec and opens it.
    pub fn from_spec(spec: &str) -> Result<Self, TraceIoError> {
        let rest = spec.strip_prefix("file:").ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("not a file workload spec: {spec}"),
            )
        })?;
        let (path, mode) = match rest.rsplit_once(':') {
            Some((path, tag)) if FileMode::from_tag(tag).is_some() && !path.is_empty() => {
                (path, FileMode::from_tag(tag).expect("checked"))
            }
            _ => (rest, FileMode::default()),
        };
        Self::open(path, mode)
    }

    /// Overrides the CPI charged for gap instructions.
    pub fn set_avg_cpi(&mut self, cpi: f64) {
        self.avg_cpi = cpi;
    }

    /// CPI charged for gap instructions.
    pub fn avg_cpi(&self) -> f64 {
        self.avg_cpi
    }

    /// The distribution mode.
    pub fn mode(&self) -> FileMode {
        self.mode
    }

    /// The path as given in the spec.
    pub fn spec_path(&self) -> &str {
        &self.spec_path
    }

    /// Total records in the file.
    pub fn total_records(&self) -> u64 {
        self.base.total_records()
    }

    /// File-level summary (chunks, sizes).
    pub fn info(&self) -> mem_trace::stream::TraceInfo {
        self.base.info()
    }

    /// The stream cursor core `core` of `cores` replays — a
    /// [`mem_trace::TraceFeed`] the simulator refills from in bulk.
    pub fn feed(&self, core: usize, cores: usize) -> StreamTrace {
        self.base.shard(self.mode.shard(core, cores))
    }

    /// Same records as [`feed`](Self::feed), boxed as a plain iterator
    /// for the registry's [`DynTrace`] interface.
    pub fn trace(&self, core: usize, cores: usize) -> DynTrace {
        Box::new(self.feed(core, cores))
    }

    /// Stable identity for canonical keys: spec, mode, and the file's
    /// record/byte counts (so a rewritten file invalidates caches).
    pub fn identity_tag(&self) -> String {
        let info = self.base.info();
        format!(
            "file:{}:{}:r{}:b{}",
            self.spec_path,
            self.mode.tag(),
            info.total_records,
            info.file_bytes
        )
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
    fn spec_parsing_covers_modes_and_defaults() {
        let path = write_sample("spec", 100);
        let p = path.display().to_string();
        let dup = TraceFileWorkload::from_spec(&format!("file:{p}")).unwrap();
        assert_eq!(dup.mode(), FileMode::Duplicate);
        assert_eq!(dup.spec_path(), p);
        for (suffix, mode) in [
            ("dup", FileMode::Duplicate),
            ("interleave", FileMode::Interleave),
            ("range", FileMode::Range),
        ] {
            let w = TraceFileWorkload::from_spec(&format!("file:{p}:{suffix}")).unwrap();
            assert_eq!(w.mode(), mode, "{suffix}");
        }
        assert!(TraceFileWorkload::from_spec("mcf").is_err());
        assert!(TraceFileWorkload::from_spec("file:/does/not/exist").is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn modes_distribute_records_as_documented() {
        let path = write_sample("modes", 90);
        let all: Vec<TraceRecord> = {
            let w = TraceFileWorkload::open(&path, FileMode::Duplicate).unwrap();
            w.trace(0, 3).collect()
        };
        assert_eq!(all.len(), 90);

        let w = TraceFileWorkload::open(&path, FileMode::Duplicate).unwrap();
        for core in 0..3 {
            let got: Vec<_> = w.trace(core, 3).collect();
            assert_eq!(got, all, "dup core {core}");
        }

        let w = TraceFileWorkload::open(&path, FileMode::Interleave).unwrap();
        let mut rebuilt = Vec::new();
        let parts: Vec<Vec<_>> = (0..3).map(|c| w.trace(c, 3).collect()).collect();
        for i in 0..all.len() {
            rebuilt.push(parts[i % 3][i / 3]);
        }
        assert_eq!(rebuilt, all);

        let w = TraceFileWorkload::open(&path, FileMode::Range).unwrap();
        let joined: Vec<_> = (0..3)
            .flat_map(|c| w.trace(c, 3).collect::<Vec<_>>())
            .collect();
        assert_eq!(joined, all);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn identity_tag_tracks_file_content() {
        let path = write_sample("ident", 50);
        let a = TraceFileWorkload::open(&path, FileMode::Interleave).unwrap();
        let tag = a.identity_tag();
        assert!(tag.contains("interleave") && tag.contains(":r50:"));
        drop(a);
        // Rewriting the file with different content changes the tag.
        let t = (0..60u64).map(|i| TraceRecord::load(0x400, i));
        mem_trace::stream::write_v2_file(&path, t, 64).unwrap();
        let b = TraceFileWorkload::open(&path, FileMode::Interleave).unwrap();
        assert_ne!(b.identity_tag(), tag);
        let _ = std::fs::remove_file(&path);
    }
}
