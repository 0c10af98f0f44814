//! Chunk-at-a-time replay of v2 trace files with bounded memory.
//!
//! [`StreamTrace`] opens a v2 file, validates its header/index/tail once,
//! and then serves records one decoded chunk at a time. Steady-state
//! replay performs **zero per-record heap allocation**: the only
//! allocation is one buffer per chunk decode.
//!
//! Decoded chunks belong to the *open file*, not to a cursor. Every
//! cursor over one file (its clones and [`StreamTrace::shard`]s) looks a
//! chunk up in a shared table of weak handles before decoding it, so
//! cursors that walk the file together decode each chunk once: an 8-core
//! interleave replay, where each shard keeps 1/8 of a chunk's records,
//! decodes every chunk once instead of 8 times. A chunk is freed when the
//! last cursor leaves it. Memory stays bounded: a cursor pins at most one
//! decoded chunk (`chunk_target` records, ~1.3 MB at the default target),
//! and cursors in lock-step share one or two in total, regardless of
//! trace size.
//!
//! The bytes come from one of three backends behind the same abstraction:
//!
//! * **mmap** (default on Unix) — the kernel pages chunk bytes in on
//!   demand; decode reads straight out of the mapping, no copies.
//! * **positioned reads** — `pread`-style `read_exact_at` into a reusable
//!   raw buffer; no shared file cursor, so clones stay independent.
//! * **in-memory** — an owned buffer, used by [`StreamTrace::from_bytes`]
//!   and as the non-Unix fallback.
//!
//! Cloning a `StreamTrace` (or calling [`StreamTrace::shard`]) creates an
//! independent cursor over the *same* backend and decoded-chunk table —
//! one mapping shared by every simulated core.
//!
//! Mid-stream corruption or I/O failure panics with context: the layout
//! is fully validated at open, so a payload that fails to decode later
//! means the file changed underneath us or the medium failed — neither is
//! recoverable mid-simulation. Use [`crate::codec::decode`] on the raw
//! bytes for fallible whole-file reading.

use crate::codec::{
    self, ChunkMeta, TraceIoError, V2Layout, WriteSummary, HEADER_BYTES, TAIL_BYTES,
};
use crate::record::TraceRecord;
use crate::shard::ShardSpec;
use crate::{TraceFeed, VecTrace};
use std::fs::File;
use std::io::{self, BufWriter, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Minimal raw mmap bindings. glibc is already linked through `std`, so
/// declaring the two symbols we need avoids a dependency on the `libc`
/// crate (this workspace is fully offline).
#[cfg(unix)]
mod mapping {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private mapping of a whole file.
    pub struct Mmap {
        ptr: *mut u8,
        len: usize,
    }

    // The mapping is PROT_READ and never mutated through this handle, so
    // sharing references across threads is sound.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `len` bytes of `file` read-only.
        pub fn map(file: &File, len: usize) -> io::Result<Self> {
            if len == 0 {
                // mmap rejects zero-length mappings; an empty file has no
                // bytes to serve anyway.
                return Ok(Self {
                    ptr: std::ptr::null_mut(),
                    len: 0,
                });
            }
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            // MAP_FAILED is (void*)-1.
            if ptr as usize == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { ptr, len })
        }

        /// The mapped bytes.
        pub fn bytes(&self) -> &[u8] {
            if self.len == 0 {
                &[]
            } else {
                unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
            }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            if self.len != 0 {
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }

    impl std::fmt::Debug for Mmap {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Mmap").field("len", &self.len).finish()
        }
    }
}

/// Where the file bytes come from. One abstraction so the decode path is
/// identical for mapped, positioned-read, and in-memory backends.
#[derive(Debug)]
enum Store {
    #[cfg(unix)]
    Mapped(mapping::Mmap),
    #[cfg(unix)]
    File {
        file: File,
        len: u64,
    },
    Mem(Vec<u8>),
}

impl Store {
    fn len(&self) -> u64 {
        match self {
            #[cfg(unix)]
            Store::Mapped(m) => m.bytes().len() as u64,
            #[cfg(unix)]
            Store::File { len, .. } => *len,
            Store::Mem(b) => b.len() as u64,
        }
    }

    /// Returns `len` bytes starting at `offset` — borrowed straight from
    /// the backing buffer when one exists, read into `scratch` otherwise.
    /// Callers guarantee the range lies within the file (the validated
    /// layout bounds every chunk).
    fn read<'a>(
        &'a self,
        offset: u64,
        len: usize,
        scratch: &'a mut Vec<u8>,
    ) -> io::Result<&'a [u8]> {
        match self {
            #[cfg(unix)]
            Store::Mapped(m) => Ok(&m.bytes()[offset as usize..offset as usize + len]),
            #[cfg(unix)]
            Store::File { file, .. } => {
                use std::os::unix::fs::FileExt;
                scratch.clear();
                scratch.resize(len, 0);
                file.read_exact_at(scratch, offset)?;
                Ok(&scratch[..])
            }
            Store::Mem(b) => Ok(&b[offset as usize..offset as usize + len]),
        }
    }

    fn backend(&self) -> &'static str {
        match self {
            #[cfg(unix)]
            Store::Mapped(_) => "mmap",
            #[cfg(unix)]
            Store::File { .. } => "pread",
            Store::Mem(_) => "mem",
        }
    }
}

/// One decoded chunk, shared by every cursor currently reading it.
type Chunk = Arc<Vec<TraceRecord>>;

/// The shared side of an open trace: backend, validated layout and the
/// decoded chunks some cursor still holds. Every cursor ([`StreamTrace`])
/// holds an `Arc` to one of these.
#[derive(Debug)]
struct TraceInner {
    store: Store,
    layout: V2Layout,
    /// Global record index at which each chunk starts, plus a final entry
    /// equal to `total_records`; binary-searched to seek.
    cum: Vec<u64>,
    path: Option<PathBuf>,
    /// Locked once per chunk crossing, never per record.
    chunks: Mutex<ChunkTable>,
}

/// Decoded chunks by index, plus the decode scratch. It holds only
/// `Weak`s and a scratch buffer that every use overwrites, so a panic
/// mid-decode leaves nothing inconsistent and a poisoned lock is safe to
/// re-enter.
#[derive(Debug, Default)]
struct ChunkTable {
    /// One entry per chunk; upgrades while some cursor holds the chunk.
    live: Vec<Weak<Vec<TraceRecord>>>,
    /// Raw-byte scratch for the positioned-read backend.
    raw: Vec<u8>,
    /// Chunk decodes performed for this file.
    #[cfg(test)]
    decodes: usize,
}

/// Summary of an open trace file, for `trace info` and logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceInfo {
    /// Total records in the file.
    pub total_records: u64,
    /// Number of chunks.
    pub chunks: u64,
    /// The writer's records-per-chunk target.
    pub chunk_target: u32,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Bytes of compressed chunk payloads (header/index/tail excluded).
    pub payload_bytes: u64,
}

impl TraceInfo {
    /// Fixed-width (v1) bytes the same records would occupy.
    pub fn raw_bytes(&self) -> u64 {
        self.total_records * codec::RECORD_BYTES as u64
    }

    /// Compressed payload bytes per record.
    pub fn bytes_per_record(&self) -> f64 {
        if self.total_records == 0 {
            0.0
        } else {
            self.payload_bytes as f64 / self.total_records as f64
        }
    }
}

/// A cursor over an open v2 trace file: implements [`Iterator`] (one
/// record at a time) and [`TraceFeed`] (bulk refills that `memcpy` out of
/// the decoded chunk). See the module docs for the memory model.
#[derive(Debug)]
pub struct StreamTrace {
    inner: Arc<TraceInner>,
    /// The decoded chunk this cursor reads (empty before the first read).
    decoded: Chunk,
    /// Global index of `decoded[0]`.
    base: u64,
    /// Shard window end (`next_global` walks `start, start+stride, … < end`).
    end: u64,
    stride: u64,
    /// Next global index to emit.
    next_global: u64,
    spec: ShardSpec,
}

impl StreamTrace {
    /// Opens `path`, preferring a memory mapping and falling back to
    /// positioned reads (e.g. when the file lives on a filesystem that
    /// refuses mmap).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceIoError> {
        let path = path.as_ref();
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        #[cfg(unix)]
        {
            let store = match mapping::Mmap::map(&file, len as usize) {
                Ok(m) => Store::Mapped(m),
                Err(_) => Store::File { file, len },
            };
            Self::from_store(store, Some(path.to_path_buf()))
        }
        #[cfg(not(unix))]
        {
            drop(len);
            let mut buf = Vec::new();
            (&file).read_to_end(&mut buf)?;
            Self::from_store(Store::Mem(buf), Some(path.to_path_buf()))
        }
    }

    /// Opens `path` with the positioned-read backend (no mapping), the
    /// bounded-memory path for files larger than address space comfort or
    /// for explicitly avoiding page-cache mappings. On non-Unix targets
    /// this loads the file into memory.
    pub fn open_buffered(path: impl AsRef<Path>) -> Result<Self, TraceIoError> {
        let path = path.as_ref();
        let file = File::open(path)?;
        #[cfg(unix)]
        {
            let len = file.metadata()?.len();
            Self::from_store(Store::File { file, len }, Some(path.to_path_buf()))
        }
        #[cfg(not(unix))]
        {
            let mut buf = Vec::new();
            (&file).read_to_end(&mut buf)?;
            Self::from_store(Store::Mem(buf), Some(path.to_path_buf()))
        }
    }

    /// Wraps an in-memory v2 buffer (tests, benches, pipes).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TraceIoError> {
        Self::from_store(Store::Mem(bytes), None)
    }

    fn from_store(store: Store, path: Option<PathBuf>) -> Result<Self, TraceIoError> {
        let layout = load_layout(&store)?;
        let cum = layout.cumulative_starts();
        let chunks = Mutex::new(ChunkTable {
            live: layout.chunks.iter().map(|_| Weak::new()).collect(),
            ..ChunkTable::default()
        });
        let inner = Arc::new(TraceInner {
            store,
            layout,
            cum,
            path,
            chunks,
        });
        Ok(Self::cursor(inner, ShardSpec::All))
    }

    fn cursor(inner: Arc<TraceInner>, spec: ShardSpec) -> Self {
        let total = inner.layout.total_records;
        let (start, end, stride) = spec.window(total);
        Self {
            inner,
            decoded: Chunk::default(),
            base: 0,
            end,
            stride,
            next_global: start,
            spec,
        }
    }

    /// A fresh cursor over the same open file restricted to `spec`'s
    /// window. The backend (mapping or file handle) and the decoded
    /// chunks are shared; the read position is per-cursor.
    pub fn shard(&self, spec: ShardSpec) -> StreamTrace {
        Self::cursor(Arc::clone(&self.inner), spec)
    }

    /// This cursor's shard spec.
    pub fn shard_spec(&self) -> ShardSpec {
        self.spec
    }

    /// Total records in the file (not the shard window).
    pub fn total_records(&self) -> u64 {
        self.inner.layout.total_records
    }

    /// Records this cursor has yet to emit.
    pub fn remaining(&self) -> u64 {
        if self.end > self.next_global {
            (self.end - self.next_global).div_ceil(self.stride)
        } else {
            0
        }
    }

    /// File-level summary for display.
    pub fn info(&self) -> TraceInfo {
        let l = &self.inner.layout;
        TraceInfo {
            total_records: l.total_records,
            chunks: l.chunks.len() as u64,
            chunk_target: l.chunk_target,
            file_bytes: self.inner.store.len(),
            payload_bytes: l.index_offset - HEADER_BYTES as u64,
        }
    }

    /// Which backend serves the bytes: `"mmap"`, `"pread"`, or `"mem"`.
    pub fn backend(&self) -> &'static str {
        self.inner.store.backend()
    }

    /// The file path, when opened from one.
    pub fn path(&self) -> Option<&Path> {
        self.inner.path.as_deref()
    }

    /// Records in the decoded chunk this cursor holds — the quantity the
    /// bounded-memory guarantee is about: it never exceeds the largest
    /// chunk in the file.
    pub fn resident_records(&self) -> usize {
        self.decoded.capacity()
    }

    /// Points this cursor at the chunk containing global record `g`,
    /// reusing another cursor's decode when one is live and decoding (then
    /// publishing) it otherwise. `g` must be `< total_records`.
    #[cold]
    fn load_chunk_containing(&mut self, g: u64) {
        let inner = &*self.inner;
        // Last chunk whose start is <= g; duplicate starts (empty chunks)
        // resolve to the last, i.e. the one actually containing g.
        let n = inner.layout.chunks.len();
        let idx = inner.cum[..n].partition_point(|&s| s <= g) - 1;
        // Decoding under the lock means cursors in lock-step on other
        // threads wait for this decode instead of repeating it.
        let mut table = inner.chunks.lock().unwrap_or_else(PoisonError::into_inner);
        let chunk = match table.live[idx].upgrade() {
            Some(chunk) => chunk,
            None => {
                let meta: &ChunkMeta = &inner.layout.chunks[idx];
                let bytes = inner
                    .store
                    .read(meta.offset, meta.bytes as usize, &mut table.raw)
                    .unwrap_or_else(|e| panic!("trace chunk {idx} read failed: {e}"));
                let mut decoded = Vec::new();
                codec::decode_chunk_bytes(bytes, idx as u64, meta, &mut decoded)
                    .unwrap_or_else(|e| panic!("trace chunk {idx} corrupt after validation: {e}"));
                metrics::TRACE_CHUNKS_DECODED.incr();
                #[cfg(test)]
                {
                    table.decodes += 1;
                }
                let chunk = Arc::new(decoded);
                table.live[idx] = Arc::downgrade(&chunk);
                chunk
            }
        };
        drop(table);
        // Releasing the old chunk (possibly its last holder) happens
        // outside the lock.
        self.decoded = chunk;
        self.base = inner.cum[idx];
        debug_assert!(g >= self.base && g < self.base + self.decoded.len() as u64);
    }

    /// True when the chunk holding `g` is already decoded.
    #[inline]
    fn resident(&self, g: u64) -> bool {
        g >= self.base && g < self.base + self.decoded.len() as u64
    }
}

impl Clone for StreamTrace {
    /// A rewound cursor over the same file and shard window; it picks up
    /// decoded chunks from the shared table on first use.
    fn clone(&self) -> Self {
        Self::cursor(Arc::clone(&self.inner), self.spec)
    }
}

impl Iterator for StreamTrace {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        let g = self.next_global;
        if g >= self.end {
            return None;
        }
        if !self.resident(g) {
            self.load_chunk_containing(g);
        }
        let r = self.decoded[(g - self.base) as usize];
        self.next_global = g + self.stride;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for StreamTrace {}

impl TraceFeed for StreamTrace {
    /// Bulk refill: each pass copies the longest run the decoded chunk
    /// holds — an `extend_from_slice` (`memcpy`) for stride-1 windows, one
    /// strided copy otherwise — so the per-record cost is a copy, not a
    /// residency check and a virtual call.
    fn refill(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        let mut pushed = 0usize;
        while pushed < max {
            let g = self.next_global;
            if g >= self.end {
                break;
            }
            if !self.resident(g) {
                // The consumer outran the decoded window: this refill
                // stalls on a chunk read + decode (or a shared-table hit).
                metrics::TRACE_REFILL_STALLS.incr();
                self.load_chunk_containing(g);
            }
            let stride = self.stride as usize;
            let run = &self.decoded[(g - self.base) as usize..];
            let take = run
                .len()
                .div_ceil(stride)
                .min(self.remaining() as usize)
                .min(max - pushed);
            if stride == 1 {
                out.extend_from_slice(&run[..take]);
            } else {
                out.extend(run.iter().step_by(stride).take(take).copied());
            }
            pushed += take;
            self.next_global += (take * stride) as u64;
        }
        pushed
    }
}

/// Reads the layout (header + tail + index) through the store — three
/// bounded reads, so opening a 10 GB trace touches only its edges.
fn load_layout(store: &Store) -> Result<V2Layout, TraceIoError> {
    let file_len = store.len();
    let mut scratch = Vec::new();
    if file_len < HEADER_BYTES as u64 {
        return Err(codec::DecodeError::TruncatedHeader.into());
    }
    let chunk_target = codec::parse_v2_header(store.read(0, HEADER_BYTES, &mut scratch)?)?;
    if file_len < (HEADER_BYTES + TAIL_BYTES) as u64 {
        return Err(codec::DecodeError::TruncatedTail.into());
    }
    let tail = codec::parse_v2_tail(
        file_len,
        store.read(file_len - TAIL_BYTES as u64, TAIL_BYTES, &mut scratch)?,
    )?;
    let index_bytes = (file_len - TAIL_BYTES as u64 - tail.index_offset) as usize;
    let mut layout = codec::parse_v2_index(
        &tail,
        store.read(tail.index_offset, index_bytes, &mut scratch)?,
    )?;
    layout.chunk_target = chunk_target;
    Ok(layout)
}

/// Decodes a whole trace file (either version) into memory.
pub fn read_any(path: impl AsRef<Path>) -> Result<VecTrace, TraceIoError> {
    let mut buf = Vec::new();
    File::open(path.as_ref())?.read_to_end(&mut buf)?;
    Ok(codec::decode(&buf)?)
}

/// Streams `source` into a v2 file at `path` through a buffered
/// [`codec::ChunkWriter`]; memory use is one chunk, not the trace.
pub fn write_v2_file(
    path: impl AsRef<Path>,
    source: impl Iterator<Item = TraceRecord>,
    chunk_target: u32,
) -> Result<WriteSummary, TraceIoError> {
    let file = File::create(path.as_ref())?;
    let mut w = codec::ChunkWriter::with_chunk_target(BufWriter::new(file), chunk_target)?;
    w.push_all(source)?;
    let (sink, summary) = w.finish()?;
    sink.into_inner().map_err(io::IntoInnerError::into_error)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode, encode_v2_chunked, DEFAULT_CHUNK_TARGET};
    use crate::record::MemOp;
    use crate::rng::Rng64;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Unique temp path; removed by `TempPath::drop`.
    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            TempPath(std::env::temp_dir().join(format!(
                "redhip-stream-{}-{n}-{tag}.trace",
                std::process::id()
            )))
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn random_trace(seed: u64, len: usize) -> VecTrace {
        let mut rng = Rng64::seed_from_u64(seed);
        VecTrace::from_records(
            (0..len)
                .map(|_| {
                    TraceRecord::new(
                        rng.next_u64() >> rng.gen_index(64) as u32,
                        rng.next_u64() >> rng.gen_index(64) as u32,
                        if rng.gen_bool(0.4) {
                            MemOp::Store
                        } else {
                            MemOp::Load
                        },
                        (rng.next_u64() >> 40) as u32,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn streams_from_memory_buffer() {
        let t = random_trace(1, 3000);
        let s = StreamTrace::from_bytes(encode_v2_chunked(&t, 128)).unwrap();
        assert_eq!(s.total_records(), 3000);
        assert_eq!(s.len(), 3000);
        let back: Vec<_> = s.collect();
        assert_eq!(back, t.records());
    }

    #[test]
    fn streams_from_file_with_both_backends() {
        let t = random_trace(2, 5000);
        let tmp = TempPath::new("backends");
        write_v2_file(&tmp.0, t.iter(), 512).unwrap();
        for s in [
            StreamTrace::open(&tmp.0).unwrap(),
            StreamTrace::open_buffered(&tmp.0).unwrap(),
        ] {
            assert_eq!(s.total_records(), 5000);
            let backend = s.backend();
            let back: Vec<_> = s.collect();
            assert_eq!(back, t.records(), "backend {backend}");
        }
    }

    #[test]
    fn write_summary_matches_file() {
        let t = random_trace(3, 1000);
        let tmp = TempPath::new("summary");
        let summary = write_v2_file(&tmp.0, t.iter(), 300).unwrap();
        assert_eq!(summary.records, 1000);
        assert_eq!(summary.chunks, 4);
        assert_eq!(summary.file_bytes, std::fs::metadata(&tmp.0).unwrap().len());
        let s = StreamTrace::open(&tmp.0).unwrap();
        let info = s.info();
        assert_eq!(info.total_records, 1000);
        assert_eq!(info.chunks, 4);
        assert_eq!(info.chunk_target, 300);
        assert_eq!(info.file_bytes, summary.file_bytes);
        assert!(info.bytes_per_record() > 0.0);
        assert!(info.raw_bytes() > info.payload_bytes);
    }

    #[test]
    fn resident_memory_is_bounded_by_chunk_size() {
        let t = random_trace(4, 10_000);
        let mut s = StreamTrace::from_bytes(encode_v2_chunked(&t, 64)).unwrap();
        assert_eq!(s.resident_records(), 0);
        let mut n = 0usize;
        for _ in s.by_ref() {
            n += 1;
        }
        assert_eq!(n, 10_000);
        // Scratch capacity never grew beyond one chunk.
        assert!(
            s.resident_records() <= 64,
            "resident {} records",
            s.resident_records()
        );
    }

    #[test]
    fn interleave_shards_remerge_to_original() {
        let t = random_trace(5, 4097);
        let s = StreamTrace::from_bytes(encode_v2_chunked(&t, 100)).unwrap();
        let shards = 4u32;
        let parts: Vec<Vec<TraceRecord>> = (0..shards)
            .map(|k| {
                s.shard(ShardSpec::Interleave { shards, index: k })
                    .collect()
            })
            .collect();
        let mut rebuilt = Vec::new();
        for i in 0..t.len() {
            rebuilt.push(parts[i % shards as usize][i / shards as usize]);
        }
        assert_eq!(rebuilt, t.records());
    }

    #[test]
    fn range_shards_concatenate_to_original() {
        let t = random_trace(6, 1009);
        let s = StreamTrace::from_bytes(encode_v2_chunked(&t, 64)).unwrap();
        let mut rebuilt = Vec::new();
        for k in 0..3u32 {
            let part = s.shard(ShardSpec::Range {
                shards: 3,
                index: k,
            });
            assert_eq!(part.len() as u64, part.remaining());
            rebuilt.extend(part);
        }
        assert_eq!(rebuilt, t.records());
    }

    #[test]
    fn refill_matches_iteration() {
        let t = random_trace(7, 2500);
        let buf = encode_v2_chunked(&t, 97);
        for spec in [
            ShardSpec::All,
            ShardSpec::Interleave {
                shards: 3,
                index: 1,
            },
            ShardSpec::Range {
                shards: 4,
                index: 2,
            },
        ] {
            let base = StreamTrace::from_bytes(buf.clone()).unwrap();
            let by_iter: Vec<_> = base.shard(spec).collect();
            let mut feed = base.shard(spec);
            let mut by_feed = Vec::new();
            loop {
                let got = feed.refill(&mut by_feed, 128);
                assert!(got <= 128);
                if got == 0 {
                    break;
                }
            }
            assert_eq!(by_feed, by_iter, "{spec:?}");
        }
    }

    #[test]
    fn clone_rewinds_to_window_start() {
        let t = random_trace(8, 600);
        let mut s = StreamTrace::from_bytes(encode_v2_chunked(&t, 50)).unwrap();
        for _ in 0..100 {
            s.next();
        }
        let fresh: Vec<_> = s.clone().collect();
        assert_eq!(fresh, t.records());
        assert_eq!(s.remaining(), 500);
    }

    #[test]
    fn empty_trace_streams_empty() {
        let s = StreamTrace::from_bytes(encode_v2_chunked(&VecTrace::new(), 8)).unwrap();
        assert_eq!(s.total_records(), 0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn open_rejects_v1_and_garbage() {
        let tmp = TempPath::new("v1");
        std::fs::write(&tmp.0, encode(&random_trace(9, 10))).unwrap();
        assert!(matches!(
            StreamTrace::open(&tmp.0),
            Err(TraceIoError::Decode(codec::DecodeError::BadVersion(1)))
        ));
        // read_any still handles v1.
        assert_eq!(read_any(&tmp.0).unwrap(), random_trace(9, 10));
        assert!(StreamTrace::open("/nonexistent/redhip.trace").is_err());
    }

    /// Chunk decodes performed so far for `s`'s open file.
    fn decodes(s: &StreamTrace) -> usize {
        s.inner.chunks.lock().unwrap().decodes
    }

    /// Decoded chunks some cursor over `s`'s open file still holds.
    fn live_chunks(s: &StreamTrace) -> usize {
        let table = s.inner.chunks.lock().unwrap();
        table.live.iter().filter(|w| w.strong_count() > 0).count()
    }

    /// Drains `cursor` through 128-record refills.
    fn drain(mut cursor: StreamTrace) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        while cursor.refill(&mut out, 128) > 0 {}
        out
    }

    fn interleave(shards: u32, index: u32) -> ShardSpec {
        ShardSpec::Interleave { shards, index }
    }

    #[test]
    fn lockstep_interleave_cursors_share_each_decoded_chunk() {
        const CORES: u32 = 8;
        const CHUNK: u32 = 4096;
        let t = random_trace(11, 40_003);
        let base = StreamTrace::from_bytes(encode_v2_chunked(&t, CHUNK)).unwrap();
        let chunks = base.info().chunks as usize;
        assert!(chunks > 2, "need a multi-chunk file, got {chunks}");

        // Round-robin 128-record refills, the shape the simulator's cores
        // consume an interleave replay in.
        let mut cursors: Vec<_> = (0..CORES)
            .map(|k| base.shard(interleave(CORES, k)))
            .collect();
        let mut lockstep = vec![Vec::new(); CORES as usize];
        let mut active = true;
        while active {
            active = false;
            for (cursor, out) in cursors.iter_mut().zip(&mut lockstep) {
                active |= cursor.refill(out, 128) > 0;
                assert!(cursor.resident_records() <= CHUNK as usize);
                let live = live_chunks(&base);
                assert!(
                    live <= CORES as usize,
                    "{live} chunks live for {CORES} cursors"
                );
            }
        }
        assert_eq!(decodes(&base), chunks, "each chunk decoded exactly once");
        drop(cursors);
        assert_eq!(live_chunks(&base), 0, "chunks outlived their cursors");

        // Draining one cursor after another defeats sharing (each shard
        // re-decodes the whole file) but yields the same records.
        let sequential: Vec<_> = (0..CORES)
            .map(|k| drain(base.shard(interleave(CORES, k))))
            .collect();
        assert_eq!(decodes(&base), chunks * (1 + CORES as usize));
        assert_eq!(sequential, lockstep);
        for (k, part) in lockstep.iter().enumerate() {
            let expect: Vec<_> = t.iter().skip(k).step_by(CORES as usize).collect();
            assert_eq!(*part, expect, "shard {k}");
        }
    }

    #[test]
    fn concurrent_shards_of_one_file_match_single_threaded() {
        let t = random_trace(12, 20_011);
        let base = StreamTrace::from_bytes(encode_v2_chunked(&t, 1000)).unwrap();
        let single: Vec<_> = (0..2)
            .map(|k| drain(base.shard(interleave(2, k))))
            .collect();
        // The barrier starts both drains together, so they contend for
        // the shared chunk table over the whole file.
        let start = std::sync::Barrier::new(2);
        let threaded: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|k| {
                    let cursor = base.shard(interleave(2, k));
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        drain(cursor)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(threaded, single);
    }

    /// A 68-byte v2 file whose only chunk is a bare header, yet whose
    /// header and index both claim `u32::MAX` records.
    fn oversized_count_file() -> Vec<u8> {
        use crate::codec::{MAGIC, TAIL_MAGIC, VERSION_V2};
        let mut buf = Vec::new();
        for word in [MAGIC, VERSION_V2, 1, 0, u32::MAX, 0] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf.extend_from_slice(&16u64.to_le_bytes());
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        for word in [24, 1, u64::from(u32::MAX)] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf.extend_from_slice(&TAIL_MAGIC.to_le_bytes());
        assert_eq!(buf.len(), 68);
        buf
    }

    #[test]
    fn chunk_count_beyond_its_bytes_is_rejected_before_decoding() {
        let buf = oversized_count_file();
        assert!(matches!(
            crate::codec::decode(&buf),
            Err(crate::codec::DecodeError::BadFooter { .. })
        ));
        let tmp = TempPath::new("oversized-count");
        std::fs::write(&tmp.0, &buf).unwrap();
        assert!(StreamTrace::open(&tmp.0).is_err());
        assert!(StreamTrace::open_buffered(&tmp.0).is_err());
        assert!(StreamTrace::from_bytes(buf).is_err());
    }

    #[test]
    fn default_chunk_target_single_chunk_roundtrip() {
        let t = random_trace(10, 1000);
        let s = StreamTrace::from_bytes(encode_v2_chunked(&t, DEFAULT_CHUNK_TARGET)).unwrap();
        assert_eq!(s.info().chunks, 1);
        assert_eq!(s.collect::<Vec<_>>(), t.records());
    }
}
