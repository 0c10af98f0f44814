//! Chunk-at-a-time replay of v2 trace files with bounded memory.
//!
//! [`StreamTrace`] is the one trace reader. Opening a file checks all of
//! it once — header, tail and index, then every chunk payload through
//! [`codec::decode_chunk_bytes`] into one reused scratch buffer — so a
//! damaged file is refused with a [`codec::DecodeError`] naming the chunk
//! before any record is served. After that the cursor serves records one
//! decoded chunk at a time. Steady-state replay performs **zero
//! per-record heap allocation**: the only allocation is one buffer per
//! chunk decode.
//!
//! Decoded chunks belong to the *open file*, not to a cursor. Every
//! cursor over one file (its clones and [`StreamTrace::shard`]s) looks a
//! chunk up in a shared table of weak handles before decoding it, so
//! cursors that walk the file together decode each chunk once: an 8-core
//! interleave replay, where each shard keeps 1/8 of a chunk's records,
//! decodes every chunk once instead of 8 times. A chunk is freed when the
//! last cursor leaves it. Memory stays bounded: a cursor pins at most one
//! decoded chunk (`chunk_target` records, 1.5 MiB at the default target),
//! the open file keeps one raw-chunk read buffer, and cursors in
//! lock-step share one or two decoded chunks in total, regardless of
//! trace size.
//!
//! A file is read with positioned reads (`read_exact_at`) into the open
//! file's reused raw buffer: there is no shared file cursor, so clones
//! stay independent, and no mapping, so resident memory does not grow
//! with the file. [`StreamTrace::from_bytes`] serves an owned in-memory
//! buffer through the same decode path; on non-Unix targets
//! [`StreamTrace::open`] loads the file into one.
//!
//! Cloning a `StreamTrace` (or calling [`StreamTrace::shard`]) creates an
//! independent cursor over the *same* open file and decoded-chunk table,
//! shared by every simulated core.
//!
//! A chunk read or decode that fails *after* open — the file was
//! truncated or rewritten in place — ends the failing cursor's stream
//! and records the first such error, naming the chunk, on the open file;
//! [`StreamTrace::error`] reports it. A consumer that needs the whole
//! trace (a replay, a conversion, a sweep cell) checks it after the run,
//! since a short stream is otherwise indistinguishable from a short file.
//! An in-memory trace never fails here.

use crate::codec::{
    self, ChunkMeta, TraceIoError, V2Layout, WriteSummary, HEADER_BYTES, TAIL_BYTES,
};
use crate::record::TraceRecord;
use crate::shard::ShardSpec;
use crate::TraceFeed;
use std::fs::File;
#[cfg(not(unix))]
use std::io::Read;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

/// Where the file bytes come from. One abstraction so the decode path is
/// identical for positioned reads and in-memory buffers.
#[derive(Debug)]
enum Store {
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
            Store::File { len, .. } => *len,
            Store::Mem(b) => b.len() as u64,
        }
    }

    /// Returns `len` bytes starting at `offset` — borrowed straight from
    /// an in-memory buffer, read into `scratch` from a file. `scratch`
    /// only ever grows, so steady-state reads neither allocate nor
    /// zero-fill. Callers guarantee the range lies within the file as
    /// opened (the validated layout bounds every chunk); a file that
    /// shrank since gives a short read, an `Err`.
    fn read<'a>(
        &'a self,
        offset: u64,
        len: usize,
        scratch: &'a mut Vec<u8>,
    ) -> io::Result<&'a [u8]> {
        match self {
            #[cfg(unix)]
            Store::File { file, .. } => {
                use std::os::unix::fs::FileExt;
                if scratch.len() < len {
                    scratch.resize(len, 0);
                }
                let buf = &mut scratch[..len];
                file.read_exact_at(buf, offset)?;
                Ok(buf)
            }
            Store::Mem(b) => Ok(&b[offset as usize..offset as usize + len]),
        }
    }

    fn backend(&self) -> &'static str {
        match self {
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
    /// The first chunk read or decode that failed after open.
    error: OnceLock<TraceIoError>,
}

/// Decoded chunks by index, plus the decode scratch. It holds only
/// `Weak`s and a scratch buffer that every use overwrites, so a panic
/// mid-decode leaves nothing inconsistent and a poisoned lock is safe to
/// re-enter.
#[derive(Debug, Default)]
struct ChunkTable {
    /// One entry per chunk; upgrades while some cursor holds the chunk.
    live: Vec<Weak<Vec<TraceRecord>>>,
    /// Raw-byte scratch for positioned reads.
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
    /// Bytes the same records would occupy at fixed width
    /// ([`codec::RECORD_BYTES`] each).
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
    /// Opens `path` and checks every chunk of it (see the module docs).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceIoError> {
        let path = path.as_ref();
        let file = File::open(path)?;
        #[cfg(unix)]
        let store = Store::File {
            len: file.metadata()?.len(),
            file,
        };
        #[cfg(not(unix))]
        let store = {
            let mut buf = Vec::new();
            (&file).read_to_end(&mut buf)?;
            Store::Mem(buf)
        };
        Self::from_store(store, Some(path.to_path_buf()))
    }

    /// Wraps an in-memory v2 buffer (tests, benches, pipes).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TraceIoError> {
        Self::from_store(Store::Mem(bytes), None)
    }

    fn from_store(store: Store, path: Option<PathBuf>) -> Result<Self, TraceIoError> {
        let layout = load_layout(&store)?;
        check_payloads(&store, &layout)?;
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
            error: OnceLock::new(),
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
    /// window. The file handle and the decoded chunks are shared; the
    /// read position is per-cursor.
    pub fn shard(&self, spec: ShardSpec) -> StreamTrace {
        Self::cursor(Arc::clone(&self.inner), spec)
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

    /// Which backend serves the bytes: `"pread"` (a file) or `"mem"`.
    pub fn backend(&self) -> &'static str {
        self.inner.store.backend()
    }

    /// The first chunk read or decode that failed after open, on any
    /// cursor over this file; `None` while every read has succeeded.
    /// A cursor that hits such a failure ends its stream early.
    pub fn error(&self) -> Option<&TraceIoError> {
        self.inner.error.get()
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
    /// publishing) it otherwise. `g` must be `< total_records`. Returns
    /// false, with the cursor ended and the error recorded, when the
    /// chunk cannot be read or decoded.
    #[cold]
    fn load_chunk_containing(&mut self, g: u64) -> bool {
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
                let mut decoded = Vec::new();
                let table = &mut *table;
                let read = decode_chunk_into(
                    &inner.store,
                    &inner.layout,
                    idx,
                    &mut table.raw,
                    &mut decoded,
                );
                if let Err(e) = read {
                    // Only the first failure is kept; later ones repeat it.
                    let _ = inner.error.set(e);
                    self.end = self.next_global;
                    self.decoded = Chunk::default();
                    return false;
                }
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
        true
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
        if !self.resident(g) && !self.load_chunk_containing(g) {
            return None;
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
                if !self.load_chunk_containing(g) {
                    break;
                }
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
/// bounded reads of the file's edges.
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

/// Reads chunk `idx` through `raw` and decodes it into `out` (appended).
/// A failed read names the chunk, as a failed decode already does.
fn decode_chunk_into(
    store: &Store,
    layout: &V2Layout,
    idx: usize,
    raw: &mut Vec<u8>,
    out: &mut Vec<TraceRecord>,
) -> Result<(), TraceIoError> {
    let meta: &ChunkMeta = &layout.chunks[idx];
    let bytes = store
        .read(meta.offset, meta.bytes as usize, raw)
        .map_err(|e| io::Error::new(e.kind(), format!("reading chunk {idx}: {e}")))?;
    Ok(codec::decode_chunk_bytes(bytes, idx as u64, meta, out)?)
}

/// Decodes every chunk once, through one reused scratch buffer, so that a
/// damaged payload is an error at open instead of a short replay.
fn check_payloads(store: &Store, layout: &V2Layout) -> Result<(), TraceIoError> {
    let mut raw = Vec::new();
    let mut scratch = Vec::new();
    for idx in 0..layout.chunks.len() {
        scratch.clear();
        decode_chunk_into(store, layout, idx, &mut raw, &mut scratch)?;
    }
    Ok(())
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
    use crate::codec::{encode_v2_chunked, DecodeError, DEFAULT_CHUNK_TARGET};
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

    fn random_trace(seed: u64, len: usize) -> Vec<TraceRecord> {
        let mut rng = Rng64::seed_from_u64(seed);
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
            .collect()
    }

    #[test]
    fn streams_from_memory_buffer() {
        let t = random_trace(1, 3000);
        let s = StreamTrace::from_bytes(encode_v2_chunked(&t, 128)).unwrap();
        assert_eq!(s.total_records(), 3000);
        assert_eq!(s.len(), 3000);
        let back: Vec<_> = s.collect();
        assert_eq!(back, t);
    }

    #[test]
    fn streams_from_file_like_from_memory() {
        let t = random_trace(2, 5000);
        let tmp = TempPath::new("file");
        write_v2_file(&tmp.0, t.iter().copied(), 512).unwrap();
        let s = StreamTrace::open(&tmp.0).unwrap();
        assert_eq!(s.total_records(), 5000);
        #[cfg(unix)]
        assert_eq!(s.backend(), "pread");
        let mem = StreamTrace::from_bytes(std::fs::read(&tmp.0).unwrap()).unwrap();
        assert_eq!(mem.backend(), "mem");
        assert_eq!(s.clone().collect::<Vec<_>>(), t);
        assert_eq!(drain(s), drain(mem));
    }

    #[test]
    fn write_summary_matches_file() {
        let t = random_trace(3, 1000);
        let tmp = TempPath::new("summary");
        let summary = write_v2_file(&tmp.0, t.iter().copied(), 300).unwrap();
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
        assert_eq!(rebuilt, t);
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
        assert_eq!(rebuilt, t);
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
        assert_eq!(fresh, t);
        assert_eq!(s.remaining(), 500);
    }

    #[test]
    fn empty_trace_streams_empty() {
        let s = StreamTrace::from_bytes(encode_v2_chunked(&[], 8)).unwrap();
        assert_eq!(s.total_records(), 0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn open_rejects_retired_version_and_missing_files() {
        // A version-1 (fixed-width) file: 16-byte header + one record.
        let mut v1 = Vec::new();
        v1.extend_from_slice(&codec::MAGIC.to_le_bytes());
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&1u64.to_le_bytes());
        v1.extend_from_slice(&[0u8; codec::RECORD_BYTES]);
        let tmp = TempPath::new("v1");
        std::fs::write(&tmp.0, &v1).unwrap();
        assert!(matches!(
            StreamTrace::open(&tmp.0),
            Err(TraceIoError::Decode(DecodeError::BadVersion(1)))
        ));
        assert!(StreamTrace::open("/nonexistent/redhip.trace").is_err());
    }

    #[test]
    fn layout_reports_chunks_and_their_starts() {
        let s = StreamTrace::from_bytes(encode_v2_chunked(&random_trace(3, 1000), 256)).unwrap();
        let layout = &s.inner.layout;
        assert_eq!(layout.chunks.len(), 4);
        assert_eq!(layout.total_records, 1000);
        assert_eq!(layout.chunk_target, 256);
        assert_eq!(layout.cumulative_starts(), vec![0, 256, 512, 768, 1000]);
    }

    #[test]
    fn damaged_payload_is_refused_at_open_naming_the_chunk() {
        let t = random_trace(13, 2000);
        let mut buf = encode_v2_chunked(&t, 500);
        let layout = StreamTrace::from_bytes(buf.clone())
            .unwrap()
            .inner
            .layout
            .clone();
        // Invert the middle of chunk 2's payload; header, index and tail
        // stay intact, so only a payload check can notice.
        let c = layout.chunks[2];
        let mid = (c.offset + u64::from(c.bytes) / 2) as usize;
        buf[mid..mid + 40].iter_mut().for_each(|b| *b = !*b);
        let tmp = TempPath::new("damaged");
        std::fs::write(&tmp.0, &buf).unwrap();
        for opened in [StreamTrace::from_bytes(buf), StreamTrace::open(&tmp.0)] {
            match opened {
                Err(TraceIoError::Decode(e @ DecodeError::BadChunk { chunk: 2, .. })) => {
                    assert!(e.to_string().contains("chunk 2"), "{e}");
                }
                other => panic!("expected chunk 2 to be refused, got {other:?}"),
            }
        }
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
            let expect: Vec<_> = t.iter().copied().skip(k).step_by(CORES as usize).collect();
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
        let tmp = TempPath::new("oversized-count");
        std::fs::write(&tmp.0, &buf).unwrap();
        assert!(StreamTrace::open(&tmp.0).is_err());
        assert!(matches!(
            StreamTrace::from_bytes(buf),
            Err(TraceIoError::Decode(DecodeError::BadFooter { .. }))
        ));
    }

    /// A 100 000-record file at 4096 records per chunk, opened, then cut
    /// to half its length: the reads of the second half come up short.
    #[cfg(unix)]
    fn halved_after_open(tag: &str) -> (TempPath, StreamTrace, Vec<TraceRecord>) {
        let t = random_trace(14, 100_000);
        let tmp = TempPath::new(tag);
        write_v2_file(&tmp.0, t.iter().copied(), 4096).unwrap();
        let s = StreamTrace::open(&tmp.0).unwrap();
        let len = std::fs::metadata(&tmp.0).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&tmp.0)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        (tmp, s, t)
    }

    /// The stream a cursor over a halved file served: a prefix of the
    /// records, cut at a chunk boundary, with the first failed chunk
    /// named in the file's error.
    #[cfg(unix)]
    fn assert_cut_short(s: &StreamTrace, got: &[TraceRecord], t: &[TraceRecord]) {
        assert!(
            got.len() < t.len() && !got.is_empty(),
            "{} records",
            got.len()
        );
        assert_eq!(got, &t[..got.len()]);
        assert_eq!(got.len() % 4096, 0, "stopped inside a chunk");
        let chunk = got.len() / 4096;
        let err = s.error().expect("the failed read is recorded").to_string();
        assert!(err.contains(&format!("chunk {chunk}")), "{err}");
    }

    #[cfg(unix)]
    #[test]
    fn file_truncated_after_open_ends_the_stream_with_an_error() {
        // By iteration.
        let (_tmp, s, t) = halved_after_open("cut-iter");
        assert!(s.error().is_none());
        let mut cursor = s.clone();
        let got: Vec<_> = cursor.by_ref().collect();
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(cursor.next(), None, "an ended cursor stays ended");
        assert_cut_short(&s, &got, &t);

        // By refill, on a fresh open of another halved file.
        let (_tmp, s, t) = halved_after_open("cut-refill");
        let got = drain(s.clone());
        assert_cut_short(&s, &got, &t);
        // A later failure on another cursor keeps the first error.
        let first = s.error().unwrap().to_string();
        let again = drain(s.shard(interleave(2, 1)));
        assert!(again.len() < t.len() / 2);
        assert_eq!(s.error().unwrap().to_string(), first);
    }

    #[test]
    fn default_chunk_target_single_chunk_roundtrip() {
        let t = random_trace(10, 1000);
        let s = StreamTrace::from_bytes(encode_v2_chunked(&t, DEFAULT_CHUNK_TARGET)).unwrap();
        assert_eq!(s.info().chunks, 1);
        assert_eq!(s.collect::<Vec<_>>(), t);
    }
}
