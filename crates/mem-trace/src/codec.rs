//! The binary on-disk trace format (version 2).
//!
//! A trace file is a run of fixed-target *chunks* of delta-encoded LEB128
//! varint records (see [`crate::chunk`]) framed by a 16-byte header and a
//! seekable chunk-index footer, so a reader can decode one chunk at a
//! time into a reusable scratch buffer ([`crate::stream::StreamTrace`],
//! the one reader) or seek straight to a record range ([`crate::shard`]).
//! Writers stream: [`ChunkWriter`] never buffers more than one chunk, and
//! the index + tail land at the *end* of the file, so no seek-back
//! patching is needed and the sink can be a pipe.
//!
//! ```text
//! file    := header | chunk* | index | tail
//! header  := magic: u32 | version: u32 = 2 | chunk_target: u32 | reserved: u32
//! chunk   := record_count: u32 | raw_bytes: u32 | delta-varint payload
//! index   := { offset: u64 | bytes: u32 | count: u32 }  × chunk_count
//! tail    := index_offset: u64 | chunk_count: u64 | total_records: u64
//!            | tail_magic: u32
//! ```
//!
//! Any other version field — including 1, the retired fixed-width
//! format — is rejected with [`DecodeError::BadVersion`].

use crate::chunk::{self, ChunkDecodeError};
use crate::record::TraceRecord;
use std::io::{self, Write};

/// File magic: "RDHP".
pub const MAGIC: u32 = 0x5244_4850;
/// The chunked, delta-compressed, seekable format: the only version.
pub const VERSION_V2: u32 = 2;
/// Bytes of one record at fixed width (`pc: u64`, `addr: u64`,
/// `gap: u32`, `op: u8`): the "uncompressed size" unit chunk headers
/// report in `raw_bytes`.
pub const RECORD_BYTES: usize = 8 + 8 + 4 + 1;
/// Bytes of the file header; the version field lives at bytes 4..8.
pub const HEADER_BYTES: usize = 4 + 4 + 8;
/// Bytes of one v2 chunk-index entry.
pub const INDEX_ENTRY_BYTES: usize = 8 + 4 + 4;
/// Bytes of the v2 tail (fixed size, read from the end of the file).
pub const TAIL_BYTES: usize = 8 + 8 + 8 + 4;
/// v2 tail magic: "RIDX".
pub const TAIL_MAGIC: u32 = 0x5249_4458;
/// Default records per chunk: 65 536 records × 24 B = 1.5 MiB decoded,
/// the bound on a streaming reader's resident memory per cursor.
pub const DEFAULT_CHUNK_TARGET: u32 = 1 << 16;

/// Errors produced while reading a trace file's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer shorter than a full header.
    TruncatedHeader,
    /// Magic number mismatch.
    BadMagic(u32),
    /// Unsupported format version.
    BadVersion(u32),
    /// v2: buffer ends before a full tail.
    TruncatedTail,
    /// v2: tail magic mismatch (file truncated or not a v2 trace).
    BadTailMagic(u32),
    /// v2: the chunk index is structurally inconsistent with the file.
    BadFooter {
        /// What was violated.
        reason: &'static str,
    },
    /// v2: a chunk's bytes failed to decode.
    BadChunk {
        /// Index of the chunk within the file.
        chunk: u64,
        /// The payload-level failure.
        kind: ChunkDecodeError,
    },
    /// v2: a chunk's own header disagrees with the index entry.
    ChunkCountMismatch {
        /// Index of the chunk within the file.
        chunk: u64,
        /// Count in the chunk header.
        header: u32,
        /// Count in the index entry.
        index: u32,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::TruncatedHeader => write!(f, "trace buffer shorter than header"),
            DecodeError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::TruncatedTail => write!(f, "v2 trace shorter than its fixed tail"),
            DecodeError::BadTailMagic(m) => {
                write!(f, "bad v2 tail magic 0x{m:08x} (file truncated?)")
            }
            DecodeError::BadFooter { reason } => write!(f, "bad v2 chunk index: {reason}"),
            DecodeError::BadChunk { chunk, kind } => {
                write!(f, "chunk {chunk} failed to decode: {kind}")
            }
            DecodeError::ChunkCountMismatch {
                chunk,
                header,
                index,
            } => {
                write!(
                    f,
                    "chunk {chunk}: header says {header} records, index says {index}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            // The payload-level cause is preserved so callers can walk the
            // chain (`anyhow`-style reporting) instead of string-matching.
            DecodeError::BadChunk { kind, .. } => Some(kind),
            _ => None,
        }
    }
}

/// An I/O or decode failure while reading a trace file. Unlike
/// [`DecodeError`] (pure, comparable) this wraps `std::io::Error`, so it
/// is neither `Clone` nor `PartialEq`; both variants chain their cause
/// through [`std::error::Error::source`].
#[derive(Debug)]
pub enum TraceIoError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The bytes were read but did not parse.
    Decode(DecodeError),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace file I/O failed: {e}"),
            TraceIoError::Decode(e) => write!(f, "trace file malformed: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Decode(e) => Some(e),
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<DecodeError> for TraceIoError {
    fn from(e: DecodeError) -> Self {
        TraceIoError::Decode(e)
    }
}

/// Little-endian field reads over a cursor; callers check the buffer
/// length first, so these only ever see complete fields.
#[inline]
fn read_u32(buf: &[u8], pos: &mut usize) -> u32 {
    let v = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().expect("4 bytes"));
    *pos += 4;
    v
}

#[inline]
fn read_u64(buf: &[u8], pos: &mut usize) -> u64 {
    let v = u64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8 bytes"));
    *pos += 8;
    v
}

/// One v2 chunk as described by the index footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Byte offset of the chunk (header included) from the file start.
    pub offset: u64,
    /// Encoded bytes of the chunk (header included).
    pub bytes: u32,
    /// Records in the chunk.
    pub count: u32,
}

/// The parsed v2 tail plus chunk index: everything a seekable reader
/// needs to locate and bound every chunk without touching the payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct V2Layout {
    /// Writer's records-per-chunk target (scratch sizing hint).
    pub chunk_target: u32,
    /// Total records across all chunks.
    pub total_records: u64,
    /// Byte offset of the index footer.
    pub index_offset: u64,
    /// Per-chunk metadata, in file order.
    pub chunks: Vec<ChunkMeta>,
}

impl V2Layout {
    /// Global record index at which each chunk starts; one extra entry at
    /// the end equal to `total_records`. This is what lets a range shard
    /// seek straight to its first chunk.
    pub fn cumulative_starts(&self) -> Vec<u64> {
        let mut cum = Vec::with_capacity(self.chunks.len() + 1);
        let mut total = 0u64;
        for c in &self.chunks {
            cum.push(total);
            total += u64::from(c.count);
        }
        cum.push(total);
        cum
    }
}

/// Validates a v2 header prefix (`buf` must hold at least the first 16
/// bytes of the file) and returns the writer's chunk target.
pub fn parse_v2_header(buf: &[u8]) -> Result<u32, DecodeError> {
    if buf.len() < HEADER_BYTES {
        return Err(DecodeError::TruncatedHeader);
    }
    let mut pos = 0;
    let magic = read_u32(buf, &mut pos);
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = read_u32(buf, &mut pos);
    if version != VERSION_V2 {
        return Err(DecodeError::BadVersion(version));
    }
    Ok(read_u32(buf, &mut pos))
}

/// Parsed fixed-size tail, before the index itself is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V2Tail {
    /// Byte offset of the index footer.
    pub index_offset: u64,
    /// Number of chunks (and index entries).
    pub chunk_count: u64,
    /// Total records across all chunks.
    pub total_records: u64,
}

/// Validates the fixed-size tail (`tail` = the last [`TAIL_BYTES`] of the
/// file, `file_len` = total file size) and bounds-checks the index region.
pub fn parse_v2_tail(file_len: u64, tail: &[u8]) -> Result<V2Tail, DecodeError> {
    if tail.len() < TAIL_BYTES || file_len < (HEADER_BYTES + TAIL_BYTES) as u64 {
        return Err(DecodeError::TruncatedTail);
    }
    let tail = &tail[tail.len() - TAIL_BYTES..];
    let mut pos = 0;
    let index_offset = read_u64(tail, &mut pos);
    let chunk_count = read_u64(tail, &mut pos);
    let total_records = read_u64(tail, &mut pos);
    let magic = read_u32(tail, &mut pos);
    if magic != TAIL_MAGIC {
        return Err(DecodeError::BadTailMagic(magic));
    }
    let index_bytes =
        chunk_count
            .checked_mul(INDEX_ENTRY_BYTES as u64)
            .ok_or(DecodeError::BadFooter {
                reason: "chunk count overflows the index size",
            })?;
    if index_offset < HEADER_BYTES as u64
        || index_offset
            .checked_add(index_bytes)
            .and_then(|end| end.checked_add(TAIL_BYTES as u64))
            != Some(file_len)
    {
        return Err(DecodeError::BadFooter {
            reason: "index region does not fit between header and tail",
        });
    }
    Ok(V2Tail {
        index_offset,
        chunk_count,
        total_records,
    })
}

/// Parses and validates the index region (`index` = the bytes between
/// `tail.index_offset` and the tail): chunks must tile the byte range
/// `[HEADER_BYTES, index_offset)` exactly, in order, each must hold at
/// least three payload bytes per record, and their record counts must sum
/// to `total_records`.
pub fn parse_v2_index(tail: &V2Tail, index: &[u8]) -> Result<V2Layout, DecodeError> {
    if index.len() as u64 != tail.chunk_count * INDEX_ENTRY_BYTES as u64 {
        return Err(DecodeError::BadFooter {
            reason: "index region size mismatch",
        });
    }
    let mut chunks = Vec::with_capacity(tail.chunk_count as usize);
    let mut pos = 0usize;
    let mut expect_offset = HEADER_BYTES as u64;
    let mut total = 0u64;
    for _ in 0..tail.chunk_count {
        let offset = read_u64(index, &mut pos);
        let bytes = read_u32(index, &mut pos);
        let count = read_u32(index, &mut pos);
        if offset != expect_offset {
            return Err(DecodeError::BadFooter {
                reason: "chunks do not tile the payload region",
            });
        }
        if (bytes as usize) < chunk::CHUNK_HEADER_BYTES {
            return Err(DecodeError::BadFooter {
                reason: "chunk smaller than its header",
            });
        }
        // Every record takes at least three varint bytes, so a larger
        // count is corrupt; rejecting it here bounds what decoders reserve.
        if count as usize > (bytes as usize - chunk::CHUNK_HEADER_BYTES) / 3 {
            return Err(DecodeError::BadFooter {
                reason: "chunk record count exceeds its payload bytes",
            });
        }
        expect_offset += u64::from(bytes);
        total += u64::from(count);
        chunks.push(ChunkMeta {
            offset,
            bytes,
            count,
        });
    }
    if expect_offset != tail.index_offset {
        return Err(DecodeError::BadFooter {
            reason: "chunks do not reach the index footer",
        });
    }
    if total != tail.total_records {
        return Err(DecodeError::BadFooter {
            reason: "chunk record counts do not sum to the total",
        });
    }
    Ok(V2Layout {
        chunk_target: 0, // caller fills from the header
        total_records: tail.total_records,
        index_offset: tail.index_offset,
        chunks,
    })
}

/// Decodes the bytes of one chunk (wherever they came from — a positioned
/// read or an in-memory buffer) into `out`, appended, cross-checking the
/// chunk header against its index entry. This is the one decode path;
/// [`crate::stream::StreamTrace`] calls it.
pub fn decode_chunk_bytes(
    bytes: &[u8],
    chunk_idx: u64,
    meta: &ChunkMeta,
    out: &mut Vec<TraceRecord>,
) -> Result<(), DecodeError> {
    let (count, _raw, payload) =
        chunk::split_chunk(bytes).map_err(|kind| DecodeError::BadChunk {
            chunk: chunk_idx,
            kind,
        })?;
    if count != meta.count {
        return Err(DecodeError::ChunkCountMismatch {
            chunk: chunk_idx,
            header: count,
            index: meta.count,
        });
    }
    chunk::decode_payload(payload, count, out).map_err(|kind| DecodeError::BadChunk {
        chunk: chunk_idx,
        kind,
    })
}

/// Streaming v2 encoder: push records, get chunked output on any
/// [`Write`] sink. Buffers at most one chunk of records, so encoding a
/// paper-scale trace needs chunk-sized memory, not O(trace).
#[derive(Debug)]
pub struct ChunkWriter<W: Write> {
    sink: W,
    chunk_target: u32,
    pending: Vec<TraceRecord>,
    encode_buf: Vec<u8>,
    index: Vec<ChunkMeta>,
    offset: u64,
    total: u64,
}

/// What [`ChunkWriter::finish`] wrote, for logging and `trace info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSummary {
    /// Records written.
    pub records: u64,
    /// Chunks written.
    pub chunks: u64,
    /// Total file bytes, header/index/tail included.
    pub file_bytes: u64,
}

impl<W: Write> ChunkWriter<W> {
    /// Starts a v2 stream on `sink` with the default chunk target.
    pub fn new(sink: W) -> io::Result<Self> {
        Self::with_chunk_target(sink, DEFAULT_CHUNK_TARGET)
    }

    /// Starts a v2 stream with `chunk_target` records per chunk (clamped
    /// to at least 1). Smaller chunks seek finer and cap reader memory
    /// lower; larger chunks amortize framing better. Up front it reserves
    /// at most [`DEFAULT_CHUNK_TARGET`] records; a larger chunk grows as
    /// records arrive, so an oversized target costs nothing until used.
    pub fn with_chunk_target(mut sink: W, chunk_target: u32) -> io::Result<Self> {
        let chunk_target = chunk_target.max(1);
        let mut header = [0u8; HEADER_BYTES];
        header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        header[4..8].copy_from_slice(&VERSION_V2.to_le_bytes());
        header[8..12].copy_from_slice(&chunk_target.to_le_bytes());
        sink.write_all(&header)?;
        Ok(Self {
            sink,
            chunk_target,
            pending: Vec::with_capacity(chunk_target.min(DEFAULT_CHUNK_TARGET) as usize),
            encode_buf: Vec::new(),
            index: Vec::new(),
            offset: HEADER_BYTES as u64,
            total: 0,
        })
    }

    /// Appends one record, flushing a chunk when the target is reached.
    #[inline]
    pub fn push(&mut self, record: TraceRecord) -> io::Result<()> {
        self.pending.push(record);
        if self.pending.len() >= self.chunk_target as usize {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends every record of `source`.
    pub fn push_all(&mut self, source: impl Iterator<Item = TraceRecord>) -> io::Result<()> {
        for r in source {
            self.push(r)?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.encode_buf.clear();
        chunk::encode_chunk(&self.pending, &mut self.encode_buf);
        self.sink.write_all(&self.encode_buf)?;
        self.index.push(ChunkMeta {
            offset: self.offset,
            bytes: self.encode_buf.len() as u32,
            count: self.pending.len() as u32,
        });
        self.offset += self.encode_buf.len() as u64;
        self.total += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Flushes the final partial chunk, writes the index and tail, and
    /// returns the sink and a summary.
    pub fn finish(mut self) -> io::Result<(W, WriteSummary)> {
        self.flush_chunk()?;
        let index_offset = self.offset;
        let mut footer = Vec::with_capacity(self.index.len() * INDEX_ENTRY_BYTES + TAIL_BYTES);
        for c in &self.index {
            footer.extend_from_slice(&c.offset.to_le_bytes());
            footer.extend_from_slice(&c.bytes.to_le_bytes());
            footer.extend_from_slice(&c.count.to_le_bytes());
        }
        footer.extend_from_slice(&index_offset.to_le_bytes());
        footer.extend_from_slice(&(self.index.len() as u64).to_le_bytes());
        footer.extend_from_slice(&self.total.to_le_bytes());
        footer.extend_from_slice(&TAIL_MAGIC.to_le_bytes());
        self.sink.write_all(&footer)?;
        self.sink.flush()?;
        let summary = WriteSummary {
            records: self.total,
            chunks: self.index.len() as u64,
            file_bytes: index_offset + footer.len() as u64,
        };
        Ok((self.sink, summary))
    }
}

/// Encodes records into a freshly allocated v2 buffer.
pub fn encode_v2(trace: &[TraceRecord]) -> Vec<u8> {
    encode_v2_chunked(trace, DEFAULT_CHUNK_TARGET)
}

/// [`encode_v2`] with an explicit chunk target (tests use tiny chunks to
/// exercise many-chunk layouts cheaply).
pub fn encode_v2_chunked(trace: &[TraceRecord], chunk_target: u32) -> Vec<u8> {
    // Pre-reserve from the size hint: ~8 payload bytes/record in practice
    // plus framing; Vec growth from there is a single doubling at worst.
    let sink = Vec::with_capacity(HEADER_BYTES + TAIL_BYTES + trace.len() * 8);
    let mut w = ChunkWriter::with_chunk_target(sink, chunk_target).expect("Vec sink cannot fail");
    w.push_all(trace.iter().copied())
        .expect("Vec sink cannot fail");
    let (buf, _) = w.finish().expect("Vec sink cannot fail");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MemOp;
    use crate::stream::StreamTrace;

    fn sample_trace() -> Vec<TraceRecord> {
        vec![
            TraceRecord::new(0x400123, 0x7fff_0000, MemOp::Load, 3),
            TraceRecord::new(0x400321, 0x7fff_0040, MemOp::Store, 0),
            TraceRecord::new(0x400999, u64::MAX, MemOp::Load, u32::MAX),
        ]
    }

    fn random_trace(rng: &mut crate::rng::Rng64, len: usize) -> Vec<TraceRecord> {
        (0..len)
            .map(|_| {
                TraceRecord::new(
                    rng.next_u64() >> (rng.next_u64() % 64),
                    rng.next_u64() >> (rng.next_u64() % 64),
                    if rng.gen_bool(0.5) {
                        MemOp::Store
                    } else {
                        MemOp::Load
                    },
                    rng.next_u64() as u32,
                )
            })
            .collect()
    }

    /// Reads a whole buffer through the one reader.
    fn read(buf: &[u8]) -> Result<Vec<TraceRecord>, DecodeError> {
        match StreamTrace::from_bytes(buf.to_vec()) {
            Ok(s) => Ok(s.collect()),
            Err(TraceIoError::Decode(e)) => Err(e),
            Err(TraceIoError::Io(e)) => panic!("in-memory read failed: {e}"),
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let v2 = encode_v2(&[]);
        assert_eq!(v2.len(), HEADER_BYTES + TAIL_BYTES);
        assert!(read(&v2).unwrap().is_empty());
    }

    #[test]
    fn rejects_short_header() {
        assert_eq!(read(&[0u8; 3]), Err(DecodeError::TruncatedHeader));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut b = encode_v2(&sample_trace());
        b[0] ^= 0xff;
        assert!(matches!(read(&b), Err(DecodeError::BadMagic(_))));
    }

    #[test]
    fn rejects_bad_version() {
        // 1 is the retired fixed-width format.
        for version in [1u8, 0x7f] {
            let mut b = encode_v2(&sample_trace());
            b[4] = version;
            assert_eq!(read(&b), Err(DecodeError::BadVersion(version.into())));
        }
    }

    #[test]
    fn decode_error_display_is_informative() {
        let msg = DecodeError::ChunkCountMismatch {
            chunk: 5,
            header: 7,
            index: 1,
        }
        .to_string();
        assert!(msg.contains("chunk 5") && msg.contains('7') && msg.contains('1'));
    }

    #[test]
    fn v2_roundtrip_randomized_gaps_and_addresses() {
        // Property test: random gaps (full u32 range) and addresses with
        // max-delta jumps must survive encode → decode bit-exactly, at
        // several chunk sizes including mid-chunk ends.
        let mut rng = crate::rng::Rng64::seed_from_u64(0xC0DEC);
        for case in 0..128 {
            let len = rng.gen_index(500);
            let t = random_trace(&mut rng, len);
            for chunk_target in [1, 7, 64, DEFAULT_CHUNK_TARGET] {
                let back = read(&encode_v2_chunked(&t, chunk_target)).unwrap();
                assert_eq!(back, t, "case {case} chunk {chunk_target}");
            }
        }
    }

    #[test]
    fn v2_is_denser_than_fixed_width_records() {
        let t: Vec<TraceRecord> = (0..50_000u64)
            .map(|i| TraceRecord::new(0x400 + (i % 16) * 4, i * 64, MemOp::Load, 2))
            .collect();
        let fixed = t.len() * RECORD_BYTES;
        let v2 = encode_v2(&t).len();
        assert!(
            (v2 as f64) < fixed as f64 * 0.35,
            "v2 {v2} bytes vs fixed-width {fixed} bytes"
        );
    }

    #[test]
    fn v2_rejects_truncated_tail() {
        let buf = encode_v2(&sample_trace());
        for cut in [buf.len() - 1, buf.len() - TAIL_BYTES, HEADER_BYTES + 1] {
            let r = read(&buf[..cut]);
            assert!(r.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn v2_rejects_bad_tail_magic() {
        let mut buf = encode_v2(&sample_trace());
        let n = buf.len();
        buf[n - 1] ^= 0xff;
        assert!(matches!(read(&buf), Err(DecodeError::BadTailMagic(_))));
    }

    #[test]
    fn v2_rejects_corrupt_index() {
        let t = sample_trace();
        let mut buf = encode_v2_chunked(&t, 2);
        // Flip a byte of the first index entry's offset field.
        let tail = buf.len() - TAIL_BYTES;
        let index_offset = u64::from_le_bytes(buf[tail..tail + 8].try_into().unwrap());
        buf[index_offset as usize] ^= 0xff;
        assert!(matches!(read(&buf), Err(DecodeError::BadFooter { .. })));
    }

    #[test]
    fn v2_rejects_corrupt_chunk_payload() {
        let t: Vec<TraceRecord> = (0..100u64)
            .map(|i| TraceRecord::new(i, u64::MAX - i * (1 << 40), MemOp::Load, 1))
            .collect();
        let mut buf = encode_v2_chunked(&t, 50);
        // Truncating inside the last chunk breaks the tile invariant, so
        // corrupt a count instead: chunk header count != index count.
        buf[HEADER_BYTES] ^= 0x01;
        let r = read(&buf);
        assert!(
            matches!(
                r,
                Err(DecodeError::ChunkCountMismatch { .. }) | Err(DecodeError::BadChunk { .. })
            ),
            "{r:?}"
        );
    }

    #[test]
    fn error_source_chain_reaches_the_chunk_cause() {
        use std::error::Error;
        let e = DecodeError::BadChunk {
            chunk: 3,
            kind: ChunkDecodeError::Truncated,
        };
        let src = e.source().expect("chunk errors chain their cause");
        assert_eq!(src.to_string(), ChunkDecodeError::Truncated.to_string());
        let io_e = TraceIoError::from(e.clone());
        assert!(io_e.source().unwrap().source().is_some());
        let io2 = TraceIoError::from(io::Error::other("x"));
        assert!(io2.source().is_some());
    }

    #[test]
    fn chunk_writer_streams_without_buffering_the_trace() {
        let mut rng = crate::rng::Rng64::seed_from_u64(9);
        let t = random_trace(&mut rng, 10_000);
        let mut w = ChunkWriter::with_chunk_target(Vec::new(), 128).unwrap();
        for &r in &t {
            w.push(r).unwrap();
            // The writer never holds more than one chunk of records.
            assert!(w.pending.len() <= 128);
        }
        let (buf, summary) = w.finish().unwrap();
        assert_eq!(summary.records, 10_000);
        assert_eq!(summary.chunks, 10_000u64.div_ceil(128));
        assert_eq!(summary.file_bytes, buf.len() as u64);
        assert_eq!(read(&buf).unwrap(), t);
    }

    #[test]
    fn largest_chunk_target_reserves_only_what_arrives() {
        let mut rng = crate::rng::Rng64::seed_from_u64(10);
        let t = random_trace(&mut rng, 5);
        let mut w = ChunkWriter::with_chunk_target(Vec::new(), u32::MAX).unwrap();
        assert!(w.pending.capacity() <= DEFAULT_CHUNK_TARGET as usize);
        w.push_all(t.iter().copied()).unwrap();
        let (buf, summary) = w.finish().unwrap();
        assert_eq!((summary.records, summary.chunks), (5, 1));
        assert_eq!(read(&buf).unwrap(), t);
    }
}
