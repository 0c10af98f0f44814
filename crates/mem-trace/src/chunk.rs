//! Chunk payload encoding for the v2 trace format.
//!
//! A chunk is an independently decodable run of records. Within a chunk,
//! `pc` and `addr` are stored as zigzag-varint *deltas* from the previous
//! record (the first record's delta is taken from zero, so no state leaks
//! across chunk boundaries and any chunk can be decoded after a seek).
//! The compute gap and the load/store bit share one varint:
//! `meta = gap << 1 | is_store`.
//!
//! Layout of one encoded chunk (see [`crate::codec`] for the file frame):
//!
//! ```text
//! record_count: u32 LE | raw_bytes: u32 LE | payload...
//! ```
//!
//! `raw_bytes` is the fixed-width size of the same records —
//! `record_count × 21` ([`crate::codec::RECORD_BYTES`]) — stored so
//! readers can size scratch buffers and report compression ratios
//! without decoding.

use crate::record::{MemOp, TraceRecord};
use crate::varint;

/// Bytes of the per-chunk header (`record_count`, `raw_bytes`).
pub const CHUNK_HEADER_BYTES: usize = 4 + 4;

/// Worst-case payload bytes for one record (three maximal varints).
pub const MAX_RECORD_PAYLOAD_BYTES: usize = 3 * varint::MAX_VARINT_BYTES;

/// Why a chunk payload failed to decode. The codec layer wraps this with
/// the chunk's index in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkDecodeError {
    /// Payload ended mid-record (or mid-varint).
    Truncated,
    /// A record's gap field exceeds `u32::MAX`.
    GapOverflow,
    /// Bytes left over after the promised record count.
    TrailingBytes,
}

impl std::fmt::Display for ChunkDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkDecodeError::Truncated => write!(f, "chunk payload truncated mid-record"),
            ChunkDecodeError::GapOverflow => write!(f, "record gap exceeds u32::MAX"),
            ChunkDecodeError::TrailingBytes => write!(f, "chunk payload has trailing bytes"),
        }
    }
}

impl std::error::Error for ChunkDecodeError {}

/// Appends the encoded chunk (header + payload) for `records` to `out`.
///
/// Pre-reserves the worst case for the payload up front so the hot loop
/// never reallocates mid-chunk.
pub fn encode_chunk(records: &[TraceRecord], out: &mut Vec<u8>) {
    out.reserve(CHUNK_HEADER_BYTES + records.len() * MAX_RECORD_PAYLOAD_BYTES);
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    out.extend_from_slice(&((records.len() * crate::codec::RECORD_BYTES) as u32).to_le_bytes());
    let mut prev_pc = 0u64;
    let mut prev_addr = 0u64;
    for r in records {
        varint::write_u64(out, varint::zigzag(r.pc.wrapping_sub(prev_pc) as i64));
        varint::write_u64(out, varint::zigzag(r.addr.wrapping_sub(prev_addr) as i64));
        varint::write_u64(out, (u64::from(r.gap) << 1) | u64::from(r.op.is_store()));
        prev_pc = r.pc;
        prev_addr = r.addr;
    }
}

/// Splits an encoded chunk into `(record_count, raw_bytes, payload)`.
#[inline]
pub fn split_chunk(bytes: &[u8]) -> Result<(u32, u32, &[u8]), ChunkDecodeError> {
    if bytes.len() < CHUNK_HEADER_BYTES {
        return Err(ChunkDecodeError::Truncated);
    }
    let count = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    let raw = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    Ok((count, raw, &bytes[CHUNK_HEADER_BYTES..]))
}

/// Decodes `count` records from a chunk `payload` into `out`.
///
/// `out` is *appended to*, not cleared — the caller owns the scratch
/// buffer and reuses it across chunk refills (clear + decode), so the
/// steady-state replay path performs zero per-record heap allocation.
pub fn decode_payload(
    payload: &[u8],
    count: u32,
    out: &mut Vec<TraceRecord>,
) -> Result<(), ChunkDecodeError> {
    out.reserve(count as usize);
    let mut pos = 0usize;
    let mut prev_pc = 0u64;
    let mut prev_addr = 0u64;
    for _ in 0..count {
        let dpc = varint::read_u64(payload, &mut pos).ok_or(ChunkDecodeError::Truncated)?;
        let daddr = varint::read_u64(payload, &mut pos).ok_or(ChunkDecodeError::Truncated)?;
        let meta = varint::read_u64(payload, &mut pos).ok_or(ChunkDecodeError::Truncated)?;
        let gap = meta >> 1;
        if gap > u64::from(u32::MAX) {
            return Err(ChunkDecodeError::GapOverflow);
        }
        let pc = prev_pc.wrapping_add(varint::unzigzag(dpc) as u64);
        let addr = prev_addr.wrapping_add(varint::unzigzag(daddr) as u64);
        out.push(TraceRecord {
            pc,
            addr,
            gap: gap as u32,
            op: if meta & 1 == 1 {
                MemOp::Store
            } else {
                MemOp::Load
            },
        });
        prev_pc = pc;
        prev_addr = addr;
    }
    if pos != payload.len() {
        return Err(ChunkDecodeError::TrailingBytes);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// Decodes a whole encoded chunk (header + payload) into `out`,
    /// returning the record count.
    fn decode_chunk(bytes: &[u8], out: &mut Vec<TraceRecord>) -> Result<u32, ChunkDecodeError> {
        let (count, _raw, payload) = split_chunk(bytes)?;
        decode_payload(payload, count, out)?;
        Ok(count)
    }

    fn random_records(rng: &mut Rng64, n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|_| TraceRecord {
                pc: rng.next_u64() >> rng.gen_index(64) as u32,
                addr: rng.next_u64() >> rng.gen_index(64) as u32,
                gap: (rng.next_u64() >> rng.gen_index(32) as u32) as u32,
                op: if rng.gen_bool(0.3) {
                    MemOp::Store
                } else {
                    MemOp::Load
                },
            })
            .collect()
    }

    #[test]
    fn chunk_roundtrips_randomized() {
        let mut rng = Rng64::seed_from_u64(0xC407);
        for _ in 0..64 {
            let n = rng.gen_index(300);
            let records = random_records(&mut rng, n);
            let mut buf = Vec::new();
            encode_chunk(&records, &mut buf);
            let mut back = Vec::new();
            assert_eq!(decode_chunk(&buf, &mut back), Ok(records.len() as u32));
            assert_eq!(back, records);
        }
    }

    #[test]
    fn max_delta_addresses_roundtrip() {
        // Worst-case deltas: u64 extremes back to back in both orders.
        let records: Vec<TraceRecord> = [0u64, u64::MAX, 0, 1, u64::MAX - 1, u64::MAX]
            .iter()
            .map(|&a| TraceRecord::new(a, a, MemOp::Load, u32::MAX))
            .collect();
        let mut buf = Vec::new();
        encode_chunk(&records, &mut buf);
        let mut back = Vec::new();
        decode_chunk(&buf, &mut back).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn empty_chunk_roundtrips() {
        let mut buf = Vec::new();
        encode_chunk(&[], &mut buf);
        assert_eq!(buf.len(), CHUNK_HEADER_BYTES);
        let mut back = Vec::new();
        assert_eq!(decode_chunk(&buf, &mut back), Ok(0));
        assert!(back.is_empty());
    }

    #[test]
    fn truncated_payload_is_rejected_at_every_cut() {
        let records = random_records(&mut Rng64::seed_from_u64(7), 20);
        let mut buf = Vec::new();
        encode_chunk(&records, &mut buf);
        for cut in CHUNK_HEADER_BYTES..buf.len() {
            let mut out = Vec::new();
            assert_eq!(
                decode_chunk(&buf[..cut], &mut out),
                Err(ChunkDecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_chunk(&random_records(&mut Rng64::seed_from_u64(8), 5), &mut buf);
        buf.push(0);
        let mut out = Vec::new();
        assert_eq!(
            decode_chunk(&buf, &mut out),
            Err(ChunkDecodeError::TrailingBytes)
        );
    }

    #[test]
    fn gap_overflow_is_rejected() {
        // Hand-craft a record whose meta varint decodes to gap > u32::MAX.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(crate::codec::RECORD_BYTES as u32).to_le_bytes());
        crate::varint::write_u64(&mut buf, 0); // pc delta
        crate::varint::write_u64(&mut buf, 0); // addr delta
        crate::varint::write_u64(&mut buf, (u64::from(u32::MAX) + 1) << 1);
        let mut out = Vec::new();
        assert_eq!(
            decode_chunk(&buf, &mut out),
            Err(ChunkDecodeError::GapOverflow)
        );
    }

    #[test]
    fn compresses_local_streams() {
        // A strided stream with small pc loops must beat fixed-width
        // records by a wide margin: ~3 bytes/record vs 21.
        let records: Vec<TraceRecord> = (0..10_000)
            .map(|i| TraceRecord::new(0x400 + (i % 8) * 4, 0x1000_0000 + i * 64, MemOp::Load, 3))
            .collect();
        let mut buf = Vec::new();
        encode_chunk(&records, &mut buf);
        let per_record = buf.len() as f64 / records.len() as f64;
        assert!(per_record < 6.0, "{per_record} bytes/record");
    }
}
