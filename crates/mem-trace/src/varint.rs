//! LEB128 variable-length integers and zigzag signed mapping.
//!
//! The v2 trace codec stores per-record fields as unsigned LEB128 varints
//! over *deltas* (see [`crate::chunk`]): consecutive references usually
//! touch nearby program counters and addresses, so the common case is one
//! or two bytes instead of the fixed eight. Deltas are signed; zigzag
//! folds them into small unsigned values (0, -1, 1, -2 → 0, 1, 2, 3) so
//! LEB128 stays short for negative strides too.

/// Maximum encoded size of one `u64` varint (⌈64/7⌉ bytes).
pub const MAX_VARINT_BYTES: usize = 10;

/// Appends `v` to `out` as unsigned LEB128.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one unsigned LEB128 value starting at `buf[*pos]`, advancing
/// `*pos` past it. Returns `None` when the buffer ends mid-varint or the
/// encoding overflows 64 bits.
///
/// This is the innermost step of [`crate::chunk::decode_payload`], and it
/// must stay inline there: fat LTO kept it out of line under a plain
/// `#[inline]`, and the calls (with `pos` passed through memory) cost a
/// third of the decode. Inlined, LLVM unrolls the ten-byte loop and folds
/// the overflow check into the tenth byte. CI fails when the release
/// binary has an out-of-line copy.
#[inline(always)]
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow the 64th bit
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        // Never taken (the tenth byte returned above), but it bounds the
        // loop at ten bytes, which lets LLVM unroll it: without it the
        // decode measured 19 % slower.
        if shift > 63 {
            return None;
        }
    }
}

/// [`read_u64`] for values that are usually one or two bytes long: those
/// are decoded without a branch on their length, longer ones (and a
/// buffer ending within two bytes) by [`read_u64`], with the same result.
///
/// The chunk decoder reads program-counter deltas with it: they are one
/// or two bytes, in no order a branch predictor can learn (on the
/// interleaved milc trace, 25 % and 75 %), and a mispredicted length
/// branch costs more than decoding the second byte unconditionally.
/// Address deltas span more lengths, where the same trick measured slower.
#[inline(always)]
pub(crate) fn read_short_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let p = *pos;
    if let Some(&[b0, b1]) = buf.get(p..p + 2) {
        if b0 & b1 & 0x80 == 0 {
            // `two` is 1 when `b0` continues into `b1`, else 0.
            let two = u64::from(b0 >> 7);
            *pos = p + 1 + two as usize;
            return Some(u64::from(b0 & 0x7f) | (u64::from(b1) << 7 & two.wrapping_neg()));
        }
    }
    read_u64(buf, pos)
}

/// Maps a signed delta to an unsigned value with small magnitude:
/// 0, -1, 1, -2, 2 → 0, 1, 2, 3, 4.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        assert!(buf.len() <= MAX_VARINT_BYTES);
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), Some(v), "value {v:#x}");
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_roundtrips_edge_values() {
        for v in [
            0,
            1,
            127,
            128,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            roundtrip(v);
        }
    }

    #[test]
    fn varint_roundtrips_randomized() {
        let mut rng = crate::rng::Rng64::seed_from_u64(0x7A71);
        for _ in 0..10_000 {
            // Skew toward small values (the hot case) but cover the range.
            let shift = rng.gen_index(64) as u32;
            roundtrip(rng.next_u64() >> shift);
        }
    }

    #[test]
    fn read_rejects_truncation() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(read_u64(&buf[..cut], &mut pos), None);
        }
    }

    #[test]
    fn read_rejects_overflow() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0xffu8; 11];
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), None);
        // Ten bytes whose last asks for more than the top bit.
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), None);
    }

    #[test]
    fn read_short_matches_read_u64() {
        // Every two-byte prefix, followed by a terminator, a continuation
        // run or nothing, and every cut of each.
        for prefix in 0..=u16::MAX {
            let [b0, b1] = prefix.to_le_bytes();
            for tail in [&[][..], &[0x05], &[0x80, 0x80, 0x01], &[0xff; 9]] {
                let buf = [&[b0, b1][..], tail].concat();
                for cut in 0..=buf.len() {
                    let (mut a, mut b) = (0, 0);
                    let want = read_u64(&buf[..cut], &mut a);
                    assert_eq!(read_short_u64(&buf[..cut], &mut b), want, "{buf:02x?}");
                    if want.is_some() {
                        assert_eq!(a, b, "{buf:02x?}");
                    }
                }
            }
        }
    }

    #[test]
    fn zigzag_maps_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [0i64, 1, -1, 64, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
