//! Hash functions over block addresses.
//!
//! ReDHiP's key insight (§III-A): an "accurate" hash like xor-folding costs
//! more than it returns, because it destroys the index structure that makes
//! cheap recalibration possible. The *bits-hash* — just the low `p` bits of
//! the block address — keeps the cache set index as a substring of the PT
//! index (Figure 3), bounding per-entry conflicts by the cache
//! associativity and letting one cache set recalibrate one PT line.

/// The paper's bits-hash: the low `p` bits of the block address (i.e. the
/// low `p` address bits after the block offset has been removed).
///
/// The index mask is materialized at construction so the hash itself is a
/// single AND — the hardware's "hash" is literally wire selection, and the
/// software probe should cost the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitsHash {
    /// Index width `p` in bits.
    pub index_bits: u32,
    mask: u64,
}

impl BitsHash {
    /// Creates a bits-hash producing `index_bits`-bit indices.
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=40).contains(&index_bits), "unreasonable index width");
        Self {
            index_bits,
            mask: (1u64 << index_bits) - 1,
        }
    }

    /// Hashes a block address to a table index.
    #[inline]
    pub fn index(&self, block: u64) -> u64 {
        block & self.mask
    }

    /// Number of distinct indices.
    pub fn table_entries(&self) -> u64 {
        1 << self.index_bits
    }
}

/// Xor-folding hash used by the CBF baseline: the block address is split
/// into `index_bits`-wide chunks which are xor'ed together. A per-member
/// seed rotation yields [`FAMILY_SIZE`](Self::FAMILY_SIZE) distinct
/// functions for multi-hash filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorHash {
    /// Index width in bits.
    pub index_bits: u32,
    /// Which hash function of a multi-hash family (0-based).
    pub seed: u32,
}

impl XorHash {
    /// Members a family holds: member `seed` rotates the block by
    /// `21·seed mod 63` bits, which takes only the values 0, 21 and 42, so
    /// member 3 is member 0 again. At an index of `w < 3` bits only the
    /// first `w` members differ (rotations fold together).
    pub const FAMILY_SIZE: u32 = 3;

    /// Creates the `seed`-th xor-hash of an `index_bits`-bit family.
    pub fn new(index_bits: u32, seed: u32) -> Self {
        assert!((1..=40).contains(&index_bits), "unreasonable index width");
        Self { index_bits, seed }
    }

    /// Hashes a block address to a table index.
    #[inline]
    pub fn index(&self, block: u64) -> u64 {
        // Decorrelate the family members by rotating the input 21 bits
        // per member; the rotations repeat after `FAMILY_SIZE` members.
        let x = block.rotate_left(self.seed.wrapping_mul(21) % 63);
        let mask = (1u64 << self.index_bits) - 1;
        let mut acc = 0u64;
        let mut v = x;
        while v != 0 {
            acc ^= v & mask;
            v >>= self.index_bits;
        }
        acc
    }

    /// Number of distinct indices.
    pub fn table_entries(&self) -> u64 {
        1 << self.index_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn bits_hash_takes_low_bits() {
        let h = BitsHash::new(22);
        assert_eq!(h.index(0xffff_ffff_ffff), 0x3f_ffff);
        assert_eq!(h.index(0x40_0000), 0);
        assert_eq!(h.table_entries(), 1 << 22);
    }

    #[test]
    fn paper_figure3_set_index_is_substring() {
        // p = 22, k = 16 (64MB 16-way LLC). Two blocks colliding in the PT
        // must belong to the same cache set.
        let h = BitsHash::new(22);
        let k_mask = (1u64 << 16) - 1;
        let (a, b) = (0x1234_5678_9abcu64, 0x5678_1678_9abcu64);
        if h.index(a) == h.index(b) {
            assert_eq!(a & k_mask, b & k_mask);
        }
        // Constructive: same low 22 bits, different tags → same set.
        let base = 0x2_9abcu64 | (7 << 16);
        let other = base | (0x99u64 << 22);
        assert_eq!(h.index(base), h.index(other));
        assert_eq!(base & k_mask, other & k_mask);
    }

    #[test]
    fn xor_hash_stays_in_range_and_differs_by_seed() {
        let h0 = XorHash::new(20, 0);
        let h1 = XorHash::new(20, 1);
        let mut diff = 0;
        for i in 0..1000u64 {
            let block = i * 0x9e37_79b9;
            assert!(h0.index(block) < (1 << 20));
            if h0.index(block) != h1.index(block) {
                diff += 1;
            }
        }
        assert!(diff > 900, "hash family members too correlated: {diff}");
    }

    /// Members `a` and `b` are one function: xor-folding a rotation is
    /// linear over GF(2), so agreeing on every single-bit block means
    /// agreeing on every block.
    fn same_function(bits: u32, a: u32, b: u32) -> bool {
        let (ha, hb) = (XorHash::new(bits, a), XorHash::new(bits, b));
        (0..64).all(|i| ha.index(1 << i) == hb.index(1 << i))
    }

    #[test]
    fn family_members_are_distinct_at_every_cbf_width() {
        // A CBF of 2..=2^40 counters has a 1..=40-bit index; a w-bit one
        // tells apart its first min(w, FAMILY_SIZE) members.
        for bits in 1..=40 {
            let distinct = bits.min(XorHash::FAMILY_SIZE);
            for a in 0..distinct {
                for b in a + 1..distinct {
                    assert!(!same_function(bits, a, b), "{bits} bits: {a} = {b}");
                }
            }
            assert!(same_function(bits, 0, XorHash::FAMILY_SIZE), "{bits} bits");
        }
        assert!(same_function(1, 0, 1));
        assert!(same_function(2, 0, 2));
    }

    #[test]
    fn xor_hash_mixes_high_bits() {
        // Unlike bits-hash, xor-hash must distinguish blocks differing only
        // in high bits (most of the time).
        let h = XorHash::new(20, 0);
        let mut collide = 0;
        for t in 0..1000u64 {
            if h.index(0x1234) == h.index(0x1234 | (t + 1) << 20) {
                collide += 1;
            }
        }
        assert!(collide < 50, "xor-hash ignores high bits: {collide}");
    }

    #[test]
    fn bits_hash_collision_implies_same_set_randomized() {
        let mut st = 0x4_A540u64;
        for case in 0..4096u32 {
            let k = 4 + (case % 12);
            let p = k + 6;
            let h = BitsHash::new(p);
            // Mask to a small universe so collisions actually occur.
            let a = splitmix(&mut st) & 0xf_ffff;
            let b = splitmix(&mut st) & 0xf_ffff;
            if h.index(a) == h.index(b) {
                // Figure 3: PT index contains the set index as a substring.
                assert_eq!(a & ((1u64 << k) - 1), b & ((1u64 << k) - 1));
            }
        }
    }

    #[test]
    fn xor_hash_in_range_randomized() {
        let mut st = 0x4_A541u64;
        for case in 0..4096u32 {
            let bits = 4 + (case % 26);
            let seed = case % 4;
            let h = XorHash::new(bits, seed);
            assert!(h.index(splitmix(&mut st)) < (1u64 << bits));
        }
    }

    #[test]
    fn hashes_are_deterministic_randomized() {
        let mut st = 0x4_A542u64;
        let b = BitsHash::new(18);
        let x = XorHash::new(18, 2);
        for _ in 0..4096 {
            let block = splitmix(&mut st);
            assert_eq!(b.index(block), b.index(block));
            assert_eq!(x.index(block), x.index(block));
        }
    }
}
