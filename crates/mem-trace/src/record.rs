//! The fundamental trace record type.

use minijson::{json, Json, ToJson};

/// Kind of memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// A data load (read).
    Load,
    /// A data store (write). Stores mark the cached block dirty, which later
    /// charges a writeback access at the next level on eviction.
    Store,
}

impl MemOp {
    /// True for [`MemOp::Store`].
    pub fn is_store(self) -> bool {
        matches!(self, MemOp::Store)
    }
}

/// One memory reference as collected by the (simulated) instrumentation.
///
/// Mirrors what the paper's pintool records: the referencing instruction's
/// address (needed by the PC-indexed stride prefetcher), the data address,
/// whether it is a load or a store, and how many non-memory instructions
/// executed since the previous reference (`gap`). The simulator charges
/// `gap × avg_cpi` cycles of compute time between references, matching the
/// paper's average-CPI timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Address of the instruction performing the access.
    pub pc: u64,
    /// Virtual/physical data address accessed (byte-granular).
    pub addr: u64,
    /// Non-memory instructions executed since the previous record.
    pub gap: u32,
    /// Load or store.
    pub op: MemOp,
}

impl TraceRecord {
    /// Creates a record with an explicit gap.
    pub fn new(pc: u64, addr: u64, op: MemOp, gap: u32) -> Self {
        Self { pc, addr, gap, op }
    }

    /// Convenience: a load with zero compute gap.
    pub fn load(pc: u64, addr: u64) -> Self {
        Self::new(pc, addr, MemOp::Load, 0)
    }

    /// Convenience: a store with zero compute gap.
    pub fn store(pc: u64, addr: u64) -> Self {
        Self::new(pc, addr, MemOp::Store, 0)
    }

    /// Returns the record with its compute gap replaced.
    pub fn with_gap(mut self, gap: u32) -> Self {
        self.gap = gap;
        self
    }

    /// Returns the record with its data address shifted by `offset`
    /// (wrapping; used for per-core address-space separation).
    pub fn with_addr_offset(mut self, offset: u64) -> Self {
        self.addr = self.addr.wrapping_add(offset);
        self
    }

    /// The block (cache-line) address for a given block-offset width.
    /// `block_bits = 6` corresponds to the paper's 64-byte lines.
    pub fn block(&self, block_bits: u32) -> u64 {
        self.addr >> block_bits
    }
}

impl ToJson for MemOp {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                MemOp::Load => "Load",
                MemOp::Store => "Store",
            }
            .to_string(),
        )
    }
}

impl ToJson for TraceRecord {
    fn to_json(&self) -> Json {
        json!({
            "pc": self.pc,
            "addr": self.addr,
            "gap": self.gap,
            "op": self.op.to_json(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_address_strips_offset_bits() {
        let r = TraceRecord::load(0, 0x12345);
        assert_eq!(r.block(6), 0x12345 >> 6);
        assert_eq!(r.block(0), 0x12345);
    }

    #[test]
    fn builders_set_fields() {
        let r = TraceRecord::store(0x400, 0x80).with_gap(9);
        assert_eq!(r.op, MemOp::Store);
        assert_eq!(r.gap, 9);
        assert!(r.op.is_store());
        let r2 = r.with_addr_offset(0x100);
        assert_eq!(r2.addr, 0x180);
    }

    #[test]
    fn addr_offset_wraps() {
        let r = TraceRecord::load(0, u64::MAX).with_addr_offset(1);
        assert_eq!(r.addr, 0);
    }

    #[test]
    fn json_names_every_field() {
        let r = TraceRecord::new(1, 2, MemOp::Store, 3);
        assert_eq!(
            r.to_json().dump(),
            r#"{"pc":1,"addr":2,"gap":3,"op":"Store"}"#
        );
    }
}
