//! Composable synthetic access-pattern building blocks.
//!
//! The `workloads` crate builds benchmark-like traces either by running real
//! kernels (BFS, SGD, stencils) or by composing the primitives here. Each
//! primitive is an infinite `Iterator<Item = TraceRecord>`; callers
//! bound them with `take(n)`.

use crate::record::{MemOp, TraceRecord};
use crate::rng::Rng64;
use crate::zipf::Zipf;

/// A memory region expressed in bytes, `[base, base + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte of the region.
    pub base: u64,
    /// Region length in bytes.
    pub len: u64,
}

impl Region {
    /// Creates a region. `len` must be non-zero.
    pub fn new(base: u64, len: u64) -> Self {
        assert!(len > 0, "region must be non-empty");
        Self { base, len }
    }

    /// Byte address at `offset % len` within the region.
    pub fn at(&self, offset: u64) -> u64 {
        self.base + (offset % self.len)
    }

    /// True when `addr` falls inside the region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.len
    }
}

/// Sequential streaming access over a region (the `bwaves`/`lbm` backbone):
/// walks the region byte-stride `stride`, wrapping at the end.
#[derive(Debug, Clone)]
pub struct SequentialStream {
    region: Region,
    stride: u64,
    cursor: u64,
    pc: u64,
    store_every: u32,
    count: u32,
    gap: u32,
    repeats: u32,
    rep: u32,
}

impl SequentialStream {
    /// Streams over `region` with the given byte `stride`. Every
    /// `store_every`-th access is a store (0 = never); `gap` compute
    /// instructions separate successive references.
    pub fn new(region: Region, stride: u64, pc: u64, store_every: u32, gap: u32) -> Self {
        assert!(stride > 0, "stride must be positive");
        Self {
            region,
            stride,
            cursor: 0,
            pc,
            store_every,
            count: 0,
            gap,
            repeats: 1,
            rep: 0,
        }
    }

    /// Emits each element `repeats` times before advancing — modelling a
    /// loop body that reads the same operand several times (register
    /// blocking / neighbour reuse). Raises the stream's in-L1 hit rate the
    /// way real FP kernels do.
    pub fn with_repeats(mut self, repeats: u32) -> Self {
        assert!(repeats >= 1);
        self.repeats = repeats;
        self
    }
}

impl Iterator for SequentialStream {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let addr = self.region.at(self.cursor);
        // Each repeat is a distinct instruction of the loop body: give it
        // its own PC so per-PC stride patterns (and the stride prefetcher's
        // RPT) see a clean stride per iteration.
        let pc = self.pc + u64::from(self.rep) * 4;
        self.rep += 1;
        if self.rep >= self.repeats {
            self.rep = 0;
            self.cursor = self.cursor.wrapping_add(self.stride);
        }
        self.count = self.count.wrapping_add(1);
        let op = if self.store_every != 0 && self.count.is_multiple_of(self.store_every) {
            MemOp::Store
        } else {
            MemOp::Load
        };
        Some(TraceRecord::new(pc, addr, op, self.gap))
    }
}

/// Uniform-random accesses within a region (models hash-table / irregular
/// traffic with footprint = region size).
#[derive(Debug, Clone)]
pub struct RandomInRegion {
    region: Region,
    rng: Rng64,
    pc: u64,
    store_prob: f64,
    gap: u32,
    align: u64,
}

impl RandomInRegion {
    /// Uniform random accesses over `region`, aligned to `align` bytes,
    /// each one a store with probability `store_prob`.
    pub fn new(region: Region, seed: u64, pc: u64, store_prob: f64, gap: u32, align: u64) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        Self {
            region,
            rng: Rng64::seed_from_u64(seed),
            pc,
            store_prob,
            gap,
            align,
        }
    }
}

impl Iterator for RandomInRegion {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let off = self.rng.gen_below(self.region.len) & !(self.align - 1);
        let op = if self.rng.gen_bool(self.store_prob) {
            MemOp::Store
        } else {
            MemOp::Load
        };
        Some(TraceRecord::new(
            self.pc,
            self.region.base + off,
            op,
            self.gap,
        ))
    }
}

/// Zipf-skewed accesses over fixed-size records in a region (models PMF
/// factor-row popularity and graph-degree skew).
#[derive(Debug, Clone)]
pub struct ZipfOverRecords {
    region: Region,
    record_bytes: u64,
    zipf: Zipf,
    rng: Rng64,
    pc: u64,
    store_prob: f64,
    gap: u32,
}

impl ZipfOverRecords {
    /// Accesses record `k` (Zipf-distributed over `region.len / record_bytes`
    /// records, exponent `s`) at its first byte.
    pub fn new(
        region: Region,
        record_bytes: u64,
        s: f64,
        seed: u64,
        pc: u64,
        store_prob: f64,
        gap: u32,
    ) -> Self {
        assert!(record_bytes > 0);
        let n = (region.len / record_bytes).max(1);
        Self {
            region,
            record_bytes,
            zipf: Zipf::new(n, s),
            rng: Rng64::seed_from_u64(seed),
            pc,
            store_prob,
            gap,
        }
    }
}

impl Iterator for ZipfOverRecords {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let k = self.zipf.sample(&mut self.rng) - 1;
        let addr = self.region.base + k * self.record_bytes;
        let op = if self.rng.gen_bool(self.store_prob) {
            MemOp::Store
        } else {
            MemOp::Load
        };
        Some(TraceRecord::new(self.pc, addr, op, self.gap))
    }
}

/// Pointer-chase over a pre-shuffled permutation cycle (the `mcf` backbone):
/// each access reads the "next" pointer stored at the current node, so the
/// address stream is serially dependent and stride-unpredictable.
#[derive(Debug, Clone)]
pub struct PointerChase {
    next: Vec<u32>,
    node_bytes: u64,
    base: u64,
    current: u32,
    pc: u64,
    gap: u32,
}

impl PointerChase {
    /// Builds a single random cycle over `nodes` nodes of `node_bytes` each
    /// starting at `base`. The cycle is a uniform random permutation (Sattolo's
    /// algorithm), so consecutive addresses are effectively random.
    pub fn new(base: u64, nodes: u32, node_bytes: u64, seed: u64, pc: u64, gap: u32) -> Self {
        assert!(nodes >= 2, "pointer chase needs at least two nodes");
        let mut next: Vec<u32> = (0..nodes).collect();
        let mut rng = Rng64::seed_from_u64(seed);
        // Sattolo's algorithm: produces a single cycle covering all nodes.
        for i in (1..nodes as usize).rev() {
            let j = rng.gen_index(i);
            next.swap(i, j);
        }
        Self {
            next,
            node_bytes,
            base,
            current: 0,
            pc,
            gap,
        }
    }

    /// Number of nodes in the chain.
    pub fn nodes(&self) -> usize {
        self.next.len()
    }
}

impl Iterator for PointerChase {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let addr = self.base + self.current as u64 * self.node_bytes;
        self.current = self.next[self.current as usize];
        Some(TraceRecord::new(self.pc, addr, MemOp::Load, self.gap))
    }
}

/// 3-D stencil sweep (the `GemsFDTD`/`cactusADM` backbone): iterates a
/// `nx × ny × nz` grid of `elem_bytes` elements in z-major order, touching
/// the 7-point neighbourhood (center ± 1 in each dimension) per cell and
/// writing the center of a second (output) grid.
#[derive(Debug, Clone)]
pub struct Stencil3D {
    nx: u64,
    ny: u64,
    nz: u64,
    elem_bytes: u64,
    in_base: u64,
    out_base: u64,
    pc: u64,
    gap: u32,
    // Iteration state: current cell and which of the 8 accesses of the cell
    // we are about to emit (6 neighbours + center load + center store).
    x: u64,
    y: u64,
    z: u64,
    phase: u8,
}

impl Stencil3D {
    /// Creates a sweep over a grid with separate input/output arrays.
    pub fn new(
        in_base: u64,
        out_base: u64,
        (nx, ny, nz): (u64, u64, u64),
        elem_bytes: u64,
        pc: u64,
        gap: u32,
    ) -> Self {
        assert!(nx >= 3 && ny >= 3 && nz >= 3, "grid too small for stencil");
        Self {
            nx,
            ny,
            nz,
            elem_bytes,
            in_base,
            out_base,
            pc,
            gap,
            x: 1,
            y: 1,
            z: 1,
            phase: 0,
        }
    }

    fn idx(&self, x: u64, y: u64, z: u64) -> u64 {
        ((x * self.ny + y) * self.nz + z) * self.elem_bytes
    }

    fn advance_cell(&mut self) {
        self.z += 1;
        if self.z == self.nz - 1 {
            self.z = 1;
            self.y += 1;
            if self.y == self.ny - 1 {
                self.y = 1;
                self.x += 1;
                if self.x == self.nx - 1 {
                    self.x = 1; // wrap: next sweep iteration
                }
            }
        }
    }
}

impl Iterator for Stencil3D {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let (x, y, z) = (self.x, self.y, self.z);
        let rec = match self.phase {
            0 => TraceRecord::new(
                self.pc,
                self.in_base + self.idx(x, y, z),
                MemOp::Load,
                self.gap,
            ),
            1 => TraceRecord::new(
                self.pc + 4,
                self.in_base + self.idx(x - 1, y, z),
                MemOp::Load,
                self.gap,
            ),
            2 => TraceRecord::new(
                self.pc + 8,
                self.in_base + self.idx(x + 1, y, z),
                MemOp::Load,
                self.gap,
            ),
            3 => TraceRecord::new(
                self.pc + 12,
                self.in_base + self.idx(x, y - 1, z),
                MemOp::Load,
                self.gap,
            ),
            4 => TraceRecord::new(
                self.pc + 16,
                self.in_base + self.idx(x, y + 1, z),
                MemOp::Load,
                self.gap,
            ),
            5 => TraceRecord::new(
                self.pc + 20,
                self.in_base + self.idx(x, y, z - 1),
                MemOp::Load,
                self.gap,
            ),
            6 => TraceRecord::new(
                self.pc + 24,
                self.in_base + self.idx(x, y, z + 1),
                MemOp::Load,
                self.gap,
            ),
            _ => TraceRecord::new(
                self.pc + 28,
                self.out_base + self.idx(x, y, z),
                MemOp::Store,
                self.gap,
            ),
        };
        if self.phase == 7 {
            self.phase = 0;
            self.advance_cell();
        } else {
            self.phase += 1;
        }
        Some(rec)
    }
}

/// Expands each record of an inner stream into `touches` accesses within
/// the record's cache line (offsets 0, +16, +32, +48 cyclically), each from
/// its own PC — a loop body touching several fields of the selected
/// element. Raises in-line locality without changing which lines are
/// touched.
#[derive(Debug, Clone)]
pub struct LineTouches<T> {
    inner: T,
    touches: u8,
    current: Option<TraceRecord>,
    phase: u8,
}

impl<T> LineTouches<T> {
    /// Wraps `inner`, emitting `touches` accesses per inner record (1–4).
    pub fn new(inner: T, touches: u8) -> Self {
        assert!((1..=4).contains(&touches));
        Self {
            inner,
            touches,
            current: None,
            phase: 0,
        }
    }
}

impl<T: Iterator<Item = TraceRecord>> Iterator for LineTouches<T> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.phase == 0 || self.current.is_none() {
            self.current = Some(self.inner.next()?);
        }
        let base = self.current.expect("set above");
        let rec = TraceRecord::new(
            base.pc + u64::from(self.phase) * 4,
            base.addr + u64::from(self.phase) * 16,
            base.op,
            if self.phase == 0 { base.gap } else { 1 },
        );
        self.phase = (self.phase + 1) % self.touches;
        Some(rec)
    }
}

/// Probabilistically interleaves several sources with fixed weights
/// (models phase mixing inside one benchmark, e.g. `soplex` switching
/// between row streaming and column scatter).
pub struct WeightedMix {
    sources: Vec<Box<dyn Iterator<Item = TraceRecord> + Send>>,
    cumulative: Vec<f64>,
    rng: Rng64,
}

impl WeightedMix {
    /// Mixes `sources` with the paired positive `weights` (need not sum to 1).
    pub fn new(
        sources: Vec<Box<dyn Iterator<Item = TraceRecord> + Send>>,
        weights: &[f64],
        seed: u64,
    ) -> Self {
        assert_eq!(sources.len(), weights.len());
        assert!(!sources.is_empty(), "mixer needs at least one source");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self {
            sources,
            cumulative,
            rng: Rng64::seed_from_u64(seed),
        }
    }
}

impl Iterator for WeightedMix {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let u: f64 = self.rng.gen_f64();
        let i = self
            .cumulative
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.sources.len() - 1);
        self.sources[i].next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_wraps_and_contains() {
        let r = Region::new(0x1000, 0x100);
        assert_eq!(r.at(0), 0x1000);
        assert_eq!(r.at(0x100), 0x1000);
        assert_eq!(r.at(0x101), 0x1001);
        assert!(r.contains(0x10ff));
        assert!(!r.contains(0x1100));
    }

    #[test]
    fn sequential_stream_strides_and_wraps() {
        let r = Region::new(0, 256);
        let s = SequentialStream::new(r, 64, 0x400, 0, 1);
        let addrs: Vec<u64> = s.take(6).map(|r| r.addr).collect();
        assert_eq!(addrs, vec![0, 64, 128, 192, 0, 64]);
    }

    #[test]
    fn sequential_stream_emits_stores_periodically() {
        let r = Region::new(0, 1 << 20);
        let s = SequentialStream::new(r, 8, 0x400, 4, 0);
        let ops: Vec<MemOp> = s.take(8).map(|r| r.op).collect();
        assert_eq!(ops.iter().filter(|o| o.is_store()).count(), 2);
        assert_eq!(ops[3], MemOp::Store);
        assert_eq!(ops[7], MemOp::Store);
    }

    #[test]
    fn random_in_region_stays_inside_and_aligns() {
        let r = Region::new(0x10_0000, 0x4_0000);
        let g = RandomInRegion::new(r, 9, 0x400, 0.3, 0, 64);
        for rec in g.take(5000) {
            assert!(r.contains(rec.addr));
            assert_eq!(rec.addr % 64, 0);
        }
    }

    #[test]
    fn random_store_fraction_tracks_probability() {
        let r = Region::new(0, 1 << 20);
        let g = RandomInRegion::new(r, 11, 0, 0.25, 0, 8);
        let stores = g.take(20_000).filter(|r| r.op.is_store()).count();
        let frac = stores as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "store fraction {frac}");
    }

    #[test]
    fn pointer_chase_visits_every_node_once_per_cycle() {
        let nodes = 128;
        let g = PointerChase::new(0, nodes, 64, 5, 0x400, 2);
        let visited: std::collections::HashSet<u64> =
            g.take(nodes as usize).map(|r| r.addr).collect();
        assert_eq!(
            visited.len(),
            nodes as usize,
            "Sattolo cycle covers all nodes"
        );
    }

    #[test]
    fn pointer_chase_is_periodic_with_full_cycle() {
        let nodes = 64;
        let g = PointerChase::new(0, nodes, 64, 5, 0, 0);
        let seq: Vec<u64> = g.take(2 * nodes as usize).map(|r| r.addr).collect();
        assert_eq!(&seq[..nodes as usize], &seq[nodes as usize..]);
    }

    #[test]
    fn zipf_records_are_record_aligned() {
        let r = Region::new(0x8000, 1 << 16);
        let g = ZipfOverRecords::new(r, 256, 1.0, 3, 0, 0.0, 0);
        for rec in g.take(2000) {
            assert!(r.contains(rec.addr));
            assert_eq!((rec.addr - 0x8000) % 256, 0);
        }
    }

    #[test]
    fn stencil_touches_neighbours_and_writes_output() {
        let g = Stencil3D::new(0, 1 << 30, (4, 4, 4), 8, 0x400, 1);
        let recs: Vec<TraceRecord> = g.take(8).collect();
        assert_eq!(recs.iter().filter(|r| r.op.is_store()).count(), 1);
        assert!(recs[7].addr >= 1 << 30, "store goes to output grid");
        // Center and z±1 are adjacent elements in z-major order.
        assert_eq!(recs[6].addr - recs[5].addr, 16);
    }

    #[test]
    fn stencil_interior_sweep_wraps() {
        let g = Stencil3D::new(0, 1 << 30, (3, 3, 3), 8, 0, 0);
        // Only one interior cell; after 8 accesses it must wrap back to it.
        let recs: Vec<TraceRecord> = g.take(16).collect();
        assert_eq!(recs[0].addr, recs[8].addr);
    }

    #[test]
    fn weighted_mix_draws_from_all_sources() {
        let a = SequentialStream::new(Region::new(0, 1 << 20), 64, 1, 0, 0);
        let b = SequentialStream::new(Region::new(1 << 40, 1 << 20), 64, 2, 0, 0);
        let mix = WeightedMix::new(vec![Box::new(a), Box::new(b)], &[0.5, 0.5], 1);
        let (mut low, mut high) = (0, 0);
        for r in mix.take(1000) {
            if r.addr < 1 << 40 {
                low += 1;
            } else {
                high += 1;
            }
        }
        assert!(low > 300 && high > 300, "low={low} high={high}");
    }

    #[test]
    #[should_panic]
    fn weighted_mix_rejects_mismatched_weights() {
        let a = SequentialStream::new(Region::new(0, 64), 8, 0, 0, 0);
        let _ = WeightedMix::new(vec![Box::new(a)], &[0.5, 0.5], 0);
    }
}
