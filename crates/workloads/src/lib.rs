//! Kernel-driven trace generators standing in for the paper's workloads.
//!
//! The paper traces 8 SPEC 2006 benchmarks (astar, bwaves, cactusADM,
//! GemsFDTD, lbm, mcf, milc, soplex — chosen to exercise the deep memory
//! hierarchy), a Graph500 BFS built on CombBLAS, a probabilistic matrix
//! factorization built on GraphLab, and a `mix` of the 8 SPEC applications
//! across the 8 cores. We cannot run SPEC under Pin here, so each generator
//! *runs a real kernel with the benchmark's documented memory structure*
//! over real data structures and emits the resulting address stream:
//!
//! | paper workload | kernel here |
//! |---|---|
//! | bwaves  | blocked dense-solver streaming over multiple large arrays |
//! | GemsFDTD| 7-point 3-D FDTD stencil sweep, two grids |
//! | lbm     | two-lattice streaming update (read A / write B) |
//! | mcf     | network-simplex-like pointer chasing with node-field locality |
//! | milc    | 4-D lattice QCD sweep over SU(3)-matrix-sized records |
//! | soplex  | sparse simplex: row streaming + column scatter + hot vectors |
//! | astar   | open-list graph search: skewed node reuse + random successors |
//! | cactusADM| 3-D ADM stencil with coefficient arrays |
//! | blas    | Graph500: level-synchronous BFS over an RMAT graph in CSR |
//! | pmf     | SGD matrix factorization with Zipf item popularity |
//! | mix     | one SPEC kernel per core |
//!
//! Each generator is validated (unit tests) for the properties the
//! evaluation depends on: footprint larger than the LLC, short-reuse
//! fraction (≈ L1 hit-rate proxy) in a realistic band, and
//! stride-predictability matching the benchmark's character.
//!
//! Besides the synthetic generators, [`file::TraceFileWorkload`] replays a
//! recorded v2 trace file chunk-at-a-time with bounded memory, one feed
//! per core (`redhip-sim trace replay`).

pub mod file;
pub mod graph500;
pub mod pmf;
pub mod registry;
pub mod scale;
pub mod spec;

pub use file::{FileMode, TraceFileWorkload};
pub use mem_trace::DynTrace;
pub use registry::Benchmark;
pub use scale::Scale;
