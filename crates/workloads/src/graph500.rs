//! Graph500 BFS (`blas` in the paper's figures).
//!
//! The paper runs the Graph500 benchmark implemented on the Combinatorial
//! BLAS in 8 processes and traces each process. We implement the benchmark
//! itself: a Kronecker/RMAT graph (Graph500 parameters A=0.57, B=0.19,
//! C=0.19) stored in CSR, searched with level-synchronous BFS. The trace is
//! the *actual* address stream of the kernel: frontier reads, offset-array
//! lookups, adjacency streaming, and distance-array scatter.

use crate::scale::Scale;
use mem_trace::record::{MemOp, TraceRecord};
use mem_trace::DynTrace;
use mem_trace::Rng64;

const XADJ_BASE: u64 = 0x09_0000_0000;
const ADJ_BASE: u64 = 0x09_4000_0000;
const DIST_BASE: u64 = 0x09_c000_0000;
const VISITED_BASE: u64 = 0x09_e000_0000;
const FRONT_BASE: u64 = 0x09_f000_0000;

/// RMAT generator parameters (Graph500).
const RMAT_A: f64 = 0.57;
const RMAT_B: f64 = 0.19;
const RMAT_C: f64 = 0.19;

/// An RMAT graph in CSR form.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// Offsets, `n + 1` entries.
    pub xadj: Vec<u64>,
    /// Flattened adjacency.
    pub adj: Vec<u32>,
}

impl CsrGraph {
    /// Generates an RMAT graph with `2^log_n` vertices and
    /// `edge_factor × 2^log_n` directed edges.
    pub fn rmat(log_n: u32, edge_factor: u64, seed: u64) -> Self {
        let n = 1u64 << log_n;
        let m = n * edge_factor;
        let mut rng = Rng64::seed_from_u64(seed);
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m as usize);
        for _ in 0..m {
            let (mut u, mut v) = (0u64, 0u64);
            for _ in 0..log_n {
                let r: f64 = rng.gen_f64();
                let (du, dv) = if r < RMAT_A {
                    (0, 0)
                } else if r < RMAT_A + RMAT_B {
                    (0, 1)
                } else if r < RMAT_A + RMAT_B + RMAT_C {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | du;
                v = (v << 1) | dv;
            }
            edges.push((u as u32, v as u32));
        }
        // Counting-sort into CSR.
        let mut degree = vec![0u64; n as usize];
        for &(u, _) in &edges {
            degree[u as usize] += 1;
        }
        let mut xadj = vec![0u64; n as usize + 1];
        for i in 0..n as usize {
            xadj[i + 1] = xadj[i] + degree[i];
        }
        let mut cursor = xadj.clone();
        let mut adj = vec![0u32; m as usize];
        for &(u, v) in &edges {
            adj[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
        }
        Self { xadj, adj }
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Directed edge count.
    pub fn m(&self) -> usize {
        self.adj.len()
    }
}

/// Lazily emits the BFS kernel's memory references. When a search finishes,
/// a new root restarts it (the Graph500 benchmark runs 64 searches).
pub struct BfsTrace {
    graph: CsrGraph,
    dist: Vec<u32>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    fi: usize,
    level: u32,
    rng: Rng64,
    buf: Vec<TraceRecord>,
    pos: usize,
}

impl BfsTrace {
    /// Starts BFS emission over `graph`.
    pub fn new(graph: CsrGraph, seed: u64) -> Self {
        let n = graph.n();
        let mut s = Self {
            graph,
            dist: vec![u32::MAX; n],
            frontier: Vec::new(),
            next: Vec::new(),
            fi: 0,
            level: 0,
            rng: Rng64::seed_from_u64(seed),
            buf: Vec::with_capacity(512),
            pos: 0,
        };
        s.restart();
        s
    }

    fn restart(&mut self) {
        self.dist.fill(u32::MAX);
        // Pick a root with outgoing edges so the search is non-trivial.
        let n = self.graph.n();
        let root = loop {
            let r = self.rng.gen_index(n);
            if self.graph.xadj[r + 1] > self.graph.xadj[r] {
                break r;
            }
        };
        self.dist[root] = 0;
        self.frontier.clear();
        self.frontier.push(root as u32);
        self.next.clear();
        self.fi = 0;
        self.level = 0;
    }

    /// Processes one frontier vertex, emitting its records into `buf`.
    /// Returns false when the whole search has finished.
    fn step(&mut self) -> bool {
        if self.fi >= self.frontier.len() {
            if self.next.is_empty() {
                return false;
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
            self.next.clear();
            self.fi = 0;
            self.level += 1;
        }
        let u = self.frontier[self.fi] as u64;
        // Read the frontier entry (sequential) and the two offsets.
        self.buf.push(TraceRecord::new(
            0x9000,
            FRONT_BASE + self.fi as u64 * 4,
            MemOp::Load,
            1,
        ));
        self.buf
            .push(TraceRecord::new(0x9004, XADJ_BASE + u * 8, MemOp::Load, 1));
        self.buf.push(TraceRecord::new(
            0x9008,
            XADJ_BASE + (u + 1) * 8,
            MemOp::Load,
            0,
        ));
        self.fi += 1;
        let (lo, hi) = (
            self.graph.xadj[u as usize] as usize,
            self.graph.xadj[u as usize + 1] as usize,
        );
        for e in lo..hi {
            let v = self.graph.adj[e];
            // Stream the adjacency array; test the visited *bitmap* (as the
            // Graph500 reference implementations do — n/8 bytes, so the hot
            // search's bitmap largely fits the upper caches).
            self.buf.push(TraceRecord::new(
                0x900c,
                ADJ_BASE + e as u64 * 4,
                MemOp::Load,
                1,
            ));
            self.buf.push(TraceRecord::new(
                0x9010,
                VISITED_BASE + u64::from(v) / 8,
                MemOp::Load,
                2,
            ));
            if self.dist[v as usize] == u32::MAX {
                self.dist[v as usize] = self.level + 1;
                // Mark visited, write the distance, append to the frontier.
                self.buf.push(TraceRecord::new(
                    0x9014,
                    VISITED_BASE + u64::from(v) / 8,
                    MemOp::Store,
                    1,
                ));
                self.buf.push(TraceRecord::new(
                    0x9018,
                    DIST_BASE + u64::from(v) * 4,
                    MemOp::Store,
                    1,
                ));
                self.buf.push(TraceRecord::new(
                    0x901c,
                    FRONT_BASE + 0x100_0000 + self.next.len() as u64 * 4,
                    MemOp::Store,
                    0,
                ));
                self.next.push(v);
            }
        }
        true
    }
}

impl Iterator for BfsTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        while self.pos >= self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if !self.step() {
                self.restart();
            }
        }
        let r = self.buf[self.pos];
        self.pos += 1;
        Some(r)
    }
}

/// Builds the Graph500 trace for one process rank.
pub fn trace(core: usize, scale: Scale) -> DynTrace {
    let log_n = match scale {
        Scale::Smoke => 10,
        Scale::Demo => 15,
        Scale::Paper => 19,
    };
    let edge_factor = 16;
    let seed = 0x6500 ^ (core as u64).wrapping_mul(0x9e37_79b9);
    let graph = CsrGraph::rmat(log_n, edge_factor, seed);
    Box::new(BfsTrace::new(graph, seed ^ 0xffff))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::stats::TraceStats;

    #[test]
    fn rmat_builds_consistent_csr() {
        let g = CsrGraph::rmat(8, 8, 1);
        assert_eq!(g.n(), 256);
        assert_eq!(g.m(), 2048);
        assert_eq!(*g.xadj.last().unwrap() as usize, g.adj.len());
        for w in g.xadj.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(g.adj.iter().all(|&v| (v as usize) < g.n()));
    }

    #[test]
    fn rmat_degree_distribution_is_skewed() {
        let g = CsrGraph::rmat(12, 16, 7);
        let mut degrees: Vec<u64> = g.xadj.windows(2).map(|w| w[1] - w[0]).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct: u64 = degrees.iter().take(g.n() / 100).sum();
        let total: u64 = degrees.iter().sum();
        assert!(
            top1pct as f64 / total as f64 > 0.1,
            "RMAT should concentrate degree: top1% = {}",
            top1pct as f64 / total as f64
        );
    }

    #[test]
    fn bfs_visits_reachable_vertices() {
        let g = CsrGraph::rmat(9, 16, 3);
        let mut b = BfsTrace::new(g, 11);
        // Drain enough records to complete at least one search.
        let _: Vec<_> = (&mut b).take(100_000).collect();
        let visited = b.dist.iter().filter(|&&d| d != u32::MAX).count();
        assert!(visited > 10, "BFS explored {visited} vertices");
    }

    #[test]
    fn trace_runs_forever_and_mixes_ops() {
        let stats = TraceStats::measure(trace(0, Scale::Smoke), 50_000);
        assert_eq!(stats.records, 50_000);
        assert!(stats.store_fraction() > 0.01 && stats.store_fraction() < 0.5);
        assert!(stats.distinct_pcs >= 5);
    }

    #[test]
    fn demo_footprint_pressures_llc() {
        let stats = TraceStats::measure(trace(0, Scale::Demo), 1_500_000);
        // xadj 256 KB + adj 2 MB + dist 128 KB touched portions.
        assert!(stats.footprint_bytes() > 1 << 20);
    }

    #[test]
    fn ranks_get_distinct_graphs() {
        let a: Vec<_> = trace(0, Scale::Smoke).take(64).collect();
        let b: Vec<_> = trace(1, Scale::Smoke).take(64).collect();
        assert_ne!(a, b);
    }
}
