//! `walk-demo`: every mechanism over identical in-memory demo-scale
//! records of the two highest-L1-miss generators.
//!
//! Why: the cache-sim walk, predictor probe/train/recalibration and energy
//! pricing do most of the work here; generation, the sweep engine and the
//! trace codec stay outside the timed part.

use crate::common::{generate, memory_feeds, same, timed, CoreRecords, Report, Rounds};
use crate::tracer::Tracer;
use bench::harness::{mechanism_config, FigureScale};
use sim::{run_traces, Mechanism, SimConfig};
use workloads::Benchmark;

/// astar and mcf miss L1 most often (26 % and 20 % at demo scale).
pub const BENCHES: [Benchmark; 2] = [Benchmark::Astar, Benchmark::Mcf];

/// Every simulated mechanism, Base first.
pub const MECHANISMS: [Mechanism; 8] = [
    Mechanism::Base,
    Mechanism::Redhip,
    Mechanism::Cbf,
    Mechanism::Phased,
    Mechanism::Oracle,
    Mechanism::LevelPred,
    Mechanism::Perceptron,
    Mechanism::WayMemo,
];

/// References per core in one cell.
pub const REFS: usize = 100_000;

/// Generated records and the 16 cells that replay them.
pub struct Walk {
    /// `records[bench]`, one slice per core.
    pub records: Vec<Vec<CoreRecords>>,
    /// `(label, cfg)` per cell, benchmark-major in [`MECHANISMS`] order.
    pub cells: Vec<(String, SimConfig)>,
    /// Benchmark index of each cell.
    pub bench_of: Vec<usize>,
}

/// Demo-scale config for `mechanism` running `bench`.
pub fn config(mechanism: Mechanism, bench: Benchmark, refs: usize) -> SimConfig {
    let mut cfg = mechanism_config(FigureScale::Demo, mechanism, refs);
    cfg.avg_cpi = bench.avg_cpi();
    cfg
}

fn generate_all(seed: u64) -> Vec<Vec<CoreRecords>> {
    let cores = FigureScale::Demo.platform().cores;
    BENCHES
        .iter()
        .map(|&b| generate(b, seed, workloads::Scale::Demo, REFS, cores))
        .collect()
}

/// Generates the records for `seed`; returns them with the set-up time.
pub fn setup(seed: u64) -> (Walk, f64) {
    let (records, setup_s) = timed(|| generate_all(seed));
    let mut cells = Vec::new();
    let mut bench_of = Vec::new();
    for (bi, &b) in BENCHES.iter().enumerate() {
        for m in MECHANISMS {
            cells.push((format!("{}/{}", b.name(), m.name()), config(m, b, REFS)));
            bench_of.push(bi);
        }
    }
    (
        Walk {
            records,
            cells,
            bench_of,
        },
        setup_s,
    )
}

impl Walk {
    /// Runs the cells round-robin for `seconds`. After each round the
    /// set-up is repeated and timed into `setup_secs`, so set-up samples
    /// spread over the run like the cells do; each repeat must generate
    /// the same records.
    pub fn rounds(
        &self,
        seed: u64,
        seconds: f64,
        tracer: Option<&mut Tracer>,
        report: &mut Report,
        setup_secs: &mut Vec<f64>,
    ) -> Rounds {
        Rounds::run(
            &self.cells,
            seconds,
            tracer,
            report,
            |c| {
                sim::run_feeds(
                    &self.cells[c].1,
                    memory_feeds(&self.records[self.bench_of[c]]),
                )
            },
            |report| {
                let (again, s) = timed(|| generate_all(seed));
                setup_secs.push(s);
                report.op(again == self.records, || {
                    "regenerated records differ".into()
                });
            },
        )
    }

    /// Cell index of `mechanism` on benchmark `bench`.
    pub fn cell(&self, bench: usize, mechanism: Mechanism) -> usize {
        bench * MECHANISMS.len()
            + MECHANISMS
                .iter()
                .position(|&m| m == mechanism)
                .expect("a simulated mechanism")
    }

    /// Checks every cell's first-round result against a run straight from
    /// the generators, which must produce the same records.
    pub fn check_generator_path(&self, seed: u64, rounds: &Rounds, report: &mut Report) {
        for (c, (name, cfg)) in self.cells.iter().enumerate() {
            let bench = BENCHES[self.bench_of[c]];
            let traces = (0..cfg.platform.cores)
                .map(|core| {
                    bench.trace(
                        crate::common::generator_core(seed, core),
                        workloads::Scale::Demo,
                    )
                })
                .collect();
            let r = run_traces(cfg, traces);
            report.op(same(&r, &rounds.first[c]), || {
                format!("{name}: in-memory records differ from the generator path")
            });
        }
    }

    /// `(speedup ratio, dynamic-energy ratio)` of ReDHiP over Base per
    /// benchmark, from the runs' own results.
    pub fn comparisons(&self, rounds: &Rounds) -> Vec<sim::Comparison> {
        (0..BENCHES.len())
            .map(|b| {
                sim::Comparison::new(
                    &rounds.first[self.cell(b, Mechanism::Base)],
                    &rounds.first[self.cell(b, Mechanism::Redhip)],
                )
            })
            .collect()
    }
}
