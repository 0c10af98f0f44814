//! Pieces every workload shares: seeded record generation, in-memory
//! feeds, cell runs, result checks and the run report.

use mem_trace::{TraceFeed, TraceRecord};
use minijson::ToJson;
use sim::{run_feeds, CoreFeed, RunResult, SimConfig};
use std::sync::Arc;
use std::time::Instant;
use workloads::{Benchmark, Scale};

/// One core's records, shared read-only by every cell that replays them.
pub type CoreRecords = Arc<[TraceRecord]>;

/// Generates `refs` records per core for `cores` cores. The workload seed
/// is a generator-core offset (`seed * 8 + core`), so `mix` keeps its
/// per-core composition and seed 0 gives the `figures` traces.
pub fn generate(
    bench: Benchmark,
    seed: u64,
    scale: Scale,
    refs: usize,
    cores: usize,
) -> Vec<CoreRecords> {
    (0..cores)
        .map(|core| {
            bench
                .trace(generator_core(seed, core), scale)
                .take(refs)
                .collect()
        })
        .collect()
}

/// The generator core index core `core` uses under `seed`.
pub fn generator_core(seed: u64, core: usize) -> usize {
    seed as usize * 8 + core
}

/// A feed over records already in memory: each refill is one `memcpy`,
/// so a run over it costs the simulator alone.
struct SliceFeed {
    records: CoreRecords,
    pos: usize,
}

impl TraceFeed for SliceFeed {
    fn refill(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        let take = max.min(self.records.len() - self.pos);
        out.extend_from_slice(&self.records[self.pos..self.pos + take]);
        self.pos += take;
        take
    }
}

/// One in-memory feed per core.
pub fn memory_feeds(records: &[CoreRecords]) -> Vec<CoreFeed> {
    records
        .iter()
        .map(|r| {
            Box::new(SliceFeed {
                records: Arc::clone(r),
                pos: 0,
            }) as CoreFeed
        })
        .collect()
}

/// Runs `cfg` over in-memory records, returning the result and its wall
/// time in seconds.
pub fn run_memory(cfg: &SimConfig, records: &[CoreRecords]) -> (RunResult, f64) {
    timed(|| run_feeds(cfg, memory_feeds(records)))
}

/// Runs `f`, returning its value and wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Byte-exact equality of two results (their full JSON serialization).
pub fn same(a: &RunResult, b: &RunResult) -> bool {
    a.to_json().dump() == b.to_json().dump()
}

/// Every core simulated exactly the configured number of references.
pub fn full_length(r: &RunResult, cfg: &SimConfig) -> bool {
    r.refs_per_core.len() == cfg.platform.cores
        && r.refs_per_core
            .iter()
            .all(|&n| n == cfg.refs_per_core as u64)
}

/// A metric as printed: name, value and unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Operations attempted and failed, plus the metrics of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Counts one operation (a simulated cell), failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Wall times of cells run round-robin: the same cells in the same order,
/// round after round, so host-speed drift hits every cell alike.
pub struct Rounds {
    /// `secs[cell][round]`.
    pub secs: Vec<Vec<f64>>,
    /// Whether each round ran with tracing and the metrics registry on.
    pub traced: Vec<bool>,
    /// Each cell's result in the first round; later rounds must equal it.
    pub first: Vec<RunResult>,
    /// Peak resident MB of each round.
    pub peak_mb: Vec<f64>,
}

impl Rounds {
    /// Runs `cells` round-robin until `seconds` have passed and at least
    /// two rounds are done, calling `between` after each round.
    /// With a tracer, every second round is traced: each cell gets a span
    /// and the metrics registry is on. Every cell counts as one operation,
    /// failed when it did not simulate the full length or differs from
    /// its first-round result.
    pub fn run(
        cells: &[(String, SimConfig)],
        seconds: f64,
        mut tracer: Option<&mut crate::tracer::Tracer>,
        report: &mut Report,
        mut simulate: impl FnMut(usize) -> RunResult,
        mut between: impl FnMut(&mut Report),
    ) -> Rounds {
        let mut rounds = Rounds {
            secs: vec![Vec::new(); cells.len()],
            traced: Vec::new(),
            first: Vec::new(),
            peak_mb: Vec::new(),
        };
        let start = Instant::now();
        while rounds.traced.len() < 2 || start.elapsed().as_secs_f64() < seconds {
            let traced = tracer.is_some() && rounds.traced.len() % 2 == 1;
            if traced {
                metrics::enable();
            }
            crate::host::reset_peak_rss();
            for (c, (name, cfg)) in cells.iter().enumerate() {
                let (r, s) = match tracer.as_deref_mut().filter(|_| traced) {
                    Some(t) => {
                        let id = t.begin(format!("sim.run_feeds {name}"));
                        let r = simulate(c);
                        (r, t.end(id))
                    }
                    None => timed(|| simulate(c)),
                };
                rounds.secs[c].push(s);
                let ok = full_length(&r, cfg) && rounds.first.get(c).is_none_or(|f| same(f, &r));
                report.op(ok, || {
                    format!("{name}: round {} differs or is short", rounds.traced.len())
                });
                if rounds.first.len() == c {
                    rounds.first.push(r);
                }
            }
            metrics::disable();
            rounds.peak_mb.push(crate::host::peak_rss_mb());
            rounds.traced.push(traced);
            between(report);
        }
        rounds
    }

    /// Wall seconds of `cell` over the rounds whose traced flag is `traced`.
    pub fn cell_secs(&self, cell: usize, traced: bool) -> Vec<f64> {
        self.secs[cell]
            .iter()
            .zip(&self.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(&s, _)| s)
            .collect()
    }

    /// References one run of `cell` simulates.
    pub fn refs(&self, cell: usize) -> u64 {
        self.first[cell].total_refs()
    }

    /// Simulated references per host second over every cell of the rounds
    /// whose traced flag is `traced`: one aggregate, total references over
    /// total wall time.
    pub fn rate(&self, traced: bool) -> f64 {
        let (mut refs, mut secs) = (Vec::new(), Vec::new());
        for c in 0..self.secs.len() {
            for s in self.cell_secs(c, traced) {
                refs.push(self.refs(c));
                secs.push(s);
            }
        }
        crate::stats::aggregate_rate(&refs, &secs)
    }
}
