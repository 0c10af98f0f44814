//! The sweep engine: dedup, cost-aware scheduling, deterministic merge.

use crate::cache::ResultCache;
use crate::cell::{CellSource, CellSpec};
use sim::{RunResult, SimConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use workloads::{Benchmark, Scale};

/// Handle to one unique cell in a [`SweepPlan`]; index into the results.
pub type CellId = usize;

/// The whole figure set's job graph, enumerated up front and deduped by
/// canonical config+workload key: a cell requested by five figures is
/// planned (and simulated) once.
#[derive(Debug, Default)]
pub struct SweepPlan {
    cells: Vec<CellSpec>,
    by_key: HashMap<String, CellId>,
    logical_requests: u64,
    dedup_hits: u64,
}

impl SweepPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests one (config × benchmark × scale) cell, returning its id.
    /// A repeated request for an identical cell returns the existing id
    /// and counts as a dedup hit.
    pub fn cell(&mut self, cfg: &SimConfig, benchmark: Benchmark, scale: Scale) -> CellId {
        self.insert(CellSpec::new(cfg, benchmark, scale))
    }

    /// Requests one (config × trace file) cell — the file-backed analogue
    /// of [`cell`](Self::cell). The `Arc` shares one open file across
    /// every cell replaying the same file.
    pub fn cell_file(
        &mut self,
        cfg: &SimConfig,
        workload: &std::sync::Arc<workloads::TraceFileWorkload>,
    ) -> CellId {
        self.insert(CellSpec::file(cfg, std::sync::Arc::clone(workload)))
    }

    fn insert(&mut self, spec: CellSpec) -> CellId {
        self.logical_requests += 1;
        let key = spec.canonical_key();
        if let Some(&id) = self.by_key.get(&key) {
            self.dedup_hits += 1;
            return id;
        }
        let id = self.cells.len();
        self.cells.push(spec);
        self.by_key.insert(key, id);
        id
    }

    /// Unique cells planned so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when nothing has been planned.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Requests deduplicated away (logical requests minus unique cells).
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// The planned cell specs, indexed by [`CellId`].
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }
}

/// What a sweep run did — the accounting the heartbeat and the acceptance
/// criteria are stated in. All totals count **unique cells**, never
/// logical (per-figure) requests, so jobs/s and ETA stay truthful when
/// figures share cells.
#[derive(Debug, Clone)]
pub struct SweepStats {
    /// Unique cells in the plan.
    pub unique_cells: usize,
    /// Cell requests made by figures, before dedup.
    pub logical_requests: u64,
    /// Requests answered by an already-planned identical cell.
    pub dedup_hits: u64,
    /// Unique cells answered from the memoizing cache (memory or disk).
    pub cache_hits: u64,
    /// Unique cells actually simulated this run.
    pub simulated: u64,
    /// References simulated this run (excludes cache hits).
    pub refs_simulated: u64,
    /// Wall-clock of the run, seconds.
    pub wall_secs: f64,
    /// Worker count allowed (`--jobs`); a run uses at most one worker per
    /// simulated cell.
    pub jobs: usize,
}

impl SweepStats {
    /// Aggregate simulation throughput over all workers, refs/s.
    pub fn aggregate_refs_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.refs_simulated as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// One-line summary for the CLI.
    pub fn summary(&self) -> String {
        format!(
            "{} unique cells ({} requests, {} deduped), {} cached, {} simulated \
             ({:.1}M refs) in {:.2}s on {} job(s) — {:.2}M refs/s aggregate",
            self.unique_cells,
            self.logical_requests,
            self.dedup_hits,
            self.cache_hits,
            self.simulated,
            self.refs_simulated as f64 / 1e6,
            self.wall_secs,
            self.jobs,
            self.aggregate_refs_per_sec() / 1e6,
        )
    }
}

/// Results of a sweep run, indexed by [`CellId`]. Published into
/// pre-allocated slots by cell id, so the contents are byte-identical
/// regardless of worker count or completion order.
#[derive(Debug)]
pub struct SweepResults {
    results: Vec<RunResult>,
    /// Run accounting.
    pub stats: SweepStats,
}

impl SweepResults {
    /// The result for `id`.
    pub fn get(&self, id: CellId) -> &RunResult {
        &self.results[id]
    }

    /// All results in cell-id order.
    pub fn all(&self) -> &[RunResult] {
        &self.results
    }
}

/// A sweep failed: a planned cell has an invalid config (found before
/// any cell runs), or a cell's trace file could not be read mid-run. A
/// panicking cell is a bug, not an error; it propagates out of
/// [`SweepEngine::run`].
#[derive(Debug, Clone)]
pub struct SweepError {
    /// Human-readable cause.
    pub message: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep failed: {}", self.message)
    }
}

impl std::error::Error for SweepError {}

impl SweepError {
    /// An error about cell `id`, naming its mechanism and workload.
    fn cell(id: CellId, spec: &CellSpec, cause: impl std::fmt::Display) -> Self {
        let m = spec.manifest();
        SweepError {
            message: format!("cell {id} ({} on {}): {cause}", m.mechanism, m.workload),
        }
    }
}

/// Resolves the worker count: explicit override, else `REDHIP_JOBS`, else
/// all host cores.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("REDHIP_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The engine: a worker count plus a memoizing cache, reusable across
/// many plans (the cache persists between runs — the second run of an
/// identical plan is all cache hits).
#[derive(Debug)]
pub struct SweepEngine {
    jobs: usize,
    cache: ResultCache,
    quiet: bool,
}

impl SweepEngine {
    /// Engine with `jobs` workers and a process-local cache.
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            cache: ResultCache::in_memory(),
            quiet: false,
        }
    }

    /// Replaces the cache (e.g. [`ResultCache::with_disk`]).
    pub fn with_cache(mut self, cache: ResultCache) -> Self {
        self.cache = cache;
        self
    }

    /// Suppresses the stderr heartbeat.
    pub fn quiet(mut self) -> Self {
        self.quiet = true;
        self
    }

    /// Worker threads this engine schedules onto.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The cache, for hit-counter assertions.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Runs every cell of `plan` (cache hits excepted) and returns the
    /// deterministically merged results. A cell whose config fails
    /// [`SimConfig::validate`] is an error before any cell runs. A file
    /// cell whose trace could not be read in full ran short: it is an
    /// error after the sweep (the lowest such cell id is named), and its
    /// result is never cached.
    ///
    /// Scheduling is cost-aware: `min(jobs, misses)` workers, the calling
    /// thread among them, claim cells from one shared cursor over the
    /// misses sorted longest expected first ([`CellSpec::cost`]), so the
    /// tail of the sweep is short cells, not one late-started straggler.
    pub fn run(&self, plan: &SweepPlan, label: &str) -> Result<SweepResults, SweepError> {
        for (id, spec) in plan.cells.iter().enumerate() {
            spec.cfg
                .validate()
                .map_err(|e| SweepError::cell(id, spec, format!("invalid SimConfig: {e}")))?;
        }
        let started = Instant::now();
        let n = plan.cells.len();
        let hits_before = self.cache.counters.hits();

        // Resolve cache hits up front; only misses are scheduled.
        let mut slots: Vec<OnceLock<RunResult>> = Vec::with_capacity(n);
        let mut to_run: Vec<CellId> = Vec::new();
        for (id, spec) in plan.cells.iter().enumerate() {
            let cached = self.cache.lookup(spec);
            if cached.is_none() {
                to_run.push(id);
            }
            slots.push(cached.map_or_else(OnceLock::new, OnceLock::from));
        }
        let cache_hits = self.cache.counters.hits() - hits_before;
        metrics::SWEEP_CACHE_HITS.add(cache_hits);
        metrics::SWEEP_CACHE_MISSES.add((n as u64).saturating_sub(cache_hits));

        // Longest-expected-cell-first; ties break by id so the claim order
        // (though not the results — those are keyed by id) is stable.
        to_run.sort_by_key(|&id| (std::cmp::Reverse(plan.cells[id].cost()), id));

        let simulated = to_run.len() as u64;
        metrics::SWEEP_CELLS_SIMULATED.add(simulated);
        let _sim_span = metrics::PHASE_SIMULATE.start();
        // The lowest-id cell whose trace file came up short, if any.
        let failed: Mutex<Option<(CellId, SweepError)>> = Mutex::new(None);
        if !to_run.is_empty() {
            let mut heart = telemetry::Heartbeat::new(label, "cells", simulated);
            if self.quiet {
                heart = heart.silent();
            }
            let heart = Mutex::new(heart);
            // `Relaxed` suffices: the cursor only hands out indices into
            // the immutable `to_run`; results publish through the
            // `OnceLock` slots and the scope's join.
            let cursor = AtomicUsize::new(0);
            let worker = || {
                while let Some(&id) = to_run.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let spec = &plan.cells[id];
                    let busy = metrics::enabled().then(Instant::now);
                    let result = spec.simulate();
                    let short = match &spec.source {
                        CellSource::File(w) => w.error(),
                        CellSource::Synth { .. } => None,
                    };
                    if let Some(e) = short {
                        let mut failed = failed.lock().expect("failure slot poisoned");
                        if failed.as_ref().is_none_or(|(first, _)| id < *first) {
                            *failed = Some((id, SweepError::cell(id, spec, e)));
                        }
                    } else {
                        self.cache.store(spec, &result);
                        assert!(slots[id].set(result).is_ok(), "cell {id} ran twice");
                    }
                    if let Some(t0) = busy {
                        metrics::POOL_BUSY_NS.add(t0.elapsed().as_nanos() as u64);
                    }
                    heart.lock().expect("heartbeat poisoned").add(1);
                }
            };
            // The calling thread is one of the workers, so `--jobs 1`
            // spawns no thread.
            std::thread::scope(|s| {
                for _ in 1..self.jobs.min(to_run.len()) {
                    s.spawn(worker);
                }
                worker();
            });
            heart.into_inner().expect("heartbeat poisoned").finish();
        }
        if let Some((_, e)) = failed.into_inner().expect("failure slot poisoned") {
            return Err(e);
        }

        let results: Vec<RunResult> = slots
            .into_iter()
            .enumerate()
            .map(|(id, s)| {
                s.into_inner()
                    .unwrap_or_else(|| panic!("cell {id} produced no result"))
            })
            .collect();
        drop(_sim_span);
        let refs_simulated = to_run
            .iter()
            .map(|&id| results[id].total_refs())
            .sum::<u64>();
        metrics::SWEEP_REFS_SIMULATED.add(refs_simulated);

        Ok(SweepResults {
            stats: SweepStats {
                unique_cells: n,
                logical_requests: plan.logical_requests,
                dedup_hits: plan.dedup_hits,
                cache_hits,
                simulated,
                refs_simulated,
                wall_secs: started.elapsed().as_secs_f64(),
                jobs: self.jobs,
            },
            results,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Mechanism;

    fn cfg(mechanism: Mechanism, refs: usize) -> SimConfig {
        let mut c = SimConfig::new(energy_model::presets::demo_scale(), mechanism);
        c.refs_per_core = refs;
        c.recalib_period = Some(512);
        c
    }

    fn smoke_plan() -> SweepPlan {
        let mut p = SweepPlan::new();
        for m in [Mechanism::Base, Mechanism::Redhip, Mechanism::Cbf] {
            for b in [Benchmark::Mcf, Benchmark::Lbm] {
                p.cell(&cfg(m, 600), b, Scale::Smoke);
            }
        }
        p
    }

    #[test]
    fn dedup_collapses_repeated_requests() {
        let mut p = smoke_plan();
        assert_eq!(p.len(), 6);
        // A figure re-requesting the whole matrix adds nothing.
        let id = p.cell(&cfg(Mechanism::Base, 600), Benchmark::Mcf, Scale::Smoke);
        assert_eq!(id, 0);
        assert_eq!(p.len(), 6);
        assert_eq!(p.dedup_hits(), 1);
    }

    #[test]
    fn jobs1_and_jobs4_results_are_byte_identical() {
        use minijson::ToJson;
        let p1 = smoke_plan();
        let r1 = SweepEngine::new(1).quiet().run(&p1, "t").unwrap();
        let p4 = smoke_plan();
        let r4 = SweepEngine::new(4).quiet().run(&p4, "t").unwrap();
        assert_eq!(r1.all().len(), r4.all().len());
        for (a, b) in r1.all().iter().zip(r4.all()) {
            assert_eq!(a.to_json().pretty(), b.to_json().pretty());
        }
    }

    #[test]
    fn second_run_is_all_cache_hits() {
        let engine = SweepEngine::new(2).quiet();
        let first = engine.run(&smoke_plan(), "t").unwrap();
        assert_eq!(first.stats.cache_hits, 0);
        assert_eq!(first.stats.simulated, 6);
        let second = engine.run(&smoke_plan(), "t").unwrap();
        assert_eq!(second.stats.cache_hits, 6);
        assert_eq!(second.stats.simulated, 0);
        assert_eq!(second.stats.refs_simulated, 0);
    }

    #[test]
    fn stats_count_unique_cells_not_logical_requests() {
        let mut p = smoke_plan();
        for _ in 0..10 {
            p.cell(&cfg(Mechanism::Base, 600), Benchmark::Mcf, Scale::Smoke);
        }
        let r = SweepEngine::new(1).quiet().run(&p, "t").unwrap();
        assert_eq!(r.stats.unique_cells, 6);
        assert_eq!(r.stats.logical_requests, 16);
        assert_eq!(r.stats.dedup_hits, 10);
        assert_eq!(r.stats.simulated, 6);
        // refs accounting covers only what actually ran.
        let expected: u64 = r.all().iter().map(|x| x.total_refs()).sum();
        assert_eq!(r.stats.refs_simulated, expected);
    }

    #[test]
    fn invalid_cell_is_an_error_naming_the_cell() {
        let mut p = smoke_plan();
        p.cell(&cfg(Mechanism::Redhip, 0), Benchmark::Lbm, Scale::Smoke);
        let engine = SweepEngine::new(2).quiet();
        let err = engine.run(&p, "t").unwrap_err().to_string();
        assert!(err.contains("cell 6 (ReDHiP on lbm)"), "{err}");
        assert!(err.contains("refs_per_core must be positive"), "{err}");
        // Nothing ran: the valid cells are not in the cache.
        assert_eq!(engine.cache().counters.misses.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn unbuildable_cache_geometry_is_an_error_naming_the_cell() {
        let mut p = smoke_plan();
        let mut bad = cfg(Mechanism::Base, 600);
        bad.platform.levels.last_mut().unwrap().assoc = 12;
        p.cell(&bad, Benchmark::Mcf, Scale::Smoke);
        let engine = SweepEngine::new(2).quiet();
        let err = engine.run(&p, "t").unwrap_err().to_string();
        assert!(err.contains("cell 6 (Base on mcf)"), "{err}");
        assert!(
            err.contains("L4: ") && err.contains("power-of-two"),
            "{err}"
        );
        assert_eq!(engine.cache().counters.misses.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn empty_plan_runs() {
        let r = SweepEngine::new(4)
            .quiet()
            .run(&SweepPlan::new(), "t")
            .unwrap();
        assert_eq!(r.all().len(), 0);
        assert_eq!(r.stats.simulated, 0);
    }

    #[test]
    fn more_jobs_than_cells_runs_each_cell_once() {
        use minijson::ToJson;
        let r1 = SweepEngine::new(1).quiet().run(&smoke_plan(), "t").unwrap();
        let engine = SweepEngine::new(16).quiet();
        let r16 = engine.run(&smoke_plan(), "t").unwrap();
        assert_eq!(engine.cache().counters.misses.load(Ordering::Relaxed), 6);
        assert_eq!(r16.stats.simulated, 6);
        for (a, b) in r1.all().iter().zip(r16.all()) {
            assert_eq!(a.to_json().pretty(), b.to_json().pretty());
        }
    }

    #[test]
    fn one_cell_plan_at_four_jobs() {
        let mut p = SweepPlan::new();
        let id = p.cell(&cfg(Mechanism::Redhip, 600), Benchmark::Mcf, Scale::Smoke);
        let r = SweepEngine::new(4).quiet().run(&p, "t").unwrap();
        assert_eq!(r.all().len(), 1);
        assert_eq!(r.stats.simulated, 1);
        assert_eq!(r.get(id).total_refs(), r.stats.refs_simulated);
        assert!(r.stats.refs_simulated > 0);
    }

    #[test]
    fn file_cell_cut_short_is_an_error_naming_the_cell_and_not_cached() {
        use mem_trace::record::TraceRecord;
        let path =
            std::env::temp_dir().join(format!("redhip-engine-cut-{}.trace", std::process::id()));
        let t = (0..80_000u64).map(|i| TraceRecord::load(0x400 + i % 9, (i * 2897) % (1 << 22)));
        mem_trace::stream::write_v2_file(&path, t, 1024).unwrap();
        let w = std::sync::Arc::new(
            workloads::TraceFileWorkload::from_spec(&format!("file:{}:interleave", path.display()))
                .unwrap(),
        );
        // The file shrinks after it was opened and checked.
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        let mut p = smoke_plan();
        let file_cell = p.cell_file(&cfg(Mechanism::Redhip, 10_000), &w);
        let engine = SweepEngine::new(2).quiet();
        let err = engine.run(&p, "t").unwrap_err().to_string();
        assert!(
            err.contains(&format!("cell {file_cell} (ReDHiP on file:")),
            "{err}"
        );
        assert!(err.contains("reading chunk"), "{err}");
        // The short result was not cached: asking again misses.
        assert!(engine.cache().lookup(&p.cells()[file_cell]).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn busy_time_is_recorded_at_every_job_count() {
        // The registry is process-global and never reset, so each sweep is
        // checked by its own before/after delta. Other tests may record
        // too, which can only raise the counter.
        metrics::enable();
        for jobs in [1, 2] {
            let before = metrics::POOL_BUSY_NS.get();
            SweepEngine::new(jobs)
                .quiet()
                .run(&smoke_plan(), "t")
                .unwrap();
            assert!(
                metrics::POOL_BUSY_NS.get() > before,
                "--jobs {jobs} recorded no busy time"
            );
        }
    }

    #[test]
    fn default_jobs_honors_env() {
        // Serialize env mutation within this test only.
        std::env::set_var("REDHIP_JOBS", "3");
        assert_eq!(default_jobs(), 3);
        std::env::set_var("REDHIP_JOBS", "not-a-number");
        assert!(default_jobs() >= 1);
        std::env::remove_var("REDHIP_JOBS");
    }
}
