//! The traced run: per-layer costs and counts, each timed around public
//! calls from this file, plus the attribution residual and the tracing
//! overhead of the chosen workload.
//!
//! Every traced run reports every per-layer metric. The chosen workload
//! runs for the full `--seconds` with tracing on in every second round;
//! the other runs its minimum of one untraced and one traced round, and
//! the sweep one untraced and one traced pass, which is enough for their
//! layer numbers.

use crate::common::{run_memory, timed, Report, Rounds};
use crate::stats::{median, percentile, residual_frac};
use crate::tracer::Tracer;
use crate::{replay_v2 as replay, sweep_smoke as sweep, walk_demo as walk};
use bench::harness::{mechanism_config, FigureScale};
use cache_sim::{CacheConfig, DeepHierarchy, HierarchyConfig, Traversal};
use mem_trace::{TraceFeed, TraceRecord};
use redhip::PredictionTable;
use sim::{Mechanism, RunResult, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use workloads::{Benchmark, Scale};

/// Per-operation costs the attribution multiplies by operation counts.
struct Costs {
    /// ns per reference that hits L1 (scheduler + feed + hit path).
    hit_ns: f64,
    /// Extra ns per L1 miss that walks to memory.
    miss_ns: f64,
    /// ns per prediction-table probe.
    probe_ns: f64,
    /// ns per recalibration.
    recalib_ns: f64,
}

impl Costs {
    /// `(ns per operation, operations per reference)` over `runs`: every
    /// reference pays the hit path, every L1 miss the walk, every
    /// predictor lookup a probe, every recalibration a rebuild.
    fn parts(&self, runs: &[&RunResult]) -> Vec<(f64, f64)> {
        let sum = |f: &dyn Fn(&RunResult) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
        let refs = sum(&|r| r.total_refs());
        vec![
            (self.hit_ns, 1.0),
            (
                self.miss_ns,
                sum(&|r| r.hierarchy.levels[0].lookups - r.hierarchy.levels[0].hits) / refs,
            ),
            (self.probe_ns, sum(&|r| r.prediction.lookups) / refs),
            (
                self.recalib_ns,
                sum(&|r| r.prediction.recalibrations) / refs,
            ),
        ]
    }
}

/// Lower-case metric suffix of a mechanism (`ReDHiP` → `redhip`).
fn suffix(m: Mechanism) -> String {
    m.name().to_ascii_lowercase()
}

/// Runs `cfg` over `records` `n` times and returns the median ns/ref.
fn ns_per_ref(cfg: &sim::SimConfig, records: &[crate::common::CoreRecords], n: usize) -> f64 {
    let secs: Vec<f64> = (0..n).map(|_| run_memory(cfg, records).1).collect();
    median(&secs) * 1e9 / (cfg.refs_per_core * cfg.platform.cores) as f64
}

/// Per-core records produced by `addr(core, i)`.
fn synthetic(
    cores: usize,
    refs: usize,
    addr: impl Fn(usize, u64) -> u64,
) -> Vec<crate::common::CoreRecords> {
    (0..cores)
        .map(|c| {
            (0..refs as u64)
                .map(|i| TraceRecord::load(0x400_000 + (i % 16) * 4, addr(c, i)).with_gap(1))
                .collect()
        })
        .collect()
}

/// Hit and miss costs (ns) of the simulator on inputs that always hit L1
/// and always miss to memory; `System` construction time.
fn sim_probes(t: &mut Tracer, report: &mut Report) -> (f64, f64) {
    let cfg = |refs| mechanism_config(FigureScale::Demo, Mechanism::Base, refs);
    let cores = cfg(1).platform.cores;
    // 64 blocks per core: 4 KB, resident in L1 after the first touch.
    let hits = synthetic(cores, 200_000, |_, i| (i % 64) * 64);
    let (hit_ns, _) = t.span("sim.run_feeds all-hit", || {
        ns_per_ref(&cfg(200_000), &hits, 3)
    });
    // Every reference a new block, so each misses every level; 8 × 50 k
    // blocks are three times the demo LLC, so fills evict.
    let misses = synthetic(cores, 50_000, |_, i| i * 64);
    let (all_miss_ns, _) = t.span("sim.run_feeds all-miss", || {
        ns_per_ref(&cfg(50_000), &misses, 3)
    });
    report.metric("sim.hit_ns", hit_ns, "ns");
    report.metric("sim.miss_ns", all_miss_ns - hit_ns, "ns");

    let smoke = mechanism_config(FigureScale::Smoke, Mechanism::Redhip, 20_000);
    let (secs, _) = t.span("sim.System::new", || {
        (0..20)
            .map(|_| timed(|| black_box(System::new(smoke.clone()))).1)
            .collect::<Vec<_>>()
    });
    report.metric("sim.system_new_ms", median(&secs) * 1e3, "ms");
    (hit_ns, all_miss_ns - hit_ns)
}

/// The demo platform's hierarchy, built as the simulator builds it.
fn demo_hierarchy() -> DeepHierarchy {
    let p = FigureScale::Demo.platform();
    let cc = |l: &energy_model::CacheSpec| CacheConfig::lru(l.capacity_bytes, l.assoc, 64);
    DeepHierarchy::new(&HierarchyConfig {
        cores: p.cores,
        private_levels: p.levels[..p.levels.len() - 1].iter().map(cc).collect(),
        shared_llc: cc(p.llc()),
        policy: cache_sim::InclusionPolicy::Inclusive,
    })
}

/// `DeepHierarchy` walks driven directly, a prediction-table probe, and a
/// table rebuild from the full LLC. Returns (probe ns, recalibration ns).
fn cache_and_redhip_probes(t: &mut Tracer, report: &mut Report) -> (f64, f64) {
    const WALKS: u64 = 1 << 21;
    let mut h = demo_hierarchy();
    let cores = h.cores() as u64;
    let mut tr = Traversal::new();
    let (_, secs) = t.span("cache_sim.lookup->fill", || {
        for i in 0..WALKS {
            let core = (i % cores) as usize;
            let block = (1 << 30) + i;
            tr.clear();
            if !h.access_first(core, block, false, &mut tr) {
                for lvl in 1..h.levels() {
                    black_box(h.lookup(core, lvl, block, &mut tr));
                }
                h.fill_from_memory(core, block, false, &mut tr);
            }
        }
    });
    report.metric("cache_sim.walk_ns", secs * 1e9 / WALKS as f64, "ns");

    const PROBES: u64 = 1 << 24;
    let mut table =
        PredictionTable::from_capacity_bytes(FigureScale::Demo.platform().predictor.size_bytes);
    table.recalibrate_from(h.llc().resident_blocks());
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let (present, secs) = t.span("redhip.PredictionTable::test", || {
        let mut present = 0u64;
        for _ in 0..PROBES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            present += table.test(black_box(x >> 20)) as u64;
        }
        present
    });
    black_box(present);
    let probe_ns = secs * 1e9 / PROBES as f64;
    report.metric("redhip.probe_ns", probe_ns, "ns");

    let (secs, _) = t.span("redhip.PredictionTable::recalibrate_from", || {
        (0..10)
            .map(|_| timed(|| table.recalibrate_from(h.llc().resident_blocks())).1)
            .collect::<Vec<_>>()
    });
    let recalib_ns = median(&secs) * 1e9;
    report.metric("redhip.recalib_us", recalib_ns / 1e3, "us");
    (probe_ns, recalib_ns)
}

/// Generator construction and per-record cost of all 11 workloads at
/// smoke scale, as one sweep cell pays them.
fn generator_probes(t: &mut Tracer, report: &mut Report) {
    let cores = FigureScale::Smoke.platform().cores;
    let refs = FigureScale::Smoke.default_refs();
    let (mut build_ns, mut gen_ns) = (Vec::new(), Vec::new());
    for b in Benchmark::ALL {
        let id = t.begin(format!("workloads.Benchmark::trace {}", b.name()));
        let (mut gens, build) = timed(|| {
            (0..cores)
                .map(|c| b.trace(c, Scale::Smoke))
                .collect::<Vec<_>>()
        });
        let (n, gen) = timed(|| {
            gens.iter_mut()
                .map(|g| g.take(refs).map(black_box).count())
                .sum::<usize>()
        });
        t.end(id);
        build_ns.push(build * 1e9);
        gen_ns.push(gen * 1e9 / n as f64);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    report.metric("workloads.build_ms", mean(&build_ns) / 1e6, "ms");
    report.metric("workloads.gen_ns_per_ref", mean(&gen_ns), "ns");
}

/// What a workload's traced stretch leaves for the overhead and residual.
struct Measured {
    /// Untraced and traced ns per simulated reference.
    untraced_ns: f64,
    traced_ns: f64,
    /// `(ns per operation, operations per reference)` of each layer.
    parts: Vec<(f64, f64)>,
}

impl Measured {
    fn from_rounds(rounds: &Rounds, parts: Vec<(f64, f64)>) -> Self {
        Measured {
            untraced_ns: 1e9 / rounds.rate(false),
            traced_ns: 1e9 / rounds.rate(true),
            parts,
        }
    }
}

fn walk_layer(
    seed: u64,
    secs: f64,
    t: &mut Tracer,
    report: &mut Report,
    costs: &Costs,
) -> Measured {
    let ((w, _), _) = t.span("workloads.generate astar+mcf", || walk::setup(seed));
    let mut setup_secs = Vec::new();
    let rounds = w.rounds(seed, secs, Some(t), report, &mut setup_secs);
    for m in walk::MECHANISMS {
        let (mut s, mut refs) = (0.0, 0.0);
        for b in 0..walk::BENCHES.len() {
            let c = w.cell(b, m);
            let traced = rounds.cell_secs(c, true);
            s += traced.iter().sum::<f64>();
            refs += (rounds.refs(c) * traced.len() as u64) as f64;
        }
        report.metric(
            format!("sim.ns_per_ref.{}", suffix(m)),
            s * 1e9 / refs,
            "ns",
        );
    }
    let of = |m: Mechanism| -> Vec<&RunResult> {
        (0..walk::BENCHES.len())
            .map(|b| &rounds.first[w.cell(b, m)])
            .collect()
    };
    let sum = |rs: &[&RunResult], f: &dyn Fn(&RunResult) -> u64| {
        rs.iter().map(|r| f(r)).sum::<u64>() as f64
    };
    let base = of(Mechanism::Base);
    let refs = sum(&base, &|r| r.total_refs());
    let llc = base[0].hierarchy.levels.len() - 1;
    report.metric(
        "sim.l1_miss_per_ref",
        sum(&base, &|r| {
            r.hierarchy.levels[0].lookups - r.hierarchy.levels[0].hits
        }) / refs,
        "1/ref",
    );
    report.metric(
        "sim.llc_miss_per_ref",
        sum(&base, &|r| {
            r.hierarchy.levels[llc].lookups - r.hierarchy.levels[llc].hits
        }) / refs,
        "1/ref",
    );
    let rh = of(Mechanism::Redhip);
    let lookups = sum(&rh, &|r| r.prediction.lookups);
    report.metric("redhip.lookups_per_ref", lookups / refs, "1/ref");
    report.metric(
        "redhip.accuracy",
        sum(&rh, &|r| r.prediction.bypasses + r.prediction.walk_hits) / lookups,
        "ratio",
    );
    report.metric(
        "redhip.recalibrations",
        sum(&rh, &|r| r.prediction.recalibrations),
        "count",
    );

    // Figure 14's stride prefetcher with ReDHiP, on the same records.
    let (pf, _) = t.span("sim.run_feeds prefetch", || {
        let mut s = 0.0;
        let mut refs = 0.0;
        for (b, &bench) in walk::BENCHES.iter().enumerate() {
            let mut cfg = walk::config(Mechanism::Redhip, bench, walk::REFS);
            cfg.prefetch = Some(prefetch::StrideConfig::default());
            let (r, secs) = run_memory(&cfg, &w.records[b]);
            report.op(crate::common::full_length(&r, &cfg), || {
                "prefetch cell ran short".into()
            });
            s += secs;
            refs += r.total_refs() as f64;
        }
        s * 1e9 / refs
    });
    report.metric("sim.ns_per_ref.prefetch", pf, "ns");

    Measured::from_rounds(
        &rounds,
        costs.parts(&rounds.first.iter().collect::<Vec<_>>()),
    )
}

fn replay_layer(
    seed: u64,
    secs: f64,
    t: &mut Tracer,
    report: &mut Report,
    costs: &Costs,
) -> Result<Measured, String> {
    let (setup, _) = t.span("replay set-up", || replay::setup(seed));
    let (rp, _) = setup?;
    let recs = rp.records.iter().map(|r| r.len()).sum::<usize>() as f64;
    let again =
        std::path::Path::new(replay::OUT_DIR).join(format!("encode-{}.trace", std::process::id()));
    let (bytes, enc) = t.span("mem_trace::stream::write_v2_file", || {
        replay::write(&rp.records, &again)
    });
    let _ = std::fs::remove_file(&again);
    report.metric("mem_trace.encode_ns_per_rec", enc * 1e9 / recs, "ns");
    report.metric("mem_trace.bytes_per_rec", bytes? as f64 / recs, "B");

    // Refill alone: drain every core's interleave cursor the way the
    // simulator's pull-ahead buffer does, 128 records per refill.
    let cores = rp.cells[0].1.platform.cores;
    let (drained, dec) = t.span("StreamTrace::refill", || {
        let mut buf = Vec::with_capacity(128);
        let mut n = 0usize;
        for c in 0..cores {
            let mut feed = rp.workload.feed(c, cores);
            loop {
                buf.clear();
                let got = feed.refill(&mut buf, 128);
                if got == 0 {
                    break;
                }
                n += got;
                black_box(&buf);
            }
        }
        n
    });
    report.op(drained as f64 == recs, || {
        "decoded record count differs".into()
    });
    let decode_ns = dec * 1e9 / recs;
    report.metric("mem_trace.decode_ns_per_rec", decode_ns, "ns");

    let mut setup_secs = Vec::new();
    let rounds = rp.rounds(seed, secs, Some(t), report, &mut setup_secs);
    let (mem_ns, _) = t.span("sim.run_feeds in-memory milc", || {
        ns_per_ref(&rp.cells[0].1, &rp.records, 2)
    });
    let replay_ns = {
        let s = rounds.cell_secs(0, true);
        s.iter().sum::<f64>() * 1e9 / (rounds.refs(0) * s.len() as u64) as f64
    };
    report.metric("mem_trace.feed_ns_per_ref", replay_ns - mem_ns, "ns");

    let mut parts = costs.parts(&rounds.first.iter().collect::<Vec<_>>());
    parts.push((decode_ns, 1.0));
    Ok(Measured::from_rounds(&rounds, parts))
}

/// The `figures` sweep at smoke scale: planning, one untraced and one
/// traced pass through the pool, per-cell times, and the correctness
/// checks. Prints ReDHiP's simulated averages over the 11 benchmarks
/// beside the paper's.
fn sweep_layer(t: &mut Tracer, report: &mut Report) {
    let (plans, _) = t.span("sweep::SweepPlan + plan_*", || {
        (0..20).map(|_| timed(sweep::plan)).collect::<Vec<_>>()
    });
    let plan_ms = median(&plans.iter().map(|p| p.1).collect::<Vec<_>>()) * 1e3;
    let sw = plans.into_iter().next().expect("planned").0;
    report.metric("sweep.plan_ms", plan_ms, "ms");
    report.metric("sweep.cells", sw.plan.len() as f64, "count");
    report.metric("sweep.dedup_hits", sw.plan.dedup_hits() as f64, "count");

    let (first, _) = sw.pass();
    sw.check_pass(first.as_ref(), None, report);
    let Some(first) = first else { return };
    sw.check_subset(&first, report);

    // The traced pass: span + metrics registry on, for the pool counters.
    let (busy0, steals0, cells0) = (
        metrics::POOL_BUSY_NS.get(),
        metrics::POOL_STEALS.get(),
        metrics::SWEEP_CELLS_SIMULATED.get(),
    );
    metrics::enable();
    let ((res, wall), _) = t.span("sweep::SweepEngine::run", || sw.pass());
    metrics::disable();
    sw.check_pass(res.as_ref(), Some(&first), report);
    let cells = metrics::SWEEP_CELLS_SIMULATED.get() - cells0;
    report.op(cells == sw.plan.len() as u64, || {
        format!(
            "the sweep counted {cells} simulated cells of {}",
            sw.plan.len()
        )
    });
    let busy = (metrics::POOL_BUSY_NS.get() - busy0) as f64 * 1e-9;
    let workers = sweep::WORKERS as f64;
    report.metric("pool.busy_frac", busy / (wall * workers), "ratio");
    report.metric(
        "pool.steals",
        (metrics::POOL_STEALS.get() - steals0) as f64,
        "count",
    );
    report.metric("sweep.tail_s", wall - busy / workers, "s");

    // Per-cell wall times, two threads taking cells in plan order.
    let next = AtomicUsize::new(0);
    let times = Mutex::new(Vec::new());
    let cells = sw.plan.cells();
    t.span("sweep::CellSpec::simulate x2 threads", || {
        std::thread::scope(|s| {
            for _ in 0..sweep::WORKERS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let ((), secs) = timed(|| {
                        black_box(cell.simulate());
                    });
                    times
                        .lock()
                        .expect("a timing thread panicked")
                        .push(secs * 1e3);
                });
            }
        })
    });
    let times = times.into_inner().expect("a timing thread panicked");
    report.metric("sweep.cell_ms.p50", percentile(&times, 50.0), "ms");
    report.metric("sweep.cell_ms.p90", percentile(&times, 90.0), "ms");

    let (speedup, dynamic) = crate::stats::redhip_geomeans(&sw.comparisons(&first));
    println!(
        "# simulated, unvalidated model, 11-benchmark smoke shoot-out vs the paper's averages: \
         ReDHiP speedup {speedup:.4} (paper {PAPER_SPEEDUP}, {:+.4}), dynamic energy {dynamic:.4} \
         (paper {PAPER_DYN_RATIO}, {:+.4})",
        speedup - PAPER_SPEEDUP,
        dynamic - PAPER_DYN_RATIO
    );
}

/// The paper's average ReDHiP speedup (+8 %) and dynamic energy (61 %
/// saving), as ratios to Base (EXPERIMENTS.md).
const PAPER_SPEEDUP: f64 = 1.08;
const PAPER_DYN_RATIO: f64 = 0.39;

/// The traced run of `workload`.
pub fn traced(workload: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut t = Tracer::new();
    let cpu0 = crate::host::cpu_times();
    let (hit_ns, miss_ns) = sim_probes(&mut t, &mut report);
    let (probe_ns, recalib_ns) = cache_and_redhip_probes(&mut t, &mut report);
    let costs = Costs {
        hit_ns,
        miss_ns,
        probe_ns,
        recalib_ns,
    };
    generator_probes(&mut t, &mut report);
    let secs = |w: &str| if w == workload { seconds } else { 0.0 };
    let walk = walk_layer(seed, secs("walk-demo"), &mut t, &mut report, &costs);
    let replay = replay_layer(seed, secs("replay-v2"), &mut t, &mut report, &costs)?;
    sweep_layer(&mut t, &mut report);
    let chosen = if workload == "walk-demo" {
        walk
    } else {
        replay
    };
    report.metric(
        "attrib.residual_frac",
        residual_frac(chosen.untraced_ns, &chosen.parts),
        "ratio",
    );
    report.metric(
        "trace.overhead_frac",
        chosen.traced_ns / chosen.untraced_ns - 1.0,
        "ratio",
    );
    report.metric(
        "host.steal_frac",
        crate::host::steal_frac(cpu0, crate::host::cpu_times()),
        "ratio",
    );
    std::fs::create_dir_all(replay::OUT_DIR)
        .map_err(|e| format!("cannot create {}: {e}", replay::OUT_DIR))?;
    let path = std::path::Path::new(replay::OUT_DIR).join(format!("spans-{workload}-{seed}.jsonl"));
    t.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: {} spans written to {}", t.len(), path.display());
    Ok(report)
}
