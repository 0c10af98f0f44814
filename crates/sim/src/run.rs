//! The run harness: drives per-core trace streams through a [`System`].

use crate::config::SimConfig;
use crate::stats::{PredictionStats, PrefetchSummary};
use crate::system::System;
use cache_sim::{HierarchyStats, Traversal};
use energy_model::EnergyReport;
use mem_trace::record::TraceRecord;
use mem_trace::{DynTrace, IterFeed, TraceFeed};
use minijson::{json, FromJson, Json, ToJson};
use telemetry::{NullObserver, SimObserver};

/// A per-core bulk record producer — the refill side of the harness.
///
/// Synthetic generators arrive here wrapped in [`IterFeed`]; file-backed
/// traces ([`mem_trace::StreamTrace`]) implement [`TraceFeed`] natively
/// and service a refill with a `memcpy` out of their decoded chunk.
pub type CoreFeed = Box<dyn TraceFeed + Send>;

/// Everything measured in one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Execution time in cycles (slowest core).
    pub cycles: u64,
    /// References actually simulated per core.
    pub refs_per_core: Vec<u64>,
    /// Energy breakdown.
    pub energy: EnergyReport,
    /// Per-level cache statistics.
    pub hierarchy: HierarchyStats,
    /// Predictor outcome counters.
    pub prediction: PredictionStats,
    /// Prefetcher outcome counters (zeroes when prefetch is off).
    pub prefetch: PrefetchSummary,
}

impl RunResult {
    /// Total references simulated.
    pub fn total_refs(&self) -> u64 {
        self.refs_per_core.iter().sum()
    }

    /// Hit rate of cache level `i` (0 = L1).
    pub fn hit_rate(&self, level: usize) -> f64 {
        self.hierarchy.levels[level].hit_rate()
    }

    /// Execution cycles per *per-core* reference (diagnostic).
    ///
    /// `cycles` is wall-clock execution time — the slowest core's clock —
    /// so dividing by `total_refs()` would shrink with core count even
    /// when every core runs at the same speed. This divides by the **mean
    /// references per core** instead, i.e. it equals
    /// `cycles * cores / total_refs`: for a symmetric workload it matches
    /// each core's own cycles-per-reference and stays comparable across
    /// core counts. Returns 0.0 for an empty run.
    pub fn cycles_per_ref(&self) -> f64 {
        let refs = self.total_refs();
        if refs == 0 || self.refs_per_core.is_empty() {
            return 0.0;
        }
        let mean_refs_per_core = refs as f64 / self.refs_per_core.len() as f64;
        self.cycles as f64 / mean_refs_per_core
    }
}

impl ToJson for RunResult {
    fn to_json(&self) -> Json {
        json!({
            "cycles": self.cycles,
            "refs_per_core": &self.refs_per_core,
            "cycles_per_ref": self.cycles_per_ref(),
            "energy": self.energy.to_json(),
            "hierarchy": self.hierarchy.to_json(),
            "prediction": self.prediction.to_json(),
            "prefetch": self.prefetch.to_json(),
        })
    }
}

impl FromJson for RunResult {
    /// Rehydrates a serialized result (the sweep crate's on-disk cache).
    /// `cycles_per_ref` is derived and therefore ignored on load; every
    /// stored field round-trips exactly (floats serialize via Rust's
    /// shortest-roundtrip formatting), so a rehydrated result
    /// re-serializes byte-identically.
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            cycles: v.u64_of("cycles")?,
            refs_per_core: v
                .arr_of("refs_per_core")?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .ok_or_else(|| "refs_per_core: not a u64".to_string())
                })
                .collect::<Result<_, _>>()?,
            energy: EnergyReport::from_json(v.member("energy")?)?,
            hierarchy: HierarchyStats::from_json(v.member("hierarchy")?)?,
            prediction: PredictionStats::from_json(v.member("prediction")?)?,
            prefetch: PrefetchSummary::from_json(v.member("prefetch")?)?,
        })
    }
}

/// Per-core "physical" address mapping.
///
/// Two components model what distinct processes see on a real machine:
///
/// * a high-bit offset at `cfg.address_space_bit` makes the address spaces
///   disjoint, so duplicated traces *compete* for the shared LLC instead of
///   sharing data (the paper's multi-programmed setup);
/// * a page-granular scramble (XOR of the 4 KB page number with a per-core
///   constant; identity for core 0) stands in for the OS's physical page
///   allocation. Without it, identical virtual streams would carry
///   identical low address bits on every core and alias *systematically*
///   in the bits-hashed prediction table — something that cannot happen
///   with real per-process page tables. Page-internal locality (and the
///   L1 index bits) is preserved; streams crossing page boundaries lose
///   physical contiguity, exactly as on real hardware.
fn core_physical(cfg: &SimConfig, core: usize, addr: u64) -> u64 {
    let scramble = (core as u64).wrapping_mul(0x9e37_79b9) & 0x03ff_ffff; // bits 12..38
    let scrambled = addr ^ (scramble << 12);
    if cfg.address_space_bit == 0 {
        scrambled
    } else {
        scrambled | ((core as u64) << cfg.address_space_bit)
    }
}

/// Runs `cfg` over one trace generator per core.
///
/// Each core's addresses pass through the per-core physical mapping
/// (`core_physical` above). The interleaving
/// advances whichever core has the smallest local clock, so faster cores
/// issue more requests per unit time — the same approximation the paper's
/// trace-driven simulator makes.
///
/// # Panics
/// Panics when the number of traces differs from the platform's core count
/// or the configuration is invalid.
pub fn run_traces(cfg: &SimConfig, traces: Vec<DynTrace>) -> RunResult {
    run_traces_with(cfg, traces, NullObserver).0
}

/// Runs `cfg` over one [`TraceFeed`] per core. Identical semantics to
/// [`run_traces`] — in fact `run_traces` is this function with every
/// iterator wrapped in [`IterFeed`] — but a feed that produces records in
/// bulk (a [`mem_trace::StreamTrace`] replaying a file) refills the
/// harness buffer without a per-record virtual call.
pub fn run_feeds(cfg: &SimConfig, feeds: Vec<CoreFeed>) -> RunResult {
    run_feeds_with(cfg, feeds, NullObserver).0
}

/// Records pulled ahead per refill of a [`BufferedTrace`].
const TRACE_CHUNK: usize = 128;

/// Chunked pull-ahead over a boxed trace feed. Refilling an array of
/// records at a time amortizes the dynamic dispatch of the feed across
/// [`TRACE_CHUNK`] references and lets the producer's state machine run
/// hot, instead of paying an indirect call on every iteration of the
/// scheduler's innermost loop. The record sequence is unchanged; records
/// a core produced but never consumed (target reached mid-chunk) are
/// simply dropped, as producers carry no cross-core state.
struct BufferedTrace {
    src: CoreFeed,
    buf: Vec<TraceRecord>,
    pos: usize,
}

impl BufferedTrace {
    fn new(src: CoreFeed) -> Self {
        Self {
            src,
            buf: Vec::with_capacity(TRACE_CHUNK),
            pos: 0,
        }
    }

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if self.src.refill(&mut self.buf, TRACE_CHUNK) == 0 {
                return None;
            }
        }
        let r = self.buf[self.pos];
        self.pos += 1;
        Some(r)
    }
}

/// Like [`run_traces`], but reports telemetry to `obs` while running and
/// returns it (after its final
/// [`on_window_close`](SimObserver::on_window_close)) alongside the
/// result.
///
/// # Panics
/// Panics when the number of traces differs from the platform's core count
/// or the configuration is invalid.
pub fn run_traces_with<O: SimObserver>(
    cfg: &SimConfig,
    traces: Vec<DynTrace>,
    obs: O,
) -> (RunResult, O) {
    let feeds = traces
        .into_iter()
        .map(|t| Box::new(IterFeed::new(t)) as CoreFeed)
        .collect();
    run_feeds_with(cfg, feeds, obs)
}

/// Picks the core to step next from the per-core clocks (finished cores
/// at +inf): the lowest-index core holding the smallest clock, and the
/// second-smallest clock, which equals the smallest on a tie. `None` when
/// every clock is +inf.
///
/// The scan has no data-dependent branch. Clocks are non-negative or +inf,
/// so their IEEE-754 bit patterns order as `u64`s, and each core costs a
/// few integer compares and conditional moves. A strict `<` keeps the
/// lowest index among equal clocks.
#[inline]
fn next_core(clk: &[f64]) -> Option<(usize, f64)> {
    const INF: u64 = f64::INFINITY.to_bits();
    let mut best = INF;
    let mut next = INF;
    let mut core = 0;
    for (c, &v) in clk.iter().enumerate() {
        let bits = v.to_bits();
        let lower = bits < best;
        next = next.min(best.max(bits));
        core = if lower { c } else { core };
        best = best.min(bits);
    }
    (best != INF).then(|| (core, f64::from_bits(next)))
}

/// Like [`run_feeds`], but reports telemetry to `obs` while running and
/// returns it alongside the result.
///
/// # Panics
/// Panics when the number of feeds differs from the platform's core count
/// or the configuration is invalid.
pub fn run_feeds_with<O: SimObserver>(
    cfg: &SimConfig,
    feeds: Vec<CoreFeed>,
    obs: O,
) -> (RunResult, O) {
    assert_eq!(
        feeds.len(),
        cfg.platform.cores,
        "need exactly one trace per core"
    );
    let mut system = System::with_observer(cfg.clone(), obs);
    let cores = feeds.len();

    let mut traces: Vec<BufferedTrace> = feeds.into_iter().map(BufferedTrace::new).collect();
    let mut counts = vec![0u64; cores];
    let target = cfg.refs_per_core as u64;
    let mut scratch = Traversal::new();

    // Local mirror of the per-core clocks, with finished cores pinned at
    // +inf so that `next_core` is a sweep over one dense array: +inf never
    // wins the minimum, which excludes a finished core from selection
    // exactly as a skip would, and when everything is +inf the loop ends.
    let mut clk: Vec<f64> = system.clocks().to_vec();

    // Advance the core with the smallest clock among unfinished cores.
    // While the chosen core stays *strictly* below the second-smallest
    // clock, the scan would keep picking the same core, so it is stepped
    // in a batch without re-deriving the argmin per reference.
    while let Some((core, next_best)) = next_core(&clk) {
        loop {
            match traces[core].next() {
                Some(mut rec) => {
                    rec.addr = core_physical(cfg, core, rec.addr);
                    let recalibs = system.recalibration_count();
                    let now = system.step_with(core, &rec, &mut scratch);
                    clk[core] = now;
                    counts[core] += 1;
                    if counts[core] >= target {
                        clk[core] = f64::INFINITY;
                        break;
                    }
                    // Recalibration advances *every* clock; resync the
                    // mirror and recompute the schedule from scratch.
                    if system.recalibration_count() != recalibs {
                        for (c, v) in clk.iter_mut().enumerate() {
                            if v.is_finite() {
                                *v = system.clocks()[c];
                            }
                        }
                        break;
                    }
                    if now >= next_best {
                        break;
                    }
                }
                None => {
                    clk[core] = f64::INFINITY;
                    break;
                }
            }
        }
    }

    let result = RunResult {
        cycles: system.cycles(),
        refs_per_core: counts,
        energy: system.finalize_energy(),
        hierarchy: system.hierarchy().stats().clone(),
        prediction: system.prediction_stats(),
        prefetch: system.prefetch_summary(),
    };
    (result, system.into_observer())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::Mechanism;
    use energy_model::presets::demo_scale;
    use mem_trace::record::MemOp;

    fn tiny_cfg(mechanism: Mechanism) -> SimConfig {
        let mut platform = demo_scale();
        platform.cores = 2;
        let mut c = SimConfig::new(platform, mechanism);
        c.refs_per_core = 40_000;
        c.recalib_period = Some(2_000);
        c
    }

    fn stream(seed: u64) -> DynTrace {
        // Deterministic mixed stream: a hot 8 KB region comfortably inside
        // L1 (7 of 8 refs) plus cold, never-reused misses (1 of 8) that the
        // predictor should learn to bypass.
        Box::new((0..u64::MAX).map(move |i| {
            let x = (i.wrapping_mul(6364136223846793005).wrapping_add(seed)) >> 33;
            let addr = if i % 8 != 0 {
                (x % 128) * 64 // hot 8 KB region
            } else {
                0x1000_0000 + (x % (1 << 22)) * 64 // cold 256 MB region
            };
            TraceRecord::new(
                0x400 + (i % 7) * 4,
                addr,
                if i % 5 == 0 {
                    MemOp::Store
                } else {
                    MemOp::Load
                },
                2,
            )
        }))
    }

    /// The scheduler's scan before it went branch-free, kept as the
    /// reference `next_core` must reproduce.
    fn branchy_next_core(clk: &[f64]) -> Option<(usize, f64)> {
        let mut core = usize::MAX;
        let mut best = f64::INFINITY;
        let mut next_best = f64::INFINITY;
        for (c, &v) in clk.iter().enumerate() {
            if v < best {
                next_best = best;
                best = v;
                core = c;
            } else if v < next_best {
                next_best = v;
            }
        }
        (core != usize::MAX).then_some((core, next_best))
    }

    #[test]
    fn branch_free_scan_matches_the_branchy_reference() {
        // A small pool of shared values makes exact ties (at the minimum
        // and above it) common; +inf marks finished cores.
        const POOL: [f64; 5] = [0.0, 1.5, 1.5000000000000002, 7.0, f64::MAX];
        let mut x = 0x5eed_cafe_f00d_u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut clk = Vec::with_capacity(8);
        let (mut ties, mut finished) = (0, 0);
        for _ in 0..100_000 {
            clk.clear();
            let cores = 1 + (rnd() % 8) as usize;
            for _ in 0..cores {
                let r = rnd();
                clk.push(match r % 10 {
                    0..=1 => f64::INFINITY,
                    2..=5 => POOL[(r >> 8) as usize % POOL.len()],
                    _ => (r >> 11) as f64 * 0.25,
                });
            }
            let want = branchy_next_core(&clk);
            let got = next_core(&clk);
            assert_eq!(
                got.map(|(c, n)| (c, n.to_bits())),
                want.map(|(c, n)| (c, n.to_bits())),
                "clocks {clk:?}"
            );
            if let Some((core, next)) = want {
                ties += usize::from(next == clk[core]);
            } else {
                finished += 1;
            }
        }
        assert!(
            ties > 1_000 && finished > 1_000,
            "{ties} ties, {finished} all-finished"
        );
    }

    #[test]
    fn base_run_produces_sane_counts() {
        let cfg = tiny_cfg(Mechanism::Base);
        let r = run_traces(&cfg, vec![stream(1), stream(2)]);
        assert_eq!(r.total_refs(), 80_000);
        assert!(r.cycles > 0);
        assert!(r.hit_rate(0) > 0.5, "L1 hit rate {}", r.hit_rate(0));
        assert!(r.energy.total_dynamic_j() > 0.0);
        assert_eq!(r.prediction.lookups, 0);
    }

    #[test]
    fn redhip_bypasses_and_saves_dynamic_energy() {
        let base = run_traces(&tiny_cfg(Mechanism::Base), vec![stream(1), stream(2)]);
        let red = run_traces(&tiny_cfg(Mechanism::Redhip), vec![stream(1), stream(2)]);
        assert!(red.prediction.bypasses > 0, "no bypasses happened");
        assert!(
            red.energy.total_dynamic_j() < base.energy.total_dynamic_j(),
            "ReDHiP {} !< Base {}",
            red.energy.total_dynamic_j(),
            base.energy.total_dynamic_j()
        );
        assert!(red.prediction.recalibrations > 0);
    }

    #[test]
    fn oracle_is_at_least_as_good_as_redhip_on_dynamic_energy() {
        let red = run_traces(&tiny_cfg(Mechanism::Redhip), vec![stream(1), stream(2)]);
        let ora = run_traces(&tiny_cfg(Mechanism::Oracle), vec![stream(1), stream(2)]);
        assert!(ora.energy.total_dynamic_j() <= red.energy.total_dynamic_j() * 1.001);
        assert!(ora.cycles <= red.cycles);
        assert_eq!(ora.prediction.false_positives, 0);
    }

    #[test]
    fn phased_saves_energy_but_costs_cycles() {
        let base = run_traces(&tiny_cfg(Mechanism::Base), vec![stream(1), stream(2)]);
        let ph = run_traces(&tiny_cfg(Mechanism::Phased), vec![stream(1), stream(2)]);
        assert!(ph.energy.total_dynamic_j() < base.energy.total_dynamic_j());
        assert!(ph.cycles >= base.cycles);
    }

    #[test]
    fn early_ending_trace_is_tolerated() {
        let cfg = tiny_cfg(Mechanism::Base);
        let short: DynTrace = Box::new((0..100u64).map(|i| TraceRecord::load(0x400, i * 64)));
        let r = run_traces(&cfg, vec![short, stream(2)]);
        assert_eq!(r.refs_per_core[0], 100);
        assert_eq!(r.refs_per_core[1], 40_000);
    }

    #[test]
    #[should_panic]
    fn wrong_trace_count_panics() {
        let cfg = tiny_cfg(Mechanism::Base);
        let _ = run_traces(&cfg, vec![stream(1)]);
    }

    fn synthetic_result(cycles: u64, refs_per_core: Vec<u64>) -> RunResult {
        RunResult {
            cycles,
            refs_per_core,
            energy: EnergyReport {
                dynamic_by_level_j: Vec::new(),
                predictor_dynamic_j: 0.0,
                recalibration_j: 0.0,
                prefetcher_j: 0.0,
                leakage_by_level_j: Vec::new(),
                predictor_leakage_j: 0.0,
                cycles,
                seconds: 0.0,
            },
            hierarchy: HierarchyStats::new(0),
            prediction: PredictionStats::default(),
            prefetch: PrefetchSummary::default(),
        }
    }

    #[test]
    fn cycles_per_ref_pins_per_core_average_formula() {
        // cycles * cores / total_refs: 1000 * 2 / 400 = 5.0, even with
        // asymmetric per-core reference counts.
        let r = synthetic_result(1000, vec![100, 300]);
        assert!((r.cycles_per_ref() - 5.0).abs() < 1e-12);
        // Single core degenerates to cycles / refs.
        let r1 = synthetic_result(1000, vec![400]);
        assert!((r1.cycles_per_ref() - 2.5).abs() < 1e-12);
        // Doubling the core count at the same wall clock and per-core
        // reference counts must not change the metric (total refs double,
        // but so does the core count).
        let r4 = synthetic_result(1000, vec![100, 300, 100, 300]);
        assert!((r4.cycles_per_ref() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cycles_per_ref_guards_empty_runs() {
        assert_eq!(synthetic_result(1000, vec![]).cycles_per_ref(), 0.0);
        assert_eq!(synthetic_result(1000, vec![0, 0]).cycles_per_ref(), 0.0);
    }

    #[test]
    fn stream_feeds_replay_identically_to_generators() {
        // Record the two generator streams interleaved by index into one
        // v2 buffer, then replay each core from its interleave shard.
        // The scheduler, address mapping, and recalibration logic all see
        // the exact same per-core sequences, so every statistic — energy
        // floats included — must be byte-identical.
        use mem_trace::codec::encode_v2_chunked;
        use mem_trace::{ShardSpec, StreamTrace};
        let cfg = tiny_cfg(Mechanism::Redhip);
        let n = cfg.refs_per_core;
        let per_core: Vec<Vec<TraceRecord>> = [1u64, 2]
            .iter()
            .map(|&s| stream(s).take(n).collect())
            .collect();
        let mut merged = Vec::with_capacity(2 * n);
        for i in 0..n {
            for core in &per_core {
                merged.push(core[i]);
            }
        }
        let base = StreamTrace::from_bytes(encode_v2_chunked(&merged, 1 << 10)).unwrap();
        let feeds: Vec<CoreFeed> = (0..2)
            .map(|c| {
                Box::new(base.shard(ShardSpec::Interleave {
                    shards: 2,
                    index: c,
                })) as CoreFeed
            })
            .collect();
        let from_file = run_feeds(&cfg, feeds);
        let from_gen = run_traces(&cfg, vec![stream(1), stream(2)]);
        assert_eq!(from_gen.to_json().pretty(), from_file.to_json().pretty());
    }

    #[test]
    fn run_result_roundtrips_byte_identically_through_json() {
        let cfg = tiny_cfg(Mechanism::Redhip);
        let r = run_traces(&cfg, vec![stream(1), stream(2)]);
        let text = r.to_json().pretty();
        let back = RunResult::from_json(&minijson::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().pretty(), text);
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.total_refs(), r.total_refs());
    }

    #[test]
    fn run_traces_with_returns_flushed_observer() {
        use telemetry::WindowedCollector;
        let cfg = tiny_cfg(Mechanism::Redhip);
        let collector = WindowedCollector::new(10_000, cfg.platform.levels.len());
        let (r, obs) = run_traces_with(&cfg, vec![stream(1), stream(2)], collector);
        let window_refs: u64 = obs.windows().map(|w| w.refs).sum();
        assert_eq!(window_refs, r.total_refs());
        assert!(obs.recalibrations().count() > 0);
    }
}
