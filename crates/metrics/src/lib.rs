//! Process-wide metrics registry: atomic counters, gauges, log2-bucket
//! histograms, and span timers, plus the `redhip-metrics/v1` snapshot and
//! the [`RunManifest`] run-identity record.
//!
//! Everything is `std`-only and allocation-free on the record path. All
//! metrics are defined *centrally* in this crate as `static` items (see
//! the "registry" section below), so instrumented crates — the worker
//! pool, the sweep engine, trace ingestion, the predictor registry —
//! just call e.g. `metrics::POOL_STEALS.incr()` without any
//! registration protocol, and the snapshot writer can enumerate every
//! metric from one table.
//!
//! The registry is **disabled by default**: every record operation first
//! loads one relaxed [`AtomicBool`] and returns, so uninstrumented runs
//! pay a single predictable branch per site (the observer-overhead bench
//! pins this within noise). Enable it with [`enable`] — the CLIs do so
//! when `--metrics` is passed.
//!
//! Values accumulate monotonically for the lifetime of the process; there
//! is deliberately no reset (tests assert before/after deltas instead, so
//! parallel test threads never stomp each other).

use minijson::{json, Json, ToJson};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Schema tag on the first line of every metrics snapshot.
pub const METRICS_SCHEMA: &str = "redhip-metrics/v1";

/// Schema tag inside every run manifest.
pub const MANIFEST_SCHEMA: &str = "redhip-manifest/v1";

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric recording on for the whole process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns metric recording off (records become no-ops again).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the registry is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ------------------------------------------------------------ metric types

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A new counter named `name` (`const`: counters are `static` items).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n`. No-op while the registry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value gauge that also tracks its high-water mark.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    high: AtomicU64,
}

impl Gauge {
    /// A new gauge named `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            high: AtomicU64::new(0),
        }
    }

    /// Records the current value (and bumps the high-water mark).
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
            self.high.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Last recorded value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Largest value ever recorded.
    pub fn high(&self) -> u64 {
        self.high.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` counts values whose bit length
/// is `i` (so `[2^(i-1), 2^i)`), with everything `>= 2^62` folded into the
/// last bucket and zero in bucket 0.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed log2-bucket histogram.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// A new histogram named `name`.
    pub const fn new(name: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            let b = (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
            self.buckets[b].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (mean = sum / count).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect()
    }
}

/// A span timer: accumulated wall nanoseconds plus a span count.
///
/// [`Timer::start`] returns a guard that records on drop; when the
/// registry is disabled the guard holds no [`Instant`] and drop is free.
#[derive(Debug)]
pub struct Timer {
    name: &'static str,
    nanos: AtomicU64,
    count: AtomicU64,
}

impl Timer {
    /// A new timer named `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Starts a span; the returned guard records the elapsed wall time
    /// when dropped.
    #[inline]
    pub fn start(&self) -> Span<'_> {
        Span {
            timer: self,
            started: if enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Records `ns` nanoseconds directly (one span).
    #[inline]
    pub fn add_ns(&self, ns: u64) {
        if enabled() {
            self.nanos.fetch_add(ns, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accumulated nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Accumulated seconds.
    pub fn secs(&self) -> f64 {
        self.nanos() as f64 / 1e9
    }

    /// Number of spans recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// Drop guard returned by [`Timer::start`].
#[derive(Debug)]
pub struct Span<'a> {
    timer: &'a Timer,
    started: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.started.take() {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            // Record even if the registry was disabled mid-span: the span
            // was started under an enabled registry, so its time counts.
            self.timer.nanos.fetch_add(ns, Ordering::Relaxed);
            self.timer.count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------- registry
//
// Every metric in the process, defined here so snapshots can enumerate
// them from one table. Naming: `<subsystem>.<what>`, with phase timers
// under `phase.*` (those become the manifest's phase-timing breakdown).

/// Worker-thread count of the most recent pool run (high = max ever).
pub static POOL_WORKERS: Gauge = Gauge::new("pool.workers");
/// Jobs executed by pool workers (local pops + injector + steals).
pub static POOL_JOBS: Counter = Counter::new("pool.jobs");
/// Jobs obtained by stealing from another worker's deque.
pub static POOL_STEALS: Counter = Counter::new("pool.steals");
/// Wall nanoseconds workers spent running jobs.
pub static POOL_BUSY_NS: Counter = Counter::new("pool.busy_ns");
/// Wall nanoseconds workers spent spinning/sleeping for work.
pub static POOL_IDLE_NS: Counter = Counter::new("pool.idle_ns");
/// Pending-job count sampled each time a worker looks for work.
pub static POOL_QUEUE_DEPTH: Histogram = Histogram::new("pool.queue_depth");

/// Sweep cells served from the result cache (memory or disk).
pub static SWEEP_CACHE_HITS: Counter = Counter::new("sweep.cache_hits");
/// Sweep cells that had to be simulated.
pub static SWEEP_CACHE_MISSES: Counter = Counter::new("sweep.cache_misses");
/// Cells actually simulated (after dedup and cache).
pub static SWEEP_CELLS_SIMULATED: Counter = Counter::new("sweep.cells_simulated");
/// References simulated across all cells of a sweep.
pub static SWEEP_REFS_SIMULATED: Counter = Counter::new("sweep.refs_simulated");

/// v2 trace chunks decoded from disk.
pub static TRACE_CHUNKS_DECODED: Counter = Counter::new("trace.chunks_decoded");
/// Feed refills that stalled on decoding at least one new chunk.
pub static TRACE_REFILL_STALLS: Counter = Counter::new("trace.refill_stalls");

/// Registry-predictor probes (one per L1 miss of a custom mechanism).
pub static PRED_PROBES: Counter = Counter::new("pred.probes");
/// Probes that produced a confident steer (level or off-chip).
pub static PRED_STEERED: Counter = Counter::new("pred.steered");
/// Confident steers that turned out wrong (penalty charged).
pub static PRED_MISPREDICTS: Counter = Counter::new("pred.mispredicts");
/// L1 hits whose tag-way reads were skipped by a memo (WayMemo).
pub static PRED_MEMO_SKIPS: Counter = Counter::new("pred.memo_skips");

/// Sweep planning (building the deduped job graph).
pub static PHASE_PLAN: Timer = Timer::new("phase.plan");
/// Simulation proper (the pool running cells, or a single run).
pub static PHASE_SIMULATE: Timer = Timer::new("phase.simulate");
/// Rendering figures/tables from simulated results.
pub static PHASE_RENDER: Timer = Timer::new("phase.render");

enum Metric {
    C(&'static Counter),
    G(&'static Gauge),
    H(&'static Histogram),
    T(&'static Timer),
}

fn registry() -> Vec<Metric> {
    use Metric::*;
    vec![
        G(&POOL_WORKERS),
        C(&POOL_JOBS),
        C(&POOL_STEALS),
        C(&POOL_BUSY_NS),
        C(&POOL_IDLE_NS),
        H(&POOL_QUEUE_DEPTH),
        C(&SWEEP_CACHE_HITS),
        C(&SWEEP_CACHE_MISSES),
        C(&SWEEP_CELLS_SIMULATED),
        C(&SWEEP_REFS_SIMULATED),
        C(&TRACE_CHUNKS_DECODED),
        C(&TRACE_REFILL_STALLS),
        C(&PRED_PROBES),
        C(&PRED_STEERED),
        C(&PRED_MISPREDICTS),
        C(&PRED_MEMO_SKIPS),
        T(&PHASE_PLAN),
        T(&PHASE_SIMULATE),
        T(&PHASE_RENDER),
    ]
}

// ---------------------------------------------------------------- snapshot

fn metric_json(m: &Metric) -> Json {
    match m {
        Metric::C(c) => json!({
            "kind": "counter",
            "name": c.name,
            "value": c.get(),
        }),
        Metric::G(g) => json!({
            "kind": "gauge",
            "name": g.name,
            "value": g.get(),
            "high": g.high(),
        }),
        Metric::H(h) => {
            let buckets: Vec<Json> = h
                .nonzero_buckets()
                .into_iter()
                .map(|(i, n)| json!([i as u64, n]))
                .collect();
            json!({
                "kind": "histogram",
                "name": h.name,
                "count": h.count(),
                "sum": h.sum(),
                "buckets": Json::Arr(buckets),
            })
        }
        Metric::T(t) => json!({
            "kind": "timer",
            "name": t.name,
            "count": t.count(),
            "total_ns": t.nanos(),
        }),
    }
}

/// The whole registry as `redhip-metrics/v1` JSONL: a schema header line
/// followed by one compact JSON object per metric.
pub fn snapshot_jsonl() -> String {
    let metrics = registry();
    let mut out = String::new();
    out.push_str(
        &json!({
            "schema": METRICS_SCHEMA,
            "metrics": metrics.len() as u64,
        })
        .dump(),
    );
    out.push('\n');
    for m in &metrics {
        out.push_str(&metric_json(m).dump());
        out.push('\n');
    }
    out
}

/// The whole registry as an aligned human-readable table.
pub fn snapshot_text() -> String {
    let mut out = String::from("=== metrics (redhip-metrics/v1) ===\n");
    for m in registry() {
        match m {
            Metric::C(c) => out.push_str(&format!("{:<24} {}\n", c.name, c.get())),
            Metric::G(g) => {
                out.push_str(&format!("{:<24} {} (high {})\n", g.name, g.get(), g.high()))
            }
            Metric::H(h) => {
                let mean = if h.count() > 0 {
                    h.sum() as f64 / h.count() as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "{:<24} n={} mean={:.1}\n",
                    h.name,
                    h.count(),
                    mean
                ));
            }
            Metric::T(t) => out.push_str(&format!(
                "{:<24} {:.3}s over {} span(s)\n",
                t.name,
                t.secs(),
                t.count()
            )),
        }
    }
    out
}

/// The `phase.*` timers as one JSON object (`{"plan_s": .., ...}`),
/// the manifest's phase-timing breakdown.
pub fn phase_timings_json() -> Json {
    json!({
        "plan_s": PHASE_PLAN.secs(),
        "simulate_s": PHASE_SIMULATE.secs(),
        "render_s": PHASE_RENDER.secs(),
    })
}

// ---------------------------------------------------------------- manifest

/// Deterministic identity of one simulation run.
///
/// Two kinds of consumer read a manifest, with different rules:
///
/// * **Diffed artifacts** (result-cache entries, figure outputs) embed
///   [`RunManifest::to_json`], which carries *only* fields that are
///   byte-identical across `--jobs` settings and across
///   machines — the repo's determinism guarantees extend to them.
/// * **`--metrics` output** uses [`RunManifest::to_json_with_phases`],
///   which additionally carries the wall-clock phase-timing breakdown
///   (never written into diffed artifacts).
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Mechanism name (`base`/`redhip`/...).
    pub mechanism: String,
    /// Full canonical predictor spec (`level-pred:conf=2,max=3,penalty=8`):
    /// unlike `mechanism`, it distinguishes two parameterizations of the
    /// same mechanism.
    pub predictor_spec: String,
    /// Workload identity (benchmark name or trace-file identity tag).
    pub workload: String,
    /// Deterministic seed tag: how the workload's streams were seeded
    /// (synthetic generators seed from `(core, scale)`; trace files replay
    /// fixed bytes).
    pub seed: String,
    /// FNV-1a hash of the canonical configuration key.
    pub config_hash: u64,
}

impl RunManifest {
    /// Deterministic identity fields only — safe to embed in artifacts
    /// that are byte-compared across job counts.
    pub fn to_json(&self) -> Json {
        json!({
            "schema": MANIFEST_SCHEMA,
            "mechanism": &self.mechanism,
            "predictor_spec": &self.predictor_spec,
            "workload": &self.workload,
            "seed": &self.seed,
            "config_hash": format!("{:016x}", self.config_hash),
        })
    }

    /// Identity fields plus the registry's phase-timing breakdown.
    pub fn to_json_with_phases(&self) -> Json {
        let mut v = self.to_json();
        v.set("phases", phase_timings_json());
        v
    }
}

impl ToJson for RunManifest {
    fn to_json(&self) -> Json {
        RunManifest::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and tests run on parallel threads,
    // so every assertion is a before/after delta and nothing resets it.
    // The on/off flag is global too: a test that records holds this lock,
    // so `counters_are_inert_until_enabled` cannot switch the registry off
    // under it.
    static FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn hold_flag() -> std::sync::MutexGuard<'static, ()> {
        FLAG.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_are_inert_until_enabled() {
        let _flag = hold_flag();
        static C: Counter = Counter::new("test.inert");
        disable();
        C.add(5);
        assert_eq!(C.get(), 0);
        enable();
        C.add(5);
        C.incr();
        assert_eq!(C.get(), 6);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let _flag = hold_flag();
        static G: Gauge = Gauge::new("test.gauge");
        enable();
        G.set(7);
        G.set(3);
        assert_eq!(G.get(), 3);
        assert_eq!(G.high(), 7);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let _flag = hold_flag();
        static H: Histogram = Histogram::new("test.hist");
        enable();
        let before = H.count();
        H.record(0); // bucket 0
        H.record(1); // bucket 1
        H.record(9); // bucket 4
        assert_eq!(H.count() - before, 3);
        let buckets = H.nonzero_buckets();
        assert!(buckets.iter().any(|&(i, _)| i == 0));
        assert!(buckets.iter().any(|&(i, _)| i == 1));
        assert!(buckets.iter().any(|&(i, _)| i == 4));
    }

    #[test]
    fn timer_spans_accumulate() {
        let _flag = hold_flag();
        static T: Timer = Timer::new("test.timer");
        enable();
        let (n0, c0) = (T.nanos(), T.count());
        {
            let _span = T.start();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        T.add_ns(1_000);
        assert!(T.nanos() - n0 >= 2_000_000 + 1_000);
        assert_eq!(T.count() - c0, 2);
    }

    #[test]
    fn snapshot_first_line_carries_schema() {
        let _flag = hold_flag();
        enable();
        POOL_STEALS.incr();
        let snap = snapshot_jsonl();
        let first = snap.lines().next().expect("header");
        let doc = minijson::parse(first).expect("header parses");
        assert_eq!(doc.str_of("schema").unwrap(), METRICS_SCHEMA);
        let n = doc.u64_of("metrics").unwrap() as usize;
        assert_eq!(snap.lines().count(), n + 1);
        // Every metric line parses and is one of the known kinds.
        for line in snap.lines().skip(1) {
            let m = minijson::parse(line).expect("metric line parses");
            assert!(matches!(
                m.str_of("kind").unwrap(),
                "counter" | "gauge" | "histogram" | "timer"
            ));
            assert!(!m.str_of("name").unwrap().is_empty());
        }
        assert!(snapshot_text().contains("pool.steals"));
    }

    #[test]
    fn manifest_json_is_deterministic_and_phased_variant_adds_timings() {
        let m = RunManifest {
            mechanism: "redhip".into(),
            predictor_spec: "redhip".into(),
            workload: "mcf".into(),
            seed: "synth:mcf/demo".into(),
            config_hash: 0xdead_beef,
        };
        let v = m.to_json();
        assert_eq!(v.str_of("schema").unwrap(), MANIFEST_SCHEMA);
        assert_eq!(v.str_of("config_hash").unwrap(), "00000000deadbeef");
        assert!(
            v.get("phases").is_none(),
            "identity form carries no timings"
        );
        let p = m.to_json_with_phases();
        assert!(p.get("phases").is_some());
        assert!(p["phases"].f64_of("simulate_s").is_ok());
    }
}
