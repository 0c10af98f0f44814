//! Windowed time-series collection.
//!
//! A [`WindowedCollector`] buckets the hook stream into fixed-size windows
//! of N references per core and emits one [`WindowSample`] per closed
//! window, with [`RecalibMarker`]s interleaved in event order. Summing the
//! integer counters of all samples (plus markers, for energy/stalls)
//! reproduces the end-of-run aggregates exactly — the consistency
//! invariant the `sim` integration tests pin down.

use crate::SimObserver;
use minijson::{json, Json, ToJson};

/// Number of log2 latency buckets. Bucket 0 holds zero-cycle references,
/// bucket `b >= 1` holds latencies in `[2^(b-1), 2^b)`, and the final
/// bucket additionally absorbs everything larger.
pub const LATENCY_BUCKETS: usize = 16;

/// Bucket index for an access latency, per the [`LATENCY_BUCKETS`] scheme.
pub fn latency_bucket(cycles: u64) -> usize {
    let bits = (u64::BITS - cycles.leading_zeros()) as usize;
    bits.min(LATENCY_BUCKETS - 1)
}

/// Metrics for one closed window of references on one core.
///
/// All counters are raw integers over the window (energy excepted); the
/// rate methods derive the paper's headline metrics. Level vectors are
/// indexed by cache level, 0 = L1; they cover *demand* traversals only,
/// matching what `HierarchyStats` aggregates (prefetch probes and fills
/// are accounted separately by the simulator and appear here only through
/// `energy_nj`).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSample {
    /// Core the window belongs to.
    pub core: usize,
    /// Zero-based window index on this core.
    pub index: u64,
    /// Per-core reference number of the first reference in the window.
    pub start_ref: u64,
    /// References in the window (equal to the configured width except for
    /// a final partial window).
    pub refs: u64,
    /// Demand array lookups per cache level.
    pub level_lookups: Vec<u64>,
    /// Demand lookup hits per cache level.
    pub level_hits: Vec<u64>,
    /// Demand line fills per cache level.
    pub level_fills: Vec<u64>,
    /// Predicted-absent outcomes (hierarchy bypassed).
    pub bypasses: u64,
    /// Predicted-maybe-present outcomes where the walk hit on chip.
    pub walk_hits: u64,
    /// Predicted-maybe-present outcomes where the walk missed everywhere.
    pub false_positives: u64,
    /// Dynamic energy added during the window, nJ (demand + predictor +
    /// prefetch; recalibration energy is on the markers).
    pub energy_nj: f64,
    /// Summed serialized access latency of the window's references.
    pub access_cycles: u64,
    /// Log2-bucketed access-latency histogram (`LATENCY_BUCKETS` bins).
    pub latency_hist: Vec<u64>,
}

impl WindowSample {
    fn new(core: usize, index: u64, start_ref: u64, levels: usize) -> Self {
        Self {
            core,
            index,
            start_ref,
            refs: 0,
            level_lookups: vec![0; levels],
            level_hits: vec![0; levels],
            level_fills: vec![0; levels],
            bypasses: 0,
            walk_hits: 0,
            false_positives: 0,
            energy_nj: 0.0,
            access_cycles: 0,
            latency_hist: vec![0; LATENCY_BUCKETS],
        }
    }

    fn ensure_level(&mut self, level: usize) {
        if self.level_lookups.len() <= level {
            self.level_lookups.resize(level + 1, 0);
            self.level_hits.resize(level + 1, 0);
            self.level_fills.resize(level + 1, 0);
        }
    }

    fn is_empty(&self) -> bool {
        self.refs == 0
            && self.bypasses == 0
            && self.walk_hits == 0
            && self.false_positives == 0
            && self.level_lookups.iter().all(|&n| n == 0)
    }

    /// Predictor consultations in the window. Every lookup has exactly one
    /// outcome, so this is the sum of the three outcome counters.
    pub fn pred_lookups(&self) -> u64 {
        self.bypasses + self.walk_hits + self.false_positives
    }

    /// Fraction of true LLC misses the predictor caught, mirroring
    /// `PredictionStats::miss_coverage`.
    pub fn miss_coverage(&self) -> f64 {
        let misses = self.bypasses + self.false_positives;
        if misses == 0 {
            0.0
        } else {
            self.bypasses as f64 / misses as f64
        }
    }

    /// Fraction of predictions that were exactly right, mirroring
    /// `PredictionStats::accuracy`.
    pub fn accuracy(&self) -> f64 {
        let lookups = self.pred_lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.bypasses + self.walk_hits) as f64 / lookups as f64
        }
    }

    /// False positives per predictor lookup.
    pub fn false_positive_rate(&self) -> f64 {
        let lookups = self.pred_lookups();
        if lookups == 0 {
            0.0
        } else {
            self.false_positives as f64 / lookups as f64
        }
    }

    /// Bypasses per reference in the window.
    pub fn bypass_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.bypasses as f64 / self.refs as f64
        }
    }

    /// Hit rate of one cache level within the window; 0.0 when the level
    /// saw no lookups (or does not exist).
    pub fn hit_rate(&self, level: usize) -> f64 {
        match (self.level_hits.get(level), self.level_lookups.get(level)) {
            (Some(&h), Some(&n)) if n > 0 => h as f64 / n as f64,
            _ => 0.0,
        }
    }

    /// Mean access latency (cycles) of the window's references.
    pub fn mean_access_cycles(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.access_cycles as f64 / self.refs as f64
        }
    }
}

impl ToJson for WindowSample {
    fn to_json(&self) -> Json {
        let hit_rates: Vec<Json> = (0..self.level_lookups.len())
            .map(|l| Json::Float(self.hit_rate(l)))
            .collect();
        json!({
            "kind": "window",
            "core": self.core,
            "index": self.index,
            "start_ref": self.start_ref,
            "refs": self.refs,
            "level_lookups": &self.level_lookups,
            "level_hits": &self.level_hits,
            "level_fills": &self.level_fills,
            "bypasses": self.bypasses,
            "walk_hits": self.walk_hits,
            "false_positives": self.false_positives,
            "energy_nj": self.energy_nj,
            "access_cycles": self.access_cycles,
            "latency_hist": &self.latency_hist,
            "hit_rates": Json::Arr(hit_rates),
            "miss_coverage": self.miss_coverage(),
            "accuracy": self.accuracy(),
            "false_positive_rate": self.false_positive_rate(),
            "bypass_rate": self.bypass_rate(),
        })
    }
}

fn u64_vec(v: &Json, key: &str) -> Result<Vec<u64>, String> {
    v.arr_of(key)?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("{key}: not a u64")))
        .collect()
}

impl minijson::FromJson for WindowSample {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            core: v.u64_of("core")? as usize,
            index: v.u64_of("index")?,
            start_ref: v.u64_of("start_ref")?,
            refs: v.u64_of("refs")?,
            level_lookups: u64_vec(v, "level_lookups")?,
            level_hits: u64_vec(v, "level_hits")?,
            level_fills: u64_vec(v, "level_fills")?,
            bypasses: v.u64_of("bypasses")?,
            walk_hits: v.u64_of("walk_hits")?,
            false_positives: v.u64_of("false_positives")?,
            energy_nj: v.f64_of("energy_nj")?,
            access_cycles: v.u64_of("access_cycles")?,
            latency_hist: u64_vec(v, "latency_hist")?,
        })
    }
}

/// A completed recalibration, placed chronologically between window
/// samples. Kept separate from the per-core windows because recalibration
/// is a global event — folding its cost into one core's window would
/// double-count it when summing across cores.
#[derive(Debug, Clone, PartialEq)]
pub struct RecalibMarker {
    /// Zero-based recalibration number.
    pub index: u64,
    /// Energy charged for the table rebuild, nJ.
    pub energy_nj: f64,
    /// Stall cycles charged to every core.
    pub stall_cycles: u64,
    /// Per-core reference counts at the instant of the event — the x-axis
    /// position for sawtooth plots.
    pub core_refs: Vec<u64>,
}

impl ToJson for RecalibMarker {
    fn to_json(&self) -> Json {
        json!({
            "kind": "recalib",
            "index": self.index,
            "energy_nj": self.energy_nj,
            "stall_cycles": self.stall_cycles,
            "core_refs": &self.core_refs,
        })
    }
}

impl minijson::FromJson for RecalibMarker {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            index: v.u64_of("index")?,
            energy_nj: v.f64_of("energy_nj")?,
            stall_cycles: v.u64_of("stall_cycles")?,
            core_refs: u64_vec(v, "core_refs")?,
        })
    }
}

/// One line of the telemetry stream.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryRecord {
    /// A closed per-core window.
    Window(WindowSample),
    /// A global recalibration event.
    Recalib(RecalibMarker),
}

impl ToJson for TelemetryRecord {
    fn to_json(&self) -> Json {
        match self {
            TelemetryRecord::Window(w) => w.to_json(),
            TelemetryRecord::Recalib(r) => r.to_json(),
        }
    }
}

impl minijson::FromJson for TelemetryRecord {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.str_of("kind")? {
            "window" => Ok(TelemetryRecord::Window(WindowSample::from_json(v)?)),
            "recalib" => Ok(TelemetryRecord::Recalib(RecalibMarker::from_json(v)?)),
            other => Err(format!("unknown telemetry record kind {other:?}")),
        }
    }
}

/// Observer that closes a metrics window every N references per core.
#[derive(Debug, Clone)]
pub struct WindowedCollector {
    width: u64,
    levels: usize,
    current: Vec<WindowSample>,
    refs_done: Vec<u64>,
    recalibs: u64,
    records: Vec<TelemetryRecord>,
}

impl WindowedCollector {
    /// Creates a collector that closes a window every `width` references
    /// on each core. `levels` pre-sizes the per-level vectors (they also
    /// grow on demand); pass the hierarchy depth when known.
    pub fn new(width: u64, levels: usize) -> Self {
        assert!(width > 0, "window width must be positive");
        Self {
            width,
            levels,
            current: Vec::new(),
            refs_done: Vec::new(),
            recalibs: 0,
            records: Vec::new(),
        }
    }

    fn ensure_core(&mut self, core: usize) {
        while self.current.len() <= core {
            let c = self.current.len();
            self.current.push(WindowSample::new(c, 0, 0, self.levels));
            self.refs_done.push(0);
        }
    }

    fn close_window(&mut self, core: usize) {
        let next_index = self.current[core].index + 1;
        let next_start = self.refs_done[core];
        let closed = std::mem::replace(
            &mut self.current[core],
            WindowSample::new(core, next_index, next_start, self.levels),
        );
        self.records.push(TelemetryRecord::Window(closed));
    }

    /// The closed records so far, in event order.
    pub fn records(&self) -> &[TelemetryRecord] {
        &self.records
    }

    /// Iterator over closed window samples only.
    pub fn windows(&self) -> impl Iterator<Item = &WindowSample> {
        self.records.iter().filter_map(|r| match r {
            TelemetryRecord::Window(w) => Some(w),
            _ => None,
        })
    }

    /// Iterator over recalibration markers only.
    pub fn recalibrations(&self) -> impl Iterator<Item = &RecalibMarker> {
        self.records.iter().filter_map(|r| match r {
            TelemetryRecord::Recalib(m) => Some(m),
            _ => None,
        })
    }

    /// Serializes the record stream as JSON Lines (one record per line,
    /// trailing newline). Deterministic: identical runs produce identical
    /// bytes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.records {
            out.push_str(&rec.to_json().dump());
            out.push('\n');
        }
        out
    }

    /// Parses a JSON Lines telemetry stream back into records.
    pub fn parse_jsonl(text: &str) -> Result<Vec<TelemetryRecord>, String> {
        use minijson::FromJson;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| TelemetryRecord::from_json(&minijson::parse(l)?))
            .collect()
    }
}

impl SimObserver for WindowedCollector {
    fn on_ref(&mut self, core: usize, access_cycles: u64, energy_nj: f64) {
        self.ensure_core(core);
        self.refs_done[core] += 1;
        let w = &mut self.current[core];
        w.refs += 1;
        w.access_cycles += access_cycles;
        w.energy_nj += energy_nj;
        w.latency_hist[latency_bucket(access_cycles)] += 1;
        if w.refs >= self.width {
            self.close_window(core);
        }
    }

    fn on_level_access(&mut self, core: usize, level: u8, hit: bool) {
        self.ensure_core(core);
        let w = &mut self.current[core];
        w.ensure_level(level as usize);
        w.level_lookups[level as usize] += 1;
        if hit {
            w.level_hits[level as usize] += 1;
        }
    }

    fn on_bypass(&mut self, core: usize) {
        self.ensure_core(core);
        self.current[core].bypasses += 1;
    }

    fn on_walk_hit(&mut self, core: usize) {
        self.ensure_core(core);
        self.current[core].walk_hits += 1;
    }

    fn on_false_positive(&mut self, core: usize) {
        self.ensure_core(core);
        self.current[core].false_positives += 1;
    }

    fn on_fill(&mut self, core: usize, level: u8) {
        self.ensure_core(core);
        let w = &mut self.current[core];
        w.ensure_level(level as usize);
        w.level_fills[level as usize] += 1;
    }

    fn on_recalibration(&mut self, energy_nj: f64, stall_cycles: u64) {
        let marker = RecalibMarker {
            index: self.recalibs,
            energy_nj,
            stall_cycles,
            core_refs: self.refs_done.clone(),
        };
        self.recalibs += 1;
        self.records.push(TelemetryRecord::Recalib(marker));
    }

    fn on_window_close(&mut self) {
        for core in 0..self.current.len() {
            if !self.current[core].is_empty() {
                self.close_window(core);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_are_log2() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 1);
        assert_eq!(latency_bucket(2), 2);
        assert_eq!(latency_bucket(3), 2);
        assert_eq!(latency_bucket(4), 3);
        assert_eq!(latency_bucket(7), 3);
        assert_eq!(latency_bucket(8), 4);
        assert_eq!(latency_bucket(1 << 13), 14);
        assert_eq!(latency_bucket(1 << 14), LATENCY_BUCKETS - 1);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    fn feed_refs(c: &mut WindowedCollector, core: usize, n: u64) {
        for _ in 0..n {
            c.on_level_access(core, 0, true);
            c.on_ref(core, 4, 1.0);
        }
    }

    #[test]
    fn windows_close_every_n_refs_per_core() {
        let mut c = WindowedCollector::new(10, 2);
        feed_refs(&mut c, 0, 25);
        feed_refs(&mut c, 1, 10);
        c.on_window_close();
        let wins: Vec<_> = c.windows().cloned().collect();
        // Core 0: two full windows + one partial of 5; core 1: one full.
        assert_eq!(wins.len(), 4);
        let core0: Vec<_> = wins.iter().filter(|w| w.core == 0).collect();
        assert_eq!(core0.len(), 3);
        assert_eq!(core0[0].refs, 10);
        assert_eq!(core0[0].start_ref, 0);
        assert_eq!(core0[1].start_ref, 10);
        assert_eq!(core0[2].refs, 5);
        assert_eq!(core0[2].index, 2);
        let total: u64 = wins.iter().map(|w| w.refs).sum();
        assert_eq!(total, 35);
    }

    #[test]
    fn final_flush_is_idempotent_and_skips_empty() {
        let mut c = WindowedCollector::new(10, 1);
        feed_refs(&mut c, 0, 10); // exactly one full window, nothing pending
        c.on_window_close();
        c.on_window_close();
        assert_eq!(c.windows().count(), 1);
    }

    #[test]
    fn recalib_markers_interleave_in_event_order() {
        let mut c = WindowedCollector::new(5, 1);
        feed_refs(&mut c, 0, 5);
        c.on_recalibration(12.5, 100);
        feed_refs(&mut c, 0, 5);
        c.on_window_close();
        let recs = c.records();
        assert_eq!(recs.len(), 3);
        assert!(matches!(recs[0], TelemetryRecord::Window(_)));
        match &recs[1] {
            TelemetryRecord::Recalib(m) => {
                assert_eq!(m.index, 0);
                assert_eq!(m.core_refs, vec![5]);
                assert_eq!(m.stall_cycles, 100);
            }
            _ => panic!("expected recalib marker"),
        }
        assert!(matches!(recs[2], TelemetryRecord::Window(_)));
    }

    #[test]
    fn predictor_outcomes_and_rates() {
        let mut c = WindowedCollector::new(100, 2);
        for i in 0..10u64 {
            c.on_level_access(0, 0, false);
            match i % 4 {
                0 => c.on_bypass(0),
                1 | 2 => {
                    c.on_walk_hit(0);
                    c.on_level_access(0, 1, true);
                }
                _ => {
                    c.on_false_positive(0);
                    c.on_level_access(0, 1, false);
                    c.on_fill(0, 1);
                }
            }
            c.on_ref(0, 20, 2.0);
        }
        c.on_window_close();
        let w = c.windows().next().unwrap().clone();
        assert_eq!(w.pred_lookups(), 10);
        assert_eq!(w.bypasses, 3);
        assert_eq!(w.walk_hits, 5);
        assert_eq!(w.false_positives, 2);
        assert!((w.accuracy() - 0.8).abs() < 1e-12);
        assert!((w.miss_coverage() - 0.6).abs() < 1e-12);
        assert!((w.false_positive_rate() - 0.2).abs() < 1e-12);
        assert!((w.bypass_rate() - 0.3).abs() < 1e-12);
        assert_eq!(w.hit_rate(0), 0.0);
        assert!((w.hit_rate(1) - 5.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.level_fills[1], 2);
        assert!((w.mean_access_cycles() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut c = WindowedCollector::new(5, 2);
        feed_refs(&mut c, 0, 7);
        c.on_recalibration(3.0, 42);
        c.on_window_close();
        let text = c.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        let parsed = WindowedCollector::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.as_slice(), c.records());
    }

    #[test]
    fn jsonl_is_deterministic() {
        let run = || {
            let mut c = WindowedCollector::new(3, 1);
            feed_refs(&mut c, 0, 8);
            c.on_recalibration(1.25, 7);
            c.on_window_close();
            c.to_jsonl()
        };
        assert_eq!(run(), run());
    }
}
