//! One simulation cell of a sweep: (workload × mechanism × config).

use sim::{run_traces_with, NullObserver, RunResult, SimConfig, SimObserver};
use workloads::{Benchmark, Scale};

/// Stable tag for a workload scale, part of the canonical cell key.
pub fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Demo => "demo",
        Scale::Paper => "paper",
    }
}

/// Where a cell's per-core record streams come from.
#[derive(Debug, Clone)]
pub enum CellSource {
    /// A registry benchmark's kernel generators, seeded by (core, scale).
    Synth {
        /// Workload generating one trace per core.
        benchmark: Benchmark,
        /// Workload footprint scale.
        scale: Scale,
    },
}

/// A fully-specified simulation: the one place a (config × benchmark ×
/// scale) becomes a run, owned, hashable, and executable on any worker
/// thread.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Simulation configuration with `avg_cpi` already set for the
    /// workload (so the canonical key covers it).
    pub cfg: SimConfig,
    /// The workload driving each core.
    pub source: CellSource,
}

impl CellSpec {
    /// Builds a spec, stamping the benchmark's CPI into the config.
    pub fn new(cfg: &SimConfig, benchmark: Benchmark, scale: Scale) -> Self {
        let mut cfg = cfg.clone();
        cfg.avg_cpi = benchmark.avg_cpi();
        Self {
            cfg,
            source: CellSource::Synth { benchmark, scale },
        }
    }

    /// The canonical identity of this cell: workload, scale, and the full
    /// config serialization. Two cells with equal keys produce
    /// byte-identical results, so the key is what the dedup map and the
    /// result cache are keyed by. The `name|scale|cfg` format is
    /// historical, so on-disk caches stay valid.
    pub fn canonical_key(&self) -> String {
        use minijson::ToJson;
        let CellSource::Synth { benchmark, scale } = self.source;
        format!(
            "{}|{}|{}",
            benchmark.name(),
            scale_tag(scale),
            self.cfg.to_json().dump()
        )
    }

    /// 64-bit FNV-1a of the canonical key — the on-disk cache file name.
    /// Collisions are harmless: the cache stores the full key and verifies
    /// it on load.
    pub fn content_hash(&self) -> u64 {
        fnv1a64(self.canonical_key().as_bytes())
    }

    /// Deterministic run manifest for this cell, embedded into cache
    /// entries and exportable via `--metrics`. Every field is derived
    /// from the cell's identity alone (never from job counts or wall
    /// clocks), so entries stay byte-identical across schedulers.
    pub fn manifest(&self) -> metrics::RunManifest {
        let CellSource::Synth { benchmark, scale } = self.source;
        metrics::RunManifest {
            mechanism: self.cfg.mechanism.name().to_string(),
            predictor_spec: sim::spec_string(&self.cfg),
            workload: benchmark.name().to_string(),
            seed: format!("synth(core,{})", scale_tag(scale)),
            config_hash: self.content_hash(),
        }
    }

    /// Expected cost, for longest-cell-first scheduling: simulated
    /// references per core times core count. Relative cost is what the
    /// scheduler needs; refs dominate wall time across mechanisms.
    pub fn cost(&self) -> u64 {
        self.cfg.refs_per_core as u64 * self.cfg.platform.cores as u64
    }

    /// Runs the cell to completion on the calling thread. Deterministic:
    /// the generators are seeded from (core, scale) only.
    pub fn simulate(&self) -> RunResult {
        self.simulate_with(NullObserver).0
    }

    /// Like [`simulate`](Self::simulate), but reports telemetry to `obs`
    /// while running and returns it alongside the result.
    pub fn simulate_with<O: SimObserver>(&self, obs: O) -> (RunResult, O) {
        let CellSource::Synth { benchmark, scale } = self.source;
        let traces = (0..self.cfg.platform.cores)
            .map(|core| benchmark.trace(core, scale))
            .collect();
        run_traces_with(&self.cfg, traces, obs)
    }
}

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Mechanism;

    fn demo_cfg(mechanism: Mechanism) -> SimConfig {
        let mut cfg = SimConfig::new(energy_model::presets::demo_scale(), mechanism);
        cfg.refs_per_core = 1_000;
        cfg
    }

    #[test]
    fn identical_specs_share_key_and_hash() {
        let a = CellSpec::new(&demo_cfg(Mechanism::Redhip), Benchmark::Mcf, Scale::Smoke);
        let b = CellSpec::new(&demo_cfg(Mechanism::Redhip), Benchmark::Mcf, Scale::Smoke);
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn key_separates_mechanism_workload_and_scale() {
        let base = CellSpec::new(&demo_cfg(Mechanism::Base), Benchmark::Mcf, Scale::Smoke);
        let red = CellSpec::new(&demo_cfg(Mechanism::Redhip), Benchmark::Mcf, Scale::Smoke);
        let lbm = CellSpec::new(&demo_cfg(Mechanism::Base), Benchmark::Lbm, Scale::Smoke);
        let demo = CellSpec::new(&demo_cfg(Mechanism::Base), Benchmark::Mcf, Scale::Demo);
        let keys = [
            base.canonical_key(),
            red.canonical_key(),
            lbm.canonical_key(),
            demo.canonical_key(),
        ];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
    }

    #[test]
    fn predictor_parameters_never_alias_in_key_hash_or_manifest() {
        // Regression: two LevelPred cells differing only in confidence
        // threshold once hashed to the same cache slot because the key
        // omitted predictor parameters. The canonical key, content hash,
        // and manifest spec must all separate them.
        let mut lo = demo_cfg(Mechanism::LevelPred);
        lo.level_pred.conf_threshold = 2;
        let mut hi = demo_cfg(Mechanism::LevelPred);
        hi.level_pred.conf_threshold = 6;
        let a = CellSpec::new(&lo, Benchmark::Mcf, Scale::Smoke);
        let b = CellSpec::new(&hi, Benchmark::Mcf, Scale::Smoke);
        assert_ne!(a.canonical_key(), b.canonical_key());
        assert_ne!(a.content_hash(), b.content_hash());
        assert_ne!(a.manifest().predictor_spec, b.manifest().predictor_spec);
        assert_eq!(
            a.manifest().predictor_spec,
            "level-pred:conf=2,max=3,penalty=8"
        );
    }

    #[test]
    fn cost_scales_with_refs_and_cores() {
        let mut cfg = demo_cfg(Mechanism::Base);
        cfg.refs_per_core = 500;
        let spec = CellSpec::new(&cfg, Benchmark::Mcf, Scale::Smoke);
        assert_eq!(spec.cost(), 500 * cfg.platform.cores as u64);
    }

    #[test]
    fn synth_key_format_is_pinned() {
        // On-disk caches from earlier versions are keyed by this exact
        // format; changing it silently invalidates them.
        let spec = CellSpec::new(&demo_cfg(Mechanism::Base), Benchmark::Mcf, Scale::Smoke);
        assert!(
            spec.canonical_key().starts_with("mcf|smoke|{"),
            "{}",
            spec.canonical_key()
        );
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a test vector.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
