//! Architecture parameter structures (the shape of the paper's Table I).

use minijson::{json, FromJson, Json, ToJson};

/// Parameters of one cache level's arrays.
///
/// L1/L2 in Table I publish a single access delay and energy; we model them
/// with `tag_energy_nj = 0` and the full energy on the data array, and equal
/// tag/data delays — lookups then cost exactly the published values under
/// parallel access, and the Phased optimization (which the paper applies
/// only to L3/L4) is never enabled for them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSpec {
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Cycles until a tag check resolves (miss detection latency).
    pub tag_delay: u64,
    /// Cycles until data is available on a hit (parallel tag+data access).
    pub data_delay: u64,
    /// Energy of one tag-array access, nanojoules.
    pub tag_energy_nj: f64,
    /// Energy of one data-array access, nanojoules.
    pub data_energy_nj: f64,
    /// Leakage power of one instance of this cache, watts.
    pub leakage_w: f64,
}

impl CacheSpec {
    /// Energy of a full parallel-mode lookup (tag + data in parallel).
    pub fn parallel_lookup_nj(&self) -> f64 {
        self.tag_energy_nj + self.data_energy_nj
    }

    /// Energy of a phased-mode lookup: tag always, data only on hit.
    pub fn phased_lookup_nj(&self, hit: bool) -> f64 {
        self.tag_energy_nj + if hit { self.data_energy_nj } else { 0.0 }
    }

    /// Latency of a parallel-mode lookup: data delay on a hit, tag delay on
    /// a miss (the miss is known as soon as the tag check resolves).
    pub fn parallel_latency(&self, hit: bool) -> u64 {
        if hit {
            self.data_delay
        } else {
            self.tag_delay
        }
    }

    /// Latency of a phased-mode lookup: tag first, then data on a hit.
    pub fn phased_latency(&self, hit: bool) -> u64 {
        self.tag_delay + if hit { self.data_delay } else { 0 }
    }

    /// Energy of a single-way lookup: when a way predictor (or memo) names
    /// the way holding the block, only one of the `assoc` tag+data pairs
    /// is read. Modelled as the parallel lookup divided by associativity —
    /// the per-way array slice.
    pub fn way_lookup_nj(&self) -> f64 {
        (self.tag_energy_nj + self.data_energy_nj) / self.assoc as f64
    }
}

/// Parameters of the ReDHiP prediction table (or the CBF given the same
/// area budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorSpec {
    /// Table capacity in bytes (512 KB in the paper = 0.78% of the LLC).
    pub size_bytes: u64,
    /// Table array access delay, cycles.
    pub access_delay: u64,
    /// One-way wire delay from the core to the table (located beside the
    /// LLC), cycles.
    pub wire_delay: u64,
    /// Energy of one table access, nanojoules.
    pub access_energy_nj: f64,
    /// Leakage power, watts. Table I does not publish this; the preset uses
    /// the same per-byte leakage as the (same-technology, same-size-class)
    /// L2: 0.02 W / 256 KB → 0.04 W for 512 KB.
    pub leakage_w: f64,
}

impl PredictorSpec {
    /// Total lookup latency seen by an L1 miss: wire there + array access
    /// (the paper charges a ~3% performance overhead for prediction; this
    /// is its source).
    pub fn lookup_latency(&self) -> u64 {
        self.wire_delay + self.access_delay
    }

    /// Derives the spec for a different table capacity, scaling energy with
    /// the square root of capacity (the CACTI trend for small SRAM arrays;
    /// used only by the Fig. 11 sweep, which ignores predictor overhead as
    /// the paper does).
    pub fn scaled_to(&self, size_bytes: u64) -> Self {
        let ratio = size_bytes as f64 / self.size_bytes as f64;
        Self {
            size_bytes,
            access_delay: self.access_delay,
            wire_delay: self.wire_delay,
            access_energy_nj: self.access_energy_nj * ratio.sqrt(),
            leakage_w: self.leakage_w * ratio,
        }
    }
}

/// Full platform description.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Core count (each runs one trace).
    pub cores: usize,
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
    /// Cache levels outermost-first; the *last* entry is the shared LLC,
    /// all earlier entries are per-core private caches.
    pub levels: Vec<CacheSpec>,
    /// The prediction table beside the LLC.
    pub predictor: PredictorSpec,
}

impl PlatformSpec {
    /// The shared LLC spec.
    pub fn llc(&self) -> &CacheSpec {
        self.levels.last().expect("platform has at least one level")
    }

    /// Seconds elapsed for a cycle count at this clock.
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Number of instances of level `i` on the chip (cores for private
    /// levels, 1 for the shared LLC).
    pub fn instances(&self, level: usize) -> usize {
        if level + 1 == self.levels.len() {
            1
        } else {
            self.cores
        }
    }

    /// Chip-wide leakage power of all cache arrays plus the predictor, watts.
    pub fn total_leakage_w(&self, include_predictor: bool) -> f64 {
        let caches: f64 = self
            .levels
            .iter()
            .enumerate()
            .map(|(i, l)| l.leakage_w * self.instances(i) as f64)
            .sum();
        caches
            + if include_predictor {
                self.predictor.leakage_w
            } else {
                0.0
            }
    }

    /// Predictor capacity as a fraction of LLC capacity (the paper's
    /// headline 0.78% hardware-overhead figure).
    pub fn predictor_overhead_ratio(&self) -> f64 {
        self.predictor.size_bytes as f64 / self.llc().capacity_bytes as f64
    }
}

impl ToJson for CacheSpec {
    fn to_json(&self) -> Json {
        json!({
            "capacity_bytes": self.capacity_bytes,
            "assoc": self.assoc,
            "tag_delay": self.tag_delay,
            "data_delay": self.data_delay,
            "tag_energy_nj": self.tag_energy_nj,
            "data_energy_nj": self.data_energy_nj,
            "leakage_w": self.leakage_w,
        })
    }
}

impl FromJson for CacheSpec {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            capacity_bytes: v.u64_of("capacity_bytes")?,
            assoc: v.u64_of("assoc")? as usize,
            tag_delay: v.u64_of("tag_delay")?,
            data_delay: v.u64_of("data_delay")?,
            tag_energy_nj: v.f64_of("tag_energy_nj")?,
            data_energy_nj: v.f64_of("data_energy_nj")?,
            leakage_w: v.f64_of("leakage_w")?,
        })
    }
}

impl ToJson for PredictorSpec {
    fn to_json(&self) -> Json {
        json!({
            "size_bytes": self.size_bytes,
            "access_delay": self.access_delay,
            "wire_delay": self.wire_delay,
            "access_energy_nj": self.access_energy_nj,
            "leakage_w": self.leakage_w,
        })
    }
}

impl FromJson for PredictorSpec {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            size_bytes: v.u64_of("size_bytes")?,
            access_delay: v.u64_of("access_delay")?,
            wire_delay: v.u64_of("wire_delay")?,
            access_energy_nj: v.f64_of("access_energy_nj")?,
            leakage_w: v.f64_of("leakage_w")?,
        })
    }
}

impl ToJson for PlatformSpec {
    fn to_json(&self) -> Json {
        json!({
            "cores": self.cores,
            "freq_ghz": self.freq_ghz,
            "levels": Json::Arr(self.levels.iter().map(|l| l.to_json()).collect()),
            "predictor": self.predictor.to_json(),
        })
    }
}

impl FromJson for PlatformSpec {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            cores: v.u64_of("cores")? as usize,
            freq_ghz: v.f64_of("freq_ghz")?,
            levels: v
                .arr_of("levels")?
                .iter()
                .map(CacheSpec::from_json)
                .collect::<Result<_, _>>()?,
            predictor: PredictorSpec::from_json(v.member("predictor")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l3() -> CacheSpec {
        CacheSpec {
            capacity_bytes: 4 << 20,
            assoc: 16,
            tag_delay: 9,
            data_delay: 12,
            tag_energy_nj: 0.348,
            data_energy_nj: 0.839,
            leakage_w: 0.16,
        }
    }

    #[test]
    fn parallel_mode_costs() {
        let s = l3();
        assert!((s.parallel_lookup_nj() - 1.187).abs() < 1e-9);
        assert_eq!(s.parallel_latency(true), 12);
        assert_eq!(s.parallel_latency(false), 9);
    }

    #[test]
    fn phased_mode_costs() {
        let s = l3();
        assert!((s.phased_lookup_nj(true) - 1.187).abs() < 1e-9);
        assert!((s.phased_lookup_nj(false) - 0.348).abs() < 1e-9);
        assert_eq!(s.phased_latency(true), 21);
        assert_eq!(s.phased_latency(false), 9);
    }

    #[test]
    fn way_lookup_is_parallel_lookup_per_way() {
        let s = l3();
        assert!((s.way_lookup_nj() - 1.187 / 16.0).abs() < 1e-9);
        assert!(s.way_lookup_nj() < s.phased_lookup_nj(false));
    }

    #[test]
    fn predictor_lookup_latency_includes_wire() {
        let p = PredictorSpec {
            size_bytes: 512 << 10,
            access_delay: 1,
            wire_delay: 5,
            access_energy_nj: 0.02,
            leakage_w: 0.04,
        };
        assert_eq!(p.lookup_latency(), 6);
    }

    #[test]
    fn predictor_scaling_is_sqrt_in_energy_linear_in_leakage() {
        let p = PredictorSpec {
            size_bytes: 512 << 10,
            access_delay: 1,
            wire_delay: 5,
            access_energy_nj: 0.02,
            leakage_w: 0.04,
        };
        let q = p.scaled_to(128 << 10); // ÷4 capacity
        assert!((q.access_energy_nj - 0.01).abs() < 1e-12);
        assert!((q.leakage_w - 0.01).abs() < 1e-12);
        assert_eq!(q.size_bytes, 128 << 10);
    }

    #[test]
    fn seconds_conversion() {
        let p = PlatformSpec {
            cores: 8,
            freq_ghz: 3.7,
            levels: vec![l3()],
            predictor: PredictorSpec {
                size_bytes: 512 << 10,
                access_delay: 1,
                wire_delay: 5,
                access_energy_nj: 0.02,
                leakage_w: 0.04,
            },
        };
        let s = p.seconds(3_700_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }
}
