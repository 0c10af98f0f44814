//! The workload registry: the paper's 12 evaluation workloads by name.

use crate::scale::Scale;
use crate::{graph500, pmf, spec};
use mem_trace::DynTrace;

/// The paper's workloads (Figures 6–15 x-axis, plus `average` computed by
/// the harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// SPEC CPU2006 410.bwaves.
    Bwaves,
    /// SPEC CPU2006 459.GemsFDTD.
    GemsFdtd,
    /// SPEC CPU2006 470.lbm.
    Lbm,
    /// SPEC CPU2006 429.mcf.
    Mcf,
    /// SPEC CPU2006 433.milc.
    Milc,
    /// SPEC CPU2006 450.soplex.
    Soplex,
    /// SPEC CPU2006 473.astar.
    Astar,
    /// SPEC CPU2006 436.cactusADM.
    CactusAdm,
    /// One different SPEC benchmark per core (cache-interference study).
    Mix,
    /// Probabilistic matrix factorization (GraphLab in the paper).
    Pmf,
    /// Graph500 BFS (Combinatorial BLAS in the paper).
    Blas,
}

impl Benchmark {
    /// All workloads in the paper's figure order.
    pub const ALL: [Benchmark; 11] = [
        Benchmark::Bwaves,
        Benchmark::GemsFdtd,
        Benchmark::Lbm,
        Benchmark::Mcf,
        Benchmark::Milc,
        Benchmark::Soplex,
        Benchmark::Astar,
        Benchmark::CactusAdm,
        Benchmark::Mix,
        Benchmark::Pmf,
        Benchmark::Blas,
    ];

    /// The eight SPEC benchmarks (the `mix` rotation).
    pub const SPEC: [Benchmark; 8] = [
        Benchmark::Bwaves,
        Benchmark::GemsFdtd,
        Benchmark::Lbm,
        Benchmark::Mcf,
        Benchmark::Milc,
        Benchmark::Soplex,
        Benchmark::Astar,
        Benchmark::CactusAdm,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bwaves => "bwaves",
            Benchmark::GemsFdtd => "GemsFDTD",
            Benchmark::Lbm => "lbm",
            Benchmark::Mcf => "mcf",
            Benchmark::Milc => "milc",
            Benchmark::Soplex => "soplex",
            Benchmark::Astar => "astar",
            Benchmark::CactusAdm => "cactusADM",
            Benchmark::Mix => "mix",
            Benchmark::Pmf => "pmf",
            Benchmark::Blas => "blas",
        }
    }

    /// Parses a figure name back to the benchmark (case-insensitive).
    pub fn from_name(s: &str) -> Option<Benchmark> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(s))
    }

    /// Average CPI of the non-memory instructions, used by the paper's
    /// timing model ("we estimate the timing of each instruction using the
    /// average CPI of each application"). Documented estimates in line with
    /// published SPEC characterizations: memory-bound codes burn issue
    /// slots, dense FP codes approach 1.
    pub fn avg_cpi(self) -> f64 {
        match self {
            Benchmark::Bwaves => 1.1,
            Benchmark::GemsFdtd => 1.3,
            Benchmark::Lbm => 1.2,
            Benchmark::Mcf => 2.2,
            Benchmark::Milc => 1.4,
            Benchmark::Soplex => 1.5,
            Benchmark::Astar => 1.8,
            Benchmark::CactusAdm => 1.2,
            Benchmark::Mix => 1.5,
            Benchmark::Pmf => 1.4,
            Benchmark::Blas => 1.8,
        }
    }

    /// Builds the trace generator for one core. For [`Benchmark::Mix`],
    /// core `i` runs the `i`-th SPEC benchmark, as in the paper's mix
    /// simulation ("each of the 8 cores is running a different SPEC
    /// application").
    pub fn trace(self, core: usize, scale: Scale) -> DynTrace {
        match self {
            Benchmark::Bwaves => spec::bwaves::trace(core, scale),
            Benchmark::GemsFdtd => spec::gemsfdtd::trace(core, scale),
            Benchmark::Lbm => spec::lbm::trace(core, scale),
            Benchmark::Mcf => spec::mcf::trace(core, scale),
            Benchmark::Milc => spec::milc::trace(core, scale),
            Benchmark::Soplex => spec::soplex::trace(core, scale),
            Benchmark::Astar => spec::astar::trace(core, scale),
            Benchmark::CactusAdm => spec::cactusadm::trace(core, scale),
            Benchmark::Mix => Benchmark::SPEC[core % Benchmark::SPEC.len()].trace(core, scale),
            Benchmark::Pmf => pmf::trace(core, scale),
            Benchmark::Blas => graph500::trace(core, scale),
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_every_benchmark_once() {
        assert_eq!(Benchmark::ALL.len(), 11);
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::ALL.iter().filter(|&&x| x == b).count(), 1);
        }
    }

    #[test]
    fn names_roundtrip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("GEMSFDTD"), Some(Benchmark::GemsFdtd));
        assert_eq!(Benchmark::from_name("nope"), None);
    }

    #[test]
    fn every_benchmark_generates_smoke_traces() {
        for b in Benchmark::ALL {
            let n = b.trace(0, Scale::Smoke).take(1000).count();
            assert_eq!(n, 1000, "{b} generator ended early");
        }
    }

    #[test]
    fn mix_rotates_spec_across_cores() {
        // Core i of mix must produce the same stream as SPEC[i] core i.
        for core in 0..8 {
            let mix: Vec<_> = Benchmark::Mix.trace(core, Scale::Smoke).take(20).collect();
            let direct: Vec<_> = Benchmark::SPEC[core]
                .trace(core, Scale::Smoke)
                .take(20)
                .collect();
            assert_eq!(mix, direct, "core {core}");
        }
    }

    #[test]
    fn cpi_values_are_plausible() {
        for b in Benchmark::ALL {
            let c = b.avg_cpi();
            assert!((1.0..=3.0).contains(&c), "{b}: {c}");
        }
        assert!(Benchmark::Mcf.avg_cpi() > Benchmark::Bwaves.avg_cpi());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", Benchmark::CactusAdm), "cactusADM");
    }
}
