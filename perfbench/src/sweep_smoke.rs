//! The `figures` job graph at smoke scale (the predictor shoot-out plus
//! Figures 12 and 13: 209 unique cells after 33 dedup hits) through the
//! work-stealing sweep engine on two workers, one fresh in-memory cache
//! per pass. The traced run measures the sweep and pool layers on it.
//!
//! It exercises planning and dedup, the pool, and all 11 generators run
//! inline (one RMAT build per `blas` cell).

use crate::common::{full_length, same, timed, Report};
use bench::figures::{matrix_from, plan_fig12, plan_fig13, plan_shootout, MatrixPlan, Settings};
use bench::harness::{run_workload, FigureScale};
use sim::{Comparison, Mechanism};
use sweep::{CellSource, SweepEngine, SweepPlan, SweepResults};

/// Sweep workers: the host's two cores.
pub const WORKERS: usize = 2;

/// Every `CHECK_STRIDE`-th cell is re-run sequentially through
/// `run_workload` and must match the engine's result.
const CHECK_STRIDE: usize = 16;

/// The planned sweep.
pub struct Sweep {
    pub settings: Settings,
    pub plan: SweepPlan,
    pub matrix: MatrixPlan,
}

/// Plans the sweep. The engine's synthetic cells seed their generators
/// from (benchmark, core, scale) alone and take no seed offset, so every
/// workload seed runs the `figures` smoke traces (seed 0 of the others).
pub fn plan() -> Sweep {
    let settings = Settings::new(FigureScale::Smoke, None);
    let mut plan = SweepPlan::new();
    let matrix = plan_shootout(&settings, &mut plan);
    plan_fig12(&settings, &mut plan);
    plan_fig13(&settings, &mut plan);
    Sweep {
        settings,
        plan,
        matrix,
    }
}

impl Sweep {
    /// One pass: a fresh engine (empty cache) runs every cell. Returns the
    /// results (`None` if a cell aborted) and the wall time.
    pub fn pass(&self) -> (Option<SweepResults>, f64) {
        timed(|| {
            SweepEngine::new(WORKERS)
                .quiet()
                .run(&self.plan, "perfbench sweep-smoke")
                .map_err(|e| eprintln!("perfbench: {e}"))
                .ok()
        })
    }

    /// Counts every cell of a pass as one operation: failed when the pass
    /// aborted, when it ran short, or when it differs from `first`.
    pub fn check_pass(
        &self,
        res: Option<&SweepResults>,
        first: Option<&SweepResults>,
        report: &mut Report,
    ) {
        for (id, spec) in self.plan.cells().iter().enumerate() {
            let ok = res.is_some_and(|r| {
                full_length(r.get(id), &spec.cfg)
                    && first.is_none_or(|f| same(f.get(id), r.get(id)))
            });
            report.op(ok, || {
                format!("sweep cell {id} aborted, ran short or changed")
            });
        }
    }

    /// Re-runs a fixed subset of cells sequentially through
    /// `run_workload`; each must equal the engine's result.
    pub fn check_subset(&self, res: &SweepResults, report: &mut Report) {
        for (id, spec) in self.plan.cells().iter().enumerate().step_by(CHECK_STRIDE) {
            let CellSource::Synth { benchmark, .. } = spec.source else {
                unreachable!("the figures plan has synthetic cells only")
            };
            let r = run_workload(&spec.cfg, benchmark, self.settings.scale);
            report.op(same(&r, res.get(id)), || {
                format!("sweep cell {id} differs from sequential run_workload")
            });
        }
    }

    /// ReDHiP against Base per benchmark, from the shoot-out matrix.
    pub fn comparisons(&self, res: &SweepResults) -> Vec<Comparison> {
        let m = matrix_from(&self.settings, &self.matrix, res);
        let ri = m
            .mechanisms
            .iter()
            .position(|&x| x == Mechanism::Redhip)
            .expect("the shoot-out includes ReDHiP");
        m.base
            .iter()
            .zip(&m.results[ri])
            .map(|(b, r)| Comparison::new(b, r))
            .collect()
    }
}
