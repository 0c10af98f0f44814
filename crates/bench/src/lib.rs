//! Figure/table regeneration harness.
//!
//! One function per table/figure of the paper's evaluation (§V), each
//! returning a structured result that the `figures` binary renders as an
//! ASCII table and a JSON file. The experiment index in `DESIGN.md` maps
//! every paper artifact to its function here.

pub mod ablate;
pub mod figdata;
pub mod figures;
pub mod harness;
pub mod micro;
pub mod table;
pub mod tracecli;

pub use harness::{mechanism_config, run_workload, FigureScale};
