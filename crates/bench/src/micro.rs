//! Minimal std-only micro-benchmark harness.
//!
//! Replaces the criterion dependency for the files under `benches/`. Each
//! benchmark is a closure timed with [`std::time::Instant`]: a short warmup
//! sizes the batch so one timed sample lasts roughly `SAMPLE_TARGET`, then
//! several samples run and the fastest is reported (ns/op and, when an
//! element count is given, million elements per second). Results print as
//! aligned rows; nothing is persisted — the simulator-level history lives in
//! `BENCH_sim.json` via the `redhip-sim bench` subcommand.

use std::time::{Duration, Instant};

/// Target wall time for one timed sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(60);
/// Timed samples per benchmark; the fastest is reported.
const SAMPLES: usize = 5;

/// Quick mode (`REDHIP_BENCH_QUICK=1`): one short sample per benchmark.
/// The numbers are meaningless as measurements — this exists so CI can
/// execute every bench body as a smoke test without paying for warmup
/// and repeated samples.
fn quick() -> bool {
    std::env::var_os("REDHIP_BENCH_QUICK").is_some()
}

fn samples() -> usize {
    if quick() {
        1
    } else {
        SAMPLES
    }
}

fn sample_target() -> Duration {
    if quick() {
        Duration::from_millis(1)
    } else {
        SAMPLE_TARGET
    }
}

/// A named group of benchmarks, printed with a header like criterion's.
pub struct Group {
    name: String,
    /// Elements processed per closure invocation (for throughput rows).
    elements: u64,
}

impl Group {
    /// Starts a group; `elements` is the per-iteration element count used
    /// for throughput reporting (0 disables the throughput column).
    pub fn new(name: &str, elements: u64) -> Self {
        println!("group {name}");
        Self {
            name: name.to_string(),
            elements,
        }
    }

    /// Benchmarks `f` repeatedly and prints one result row.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        // Warmup + calibration: find an iteration count filling the target.
        let target = sample_target();
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let took = start.elapsed();
            if took >= target / 4 {
                let scale = target.as_secs_f64() / took.as_secs_f64().max(1e-9);
                iters = ((iters as f64 * scale) as u64).max(1);
                break;
            }
            iters = iters.saturating_mul(8).max(iters + 1);
        }
        let mut best = Duration::MAX;
        for _ in 0..samples() {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            best = best.min(start.elapsed());
        }
        let ns_per_iter = best.as_secs_f64() * 1e9 / iters as f64;
        let throughput = if self.elements > 0 {
            let eps = self.elements as f64 * iters as f64 / best.as_secs_f64();
            format!("  {:>10.2} Melem/s", eps / 1e6)
        } else {
            String::new()
        };
        println!(
            "  {:<40} {:>12.1} ns/iter{throughput}",
            format!("{}/{name}", self.name),
            ns_per_iter
        );
    }

    /// Like [`Group::bench`], but runs `setup` outside the timed region
    /// before every invocation of `f` (criterion's `iter_batched` with
    /// per-iteration batches).
    pub fn bench_with_setup<T, R>(
        &self,
        name: &str,
        mut setup: impl FnMut() -> T,
        mut f: impl FnMut(T) -> R,
    ) {
        // Per-iteration setup is only used for heavyweight bodies (whole
        // simulations, full-table rebuilds), so time single invocations.
        let mut best = Duration::MAX;
        let mut taken = 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        while taken < samples() && Instant::now() < deadline {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(f(input));
            best = best.min(start.elapsed());
            taken += 1;
        }
        let throughput = if self.elements > 0 {
            let eps = self.elements as f64 / best.as_secs_f64();
            format!("  {:>10.2} Melem/s", eps / 1e6)
        } else {
            String::new()
        };
        println!(
            "  {:<40} {:>12.1} ns/iter{throughput}",
            format!("{}/{name}", self.name),
            best.as_secs_f64() * 1e9
        );
    }
}
