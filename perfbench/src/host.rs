//! Host identity and noise: what built and ran the benchmark, and how much
//! CPU the hypervisor took away while it ran.

use std::process::Command;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

/// Reads the all-CPU line of `/proc/stat`; `None` where it is unavailable.
pub fn cpu_times() -> Option<CpuTimes> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal: guest time is
    // already counted inside user and nice.
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        total: fields[..8].iter().sum(),
        steal: fields[7],
    })
}

/// Share of all CPU time between two readings that the hypervisor stole.
pub fn steal_frac(before: Option<CpuTimes>, after: Option<CpuTimes>) -> f64 {
    match (before, after) {
        (Some(b), Some(a)) if a.total > b.total => {
            (a.steal - b.steal) as f64 / (a.total - b.total) as f64
        }
        _ => 0.0,
    }
}

/// Restarts the peak-resident-set count at the current resident set, so
/// the next [`peak_rss_mb`] covers only what runs in between: memory an
/// earlier stretch freed but the allocator kept does not count again.
/// Where the kernel refuses, the next reading is the process peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set in MB (`VmHWM`) since the process started or the
/// last [`reset_peak_rss`]; NaN where `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        // Only the directory the benchmark runs in counts as the checkout;
        // a repository further up must not lend it a revision.
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The x86-64 micro-architecture level the binary was compiled for,
/// inferred from the target features it was built with (the repository
/// pins `target-cpu=x86-64-v3` in `.cargo/config.toml`).
fn target_cpu() -> &'static str {
    if cfg!(all(
        target_feature = "avx2",
        target_feature = "bmi2",
        target_feature = "fma"
    )) {
        "x86-64-v3 (avx2,bmi1,bmi2,fma,popcnt)"
    } else if cfg!(target_feature = "popcnt") {
        "x86-64-v2"
    } else {
        "baseline"
    }
}

/// The identity block printed with every result: git revision, compiler,
/// target CPU, build profile and host core count.
pub fn identity() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    vec![
        (
            "git_rev",
            command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        ),
        ("rustc", command_line("rustc", &["-V"])),
        ("target_cpu", target_cpu().to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release (lto=fat, codegen-units=1, panic=abort)".to_string()
            },
        ),
        ("nproc", nproc.to_string()),
    ]
}
