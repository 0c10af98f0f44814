//! The `redhip-sim` binary's error exits: a path it cannot write exits 1
//! and a malformed trace file exits 2, each with a message naming the
//! path, never by a signal. An extreme but valid `--chunk` is no error.

use std::path::PathBuf;
use std::process::{Command, Output};

fn redhip_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_redhip-sim"))
        .args(args)
        .output()
        .expect("run redhip-sim")
}

/// A fresh scratch directory holding one regular file, `plain-file`.
fn dir_with_file(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("redhip-sim-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let file = dir.join("plain-file");
    std::fs::write(&file, "not a directory").expect("write plain file");
    (dir, file)
}

/// Runs a small smoke-scale simulation with `extra` output flags.
fn smoke_run(extra: &[&str]) -> Output {
    let mut args = vec![
        "--benchmark",
        "mcf",
        "--scale",
        "smoke",
        "--refs",
        "2000",
        "--quiet",
    ];
    args.extend_from_slice(extra);
    redhip_sim(&args)
}

fn assert_exit_1_naming(o: &Output, path: &str) {
    let err = String::from_utf8_lossy(&o.stderr);
    // `code()` is None when a signal (abort) ended the process.
    assert_eq!(o.status.code(), Some(1), "{err}");
    assert!(err.contains(&format!("error: {path}: ")), "{err}");
}

#[test]
fn json_under_a_regular_file_exits_1_naming_the_path() {
    let (dir, file) = dir_with_file("json");
    let path = file.join("run.json");
    let path = path.to_str().unwrap();
    assert_exit_1_naming(&smoke_run(&["--json", path]), path);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_and_metrics_under_a_regular_file_exit_1() {
    let (dir, file) = dir_with_file("telemetry");
    let path = file.join("t.jsonl");
    let path = path.to_str().unwrap();
    assert_exit_1_naming(&smoke_run(&["--telemetry", path]), path);
    let metrics = format!("--metrics={path}");
    assert_exit_1_naming(&smoke_run(&[&metrics]), path);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 68-byte v2 trace whose only chunk is a bare 8-byte header, yet whose
/// header and index both claim `u32::MAX` records.
fn oversized_count_trace() -> Vec<u8> {
    use mem_trace::codec::{MAGIC, TAIL_MAGIC, VERSION_V2};
    let mut buf = Vec::new();
    for word in [MAGIC, VERSION_V2, 1, 0, u32::MAX, 0] {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    buf.extend_from_slice(&16u64.to_le_bytes());
    buf.extend_from_slice(&8u32.to_le_bytes());
    buf.extend_from_slice(&u32::MAX.to_le_bytes());
    for word in [24, 1, u64::from(u32::MAX)] {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    buf.extend_from_slice(&TAIL_MAGIC.to_le_bytes());
    assert_eq!(buf.len(), 68);
    buf
}

#[test]
fn trace_claiming_more_records_than_its_bytes_exits_2_naming_the_path() {
    let (dir, _) = dir_with_file("oversized-count");
    let path = dir.join("oversized.trace");
    std::fs::write(&path, oversized_count_trace()).expect("write trace");
    let path = path.to_str().unwrap();
    let out = dir.join("converted.trace");
    let out = out.to_str().unwrap();
    for args in [
        &["trace", "info", "--in", path][..],
        &["trace", "replay", "--in", path],
        &["trace", "convert", "--in", path, "--out", out],
    ] {
        let o = redhip_sim(args);
        let err = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(&format!("error: {path}: ")), "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn largest_chunk_target_records_and_converts_without_a_signal() {
    let (dir, _) = dir_with_file("largest-chunk");
    let rec = dir.join("rec.trace");
    let rec = rec.to_str().unwrap();
    let conv = dir.join("conv.trace");
    let conv = conv.to_str().unwrap();
    let chunk = u32::MAX.to_string();
    for args in [
        &[
            "trace",
            "record",
            "--benchmark",
            "mcf",
            "--scale",
            "smoke",
            "--refs",
            "100",
            "--cores",
            "2",
            "--chunk",
            &chunk,
            "--out",
            rec,
        ][..],
        &[
            "trace", "convert", "--in", rec, "--out", conv, "--chunk", &chunk,
        ],
    ] {
        let o = redhip_sim(args);
        let err = String::from_utf8_lossy(&o.stderr);
        // `code()` is None when a signal (abort) ended the process.
        assert_eq!(o.status.code(), Some(0), "{args:?}: {err}");
    }
    let o = redhip_sim(&["trace", "info", "--in", conv, "--json"]);
    let info = String::from_utf8_lossy(&o.stdout);
    assert!(info.contains("\"records\": 200"), "{info}");
    let _ = std::fs::remove_dir_all(&dir);
}
