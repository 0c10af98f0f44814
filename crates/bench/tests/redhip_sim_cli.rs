//! The `redhip-sim` binary's exits: a path it cannot write exits 1 and a
//! malformed trace file exits 2, each with a message naming the path,
//! never by a signal. An extreme but valid `--chunk` is no error; every
//! `--mechanism` key outside its range, a way-memo larger than the LLC
//! and a predictor budget above the LLC exit 2; and `--help` prints the
//! usage, with every mechanism of the table, and exits 0.

use bench::harness::{mechanism_config, FigureScale};
use sim::{Mechanism, MECHANISMS};
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

/// Runs `trace info`, `trace replay` and `trace convert` on the trace
/// file `bytes` and requires each to exit 2 (never a signal) with an
/// error naming the path and containing `needle`.
fn assert_trace_commands_exit_2(tag: &str, bytes: &[u8], needle: &str) {
    let (dir, _) = dir_with_file(tag);
    let path = dir.join("input.trace");
    std::fs::write(&path, bytes).expect("write trace");
    let path = path.to_str().unwrap();
    let out = dir.join("converted.trace");
    let out = out.to_str().unwrap();
    for args in [
        &["trace", "info", "--in", path][..],
        &[
            "trace", "replay", "--in", path, "--scale", "smoke", "--quiet",
        ],
        &["trace", "convert", "--in", path, "--out", out],
    ] {
        let o = redhip_sim(args);
        let err = String::from_utf8_lossy(&o.stderr);
        // `code()` is None when a signal (abort) ended the process.
        assert_eq!(o.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(&format!("error: {path}: ")), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_claiming_more_records_than_its_bytes_exits_2_naming_the_path() {
    assert_trace_commands_exit_2("oversized-count", &oversized_count_trace(), "chunk index");
}

#[test]
fn damaged_payload_exits_2_naming_the_chunk_never_a_signal() {
    let (dir, _) = dir_with_file("damaged-payload");
    let rec = dir.join("rec.trace");
    let rec = rec.to_str().unwrap();
    let o = redhip_sim(&[
        "trace",
        "record",
        "--benchmark",
        "mcf",
        "--scale",
        "smoke",
        "--refs",
        "2000",
        "--cores",
        "1",
        "--out",
        rec,
    ]);
    assert_eq!(
        o.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&o.stderr)
    );
    // Bytes 24..64 lie inside chunk 0's payload; the header, index and
    // tail stay intact, so only a payload check notices.
    let mut bytes = std::fs::read(rec).expect("read recording");
    bytes[24..64].fill(0xff);
    let _ = std::fs::remove_dir_all(&dir);
    assert_trace_commands_exit_2("damaged-payload-run", &bytes, "chunk 0");
}

#[test]
fn converting_a_trace_onto_itself_exits_2_and_keeps_the_file() {
    let (dir, _) = dir_with_file("convert-in-place");
    let rec = dir.join("rec.trace");
    let rec = rec.to_str().unwrap();
    let o = redhip_sim(&[
        "trace",
        "record",
        "--benchmark",
        "mcf",
        "--scale",
        "smoke",
        "--refs",
        "500",
        "--cores",
        "2",
        "--out",
        rec,
    ]);
    assert_eq!(
        o.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&o.stderr)
    );
    let before = std::fs::read(rec).expect("read recording");
    let o = redhip_sim(&["trace", "convert", "--in", rec, "--out", rec]);
    let err = String::from_utf8_lossy(&o.stderr);
    // `code()` is None when a signal (here SIGBUS) ended the process.
    assert_eq!(o.status.code(), Some(2), "{err}");
    assert!(err.contains("names the --in file"), "{err}");
    assert_eq!(std::fs::read(rec).expect("reread recording"), before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retired_fixed_width_file_exits_2_with_its_version() {
    // A version-1 file: the 16-byte header and one 21-byte record.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&mem_trace::codec::MAGIC.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 21]);
    assert_eq!(bytes.len(), 37);
    assert_trace_commands_exit_2("fixed-width", &bytes, "unsupported trace version 1");
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    for (args, expect) in [
        (&["--help"][..], "--benchmark NAME"),
        (&["-h"], "redhip-sim trace replay"),
        (&["trace", "--help"], "redhip-sim trace replay --in FILE"),
        (&["trace", "record", "--help"], "--cores N"),
    ] {
        let o = redhip_sim(args);
        let out = String::from_utf8_lossy(&o.stdout);
        assert_eq!(o.status.code(), Some(0), "{args:?}: {out}");
        assert!(out.contains(expect), "{args:?}: {out}");
        if args[0] == "trace" {
            assert!(!out.contains("v1"), "{args:?} mentions v1: {out}");
        }
    }
}

#[test]
fn buffered_is_an_unknown_replay_argument() {
    let o = redhip_sim(&["trace", "replay", "--in", "x.trace", "--buffered"]);
    let err = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(2), "{err}");
    assert!(err.contains("unknown argument --buffered"), "{err}");
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

#[test]
fn way_memo_larger_than_the_llc_exits_2_naming_entries() {
    let o = smoke_run(&["--mechanism", "way-memo:entries=4294967295"]);
    let err = String::from_utf8_lossy(&o.stderr);
    // `code()` is None when a signal (abort) ended the process.
    assert_eq!(o.status.code(), Some(2), "{err}");
    assert!(err.contains("error: way-memo entries"), "{err}");
    assert!(err.contains("entries=4294967295"), "{err}");
}

#[test]
fn predictor_budget_above_the_llc_exits_2_naming_pt_bytes() {
    for mechanism in ["cbf", "level-pred", "perceptron", "redhip", "base"] {
        let o = smoke_run(&["--mechanism", mechanism, "--pt-bytes", "1099511627776"]);
        let err = String::from_utf8_lossy(&o.stderr);
        // `code()` is None when a signal (abort) ended the process.
        assert_eq!(o.status.code(), Some(2), "{mechanism}: {err}");
        assert!(
            err.contains("error: pt-bytes must be in 1..=8388608"),
            "{mechanism}: {err}"
        );
    }
}

/// Every key of every mechanism at min − 1, min, max, max + 1, `u32::MAX`,
/// `u64::MAX` and a non-number, through `apply_spec` + `validate` and
/// through one smoke-scale `redhip-sim` cell: a value both accept runs to
/// exit 0, and any other exits 2 with their error. Never a signal. The
/// test iterates the mechanism table, so a new key cannot skip it.
#[test]
fn every_spec_key_at_and_beyond_its_range_exits_0_or_2() {
    let (dir, _) = dir_with_file("spec-keys");
    let metrics = format!("--metrics={}", dir.join("m.jsonl").display());
    for row in &MECHANISMS {
        for key in row.keys {
            let mut values: Vec<String> = [key.min - 1, key.min, key.max, key.max + 1]
                .iter()
                .map(i64::to_string)
                .chain([u32::MAX.to_string(), u64::MAX.to_string(), "x".into()])
                .collect();
            values.sort();
            values.dedup();
            for value in values {
                let spec = format!("{}:{}={value}", row.spec, key.name);
                let in_range = value
                    .parse::<i64>()
                    .is_ok_and(|v| (key.min..=key.max).contains(&v));
                let mut cfg = mechanism_config(FigureScale::Smoke, Mechanism::Redhip, 2000);
                let applied = sim::apply_spec(&mut cfg, &spec);
                assert_eq!(applied.is_ok(), in_range, "{spec}: {applied:?}");
                let verdict = applied.and_then(|()| cfg.validate());
                let o = smoke_run(&["--mechanism", &spec, &metrics]);
                let err = String::from_utf8_lossy(&o.stderr);
                match verdict {
                    Ok(()) => assert_eq!(o.status.code(), Some(0), "{spec}: {err}"),
                    Err(e) => {
                        assert_eq!(o.status.code(), Some(2), "{spec}: {err}");
                        assert!(err.contains(&format!("error: {e}")), "{spec}: {err}");
                    }
                }
                if !in_range {
                    let range = format!(
                        "`{}:{}` must be an integer in {}..={}",
                        row.spec, key.name, key.min, key.max
                    );
                    assert!(err.contains(&range), "{spec}: {err}");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--help` lists every row of the mechanism table with its summary and
/// keys, and README's mechanism table has one row per table row, in
/// order, with the same spec name, keys and summary.
#[test]
fn help_and_readme_describe_every_mechanism_row() {
    let help = String::from_utf8_lossy(&redhip_sim(&["--help"]).stdout).into_owned();
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("read README.md");
    let table: Vec<&str> = readme
        .lines()
        .skip_while(|l| !l.starts_with("| spec |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .collect();
    assert_eq!(table.len(), MECHANISMS.len(), "README rows: {table:#?}");
    for (row, line) in MECHANISMS.iter().zip(table) {
        assert!(
            help.lines()
                .any(|l| l.starts_with(&format!("  {} ", row.spec)) && l.ends_with(row.summary)),
            "--help lacks `{}`: {help}",
            row.spec
        );
        assert!(line.starts_with(&format!("| `{}` |", row.spec)), "{line}");
        assert!(line.contains(&format!("| {}", row.summary)), "{line}");
        for key in row.keys {
            let range = format!("{}..={}", key.min, key.max);
            let in_help = format!("{}={range} [{}]", key.name, key.default);
            assert!(help.contains(&in_help), "--help lacks {in_help}: {help}");
            let in_readme = format!("`{}` {range} ({})", key.name, key.default);
            assert!(
                line.contains(&in_readme),
                "README lacks {in_readme}: {line}"
            );
        }
    }
}
