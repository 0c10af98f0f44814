//! The `figures` binary's error paths: a bad target, an invalid config
//! and an unwritable output directory each exit with a status and a
//! message, never by a signal.

use std::path::PathBuf;
use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures")
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("figures-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn unknown_target_exits_2_with_usage() {
    let out = scratch("unknown");
    let o = figures(&["fig16", "--out", out.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(2), "{}", stderr(&o));
    assert!(stderr(&o).contains("unknown target \"fig16\""));
    assert!(stderr(&o).contains("usage: figures"));
    // Rejected before anything was written.
    assert!(!out.join("figures.log").exists());
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn zero_refs_is_an_error_not_an_abort() {
    let out = scratch("refs0");
    let o = figures(&[
        "fig11",
        "--scale",
        "smoke",
        "--refs",
        "0",
        "--out",
        out.to_str().unwrap(),
    ]);
    // `code()` is None when a signal (abort) ended the process.
    assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
    assert!(
        stderr(&o).contains("refs_per_core must be positive"),
        "{}",
        stderr(&o)
    );
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn unwritable_out_exits_1_naming_the_path() {
    let dir = scratch("unwritable");
    let file = dir.join("plain-file");
    std::fs::write(&file, "not a directory").unwrap();
    let out = file.join("results");
    let o = figures(&["table1", "--out", out.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
    assert!(stderr(&o).contains(out.to_str().unwrap()), "{}", stderr(&o));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_ablation_is_a_target_of_its_own() {
    let out = scratch("ablation");
    let o = figures(&[
        "ablate_entry_width",
        "--scale",
        "smoke",
        "--refs",
        "500",
        "--jobs",
        "2",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    let written: Vec<String> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json"))
        .collect();
    assert_eq!(written, ["ablate_entry_width.json"]);
    let _ = std::fs::remove_dir_all(&out);
}
