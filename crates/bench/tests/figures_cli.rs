//! The `figures` and `perf` command lines, run as processes.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A run of no transactions measures nothing: `Machine::run_closed_loop`
/// reports a run without think or wait time as efficiency 1, so `--txns 0`
/// would print every simulated point as 1.0000. It is rejected at the
/// flag instead.
#[test]
fn zero_transactions_per_processor_are_rejected_at_the_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig2", "--txns", "0"])
        .output()
        .expect("figures runs");
    assert!(!out.status.success(), "exit status {}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--txns needs a positive number"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing is measured");
}

/// An empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("figures-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `binary` with `args` in the empty directory `dir`, and checks
/// that it fails with `message` on stderr and writes nothing there.
fn assert_rejected(binary: &str, args: &[&str], dir: &Path, message: &str) {
    let out = Command::new(binary)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the binary runs");
    assert!(!out.status.success(), "exit status {}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(message), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing is measured");
    let written: Vec<_> = std::fs::read_dir(dir).unwrap().collect();
    assert!(written.is_empty(), "wrote {written:?}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// `--csv --quick` used to run the full telemetry and write its CSVs into
/// a directory named `--quick`.
#[test]
fn the_csv_directory_cannot_be_the_next_flag() {
    assert_rejected(
        env!("CARGO_BIN_EXE_figures"),
        &["telemetry", "--csv", "--quick"],
        &scratch("csv"),
        "--csv needs a directory",
    );
}

#[test]
fn the_out_directory_cannot_be_the_next_flag() {
    assert_rejected(
        env!("CARGO_BIN_EXE_figures"),
        &["costs", "--out", "--quick"],
        &scratch("out"),
        "--out needs a directory",
    );
}

/// `perf --out --quick` used to run full mode and write its report to a
/// file named `--quick`.
#[test]
fn the_perf_report_path_cannot_be_the_next_flag() {
    assert_rejected(
        env!("CARGO_BIN_EXE_perf"),
        &["--out", "--quick"],
        &scratch("perf"),
        "--out needs a path",
    );
}

/// `--csv DIR` writes one CSV per printed table, with a line per row of
/// the text.
#[test]
fn every_printed_table_has_its_csv() {
    let dir = scratch("tables");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["costs", "--quick", "--csv"])
        .arg(&dir)
        .output()
        .expect("figures runs");
    assert!(out.status.success(), "exit status {}", out.status);
    // Each printed table is a title, a header and its rows, then a blank
    // line.
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut text_rows: Vec<usize> = stdout
        .split("\n\n")
        .filter(|block| !block.trim().is_empty())
        .map(|block| {
            assert!(block.starts_with("== "), "{block}");
            block.lines().count() - 2
        })
        .collect();
    let mut csv_rows: Vec<usize> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            assert_eq!(path.extension().unwrap(), "csv");
            std::fs::read_to_string(&path).unwrap().lines().count() - 1
        })
        .collect();
    text_rows.sort_unstable();
    csv_rows.sort_unstable();
    assert_eq!(text_rows, [5], "T-6.1 has five scenarios");
    assert_eq!(csv_rows, text_rows);
    std::fs::remove_dir_all(&dir).unwrap();
}
