//! The `figures` command line, run as a process.

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
