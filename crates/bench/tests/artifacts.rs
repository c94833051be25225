//! The committed `BENCH_*` artifacts must match the code and the mode
//! that produced them: full mode, the current schema, and — for the
//! deterministic shootout — the exact bytes a fresh run writes. A
//! quick-mode or schema-stale artifact fails here instead of silently
//! misdescribing the code.

use std::path::PathBuf;

use multicube_bench::perf::validate_report;
use multicube_bench::{
    run_shootout, validate_scaling_report, validate_serve_report, write_shootout_csv,
    CubeStudyConfig, Pool, ScalingStudyConfig, ServeConfig, SweepConfig,
};

/// Reads a committed artifact from the workspace root.
fn artifact(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn core_report_is_a_full_mode_run() {
    let text = artifact("BENCH_core.json");
    validate_report(&text).unwrap();
    assert!(
        text.contains("\"mode\": \"full\""),
        "BENCH_core.json must come from a full-mode perf run"
    );
}

#[test]
fn scaling_report_is_the_full_study_at_the_current_schema() {
    let text = artifact("BENCH_scaling.json");
    validate_scaling_report(
        &text,
        &ScalingStudyConfig::full(),
        Some(&CubeStudyConfig::full(2)),
    )
    .unwrap();
    assert!(
        text.contains("\"mode\": \"full\""),
        "BENCH_scaling.json must come from a full-mode study"
    );
}

#[test]
fn serve_report_is_the_full_study() {
    let text = artifact("BENCH_serve.json");
    validate_serve_report(&text, &ServeConfig::full()).unwrap();
    assert!(
        text.contains("\"mode\": \"full\""),
        "BENCH_serve.json must come from a full-mode study"
    );
}

#[test]
fn shootout_csv_matches_a_fresh_full_run() {
    let shootout = run_shootout(&Pool::serial(), 8, &SweepConfig::default());
    assert!(shootout.failures.is_empty(), "{:?}", shootout.failures);
    let path = std::env::temp_dir().join(format!("multicube-shootout-{}.csv", std::process::id()));
    write_shootout_csv(&path, &shootout.rows).unwrap();
    let fresh = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(
        fresh == artifact("BENCH_shootout.csv"),
        "BENCH_shootout.csv differs from `figures -- shootout` (n = 8, full sweep)"
    );
}
