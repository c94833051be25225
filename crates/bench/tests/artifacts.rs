//! The committed `BENCH_*` artifacts must match the code and the mode
//! that produced them: full mode, the current schema, and — for the
//! deterministic shootout, the deterministic fields of the n = 8 cube
//! and the serving tier's trace sizes — what a fresh run produces. A
//! quick-mode, schema-stale or outdated artifact fails here instead of
//! silently misdescribing the code.

use std::path::PathBuf;

use multicube_bench::perf::validate_report;
use multicube_bench::{
    run_cube_study, run_shootout, serve_app_seed, synthesize_serve_trace, validate_scaling_report,
    validate_serve_report, write_shootout_csv, CubeStudyConfig, Pool, ScalingStudyConfig,
    ServeConfig, SweepConfig, SERVE_APPS,
};
use multicube_workload::TraceV2Reader;

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

/// The fields of the committed cube point of `side` in
/// `BENCH_scaling.json`, as `(name, value as written)`.
fn committed_cube_point(text: &str, side: u32) -> Vec<(String, String)> {
    let start = text
        .find(&format!("\"side\": {side},"))
        .unwrap_or_else(|| panic!("BENCH_scaling.json has no cube point of side {side}"));
    let end = start + text[start..].find('}').expect("the point's object closes");
    text[start..end]
        .lines()
        .filter_map(|line| {
            let (name, value) = line.trim().trim_end_matches(',').split_once(": ")?;
            Some((name.trim_matches('"').to_string(), value.to_string()))
        })
        .collect()
}

#[test]
fn scaling_report_cube_n8_matches_a_fresh_run() {
    let study = run_cube_study(&CubeStudyConfig {
        sides: vec![8],
        ..CubeStudyConfig::full(2)
    });
    let fresh = &study.points[0];
    let committed = committed_cube_point(&artifact("BENCH_scaling.json"), 8);
    for (name, value) in [
        ("fingerprint", format!("\"{}\"", fresh.fingerprint)),
        ("events", fresh.events.to_string()),
        ("remote_ops", fresh.remote_ops.to_string()),
    ] {
        let written = committed.iter().find(|(n, _)| n == name).map(|(_, v)| v);
        assert_eq!(
            written,
            Some(&value),
            "BENCH_scaling.json cube n = 8 `{name}` differs from a fresh run"
        );
    }
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

/// `(app, trace_chunks, trace_bytes)` of each row of `BENCH_serve.json`,
/// values as written.
fn committed_serve_traces(text: &str) -> Vec<(String, String, String)> {
    let mut rows = Vec::new();
    let (mut app, mut chunks) = (None, None);
    for line in text.lines() {
        let Some((name, value)) = line.trim().trim_end_matches(',').split_once(": ") else {
            continue;
        };
        match name.trim_matches('"') {
            "app" => app = Some(value.trim_matches('"').to_string()),
            "trace_chunks" => chunks = Some(value.to_string()),
            "trace_bytes" => rows.push((
                app.clone().expect("a row names its app before its trace"),
                chunks.take().expect("trace_chunks precedes trace_bytes"),
                value.to_string(),
            )),
            _ => {}
        }
    }
    rows
}

/// The trace sizes in `BENCH_serve.json` come from the current trace
/// codec: a codec change that leaves the artifact stale fails here.
#[test]
fn serve_report_trace_sizes_match_a_fresh_synthesis() {
    let config = ServeConfig::full();
    let committed = committed_serve_traces(&artifact("BENCH_serve.json"));
    for app in SERVE_APPS {
        let bytes = synthesize_serve_trace(&config, app, serve_app_seed(&config, app));
        let reader = TraceV2Reader::new(&bytes).expect("own encoding");
        let rows: Vec<_> = committed.iter().filter(|(a, _, _)| a == app).collect();
        assert!(!rows.is_empty(), "BENCH_serve.json has no {app} row");
        for (_, chunks, size) in rows {
            assert_eq!(
                (chunks.as_str(), size.as_str()),
                (
                    reader.chunk_count().to_string().as_str(),
                    reader.byte_len().to_string().as_str()
                ),
                "BENCH_serve.json {app} `trace_chunks`, `trace_bytes` differ from a fresh trace"
            );
        }
    }
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
