//! The committed `BENCH_*` artifacts must match the code and the mode
//! that produced them: full mode, the current schema, and — for the
//! deterministic shootout, the n = 8 grid points and the deterministic
//! fields of the n = 8 cube, and the serving tier's trace sizes — what a
//! fresh run produces. A quick-mode, schema-stale or outdated artifact
//! fails here instead of silently misdescribing the code.

use std::path::PathBuf;

use multicube_bench::json::{self, Value};
use multicube_bench::perf::{validate_report, PerfConfig};
use multicube_bench::{
    run_cube_study, run_shootout, serve_app_seed, sim_figure2, synthesize_serve_trace,
    validate_scaling_report, validate_serve_report, write_shootout_csv, CubeStudyConfig, Pool,
    ServeConfig, SweepConfig, FIGURE2_SIDES, SERVE_APPS,
};
use multicube_workload::TraceV2Reader;

/// Reads a committed artifact from the workspace root.
fn artifact(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The committed scaling report against the full study's configuration.
fn validate_full_scaling(text: &str) -> Result<(), String> {
    validate_scaling_report(
        text,
        &FIGURE2_SIDES,
        &SweepConfig::default(),
        Some(&CubeStudyConfig::full(2)),
    )
}

#[test]
fn core_report_is_a_full_mode_run() {
    validate_report(&artifact("BENCH_core.json"), &PerfConfig::full()).unwrap();
}

#[test]
fn scaling_report_is_the_full_study_at_the_current_schema() {
    validate_full_scaling(&artifact("BENCH_scaling.json")).unwrap();
}

#[test]
fn scaling_report_cube_n8_matches_a_fresh_run() {
    let study = run_cube_study(&CubeStudyConfig {
        sides: vec![8],
        ..CubeStudyConfig::full(2)
    });
    let fresh = &study.points[0];
    let report = json::parse(&artifact("BENCH_scaling.json")).unwrap();
    let committed = report
        .field("cube")
        .and_then(|cube| cube.array_field("points"))
        .unwrap()
        .iter()
        .find(|p| p.u64_field("side") == Ok(8))
        .expect("BENCH_scaling.json has a cube point of side 8");
    assert_eq!(
        (
            committed.str_field("fingerprint"),
            committed.u64_field("events"),
            committed.u64_field("remote_ops"),
        ),
        (
            Ok(fresh.fingerprint.as_str()),
            Ok(fresh.events),
            Ok(fresh.remote_ops)
        ),
        "BENCH_scaling.json cube n = 8 `fingerprint`, `events`, `remote_ops` differ from a fresh run"
    );
}

/// The grid half of `BENCH_scaling.json` is the simulated Figure 2: its
/// n = 8 points are a fresh Figure-2 sweep's, on the figure's seeds, at
/// the artifact's decimals.
#[test]
fn scaling_report_grid_n8_matches_a_fresh_figure2_sweep() {
    let sims = sim_figure2(&Pool::new(2), &[8], &SweepConfig::default());
    assert!(sims[0].failures.is_empty(), "{:?}", sims[0].failures);
    let report = json::parse(&artifact("BENCH_scaling.json")).unwrap();
    let committed: Vec<&Value> = report
        .array_field("points")
        .unwrap()
        .iter()
        .filter(|p| p.u64_field("n") == Ok(8))
        .collect();
    let fresh = &sims[0];
    assert_eq!(committed.len(), fresh.runs.len(), "n = 8 point count");
    let field = |p: &Value, key: &str| p.field(key).cloned();
    for ((c, point), run) in committed.iter().zip(&fresh.series.points).zip(&fresh.runs) {
        assert_eq!(
            (
                c.f64_field("rate_per_ms"),
                c.u64_field("seed"),
                field(c, "efficiency"),
                field(c, "rho_row"),
                field(c, "rho_col"),
                field(c, "ops_per_txn"),
                c.u64_field("completed"),
            ),
            (
                Ok(point.rate_per_ms),
                Ok(run.seed),
                Ok(Value::fixed(point.efficiency, 6)),
                Ok(Value::fixed(point.rho_row, 6)),
                Ok(Value::fixed(point.rho_col, 6)),
                Ok(Value::fixed(run.ops_per_txn, 4)),
                Ok(run.completed),
            ),
            "BENCH_scaling.json n = 8 point at {} req/ms differs from `sim_figure2`",
            point.rate_per_ms
        );
    }
}

#[test]
fn serve_report_is_the_full_study() {
    validate_serve_report(&artifact("BENCH_serve.json"), &ServeConfig::full()).unwrap();
}

/// The trace sizes in `BENCH_serve.json` come from the current trace
/// codec: a codec change that leaves the artifact stale fails here.
#[test]
fn serve_report_trace_sizes_match_a_fresh_synthesis() {
    let config = ServeConfig::full();
    let report = json::parse(&artifact("BENCH_serve.json")).unwrap();
    let rows = report.array_field("rows").unwrap();
    for app in SERVE_APPS {
        let bytes = synthesize_serve_trace(&config, app, serve_app_seed(&config, app));
        let reader = TraceV2Reader::new(&bytes).expect("own encoding");
        let committed: Vec<&Value> = rows
            .iter()
            .filter(|r| r.str_field("app") == Ok(app))
            .collect();
        assert!(!committed.is_empty(), "BENCH_serve.json has no {app} row");
        for row in committed {
            assert_eq!(
                (row.u64_field("trace_chunks"), row.u64_field("trace_bytes")),
                (
                    Ok(u64::from(reader.chunk_count())),
                    Ok(reader.byte_len() as u64)
                ),
                "BENCH_serve.json {app} `trace_chunks`, `trace_bytes` differ from a fresh trace"
            );
        }
    }
}

/// The codec owns the artifacts' layout: each committed file parses and
/// reprints byte for byte.
#[test]
fn committed_json_artifacts_reprint_byte_for_byte() {
    for name in ["BENCH_core.json", "BENCH_scaling.json", "BENCH_serve.json"] {
        let text = artifact(name);
        let reprinted = json::parse(&text)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .pretty();
        assert!(reprinted == text, "{name} does not reprint byte for byte");
    }
}

/// Damage that keeps every substring a count-based check looks for still
/// fails validation.
#[test]
fn corrupted_artifacts_fail_validation() {
    let core = artifact("BENCH_core.json");
    let scaling = artifact("BENCH_scaling.json");
    let serve = artifact("BENCH_serve.json");
    let changed = |from: &str, to: String| {
        assert_ne!(from, to, "the corruption changes the file");
        to
    };
    let truncated = |text: &str| text[..text.len() - 3].to_string();

    let no_commas = changed(&core, core.replace(",\n", ""));
    assert!(validate_report(&no_commas, &PerfConfig::full()).is_err());

    let relabelled_rate = changed(
        &scaling,
        scaling.replace("\"rate_per_ms\": 30,", "\"rate_per_ms\": 2,"),
    );
    assert!(validate_full_scaling(&relabelled_rate).is_err());
    assert!(validate_full_scaling(&truncated(&scaling)).is_err());

    let relabelled_app = changed(
        &serve,
        serve.replace("\"app\": \"oltp\"", "\"app\": \"web-session\""),
    );
    assert!(validate_serve_report(&relabelled_app, &ServeConfig::full()).is_err());
    assert!(validate_serve_report(&truncated(&serve), &ServeConfig::full()).is_err());
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
