//! Worker-count invariance of every pool-routed harness.
//!
//! The determinism contract of `sim::pool` is that scheduling must never
//! leak into results: the same sweep run on 1 worker, 2 workers, or the
//! machine default must produce **byte-identical** output. These tests
//! render the full quick figure set (the content of `figures -- all
//! --quick`), the composite fault sweep, the scaling study JSON and the
//! CSV artifacts at each worker count and compare md5 fingerprints — the
//! same check CI performs across processes with `MULTICUBE_POOL_WORKERS`.

use multicube::EngineKind;
use multicube_bench::{
    fault_sweep_rows, render_fault_sweep, render_scaling_json, render_series,
    render_series_utilization, run_cube_study, series_view, sim_figure2, sim_figure3, sim_figure4,
    sim_latency_modes, validate_scaling_report, write_fault_sweep_csv, write_series_csv,
    CubeStudyConfig, Pool, SweepConfig,
};
use multicube_sim::md5_hex;

/// One worker count per regime: serial, small-parallel, machine default.
fn pools() -> Vec<Pool> {
    vec![Pool::new(1), Pool::new(2), Pool::from_env()]
}

/// Renders everything `figures -- all --quick` derives from the simulated
/// sweeps, as one byte stream: figure tables, utilization tables and the
/// fault sweep.
fn render_quick_figures(pool: &Pool) -> String {
    let sweep = SweepConfig::quick();
    let mut out = String::new();

    let fig2 = sim_figure2(pool, &[4, 8], &sweep);
    out.push_str(&render_series("Figure 2 (simulated)", &series_view(&fig2)));

    let fig3 = sim_figure3(pool, &[0.1, 0.2, 0.3, 0.4, 0.5], 8, &sweep);
    out.push_str(&render_series("Figure 3 (simulated)", &series_view(&fig3)));
    out.push_str(&render_series_utilization(
        "Figure 3 utilization",
        &series_view(&fig3),
    ));

    let fig4 = sim_figure4(pool, &[4, 8, 16, 32, 64], 8, &sweep);
    out.push_str(&render_series("Figure 4 (simulated)", &series_view(&fig4)));

    let latency = sim_latency_modes(pool, 8, &sweep);
    out.push_str(&render_series("E-5.1 (simulated)", &series_view(&latency)));

    let faults = fault_sweep_rows(pool, 4, &[0.0, 0.1, 0.25, 0.5, 0.75], 15);
    assert!(faults.failures.is_empty());
    out.push_str(&render_fault_sweep("faults", &faults.rows));

    for sims in [&fig2, &fig3, &fig4, &latency] {
        for s in sims {
            assert!(
                s.failures.is_empty(),
                "clean sweep expected: {:?}",
                s.failures
            );
        }
    }
    out
}

#[test]
fn quick_figures_are_byte_identical_across_worker_counts() {
    let digests: Vec<String> = pools()
        .iter()
        .map(|pool| {
            let text = render_quick_figures(pool);
            assert!(!text.is_empty());
            md5_hex(text.as_bytes())
        })
        .collect();
    assert_eq!(
        digests[0], digests[1],
        "figure output md5 diverged between 1 and 2 workers"
    );
    assert_eq!(
        digests[0],
        digests[2],
        "figure output md5 diverged at the default worker count ({})",
        Pool::from_env().workers()
    );
}

#[test]
fn csv_artifacts_are_byte_identical_across_worker_counts() {
    let dir = std::env::temp_dir().join("multicube_pool_csv_test");
    std::fs::create_dir_all(&dir).unwrap();
    let sweep = SweepConfig::quick();
    let mut digests: Vec<(String, String)> = Vec::new();
    for (i, pool) in pools().iter().enumerate() {
        let fig2 = sim_figure2(pool, &[4, 8], &sweep);
        let series_path = dir.join(format!("fig2_{i}.csv"));
        write_series_csv(&series_path, &series_view(&fig2)).unwrap();

        let faults = fault_sweep_rows(pool, 4, &[0.0, 0.5], 15);
        let faults_path = dir.join(format!("faults_{i}.csv"));
        write_fault_sweep_csv(&faults_path, &faults.rows).unwrap();

        digests.push((
            md5_hex(&std::fs::read(&series_path).unwrap()),
            md5_hex(&std::fs::read(&faults_path).unwrap()),
        ));
    }
    assert_eq!(digests[0], digests[1], "CSV md5 diverged at 2 workers");
    assert_eq!(
        digests[0], digests[2],
        "CSV md5 diverged at default workers"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scaling_study_json_is_byte_identical_across_worker_counts() {
    let (sides, sweep) = ([4, 8], SweepConfig::quick());
    let jsons: Vec<String> = pools()
        .iter()
        .map(|pool| {
            let sims = sim_figure2(pool, &sides, &sweep);
            assert!(sims.iter().all(|s| s.failures.is_empty()));
            let cube_cfg = CubeStudyConfig::quick(pool.workers());
            let cube = run_cube_study(&cube_cfg);
            render_scaling_json(&sides, &sweep, &sims, Some(&cube))
        })
        .collect();
    validate_scaling_report(
        &jsons[0],
        &sides,
        &sweep,
        Some(&CubeStudyConfig::quick(Pool::from_env().workers())),
    )
    .unwrap();
    assert_eq!(md5_hex(jsons[0].as_bytes()), md5_hex(jsons[1].as_bytes()));
    assert_eq!(md5_hex(jsons[0].as_bytes()), md5_hex(jsons[2].as_bytes()));
}

/// The cube's worker-count differential, artifact level: every engine's
/// cube run must produce byte-identical per-plane machine traces at 1
/// worker (serial reference), 2 workers, and the environment-default
/// worker count — the same comparison the CI `pool-determinism` job
/// performs across processes.
#[test]
fn cube_traces_are_byte_identical_across_worker_counts_and_engines() {
    for engine in EngineKind::all() {
        let cube_cfg = |workers: usize| {
            let mut cfg = multicube::pdes::CubeConfig::new(3);
            cfg.engine = engine;
            cfg.txns_per_node = 4;
            cfg.remote_ops = 16;
            cfg.remote_gap_ns = 200.0;
            cfg.seed = 0xBE7C;
            cfg.workers = workers;
            cfg.capture_trace = true;
            cfg
        };
        let reference = multicube::pdes::run_cube(&cube_cfg(1));
        let ref_traces: Vec<Option<String>> = reference
            .planes
            .iter()
            .map(|p| p.trace_md5.clone())
            .collect();
        assert!(ref_traces.iter().all(Option::is_some));
        for pool in pools() {
            let workers = pool.workers().max(2);
            let parallel = multicube::pdes::run_cube(&cube_cfg(workers));
            let traces: Vec<Option<String>> = parallel
                .planes
                .iter()
                .map(|p| p.trace_md5.clone())
                .collect();
            assert_eq!(
                traces, ref_traces,
                "{engine:?} plane traces diverged at {workers} workers"
            );
            assert_eq!(
                parallel.fingerprint(),
                reference.fingerprint(),
                "{engine:?} fingerprint diverged at {workers} workers"
            );
        }
    }
}

/// The seed-correlation fix, observed end to end: at the seed level every
/// series used to replay `sweep.seed + i`; now the n=4 and n=8 curves of
/// the same quick sweep are measured from disjoint RNG streams, so their
/// efficiency values differ at every shared rate (identical streams would
/// make low-load points suspiciously equal).
#[test]
fn figure2_series_measure_independent_streams() {
    let fig2 = sim_figure2(&Pool::serial(), &[4, 8], &SweepConfig::quick());
    let a = &fig2[0].series;
    let b = &fig2[1].series;
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.rate_per_ms, pb.rate_per_ms);
        assert_ne!(
            (pa.efficiency, pa.rho_row),
            (pb.efficiency, pb.rho_row),
            "n=4 and n=8 produced identical measurements at rate {} — \
             correlated seed streams?",
            pa.rate_per_ms
        );
    }
}

/// Panic containment end to end: a poisoned sweep point (invalid rate)
/// fails alone; the figure's other series and points all survive, at
/// every worker count.
#[test]
fn poisoned_figure_point_does_not_abort_the_figure() {
    let sweep = SweepConfig {
        rates: vec![2.0, -3.0, 25.0],
        txns_per_node: 8,
        seed: 0x5EED,
    };
    for pool in pools() {
        let sims = sim_figure2(&pool, &[4, 8], &sweep);
        assert_eq!(sims.len(), 2);
        for sim in &sims {
            assert_eq!(sim.series.points.len(), 2, "good points survive");
            assert_eq!(sim.failures.len(), 1, "one failure per series");
            let f = &sim.failures[0];
            assert_eq!(f.rate_per_ms, -3.0);
            assert!(f.message.contains("must be positive"));
        }
        // The two series' failures carry different replay seeds — streams
        // stay separated even in the error path.
        assert_ne!(sims[0].failures[0].seed, sims[1].failures[0].seed);
    }
}
