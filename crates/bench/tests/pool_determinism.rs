//! Worker-count invariance of every pool-routed harness.
//!
//! The determinism contract of `sim::pool` is that scheduling must never
//! leak into results: the same sweep run on 1 worker, 2 workers, or the
//! machine default must produce **byte-identical** output. These tests
//! build the tables of the simulated quick figure set (the content of
//! `figures -- all --quick`) and of the composite fault sweep, and the
//! scaling study JSON, at each worker count and compare md5 fingerprints
//! of their text and their unrounded CSV — the same check CI performs
//! across processes with `MULTICUBE_POOL_WORKERS`.

use std::sync::OnceLock;

use multicube::{EngineKind, RunReport};
use multicube_bench::{
    baseline_rows, fault_sweep_rows, fault_sweep_table, mlt_rows, render_scaling_json,
    robustness_rows, run_cube_study, series_view, sim_figure2, sim_figure3, sim_figure4,
    sim_latency_modes, snarf_rows, validate_scaling_report, CubeStudyConfig, Pool, SimSeries,
    SweepConfig, Table,
};
use multicube_mva::FigurePoint;
use multicube_sim::md5_hex;

fn efficiency(p: &FigurePoint) -> f64 {
    p.efficiency
}

/// One worker count per regime: serial, small-parallel, machine default.
fn pools() -> Vec<Pool> {
    vec![Pool::new(1), Pool::new(2), Pool::from_env()]
}

/// The table of `value` along the curves of a simulated figure that lost
/// no point.
fn curves(
    stem: &str,
    sweep: &SweepConfig,
    sims: &[SimSeries],
    value: fn(&FigurePoint) -> f64,
) -> Table {
    for s in sims {
        assert!(
            s.failures.is_empty(),
            "clean sweep expected: {:?}",
            s.failures
        );
    }
    Table::series(stem, stem, &sweep.rates, &series_view(sims), value).unwrap()
}

/// The tables `figures -- all --quick` builds from the simulated sweeps:
/// the figure tables, the utilization table and the fault sweep.
fn quick_figure_tables(pool: &Pool) -> Vec<Table> {
    let sweep = SweepConfig::quick();
    let fig2 = sim_figure2(pool, &[4, 8], &sweep);
    let fig3 = sim_figure3(pool, &[0.1, 0.2, 0.3, 0.4, 0.5], 8, &sweep);
    let fig4 = sim_figure4(pool, &[4, 8, 16, 32, 64], 8, &sweep);
    let latency = sim_latency_modes(pool, 8, &sweep);
    let faults = fault_sweep_rows(pool, 4, &[0.0, 0.1, 0.25, 0.5, 0.75], 15);
    assert!(faults.failures.is_empty());
    vec![
        curves("fig2_sim", &sweep, &fig2, efficiency),
        curves("fig3_sim", &sweep, &fig3, efficiency),
        curves("fig3_sim_rho_row", &sweep, &fig3, |p| p.rho_row),
        curves("fig4_sim", &sweep, &fig4, efficiency),
        curves("latency_sim", &sweep, &latency, efficiency),
        fault_sweep_table(4, &faults.rows),
    ]
}

/// [`quick_figure_tables`] at each of [`pools`], built once for the two
/// tests that compare them.
fn quick_tables_per_pool() -> &'static [Vec<Table>] {
    static TABLES: OnceLock<Vec<Vec<Table>>> = OnceLock::new();
    TABLES.get_or_init(|| pools().iter().map(quick_figure_tables).collect())
}

/// Asserts that `render` of the quick tables has one md5 at every worker
/// count.
fn assert_identical_across_worker_counts(what: &str, render: fn(&Table) -> String) {
    let digests: Vec<String> = quick_tables_per_pool()
        .iter()
        .map(|tables| {
            let bytes: String = tables.iter().map(render).collect();
            assert!(!bytes.is_empty());
            md5_hex(bytes.as_bytes())
        })
        .collect();
    assert_eq!(
        digests[0], digests[1],
        "{what} md5 diverged between 1 and 2 workers"
    );
    assert_eq!(
        digests[0],
        digests[2],
        "{what} md5 diverged at the default worker count ({})",
        Pool::from_env().workers()
    );
}

#[test]
fn quick_figures_are_byte_identical_across_worker_counts() {
    assert_identical_across_worker_counts("figure text", Table::text);
}

/// The CSVs print every number unrounded, so they see a divergence the
/// text's decimals would hide.
#[test]
fn csv_artifacts_are_byte_identical_across_worker_counts() {
    assert_identical_across_worker_counts("CSV", Table::csv);
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
            assert!(cube.failures.is_empty(), "{:?}", cube.failures);
            render_scaling_json(&sides, &sweep, &sims, Some((&cube_cfg, &cube.rows)))
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

/// The A-1, A-2, A-3 and E-1.1 tables run their points on the pool: every
/// row must be bit-identical at 1 and at 3 workers.
#[test]
fn ablation_and_baseline_rows_are_bit_identical_across_worker_counts() {
    // The fields each table prints, as bits.
    let printed = |r: &RunReport| {
        let m = &r.metrics;
        [
            r.efficiency.to_bits(),
            r.ops_per_transaction().to_bits(),
            r.buses[0].utilization.to_bits(),
            m.mlt_overflows.get(),
            m.dropped_signals.get(),
            m.memory_bounces.get(),
            m.read_modified.retries.get(),
            m.read_modified.count,
            m.snarfs.get(),
            m.bus_transactions(),
        ]
    };
    let rows = |pool: &Pool| {
        let mlt = mlt_rows(pool, 4, &[4, 16, 4096], 20);
        let robustness = robustness_rows(pool, 4, &[0.0, 0.25, 0.75], 20);
        let snarf = snarf_rows(pool, 4, 20);
        let baseline = baseline_rows(pool, 10.0, 10);
        assert!(mlt.failures.is_empty() && robustness.failures.is_empty());
        assert!(snarf.failures.is_empty() && baseline.failures.is_empty());
        let mut out: Vec<(u64, [u64; 10])> = Vec::new();
        out.extend(mlt.rows.iter().map(|(c, r)| (*c as u64, printed(r))));
        out.extend(
            robustness
                .rows
                .iter()
                .map(|(p, r)| (p.to_bits(), printed(r))),
        );
        out.extend(
            snarf
                .rows
                .iter()
                .map(|(on, r)| (u64::from(*on), printed(r))),
        );
        for (processors, multi, cube) in &baseline.rows {
            out.push((u64::from(*processors), printed(multi)));
            out.push((u64::from(*processors), printed(cube)));
        }
        out
    };
    let serial = rows(&Pool::new(1));
    assert_eq!(serial.len(), 3 + 3 + 2 + 2 * 6);
    assert_eq!(serial, rows(&Pool::new(3)));
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
