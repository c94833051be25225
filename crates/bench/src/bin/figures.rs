//! Regenerates the paper's figures and tables.
//!
//! ```text
//! figures [command] [--quick] [--txns N] [--csv DIR] [--out DIR]
//!
//! commands:
//!   fig2      Figure 2: efficiency vs processors per row (model + sim)
//!   fig3      Figure 3: effect of invalidations, 1K processors
//!   fig4      Figure 4: effect of block size, 1K processors
//!   latency   E-5.1: §5 latency-reduction techniques
//!   costs     T-6.1: bus operations per transaction class
//!   scaling   T-6.2: §6 Multicube scaling formulas + the measured
//!             1024-processor scaling study (writes BENCH_scaling.json)
//!   sync      E-4.1: lock traffic, spinning vs distributed queue
//!   baseline  E-1.1: single-bus write-once multi vs Multicube
//!   ablations A-1..A-3: MLT sizing, signal-drop robustness, snarfing
//!   faults    A-2+: composite fault sweep — latency/retries vs fault rate
//!   kdim      E-6.1: the k-dimensional Multicube model (§6 future work)
//!   telemetry per-bus utilization/queueing + per-class latency histograms
//!             and resilience counters (retries, backoff, watchdog)
//!   shootout  protocol shootout — Multicube vs single-bus MESI, Dragon
//!             and write-once on identical seeded workloads (writes
//!             BENCH_shootout.csv)
//!   serve     S-3: the trace-driven serving tier — production-shaped
//!             streams replayed from chunked v2 traces under FCFS vs
//!             round-robin arbitration, 10^7+ transactions in full mode
//!             (writes BENCH_serve.json)
//!   model     T-7.1: exhaustive model-checker state counts per engine +
//!             simulator-subset cross-validation (--quick = push gate
//!             config, default = nightly soak config)
//!   all       everything above
//!
//! options:
//!   --quick   smaller sweeps, each command under about a minute
//!   --txns N  transactions per processor for the sweeps that take it
//!   --csv DIR also write each figure's CSV into DIR
//!   --out DIR write the BENCH_* artifacts into DIR (default: .)
//! ```

use multicube_bench::{
    baseline_rows, costs_table, fault_sweep_rows, mlt_rows, render_bus_telemetry,
    render_class_stats, render_cube_study, render_failures, render_fault_sweep, render_resilience,
    render_scaling_json, render_scaling_study, render_series, render_series_utilization,
    render_serve, render_serve_json, render_shootout, robustness_rows, run_cube_study, run_serve,
    run_shootout, scaling_rows, series_view, sim_figure2, sim_figure3, sim_figure4,
    sim_latency_modes, snarf_rows, sync_rows, validate_scaling_report, validate_serve_report,
    CubeStudyConfig, Pool, ServeConfig, SimSeries, SweepConfig, FIGURE2_SIDES,
};
use multicube_mva::figures as mva;

struct Options {
    quick: bool,
    txns: Option<u64>,
    /// Directory to additionally write per-figure CSV files into.
    csv: Option<std::path::PathBuf>,
    /// Directory the `BENCH_*` artifacts are written into.
    out: std::path::PathBuf,
    /// The worker pool every sweep fans out through
    /// (MULTICUBE_POOL_WORKERS overrides the worker count).
    pool: Pool,
}

impl Options {
    fn maybe_csv(&self, name: &str, series: &[multicube_mva::FigureSeries]) {
        if let Some(dir) = &self.csv {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = dir.join(format!("{name}.csv"));
            multicube_bench::write_series_csv(&path, series).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    }

    /// The path of the artifact `name` in the output directory.
    fn artifact(&self, name: &str) -> std::path::PathBuf {
        std::fs::create_dir_all(&self.out).expect("create output dir");
        self.out.join(name)
    }

    /// Prints any contained sweep-point failures for a figure (a panicked
    /// point no longer aborts the figure; it is reported here instead).
    fn report_failures(&self, title: &str, sims: &[SimSeries]) {
        let text = render_failures(title, sims);
        if !text.is_empty() {
            eprint!("{text}");
        }
    }
}

fn sweep(opts: &Options) -> SweepConfig {
    let mut s = if opts.quick {
        SweepConfig::quick()
    } else {
        SweepConfig::default()
    };
    if let Some(t) = opts.txns {
        s.txns_per_node = t;
    }
    s
}

fn grid_sides(opts: &Options) -> Vec<u32> {
    if opts.quick {
        vec![4, 8]
    } else {
        FIGURE2_SIDES.to_vec()
    }
}

fn big_side(opts: &Options) -> u32 {
    if opts.quick {
        8
    } else {
        32
    }
}

fn fig2(opts: &Options) {
    let model = mva::figure2();
    println!(
        "{}",
        render_series(
            "Figure 2 (model): efficiency vs request rate, n = 8/16/24/32",
            &model
        )
    );
    opts.maybe_csv("fig2_model", &model);
    let sides = grid_sides(opts);
    let sims = sim_figure2(&opts.pool, &sides, &sweep(opts));
    let series = series_view(&sims);
    println!("{}", render_series("Figure 2 (simulated)", &series));
    opts.report_failures("Figure 2 (simulated)", &sims);
    opts.maybe_csv("fig2_sim", &series);
}

fn fig3(opts: &Options) {
    let model = mva::figure3();
    println!(
        "{}",
        render_series(
            "Figure 3 (model): effect of invalidations, 1K processors",
            &model
        )
    );
    opts.maybe_csv("fig3_model", &model);
    let sims = sim_figure3(
        &opts.pool,
        &[0.1, 0.2, 0.3, 0.4, 0.5],
        big_side(opts),
        &sweep(opts),
    );
    let series = series_view(&sims);
    println!(
        "{}",
        render_series(
            "Figure 3 (simulated, broadcast sharing-filter ablation; the faithful protocol always broadcasts, making all curves coincide)",
            &series
        )
    );
    println!(
        "{}",
        render_series_utilization(
            "Figure 3 (simulated): row-bus utilization — the invalidation traffic itself",
            &series
        )
    );
    opts.report_failures("Figure 3 (simulated)", &sims);
}

fn fig4(opts: &Options) {
    let model = mva::figure4();
    println!(
        "{}",
        render_series(
            "Figure 4 (model): effect of block size, 1K processors",
            &model
        )
    );
    opts.maybe_csv("fig4_model", &model);
    println!("Figure 4 sloping dashed line (rate halves as block doubles):");
    for p in mva::figure4_rate_scaled(16.0) {
        println!(
            "  rate={:>6.2}/ms  efficiency={:.4}",
            p.rate_per_ms, p.efficiency
        );
    }
    println!();
    let sims = sim_figure4(
        &opts.pool,
        &[4, 8, 16, 32, 64],
        big_side(opts),
        &sweep(opts),
    );
    let series = series_view(&sims);
    println!("{}", render_series("Figure 4 (simulated)", &series));
    opts.report_failures("Figure 4 (simulated)", &sims);
    opts.maybe_csv("fig4_sim", &series);
}

fn latency(opts: &Options) {
    println!(
        "{}",
        render_series(
            "E-5.1 (model): latency-reduction techniques",
            &mva::latency_modes()
        )
    );
    let sims = sim_latency_modes(&opts.pool, big_side(opts).min(16), &sweep(opts));
    println!(
        "{}",
        render_series("E-5.1 (simulated)", &series_view(&sims))
    );
    opts.report_failures("E-5.1 (simulated)", &sims);
}

fn costs(opts: &Options) {
    let n = if opts.quick { 4 } else { 8 };
    println!("== T-6.1: bus operations per transaction (n = {n}) ==");
    println!(
        "{:<42} {:>16} {:>9} {:>9} {:>6}",
        "scenario", "paper bound", "row ops", "col ops", "ok"
    );
    for row in costs_table(n) {
        println!(
            "{:<42} {:>16} {:>9.1} {:>9.1} {:>6}",
            row.scenario,
            row.paper_bound,
            row.row_ops,
            row.col_ops,
            if row.within_bound { "yes" } else { "NO" }
        );
    }
    println!();
}

fn scaling(opts: &Options) {
    scaling_formulas();
    scaling_study(opts);
}

fn scaling_formulas() {
    println!("== T-6.2: Multicube scaling (buses = k*n^(k-1), bw/proc = k/n) ==");
    println!(
        "{:>4} {:>3} {:>10} {:>7} {:>10} {:>10} {:>12} {:>10}",
        "n", "k", "processors", "buses", "bw/proc", "MLT cover", "inval ops", "path len"
    );
    for r in scaling_rows() {
        println!(
            "{:>4} {:>3} {:>10} {:>7} {:>10.4} {:>10} {:>12.1} {:>10.3}",
            r.n,
            r.k,
            r.processors,
            r.buses,
            r.bandwidth_per_processor,
            r.mlt_coverage_processors,
            r.invalidation_ops,
            r.mean_path_length
        );
    }
    println!();
}

/// The measured scaling study: the simulated Figure 2 — n ∈ {8,16,24,32}
/// (64–1024 processors) across the figure's rates, on its seeds — with
/// bus operations and completions per point, plus the cube study (n³ =
/// 512–32768 processors, the planes run in parallel after two
/// depth-traffic exchanges), written together as `BENCH_scaling.json`
/// alongside the printed tables. Quick mode records only deterministic
/// cube fields, so the artifact is byte-identical at every worker count
/// — the CI pool-determinism job diffs exactly that.
fn scaling_study(opts: &Options) {
    let (sides, sweep) = (grid_sides(opts), sweep(opts));
    let sims = sim_figure2(&opts.pool, &sides, &sweep);
    println!("{}", render_scaling_study(&sides, &sims));
    let cube_cfg = if opts.quick {
        CubeStudyConfig::quick(opts.pool.workers())
    } else {
        CubeStudyConfig::full(opts.pool.workers())
    };
    let cube = run_cube_study(&cube_cfg);
    println!("{}", render_cube_study(&cube));
    let json = render_scaling_json(&sides, &sweep, &sims, Some(&cube));
    validate_scaling_report(&json, &sides, &sweep, Some(&cube_cfg))
        .expect("scaling report validates");
    let path = opts.artifact("BENCH_scaling.json");
    std::fs::write(&path, &json).expect("write scaling json");
    eprintln!("wrote {}", path.display());
}

fn sync(opts: &Options) {
    let (ns, rounds): (Vec<u32>, u64) = if opts.quick {
        (vec![2, 4], 3)
    } else {
        (vec![2, 4, 8], 4)
    };
    println!("== E-4.1: hot-lock bus traffic per acquisition ==");
    println!(
        "{:>4} {:>6} {:>16} {:>14} {:>16} {:>14}",
        "n", "procs", "spin ops/acq", "spin fails", "queue ops/acq", "queue fails"
    );
    for row in sync_rows(&ns, rounds) {
        println!(
            "{:>4} {:>6} {:>16.1} {:>14} {:>16.1} {:>14}",
            row.n,
            row.n * row.n,
            row.spin_ops_per_acq,
            row.spin_failures,
            row.queue_ops_per_acq,
            row.queue_failures
        );
    }
    println!();
}

fn baseline(opts: &Options) {
    let txns = opts.txns.unwrap_or(if opts.quick { 20 } else { 40 });
    println!("== E-1.1: single-bus multi vs Multicube at 10 req/ms ==");
    println!(
        "{:>6} {:>18} {:>14} {:>20}",
        "procs", "multi efficiency", "multi bus util", "multicube efficiency"
    );
    for row in baseline_rows(10.0, txns) {
        println!(
            "{:>6} {:>18.4} {:>14.4} {:>20.4}",
            row.processors, row.multi_efficiency, row.multi_utilization, row.multicube_efficiency
        );
    }
    println!();
}

fn ablations(opts: &Options) {
    let n = if opts.quick { 4 } else { 8 };
    let txns = opts.txns.unwrap_or(60);

    println!("== A-1: modified-line-table sizing (write-heavy, n = {n}) ==");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "capacity", "efficiency", "overflows", "ops/txn"
    );
    for row in mlt_rows(n, &[4, 16, 64, 256, 4096], txns) {
        println!(
            "{:>10} {:>12.4} {:>12} {:>12.2}",
            row.capacity, row.efficiency, row.overflows, row.ops_per_txn
        );
    }
    println!();

    println!("== A-2: §3 robustness — dropped modified signals (n = {n}) ==");
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>22}",
        "drop p", "efficiency", "dropped", "bounces", "retries/modified read"
    );
    for row in robustness_rows(n, &[0.0, 0.1, 0.25, 0.5, 0.75], txns) {
        println!(
            "{:>8.2} {:>12.4} {:>10} {:>10} {:>22.2}",
            row.drop_probability,
            row.efficiency,
            row.dropped,
            row.bounces,
            row.retries_per_read_modified
        );
    }
    println!();

    println!("== A-3: snarfing (hot shared set, n = {n}) ==");
    println!(
        "{:>10} {:>12} {:>10} {:>18}",
        "snarfing", "efficiency", "snarfs", "bus transactions"
    );
    for row in snarf_rows(n, txns) {
        println!(
            "{:>10} {:>12.4} {:>10} {:>18}",
            row.snarfing, row.efficiency, row.snarfs, row.bus_transactions
        );
    }
    println!();
}

fn faults(opts: &Options) {
    let n = if opts.quick { 4 } else { 8 };
    let txns = opts.txns.unwrap_or(60);
    let probs = [0.0, 0.1, 0.25, 0.5, 0.75];
    let sweep = fault_sweep_rows(&opts.pool, n, &probs, txns);
    println!(
        "{}",
        render_fault_sweep(
            &format!(
                "A-2+: composite fault sweep (n = {n}; drop p, loss p/2, dup p/4, \
                 nack p/4, mlt-delay p/4, blackout p/8; backoff 100ns..25us)"
            ),
            &sweep.rows
        )
    );
    for f in &sweep.failures {
        eprintln!("!! fault-sweep point failed: {f}");
    }
    if let Some(dir) = &opts.csv {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = dir.join("fault_sweep.csv");
        multicube_bench::write_fault_sweep_csv(&path, &sweep.rows).expect("write csv");
        eprintln!("wrote {}", path.display());
    }
}

fn kdim(_opts: &Options) {
    use multicube_mva::{dimension_sweep, ModelParams};
    println!("== E-6.1: k-dimensional Multicube (model; §6 'future research') ==");
    println!("n = 8 processors per bus, 10 req/ms/processor, Figure 2 workload mix:");
    println!(
        "{:>4} {:>12} {:>12} {:>14} {:>10} {:>10}",
        "k", "processors", "efficiency", "response (ns)", "rho", "path len"
    );
    for s in dimension_sweep(&ModelParams::figure2(8), &[1, 2, 3, 4, 5], 10.0) {
        println!(
            "{:>4} {:>12} {:>12.4} {:>14.0} {:>10.4} {:>10.3}",
            s.k, s.processors, s.efficiency, s.response_ns, s.rho, s.path_length
        );
    }
    println!();
    println!("Without invalidation broadcasts (pure point-to-point traffic):");
    let mut p = ModelParams::figure2(8);
    p.p_invalidation = 0.0;
    println!(
        "{:>4} {:>12} {:>12} {:>10}",
        "k", "processors", "efficiency", "rho"
    );
    for s in dimension_sweep(&p, &[1, 2, 3, 4, 5], 10.0) {
        println!(
            "{:>4} {:>12} {:>12.4} {:>10.4}",
            s.k, s.processors, s.efficiency, s.rho
        );
    }
    println!();
}

fn telemetry(opts: &Options) {
    use multicube::{Machine, MachineConfig, SyntheticSpec};
    let n = if opts.quick { 4 } else { 8 };
    let txns = opts.txns.unwrap_or(if opts.quick { 40 } else { 200 });
    let spec = SyntheticSpec::default().with_request_rate_per_ms(15.0);
    let mut m = Machine::new(MachineConfig::grid(n).unwrap(), 23).unwrap();
    let report = m.run_synthetic(&spec, txns);
    println!(
        "{}",
        render_bus_telemetry(
            &format!("Telemetry: per-bus utilization and queueing (n = {n}, 15 req/ms)"),
            &report
        )
    );
    println!(
        "{}",
        render_class_stats(
            &format!("Telemetry: per-class op counts and latency quantiles (n = {n})"),
            &report
        )
    );
    println!(
        "{}",
        render_resilience(
            &format!("Telemetry: resilience — retries, backoff and fault counters (n = {n})"),
            &report
        )
    );
    if let Some(dir) = &opts.csv {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let bus_path = dir.join("telemetry_buses.csv");
        multicube_bench::write_bus_telemetry_csv(&bus_path, &report).expect("write csv");
        eprintln!("wrote {}", bus_path.display());
        let class_path = dir.join("telemetry_classes.csv");
        multicube_bench::write_class_stats_csv(&class_path, &report).expect("write csv");
        eprintln!("wrote {}", class_path.display());
    }
}

/// The protocol shootout: all four engines on identical seeded
/// workloads, written as `BENCH_shootout.csv` alongside the printed
/// table (see `multicube_bench::shootout` for the methodology).
fn shootout(opts: &Options) {
    let n = if opts.quick { 4 } else { 8 };
    let s = run_shootout(&opts.pool, n, &sweep(opts));
    println!(
        "{}",
        render_shootout(
            &format!(
                "Shootout: Multicube grid vs single-bus MESI, Dragon and write-once \
                 (n = {n}, identical workloads per rate)"
            ),
            &s
        )
    );
    for f in &s.failures {
        eprintln!("!! shootout point failed: {f}");
    }
    let path = opts.artifact("BENCH_shootout.csv");
    multicube_bench::write_shootout_csv(&path, &s.rows).expect("write shootout csv");
    eprintln!("wrote {}", path.display());
    if let Some(dir) = &opts.csv {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = dir.join("shootout.csv");
        multicube_bench::write_shootout_csv(&path, &s.rows).expect("write csv");
        eprintln!("wrote {}", path.display());
    }
}

/// S-3: the trace-driven serving tier. Each application's request
/// stream is synthesized offline into a chunked v2 trace, then replayed
/// through the machine once per arbitration policy (identical trace per
/// app), written as `BENCH_serve.json` alongside the printed table (see
/// `multicube_bench::serve` for the methodology).
fn serve(opts: &Options) {
    let cfg = if opts.quick {
        ServeConfig::quick()
    } else {
        ServeConfig::full()
    };
    let study = run_serve(&opts.pool, &cfg);
    println!(
        "{}",
        render_serve(
            &format!(
                "S-3: serving tier — {rpn} requests/node on {n}x{n} nodes, \
                 FCFS vs round-robin arbitration",
                rpn = cfg.requests_per_node,
                n = cfg.n
            ),
            &study
        )
    );
    let json = render_serve_json(&study);
    validate_serve_report(&json, &cfg).expect("serve report validates");
    let path = opts.artifact("BENCH_serve.json");
    std::fs::write(&path, &json).expect("write serve json");
    eprintln!("wrote {}", path.display());
    if let Some(dir) = &opts.csv {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = dir.join("serve.csv");
        multicube_bench::write_serve_csv(&path, &study.rows).expect("write csv");
        eprintln!("wrote {}", path.display());
    }
}

/// T-7.1: the exhaustive protocol verification table — explored-state
/// counts per engine from the `multicube-model` checker, plus the
/// simulator-subset cross-validation. `--quick` runs the push-gate
/// configuration (1 line, 2 txns); the default runs the nightly soak
/// configuration (2 lines, 3 txns, fault budget 2).
fn model(opts: &Options) {
    use multicube::EngineKind;
    use multicube_model::ModelConfig;

    let (lines, txns, budget) = if opts.quick { (1, 2, 1) } else { (2, 3, 2) };
    println!("Model checker: exhaustive state-space exploration (2x2 grid, {lines} line(s), {txns} txns)");
    println!("engine     budget     states transitions  idle-fps  xval");
    for engine in EngineKind::all() {
        let b = if engine == EngineKind::Multicube {
            budget
        } else {
            0
        };
        let cfg = ModelConfig::new(engine, lines, txns, b);
        let ex = multicube_model::check_model(&cfg);
        assert!(
            ex.violation.is_none() && !ex.truncated,
            "{}: model exploration failed",
            engine.name()
        );
        let idle = multicube_model::idle_fingerprints(&cfg, &ex).len();
        let xval = multicube_model::cross_validate(&cfg).expect("cross-validation");
        println!(
            "{:<10} {:>6} {:>10} {:>11} {:>9}  {} sim runs, {} fingerprints, sim is a subset of model",
            engine.name(),
            b,
            ex.states.len(),
            ex.transitions,
            idle,
            xval.sim_runs,
            xval.fingerprints_checked,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = String::from("all");
    let mut opts = Options {
        quick: false,
        txns: None,
        csv: None,
        out: std::path::PathBuf::from("."),
        pool: Pool::from_env(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--txns" => {
                opts.txns = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .or_else(|| panic!("--txns needs a number"));
            }
            "--csv" => {
                opts.csv = it.next().map(std::path::PathBuf::from);
                assert!(opts.csv.is_some(), "--csv needs a directory");
            }
            "--out" => {
                opts.out = it
                    .next()
                    .map(std::path::PathBuf::from)
                    .expect("--out needs a directory");
            }
            c if !c.starts_with('-') => command = c.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }
    match command.as_str() {
        "fig2" => fig2(&opts),
        "fig3" => fig3(&opts),
        "fig4" => fig4(&opts),
        "latency" => latency(&opts),
        "costs" => costs(&opts),
        "scaling" => scaling(&opts),
        "sync" => sync(&opts),
        "baseline" => baseline(&opts),
        "ablations" => ablations(&opts),
        "faults" => faults(&opts),
        "kdim" => kdim(&opts),
        "telemetry" => telemetry(&opts),
        "shootout" => shootout(&opts),
        "serve" => serve(&opts),
        "model" => model(&opts),
        "all" => {
            fig2(&opts);
            fig3(&opts);
            fig4(&opts);
            latency(&opts);
            costs(&opts);
            scaling(&opts);
            sync(&opts);
            baseline(&opts);
            ablations(&opts);
            faults(&opts);
            kdim(&opts);
            telemetry(&opts);
            shootout(&opts);
            serve(&opts);
            model(&opts);
        }
        other => panic!("unknown command {other}; see --help in the source header"),
    }
}
