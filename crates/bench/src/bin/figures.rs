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
//!   telemetry per-bus utilization/queueing, per-class latency quantiles
//!             and histograms, and retry, fault and watchdog counters
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
//!   --txns N  transactions per processor (N > 0) for the sweeps that
//!             take it
//!   --csv DIR also write each printed table, numbers unrounded, as
//!             DIR/<stem>.csv
//!   --out DIR write the BENCH_* artifacts into DIR (default: .)
//! ```
//!
//! Every result prints as one `multicube_bench::Table`, and `--csv` writes
//! each table's CSV beside it. Four tables get no CSV because a `BENCH_*`
//! artifact holds their rows: the scaling grid and the cube study
//! (`BENCH_scaling.json`), S-3 (`BENCH_serve.json`) and the shootout,
//! whose CSV is `BENCH_shootout.csv`.
//!
//! Every measured point — a simulated figure point, a table row, a cube,
//! a serving-tier replay, an engine's model check — is a job of the one
//! runner (`multicube_bench::measure`). A point that panics is contained:
//! its figure or table prints without it and the failure, with its
//! replay coordinates and the panic's location, goes to stderr once. A
//! study that lost points writes no `BENCH_*` artifact and says so on
//! stderr, and the run goes on. After all output, `figures` exits nonzero
//! if any point failed.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use multicube::{MachineConfig, SyntheticSpec};
use multicube_bench::{
    baseline_rows, collect_failures, costs_table, cube_table, fault_sweep_rows, fault_sweep_table,
    measure, mlt_rows, render_scaling_json, render_serve_json, robustness_rows, run_cube_study,
    run_points, run_serve, run_shootout, scaling_grid_table, scaling_rows, series_view,
    serve_table, shootout_table, sim_figure2, sim_figure3, sim_figure4, sim_latency_modes,
    snarf_rows, sync_rows, telemetry_tables, CubeStudyConfig, Measured, Point, PointFailure, Pool,
    ServeConfig, SimPoint, SimSeries, SweepConfig, Table, FIGURE2_SIDES,
};
use multicube_mva::figures as mva;
use multicube_mva::{FigurePoint, FigureSeries};

struct Options {
    quick: bool,
    txns: Option<u64>,
    /// Directory to additionally write each table's CSV file into.
    csv: Option<PathBuf>,
    /// Directory the `BENCH_*` artifacts are written into.
    out: PathBuf,
    /// The worker pool every sweep fans out through
    /// (MULTICUBE_POOL_WORKERS overrides the worker count).
    pool: Pool,
    /// Simulated points that failed, over every command run.
    failed: Cell<usize>,
}

impl Options {
    /// Prints `table` and, with `--csv DIR`, writes it as
    /// `DIR/<stem>.csv`.
    fn table(&self, table: &Table) {
        println!("{}", table.text());
        if let Some(dir) = &self.csv {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = dir.join(format!("{}.csv", table.stem));
            std::fs::write(&path, table.csv())
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            eprintln!("wrote {}", path.display());
        }
    }

    /// Writes the artifact `name` into the output directory with `write`,
    /// unless its study lost `failed` points: an artifact without them
    /// would pass for a complete run.
    fn artifact(
        &self,
        name: &str,
        failed: usize,
        write: impl FnOnce(&Path) -> std::io::Result<()>,
    ) {
        if failed > 0 {
            eprintln!("!! {name} not written: {failed} point(s) failed");
            return;
        }
        std::fs::create_dir_all(&self.out).expect("create output dir");
        let path = self.out.join(name);
        write(&path).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }

    /// Prints a figure's or table's contained point failures, with their
    /// replay coordinates, on stderr and counts them towards the exit
    /// status.
    fn report_failures(&self, title: &str, failures: &[PointFailure]) {
        if !failures.is_empty() {
            eprintln!("!! {title}: {} point(s) failed:", failures.len());
        }
        for f in failures {
            eprintln!("!!   {f}");
        }
        self.failed.set(self.failed.get() + failures.len());
    }

    /// Reports `table`'s failures under `title` and returns its rows.
    fn rows<R>(&self, title: &str, table: Measured<R>) -> Vec<R> {
        self.report_failures(title, &table.failures);
        table.rows
    }
}

/// The table of `value` along each curve of `series`, one row per rate
/// of `rates`.
fn curves(
    stem: &str,
    title: &str,
    rates: &[f64],
    series: &[FigureSeries],
    value: fn(&FigurePoint) -> f64,
) -> Table {
    Table::series(stem, title, rates, series, value).unwrap_or_else(|e| panic!("{title}: {e}"))
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

/// The simulated Figure 2 sweep over `sweep`, its failed points reported
/// here once. `fig2` prints it and the scaling study records it, so `all`
/// runs it once for both.
fn figure2_sweep(opts: &Options, sweep: &SweepConfig) -> Vec<SimSeries> {
    let sims = sim_figure2(&opts.pool, &grid_sides(opts), sweep);
    opts.report_failures("Figure 2 (simulated)", &collect_failures(&sims));
    sims
}

fn fig2(opts: &Options, sweep: &SweepConfig, sims: &[SimSeries]) {
    opts.table(&curves(
        "fig2_model",
        "Figure 2 (model): efficiency vs request rate, n = 8/16/24/32",
        &mva::default_rates(),
        &mva::figure2(),
        |p| p.efficiency,
    ));
    opts.table(&curves(
        "fig2_sim",
        "Figure 2 (simulated)",
        &sweep.rates,
        &series_view(sims),
        |p| p.efficiency,
    ));
}

fn fig3(opts: &Options) {
    opts.table(&curves(
        "fig3_model",
        "Figure 3 (model): effect of invalidations, 1K processors",
        &mva::default_rates(),
        &mva::figure3(),
        |p| p.efficiency,
    ));
    let sweep = sweep(opts);
    let sims = sim_figure3(
        &opts.pool,
        &[0.1, 0.2, 0.3, 0.4, 0.5],
        big_side(opts),
        &sweep,
    );
    let title = "Figure 3 (simulated, broadcast sharing-filter ablation; the faithful protocol always broadcasts, making all curves coincide)";
    opts.report_failures(title, &collect_failures(&sims));
    let series = series_view(&sims);
    opts.table(&curves("fig3_sim", title, &sweep.rates, &series, |p| {
        p.efficiency
    }));
    opts.table(&curves(
        "fig3_sim_rho_row",
        "Figure 3 (simulated): row-bus utilization — the invalidation traffic itself",
        &sweep.rates,
        &series,
        |p| p.rho_row,
    ));
}

fn fig4(opts: &Options) {
    opts.table(&curves(
        "fig4_model",
        "Figure 4 (model): effect of block size, 1K processors",
        &mva::default_rates(),
        &mva::figure4(),
        |p| p.efficiency,
    ));
    opts.table(&Table::new(
        "fig4_model_rate_scaled",
        "Figure 4 (model): sloping dashed line, the rate halves as the block doubles",
        &mva::figure4_rate_scaled(16.0),
        &[
            ("rate_per_ms", Some(2), &|p| p.rate_per_ms.into()),
            ("efficiency", Some(4), &|p| p.efficiency.into()),
        ],
    ));
    let sweep = sweep(opts);
    let sims = sim_figure4(&opts.pool, &[4, 8, 16, 32, 64], big_side(opts), &sweep);
    let title = "Figure 4 (simulated)";
    opts.report_failures(title, &collect_failures(&sims));
    opts.table(&curves(
        "fig4_sim",
        title,
        &sweep.rates,
        &series_view(&sims),
        |p| p.efficiency,
    ));
}

fn latency(opts: &Options) {
    opts.table(&curves(
        "latency_model",
        "E-5.1 (model): latency-reduction techniques",
        &mva::default_rates(),
        &mva::latency_modes(),
        |p| p.efficiency,
    ));
    let sweep = sweep(opts);
    let sims = sim_latency_modes(&opts.pool, big_side(opts).min(16), &sweep);
    let title = "E-5.1 (simulated)";
    opts.report_failures(title, &collect_failures(&sims));
    opts.table(&curves(
        "latency_sim",
        title,
        &sweep.rates,
        &series_view(&sims),
        |p| p.efficiency,
    ));
}

fn costs(opts: &Options) {
    let n = if opts.quick { 4 } else { 8 };
    opts.table(&Table::new(
        "costs",
        format!("T-6.1: bus operations per transaction (n = {n})"),
        &opts.rows("T-6.1", costs_table(&opts.pool, n)),
        &[
            ("scenario", None, &|r| r.scenario.into()),
            ("paper bound", None, &|r| r.paper_bound.as_str().into()),
            ("row ops", Some(1), &|r| r.row_ops.into()),
            ("col ops", Some(1), &|r| r.col_ops.into()),
            ("ok", None, &|r| {
                if r.within_bound { "yes" } else { "NO" }.into()
            }),
        ],
    ));
}

/// The cube study's configuration: quick or full, on the pool's workers.
fn cube_config(opts: &Options) -> CubeStudyConfig {
    if opts.quick {
        CubeStudyConfig::quick(opts.pool.workers())
    } else {
        CubeStudyConfig::full(opts.pool.workers())
    }
}

fn scaling(opts: &Options, sweep: &SweepConfig, sims: &[SimSeries], cube: &CubeStudyConfig) {
    scaling_formulas(opts);
    scaling_study(opts, sweep, sims, cube);
}

fn scaling_formulas(opts: &Options) {
    opts.table(&Table::new(
        "scaling_formulas",
        "T-6.2: Multicube scaling (buses = k*n^(k-1), bw/proc = k/n)",
        &scaling_rows(),
        &[
            ("n", None, &|r| r.n.into()),
            ("k", None, &|r| u32::from(r.k).into()),
            ("processors", None, &|r| r.processors.into()),
            ("buses", None, &|r| r.buses.into()),
            ("bw/proc", Some(4), &|r| r.bandwidth_per_processor.into()),
            ("MLT cover", None, &|r| r.mlt_coverage_processors.into()),
            ("inval ops", Some(1), &|r| r.invalidation_ops.into()),
            ("path len", Some(3), &|r| r.mean_path_length.into()),
        ],
    ));
}

/// The measured scaling study: the simulated Figure 2 `sims` over `sweep`
/// — n ∈ {8,16,24,32} (64–1024 processors) across the figure's rates, on
/// its seeds — with bus operations and completions per point, plus the
/// `cube` study (n³ = 512–32768 processors, the planes run in parallel
/// after two depth-traffic exchanges), written together as
/// `BENCH_scaling.json` alongside the printed tables unless either half
/// lost a point. Every field is deterministic, so the artifact is
/// byte-identical at every worker count — the CI pool-determinism job
/// diffs exactly that — and a full run reproduces the committed file.
fn scaling_study(opts: &Options, sweep: &SweepConfig, sims: &[SimSeries], cube: &CubeStudyConfig) {
    let sides = grid_sides(opts);
    // No CSV for either table: BENCH_scaling.json holds their rows.
    println!("{}", scaling_grid_table(&sides, sims).text());
    let study = run_cube_study(cube);
    let failed = collect_failures(sims).len() + study.failures.len();
    let points = opts.rows("Cube scaling study", study);
    println!("{}", cube_table(cube, &points).text());
    opts.artifact("BENCH_scaling.json", failed, |path| {
        let json = render_scaling_json(&sides, sweep, sims, Some((cube, &points)));
        std::fs::write(path, json)
    });
}

fn sync(opts: &Options) {
    let (ns, rounds): (Vec<u32>, u64) = if opts.quick {
        (vec![2, 4], 3)
    } else {
        (vec![2, 4, 8], 4)
    };
    opts.table(&Table::new(
        "sync",
        "E-4.1: hot-lock bus traffic per acquisition",
        &opts.rows("E-4.1", sync_rows(&opts.pool, &ns, rounds)),
        &[
            ("n", None, &|r| r.n.into()),
            ("procs", None, &|r| (r.n * r.n).into()),
            ("spin ops/acq", Some(1), &|r| r.spin_ops_per_acq.into()),
            ("spin fails", None, &|r| r.spin_failures.into()),
            ("queue ops/acq", Some(1), &|r| r.queue_ops_per_acq.into()),
            ("queue fails", None, &|r| r.queue_failures.into()),
        ],
    ));
}

fn baseline(opts: &Options) {
    let txns = opts.txns.unwrap_or(if opts.quick { 20 } else { 40 });
    opts.table(&Table::new(
        "baseline",
        "E-1.1: single-bus multi vs Multicube at 10 req/ms",
        &opts.rows("E-1.1", baseline_rows(&opts.pool, 10.0, txns)),
        &[
            ("procs", None, &|(processors, _, _)| (*processors).into()),
            ("multi efficiency", Some(4), &|(_, multi, _)| {
                multi.efficiency.into()
            }),
            ("multi bus util", Some(4), &|(_, multi, _)| {
                multi.buses[0].utilization.into()
            }),
            ("multicube efficiency", Some(4), &|(_, _, cube)| {
                cube.efficiency.into()
            }),
        ],
    ));
}

fn ablations(opts: &Options) {
    let n = if opts.quick { 4 } else { 8 };
    let txns = opts.txns.unwrap_or(60);

    let mlt = mlt_rows(&opts.pool, n, &[4, 16, 64, 256, 4096], txns);
    opts.table(&Table::new(
        "ablation_mlt",
        format!("A-1: modified-line-table sizing (write-heavy, n = {n})"),
        &opts.rows("A-1", mlt),
        &[
            ("capacity", None, &|(capacity, _)| (*capacity).into()),
            ("efficiency", Some(4), &|(_, r)| r.efficiency.into()),
            ("overflows", None, &|(_, r)| {
                r.metrics.mlt_overflows.get().into()
            }),
            ("ops/txn", Some(2), &|(_, r)| r.ops_per_transaction().into()),
        ],
    ));

    let robustness = robustness_rows(&opts.pool, n, &[0.0, 0.1, 0.25, 0.5, 0.75], txns);
    opts.table(&Table::new(
        "ablation_signal_drop",
        format!("A-2: §3 robustness — dropped modified signals (n = {n})"),
        &opts.rows("A-2", robustness),
        &[
            ("drop p", Some(2), &|(p, _)| (*p).into()),
            ("efficiency", Some(4), &|(_, r)| r.efficiency.into()),
            ("dropped", None, &|(_, r)| {
                r.metrics.dropped_signals.get().into()
            }),
            ("bounces", None, &|(_, r)| {
                r.metrics.memory_bounces.get().into()
            }),
            ("retries/modified read", Some(2), &|(_, r)| {
                let rm = &r.metrics.read_modified;
                (rm.retries.get() as f64 / rm.count.max(1) as f64).into()
            }),
        ],
    ));

    opts.table(&Table::new(
        "ablation_snarf",
        format!("A-3: snarfing (hot shared set, n = {n})"),
        &opts.rows("A-3", snarf_rows(&opts.pool, n, txns)),
        &[
            ("snarfing", None, &|(on, _)| on.to_string().into()),
            ("efficiency", Some(4), &|(_, r)| r.efficiency.into()),
            ("snarfs", None, &|(_, r)| r.metrics.snarfs.get().into()),
            ("bus transactions", None, &|(_, r)| {
                r.metrics.bus_transactions().into()
            }),
        ],
    ));
}

fn faults(opts: &Options) {
    let n = if opts.quick { 4 } else { 8 };
    let txns = opts.txns.unwrap_or(60);
    let probs = [0.0, 0.1, 0.25, 0.5, 0.75];
    let rows = opts.rows("A-2+", fault_sweep_rows(&opts.pool, n, &probs, txns));
    opts.table(&fault_sweep_table(n, &rows));
}

fn kdim(opts: &Options) {
    use multicube_mva::{dimension_sweep, ModelParams};
    let ks = [1, 2, 3, 4, 5];
    opts.table(&Table::new(
        "kdim",
        "E-6.1: k-dimensional Multicube (model; §6 'future research'): n = 8 processors \
         per bus, 10 req/ms/processor, Figure 2 workload mix",
        &dimension_sweep(&ModelParams::figure2(8), &ks, 10.0),
        &[
            ("k", None, &|s| u32::from(s.k).into()),
            ("processors", None, &|s| s.processors.into()),
            ("efficiency", Some(4), &|s| s.efficiency.into()),
            ("response (ns)", Some(0), &|s| s.response_ns.into()),
            ("rho", Some(4), &|s| s.rho.into()),
            ("path len", Some(3), &|s| s.path_length.into()),
        ],
    ));
    let mut p = ModelParams::figure2(8);
    p.p_invalidation = 0.0;
    opts.table(&Table::new(
        "kdim_point_to_point",
        "E-6.1 without invalidation broadcasts (pure point-to-point traffic)",
        &dimension_sweep(&p, &ks, 10.0),
        &[
            ("k", None, &|s| u32::from(s.k).into()),
            ("processors", None, &|s| s.processors.into()),
            ("efficiency", Some(4), &|s| s.efficiency.into()),
            ("rho", Some(4), &|s| s.rho.into()),
        ],
    ));
}

fn telemetry(opts: &Options) {
    let n = if opts.quick { 4 } else { 8 };
    let point = |index, n| SimPoint {
        series: format!("telemetry n={n}"),
        index,
        rate_per_ms: 15.0,
        seed: 23,
        config: MachineConfig::grid(n).expect("valid n"),
        spec: SyntheticSpec::default(),
        txns_per_node: opts.txns.unwrap_or(if opts.quick { 40 } else { 200 }),
    };
    let run = run_points(&opts.pool, &[n], point, |_, report| report);
    let Some(report) = opts.rows("Telemetry", run).pop() else {
        return;
    };
    for table in telemetry_tables(&format!("n = {n}, 15 req/ms"), &report) {
        opts.table(&table);
    }
}

/// The protocol shootout: all four engines on identical seeded
/// workloads. Its table prints, and its CSV is written as
/// `BENCH_shootout.csv` (see `multicube_bench::shootout` for the
/// methodology).
fn shootout(opts: &Options) {
    let (n, sweep) = (if opts.quick { 4 } else { 8 }, sweep(opts));
    let study = run_shootout(&opts.pool, n, &sweep);
    let failed = study.failures.len();
    let rows = opts.rows("Shootout", study);
    let table = shootout_table(n, &sweep, &rows);
    // Its CSV is the artifact.
    println!("{}", table.text());
    opts.artifact("BENCH_shootout.csv", failed, |path| {
        std::fs::write(path, table.csv())
    });
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
    let failed = study.failures.len();
    let rows = opts.rows("S-3", study);
    // No CSV: BENCH_serve.json holds its rows.
    println!("{}", serve_table(&cfg, &rows).text());
    opts.artifact("BENCH_serve.json", failed, |path| {
        std::fs::write(path, render_serve_json(&cfg, &rows))
    });
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
    let points = EngineKind::all()
        .into_iter()
        .enumerate()
        .map(|(index, engine)| Point {
            series: "model".to_string(),
            index,
            rate_per_ms: 0.0,
            seed: 0,
            job: Box::new(move || {
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
                (engine, b, ex.states.len(), ex.transitions, idle, xval)
            }),
        })
        .collect();
    opts.table(&Table::new(
        "model_check",
        format!(
            "T-7.1: exhaustive state-space exploration (2x2 grid, {lines} line(s), {txns} txns); \
             the simulator's fingerprints are a subset of the model's"
        ),
        &opts.rows("T-7.1", measure(&opts.pool, points)),
        &[
            ("engine", None, &|r| r.0.name().into()),
            ("budget", None, &|r| u32::from(r.1).into()),
            ("states", None, &|r| r.2.into()),
            ("transitions", None, &|r| r.3.into()),
            ("idle-fps", None, &|r| r.4.into()),
            ("sim runs", None, &|r| r.5.sim_runs.into()),
            ("fingerprints", None, &|r| r.5.fingerprints_checked.into()),
        ],
    ));
}

/// The value of a flag: the next of `args`.
///
/// # Panics
///
/// Panics with `needs` when there is no next argument or it starts with
/// `--`: a directory named `--quick` is a forgotten value, not a choice.
fn flag_value<'a>(args: &mut impl Iterator<Item = &'a String>, needs: &str) -> &'a str {
    match args.next() {
        Some(value) if !value.starts_with("--") => value,
        _ => panic!("{needs}"),
    }
}

fn main() -> ExitCode {
    multicube_sim::pool::install_job_panic_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = String::from("all");
    let mut opts = Options {
        quick: false,
        txns: None,
        csv: None,
        out: PathBuf::from("."),
        pool: Pool::from_env(),
        failed: Cell::new(0),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--txns" => {
                opts.txns = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&txns| txns > 0)
                    .or_else(|| panic!("--txns needs a positive number"));
            }
            "--csv" => opts.csv = Some(flag_value(&mut it, "--csv needs a directory").into()),
            "--out" => opts.out = flag_value(&mut it, "--out needs a directory").into(),
            c if !c.starts_with('-') => command = c.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }
    let sweep = sweep(&opts);
    match command.as_str() {
        "fig2" => fig2(&opts, &sweep, &figure2_sweep(&opts, &sweep)),
        "fig3" => fig3(&opts),
        "fig4" => fig4(&opts),
        "latency" => latency(&opts),
        "costs" => costs(&opts),
        "scaling" => scaling(
            &opts,
            &sweep,
            &figure2_sweep(&opts, &sweep),
            &cube_config(&opts),
        ),
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
            let figure2 = figure2_sweep(&opts, &sweep);
            fig2(&opts, &sweep, &figure2);
            fig3(&opts);
            fig4(&opts);
            latency(&opts);
            costs(&opts);
            scaling(&opts, &sweep, &figure2, &cube_config(&opts));
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
    match opts.failed.get() {
        0 => ExitCode::SUCCESS,
        failed => {
            eprintln!("figures: {failed} simulated point(s) failed");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Figure-2 point that fails (a rate of 0 panics in its job) is
    /// printed and counted once over `fig2` and `scaling`, the scaling
    /// study skips its artifact instead of panicking on it, and the run
    /// goes on.
    #[test]
    fn a_failed_figure2_point_is_counted_once_and_skips_the_scaling_artifact() {
        let out = std::env::temp_dir().join(format!("figures-failed-point-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let opts = Options {
            quick: true,
            txns: None,
            csv: None,
            out: out.clone(),
            pool: Pool::serial(),
            failed: Cell::new(0),
        };
        let failing = SweepConfig {
            rates: vec![0.0, 10.0],
            ..sweep(&opts)
        };
        let sims = figure2_sweep(&opts, &failing);
        fig2(&opts, &failing, &sims);
        scaling(&opts, &failing, &sims, &cube_config(&opts));
        let sides = grid_sides(&opts).len();
        assert_eq!(opts.failed.get(), sides, "one failed point per side");
        assert!(!out.join("BENCH_scaling.json").exists());
        assert!(!scaling_grid_table(&grid_sides(&opts), &sims)
            .text()
            .contains("failed"));
        let _ = std::fs::remove_dir_all(&out);
    }

    /// A cube that panics (a NaN remote gap fails `run_cube`'s validation
    /// in its job) is counted once, the scaling study still prints its
    /// grid and writes no `BENCH_scaling.json`, and the run goes on.
    #[test]
    fn a_failed_cube_is_counted_once_and_skips_the_scaling_artifact() {
        let out = std::env::temp_dir().join(format!("figures-failed-cube-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        for workers in [1, 3] {
            let opts = Options {
                quick: true,
                txns: None,
                csv: None,
                out: out.clone(),
                pool: Pool::new(workers),
                failed: Cell::new(0),
            };
            let sweep = sweep(&opts);
            let sims = figure2_sweep(&opts, &sweep);
            assert!(collect_failures(&sims).is_empty());
            let cube = CubeStudyConfig {
                remote_gap_ns: f64::NAN,
                ..CubeStudyConfig::quick(workers)
            };
            scaling(&opts, &sweep, &sims, &cube);
            assert_eq!(opts.failed.get(), cube.sides.len(), "one failure per cube");
            assert!(!out.join("BENCH_scaling.json").exists());
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
