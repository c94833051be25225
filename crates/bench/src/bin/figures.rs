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
//!
//! A simulated point that panics is contained: its figure or table prints
//! without it and the failure, with its replay coordinates, goes to
//! stderr once. A study that lost points writes no `BENCH_*` artifact and
//! says so on stderr, and the run goes on. After all output, `figures`
//! exits nonzero if any point failed.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use multicube::{MachineConfig, SyntheticSpec};
use multicube_bench::{
    baseline_rows, collect_failures, costs_table, fault_sweep_rows, mlt_rows, render_bus_telemetry,
    render_class_stats, render_cube_study, render_fault_sweep, render_resilience,
    render_scaling_json, render_scaling_study, render_series, render_serve, render_serve_json,
    render_shootout, robustness_rows, run_cube_study, run_points, run_serve, run_shootout,
    scaling_rows, series_view, sim_figure2, sim_figure3, sim_figure4, sim_latency_modes,
    snarf_rows, sync_rows, validate_scaling_report, validate_serve_report, write_bus_telemetry_csv,
    write_class_stats_csv, write_fault_sweep_csv, write_series_csv, write_serve_csv,
    write_shootout_csv, CubeStudyConfig, Measured, PointFailure, Pool, ServeConfig, SimPoint,
    SimSeries, SweepConfig, FIGURE2_SIDES,
};
use multicube_mva::figures as mva;
use multicube_mva::FigureSeries;

struct Options {
    quick: bool,
    txns: Option<u64>,
    /// Directory to additionally write per-figure CSV files into.
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
    /// With `--csv`, writes the file `name` into that directory.
    fn csv_file(&self, name: &str, write: impl FnOnce(&Path) -> std::io::Result<()>) {
        if let Some(dir) = &self.csv {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = dir.join(name);
            write(&path).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    }

    /// Prints the efficiency table of `series` and, with `--csv`, writes
    /// it as `{csv}.csv`.
    fn figure(&self, title: &str, series: &[FigureSeries], csv: Option<&str>) {
        println!("{}", render_series(title, series, |p| p.efficiency));
        if let Some(name) = csv {
            self.csv_file(&format!("{name}.csv"), |path| {
                write_series_csv(path, series)
            });
        }
    }

    /// [`Options::figure`] for a simulated figure, after its contained
    /// failures.
    fn sim_figure(&self, title: &str, sims: &[SimSeries], csv: Option<&str>) {
        self.report_failures(title, &collect_failures(sims));
        self.figure(title, &series_view(sims), csv);
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

fn fig2(opts: &Options, sims: &[SimSeries]) {
    opts.figure(
        "Figure 2 (model): efficiency vs request rate, n = 8/16/24/32",
        &mva::figure2(),
        Some("fig2_model"),
    );
    opts.figure("Figure 2 (simulated)", &series_view(sims), Some("fig2_sim"));
}

fn fig3(opts: &Options) {
    opts.figure(
        "Figure 3 (model): effect of invalidations, 1K processors",
        &mva::figure3(),
        Some("fig3_model"),
    );
    let sims = sim_figure3(
        &opts.pool,
        &[0.1, 0.2, 0.3, 0.4, 0.5],
        big_side(opts),
        &sweep(opts),
    );
    opts.sim_figure(
        "Figure 3 (simulated, broadcast sharing-filter ablation; the faithful protocol always broadcasts, making all curves coincide)",
        &sims,
        None,
    );
    println!(
        "{}",
        render_series(
            "Figure 3 (simulated): row-bus utilization — the invalidation traffic itself",
            &series_view(&sims),
            |p| p.rho_row
        )
    );
}

fn fig4(opts: &Options) {
    opts.figure(
        "Figure 4 (model): effect of block size, 1K processors",
        &mva::figure4(),
        Some("fig4_model"),
    );
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
    opts.sim_figure("Figure 4 (simulated)", &sims, Some("fig4_sim"));
}

fn latency(opts: &Options) {
    opts.figure(
        "E-5.1 (model): latency-reduction techniques",
        &mva::latency_modes(),
        None,
    );
    let sims = sim_latency_modes(&opts.pool, big_side(opts).min(16), &sweep(opts));
    opts.sim_figure("E-5.1 (simulated)", &sims, None);
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

fn scaling(opts: &Options, sims: &[SimSeries]) {
    scaling_formulas();
    scaling_study(opts, sims);
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

/// The measured scaling study: the simulated Figure 2 `sims` — n ∈
/// {8,16,24,32} (64–1024 processors) across the figure's rates, on its
/// seeds — with bus operations and completions per point, plus the cube
/// study (n³ = 512–32768 processors, the planes run in parallel after two
/// depth-traffic exchanges), written together as `BENCH_scaling.json`
/// alongside the printed tables. Every field is deterministic, so the
/// artifact is byte-identical at every worker count — the CI
/// pool-determinism job diffs exactly that — and a full run reproduces
/// the committed file.
fn scaling_study(opts: &Options, sims: &[SimSeries]) {
    let (sides, sweep) = (grid_sides(opts), sweep(opts));
    println!("{}", render_scaling_study(&sides, sims));
    let cube_cfg = if opts.quick {
        CubeStudyConfig::quick(opts.pool.workers())
    } else {
        CubeStudyConfig::full(opts.pool.workers())
    };
    let cube = run_cube_study(&cube_cfg);
    println!("{}", render_cube_study(&cube));
    let failed = collect_failures(sims).len();
    opts.artifact("BENCH_scaling.json", failed, |path| {
        let json = render_scaling_json(&sides, &sweep, sims, Some(&cube));
        validate_scaling_report(&json, &sides, &sweep, Some(&cube_cfg))
            .expect("scaling report validates");
        std::fs::write(path, json)
    });
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
    for (processors, multi, cube) in opts.rows("E-1.1", baseline_rows(&opts.pool, 10.0, txns)) {
        println!(
            "{:>6} {:>18.4} {:>14.4} {:>20.4}",
            processors, multi.efficiency, multi.buses[0].utilization, cube.efficiency
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
    let mlt = mlt_rows(&opts.pool, n, &[4, 16, 64, 256, 4096], txns);
    for (capacity, r) in opts.rows("A-1", mlt) {
        println!(
            "{:>10} {:>12.4} {:>12} {:>12.2}",
            capacity,
            r.efficiency,
            r.metrics.mlt_overflows.get(),
            r.ops_per_transaction()
        );
    }
    println!();

    println!("== A-2: §3 robustness — dropped modified signals (n = {n}) ==");
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>22}",
        "drop p", "efficiency", "dropped", "bounces", "retries/modified read"
    );
    let robustness = robustness_rows(&opts.pool, n, &[0.0, 0.1, 0.25, 0.5, 0.75], txns);
    for (p, r) in opts.rows("A-2", robustness) {
        let rm = &r.metrics.read_modified;
        println!(
            "{:>8.2} {:>12.4} {:>10} {:>10} {:>22.2}",
            p,
            r.efficiency,
            r.metrics.dropped_signals.get(),
            r.metrics.memory_bounces.get(),
            rm.retries.get() as f64 / rm.count.max(1) as f64
        );
    }
    println!();

    println!("== A-3: snarfing (hot shared set, n = {n}) ==");
    println!(
        "{:>10} {:>12} {:>10} {:>18}",
        "snarfing", "efficiency", "snarfs", "bus transactions"
    );
    for (snarfing, r) in opts.rows("A-3", snarf_rows(&opts.pool, n, txns)) {
        println!(
            "{:>10} {:>12.4} {:>10} {:>18}",
            snarfing,
            r.efficiency,
            r.metrics.snarfs.get(),
            r.metrics.bus_transactions()
        );
    }
    println!();
}

fn faults(opts: &Options) {
    let n = if opts.quick { 4 } else { 8 };
    let txns = opts.txns.unwrap_or(60);
    let probs = [0.0, 0.1, 0.25, 0.5, 0.75];
    let rows = opts.rows("A-2+", fault_sweep_rows(&opts.pool, n, &probs, txns));
    println!(
        "{}",
        render_fault_sweep(
            &format!(
                "A-2+: composite fault sweep (n = {n}; drop p, loss p/2, dup p/4, \
                 nack p/4, mlt-delay p/4, blackout p/8; backoff 100ns..25us)"
            ),
            &rows
        )
    );
    opts.csv_file("fault_sweep.csv", |path| write_fault_sweep_csv(path, &rows));
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
    let n = if opts.quick { 4 } else { 8 };
    let point = SimPoint {
        series: format!("telemetry n={n}"),
        index: 0,
        rate_per_ms: 15.0,
        seed: 23,
        config: MachineConfig::grid(n).expect("valid n"),
        spec: SyntheticSpec::default(),
        txns_per_node: opts.txns.unwrap_or(if opts.quick { 40 } else { 200 }),
    };
    let report = match run_points(&opts.pool, &[point]).remove(0) {
        Ok(report) => report,
        Err(failure) => return opts.report_failures("Telemetry", &[failure]),
    };
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
    opts.csv_file("telemetry_buses.csv", |path| {
        write_bus_telemetry_csv(path, &report)
    });
    opts.csv_file("telemetry_classes.csv", |path| {
        write_class_stats_csv(path, &report)
    });
}

/// The protocol shootout: all four engines on identical seeded
/// workloads, written as `BENCH_shootout.csv` alongside the printed
/// table (see `multicube_bench::shootout` for the methodology).
fn shootout(opts: &Options) {
    let n = if opts.quick { 4 } else { 8 };
    let table = run_shootout(&opts.pool, n, &sweep(opts));
    let failed = table.failures.len();
    let rows = opts.rows("Shootout", table);
    println!(
        "{}",
        render_shootout(
            &format!(
                "Shootout: Multicube grid vs single-bus MESI, Dragon and write-once \
                 (n = {n}, identical workloads per rate)"
            ),
            &rows
        )
    );
    opts.artifact("BENCH_shootout.csv", failed, |path| {
        write_shootout_csv(path, &rows)
    });
    opts.csv_file("shootout.csv", |path| write_shootout_csv(path, &rows));
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
    opts.report_failures("S-3", &study.failures);
    opts.artifact("BENCH_serve.json", study.failures.len(), |path| {
        let json = render_serve_json(&study);
        validate_serve_report(&json, &cfg).expect("serve report validates");
        std::fs::write(path, json)
    });
    opts.csv_file("serve.csv", |path| write_serve_csv(path, &study.rows));
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

fn main() -> ExitCode {
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
                opts.csv = it.next().map(PathBuf::from);
                assert!(opts.csv.is_some(), "--csv needs a directory");
            }
            "--out" => {
                opts.out = it
                    .next()
                    .map(PathBuf::from)
                    .expect("--out needs a directory");
            }
            c if !c.starts_with('-') => command = c.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }
    match command.as_str() {
        "fig2" => fig2(&opts, &figure2_sweep(&opts, &sweep(&opts))),
        "fig3" => fig3(&opts),
        "fig4" => fig4(&opts),
        "latency" => latency(&opts),
        "costs" => costs(&opts),
        "scaling" => scaling(&opts, &figure2_sweep(&opts, &sweep(&opts))),
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
            let figure2 = figure2_sweep(&opts, &sweep(&opts));
            fig2(&opts, &figure2);
            fig3(&opts);
            fig4(&opts);
            latency(&opts);
            costs(&opts);
            scaling(&opts, &figure2);
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
        fig2(&opts, &sims);
        scaling(&opts, &sims);
        let sides = grid_sides(&opts).len();
        assert_eq!(opts.failed.get(), sides, "one failed point per side");
        assert!(!out.join("BENCH_scaling.json").exists());
        assert!(!render_scaling_study(&grid_sides(&opts), &sims).contains("failed"));
        let _ = std::fs::remove_dir_all(&out);
    }
}
