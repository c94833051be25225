//! The experiment harness: regenerates every figure and table of the
//! paper from both the analytical model (`multicube-mva`) and the
//! discrete-event machine (`multicube`).
//!
//! The `figures` binary is the entry point:
//!
//! ```text
//! cargo run --release -p multicube-bench --bin figures -- all
//! cargo run --release -p multicube-bench --bin figures -- fig2 --quick
//! ```
//!
//! The `perf` binary times the simulation kernels reproducibly (median
//! and MAD over repeated passes) and writes `BENCH_core.json`; see
//! [`perf`].

pub mod csv;
pub mod json;
pub mod perf;
pub mod scaling;
pub mod serve;
pub mod shootout;
pub mod simfig;
pub mod tables;

pub use csv::{
    write_bus_telemetry_csv, write_class_stats_csv, write_fault_sweep_csv, write_series_csv,
    write_serve_csv, write_shootout_csv,
};
pub use multicube_sim::pool::Pool;
pub use scaling::{
    render_cube_study, render_scaling_json, render_scaling_study, run_cube_study,
    validate_scaling_report, CubePoint, CubeStudy, CubeStudyConfig, SCALING_SCHEMA,
};
pub use serve::{
    render_serve, render_serve_json, run_serve, serve_app_seed, synthesize_serve_trace,
    validate_serve_report, ServeConfig, ServeRow, ServeStudy, SERVE_APPS, SERVE_SCHEMA,
};
pub use shootout::{render_shootout, run_shootout, ShootoutRow};
pub use simfig::{
    collect_failures, run_points, series_view, sim_figure2, sim_figure3, sim_figure4,
    sim_latency_modes, Measured, PointFailure, PointRun, SimPoint, SimSeries, SweepConfig,
    FIGURE2_SIDES,
};
pub use tables::{
    baseline_rows, costs_table, fault_sweep_rows, mlt_rows, render_bus_telemetry,
    render_class_stats, render_fault_sweep, render_resilience, render_series, robustness_rows,
    scaling_rows, snarf_rows, sync_rows, CostRow, FaultSweepRow, SyncRow,
};
