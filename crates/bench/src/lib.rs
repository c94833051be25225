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
//! Every result `figures` prints is a [`Table`]: one text layout, one
//! CSV layout.
//!
//! The `perf` binary times the simulation kernels reproducibly (median
//! and MAD over repeated passes) and writes `BENCH_core.json`; see
//! [`perf`].

pub mod json;
pub mod perf;
pub mod scaling;
pub mod serve;
pub mod shootout;
pub mod simfig;
pub mod table;
pub mod tables;

pub use multicube_sim::pool::Pool;
pub use scaling::{
    cube_table, render_scaling_json, run_cube_study, scaling_grid_table, validate_scaling_report,
    CubePoint, CubeStudyConfig, SCALING_SCHEMA,
};
pub use serve::{
    render_serve_json, run_serve, serve_app_seed, serve_table, synthesize_serve_trace,
    validate_serve_report, ServeConfig, ServeRow, SERVE_APPS, SERVE_SCHEMA,
};
pub use shootout::{run_shootout, shootout_table};
pub use simfig::{
    collect_failures, measure, run_points, series_view, sim_figure2, sim_figure3, sim_figure4,
    sim_latency_modes, Measured, Point, PointFailure, PointRun, SimPoint, SimSeries, SweepConfig,
    FIGURE2_SIDES,
};
pub use table::{Cell, Table};
pub use tables::{
    baseline_rows, costs_table, fault_sweep_rows, fault_sweep_table, mlt_rows, robustness_rows,
    scaling_rows, snarf_rows, sync_rows, telemetry_tables, CostRow, SyncRow,
};
