//! An approximate mean-value performance model of the Wisconsin Multicube.
//!
//! The paper's evaluation (Figures 2–4) comes from "an approximate
//! mean-value analysis" by Leutenegger and Vernon \[LeVe88\]. That model
//! was published separately and only its parameters survive in the
//! figure captions, so this crate *reconstructs* an analytical model with
//! the same structure:
//!
//! * every processor alternates between an exponential think period
//!   (mean `1/λ`) and one blocking memory transaction ("requests are
//!   assumed to be non-overlapping"),
//! * a transaction's critical path crosses two row-bus and two column-bus
//!   operations plus one 750 ns device access,
//! * bus waiting times follow an M/G/1 approximation driven by each bus's
//!   aggregate utilization and service-time second moment,
//! * the think-rate / response-time loop is closed by fixed-point
//!   iteration.
//!
//! The model reproduces the *shape* of the paper's figures — the ordering
//! of the curves, where they bend, and how invalidations and block size
//! move them — not the absolute 1988 values.
//!
//! # Example
//!
//! ```
//! use multicube_mva::{ModelParams, solve};
//!
//! let params = ModelParams::figure2(32); // 1024 processors
//! let light = solve(&params, 1.0);       // 1 request/ms/processor
//! let heavy = solve(&params, 25.0);
//! assert!(light.efficiency > heavy.efficiency);
//! assert!(light.efficiency > 0.9);
//! ```

pub mod figures;
pub mod kdim;
pub mod model;
pub mod params;

pub use figures::{FigurePoint, FigureSeries};
pub use kdim::{dimension_sweep, solve_k, KdimSolution};
pub use model::{solve, ModelSolution};
pub use params::{DataMovement, ModelParams};

/// Mean path length (bus hops) between two distinct nodes of an `n^k`
/// multicube — re-exported convenience over the topology formula so the
/// model crate stays dependency-free.
pub fn path_length(n: u32, k: u8) -> f64 {
    let big_n = (n as f64).powi(k as i32);
    k as f64 * (n as f64 - 1.0) / n as f64 * big_n / (big_n - 1.0)
}
