//! Multicube interconnection topology.
//!
//! Section 6 of the paper defines the general *Multicube*: `N = n^k`
//! processors where each processor is connected to `k` buses and each bus
//! connects `n` processors. A single-bus *multi* is the `k = 1` case and the
//! hypercube is the `n = 2` case. The Wisconsin Multicube itself is the
//! two-dimensional (`k = 2`) instance — a grid of row and column buses.
//!
//! This crate provides:
//!
//! * [`Multicube`] — the general topology's shape `(n, k)` and its §6
//!   counts, which the [`scaling`] formulas read,
//! * [`Grid`] — the 2-D specialization used by the machine simulator: node
//!   coordinates and the *home column* mapping for interleaved main
//!   memory.
//!
//! # Example
//!
//! ```
//! use multicube_topology::{Grid, Multicube};
//!
//! // The proposed 1024-processor machine: a 32x32 grid.
//! let grid = Grid::new(32).unwrap();
//! assert_eq!(grid.num_nodes(), 1024);
//! assert_eq!(grid.num_buses(), 64);
//!
//! // The same machine viewed as a general multicube.
//! let cube = Multicube::new(32, 2).unwrap();
//! assert_eq!(cube.num_nodes(), 1024);
//! assert!((cube.bandwidth_per_processor() - 2.0 / 32.0).abs() < 1e-12);
//! ```

pub mod cube;
pub mod grid;
pub mod ids;
pub mod scaling;

pub use cube::{Multicube, TopologyError};
pub use grid::Grid;
pub use ids::{BusId, BusKind, NodeId};
