//! # The Wisconsin Multicube, reproduced
//!
//! This umbrella crate re-exports the whole workspace reproducing
//!
//! > J. R. Goodman and P. J. Woest, *The Wisconsin Multicube: A New
//! > Large-Scale Cache-Coherent Multiprocessor*, ISCA 1988.
//!
//! The paper proposes a shared-memory multiprocessor built from a grid of
//! buses: `N = n²` processors, each snooping one row bus and one column
//! bus through a very large "snooping cache", with main memory interleaved
//! across the columns and coherence maintained by a write-back
//! invalidation protocol extended from single-bus snooping (the machine
//! was never built; its evaluation was analytical).
//!
//! The workspace contains:
//!
//! * [`machine`] — the event-driven machine simulator with the
//!   complete Appendix-A protocol, plus the single-bus MESI, Dragon and
//!   write-once engines (write-once on one bus is the *multi* baseline:
//!   `MachineConfig::grid(side)?.with_engine(EngineKind::WriteOnce)`),
//! * [`topology`] — the general `N = n^k` Multicube topology and the §6
//!   scaling formulas,
//! * [`mem`] — the cache, modified-line-table and memory-bank substrates,
//! * [`sync`] — the §4 synchronization primitives (remote test-and-set,
//!   distributed queue lock, barrier),
//! * [`workload`] — application-flavoured request generators,
//! * [`mva`] — the analytical mean-value model behind Figures 2–4,
//! * `multicube-bench` — the harness regenerating every figure and table
//!   (`cargo run --release -p multicube-bench --bin figures -- all`).
//!
//! # Quick start
//!
//! ```
//! use multicube_suite::machine::{Machine, MachineConfig, Request};
//! use multicube_suite::mem::LineAddr;
//! use multicube_suite::topology::NodeId;
//!
//! // A 4x4 Wisconsin Multicube with the paper's timing parameters.
//! let mut m = Machine::new(MachineConfig::grid(4).unwrap(), 42).unwrap();
//!
//! // One processor writes a line; a processor in the opposite corner
//! // reads it back through the grid-of-buses protocol.
//! m.submit(NodeId::new(0), Request::write(LineAddr::new(7))).unwrap();
//! m.advance().unwrap();
//! m.submit(NodeId::new(15), Request::read(LineAddr::new(7))).unwrap();
//! let done = m.advance().unwrap();
//! assert!(done.success);
//! m.run_to_quiescence();
//! m.check_coherence().unwrap();
//! ```

/// The machine simulator and coherence protocol (crate `multicube`).
pub mod machine {
    pub use multicube::*;
}

/// Simulation kernel (crate `multicube-sim`).
pub mod sim {
    pub use multicube_sim::*;
}

/// Multicube topology (crate `multicube-topology`).
pub mod topology {
    pub use multicube_topology::*;
}

/// Memory-hierarchy structures (crate `multicube-mem`).
pub mod mem {
    pub use multicube_mem::*;
}

/// Synchronization primitives (crate `multicube-sync`).
pub mod sync {
    pub use multicube_sync::*;
}

/// Application workloads (crate `multicube-workload`).
pub mod workload {
    pub use multicube_workload::*;
}

/// The analytical mean-value model (crate `multicube-mva`).
pub mod mva {
    pub use multicube_mva::*;
}
