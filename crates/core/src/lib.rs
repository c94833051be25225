//! The Wisconsin Multicube machine: a cycle-approximate, event-driven
//! simulator of the architecture and cache-coherence protocol of
//!
//! > J. R. Goodman and P. J. Woest, *The Wisconsin Multicube: A New
//! > Large-Scale Cache-Coherent Multiprocessor*, ISCA 1988.
//!
//! The machine is an `n x n` grid of processors. Each node owns a large
//! *snooping cache* that snoops one row bus and one column bus; main memory
//! is interleaved across the column buses; coherence is maintained by the
//! paper's snooping write-back invalidation protocol (Appendix A),
//! implemented here operation-for-operation: READ, READ-MOD, ALLOCATE and
//! WRITE-BACK transactions, the per-column *modified line table*, the
//! wired-OR *modified signal*, the per-line *valid bit* in memory, and all
//! of the race/retry paths those structures enable.
//!
//! # Quick start
//!
//! ```
//! use multicube::{Machine, MachineConfig, SyntheticSpec};
//!
//! // A 4x4 grid with default (paper) timing.
//! let config = MachineConfig::grid(4).unwrap();
//! let spec = SyntheticSpec::default();
//! let mut machine = Machine::new(config, 42).unwrap();
//! let report = machine.run_synthetic(&spec, 200);
//! assert!(report.efficiency > 0.0 && report.efficiency <= 1.0);
//! assert_eq!(report.transactions_completed, 200 * 16);
//! ```
//!
//! # Crate layout
//!
//! * [`config`] — machine shape, timing parameters and protocol options.
//! * [`proto`] — the bus-operation vocabulary of Appendix A.
//! * [`bus`] — a FIFO-arbitrated broadcast bus.
//! * [`node`] — per-node controller state (snooping cache, outstanding
//!   transaction).
//! * [`machine`] — the machine itself: event loop, the closed-loop
//!   driver, and the protocol procedures.
//! * [`driver`] — processor requests, the [`RequestSource`] of a
//!   closed-loop run ([`Machine::run_closed_loop`]) and the synthetic
//!   workload ([`SyntheticSpec`]).
//! * [`metrics`] — counters, latencies, utilizations and the run report.
//! * [`check`] — the coherence-invariant checker.
//! * [`fault`] — fault injection ([`FaultPlan`]), retry backoff
//!   ([`RetryPolicy`]) and the livelock watchdog ([`Watchdog`]).
//! * [`trace`] — structured bus-operation tracing ([`TraceSink`] chosen at
//!   [`Machine::new`]; `MULTICUBE_TRACE=1` streams JSONL events to
//!   standard error, unset or `0` leaves it off, and any other value
//!   panics).

pub mod bus;
pub mod check;
pub mod config;
pub mod driver;
pub mod fault;
pub mod machine;
pub mod metrics;
pub mod node;
pub mod pdes;
pub mod proto;
pub mod trace;

pub use bus::Arbitration;
pub use check::{check_engine, CoherenceView, CoherenceViolation};
pub use config::{EngineKind, LatencyMode, MachineConfig, MachineConfigError, Timing};
pub use driver::{Request, RequestKind, RequestSource, SyntheticSpec};
pub use fault::{FaultConfigError, FaultPlan, RetryPolicy, Watchdog, WatchdogAction};
pub use machine::{Completion, Machine, SubmitError};
pub use metrics::{BusReport, MachineMetrics, RunReport, TxnStats};
pub use node::LineMode;
pub use pdes::{
    run_cube, CubeConfig, CubeReport, DepthStats, ExchangeStats, PlaneReport, RemoteKind,
};
pub use proto::{BusOp, OpClass, OpFault, OpKind, TxnId};
pub use trace::{TraceEvent, TracePoint, TraceSink};
