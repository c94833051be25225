//! Application-flavoured workloads for the Wisconsin Multicube.
//!
//! The paper motivates the machine with "high-transaction database
//! systems, large-scale simulation models, and artificial intelligence
//! applications, as well as a host of numerical methods" (§1). This crate
//! provides request-stream generators in those styles, plus a runner that
//! drives a [`multicube::Machine`] with them and reports efficiency and
//! traffic:
//!
//! * [`Oltp`] — database transactions: hot shared index reads, private
//!   tuple updates, whole-line log appends (exercising ALLOCATE).
//! * [`ProducerConsumer`] — pipelined pairs bouncing buffer lines between
//!   caches (the cache-to-cache ownership-transfer path).
//! * [`PhasedNumeric`] — compute phases on private data punctuated by
//!   boundary exchanges with grid neighbours (stencil style).
//! * [`Search`] — mostly-private state-space expansion with occasional
//!   reads of a shared transposition table and contended lock probes.
//!
//! [`TraceRecorder`] records any workload's request stream to a compact
//! chunked binary format ([`TraceV2Writer`]) and [`TraceV2Reader`] replays
//! it bit-identically — the answer to the paper's complaint that "very
//! little data has been published on the memory reference behavior of
//! parallel programs". The format streams 10⁷+-record traces, decoding
//! one chunk at a time; [`WebSession`] adds front-end cache traffic
//! (Zipf-popular content) to the serving-tier workload set.
//!
//! # Example
//!
//! ```
//! use multicube::{Machine, MachineConfig};
//! use multicube_workload::{Oltp, WorkloadRunner};
//!
//! let mut machine = Machine::new(MachineConfig::grid(2).unwrap(), 5).unwrap();
//! let report = WorkloadRunner::new(50).run(&mut machine, &mut Oltp::new(4));
//! assert_eq!(report.requests_completed, 50 * 4);
//! assert!(report.efficiency > 0.0);
//! ```

pub mod apps;
pub mod runner;
pub mod trace;

pub use apps::{Oltp, PhasedNumeric, ProducerConsumer, Search, WebSession};
pub use runner::{Workload, WorkloadReport, WorkloadRunner};
pub use trace::{
    StreamingPlayer, TraceDecodeError, TraceRecord, TraceRecorder, TraceV2Reader, TraceV2Writer,
};
