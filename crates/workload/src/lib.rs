//! Application-flavoured workloads for the Wisconsin Multicube.
//!
//! The paper motivates the machine with "high-transaction database
//! systems, large-scale simulation models, and artificial intelligence
//! applications, as well as a host of numerical methods" (§1). This crate
//! provides request-stream generators in those styles. A [`Stream`] makes
//! any of them the request source of the machine's closed-loop driver
//! ([`multicube::Machine::run_closed_loop`]), whose
//! [`multicube::RunReport`] gives efficiency and traffic; the stream keeps
//! the latency distribution and per-node and per-kind counts.
//! [`WorkloadRunner`] projects both into one [`WorkloadReport`], the form
//! the benchmark harness reads:
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
//! use multicube_workload::{Oltp, Stream};
//!
//! let mut machine = Machine::new(MachineConfig::grid(2).unwrap(), 5).unwrap();
//! let mut stream = Stream::new(Oltp::new(4));
//! let report = machine.run_closed_loop(&mut stream, 50);
//! assert_eq!(report.transactions_completed, 50 * 4);
//! assert!(report.efficiency > 0.0);
//! assert_eq!(stream.kind_counts.iter().sum::<u64>(), 50 * 4);
//! ```

pub mod apps;
pub mod runner;
pub mod trace;

pub use apps::{Oltp, PhasedNumeric, ProducerConsumer, Search, WebSession};
pub use runner::{Stream, Workload, WorkloadReport, WorkloadRunner};
pub use trace::{
    StreamingPlayer, TraceDecodeError, TraceRecord, TraceRecorder, TraceV2Reader, TraceV2Writer,
};
