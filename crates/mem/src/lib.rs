//! Memory-hierarchy building blocks for the Wisconsin Multicube.
//!
//! The machine's memory system (paper §2–§3) has four kinds of stateful
//! structures, all provided here as protocol-agnostic containers:
//!
//! * [`LineAddr`] — the typed coherency-line address, with the
//!   deterministic per-line [`LineMap`] and [`LineSet`] ([`addr`]). The
//!   protocol moves, tracks and invalidates whole lines, so nothing below
//!   the line is addressed.
//! * [`SetAssocCache`] — a generic set-associative LRU cache, the large
//!   DRAM *snooping cache* of every node ([`cache`]).
//! * [`ModifiedLineTable`] — the per-column table of lines held modified in
//!   that column, bounded like a cache with an overflow victim ([`mlt`]).
//! * [`MemoryBank`] — one column's slice of interleaved main memory with
//!   the per-line *valid bit* the protocol's robustness relies on
//!   ([`memory`]).
//!
//! Data values are modelled as opaque [`LineVersion`] stamps: every write
//! mints a fresh version, so the coherence checker in the `multicube` crate
//! can verify that every read observes the latest write without simulating
//! byte contents.

pub mod addr;
pub mod cache;
pub mod memory;
pub mod mlt;

pub use addr::{LineAddr, LineMap, LineSet};
pub use cache::{CacheGeometry, Evicted, SetAssocCache};
pub use memory::{LineVersion, MemoryBank};
pub use mlt::{MltInsert, ModifiedLineTable};
