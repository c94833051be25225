//! The coherence engines: one [`Engine`] record per [`EngineKind`].
//!
//! A [`Machine`] is constructed over one engine. The machine owns
//! everything protocol-independent: the event loop, buses and their
//! occupancy accounting, caches and the registry bookkeeping
//! (`Machine::set_line`/`Machine::clear_line`), transaction records,
//! metrics and completions, fault injection and tracing — and the
//! processor side of every transaction (`machine::start`): the start,
//! the victim reservation, the local-access completion with its restart,
//! and the continuation after a flush. The engine owns the protocol: the
//! bus operations that processor side issues, what each bus operation
//! does when it completes (the snoops), and which quiescent invariants
//! hold. `Machine::new` picks the record once; the model checker reads
//! the same record's invariants through [`crate::check_engine`].
//!
//! Four engines exist:
//!
//! * `multicube` — the paper's Appendix-A snooping write-invalidate
//!   protocol over the two-dimensional grid of row and column buses (the
//!   default; its handlers live in the sibling `machine` submodules).
//! * `mesi` — classic write-invalidate MESI on a *single* shared snooping
//!   bus (row bus 0).
//! * `dragon` — write-update Dragon on the same single bus.
//! * `writeonce` — Goodman's write-once \[Good83\] on the same single
//!   bus: the single-bus *multi* the Multicube generalizes.
//!
//! The three single-bus engines (the *arena*) model every coherence action
//! as one atomic bus transaction whose occupancy includes the supplier's
//! access latency — the classic un-pipelined snooping bus whose saturation
//! motivates the Multicube's bus hierarchy. The snoop helpers they share
//! (the write-back flush, memory supply, remote purge) live here.

pub(crate) mod dragon;
pub(crate) mod mesi;
pub(crate) mod multicube;
pub(crate) mod writeonce;

use multicube_mem::{LineAddr, LineVersion};
use multicube_topology::NodeId;

use crate::check::{CoherenceView, CoherenceViolation};
use crate::config::EngineKind;
use crate::driver::RequestKind;
use crate::machine::Machine;
use crate::metrics::Served;
use crate::node::LineMode;
use crate::proto::{BusOp, OpKind, TxnId};

/// One coherence protocol: its snoops, its quiescent invariants, and the
/// bus operations its transactions issue from the processor side. Each
/// engine is one `const` of this type; all mutable state lives on the
/// [`Machine`] (caches, registry, the arena side-tables).
#[derive(Debug)]
pub(crate) struct Engine {
    /// A bus operation completed on a bus slot: run the snoop actions of
    /// every agent on that bus.
    pub on_op: fn(&mut Machine, usize, BusOp),
    /// The quiescent coherence invariants, run over any [`CoherenceView`]
    /// (the machine itself, or a model-checker state).
    pub check: fn(&dyn CoherenceView) -> Result<(), CoherenceViolation>,
    /// The request for a line the cache cannot serve, by request kind.
    pub miss: fn(RequestKind) -> OpKind,
    /// The request for a write or test-and-set to a copy held shared.
    pub upgrade: fn(RequestKind) -> OpKind,
    /// The flush of a dirty line: a victim, or a WRITEBACK request.
    pub flush: OpKind,
    /// Every operation rides bus 0, the single snooping bus; otherwise
    /// each rides the originator's row or column bus, by its class.
    pub single_bus: bool,
    /// [`LineMode::Reserved`] is a writable exclusive-clean copy (MESI's
    /// `E`, write-once's Reserved) rather than the §4 SYNC reservation.
    pub reserved_is_exclusive: bool,
}

impl Engine {
    /// The engine implementing `kind`.
    pub(crate) fn of(kind: EngineKind) -> &'static Engine {
        match kind {
            EngineKind::Multicube => &multicube::ENGINE,
            EngineKind::Mesi => &mesi::ENGINE,
            EngineKind::Dragon => &dragon::ENGINE,
            EngineKind::WriteOnce => &writeonce::ENGINE,
        }
    }

    /// Whether the engine honours an active fault plan. Only the grid
    /// protocol has the §3 retry and bounce paths faults exercise; the
    /// single-bus snoops would ignore every injected fault.
    pub(crate) fn takes_faults(&self) -> bool {
        !self.single_bus
    }
}

// ----------------------------------------------------------------------
// Shared single-bus (arena) snoops
// ----------------------------------------------------------------------

/// The request kind behind a live transaction (defensive default in
/// release builds: `Write`).
pub(crate) fn arena_txn_kind(m: &Machine, txn: TxnId) -> RequestKind {
    let info = m.txn_info(txn);
    debug_assert!(info.is_some(), "{txn} is not live");
    info.map(|i| i.kind).unwrap_or(RequestKind::Write)
}

/// `BusWriteback`, the arena's flush: a dirty line goes to memory and the
/// writer keeps a clean shared copy. The shared continuation then evicts
/// it (a victim) or completes the WRITEBACK transaction.
pub(crate) fn arena_on_writeback(m: &mut Machine, op: &BusOp) {
    let (line, node) = (op.line, op.originator);
    if !m.txn_outstanding(node, op.txn) {
        return;
    }
    let idx = node.as_usize();
    let mode = m.controllers[idx].mode_of(&line);
    // A line that went clean (or away) while the op queued needs no flush.
    if m.is_dirty(node, line, mode) {
        let data = m.controllers[idx]
            .data_of(&line)
            .expect("dirty line is resident");
        let home = m.home_column(line) as usize;
        m.memories[home].write(line, data);
        if mode == Some(LineMode::Modified) {
            m.downgrade_to_shared(idx, line);
        }
        m.arena_sm.remove(&line);
    }
    m.flush_done(op);
}

/// Memory supplies a read of `op.line` to `op.originator`. An
/// exclusive-clean (`E`, Reserved) holder observes the read on the bus
/// and downgrades to shared; memory is already current.
pub(crate) fn arena_memory_supply(m: &mut Machine, op: &BusOp) -> LineVersion {
    let line = op.line;
    if let Some(&e) = m.arena_excl.get(&line) {
        if e != op.originator {
            if let Some(cl) = m.controllers[e.as_usize()].cache.peek_mut(&line) {
                debug_assert_eq!(cl.mode, LineMode::Reserved);
                cl.mode = LineMode::Shared;
            }
            m.sharers_incr(line, e);
            m.arena_excl.remove(&line);
        }
    }
    m.note_served(op.txn, Served::Memory);
    let home = m.home_column(line) as usize;
    m.memories[home]
        .read_valid(&line)
        .unwrap_or_else(|| m.committed_version(line))
}

/// Purges every cached copy of `line` except `except`'s, counting
/// invalidations of clean copies (the write-invalidate traffic axis).
pub(crate) fn arena_purge_remote(m: &mut Machine, line: LineAddr, except: NodeId) {
    for idx in 0..m.controllers.len() {
        if m.controllers[idx].node() == except {
            continue;
        }
        if let Some(prior) = m.clear_line(idx, line) {
            if prior != LineMode::Modified {
                m.metrics.invalidations.incr();
            }
        }
    }
    m.arena_excl.remove(&line);
    m.arena_sm.remove(&line);
}
