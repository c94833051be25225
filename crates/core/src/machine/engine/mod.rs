//! The `ProtocolEngine` seam: pluggable coherence protocols.
//!
//! A [`Machine`] is constructed over one engine that defines its bus-op
//! vocabulary, per-line state machine and request/reply routing. The
//! machine owns everything protocol-independent — the event loop, buses
//! and their occupancy accounting, caches and the registry bookkeeping
//! (`Machine::set_line`/`Machine::clear_line`), transaction metrics
//! and completions, fault injection and tracing. The engine owns the
//! protocol: how a request starts (local, upgrade or miss), what each bus
//! operation does when it completes, and which quiescent invariants hold.
//!
//! Four engines exist:
//!
//! * [`MulticubeEngine`] — the paper's Appendix-A snooping write-invalidate
//!   protocol over the two-dimensional grid of row and column buses (the
//!   default; its handlers live in the sibling `machine` submodules).
//! * [`MesiEngine`] — classic write-invalidate MESI on a *single* shared
//!   snooping bus (row bus 0).
//! * [`DragonEngine`] — write-update Dragon on the same single bus.
//! * [`WriteOnceEngine`] — Goodman's write-once \[Good83\] on the same
//!   single bus: the single-bus *multi* the Multicube generalizes.
//!
//! The three single-bus engines (the *arena*) model every coherence action
//! as one atomic bus transaction whose occupancy includes the supplier's
//! access latency — the classic un-pipelined snooping bus whose saturation
//! motivates the Multicube's bus hierarchy. The shared arena scaffolding
//! (miss/victim sequencing, local-access completion, write-back flushes)
//! lives here, parameterized by each engine's `ArenaOps` vocabulary.

pub(crate) mod dragon;
pub(crate) mod mesi;
pub(crate) mod multicube;
pub(crate) mod writeonce;

use multicube_mem::{LineAddr, LineVersion};
use multicube_topology::NodeId;

use crate::check::{CoherenceView, CoherenceViolation};
use crate::config::EngineKind;
use crate::driver::{Request, RequestKind};
use crate::machine::{Event, Machine};
use crate::metrics::Served;
use crate::node::{LineMode, Outstanding, TxnPhase};
use crate::proto::{BusOp, OpKind, TxnId};

pub use dragon::DragonEngine;
pub use mesi::MesiEngine;
pub use multicube::MulticubeEngine;
pub use writeonce::WriteOnceEngine;

/// A pluggable coherence protocol.
///
/// Engines are stateless unit structs; all mutable state lives on the
/// [`Machine`] (caches, registry, the arena side-tables). The machine
/// routes transaction starts, bus-op completions and local-access
/// completions to the engine selected by
/// [`MachineConfig::with_engine`](crate::MachineConfig::with_engine).
pub trait ProtocolEngine: Send + Sync {
    /// The engine's configuration tag.
    fn kind(&self) -> EngineKind;

    /// Stable lowercase name (CSV/CLI label).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Starts a transaction for `node`, which must be idle; mints and
    /// returns the transaction id.
    fn start_request(&self, m: &mut Machine, node: NodeId, req: Request) -> TxnId;

    /// A bus operation completed on `slot`: run the snoop actions of every
    /// agent on that bus.
    fn on_op(&self, m: &mut Machine, slot: usize, op: BusOp);

    /// A local (bus-free) cache access finished its latency.
    fn on_local_done(&self, m: &mut Machine, node: NodeId);

    /// The engine's quiescent coherence invariants, run over any
    /// [`CoherenceView`] (the machine itself, or a model-checker state).
    ///
    /// # Errors
    ///
    /// The first violated invariant.
    fn check(&self, v: &dyn CoherenceView) -> Result<(), CoherenceViolation>;
}

/// The engine implementing `kind`.
pub(crate) fn engine_for(kind: EngineKind) -> &'static dyn ProtocolEngine {
    match kind {
        EngineKind::Multicube => &MulticubeEngine,
        EngineKind::Mesi => &MesiEngine,
        EngineKind::Dragon => &DragonEngine,
        EngineKind::WriteOnce => &WriteOnceEngine,
    }
}

// ----------------------------------------------------------------------
// Shared single-bus (arena) scaffolding
// ----------------------------------------------------------------------

/// All arena traffic rides row bus 0: the single snooping bus.
pub(crate) const ARENA_SLOT: usize = 0;

/// The per-engine parts of the arena vocabulary.
pub(crate) struct ArenaOps {
    /// Bus op emitted for a write/TAS to a line held shared.
    pub upgrade: OpKind,
    /// Bus op emitted for each missing request kind.
    pub miss: fn(RequestKind) -> OpKind,
}

/// The request kind behind a live transaction (defensive default in
/// release builds: `Write`).
pub(crate) fn arena_txn_kind(m: &Machine, txn: TxnId) -> RequestKind {
    let info = m.txn_info(txn);
    debug_assert!(info.is_some(), "{txn} is not live");
    info.map(|i| i.kind).unwrap_or(RequestKind::Write)
}

/// Starts an arena transaction: local hit, shared-copy upgrade, dirty
/// write-back, or miss.
pub(crate) fn arena_start_request(
    m: &mut Machine,
    ops: &ArenaOps,
    node: NodeId,
    req: Request,
) -> TxnId {
    let txn = m.new_txn(node, req);
    let idx = node.as_usize();
    let mode = m.controllers[idx].mode_of(&req.line);
    let snoop = m.config.timing().snoop_latency_ns;

    let mut out = Outstanding {
        txn,
        kind: req.kind,
        line: req.line,
        issued_at: m.now(),
        phase: TxnPhase::Local,
        retries: 0,
        bus_ops: 0,
        victim: None,
    };

    match (req.kind, mode) {
        // Reads hit any resident copy; writes and TAS need an exclusive
        // one (M or E).
        (RequestKind::Read, Some(_))
        | (
            RequestKind::Write | RequestKind::Allocate | RequestKind::TestAndSet,
            Some(LineMode::Modified | LineMode::Reserved),
        ) => {
            m.set_outstanding(idx, out);
            m.events.schedule_after(snoop, Event::LocalDone { node });
        }
        // Write/TAS to a shared copy: the engine's upgrade/update op.
        (
            RequestKind::Write | RequestKind::Allocate | RequestKind::TestAndSet,
            Some(LineMode::Shared),
        ) => {
            out.phase = TxnPhase::Requested;
            m.set_outstanding(idx, out);
            let op = BusOp::new(ops.upgrade, req.line, node, txn)
                .with_allocate(req.kind == RequestKind::Allocate);
            m.emit(ARENA_SLOT, op, 0);
        }
        (RequestKind::Writeback, mode) => {
            if arena_is_dirty(m, node, req.line, mode) {
                out.phase = TxnPhase::Requested;
                m.set_outstanding(idx, out);
                let op = BusOp::new(OpKind::BusWriteback, req.line, node, txn);
                m.emit(ARENA_SLOT, op, 0);
            } else {
                // Nothing dirty to write back: complete immediately.
                m.set_outstanding(idx, out);
                m.events.schedule_after(0u64, Event::LocalDone { node });
            }
        }
        _ => arena_begin_miss(m, ops, node, out),
    }
    txn
}

/// Whether `node`'s copy of `line` is dirty: Modified, or Dragon's
/// shared-modified (a shared copy the node still owns in `arena_sm`).
fn arena_is_dirty(m: &Machine, node: NodeId, line: LineAddr, mode: Option<LineMode>) -> bool {
    mode == Some(LineMode::Modified)
        || (mode == Some(LineMode::Shared) && m.arena_sm.get(&line) == Some(&node))
}

/// Reserves a cache slot (writing back a dirty victim over the bus
/// first), then issues the miss request.
pub(crate) fn arena_begin_miss(
    m: &mut Machine,
    ops: &ArenaOps,
    node: NodeId,
    mut out: Outstanding,
) {
    let idx = node.as_usize();
    let line = out.line;
    if !m.controllers[idx].cache.contains(&line) {
        if let Some((victim, meta)) = m.controllers[idx]
            .cache
            .victim_for(&line)
            .map(|(l, c)| (l, *c))
        {
            if arena_is_dirty(m, node, victim, Some(meta.mode)) {
                m.metrics.victim_writebacks.incr();
                out.phase = TxnPhase::VictimWriteback;
                out.victim = Some(victim);
                let txn = out.txn;
                m.set_outstanding(idx, out);
                let op = BusOp::new(OpKind::BusWriteback, victim, node, txn);
                m.emit(ARENA_SLOT, op, 0);
                return;
            }
            // Clean victims are dropped silently.
            arena_drop_clean(m, idx, victim);
        }
    }
    out.phase = TxnPhase::Requested;
    let txn = out.txn;
    m.set_outstanding(idx, out);
    arena_issue_miss(m, ops, node, txn);
}

/// Emits the miss request appropriate for the outstanding kind.
pub(crate) fn arena_issue_miss(m: &mut Machine, ops: &ArenaOps, node: NodeId, txn: TxnId) {
    let Some(info) = m.txn_info(txn) else {
        return;
    };
    let (kind, line) = (info.kind, info.line);
    let op =
        BusOp::new((ops.miss)(kind), line, node, txn).with_allocate(kind == RequestKind::Allocate);
    m.emit(ARENA_SLOT, op, 0);
}

/// Completion of a local (bus-free) arena access. The line may have been
/// downgraded or invalidated by snooped traffic during the cache latency;
/// the access then restarts as the appropriate bus transaction.
pub(crate) fn arena_local_done(m: &mut Machine, ops: &ArenaOps, node: NodeId) {
    let idx = node.as_usize();
    let Some(out) = m.controllers[idx].outstanding else {
        return;
    };
    if out.phase != TxnPhase::Local {
        return;
    }
    let line = out.line;
    let mode = m.controllers[idx].mode_of(&line);
    match (out.kind, mode) {
        (RequestKind::Read, Some(_)) => {
            // Touch for LRU.
            m.controllers[idx].cache.get(&line);
            m.note_served(out.txn, Served::Local);
            m.finish_txn(node, out.txn, true);
        }
        (RequestKind::Write | RequestKind::Allocate, Some(LineMode::Modified)) => {
            let v = m.next_version(line);
            if let Some(cl) = m.controllers[idx].cache.get_mut(&line) {
                cl.data = v;
            }
            m.note_served(out.txn, Served::Local);
            m.finish_txn(node, out.txn, true);
        }
        (RequestKind::Write | RequestKind::Allocate, Some(LineMode::Reserved)) => {
            arena_silent_upgrade(m, idx, line);
            m.note_served(out.txn, Served::Local);
            m.finish_txn(node, out.txn, true);
        }
        (RequestKind::TestAndSet, Some(LineMode::Modified | LineMode::Reserved)) => {
            let success = m.sync_word(line) == 0;
            if success {
                m.line_entry(line).sync_word = 1;
                if mode == Some(LineMode::Reserved) {
                    arena_silent_upgrade(m, idx, line);
                } else {
                    let v = m.next_version(line);
                    if let Some(cl) = m.controllers[idx].cache.get_mut(&line) {
                        cl.data = v;
                    }
                }
            }
            m.note_served(out.txn, Served::Local);
            m.finish_txn(node, out.txn, success);
        }
        (RequestKind::Writeback, _) => {
            // The line went clean (or away) meanwhile.
            m.note_served(out.txn, Served::Local);
            m.finish_txn(node, out.txn, true);
        }
        (
            RequestKind::Write | RequestKind::Allocate | RequestKind::TestAndSet,
            Some(LineMode::Shared),
        ) => {
            // Downgraded by a snooped read while we waited: the write now
            // needs the bus after all.
            m.note_retry(out.txn);
            let mut out2 = out;
            out2.phase = TxnPhase::Requested;
            m.clear_outstanding(idx);
            m.set_outstanding(idx, out2);
            let op = BusOp::new(ops.upgrade, line, node, out.txn)
                .with_allocate(out.kind == RequestKind::Allocate);
            m.emit(ARENA_SLOT, op, 0);
        }
        _ => {
            // Invalidated while we waited: restart as a miss.
            m.note_retry(out.txn);
            let mut out2 = out;
            out2.phase = TxnPhase::Requested;
            m.clear_outstanding(idx);
            arena_begin_miss(m, ops, node, out2);
        }
    }
}

/// `BusWriteback` completion: either the victim phase of a miss (flush,
/// then issue the real request) or a standalone WRITEBACK transaction
/// (flush and downgrade in place).
pub(crate) fn arena_on_writeback(m: &mut Machine, ops: &ArenaOps, op: &BusOp) {
    let node = op.originator;
    let idx = node.as_usize();
    let Some(out) = m.controllers[idx].outstanding else {
        return;
    };
    if out.txn != op.txn {
        return;
    }
    match out.phase {
        TxnPhase::VictimWriteback => {
            if let Some(victim) = out.victim {
                arena_flush_evict(m, idx, victim);
            }
            if let Some(o) = m.controllers[idx].outstanding.as_mut() {
                o.phase = TxnPhase::Requested;
                o.victim = None;
            }
            arena_issue_miss(m, ops, node, op.txn);
        }
        TxnPhase::Requested => {
            arena_flush_downgrade(m, idx, op.line);
            m.note_served(op.txn, Served::Memory);
            m.finish_txn(node, op.txn, true);
        }
        TxnPhase::Local => {}
    }
}

/// Flushes a dirty victim to memory (if still dirty) and evicts it.
fn arena_flush_evict(m: &mut Machine, idx: usize, line: LineAddr) {
    let node = m.controllers[idx].node();
    let mode = m.controllers[idx].mode_of(&line);
    if arena_is_dirty(m, node, line, mode) {
        let data = m.controllers[idx]
            .data_of(&line)
            .expect("dirty line is resident");
        let home = m.home_column(line) as usize;
        m.memories[home].write(line, data);
        m.arena_sm.remove(&line);
    }
    arena_drop_clean(m, idx, line);
}

/// Flushes a dirty line to memory but keeps a clean shared copy
/// (standalone WRITEBACK semantics).
fn arena_flush_downgrade(m: &mut Machine, idx: usize, line: LineAddr) {
    let node = m.controllers[idx].node();
    let mode = m.controllers[idx].mode_of(&line);
    if !arena_is_dirty(m, node, line, mode) {
        return; // went clean (or away) while the op queued
    }
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

/// Evicts a clean line, scrubbing the arena side tables.
pub(crate) fn arena_drop_clean(m: &mut Machine, idx: usize, line: LineAddr) {
    let node = m.controllers[idx].node();
    m.clear_line(idx, line);
    if m.arena_excl.get(&line) == Some(&node) {
        m.arena_excl.remove(&line);
    }
    if m.arena_sm.get(&line) == Some(&node) {
        m.arena_sm.remove(&line);
    }
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

/// Silent `E → M` upgrade: a write to an exclusive-clean copy needs no
/// bus traffic, but memory's copy is stale from here on.
pub(crate) fn arena_silent_upgrade(m: &mut Machine, idx: usize, line: LineAddr) {
    let v = m.next_version(line);
    m.set_line(idx, line, LineMode::Modified, v);
    m.arena_excl.remove(&line);
    let home = m.home_column(line) as usize;
    m.memories[home].mark_invalid(&line);
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
