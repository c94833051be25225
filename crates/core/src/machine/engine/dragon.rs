//! Write-update Dragon on a single shared snooping bus.
//!
//! State mapping onto the Multicube cache fabric:
//!
//! * `M` (dirty, sole copy) — [`LineMode::Modified`]
//! * `E` (clean, sole copy) — [`LineMode::Reserved`] plus `arena_excl`
//! * `Sm` (dirty, shared; this cache supplies and writes back) —
//!   [`LineMode::Shared`] plus an `arena_sm` entry
//! * `Sc` (clean, shared) — [`LineMode::Shared`]
//!
//! Dragon never invalidates: a write to a shared line broadcasts a
//! `BusUpdate` that refreshes every remote copy in place, and the writer
//! becomes the shared-modified owner (`Sm`). Memory is only brought
//! current by write-backs, so the valid bit tracks "no dirty copy"
//! (neither `M` nor `Sm`). A write miss with other copies present is the
//! classic two-op sequence `BusRead` + `BusUpdate`.

use crate::check::{self, CoherenceView, CoherenceViolation};
use crate::config::EngineKind;
use crate::driver::RequestKind;
use crate::machine::Machine;
use crate::metrics::Served;
use crate::node::LineMode;
use crate::proto::{BusOp, OpKind};

use super::{
    arena_memory_supply, arena_on_writeback, arena_txn_kind, mesi, ProtocolEngine, Vocabulary,
};

/// The Dragon vocabulary: updating "upgrades", and every miss starts as a
/// `BusRead`; flushes and the single bus as in MESI.
pub(super) const VOCABULARY: Vocabulary = Vocabulary {
    miss: |kind| match kind {
        RequestKind::Read
        | RequestKind::Write
        | RequestKind::Allocate
        | RequestKind::TestAndSet => OpKind::BusRead,
        RequestKind::Writeback => unreachable!("writebacks use BusWriteback"),
    },
    upgrade: |_| OpKind::BusUpdate,
    ..mesi::VOCABULARY
};

/// Write-update Dragon on a single snooping bus.
pub struct DragonEngine;

impl ProtocolEngine for DragonEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Dragon
    }

    fn on_op(&self, m: &mut Machine, _slot: usize, op: BusOp) {
        match op.kind {
            OpKind::BusRead => on_bus_read(m, &op),
            OpKind::BusUpdate => on_bus_update(m, &op),
            OpKind::BusWriteback => arena_on_writeback(m, &op),
            other => unreachable!("op {} dispatched on the Dragon engine", other.name()),
        }
    }

    fn check(&self, v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
        check::check_dragon(v)
    }
}

/// `BusRead`: fetch a copy. Supplier priority is the dirty owner (`M`,
/// which downgrades to `Sm` — memory stays stale), then the `Sm` holder,
/// then memory (downgrading any `E` holder to `Sc`). A read installs `Sc`
/// (or `E` when alone); a write with no other copies goes straight to
/// `M`, otherwise it installs `Sc` and chains a `BusUpdate`.
fn on_bus_read(m: &mut Machine, op: &BusOp) {
    let line = op.line;
    let o_node = op.originator;
    let o_idx = o_node.as_usize();
    if !m.txn_outstanding(o_node, op.txn) {
        return;
    }
    let kind = arena_txn_kind(m, op.txn);
    let home = m.home_column(line) as usize;
    let data = if let Some(owner) = m.registry_owner(line) {
        debug_assert_ne!(owner, o_node, "a dirty owner reads locally");
        let w_idx = owner.as_usize();
        let held = m.controllers[w_idx]
            .data_of(&line)
            .expect("modified line is resident");
        // M → Sm: the owner keeps supplying the dirty block; Dragon never
        // updates memory on a read.
        m.downgrade_to_shared(w_idx, line);
        m.arena_sm.insert(line, owner);
        m.note_served(op.txn, Served::RemoteModified);
        held
    } else if let Some(&sm) = m.arena_sm.get(&line) {
        m.note_served(op.txn, Served::RemoteModified);
        m.controllers[sm.as_usize()]
            .data_of(&line)
            .expect("shared-modified line is resident")
    } else {
        arena_memory_supply(m, op)
    };
    let copies = m.sharer_count(line);
    match kind {
        RequestKind::Read => {
            if copies > 0 {
                m.set_line(o_idx, line, LineMode::Shared, data);
            } else {
                m.set_line(o_idx, line, LineMode::Reserved, data);
                m.arena_excl.insert(line, o_node);
            }
            m.finish_txn(o_node, op.txn, true);
        }
        RequestKind::Write | RequestKind::Allocate | RequestKind::TestAndSet => {
            if copies == 0 {
                if kind == RequestKind::TestAndSet && m.sync_word(line) != 0 {
                    // The word is taken: keep the fetched copy exclusive-
                    // clean and fail the transaction.
                    m.set_line(o_idx, line, LineMode::Reserved, data);
                    m.arena_excl.insert(line, o_node);
                    m.finish_txn(o_node, op.txn, false);
                    return;
                }
                let v = m.next_version(line);
                m.set_line(o_idx, line, LineMode::Modified, v);
                m.memories[home].mark_invalid(&line);
                if kind == RequestKind::TestAndSet {
                    m.line_entry(line).sync_word = 1;
                }
                m.finish_txn(o_node, op.txn, true);
            } else {
                // Copies exist: install shared, then broadcast the write.
                // The transaction completes when the BusUpdate dispatches.
                m.set_line(o_idx, line, LineMode::Shared, data);
                m.issue_request(o_node, op.txn, m.vocab.upgrade);
            }
        }
        RequestKind::Writeback => unreachable!("writebacks use BusWriteback"),
    }
}

/// `BusUpdate`: broadcast one written word; every remote copy is
/// refreshed in place, the writer becomes (or stays) the shared-modified
/// owner, and memory goes stale. If every other copy was evicted while
/// the update sat in the bus queue, the writer promotes to `M` instead.
fn on_bus_update(m: &mut Machine, op: &BusOp) {
    let line = op.line;
    let o_node = op.originator;
    let o_idx = o_node.as_usize();
    if !m.txn_outstanding(o_node, op.txn) {
        return;
    }
    let kind = arena_txn_kind(m, op.txn);
    if m.controllers[o_idx].mode_of(&line).is_none() {
        // Defensive: our copy vanished while the update queued (only we
        // can evict it, so this should not occur) — restart as a miss.
        m.note_retry(op.txn);
        m.issue_request(o_node, op.txn, m.vocab.miss);
        return;
    }
    // An update off the upgrade path has not crossed the bus before now;
    // account the service as a memory-class (bus) transaction.
    if m.txn_info(op.txn).map(|i| i.served) == Some(Served::Local) {
        m.note_served(op.txn, Served::Memory);
    }
    if kind == RequestKind::TestAndSet && m.sync_word(line) != 0 {
        // The word is taken: our shared copy stays as it is.
        m.finish_txn(o_node, op.txn, false);
        return;
    }
    let v = m.next_version(line);
    let mut remote = 0u32;
    for idx in 0..m.controllers.len() {
        if idx == o_idx {
            continue;
        }
        if let Some(cl) = m.controllers[idx].cache.peek_mut(&line) {
            cl.data = v;
            remote += 1;
            m.metrics.updates.incr();
        }
    }
    let home = m.home_column(line) as usize;
    if remote > 0 {
        // The writer becomes the shared-modified owner; a previous Sm
        // holder silently keeps a clean Sc copy (already refreshed above).
        if let Some(cl) = m.controllers[o_idx].cache.peek_mut(&line) {
            debug_assert_eq!(cl.mode, LineMode::Shared);
            cl.data = v;
        }
        m.arena_sm.insert(line, o_node);
    } else {
        // Last copy standing: promote to M.
        m.arena_sm.remove(&line);
        m.set_line(o_idx, line, LineMode::Modified, v);
    }
    m.memories[home].mark_invalid(&line);
    if kind == RequestKind::TestAndSet {
        m.line_entry(line).sync_word = 1;
    }
    m.finish_txn(o_node, op.txn, true);
}
