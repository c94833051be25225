//! Write-invalidate MESI on a single shared snooping bus.
//!
//! State mapping onto the Multicube cache fabric:
//!
//! * `M` — [`LineMode::Modified`] (registry owner, memory invalid)
//! * `E` — [`LineMode::Reserved`] plus an `arena_excl` entry (memory valid)
//! * `S` — [`LineMode::Shared`]
//! * `I` — not resident
//!
//! Every transaction is one atomic bus operation: `BusRead` (miss for a
//! readable copy), `BusReadExclusive` (miss for ownership, invalidating
//! all other copies), `BusUpgrade` (ownership for an already-shared copy)
//! and `BusWriteback` (dirty flush). A write to an `E` copy upgrades to
//! `M` silently — MESI's advantage over MSI.

use crate::check;
use crate::driver::RequestKind;
use crate::machine::Machine;
use crate::metrics::Served;
use crate::node::LineMode;
use crate::proto::{BusOp, OpKind};

use super::{arena_memory_supply, arena_on_writeback, arena_purge_remote, arena_txn_kind, Engine};

/// MESI on the single bus: invalidating upgrades, exclusive misses for
/// writes, and `E` as the exclusive-clean copy.
pub(super) const ENGINE: Engine = Engine {
    on_op,
    check: check::check_mesi,
    miss: |kind| match kind {
        RequestKind::Read => OpKind::BusRead,
        RequestKind::Write | RequestKind::Allocate | RequestKind::TestAndSet => {
            OpKind::BusReadExclusive
        }
        RequestKind::Writeback => unreachable!("writebacks use BusWriteback"),
    },
    upgrade: |_| OpKind::BusUpgrade,
    flush: OpKind::BusWriteback,
    single_bus: true,
    reserved_is_exclusive: true,
};

/// Runs the MESI snoop of a completed bus operation.
fn on_op(m: &mut Machine, _slot: usize, op: BusOp) {
    match op.kind {
        OpKind::BusRead => on_bus_read(m, &op, true),
        OpKind::BusReadExclusive => on_bus_read_exclusive(m, &op),
        OpKind::BusUpgrade => on_bus_upgrade(m, &op),
        OpKind::BusWriteback => arena_on_writeback(m, &op),
        other => unreachable!("op {} dispatched on the MESI engine", other.name()),
    }
}

/// `BusRead`: fetch a readable copy. A dirty owner supplies the block and
/// downgrades to `S` (memory snarfs the flush); an `E` holder downgrades
/// to `S`; otherwise memory supplies. The requester installs `S` if any
/// other copy remains, else `E` when `exclusive_when_alone` (MESI; a
/// write-once read always installs `S`).
pub(super) fn on_bus_read(m: &mut Machine, op: &BusOp, exclusive_when_alone: bool) {
    let line = op.line;
    let o_node = op.originator;
    if !m.txn_outstanding(o_node, op.txn) {
        return;
    }
    let data = if let Some(owner) = m.registry_owner(line) {
        debug_assert_ne!(owner, o_node, "a dirty owner reads locally");
        let w_idx = owner.as_usize();
        let held = m.controllers[w_idx]
            .data_of(&line)
            .expect("modified line is resident");
        m.downgrade_to_shared(w_idx, line);
        let home = m.home_column(line) as usize;
        m.memories[home].write(line, held);
        m.note_served(op.txn, Served::RemoteModified);
        held
    } else {
        arena_memory_supply(m, op)
    };
    let o_idx = o_node.as_usize();
    if m.sharer_count(line) > 0 || !exclusive_when_alone {
        m.set_line(o_idx, line, LineMode::Shared, data);
    } else {
        m.set_line(o_idx, line, LineMode::Reserved, data);
        m.arena_excl.insert(line, o_node);
    }
    m.finish_txn(o_node, op.txn, true);
}

/// `BusReadExclusive`: fetch ownership, invalidating every other copy.
pub(super) fn on_bus_read_exclusive(m: &mut Machine, op: &BusOp) {
    if !m.txn_outstanding(op.originator, op.txn) {
        return;
    }
    let served = if m.registry_owner(op.line).is_some() {
        Served::RemoteModified
    } else {
        Served::Memory
    };
    commit_write(m, op, served);
}

/// `BusUpgrade` (and write-once's `BusWriteThrough`): ownership for a copy
/// we already hold shared. If a rival writer invalidated our copy while
/// the upgrade sat in the bus queue, the upgrade lost the race and
/// restarts as a full `BusReadExclusive` (the invalidation freed our set
/// slot, so the re-fetch installs without a victim).
pub(super) fn on_bus_upgrade(m: &mut Machine, op: &BusOp) {
    let (line, o_node) = (op.line, op.originator);
    if !m.txn_outstanding(o_node, op.txn) {
        return;
    }
    if m.controllers[o_node.as_usize()].mode_of(&line) != Some(LineMode::Shared) {
        m.note_retry(op.txn);
        m.issue_request(o_node, op.txn, m.engine.miss);
        return;
    }
    commit_write(m, op, Served::Memory);
}

/// The write a read-exclusive or upgrade won the bus for. For TAS the
/// synchronization word is tested first; a taken word fails the
/// transaction without disturbing any copy. Otherwise every other copy
/// is purged and the writer ends `M` with memory stale — or, after
/// write-once's `BusWriteThrough`, the sole clean (`E`, Reserved) holder
/// with the word written through to memory.
fn commit_write(m: &mut Machine, op: &BusOp, served: Served) {
    let (line, o_node) = (op.line, op.originator);
    let o_idx = o_node.as_usize();
    let kind = arena_txn_kind(m, op.txn);
    m.note_served(op.txn, served);
    if kind == RequestKind::TestAndSet && m.sync_word(line) != 0 {
        m.finish_txn(o_node, op.txn, false);
        return;
    }
    arena_purge_remote(m, line, o_node);
    let home = m.home_column(line) as usize;
    let v = m.next_version(line);
    if op.kind == OpKind::BusWriteThrough {
        m.set_line(o_idx, line, LineMode::Reserved, v);
        m.arena_excl.insert(line, o_node);
        m.memories[home].write(line, v);
    } else {
        m.set_line(o_idx, line, LineMode::Modified, v);
        m.memories[home].mark_invalid(&line);
    }
    if kind == RequestKind::TestAndSet {
        m.line_entry(line).sync_word = 1;
    }
    m.finish_txn(o_node, op.txn, true);
}
