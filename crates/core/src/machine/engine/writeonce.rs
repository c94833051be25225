//! Goodman's write-once protocol \[Good83\] on a single shared snooping
//! bus: the single-bus *multi* the paper generalizes ("a multi is a
//! Multicube for which k = 1").
//!
//! State mapping onto the Multicube cache fabric:
//!
//! * Dirty — `LineMode::Modified` (registry owner, memory invalid)
//! * Reserved — `LineMode::Reserved` plus an `arena_excl` entry (written
//!   exactly once; the write went through, so memory is valid)
//! * Valid — `LineMode::Shared`
//! * Invalid — not resident
//!
//! A read miss always installs Valid. The first write to a Valid copy is
//! a `BusWriteThrough`: one word written through to memory, invalidating
//! every other copy and leaving the writer Reserved. The second write is
//! the silent Reserved → Dirty upgrade. Write misses, write-backs and the
//! quiescent invariants are MESI's.

use crate::machine::Machine;
use crate::proto::{BusOp, OpKind};

use super::mesi::{self, on_bus_read, on_bus_read_exclusive, on_bus_upgrade};
use super::{arena_on_writeback, Engine};

/// Write-once: write-through upgrades, the rest MESI's.
pub(super) const ENGINE: Engine = Engine {
    on_op,
    upgrade: |_| OpKind::BusWriteThrough,
    ..mesi::ENGINE
};

/// Runs the write-once snoop of a completed bus operation.
fn on_op(m: &mut Machine, _slot: usize, op: BusOp) {
    match op.kind {
        OpKind::BusRead => on_bus_read(m, &op, false),
        OpKind::BusReadExclusive => on_bus_read_exclusive(m, &op),
        OpKind::BusWriteThrough => on_bus_upgrade(m, &op),
        OpKind::BusWriteback => arena_on_writeback(m, &op),
        other => unreachable!("op {} dispatched on the write-once engine", other.name()),
    }
}
