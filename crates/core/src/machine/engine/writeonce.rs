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

use multicube_topology::NodeId;

use crate::check::{self, CoherenceView, CoherenceViolation};
use crate::config::EngineKind;
use crate::driver::Request;
use crate::machine::Machine;
use crate::proto::{BusOp, OpKind, TxnId};

use super::mesi::{on_bus_read, on_bus_read_exclusive, on_bus_upgrade, MESI_OPS};
use super::{arena_local_done, arena_on_writeback, arena_start_request, ArenaOps, ProtocolEngine};

/// The write-once arena vocabulary: write-through upgrades, MESI's misses.
const WRITE_ONCE_OPS: ArenaOps = ArenaOps {
    upgrade: OpKind::BusWriteThrough,
    miss: MESI_OPS.miss,
};

/// Goodman's write-once protocol on a single snooping bus.
pub struct WriteOnceEngine;

impl ProtocolEngine for WriteOnceEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::WriteOnce
    }

    fn start_request(&self, m: &mut Machine, node: NodeId, req: Request) -> TxnId {
        arena_start_request(m, &WRITE_ONCE_OPS, node, req)
    }

    fn on_op(&self, m: &mut Machine, _slot: usize, op: BusOp) {
        match op.kind {
            OpKind::BusRead => on_bus_read(m, &op, false),
            OpKind::BusReadExclusive => on_bus_read_exclusive(m, &op),
            OpKind::BusWriteThrough => on_bus_upgrade(m, &op),
            OpKind::BusWriteback => arena_on_writeback(m, &WRITE_ONCE_OPS, &op),
            other => unreachable!("op {} dispatched on the write-once engine", other.name()),
        }
    }

    fn on_local_done(&self, m: &mut Machine, node: NodeId) {
        arena_local_done(m, &WRITE_ONCE_OPS, node);
    }

    fn check(&self, v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
        check::check_mesi(v)
    }
}
