//! The default engine: the paper's Appendix-A write-invalidate protocol
//! over the row/column bus grid. Its snoops live in the sibling `machine`
//! submodules (`readops`, `readmod`, `tas`, `writeback`); this engine
//! routes bus operations to them and names the operations the shared
//! processor side issues: every request starts with the row-bus request of
//! its kind (an upgrade of a shared copy too), and a flush is
//! `WRITEBACK (COLUMN, REMOVE)` on the requester's column bus.

use crate::check::{self, CoherenceView, CoherenceViolation};
use crate::config::EngineKind;
use crate::driver::RequestKind;
use crate::machine::Machine;
use crate::proto::{BusOp, OpKind};

use super::{ProtocolEngine, Vocabulary};

/// The Multicube vocabulary: row-bus requests and column-bus flushes.
/// `Reserved` is the §4 SYNC reservation, which serves no access.
pub(super) const VOCABULARY: Vocabulary = Vocabulary {
    miss: row_request,
    upgrade: row_request,
    flush: OpKind::WritebackColRemove,
    single_bus: false,
    reserved_is_exclusive: false,
};

/// The row-bus request that starts, or retransmits, a transaction of
/// `kind`.
pub(crate) fn row_request(kind: RequestKind) -> OpKind {
    match kind {
        RequestKind::Read => OpKind::ReadRowRequest,
        RequestKind::Write | RequestKind::Allocate => OpKind::ReadModRowRequest,
        RequestKind::TestAndSet => OpKind::TasRowRequest,
        RequestKind::Writeback => unreachable!("writebacks start on the column bus"),
    }
}

/// The Appendix-A Multicube protocol (grid of row and column buses).
pub struct MulticubeEngine;

impl ProtocolEngine for MulticubeEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Multicube
    }

    fn on_op(&self, m: &mut Machine, slot: usize, op: BusOp) {
        m.dispatch_multicube(slot, op);
    }

    fn check(&self, v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
        check::check(v)
    }
}
