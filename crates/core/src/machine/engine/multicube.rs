//! The default engine: the paper's Appendix-A write-invalidate protocol
//! over the row/column bus grid. Its snoops live in the sibling `machine`
//! submodules (`readops`, `readmod`, `tas`, `writeback`); this engine
//! routes bus operations to them and names the operations the shared
//! processor side issues: every request starts with the row-bus request of
//! its kind (an upgrade of a shared copy too), and a flush is
//! `WRITEBACK (COLUMN, REMOVE)` on the requester's column bus.

use crate::check;
use crate::driver::RequestKind;
use crate::machine::Machine;
use crate::proto::OpKind;

use super::Engine;

/// The Appendix-A Multicube protocol: row-bus requests and column-bus
/// flushes on the grid. `Reserved` is the §4 SYNC reservation, which
/// serves no access.
pub(super) const ENGINE: Engine = Engine {
    on_op: Machine::dispatch_multicube,
    check: check::check,
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
