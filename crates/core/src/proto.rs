//! The bus-operation vocabulary of Appendix A.
//!
//! Every procedure in the paper's formal protocol corresponds to one
//! [`OpKind`] here, named after its signature: e.g. the paper's
//! `READ (COLUMN, REQUEST, REMOVE)` is [`OpKind::ReadColRequestRemove`].
//! A [`BusOp`] is one operation in flight: its kind, the line it concerns,
//! the transaction originator (for the protocol's `id match` / `row match` /
//! `column match` tests) and any carried data.

use core::fmt;

use multicube_mem::{LineAddr, LineVersion};
use multicube_topology::NodeId;

/// Identifies one processor transaction (a READ, READ-MOD, ALLOCATE,
/// WRITE-BACK or synchronization operation) across all of its bus
/// operations, for instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

/// A deterministic fast-hash set of [`TxnId`]s (see `multicube_sim::hash`).
/// The machine's own bookkeeping uses a ring of live transactions indexed
/// by id; this alias is for sparse transaction-keyed side sets.
pub type TxnSet = multicube_sim::FxHashSet<TxnId>;

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// Whether an operation occupies a row bus or a column bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Travels on a row bus.
    Row,
    /// Travels on a column bus.
    Column,
}

/// One bus-operation signature from the formal protocol (Appendix A), plus
/// the §4 remote test-and-set extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    // ---- READ transaction ----
    /// `READ (ROW, REQUEST)` — a read miss enters its row bus.
    ReadRowRequest,
    /// `READ (COLUMN, REQUEST, REMOVE)` — routed to the modified column;
    /// removing the MLT entry arbitrates races.
    ReadColRequestRemove,
    /// `READ (COLUMN, REQUEST, MEMORY)` — routed to memory on the home
    /// column.
    ReadColRequestMemory,
    /// `READ (COLUMN, REPLY, UPDATE)` — data leaves the modified column;
    /// memory must eventually be updated.
    ReadColReplyUpdate,
    /// `READ (COLUMN, REPLY, UPDATE, MEMORY)` — data on the home column;
    /// memory updates as a side effect of the same operation.
    ReadColReplyUpdateMemory,
    /// `READ (COLUMN, REPLY, NOPURGE)` — memory's reply to a READ.
    ReadColReplyNoPurge,
    /// `READ (ROW, REPLY)` — data delivered on the requester's row.
    ReadRowReply,
    /// `READ (ROW, REPLY, UPDATE)` — data delivered on the requester's row;
    /// the home-column controller forwards a memory update.
    ReadRowReplyUpdate,

    // ---- READ-MOD transaction (ALLOCATE is the same with the
    //      `allocate` flag set on the BusOp) ----
    /// `READMOD (ROW, REQUEST)`.
    ReadModRowRequest,
    /// `READMOD (COLUMN, REQUEST, REMOVE)`.
    ReadModColRequestRemove,
    /// `READMOD (COLUMN, REQUEST, MEMORY)`.
    ReadModColRequestMemory,
    /// `READMOD (ROW, REPLY)` — ownership moves along the holder's row.
    ReadModRowReply,
    /// `READMOD (COLUMN, REPLY, PURGE)` — memory's reply; starts the
    /// invalidation broadcast down the home column.
    ReadModColReplyPurge,
    /// `READMOD (COLUMN, REPLY, INSERT)` — data up the originator's column;
    /// every controller there inserts an MLT entry.
    ReadModColReplyInsert,
    /// `READMOD (ROW, REPLY, PURGE)` — data plus purge on the originator's
    /// row.
    ReadModRowReplyPurge,
    /// `READMOD (ROW, PURGE)` — pure invalidation broadcast on one row.
    ReadModRowPurge,
    /// `READMOD (COLUMN, INSERT)` — MLT insertion on the originator's
    /// column.
    ReadModColInsert,

    // ---- WRITE-BACK transaction ----
    /// `WRITEBACK (COLUMN, REMOVE)`.
    WritebackColRemove,
    /// `WRITEBACK (ROW, UPDATE)` — carries the line toward its home column.
    WritebackRowUpdate,
    /// `WRITEBACK (COLUMN, UPDATE, MEMORY)` — writes the line into memory.
    WritebackColUpdateMemory,

    // ---- §4 synchronization extension ----
    /// Remote test-and-set request on the row (variant of READMOD).
    TasRowRequest,
    /// Remote test-and-set routed to the holding column: an atomic
    /// test-with-response operation (the outcome is signalled on the bus,
    /// like the modified signal, so MLT replicas can react identically).
    TasColRequest,
    /// Remote test-and-set routed to memory on the home column.
    TasColRequestMemory,
    /// Test-and-set failure notification returning to the originator's
    /// row — no data moves, the line stays remote.
    TasRowFail,
    /// Test-and-set failure notification on the originator's column.
    TasColFail,

    // ---- Single-bus arena vocabulary (rival protocol engines) ----
    //
    // The MESI, Dragon and write-once engines model classic single-bus
    // snooping: every coherence action is one atomic transaction on bus 0,
    // so each op kind below carries the whole snoop (supply, purge or
    // update) at dispatch. None of them are Appendix-A operations; the
    // Multicube engine never emits them.
    /// Single-bus read: memory or the dirty owner supplies the block.
    BusRead,
    /// Single-bus read-for-ownership: supplies the block and invalidates
    /// every other cached copy (MESI `BusRdX`).
    BusReadExclusive,
    /// Address-only ownership upgrade of a copy already held shared
    /// (MESI `BusUpgr`); invalidates the other copies.
    BusUpgrade,
    /// Single-bus write-back of a dirty line into memory.
    BusWriteback,
    /// Write-update broadcast of one word to every cached copy
    /// (Dragon `BusUpd`).
    BusUpdate,
    /// Write-once's first write to a copy held shared: one word written
    /// through to memory, invalidating every other copy.
    BusWriteThrough,
}

impl OpKind {
    /// Which bus class this operation travels on.
    pub fn class(self) -> OpClass {
        use OpKind::*;
        match self {
            ReadRowRequest | ReadRowReply | ReadRowReplyUpdate | ReadModRowRequest
            | ReadModRowReply | ReadModRowReplyPurge | ReadModRowPurge | WritebackRowUpdate
            | TasRowRequest | TasRowFail | BusRead | BusReadExclusive | BusUpgrade
            | BusWriteback | BusUpdate | BusWriteThrough => OpClass::Row,
            ReadColRequestRemove
            | ReadColRequestMemory
            | ReadColReplyUpdate
            | ReadColReplyUpdateMemory
            | ReadColReplyNoPurge
            | ReadModColRequestRemove
            | ReadModColRequestMemory
            | ReadModColReplyPurge
            | ReadModColReplyInsert
            | ReadModColInsert
            | WritebackColRemove
            | WritebackColUpdateMemory
            | TasColRequest
            | TasColRequestMemory
            | TasColFail => OpClass::Column,
        }
    }

    /// Whether this operation streams a data block over the bus (as
    /// opposed to address/command-only). ALLOCATE replies acknowledge
    /// without data; that is decided per-[`BusOp`], not per kind.
    pub fn is_reply_with_data(self) -> bool {
        use OpKind::*;
        matches!(
            self,
            ReadColReplyUpdate
                | ReadColReplyUpdateMemory
                | ReadColReplyNoPurge
                | ReadRowReply
                | ReadRowReplyUpdate
                | ReadModRowReply
                | ReadModColReplyPurge
                | ReadModColReplyInsert
                | ReadModRowReplyPurge
                | WritebackRowUpdate
                | WritebackColUpdateMemory
        )
    }

    /// Whether this operation is a *data reply to the originator* — i.e.
    /// its delivery with `id match` completes the originator's transaction.
    pub fn completes_originator(self) -> bool {
        use OpKind::*;
        matches!(
            self,
            ReadColReplyUpdate
                | ReadColReplyUpdateMemory
                | ReadColReplyNoPurge
                | ReadRowReply
                | ReadRowReplyUpdate
                | ReadModRowReply
                | ReadModColReplyPurge
                | ReadModColReplyInsert
                | ReadModRowReplyPurge
                | TasRowFail
                | TasColFail
        )
    }

    /// Whether this operation is an address-only *request* (row or column).
    /// Only requests are eligible for loss/duplication faults: losing a
    /// request merely forces a retry, whereas losing a reply, purge or
    /// write-back would lose data or invalidations outright — those paths
    /// are assumed fail-stop hardware.
    pub fn is_request(self) -> bool {
        use OpKind::*;
        matches!(
            self,
            ReadRowRequest
                | ReadColRequestRemove
                | ReadColRequestMemory
                | ReadModRowRequest
                | ReadModColRequestRemove
                | ReadModColRequestMemory
                | TasRowRequest
                | TasColRequest
                | TasColRequestMemory
        )
    }

    /// Short protocol-style name, e.g. `READ(COL,REQ,REMOVE)`.
    pub fn name(self) -> &'static str {
        use OpKind::*;
        match self {
            ReadRowRequest => "READ(ROW,REQ)",
            ReadColRequestRemove => "READ(COL,REQ,REMOVE)",
            ReadColRequestMemory => "READ(COL,REQ,MEM)",
            ReadColReplyUpdate => "READ(COL,REPLY,UPD)",
            ReadColReplyUpdateMemory => "READ(COL,REPLY,UPD,MEM)",
            ReadColReplyNoPurge => "READ(COL,REPLY,NOPURGE)",
            ReadRowReply => "READ(ROW,REPLY)",
            ReadRowReplyUpdate => "READ(ROW,REPLY,UPD)",
            ReadModRowRequest => "READMOD(ROW,REQ)",
            ReadModColRequestRemove => "READMOD(COL,REQ,REMOVE)",
            ReadModColRequestMemory => "READMOD(COL,REQ,MEM)",
            ReadModRowReply => "READMOD(ROW,REPLY)",
            ReadModColReplyPurge => "READMOD(COL,REPLY,PURGE)",
            ReadModColReplyInsert => "READMOD(COL,REPLY,INSERT)",
            ReadModRowReplyPurge => "READMOD(ROW,REPLY,PURGE)",
            ReadModRowPurge => "READMOD(ROW,PURGE)",
            ReadModColInsert => "READMOD(COL,INSERT)",
            WritebackColRemove => "WB(COL,REMOVE)",
            WritebackRowUpdate => "WB(ROW,UPD)",
            WritebackColUpdateMemory => "WB(COL,UPD,MEM)",
            TasRowRequest => "TAS(ROW,REQ)",
            TasColRequest => "TAS(COL,REQ)",
            TasColRequestMemory => "TAS(COL,REQ,MEM)",
            TasRowFail => "TAS(ROW,FAIL)",
            TasColFail => "TAS(COL,FAIL)",
            BusRead => "BUS(READ)",
            BusReadExclusive => "BUS(READX)",
            BusUpgrade => "BUS(UPGRADE)",
            BusWriteback => "BUS(WB)",
            BusUpdate => "BUS(UPD)",
            BusWriteThrough => "BUS(WT)",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Piece index for split data transfers ([`crate::LatencyMode::Pieces`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// Zero-based index of this piece.
    pub index: u32,
    /// Total pieces in the transfer.
    pub of: u32,
}

impl Piece {
    /// Whether this is the final piece (protocol side effects fire here).
    pub fn is_last(self) -> bool {
        self.index + 1 == self.of
    }
}

/// A fault stamped onto an in-flight operation by the
/// [`crate::FaultPlan`]-driven injector. The faulted copy still occupies
/// its bus for the full duration (the wire does not know it is garbage);
/// the fault is *consumed* at dispatch instead of the normal snoop actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFault {
    /// No controller or memory heard the operation; the originator's
    /// controller times out and retransmits (a retry).
    Lost,
    /// A spurious duplicate of a request whose original is also in flight;
    /// consumed silently (re-acting on it could purge live data).
    Duplicate,
}

/// One bus operation in flight.
///
/// A bus operation contains "a type, an originating node id (for routing
/// replies), a line address, and possibly the contents of the line"
/// (Appendix A). We add a transaction id for instrumentation and an
/// `allocate` flag marking READ-MOD operations that belong to an ALLOCATE
/// transaction (identical protocol, acknowledge instead of data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusOp {
    /// Operation signature.
    pub kind: OpKind,
    /// The coherency line concerned.
    pub line: LineAddr,
    /// The node whose transaction this operation serves.
    pub originator: NodeId,
    /// Instrumentation id of the originating transaction.
    pub txn: TxnId,
    /// Carried line contents, if any.
    pub data: Option<LineVersion>,
    /// True when part of an ALLOCATE transaction: replies carry an
    /// acknowledge instead of the block.
    pub allocate: bool,
    /// Piece bookkeeping for split transfers; `None` for whole-block ops.
    pub piece: Option<Piece>,
    /// When set, the operation's data was promised from this node's cache
    /// and must be revalidated when the access latency elapses: if the
    /// line was purged meanwhile, the controller discards the reply and
    /// the request is retransmitted (the §3 robustness behaviour).
    pub supplier: Option<NodeId>,
    /// Injected fault stamped on this copy of the operation, if any.
    pub fault: Option<OpFault>,
}

impl BusOp {
    /// Creates an address-only operation.
    pub fn new(kind: OpKind, line: LineAddr, originator: NodeId, txn: TxnId) -> Self {
        BusOp {
            kind,
            line,
            originator,
            txn,
            data: None,
            allocate: false,
            piece: None,
            supplier: None,
            fault: None,
        }
    }

    /// Attaches carried data.
    #[must_use]
    pub fn with_data(mut self, data: LineVersion) -> Self {
        self.data = Some(data);
        self
    }

    /// Marks the operation as part of an ALLOCATE transaction.
    #[must_use]
    pub fn with_allocate(mut self, allocate: bool) -> Self {
        self.allocate = allocate;
        self
    }

    /// Marks the data as promised from `supplier`'s cache, requiring
    /// revalidation when the cache access completes.
    #[must_use]
    pub fn with_supplier(mut self, supplier: NodeId) -> Self {
        self.supplier = Some(supplier);
        self
    }

    /// Whether this operation streams data on the bus (replies of an
    /// ALLOCATE transaction do not — they acknowledge).
    pub fn streams_data(&self) -> bool {
        self.kind.is_reply_with_data() && !self.allocate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_a_class_and_name() {
        use OpKind::*;
        let all = [
            ReadRowRequest,
            ReadColRequestRemove,
            ReadColRequestMemory,
            ReadColReplyUpdate,
            ReadColReplyUpdateMemory,
            ReadColReplyNoPurge,
            ReadRowReply,
            ReadRowReplyUpdate,
            ReadModRowRequest,
            ReadModColRequestRemove,
            ReadModColRequestMemory,
            ReadModRowReply,
            ReadModColReplyPurge,
            ReadModColReplyInsert,
            ReadModRowReplyPurge,
            ReadModRowPurge,
            ReadModColInsert,
            WritebackColRemove,
            WritebackRowUpdate,
            WritebackColUpdateMemory,
            TasRowRequest,
            TasColRequest,
            TasColRequestMemory,
            TasRowFail,
            TasColFail,
            BusRead,
            BusReadExclusive,
            BusUpgrade,
            BusWriteback,
            BusUpdate,
            BusWriteThrough,
        ];
        for kind in all {
            assert!(!kind.name().is_empty());
            let _ = kind.class();
        }
    }

    #[test]
    fn row_column_classification_matches_names() {
        assert_eq!(OpKind::ReadRowRequest.class(), OpClass::Row);
        assert_eq!(OpKind::ReadColRequestRemove.class(), OpClass::Column);
        assert_eq!(OpKind::ReadModRowPurge.class(), OpClass::Row);
        assert_eq!(OpKind::WritebackColUpdateMemory.class(), OpClass::Column);
    }

    #[test]
    fn data_ops_are_the_replies() {
        assert!(OpKind::ReadRowReply.is_reply_with_data());
        assert!(OpKind::WritebackRowUpdate.is_reply_with_data());
        assert!(!OpKind::ReadRowRequest.is_reply_with_data());
        assert!(!OpKind::ReadModColInsert.is_reply_with_data());
        assert!(!OpKind::ReadModRowPurge.is_reply_with_data());
    }

    #[test]
    fn allocate_suppresses_data_streaming() {
        let op = BusOp::new(
            OpKind::ReadModColReplyInsert,
            LineAddr::new(1),
            NodeId::new(0),
            TxnId(1),
        );
        assert!(op.streams_data());
        let ack = op.with_allocate(true);
        assert!(!ack.streams_data());
    }

    #[test]
    fn completes_originator_covers_replies_and_tas_fail() {
        assert!(OpKind::ReadRowReply.completes_originator());
        assert!(OpKind::ReadModColReplyInsert.completes_originator());
        assert!(OpKind::TasRowFail.completes_originator());
        assert!(!OpKind::ReadModColInsert.completes_originator());
        assert!(!OpKind::WritebackColUpdateMemory.completes_originator());
    }

    #[test]
    fn piece_last_detection() {
        assert!(Piece { index: 3, of: 4 }.is_last());
        assert!(!Piece { index: 0, of: 4 }.is_last());
        assert!(Piece { index: 0, of: 1 }.is_last());
    }

    #[test]
    fn loss_eligibility_is_exactly_the_requests() {
        use OpKind::*;
        let requests = [
            ReadRowRequest,
            ReadColRequestRemove,
            ReadColRequestMemory,
            ReadModRowRequest,
            ReadModColRequestRemove,
            ReadModColRequestMemory,
            TasRowRequest,
            TasColRequest,
            TasColRequestMemory,
        ];
        for kind in requests {
            assert!(kind.is_request(), "{kind} should be loss-eligible");
            assert!(!kind.is_reply_with_data(), "requests are address-only");
        }
        for kind in [
            ReadRowReply,
            ReadModColReplyPurge,
            ReadModRowPurge,
            WritebackColRemove,
            WritebackRowUpdate,
            WritebackColUpdateMemory,
            TasRowFail,
            TasColFail,
            // Arena transactions are atomic: fault injection is modeled for
            // the Multicube vocabulary only.
            BusRead,
            BusReadExclusive,
            BusUpgrade,
            BusWriteback,
            BusUpdate,
            BusWriteThrough,
        ] {
            assert!(!kind.is_request(), "{kind} must never be lost/duplicated");
        }
    }

    #[test]
    fn new_ops_carry_no_fault() {
        let op = BusOp::new(
            OpKind::ReadRowRequest,
            LineAddr::new(1),
            NodeId::new(0),
            TxnId(1),
        );
        assert_eq!(op.fault, None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TxnId(7).to_string(), "txn7");
        assert_eq!(OpKind::ReadRowRequest.to_string(), "READ(ROW,REQ)");
    }
}
