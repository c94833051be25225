//! The machine: event loop, bus plumbing, and the protocol engine.
//!
//! The protocol procedures of Appendix A are implemented in the submodules
//! ([`read` handlers](self), READ-MOD, WRITE-BACK and test-and-set), one
//! Rust function per formal procedure, dispatched from the single event
//! loop here. All state mutation happens at bus-operation completion
//! instants, mirroring the paper's "on a bus operation, all nodes on the
//! bus ... execute the appropriate procedure".

pub(crate) mod engine;
mod readmod;
mod readops;
mod start;
mod synthetic;
mod tas;
mod writeback;

use std::collections::VecDeque;
use std::iter::StepBy;
use std::ops::Range;

use multicube_mem::{LineAddr, LineMap, LineVersion, MemoryBank, ModifiedLineTable};
use multicube_sim::{DeterministicRng, EventQueue, SimDuration, SimTime};
use multicube_topology::NodeId;

use crate::bus::Bus;
use crate::check::CoherenceViolation;
use crate::config::{LatencyMode, MachineConfig, MachineConfigError};
use crate::driver::{Request, RequestKind, SyntheticSpec};
use crate::fault::{FaultInjector, WatchdogAction};
use crate::metrics::{MachineMetrics, Served};
use crate::node::{Controller, LineMode};
use crate::proto::{BusOp, OpClass, OpFault, OpKind, Piece, TxnId};
use crate::trace::{TraceEvent, TracePoint, TraceSink};

use engine::Engine;

/// A completed processor transaction, as reported by [`Machine::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The node whose transaction completed.
    pub node: NodeId,
    /// The transaction id.
    pub txn: TxnId,
    /// The request kind.
    pub kind: RequestKind,
    /// The line concerned.
    pub line: LineAddr,
    /// Test-and-set outcome (`true` for every other kind).
    pub success: bool,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// Completion instant.
    pub at: SimTime,
}

/// Error from [`Machine::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The node already has an outstanding transaction (requests are
    /// non-overlapping).
    Busy,
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::Busy => write!(f, "node already has an outstanding transaction"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Events driving the machine.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// The in-flight operation on bus `slot` completed.
    BusComplete { slot: usize },
    /// A delayed emission (cache/memory access latency elapsed).
    Emit { slot: usize, op: BusOp },
    /// A processor issues a request (`None` = generate from the synthetic
    /// workload spec).
    Issue {
        node: NodeId,
        request: Option<Request>,
    },
    /// A local (bus-free) access finished its cache latency.
    LocalDone { node: NodeId },
    /// Requested-word-first early unblock of the originator.
    EarlyComplete {
        node: NodeId,
        txn: TxnId,
        data: Option<LineVersion>,
    },
}

/// Why a live transaction is waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnPhase {
    /// A local (bus-free) cache access is absorbing its latency.
    Local,
    /// Waiting for the flush of the dirty `victim` to `continue`.
    VictimWriteback { victim: LineAddr },
    /// The bus request has been issued; waiting for the reply.
    Requested,
}

/// The one record of a live transaction: what it asks for, where it
/// stands, and its instrumentation and idempotence guards.
#[derive(Debug, Clone)]
pub(crate) struct TxnInfo {
    pub node: NodeId,
    pub kind: RequestKind,
    pub line: LineAddr,
    pub start: SimTime,
    pub phase: TxnPhase,
    pub bus_ops: u32,
    pub row_ops: u32,
    pub col_ops: u32,
    pub retries: u32,
    /// Total backoff delay inserted before this transaction's retries (ns).
    pub backoff_ns: u64,
    pub served: Served,
    /// The originator's cache write has been applied (early-unblock guard).
    pub installed: bool,
    /// A purge for this line swept past while the read reply was in
    /// flight: the reply data is stale and must be discarded and the
    /// request retried (see `poison_readers`).
    pub poisoned: bool,
}

/// Consolidated per-line protocol registry entry.
///
/// The machine used to keep five parallel `HashMap<LineAddr, _>`s (owner,
/// sharer count, in-flight interest, committed version, sync word); most
/// protocol events touch several of them for the same line, so each event
/// paid several hash lookups. One entry per line makes that a single
/// lookup. Entries are created on first touch and never removed — absent
/// fields read as their defaults (no owner, no sharers, `INITIAL`
/// version, zero sync word), exactly like a missing map entry did.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineEntry {
    /// Which cache (if any) holds the line modified.
    owner: Option<NodeId>,
    /// Position in [`Machine::owned_list`] while `owner` is `Some`.
    owned_pos: u32,
    /// The caches holding the line shared, in ascending node order. Purge
    /// sweeps visit exactly these instead of probing every bus member.
    sharers: Vec<NodeId>,
    /// Number of nodes with an outstanding transaction on the line — the
    /// index behind [`Machine::line_has_inflight_interest`], kept
    /// consistent by [`Machine::new_txn`] / [`Machine::finish_txn`].
    inflight: u32,
    /// The column whose modified line table lists the line. At most one
    /// does (§3), so this answers the unperturbed modified-signal poll
    /// without asking every row member.
    mlt_col: Option<u32>,
    /// Latest committed write (value-integrity checking).
    committed: LineVersion,
    /// The designated synchronization word of the line (§4).
    sync_word: u64,
}

/// A simulated Wisconsin Multicube.
///
/// Drive it either as a closed loop ([`Machine::run_closed_loop`]): every
/// processor thinks, issues one blocking request from a
/// [`crate::RequestSource`], and repeats, and the run ends in one
/// [`crate::RunReport`]. [`Machine::run_synthetic`] is that loop with the
/// paper's statistical workload; a request stream such as a trace replay
/// is another source. Or drive it transaction by transaction
/// ([`Machine::submit`] / [`Machine::advance`]), which is how the
/// synchronization layer hands a lock or a barrier from node to node.
///
/// # Example
///
/// ```
/// use multicube::{Machine, MachineConfig, Request};
/// use multicube_mem::LineAddr;
/// use multicube_topology::NodeId;
///
/// let mut m = Machine::new(MachineConfig::grid(2).unwrap(), 7).unwrap();
/// let writer = NodeId::new(0);
/// m.submit(writer, Request::write(LineAddr::new(4))).unwrap();
/// let done = m.advance().expect("write completes");
/// assert_eq!(done.node, writer);
///
/// // The other corner of the grid reads it back.
/// let reader = NodeId::new(3);
/// m.submit(reader, Request::read(LineAddr::new(4))).unwrap();
/// let done = m.advance().expect("read completes");
/// assert!(done.latency.as_nanos() > 0);
/// m.check_coherence().unwrap();
/// ```
#[derive(Debug)]
pub struct Machine {
    pub(crate) config: MachineConfig,
    pub(crate) n: u32,
    pub(crate) events: EventQueue<Event>,
    /// Buses: slots `0..n` are row buses, `n..2n` are column buses.
    pub(crate) buses: Vec<Bus>,
    pub(crate) controllers: Vec<Controller>,
    /// One modified line table per column. The paper's per-controller
    /// copies are identical (§3), so one table stands for all `n`; the
    /// per-controller stale views of the MLT-delay fault live in the
    /// fault injector.
    pub(crate) mlts: Vec<ModifiedLineTable>,
    /// One memory bank per column.
    pub(crate) memories: Vec<MemoryBank>,
    pub(crate) rng: DeterministicRng,
    txn_seq: u64,
    version_seq: u64,
    /// Bookkeeping of the live transactions: a power-of-two ring indexed
    /// by `id & (len - 1)`, each entry tagged with its id. Ids are the
    /// dense 1-based issue sequence minted by [`Machine::new_txn`], so the
    /// ring only has to span the ids of the transactions still in flight;
    /// a finished transaction's slot is free.
    txns: Vec<Option<(TxnId, TxnInfo)>>,
    /// The per-line protocol registry (see [`LineEntry`]).
    lines: LineMap<LineEntry>,
    /// Sampling support: all currently owned lines.
    pub(crate) owned_list: Vec<LineAddr>,
    pub(crate) metrics: MachineMetrics,
    /// Batched same-timestamp drain: `pop_batch` fills this with every
    /// event due at one instant in one wheel touch; `batch_pos` is the
    /// read cursor. Events a handler schedules for the same instant land
    /// behind the batch in FIFO order, exactly as one-at-a-time popping
    /// would deliver them.
    batch: Vec<Event>,
    batch_pos: usize,
    /// Events delivered so far (drives the `check_every` cadence).
    delivered: u64,
    /// Completions not yet taken: [`Machine::advance`] returns them one
    /// at a time, and the closed-loop driver drains them after every event.
    completions: VecDeque<Completion>,
    /// The spec [`Machine::run_synthetic`] draws issue-time requests from.
    pub(crate) synthetic: Option<SyntheticSpec>,
    /// Structured trace destination, chosen once at construction.
    trace: TraceSink,
    /// Fault-injection decision engine (inert under the default plan).
    pub(crate) faults: FaultInjector,
    /// The configured coherence engine, chosen once at construction.
    pub(crate) engine: &'static Engine,
    /// Single-bus arena state: which node holds each line in Dragon's
    /// shared-modified (`Sm`) state. Empty under every other engine.
    pub(crate) arena_sm: LineMap<NodeId>,
    /// Which node holds each line exclusive-clean (`E`, [`LineMode::
    /// Reserved`]) under a single-bus engine; the registry does not track
    /// Reserved copies, and the arena engines need O(1) snoop decisions.
    pub(crate) arena_excl: LineMap<NodeId>,
}

impl Machine {
    /// Builds a machine from a validated configuration and an RNG seed.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(config: MachineConfig, seed: u64) -> Result<Self, MachineConfigError> {
        config.validate()?;
        let grid = config.topology().clone();
        let n = grid.side();
        let buses = (0..n)
            .map(multicube_topology::BusId::row)
            .chain((0..n).map(multicube_topology::BusId::column))
            .map(|id| Bus::with_arbitration(id, config.arbitration()))
            .collect();
        let controllers = grid
            .nodes()
            .map(|node| {
                Controller::new(
                    node,
                    grid.row_of(node),
                    grid.col_of(node),
                    config.snoop_cache(),
                    config.snarfing(),
                )
            })
            .collect();
        let mlts = (0..n)
            .map(|_| ModifiedLineTable::new(config.mlt_capacity()))
            .collect();
        let memories = (0..n).map(|_| MemoryBank::new()).collect();
        let faults = FaultInjector::new(
            *config.fault_plan(),
            config.retry_policy(),
            config.watchdog(),
            (n * n) as usize,
            seed,
        );
        Ok(Machine {
            n,
            events: EventQueue::new(),
            buses,
            controllers,
            mlts,
            memories,
            rng: DeterministicRng::seed(seed),
            txn_seq: 0,
            version_seq: 0,
            txns: Vec::new(),
            lines: LineMap::default(),
            owned_list: Vec::new(),
            metrics: MachineMetrics::default(),
            batch: Vec::new(),
            batch_pos: 0,
            delivered: 0,
            completions: VecDeque::new(),
            synthetic: None,
            trace: TraceSink::from_env(),
            faults,
            engine: Engine::of(config.engine()),
            arena_sm: LineMap::default(),
            arena_excl: LineMap::default(),
            config,
        })
    }

    /// Replaces the trace sink (see [`crate::trace`]). The environment is
    /// consulted only at construction; this overrides that choice.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The current trace sink.
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// The events buffered by a ring-buffer trace sink (empty otherwise).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.events()
    }

    /// Records an operation-shaped trace event if tracing is enabled.
    #[inline]
    fn trace_op(&mut self, point: TracePoint, slot: usize, op: &BusOp) {
        if self.trace.is_enabled() {
            let ev = TraceEvent {
                at: self.now(),
                point,
                bus: Some(self.buses[slot].id()),
                kind: Some(op.kind),
                line: op.line,
                originator: Some(op.originator),
                txn: Some(op.txn),
                piece: op.piece,
                data: op.data,
            };
            self.trace.record(ev);
        }
    }

    /// Records a decision-point trace event if tracing is enabled.
    #[inline]
    pub(crate) fn trace_point(
        &mut self,
        point: TracePoint,
        bus: Option<usize>,
        line: LineAddr,
        originator: Option<NodeId>,
        txn: Option<TxnId>,
    ) {
        if self.trace.is_enabled() {
            let ev = TraceEvent {
                at: self.now(),
                point,
                bus: bus.map(|slot| self.buses[slot].id()),
                kind: None,
                line,
                originator,
                txn,
                piece: None,
                data: None,
            };
            self.trace.record(ev);
        }
    }

    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Grid side `n`.
    pub fn side(&self) -> u32 {
        self.n
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &MachineMetrics {
        &self.metrics
    }

    /// Total (row, column) bus operations started so far.
    pub fn bus_op_totals(&self) -> (u64, u64) {
        let n = self.n as usize;
        let row = self.buses[..n].iter().map(|b| b.op_count()).sum();
        let col = self.buses[n..].iter().map(|b| b.op_count()).sum();
        (row, col)
    }

    /// The controller of `node` (inspection/testing).
    pub fn controller(&self, node: NodeId) -> &Controller {
        &self.controllers[node.as_usize()]
    }

    /// The modified line table of column `col`.
    pub fn mlt(&self, col: u32) -> &ModifiedLineTable {
        &self.mlts[col as usize]
    }

    /// The memory bank of column `col`.
    pub fn memory(&self, col: u32) -> &MemoryBank {
        &self.memories[col as usize]
    }

    /// The bus at `slot` (`0..n` are row buses, `n..2n` column buses).
    pub fn bus(&self, slot: usize) -> &crate::bus::Bus {
        &self.buses[slot]
    }

    /// The home column of `line`.
    pub fn home_column(&self, line: LineAddr) -> u32 {
        self.config.topology().home_column(line.index())
    }

    /// The latest committed write version of `line` (INITIAL if unwritten).
    pub fn committed_version(&self, line: LineAddr) -> LineVersion {
        self.lines
            .get(&line)
            .map(|e| e.committed)
            .unwrap_or(LineVersion::INITIAL)
    }

    /// Reads `line`'s synchronization word (the §4 designated word).
    pub fn sync_word(&self, line: LineAddr) -> u64 {
        self.lines.get(&line).map(|e| e.sync_word).unwrap_or(0)
    }

    /// Writes `line`'s synchronization word from `node`, which must hold
    /// the line modified (a local write to an owned line; no bus traffic).
    ///
    /// Returns whether the word was written. It is `false`, and nothing
    /// changes, when `node` does not hold the line modified; the caller
    /// must acquire ownership first (e.g. with a write request).
    pub fn write_sync_word(&mut self, node: NodeId, line: LineAddr, value: u64) -> bool {
        let holds = self.controllers[node.as_usize()].mode_of(&line) == Some(LineMode::Modified);
        if !holds {
            return false;
        }
        self.line_entry(line).sync_word = value;
        let v = self.next_version(line);
        if let Some(cl) = self.controllers[node.as_usize()].cache.peek_mut(&line) {
            cl.data = v;
        }
        true
    }

    /// Submits a request for `node`, which must be idle.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] if the node has an outstanding transaction.
    pub fn submit(&mut self, node: NodeId, request: Request) -> Result<TxnId, SubmitError> {
        if self.controllers[node.as_usize()].outstanding().is_some() {
            return Err(SubmitError::Busy);
        }
        Ok(self.start_request(node, request))
    }

    /// Schedules a request to be issued at absolute time `at` (must not be
    /// in the past). The node must be idle when the instant arrives.
    pub fn submit_at(&mut self, node: NodeId, request: Request, at: SimTime) {
        self.events.schedule(
            at,
            Event::Issue {
                node,
                request: Some(request),
            },
        );
    }

    /// The next event in delivery order: the current batch first, then one
    /// batched wheel drain of the earliest pending instant. `None` at
    /// quiescence.
    #[inline]
    pub(crate) fn next_event(&mut self) -> Option<Event> {
        if let Some(ev) = self.batch.get(self.batch_pos) {
            self.batch_pos += 1;
            return Some(*ev);
        }
        self.batch.clear();
        self.batch_pos = 1;
        self.events.pop_batch(&mut self.batch)?;
        Some(self.batch[0])
    }

    /// Whether any event is still pending (batched or in the wheel).
    #[inline]
    pub(crate) fn events_pending(&self) -> bool {
        self.batch_pos < self.batch.len() || !self.events.is_empty()
    }

    /// Processes events until a transaction completes, returning it;
    /// `None` when the machine goes quiescent first.
    pub fn advance(&mut self) -> Option<Completion> {
        loop {
            if let Some(done) = self.completions.pop_front() {
                return Some(done);
            }
            let ev = self.next_event()?;
            self.handle(ev);
        }
    }

    /// Runs until no events remain, collecting every completion in
    /// delivery order (any completions already buffered are drained
    /// first).
    pub fn run_to_quiescence(&mut self) -> Vec<Completion> {
        let mut out: Vec<Completion> = self.completions.drain(..).collect();
        while let Some(ev) = self.next_event() {
            self.handle(ev);
            out.extend(self.completions.drain(..));
        }
        out
    }

    /// Verifies the coherence invariants of the configured protocol
    /// engine; call at quiescence.
    ///
    /// # Errors
    ///
    /// The first violated invariant.
    pub fn check_coherence(&self) -> Result<(), CoherenceViolation> {
        (self.engine.check)(self)
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::BusComplete { slot } => self.on_bus_complete(slot),
            Event::Emit { slot, op } => self.enqueue_now(slot, op),
            Event::Issue { node, request } => self.on_issue(node, request),
            Event::LocalDone { node } => self.on_local_done(node),
            Event::EarlyComplete { node, txn, data } => {
                self.install_and_finish(node, txn, data, true, false)
            }
        }
        self.delivered += 1;
        let every = self.config.check_every();
        if every > 0 && self.delivered.is_multiple_of(every) {
            if let Err(v) = crate::check::check_midflight(self) {
                panic!(
                    "mid-flight coherence violation after {} events at t={}: {v}",
                    self.delivered,
                    self.now()
                );
            }
        }
    }

    fn on_bus_complete(&mut self, slot: usize) {
        let now = self.now();
        let (op, next_done) = self.buses[slot].complete(now);
        if let Some(done) = next_done {
            self.events.schedule(done, Event::BusComplete { slot });
            if let Some(started) = self.buses[slot].in_flight().copied() {
                self.op_started(slot, &started, now);
            }
        }
        // Split transfers: only the final piece triggers the procedure.
        if let Some(p) = op.piece {
            if !p.is_last() {
                if p.index == 0 {
                    self.maybe_piece_unblock(slot, &op);
                }
                let next = BusOp {
                    piece: Some(Piece {
                        index: p.index + 1,
                        of: p.of,
                    }),
                    ..op
                };
                self.note_op(&next);
                self.enqueue_now(slot, next);
                return;
            }
        }
        self.dispatch(slot, op);
    }

    fn dispatch(&mut self, slot: usize, op: BusOp) {
        self.trace_op(TracePoint::OpComplete, slot, &op);
        // Consume injected faults: a faulted copy occupied its bus like any
        // real operation, but its completion must not run the snoop actions.
        match op.fault {
            Some(OpFault::Lost) => {
                // Nobody heard the request; the originator retries (§3).
                self.trace_op(TracePoint::FaultLost, slot, &op);
                self.reissue_row_request(&op);
                return;
            }
            Some(OpFault::Duplicate) => {
                // The original is in flight too; re-acting on the copy could
                // purge live data, so the stutter is consumed silently.
                self.trace_op(TracePoint::FaultDuplicate, slot, &op);
                return;
            }
            None => {}
        }
        // Each dispatched operation is one chance for a controller blackout
        // window to open somewhere in the machine.
        if let Some(node) = self.faults.roll_blackout(self.now()) {
            self.metrics.blackouts.incr();
            let blacked = self.controllers[node].node();
            self.trace_point(
                TracePoint::FaultBlackout,
                Some(slot),
                op.line,
                Some(blacked),
                None,
            );
        }
        (self.engine.on_op)(self, slot, op);
    }

    /// The Appendix-A snoop procedures, one handler per formal operation
    /// signature (the Multicube engine's op routing).
    pub(crate) fn dispatch_multicube(&mut self, slot: usize, op: BusOp) {
        use OpKind::*;
        match op.kind {
            ReadRowRequest => self.on_read_row_request(slot, op),
            ReadColRequestRemove => self.on_read_col_request_remove(slot, op),
            ReadColRequestMemory => self.on_read_col_request_memory(slot, op),
            ReadColReplyUpdate => self.on_read_col_reply_update(slot, op),
            ReadColReplyUpdateMemory => self.on_read_col_reply_update_memory(slot, op),
            ReadColReplyNoPurge => self.on_read_col_reply_nopurge(slot, op),
            ReadRowReply => self.on_read_row_reply(slot, op),
            ReadRowReplyUpdate => self.on_read_row_reply_update(slot, op),
            ReadModRowRequest => self.on_readmod_row_request(slot, op),
            ReadModColRequestRemove => self.on_readmod_col_request_remove(slot, op),
            ReadModColRequestMemory => self.on_readmod_col_request_memory(slot, op),
            ReadModRowReply => self.on_readmod_row_reply(slot, op),
            ReadModColReplyPurge => self.on_readmod_col_reply_purge(slot, op),
            ReadModColReplyInsert => self.on_readmod_col_reply_insert(slot, op),
            ReadModRowReplyPurge => self.on_readmod_row_reply_purge(slot, op),
            ReadModRowPurge => self.on_readmod_row_purge(slot, op),
            ReadModColInsert => self.on_readmod_col_insert(slot, op),
            WritebackColRemove => self.on_writeback_col_remove(slot, op),
            WritebackRowUpdate => self.on_writeback_row_update(slot, op),
            WritebackColUpdateMemory => self.on_writeback_col_update_memory(slot, op),
            TasRowRequest => self.on_tas_row_request(slot, op),
            TasColRequest => self.on_tas_col_request(slot, op),
            TasColRequestMemory => self.on_tas_col_request_memory(slot, op),
            TasRowFail => self.on_tas_row_fail(slot, op),
            TasColFail => self.on_tas_col_fail(slot, op),
            BusRead | BusReadExclusive | BusUpgrade | BusWriteback | BusUpdate
            | BusWriteThrough => {
                unreachable!("arena op {} dispatched on the Multicube engine", op.kind)
            }
        }
    }

    // ------------------------------------------------------------------
    // Topology helpers
    // ------------------------------------------------------------------

    /// Slot of row bus `row`.
    pub(crate) fn row_slot(&self, row: u32) -> usize {
        row as usize
    }

    /// Slot of column bus `col`.
    pub(crate) fn col_slot(&self, col: u32) -> usize {
        (self.n + col) as usize
    }

    /// The row index a row slot refers to.
    pub(crate) fn slot_row(&self, slot: usize) -> u32 {
        debug_assert!(slot < self.n as usize);
        slot as u32
    }

    /// The column index a column slot refers to.
    pub(crate) fn slot_col(&self, slot: usize) -> u32 {
        debug_assert!(slot >= self.n as usize);
        slot as u32 - self.n
    }

    /// Node id at grid position.
    pub(crate) fn node_at(&self, row: u32, col: u32) -> NodeId {
        self.config.topology().node(row, col)
    }

    /// Node indices on row `row`, in column order. Pure arithmetic on `n`:
    /// the iterator borrows nothing, so handlers can mutate while walking.
    pub(crate) fn row_nodes(&self, row: u32) -> Range<usize> {
        let n = self.n as usize;
        row as usize * n..(row as usize + 1) * n
    }

    /// Node indices on column `col`, in row order.
    pub(crate) fn col_nodes(&self, col: u32) -> StepBy<Range<usize>> {
        let n = self.n as usize;
        (col as usize..n * n).step_by(n)
    }

    /// Node indices on bus `slot`, ascending.
    pub(crate) fn bus_nodes(&self, slot: usize) -> StepBy<Range<usize>> {
        if slot < self.n as usize {
            self.row_nodes(self.slot_row(slot)).step_by(1)
        } else {
            self.col_nodes(self.slot_col(slot))
        }
    }

    /// Whether node index `idx` sits on bus `slot`.
    pub(crate) fn on_bus(&self, slot: usize, idx: usize) -> bool {
        let n = self.n as usize;
        if slot < n {
            idx / n == slot
        } else {
            idx % n == slot - n
        }
    }

    /// The cache in column `col` holding `line` modified. Read from the
    /// owner registry, which is exact, instead of probing the column's `n`
    /// caches; the probe survives as a debug-build oracle.
    pub(crate) fn modified_holder_in(&self, col: u32, line: LineAddr) -> Option<usize> {
        let holder = self
            .registry_owner(line)
            .map(NodeId::as_usize)
            .filter(|&idx| idx % self.n as usize == col as usize);
        debug_assert_eq!(
            holder,
            self.col_nodes(col)
                .find(|&i| self.controllers[i].mode_of(&line) == Some(LineMode::Modified)),
            "owner registry diverged from column {col}'s caches for {line:?}"
        );
        holder
    }

    /// The row of the transaction originator.
    pub(crate) fn origin_row(&self, op: &BusOp) -> u32 {
        self.config.topology().row_of(op.originator)
    }

    /// The column of the transaction originator.
    pub(crate) fn origin_col(&self, op: &BusOp) -> u32 {
        self.config.topology().col_of(op.originator)
    }

    // ------------------------------------------------------------------
    // Registry maintenance (owner / sharer tracking)
    // ------------------------------------------------------------------

    /// The consolidated per-line entry, created on first touch.
    #[inline]
    pub(crate) fn line_entry(&mut self, line: LineAddr) -> &mut LineEntry {
        self.lines.entry(line).or_default()
    }

    pub(crate) fn registry_set_owner(&mut self, line: LineAddr, node: NodeId) {
        let pos = u32::try_from(self.owned_list.len()).expect("owned lines fit in u32");
        let e = self.lines.entry(line).or_default();
        if e.owner.replace(node).is_none() {
            e.owned_pos = pos;
            self.owned_list.push(line);
        }
    }

    pub(crate) fn registry_clear_owner(&mut self, line: LineAddr) {
        let Some(e) = self.lines.get_mut(&line) else {
            return;
        };
        if e.owner.take().is_none() {
            return;
        }
        let pos = e.owned_pos as usize;
        let last = self.owned_list.len() - 1;
        self.owned_list.swap(pos, last);
        self.owned_list.pop();
        if pos < self.owned_list.len() {
            let moved = self.owned_list[pos];
            self.lines
                .get_mut(&moved)
                .expect("owned line has a registry entry")
                .owned_pos = pos as u32;
        }
    }

    /// The cache currently recorded as holding `line` modified.
    pub(crate) fn registry_owner(&self, line: LineAddr) -> Option<NodeId> {
        self.lines.get(&line).and_then(|e| e.owner)
    }

    /// The column whose modified line table lists `line`, per the registry.
    pub(crate) fn registry_mlt_col(&self, line: LineAddr) -> Option<u32> {
        self.lines.get(&line).and_then(|e| e.mlt_col)
    }

    /// Every line the registry records in a column's table, with the column.
    pub(crate) fn registry_mlt_cols(&self) -> impl Iterator<Item = (LineAddr, u32)> + '_ {
        self.lines
            .iter()
            .filter_map(|(l, e)| e.mlt_col.map(|col| (*l, col)))
    }

    /// Records which column's table lists `line` (`None`: no table does).
    /// A line is listed in at most one column.
    pub(crate) fn set_registry_mlt_col(&mut self, line: LineAddr, col: Option<u32>) {
        let e = self.line_entry(line);
        debug_assert!(
            col.is_none() || e.mlt_col.is_none_or(|listed| Some(listed) == col),
            "{line:?} is listed in the MLTs of columns {:?} and {col:?}",
            e.mlt_col
        );
        e.mlt_col = col;
    }

    /// All registry entries (line, owner).
    pub(crate) fn registry_entries(&self) -> impl Iterator<Item = (LineAddr, NodeId)> + '_ {
        self.lines
            .iter()
            .filter_map(|(l, e)| e.owner.map(|n| (*l, n)))
    }

    /// All lines with at least one sharer, with their sharer lists.
    pub(crate) fn registry_sharers(&self) -> impl Iterator<Item = (LineAddr, &[NodeId])> + '_ {
        self.lines
            .iter()
            .filter(|(_, e)| !e.sharers.is_empty())
            .map(|(l, e)| (*l, e.sharers.as_slice()))
    }

    fn sharers_incr(&mut self, line: LineAddr, node: NodeId) {
        let sharers = &mut self.line_entry(line).sharers;
        match sharers.binary_search(&node) {
            Ok(_) => debug_assert!(false, "{node} is already a sharer of {line:?}"),
            Err(pos) => sharers.insert(pos, node),
        }
    }

    fn sharers_decr(&mut self, line: LineAddr, node: NodeId) {
        let listed = self.lines.get_mut(&line).and_then(|e| {
            let pos = e.sharers.binary_search(&node).ok()?;
            e.sharers.remove(pos);
            // Entries live for the whole run and most lines are shared only
            // for a while, so an emptied list gives its buffer back.
            if e.sharers.is_empty() {
                e.sharers = Vec::new();
            }
            Some(())
        });
        debug_assert!(listed.is_some(), "{node} is not a sharer of {line:?}");
    }

    /// The caches holding `line` shared, in ascending node order.
    pub(crate) fn sharers(&self, line: LineAddr) -> &[NodeId] {
        self.lines.get(&line).map_or(&[], |e| &e.sharers)
    }

    /// Number of caches holding `line` shared.
    pub(crate) fn sharer_count(&self, line: LineAddr) -> u32 {
        self.sharers(line).len() as u32
    }

    /// Invalidates the shared copies of `line` on bus `slot`, except
    /// `except`'s, counting each as an invalidation. The registry lists a
    /// line's sharers exactly, so only the listed caches on the bus are
    /// visited, in ascending node order, not all `n` members. Debug builds
    /// sweep every member to confirm that no shared copy is left.
    pub(crate) fn purge_sharers(&mut self, slot: usize, line: LineAddr, except: NodeId) {
        let mut from = NodeId::new(0);
        loop {
            let listed = self.sharers(line);
            let Some(node) = listed[listed.partition_point(|&s| s < from)..]
                .iter()
                .copied()
                .find(|&s| s != except && self.on_bus(slot, s.as_usize()))
            else {
                break;
            };
            let prior = self.clear_line(node.as_usize(), line);
            debug_assert_eq!(
                prior,
                Some(LineMode::Shared),
                "{node} is listed as a sharer of {line:?}"
            );
            self.metrics.invalidations.incr();
            from = NodeId::new(node.index() + 1);
        }
        debug_assert!(
            self.bus_nodes(slot).all(|i| i == except.as_usize()
                || self.controllers[i].mode_of(&line) != Some(LineMode::Shared)),
            "sharer list missed a shared copy of {line:?} on bus {slot}"
        );
    }

    /// Whether any node other than `except` has an outstanding transaction
    /// on `line` (a reply in flight could install a shared copy). Used by
    /// the broadcast sharing-filter ablation to stay conservative.
    ///
    /// Answered in O(1) from the line-keyed [`Self::inflight_interest`]
    /// index rather than scanning all `n^2` controllers.
    pub(crate) fn line_has_inflight_interest(&self, line: LineAddr, except: NodeId) -> bool {
        let interested = self.inflight_elsewhere(line, except);
        #[cfg(debug_assertions)]
        {
            let scanned = (0..self.controllers.len()).any(|idx| {
                self.controllers[idx].node() != except
                    && self.outstanding_info(idx).is_some_and(|o| o.line == line)
            });
            debug_assert_eq!(
                interested, scanned,
                "inflight-interest index diverged from controller scan for {line:?}"
            );
        }
        interested
    }

    /// The O(1) answer behind [`Self::line_has_inflight_interest`], without
    /// its debug-build scan of every controller.
    fn inflight_elsewhere(&self, line: LineAddr, except: NodeId) -> bool {
        let count = self.lines.get(&line).map(|e| e.inflight).unwrap_or(0);
        let except_holds = self
            .outstanding_info(except.as_usize())
            .is_some_and(|o| o.line == line);
        count > u32::from(except_holds)
    }

    // ------------------------------------------------------------------
    // Cache mutation helpers (keep the registries consistent)
    // ------------------------------------------------------------------

    /// Installs or updates a line in a node's cache with full registry
    /// bookkeeping. Panics if an eviction of a *modified* victim would be
    /// required (the protocol reserves space before requesting).
    pub(crate) fn set_line(
        &mut self,
        node_idx: usize,
        line: LineAddr,
        mode: LineMode,
        data: LineVersion,
    ) {
        let node = self.controllers[node_idx].node();
        let prior = self.controllers[node_idx].mode_of(&line);
        // Registry out-transitions for the prior mode.
        match prior {
            Some(LineMode::Shared) => self.sharers_decr(line, node),
            Some(LineMode::Modified) => self.registry_clear_owner(line),
            _ => {}
        }
        let evicted = self.controllers[node_idx]
            .cache
            .insert(line, crate::node::CacheLine { mode, data });
        if let Some(ev) = evicted {
            assert!(
                ev.meta.mode != LineMode::Modified,
                "protocol bug: unreserved eviction of a modified line {:?} at {node}",
                ev.line
            );
            if ev.meta.mode == LineMode::Shared {
                self.sharers_decr(ev.line, node);
            }
            self.controllers[node_idx].note_recent(ev.line);
        }
        self.controllers[node_idx].forget_recent(&line);
        match mode {
            LineMode::Shared => self.sharers_incr(line, node),
            LineMode::Modified => self.registry_set_owner(line, node),
            LineMode::Reserved => {}
        }
    }

    /// Removes a line from a node's cache (purge or eviction), updating
    /// registries and recording snarf recency.
    pub(crate) fn clear_line(&mut self, node_idx: usize, line: LineAddr) -> Option<LineMode> {
        let prior = self.controllers[node_idx].purge(&line)?;
        match prior.mode {
            LineMode::Shared => self.sharers_decr(line, self.controllers[node_idx].node()),
            LineMode::Modified => self.registry_clear_owner(line),
            LineMode::Reserved => {}
        }
        Some(prior.mode)
    }

    /// Downgrades a node's modified line to shared (it supplied the data).
    pub(crate) fn downgrade_to_shared(&mut self, node_idx: usize, line: LineAddr) {
        self.registry_clear_owner(line);
        if let Some(cl) = self.controllers[node_idx].cache.peek_mut(&line) {
            debug_assert_eq!(cl.mode, LineMode::Modified);
            cl.mode = LineMode::Shared;
        }
        self.sharers_incr(line, self.controllers[node_idx].node());
    }

    /// Mints the version for a new write to `line` and commits it.
    pub(crate) fn next_version(&mut self, line: LineAddr) -> LineVersion {
        self.version_seq += 1;
        let v = LineVersion::new(self.version_seq);
        self.line_entry(line).committed = v;
        v
    }

    /// Verifies that carried data matches the latest committed write.
    pub(crate) fn verify_carried(&self, op: &BusOp) {
        if !self.config.checking() || op.allocate {
            return;
        }
        // Under requested-word-first / pieces modes, the originator's write
        // may already have committed before the full block finishes its
        // final bus operation; the carried (pre-write) data is then
        // legitimately older than the committed version. Once the write has
        // finished it is absent here and the check below runs, which older
        // data passes: only `next_version` advances the committed version.
        if let Some(info) = self.txn_info(op.txn) {
            if info.installed && info.kind != crate::driver::RequestKind::Read {
                return;
            }
        }
        if let Some(data) = op.data {
            // Delivered data may legitimately be *older* than the latest
            // committed write while a purge is still in flight behind the
            // reply — the paper's machine "does not guarantee complete
            // serializability" (§4). It must never be newer than any
            // committed write, and the quiescent checker verifies that all
            // stale copies are gone once the purges land.
            let expect = self.committed_version(op.line);
            assert!(
                data.stamp() <= expect.stamp(),
                "data from the future delivered for {:?} by {} (carried {:?}, committed {:?})",
                op.line,
                op.kind.name(),
                data,
                expect
            );
        }
    }

    // ------------------------------------------------------------------
    // Emission and bus plumbing
    // ------------------------------------------------------------------

    /// Emits `op` on bus `slot` after `delay_ns` (access latency of the
    /// supplier; zero for forwards).
    pub(crate) fn emit(&mut self, slot: usize, mut op: BusOp, delay_ns: u64) {
        // Split data transfers into pieces if configured.
        if op.streams_data() && op.piece.is_none() {
            if let LatencyMode::Pieces { words } = self.config.latency_mode() {
                let words = words.clamp(1, self.config.block_words());
                let count = self.config.block_words().div_ceil(words);
                if count > 1 {
                    op.piece = Some(Piece {
                        index: 0,
                        of: count,
                    });
                }
            }
        }
        // Fault injection: request ops can be lost in transit. The stamped
        // copy still occupies its bus; the loss is consumed at dispatch.
        if op.fault.is_none() && op.kind.is_request() && self.faults.lose_op(op.txn) {
            op.fault = Some(OpFault::Lost);
            self.metrics.lost_ops.incr();
        }
        self.note_op(&op);
        if delay_ns == 0 {
            self.enqueue_now(slot, op);
        } else {
            self.events
                .schedule_after(delay_ns, Event::Emit { slot, op });
        }
    }

    fn enqueue_now(&mut self, slot: usize, op: BusOp) {
        // Revalidate cache-promised data at the end of the access latency:
        // if the supplying cache lost the line to a purge meanwhile, the
        // controller simply discards the reply; the valid bit in memory
        // lets the originator's retransmission recover (§3).
        if let Some(supplier) = op.supplier {
            let still_good = self.controllers[supplier.as_usize()].data_of(&op.line) == op.data;
            if !still_good {
                self.reissue_row_request(&op);
                return;
            }
        }
        let now = self.now();
        let dur = self.op_duration(&op);
        let duplicate =
            op.fault.is_none() && op.kind.is_request() && self.faults.duplicate_op(op.txn);
        if let Some(done) = self.buses[slot].enqueue(op, dur, now) {
            self.events.schedule(done, Event::BusComplete { slot });
            self.op_started(slot, &op, now);
        }
        if duplicate {
            // A spurious copy rides the bus right behind the original.
            self.metrics.duplicated_ops.incr();
            let mut dup = op;
            dup.fault = Some(OpFault::Duplicate);
            if let Some(done) = self.buses[slot].enqueue_duplicate(dup, dur, now) {
                self.events.schedule(done, Event::BusComplete { slot });
                self.op_started(slot, &dup, now);
            }
        }
    }

    /// Bus occupancy of an operation in nanoseconds.
    pub(crate) fn op_duration(&self, op: &BusOp) -> u64 {
        let t = self.config.timing();
        if let Some(p) = op.piece {
            let piece_words = match self.config.latency_mode() {
                LatencyMode::Pieces { words } => words.clamp(1, self.config.block_words()),
                _ => self.config.block_words(),
            };
            let sent = piece_words * p.index;
            let remaining = self.config.block_words().saturating_sub(sent);
            t.addr_op_ns + t.word_ns * remaining.min(piece_words) as u64
        } else if op.streams_data() {
            t.data_op_ns(self.config.block_words())
        } else {
            // The arena engines fold each whole coherence transaction into
            // one atomic bus op on an un-pipelined snooping bus, which is
            // held from the address phase through the supplier's access to
            // the data transfer: address + access + block for reads /
            // ownership fetches / write-backs, address + one word for a
            // Dragon update or a write-once write-through, address only
            // for a MESI upgrade. That bus hold during the access is
            // exactly the single-bus saturation the Multicube's split
            // row/column transactions avoid. Everything else is
            // address-only.
            match op.kind {
                OpKind::BusRead | OpKind::BusReadExclusive | OpKind::BusWriteback => {
                    t.memory_latency_ns + t.data_op_ns(self.config.block_words())
                }
                OpKind::BusUpdate | OpKind::BusWriteThrough => t.addr_op_ns + t.word_ns,
                _ => t.addr_op_ns,
            }
        }
    }

    /// Called whenever an operation starts occupying a bus: traces the
    /// start and handles the requested-word-first early unblock.
    fn op_started(&mut self, slot: usize, op: &BusOp, start: SimTime) {
        self.trace_op(TracePoint::OpStart, slot, op);
        if self.config.latency_mode() != LatencyMode::RequestedWordFirst {
            return;
        }
        if !op.streams_data() || !op.kind.completes_originator() {
            return;
        }
        if !self.originator_on_bus(slot, op) {
            return;
        }
        if self.txn_info(op.txn).is_none() {
            return;
        }
        let t = self.config.timing();
        let early = start + (t.addr_op_ns + t.word_ns);
        let node = op.originator;
        let txn = op.txn;
        let data = op.data;
        self.events
            .schedule(early, Event::EarlyComplete { node, txn, data });
    }

    /// Pieces-mode first-piece unblock: the requested word has arrived.
    fn maybe_piece_unblock(&mut self, slot: usize, op: &BusOp) {
        if !op.kind.completes_originator() || !self.originator_on_bus(slot, op) {
            return;
        }
        if self.txn_info(op.txn).is_some() {
            self.install_and_finish(op.originator, op.txn, op.data, true, false);
        }
    }

    fn originator_on_bus(&self, slot: usize, op: &BusOp) -> bool {
        match op.kind.class() {
            OpClass::Row => self.origin_row(op) == self.slot_row(slot),
            OpClass::Column => self.origin_col(op) == self.slot_col(slot),
        }
    }

    /// Attributes an emitted operation to its transaction.
    fn note_op(&mut self, op: &BusOp) {
        if let Some(info) = self.txn_info_mut(op.txn) {
            info.bus_ops += 1;
            match op.kind.class() {
                OpClass::Row => info.row_ops += 1,
                OpClass::Column => info.col_ops += 1,
            }
        }
    }

    /// Records a row-request retransmission for the transaction.
    pub(crate) fn note_retry(&mut self, txn: TxnId) {
        if let Some(info) = self.txn_info_mut(txn) {
            info.retries += 1;
            let (line, node) = (info.line, info.node);
            self.trace_point(TracePoint::Retry, None, line, Some(node), Some(txn));
        }
        self.watchdog_check(txn);
    }

    /// Livelock watchdog, consulted after every recorded retry: a
    /// transaction over its retry or age budget either aborts the run
    /// (fail-fast) or is *escalated* — the injector stops faulting it, so
    /// its next retry is guaranteed to make the ordinary §3 progress.
    fn watchdog_check(&mut self, txn: TxnId) {
        let Some(info) = self.txn_info(txn) else {
            return;
        };
        if self.faults.is_escalated(txn) {
            return;
        }
        let age_ns = self.now().saturating_since(info.start).as_nanos();
        let wd = *self.faults.watchdog();
        if !wd.tripped(info.retries, age_ns) {
            return;
        }
        let (line, node, retries) = (info.line, info.node, info.retries);
        match wd.action() {
            WatchdogAction::FailFast => panic!(
                "watchdog: {txn} at {node} on {line:?} exceeded its budget \
                 ({retries} retries, {age_ns} ns old)"
            ),
            WatchdogAction::Escalate => {
                self.metrics.watchdog_trips.incr();
                self.trace_point(TracePoint::WatchdogTrip, None, line, Some(node), Some(txn));
                self.faults.escalate(txn);
            }
        }
    }

    /// A transaction still escalated by the watchdog, if any. Escalations
    /// are cleared as transactions finish, so at quiescence this must be
    /// `None` — the checker reports leaks.
    pub(crate) fn escalated_txn(&self) -> Option<TxnId> {
        self.faults.first_escalated()
    }

    /// Records which agent served the transaction's data.
    pub(crate) fn note_served(&mut self, txn: TxnId, served: Served) {
        if let Some(info) = self.txn_info_mut(txn) {
            info.served = served;
        }
    }

    /// Marks as *poisoned* every node on the given bus whose outstanding
    /// READ targets `line`: a purge is sweeping past, so any read reply in
    /// flight for that line carries stale data. Real controllers snoop
    /// operations against their own outstanding request — the paper's one
    /// sanctioned exception to memorylessness ("The only exception is for
    /// outstanding processor requests issued locally").
    ///
    /// The in-flight index answers "does anyone else have a request on
    /// this line?" in O(1); only then are the bus members visited.
    pub(crate) fn poison_readers(
        &mut self,
        members: impl Iterator<Item = usize> + Clone,
        line: LineAddr,
        except: NodeId,
    ) {
        if !self.inflight_elsewhere(line, except) {
            debug_assert!(
                members.clone().all(|idx| idx == except.as_usize()
                    || self.outstanding_info(idx).is_none_or(|o| o.line != line)),
                "inflight index missed a request on {line:?}"
            );
            return;
        }
        for idx in members {
            let node = self.controllers[idx].node();
            if node == except {
                continue;
            }
            let Some(txn) = self.controllers[idx].outstanding() else {
                continue;
            };
            let Some(info) = self.txn_info_mut(txn) else {
                continue;
            };
            if info.line != line
                || info.kind != RequestKind::Read
                || info.phase != TxnPhase::Requested
                || info.installed
            {
                continue;
            }
            info.poisoned = true;
            self.trace_point(TracePoint::Poison, None, line, Some(node), Some(txn));
        }
    }

    // ------------------------------------------------------------------
    // Transaction bookkeeping
    // ------------------------------------------------------------------

    /// Mints a transaction for `node`'s request and makes it the node's
    /// outstanding one, in the local phase. The node must be idle.
    pub(crate) fn new_txn(&mut self, node: NodeId, req: Request) -> TxnId {
        let idx = node.as_usize();
        debug_assert!(
            self.controllers[idx].outstanding.is_none(),
            "node already has an outstanding transaction"
        );
        self.txn_seq += 1;
        let txn = TxnId(self.txn_seq);
        while self
            .txns
            .get(self.txn_slot(txn))
            .is_none_or(Option::is_some)
        {
            self.grow_txns();
        }
        let slot = self.txn_slot(txn);
        let info = TxnInfo {
            node,
            kind: req.kind,
            line: req.line,
            start: self.now(),
            phase: TxnPhase::Local,
            bus_ops: 0,
            row_ops: 0,
            col_ops: 0,
            retries: 0,
            backoff_ns: 0,
            served: Served::Local,
            installed: false,
            poisoned: false,
        };
        self.txns[slot] = Some((txn, info));
        self.line_entry(req.line).inflight += 1;
        self.controllers[idx].outstanding = Some(txn);
        txn
    }

    /// The ring slot `txn` maps to (out of range while the ring is empty).
    #[inline]
    fn txn_slot(&self, txn: TxnId) -> usize {
        txn.0 as usize & self.txns.len().wrapping_sub(1)
    }

    /// Doubles the transaction ring, re-seating every live entry. Live ids
    /// that differ modulo the old length differ modulo the new one too.
    fn grow_txns(&mut self) {
        let len = (self.txns.len() * 2).max(1);
        let old = std::mem::replace(&mut self.txns, vec![None; len]);
        for (txn, info) in old.into_iter().flatten() {
            let slot = self.txn_slot(txn);
            self.txns[slot] = Some((txn, info));
        }
    }

    /// Bookkeeping for `txn`; `None` unless it is live (minted by this
    /// machine and not yet finished).
    #[inline]
    pub(crate) fn txn_info(&self, txn: TxnId) -> Option<&TxnInfo> {
        match self.txns.get(self.txn_slot(txn))? {
            Some((id, info)) if *id == txn => Some(info),
            _ => None,
        }
    }

    /// Mutable access to `txn`'s bookkeeping while it is live.
    #[inline]
    pub(crate) fn txn_info_mut(&mut self, txn: TxnId) -> Option<&mut TxnInfo> {
        let slot = self.txn_slot(txn);
        match self.txns.get_mut(slot)? {
            Some((id, info)) if *id == txn => Some(info),
            _ => None,
        }
    }

    /// Moves the live `txn` to `phase`.
    pub(crate) fn set_phase(&mut self, txn: TxnId, phase: TxnPhase) {
        if let Some(info) = self.txn_info_mut(txn) {
            info.phase = phase;
        }
    }

    /// The record of node `idx`'s outstanding transaction, if any.
    pub(crate) fn outstanding_info(&self, idx: usize) -> Option<&TxnInfo> {
        self.txn_info(self.controllers[idx].outstanding()?)
    }

    /// Whether `txn` is still the node's outstanding transaction.
    pub(crate) fn txn_outstanding(&self, node: NodeId, txn: TxnId) -> bool {
        self.controllers[node.as_usize()].outstanding() == Some(txn)
    }

    /// Installs the reply data into the originator's cache (idempotent) and
    /// finishes the transaction. `success` is the TAS outcome for
    /// test-and-set transactions.
    ///
    /// `is_final` distinguishes the reply's authoritative delivery (the
    /// completion of its last bus operation) from early unblocks
    /// (requested-word-first, first piece). A *poisoned* read — one whose
    /// line was purged by a concurrent write while the reply was in
    /// flight — discards the stale data; the final delivery retransmits
    /// the row request ("treated exactly as if it were a new request").
    pub(crate) fn install_and_finish(
        &mut self,
        node: NodeId,
        txn: TxnId,
        data: Option<LineVersion>,
        success: bool,
        is_final: bool,
    ) {
        if !self.txn_outstanding(node, txn) {
            return;
        }
        // An outstanding transaction has not finished, so it is live.
        let info = self.txn_info(txn).expect("txn info").clone();
        if info.poisoned {
            if is_final {
                if let Some(i) = self.txn_info_mut(txn) {
                    i.poisoned = false;
                }
                self.note_retry(txn);
                self.issue_request(node, txn, self.engine.miss);
            }
            return;
        }
        let idx = node.as_usize();
        if !info.installed {
            match info.kind {
                RequestKind::Read => {
                    let v = data.unwrap_or(LineVersion::INITIAL);
                    self.set_line(idx, info.line, LineMode::Shared, v);
                }
                RequestKind::Write | RequestKind::Allocate => {
                    let v = self.next_version(info.line);
                    self.set_line(idx, info.line, LineMode::Modified, v);
                }
                RequestKind::TestAndSet => {
                    if success {
                        let v = self.next_version(info.line);
                        self.set_line(idx, info.line, LineMode::Modified, v);
                    }
                }
                RequestKind::Writeback => {}
            }
            if let Some(i) = self.txn_info_mut(txn) {
                i.installed = true;
            }
        }
        self.finish_txn(node, txn, success);
    }

    /// Marks the transaction complete: metrics, then a [`Completion`]
    /// record for [`Self::advance`] or the closed-loop driver. Its ring
    /// slot is freed, so from here on [`Self::txn_info`] reads it as
    /// absent.
    pub(crate) fn finish_txn(&mut self, node: NodeId, txn: TxnId, success: bool) {
        let now = self.now();
        let out = self.controllers[node.as_usize()].outstanding.take();
        debug_assert_eq!(out, Some(txn));

        let slot = self.txn_slot(txn);
        let info = match self.txns[slot].take() {
            Some((id, info)) if id == txn => info,
            _ => panic!("{txn} finished but is not live"),
        };
        match self.lines.get_mut(&info.line) {
            Some(e) if e.inflight > 0 => e.inflight -= 1,
            _ => debug_assert!(false, "missing inflight-interest entry"),
        }
        // saturating_since, matching the watchdog's age computation: a
        // transaction finishing at its own start instant (zero-latency
        // local path) must report age 0, never wrap.
        let latency = now.saturating_since(info.start);
        let (kind, line) = (info.kind, info.line);
        self.metrics.bucket(kind, info.served, success).record(
            latency.as_nanos(),
            info.bus_ops,
            info.row_ops,
            info.col_ops,
            info.retries,
            info.backoff_ns,
        );
        self.faults.finish(txn);
        self.completions.push_back(Completion {
            node,
            txn,
            kind,
            line,
            success,
            latency,
            at: now,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(n: u32) -> Machine {
        Machine::new(MachineConfig::grid(n).unwrap(), 1).unwrap()
    }

    #[test]
    fn slots_map_rows_then_columns() {
        let m = machine(4);
        assert_eq!(m.row_slot(2), 2);
        assert_eq!(m.col_slot(2), 6);
        assert_eq!(m.slot_row(2), 2);
        assert_eq!(m.slot_col(6), 2);
        assert!(m.buses[m.row_slot(3)].id().is_row());
        assert!(m.buses[m.col_slot(0)].id().is_column());
    }

    #[test]
    fn bus_members_agree_with_on_bus_and_the_grid() {
        for n in 2..=16u32 {
            let m = machine(n);
            let grid = m.config.topology();
            let (side, nodes) = (n as usize, (n * n) as usize);
            let mut row_cover = vec![0u32; nodes];
            let mut col_cover = vec![0u32; nodes];
            for slot in 0..2 * side {
                let members: Vec<usize> = m.bus_nodes(slot).collect();
                let on: Vec<usize> = (0..nodes).filter(|&idx| m.on_bus(slot, idx)).collect();
                assert_eq!(members.len(), side, "side {n} slot {slot}");
                assert_eq!(members, on, "side {n} slot {slot}");
                for idx in members {
                    let node = NodeId::new(idx as u32);
                    if slot < side {
                        row_cover[idx] += 1;
                        assert_eq!(grid.row_of(node), m.slot_row(slot), "side {n} {node}");
                    } else {
                        col_cover[idx] += 1;
                        assert_eq!(grid.col_of(node), m.slot_col(slot), "side {n} {node}");
                    }
                }
            }
            assert!(row_cover.iter().all(|&c| c == 1), "side {n}: rows");
            assert!(col_cover.iter().all(|&c| c == 1), "side {n}: columns");
            for r in 0..n {
                for c in 0..n {
                    let col = m.col_slot(c);
                    let meet: Vec<usize> = m
                        .bus_nodes(m.row_slot(r))
                        .filter(|&idx| m.on_bus(col, idx))
                        .collect();
                    let node = m.node_at(r, c);
                    assert_eq!(meet, [node.as_usize()], "side {n} row {r} col {c}");
                    assert_eq!((grid.row_of(node), grid.col_of(node)), (r, c));
                }
            }
        }
    }

    #[test]
    fn submit_rejects_busy_node() {
        let mut m = machine(2);
        let node = NodeId::new(0);
        m.submit(node, Request::read(LineAddr::new(1))).unwrap();
        assert_eq!(
            m.submit(node, Request::read(LineAddr::new(2))),
            Err(SubmitError::Busy)
        );
    }

    #[test]
    fn a_zero_capacity_mlt_is_a_config_error() {
        let config = MachineConfig::grid(2).unwrap().with_mlt_capacity(0);
        assert!(matches!(
            Machine::new(config, 1),
            Err(MachineConfigError::BadMltCapacity)
        ));
    }

    #[test]
    fn registry_owner_list_tracks_inserts_and_removals() {
        let mut m = machine(2);
        for i in 0..4 {
            m.registry_set_owner(LineAddr::new(i), NodeId::new(0));
        }
        assert_eq!(m.owned_list.len(), 4);
        m.registry_clear_owner(LineAddr::new(1));
        m.registry_clear_owner(LineAddr::new(3));
        assert_eq!(m.owned_list.len(), 2);
        assert!(m.owned_list.contains(&LineAddr::new(0)));
        assert!(m.owned_list.contains(&LineAddr::new(2)));
        // Clearing a non-owner is a no-op.
        m.registry_clear_owner(LineAddr::new(9));
        assert_eq!(m.owned_list.len(), 2);
    }

    #[test]
    fn op_duration_distinguishes_data_and_addr() {
        let m = machine(2);
        let addr_op = BusOp::new(
            OpKind::ReadRowRequest,
            LineAddr::new(0),
            NodeId::new(0),
            TxnId(1),
        );
        assert_eq!(m.op_duration(&addr_op), 50);
        let data_op = BusOp::new(
            OpKind::ReadRowReply,
            LineAddr::new(0),
            NodeId::new(0),
            TxnId(1),
        )
        .with_data(LineVersion::INITIAL);
        assert_eq!(m.op_duration(&data_op), 50 + 16 * 50);
        // An ALLOCATE acknowledge is short.
        let ack = data_op.with_allocate(true);
        assert_eq!(m.op_duration(&ack), 50);
    }

    #[test]
    fn zero_age_completion_reports_zero_latency() {
        // A write-back of a line the node does not hold completes locally
        // at its own start instant; the checked age computation must yield
        // exactly zero (not wrap, not panic).
        let mut m = machine(2);
        let node = NodeId::new(0);
        m.submit(node, Request::writeback(LineAddr::new(9)))
            .unwrap();
        let done = m.advance().expect("writeback completes");
        assert_eq!(done.kind, RequestKind::Writeback);
        assert_eq!(done.latency.as_nanos(), 0);
        assert_eq!(done.at, SimTime::ZERO);
    }

    #[test]
    fn controllers_remember_recent_lines_only_when_snarfing() {
        for snarfing in [false, true] {
            let config = MachineConfig::grid(4).unwrap().with_snarfing(snarfing);
            let mut m = Machine::new(config, 3).unwrap();
            let spec = crate::driver::SyntheticSpec::default().with_request_rate_per_ms(30.0);
            m.run_synthetic(&spec, 40);
            let remembered: usize = m.controllers.iter().map(|c| c.recent.len()).sum();
            if snarfing {
                assert!(remembered > 0, "a snarfing run remembers purged lines");
            } else {
                assert_eq!(remembered, 0, "nothing reads the list without snarfing");
            }
        }
    }

    #[test]
    fn a_synthetic_run_leaves_no_completions_to_advance() {
        let mut m = machine(2);
        let report = m.run_synthetic(&crate::driver::SyntheticSpec::default(), 5);
        assert_eq!(report.transactions_completed, 4 * 5);
        assert_eq!(m.advance(), None);
    }

    #[test]
    fn checker_reports_a_desynchronised_sharer_count() {
        let mut m = machine(2);
        let line = LineAddr::new(6);
        m.submit(NodeId::new(1), Request::read(line)).unwrap();
        m.advance().unwrap();
        assert_eq!(m.sharers(line), [NodeId::new(1)]);
        m.check_coherence().unwrap();
        crate::check::check_midflight(&m).unwrap();

        m.line_entry(line).sharers.clear();
        let expected = CoherenceViolation::SharerSetMismatch {
            line,
            registry: vec![],
            caches: vec![NodeId::new(1)],
        };
        assert_eq!(m.check_coherence(), Err(expected.clone()));
        assert_eq!(crate::check::check_midflight(&m), Err(expected));

        let three: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        m.line_entry(line).sharers = three.clone();
        assert_eq!(
            m.check_coherence(),
            Err(CoherenceViolation::SharerSetMismatch {
                line,
                registry: three,
                caches: vec![NodeId::new(1)],
            })
        );
    }

    #[test]
    fn checker_reports_a_wrong_sharer_of_the_right_count() {
        // A count-only check passes this registry: it lists one sharer, and
        // one cache holds the line shared, but it names the wrong cache.
        let mut m = machine(2);
        let line = LineAddr::new(6);
        m.submit(NodeId::new(1), Request::read(line)).unwrap();
        m.advance().unwrap();
        m.line_entry(line).sharers = vec![NodeId::new(2)];
        let expected = CoherenceViolation::SharerSetMismatch {
            line,
            registry: vec![NodeId::new(2)],
            caches: vec![NodeId::new(1)],
        };
        assert_eq!(m.check_coherence(), Err(expected.clone()));
        assert_eq!(crate::check::check_midflight(&m), Err(expected));
    }

    #[test]
    fn checker_reports_a_wrong_mlt_column() {
        let mut m = machine(2);
        let line = LineAddr::new(6);
        // Node 1 sits in column 1, whose table lists the line it writes
        // once the insertion behind the row delivery has crossed the bus.
        m.submit(NodeId::new(1), Request::write(line)).unwrap();
        m.run_to_quiescence();
        assert_eq!(m.registry_mlt_col(line), Some(1));
        m.check_coherence().unwrap();

        m.line_entry(line).mlt_col = Some(0);
        let expected = CoherenceViolation::MltColumnMismatch {
            line,
            registry: Some(0),
            tables: vec![1],
        };
        assert_eq!(m.check_coherence(), Err(expected.clone()));
        assert_eq!(crate::check::check_midflight(&m), Err(expected));

        // A column recorded for a line no table lists is caught too.
        m.line_entry(line).mlt_col = Some(1);
        let shared = LineAddr::new(7);
        m.submit(NodeId::new(0), Request::read(shared)).unwrap();
        m.run_to_quiescence();
        m.check_coherence().unwrap();
        m.line_entry(shared).mlt_col = Some(0);
        assert_eq!(
            m.check_coherence(),
            Err(CoherenceViolation::MltColumnMismatch {
                line: shared,
                registry: Some(0),
                tables: vec![],
            })
        );
    }

    #[test]
    fn the_transaction_ring_holds_only_live_transactions() {
        // Every node issues back to back, so four transactions are live at
        // once and their ids drift apart as they race for lines.
        let mut m = machine(2);
        let request = |i: u64| {
            if i.is_multiple_of(3) {
                Request::write(LineAddr::new(i % 5))
            } else {
                Request::read(LineAddr::new(i % 7))
            }
        };
        for node in 0..4 {
            m.submit(NodeId::new(node), request(u64::from(node)))
                .unwrap();
        }
        let mut max_live = 0;
        for i in 4..20_000 {
            let done = m.advance().expect("a transaction completes");
            assert!(
                m.txn_info(done.txn).is_none(),
                "a finished id reads as absent"
            );
            let txn = m.submit(done.node, request(i)).unwrap();
            assert!(m.txn_info(txn).is_some(), "a submitted transaction is live");
            max_live = max_live.max(m.txns.iter().flatten().count());
        }
        m.run_to_quiescence();
        assert_eq!(max_live, 4);
        assert!(
            m.txns.len() <= 64,
            "the ring grew to {} slots",
            m.txns.len()
        );
        assert!(m.txns.iter().all(Option::is_none));
        assert!(m.txn_info(TxnId(0)).is_none() && m.txn_info(TxnId(20_000)).is_none());
        m.check_coherence().unwrap();
    }

    #[test]
    fn sync_word_requires_ownership() {
        let mut m = machine(2);
        let node = NodeId::new(0);
        let line = LineAddr::new(5);
        assert!(!m.write_sync_word(node, line, 1));
        // Acquire the line modified first.
        m.submit(node, Request::write(line)).unwrap();
        m.advance().unwrap();
        assert!(m.write_sync_word(node, line, 7));
        assert_eq!(m.sync_word(line), 7);
    }
}
