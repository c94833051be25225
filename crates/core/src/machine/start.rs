//! The processor side of every transaction, shared by all four engines:
//! the start, the victim reservation, the local-access completion with
//! its restart, and the continuation after a flush.
//!
//! Appendix A gives the discipline ("Initiate a READ transaction with a
//! row bus request; first reserve space in the data cache (if necessary)
//! with a WRITEBACK transaction"), and the single-bus engines follow it
//! too ("a multi is a Multicube for which k = 1"). An engine supplies
//! only the bus operations this path issues, through the `miss`,
//! `upgrade` and `flush` entries of its record; what those operations do
//! when they complete is the engine's own snoop code.

use multicube_mem::LineAddr;
use multicube_topology::NodeId;

use crate::driver::{Request, RequestKind};
use crate::machine::{Event, Machine, TxnPhase};
use crate::metrics::Served;
use crate::node::LineMode;
use crate::proto::{BusOp, OpClass, OpKind, TxnId};

impl Machine {
    /// Issue-event handler: explicit request, or one generated from the
    /// synthetic workload spec.
    pub(crate) fn on_issue(&mut self, node: NodeId, request: Option<Request>) {
        let req = request.unwrap_or_else(|| self.synthetic_next_request(node));
        if self.controllers[node.as_usize()].outstanding().is_some() {
            // A scheduled issue raced with an unfinished transaction;
            // drop it (callers using submit_at must pace themselves).
            return;
        }
        self.start_request(node, req);
    }

    /// Starts a transaction for `node`, which must be idle: a local access,
    /// a WRITEBACK, an upgrade of a shared copy, or a miss.
    pub(crate) fn start_request(&mut self, node: NodeId, req: Request) -> TxnId {
        let txn = self.new_txn(node, req);
        let mode = self.controllers[node.as_usize()].mode_of(&req.line);
        match req.kind {
            RequestKind::Writeback if self.is_dirty(node, req.line, mode) => {
                self.set_phase(txn, TxnPhase::Requested);
                self.emit_flush(node, req.line, txn);
            }
            // Nothing dirty to write back: complete immediately.
            RequestKind::Writeback => self.events.schedule_after(0u64, Event::LocalDone { node }),
            _ if self.serves_locally(req.kind, mode) => {
                let snoop = self.config.timing().snoop_latency_ns;
                self.events.schedule_after(snoop, Event::LocalDone { node });
            }
            // A write or test-and-set to a shared copy: the line is
            // already resident, so no space is reserved.
            _ if mode == Some(LineMode::Shared) => {
                self.set_phase(txn, TxnPhase::Requested);
                self.issue_request(node, txn, self.engine.upgrade);
            }
            _ => self.begin_miss(node, txn, req.line),
        }
        txn
    }

    /// Whether a copy in `mode` serves `kind` without the bus: any
    /// readable copy serves a read, and only an exclusive one (modified,
    /// or an exclusive-clean reservation) a write or test-and-set.
    fn serves_locally(&self, kind: RequestKind, mode: Option<LineMode>) -> bool {
        match mode {
            Some(LineMode::Modified) => true,
            Some(LineMode::Reserved) => self.engine.reserved_is_exclusive,
            Some(LineMode::Shared) => kind == RequestKind::Read,
            None => false,
        }
    }

    /// Reserves space for `line`, then issues the miss request. A dirty
    /// victim is flushed first ("if (victim line is modified) then
    /// WRITEBACK (COLUMN, REMOVE); wait for continue"); a clean one is
    /// dropped silently.
    fn begin_miss(&mut self, node: NodeId, txn: TxnId, line: LineAddr) {
        let idx = node.as_usize();
        if !self.controllers[idx].cache.contains(&line) {
            if let Some((victim, mode)) = self.controllers[idx]
                .cache
                .victim_for(&line)
                .map(|(l, c)| (l, c.mode))
            {
                if self.is_dirty(node, victim, Some(mode)) {
                    self.metrics.victim_writebacks.incr();
                    self.set_phase(txn, TxnPhase::VictimWriteback { victim });
                    self.emit_flush(node, victim, txn);
                    return;
                }
                self.drop_clean(idx, victim);
            }
        }
        self.set_phase(txn, TxnPhase::Requested);
        self.issue_request(node, txn, self.engine.miss);
    }

    /// Emits the outstanding transaction's bus request, `op_for` its kind
    /// (the engine's miss or upgrade entry). Also the retransmission
    /// of a poisoned read.
    pub(crate) fn issue_request(
        &mut self,
        node: NodeId,
        txn: TxnId,
        op_for: fn(RequestKind) -> OpKind,
    ) {
        let Some(info) = self.txn_info(txn) else {
            return;
        };
        let (kind, line) = (info.kind, info.line);
        let op =
            BusOp::new(op_for(kind), line, node, txn).with_allocate(kind == RequestKind::Allocate);
        self.emit_own(op);
    }

    /// Emits the engine's flush of the dirty `line` for `txn`.
    fn emit_flush(&mut self, node: NodeId, line: LineAddr, txn: TxnId) {
        self.emit_own(BusOp::new(self.engine.flush, line, node, txn));
    }

    /// Emits the originator's own operation on its bus: bus 0 under a
    /// single-bus engine, else its row or column bus by the op's class.
    fn emit_own(&mut self, op: BusOp) {
        let c = &self.controllers[op.originator.as_usize()];
        let slot = match op.kind.class() {
            _ if self.engine.single_bus => 0,
            OpClass::Row => self.row_slot(c.row()),
            OpClass::Column => self.col_slot(c.col()),
        };
        self.emit(slot, op, 0);
    }

    /// Completion of a local (bus-free) cache access. Because up to 750 ns
    /// elapse between issue and this instant, the line may have been
    /// purged or downgraded by snooped traffic — in that case the access
    /// restarts as a bus transaction, exactly as a real controller would
    /// re-execute.
    pub(crate) fn on_local_done(&mut self, node: NodeId) {
        let idx = node.as_usize();
        let Some(txn) = self.controllers[idx].outstanding() else {
            return;
        };
        let Some(info) = self.txn_info(txn) else {
            return;
        };
        if info.phase != TxnPhase::Local {
            return;
        }
        let (kind, line) = (info.kind, info.line);
        let mode = self.controllers[idx].mode_of(&line);
        if kind == RequestKind::Writeback {
            // Nothing was dirty, or the line went clean (or away) since.
            self.finish_txn(node, txn, true);
        } else if self.serves_locally(kind, mode) {
            let success = match kind {
                RequestKind::Read => {
                    // Touch for LRU.
                    self.controllers[idx].cache.get(&line);
                    true
                }
                RequestKind::TestAndSet => {
                    let success = self.sync_word(line) == 0;
                    if success {
                        self.line_entry(line).sync_word = 1;
                        self.write_local(idx, line, mode);
                    }
                    success
                }
                _ => {
                    self.write_local(idx, line, mode);
                    true
                }
            };
            self.finish_txn(node, txn, success);
        } else {
            // The line was snooped away or downgraded while we waited.
            self.note_retry(txn);
            if mode == Some(LineMode::Shared) {
                self.set_phase(txn, TxnPhase::Requested);
                self.issue_request(node, txn, self.engine.upgrade);
            } else {
                self.begin_miss(node, txn, line);
            }
        }
    }

    /// Writes an exclusive copy in place. An exclusive-clean reservation
    /// upgrades silently to modified, and memory's copy goes stale.
    fn write_local(&mut self, idx: usize, line: LineAddr, mode: Option<LineMode>) {
        let v = self.next_version(line);
        if mode == Some(LineMode::Reserved) {
            self.set_line(idx, line, LineMode::Modified, v);
            self.arena_excl.remove(&line);
            let home = self.home_column(line) as usize;
            self.memories[home].mark_invalid(&line);
        } else if let Some(cl) = self.controllers[idx].cache.get_mut(&line) {
            cl.data = v;
        }
    }

    /// The `continue request` signal, once the engine has flushed
    /// `op.line`: evict the victim (now clean, or already taken by a
    /// racing request) and issue the blocked request, or complete a
    /// standalone WRITEBACK.
    pub(crate) fn flush_done(&mut self, op: &BusOp) {
        let node = op.originator;
        // A live transaction is its node's outstanding one.
        let Some(info) = self.txn_info(op.txn) else {
            return;
        };
        match (info.phase, info.kind) {
            (TxnPhase::VictimWriteback { victim }, _) => {
                self.drop_clean(node.as_usize(), victim);
                self.set_phase(op.txn, TxnPhase::Requested);
                self.issue_request(node, op.txn, self.engine.miss);
            }
            (TxnPhase::Requested, RequestKind::Writeback) => {
                self.note_served(op.txn, Served::Memory);
                self.finish_txn(node, op.txn, true);
            }
            _ => {}
        }
    }

    /// Whether `node`'s copy of `line` in `mode` is dirty: modified, or
    /// Dragon's shared-modified (a shared copy the node owns in
    /// `arena_sm`, which every other engine leaves empty).
    pub(crate) fn is_dirty(&self, node: NodeId, line: LineAddr, mode: Option<LineMode>) -> bool {
        match mode {
            Some(LineMode::Modified) => true,
            Some(LineMode::Shared) => {
                !self.arena_sm.is_empty() && self.arena_sm.get(&line) == Some(&node)
            }
            _ => false,
        }
    }

    /// Evicts a clean line, scrubbing the single-bus side tables; the
    /// Multicube leaves them empty and skips them.
    fn drop_clean(&mut self, idx: usize, line: LineAddr) {
        self.clear_line(idx, line);
        let node = self.controllers[idx].node();
        for table in [&mut self.arena_excl, &mut self.arena_sm] {
            if !table.is_empty() && table.get(&line) == Some(&node) {
                table.remove(&line);
            }
        }
    }
}
