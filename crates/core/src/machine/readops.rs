//! READ transaction procedures (Appendix A) plus the shared helpers for
//! modified-signal polling, MLT maintenance and snarfing.

use multicube_mem::LineAddr;

use crate::machine::{Machine, TxnPhase};
use crate::metrics::Served;
use crate::node::LineMode;
use crate::proto::{BusOp, OpClass, OpKind};
use crate::trace::TracePoint;

impl Machine {
    // ------------------------------------------------------------------
    // Shared helpers
    // ------------------------------------------------------------------

    /// Polls the row for the wired-OR *modified signal*: at most one node's
    /// column MLT contains the line; returns that column. Each row member
    /// answers from its own column's table, so this is the one place the
    /// machine *observes* the MLTs, and where the injected imperfections
    /// surface: blacked-out controllers stay silent, controllers with a
    /// pending delayed update answer from their stale view, and the §3 drop
    /// ("a controller can, on occasion, simply discard such requests
    /// without breaking the protocol") loses the whole signal.
    ///
    /// Without an active fault plan every member answers from its column's
    /// current table, so the signal names the one column listing the line,
    /// which the registry records: the poll is one lookup, and debug
    /// builds walk the row to confirm it.
    pub(crate) fn poll_modified_signal(
        &mut self,
        row: u32,
        line: &LineAddr,
        txn: crate::proto::TxnId,
    ) -> Option<u32> {
        let found = if self.faults.plan().is_active() {
            self.walk_modified_signal(row, line, txn)
        } else {
            let col = self.registry_mlt_col(*line);
            debug_assert_eq!(
                col,
                self.row_nodes(row)
                    .map(|idx| self.controllers[idx].col())
                    .find(|&c| self.mlts[c as usize].contains(line)),
                "registry's MLT column for {line:?} diverged from row {row}'s poll"
            );
            col
        };
        if found.is_some() && self.faults.drop_signal(txn) {
            self.metrics.dropped_signals.incr();
            let slot = self.row_slot(row);
            self.trace_point(TracePoint::SignalDrop, Some(slot), *line, None, None);
            return None;
        }
        found
    }

    /// The perturbed poll: asks each row member in turn, skipping
    /// blacked-out ones and letting a member with a stale view answer from
    /// it. Every member is asked, so each expired stale view is swept.
    fn walk_modified_signal(
        &mut self,
        row: u32,
        line: &LineAddr,
        txn: crate::proto::TxnId,
    ) -> Option<u32> {
        let now = self.now();
        let mut found = None;
        for idx in self.row_nodes(row) {
            if self.faults.in_blackout(idx, txn, now) {
                continue;
            }
            let col = self.controllers[idx].col();
            let present = match self.faults.stale_presence(txn, idx, line, now) {
                Some(stale) => stale,
                None => self.mlts[col as usize].contains(line),
            };
            if present && found.is_none() {
                found = Some(col);
            }
        }
        found
    }

    /// Whether the line's current holder sits in column `col` and is inside
    /// an injected blackout window: a silent holder cannot answer a REMOVE,
    /// so the request must bounce *before* the MLT entry is removed.
    pub(crate) fn holder_blacked_out(&mut self, col: u32, op: &BusOp) -> bool {
        let Some(owner) = self.registry_owner(op.line) else {
            return false;
        };
        let idx = owner.as_usize();
        self.controllers[idx].col() == col && self.faults.in_blackout(idx, op.txn, self.now())
    }

    /// Rolls the memory-bank transient NACK for one access; counted and
    /// traced here so all three `*_col_request_memory` handlers share it.
    pub(crate) fn nack_memory_access(&mut self, slot: usize, op: &BusOp) -> bool {
        if !self.faults.nack_memory(op.txn) {
            return false;
        }
        self.metrics.memory_nacks.incr();
        self.trace_point(
            TracePoint::FaultNack,
            Some(slot),
            op.line,
            Some(op.originator),
            Some(op.txn),
        );
        true
    }

    /// Removes the line from a column's MLT; returns whether the entry was
    /// present ("remove failed" drives race retries).
    pub(crate) fn mlt_remove(&mut self, col: u32, line: &LineAddr) -> bool {
        let removed = self.mlts[col as usize].remove(line);
        if removed {
            debug_assert_eq!(self.registry_mlt_col(*line), Some(col));
            self.set_registry_mlt_col(*line, None);
            let slot = self.col_slot(col);
            self.trace_point(TracePoint::MltRemove, Some(slot), *line, None, None);
            self.maybe_delay_view(col, *line, true);
        }
        removed
    }

    /// Rolls the MLT-delay fault after a successful table update: one
    /// randomly chosen controller in the column keeps serving its
    /// *pre-update* view of the line (`stale_present`) to modified-signal
    /// polls until the delay window closes. The column's table itself is
    /// current — only that controller's observation is stale.
    fn maybe_delay_view(&mut self, col: u32, line: LineAddr, stale_present: bool) {
        if !self.faults.roll_mlt_delay() {
            return;
        }
        let row = self.faults.pick(self.n as u64) as u32;
        let idx = (row * self.n + col) as usize;
        let (_, window_ns) = self.faults.plan().mlt_delay();
        let until = self.now() + window_ns;
        self.faults
            .record_stale_view(idx, line, stale_present, until);
        self.metrics.mlt_delays.incr();
        let slot = self.col_slot(col);
        let node = self.controllers[idx].node();
        self.trace_point(TracePoint::MltDelay, Some(slot), line, Some(node), None);
    }

    /// Inserts the line into a column's MLT, handling overflow: the
    /// overflow victim's holder writes it back and marks it shared (the
    /// Appendix-A `table overflow` path).
    pub(crate) fn mlt_insert(&mut self, col: u32, op: &BusOp) {
        use multicube_mem::MltInsert;
        let overflow = match self.mlts[col as usize].insert(op.line) {
            MltInsert::Overflow(v) => Some(v),
            MltInsert::Inserted => None,
        };
        if let Some(victim) = overflow {
            self.set_registry_mlt_col(victim, None);
        }
        self.set_registry_mlt_col(op.line, Some(col));
        let slot = self.col_slot(col);
        self.trace_point(
            TracePoint::MltInsert,
            Some(slot),
            op.line,
            Some(op.originator),
            Some(op.txn),
        );
        self.maybe_delay_view(col, op.line, false);
        let Some(victim) = overflow else { return };
        self.metrics.mlt_overflows.incr();
        let Some(h_idx) = self.modified_holder_in(col, victim) else {
            assert!(
                !self.config.checking(),
                "MLT overflow victim {victim:?} has no holder in column {col}"
            );
            return;
        };
        let data = self.controllers[h_idx]
            .data_of(&victim)
            .expect("holder has data");
        self.downgrade_to_shared(h_idx, victim);
        let h_row = self.controllers[h_idx].row();
        let h_col = self.controllers[h_idx].col();
        let h_node = self.controllers[h_idx].node();
        let snoop = self.config.timing().snoop_latency_ns;
        if h_col == self.home_column(victim) {
            let wb = BusOp::new(OpKind::WritebackColUpdateMemory, victim, h_node, op.txn)
                .with_data(data);
            let slot = self.col_slot(h_col);
            self.emit(slot, wb, snoop);
        } else {
            let wb = BusOp::new(OpKind::WritebackRowUpdate, victim, h_node, op.txn).with_data(data);
            let slot = self.row_slot(h_row);
            self.emit(slot, wb, snoop);
        }
    }

    /// Retransmits the originator's row-bus request after a lost race or a
    /// memory bounce ("the losing request is retransmitted on the row bus,
    /// where it is treated exactly as if it were a new request (but
    /// destined for the original requester)").
    pub(crate) fn reissue_row_request(&mut self, op: &BusOp) {
        // A lost-op reissue can race the transaction's own completion (a
        // duplicate or late path may have finished it): never retry a
        // transaction that is not live.
        if self.txn_info(op.txn).is_none() {
            return;
        }
        self.note_retry(op.txn);
        let Some((kind, retries)) = self.txn_info(op.txn).map(|i| (i.kind, i.retries)) else {
            return;
        };
        if kind == crate::driver::RequestKind::Writeback {
            return;
        }
        let op_kind = super::engine::multicube::row_request(kind);
        // Bounded exponential backoff: spaced retries keep a contended or
        // faulted line from saturating the row bus with bounces.
        let delay = self.faults.retry_delay_ns(retries);
        if delay > 0 {
            if let Some(info) = self.txn_info_mut(op.txn) {
                info.backoff_ns += delay;
            }
        }
        let row = self.origin_row(op);
        let retry = BusOp::new(op_kind, op.line, op.originator, op.txn).with_allocate(op.allocate);
        let slot = self.row_slot(row);
        self.emit(slot, retry, delay);
    }

    /// Offers a passing data operation to the snoopers on a bus for
    /// snarfing. Only called for operations whose line is in global state
    /// unmodified, per §3.
    ///
    /// Snarfing is restricted to **row-bus** deliveries: on the delivery
    /// row, bus FIFO order guarantees that any invalidation generated by a
    /// concurrent write is delivered *after* the data (the same ordering
    /// that protects the requester's own install), so a snarfed copy that
    /// is momentarily stale is purged right behind it. Column-bus data is
    /// not ordered against row-bus purges, so snarfing there could leave a
    /// permanently stale shared copy.
    pub(crate) fn snarf_on_bus(&mut self, slot: usize, op: &BusOp) {
        if !self.config.snarfing() || !op.streams_data() {
            return;
        }
        if op.kind.class() != OpClass::Row {
            return;
        }
        // A poisoned reply carries data that a purge has already swept
        // past; the requester will discard it, and so must snoopers.
        if let Some(info) = self.txn_info(op.txn) {
            if info.poisoned {
                return;
            }
        }
        let Some(data) = op.data else { return };
        // Multi-beat transfers (pieces mode) can have an invalidation
        // cross the bus *between* beats; a real snarfing controller
        // assembling the line sees the purge pass and aborts. Model that
        // abort by declining to snarf data that is no longer current.
        if data != self.committed_version(op.line) {
            return;
        }
        let now = self.now();
        for idx in self.row_nodes(self.slot_row(slot)) {
            let node = self.controllers[idx].node();
            if node == op.originator {
                continue;
            }
            // A blacked-out controller is not watching the bus: no snarf.
            if self.faults.in_blackout(idx, op.txn, now) {
                continue;
            }
            if !self.controllers[idx].recently_held(&op.line) {
                continue;
            }
            let requested = self
                .outstanding_info(idx)
                .filter(|o| o.phase == TxnPhase::Requested)
                .map(|o| o.line);
            if self.controllers[idx].can_snarf(&op.line, requested) {
                self.set_line(idx, op.line, LineMode::Shared, data);
                self.metrics.snarfs.incr();
            }
        }
    }

    // ------------------------------------------------------------------
    // READ procedures
    // ------------------------------------------------------------------

    /// `READ (ROW, REQUEST)`: route to the modified column if some node's
    /// MLT knows the line is modified there, else to the home column —
    /// which may answer from its own cache.
    pub(crate) fn on_read_row_request(&mut self, slot: usize, op: BusOp) {
        let row = self.slot_row(slot);
        if let Some(cm) = self.poll_modified_signal(row, &op.line, op.txn) {
            let fwd = BusOp::new(OpKind::ReadColRequestRemove, op.line, op.originator, op.txn);
            let slot = self.col_slot(cm);
            self.emit(slot, fwd, 0);
            return;
        }
        let home = self.home_column(op.line);
        let home_idx = self.node_at(row, home).as_usize();
        if self.controllers[home_idx].mode_of(&op.line) == Some(LineMode::Shared)
            && !self.faults.in_blackout(home_idx, op.txn, self.now())
        {
            // "if (line is shared) then READ (ROW, REPLY)"
            let data = self.controllers[home_idx]
                .data_of(&op.line)
                .expect("shared line has data");
            self.note_served(op.txn, Served::HomeCache);
            let home_node = self.controllers[home_idx].node();
            let reply = BusOp::new(OpKind::ReadRowReply, op.line, op.originator, op.txn)
                .with_data(data)
                .with_supplier(home_node);
            let snoop = self.config.timing().snoop_latency_ns;
            let slot = self.row_slot(row);
            self.emit(slot, reply, snoop);
        } else {
            let fwd = BusOp::new(OpKind::ReadColRequestMemory, op.line, op.originator, op.txn);
            let slot = self.col_slot(home);
            self.emit(slot, fwd, 0);
        }
    }

    /// `READ (COLUMN, REQUEST, REMOVE)`: the MLT removal arbitrates; the
    /// holder supplies the data and downgrades to shared.
    pub(crate) fn on_read_col_request_remove(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        // A blacked-out holder cannot volunteer its data. The gate sits
        // *before* the table removal: removing the MLT entry while the
        // holder stays silent would desynchronise table and caches.
        if self.holder_blacked_out(col, &op) {
            self.reissue_row_request(&op);
            return;
        }
        if !self.mlt_remove(col, &op.line) {
            // "if (remove failed) then if (row match) then READ (ROW, REQUEST)"
            self.reissue_row_request(&op);
            return;
        }
        let Some(d_idx) = self.modified_holder_in(col, op.line) else {
            // Defensive: table and caches diverged; retry as a lost race.
            self.reissue_row_request(&op);
            return;
        };
        let data = self.controllers[d_idx]
            .data_of(&op.line)
            .expect("modified line has data");
        self.downgrade_to_shared(d_idx, op.line);
        self.note_served(op.txn, Served::RemoteModified);
        let d_row = self.controllers[d_idx].row();
        let snoop = self.config.timing().snoop_latency_ns;
        let o_row = self.origin_row(&op);
        if col == self.home_column(op.line) {
            let reply = BusOp::new(
                OpKind::ReadColReplyUpdateMemory,
                op.line,
                op.originator,
                op.txn,
            )
            .with_data(data);
            let slot = self.col_slot(col);
            self.emit(slot, reply, snoop);
        } else if d_row == o_row {
            let reply = BusOp::new(OpKind::ReadRowReplyUpdate, op.line, op.originator, op.txn)
                .with_data(data);
            let slot = self.row_slot(d_row);
            self.emit(slot, reply, snoop);
        } else {
            let reply = BusOp::new(OpKind::ReadColReplyUpdate, op.line, op.originator, op.txn)
                .with_data(data);
            let slot = self.col_slot(col);
            self.emit(slot, reply, snoop);
        }
    }

    /// `READ (COLUMN, REQUEST, MEMORY)`: memory answers if its copy is
    /// valid, else bounces the request back as a REMOVE (the robustness
    /// path driven by the per-line valid bit).
    pub(crate) fn on_read_col_request_memory(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        debug_assert_eq!(col, self.home_column(op.line));
        let latency = self.config.timing().memory_latency_ns;
        // An injected transient NACK: the bank refuses this access. Reuse
        // the valid-bit bounce — the request re-enters the column as a
        // REMOVE exactly as if memory's copy were stale.
        let answer = if self.nack_memory_access(slot, &op) {
            None
        } else {
            self.memories[col as usize].read_valid(&op.line)
        };
        match answer {
            Some(data) => {
                self.note_served(op.txn, Served::Memory);
                let reply = BusOp::new(OpKind::ReadColReplyNoPurge, op.line, op.originator, op.txn)
                    .with_data(data);
                self.emit(slot, reply, latency);
            }
            None => {
                self.metrics.memory_bounces.incr();
                let bounce =
                    BusOp::new(OpKind::ReadColRequestRemove, op.line, op.originator, op.txn);
                self.emit(slot, bounce, latency);
            }
        }
    }

    /// `READ (COLUMN, REPLY, UPDATE)`: data leaves the modified column; the
    /// originator (if here) takes it and forwards a memory update along its
    /// row; otherwise the row-match controller forwards the data.
    pub(crate) fn on_read_col_reply_update(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        self.verify_carried(&op);
        let data = op.data.expect("reply carries data");
        if self.origin_col(&op) == col {
            // "READ (ROW, UPDATE)" == WRITEBACK (ROW, UPDATE). Emitted
            // before completing so the operation is attributed to this
            // transaction's cost.
            let upd = BusOp::new(OpKind::WritebackRowUpdate, op.line, op.originator, op.txn)
                .with_data(data);
            let o_row = self.origin_row(&op);
            let slot = self.row_slot(o_row);
            self.emit(slot, upd, 0);
            self.install_and_finish(op.originator, op.txn, op.data, true, true);
        } else {
            let fwd = BusOp::new(OpKind::ReadRowReplyUpdate, op.line, op.originator, op.txn)
                .with_data(data);
            let o_row = self.origin_row(&op);
            let slot = self.row_slot(o_row);
            self.emit(slot, fwd, 0);
        }
        self.snarf_on_bus(slot, &op);
    }

    /// `READ (COLUMN, REPLY, UPDATE, MEMORY)`: data on the home column;
    /// memory updates as a side effect of the same bus operation.
    pub(crate) fn on_read_col_reply_update_memory(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        self.verify_carried(&op);
        let data = op.data.expect("reply carries data");
        // "* write memory line and mark line valid"
        self.memories[col as usize].write(op.line, data);
        if self.origin_col(&op) == col {
            self.install_and_finish(op.originator, op.txn, op.data, true, true);
        } else {
            let fwd =
                BusOp::new(OpKind::ReadRowReply, op.line, op.originator, op.txn).with_data(data);
            let o_row = self.origin_row(&op);
            let slot = self.row_slot(o_row);
            self.emit(slot, fwd, 0);
        }
        self.snarf_on_bus(slot, &op);
    }

    /// `READ (COLUMN, REPLY, NOPURGE)`: memory's reply travels up the home
    /// column; the row-match controller relays it to the originator's row.
    pub(crate) fn on_read_col_reply_nopurge(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        self.verify_carried(&op);
        let data = op.data.expect("reply carries data");
        if self.origin_col(&op) == col {
            self.install_and_finish(op.originator, op.txn, op.data, true, true);
        } else {
            let fwd =
                BusOp::new(OpKind::ReadRowReply, op.line, op.originator, op.txn).with_data(data);
            let o_row = self.origin_row(&op);
            let slot = self.row_slot(o_row);
            self.emit(slot, fwd, 0);
        }
        self.snarf_on_bus(slot, &op);
    }

    /// `READ (ROW, REPLY)`: final delivery on the originator's row.
    pub(crate) fn on_read_row_reply(&mut self, slot: usize, op: BusOp) {
        debug_assert_eq!(self.slot_row(slot), self.origin_row(&op));
        self.verify_carried(&op);
        self.install_and_finish(op.originator, op.txn, op.data, true, true);
        self.snarf_on_bus(slot, &op);
    }

    /// `READ (ROW, REPLY, UPDATE)`: final delivery on the originator's row;
    /// the home-column controller additionally forwards the memory update.
    pub(crate) fn on_read_row_reply_update(&mut self, slot: usize, op: BusOp) {
        debug_assert_eq!(self.slot_row(slot), self.origin_row(&op));
        self.verify_carried(&op);
        let data = op.data.expect("reply carries data");
        // "if (on home column) then READ (COLUMN, UPDATE, MEMORY)" —
        // emitted before completing for correct cost attribution.
        let home = self.home_column(op.line);
        let home_node = self.node_at(self.slot_row(slot), home);
        let upd = BusOp::new(OpKind::WritebackColUpdateMemory, op.line, home_node, op.txn)
            .with_data(data);
        let dst = self.col_slot(home);
        self.emit(dst, upd, 0);
        self.install_and_finish(op.originator, op.txn, op.data, true, true);
        self.snarf_on_bus(slot, &op);
    }
}
