//! READ-MOD (and ALLOCATE) transaction procedures (Appendix A).
//!
//! ALLOCATE is "identical to the READ-MOD request, except that an
//! acknowledge, rather than data, is returned": the same procedures run
//! with the `allocate` flag set on every operation, which makes replies
//! address-length on the bus.

use crate::machine::Machine;
use crate::metrics::Served;
use crate::proto::{BusOp, OpKind};

impl Machine {
    /// `READMOD (ROW, REQUEST)`: route to the modified column or to memory
    /// on the home column (a write miss always consults the home column —
    /// copies anywhere must be purged).
    pub(crate) fn on_readmod_row_request(&mut self, slot: usize, op: BusOp) {
        let row = self.slot_row(slot);
        if let Some(cm) = self.poll_modified_signal(row, &op.line, op.txn) {
            let fwd = BusOp::new(
                OpKind::ReadModColRequestRemove,
                op.line,
                op.originator,
                op.txn,
            )
            .with_allocate(op.allocate);
            let slot = self.col_slot(cm);
            self.emit(slot, fwd, 0);
        } else {
            let home = self.home_column(op.line);
            let fwd = BusOp::new(
                OpKind::ReadModColRequestMemory,
                op.line,
                op.originator,
                op.txn,
            )
            .with_allocate(op.allocate);
            let slot = self.col_slot(home);
            self.emit(slot, fwd, 0);
        }
    }

    /// `READMOD (COLUMN, REQUEST, REMOVE)`: the holder invalidates its copy
    /// and ships ownership toward the originator.
    pub(crate) fn on_readmod_col_request_remove(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        // Same pre-removal gate as the READ flavour: a blacked-out holder
        // cannot answer, so bounce before the MLT entry comes out.
        if self.holder_blacked_out(col, &op) {
            self.reissue_row_request(&op);
            return;
        }
        if !self.mlt_remove(col, &op.line) {
            self.reissue_row_request(&op);
            return;
        }
        let Some(d_idx) = self.modified_holder_in(col, op.line) else {
            self.reissue_row_request(&op);
            return;
        };
        let data = self.controllers[d_idx]
            .data_of(&op.line)
            .expect("modified line has data");
        // "mark line invalid" — ownership leaves D entirely.
        self.clear_line(d_idx, op.line);
        self.note_served(op.txn, Served::RemoteModified);
        let d_row = self.controllers[d_idx].row();
        let snoop = self.config.timing().snoop_latency_ns;
        let o_col = self.origin_col(&op);
        if col == o_col {
            // "if (column match) then READMOD (COLUMN, REPLY, INSERT)".
            let reply = BusOp::new(
                OpKind::ReadModColReplyInsert,
                op.line,
                op.originator,
                op.txn,
            )
            .with_data(data)
            .with_allocate(op.allocate);
            let slot = self.col_slot(col);
            self.emit(slot, reply, snoop);
        } else {
            let reply = BusOp::new(OpKind::ReadModRowReply, op.line, op.originator, op.txn)
                .with_data(data)
                .with_allocate(op.allocate);
            let slot = self.row_slot(d_row);
            self.emit(slot, reply, snoop);
        }
    }

    /// `READMOD (COLUMN, REQUEST, MEMORY)`: memory supplies the line and
    /// starts the purge broadcast, or bounces an invalid request.
    pub(crate) fn on_readmod_col_request_memory(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        debug_assert_eq!(col, self.home_column(op.line));
        let latency = self.config.timing().memory_latency_ns;
        // An injected transient NACK bounces off the same path as an
        // invalid memory copy.
        let answer = if self.nack_memory_access(slot, &op) {
            None
        } else {
            self.memories[col as usize].read_valid(&op.line)
        };
        match answer {
            Some(data) => {
                // "* READMOD (COLUMN, REPLY, PURGE); * mark line invalid".
                self.memories[col as usize].mark_invalid(&op.line);
                self.note_served(op.txn, Served::Memory);
                let reply =
                    BusOp::new(OpKind::ReadModColReplyPurge, op.line, op.originator, op.txn)
                        .with_data(data)
                        .with_allocate(op.allocate);
                self.emit(slot, reply, latency);
            }
            None => {
                self.metrics.memory_bounces.incr();
                let bounce = BusOp::new(
                    OpKind::ReadModColRequestRemove,
                    op.line,
                    op.originator,
                    op.txn,
                )
                .with_allocate(op.allocate);
                self.emit(slot, bounce, latency);
            }
        }
    }

    /// `READMOD (ROW, REPLY)`: ownership transits the holder's row; the
    /// originator takes it directly if it lives here, otherwise the
    /// column-match controller relays it up the originator's column.
    pub(crate) fn on_readmod_row_reply(&mut self, slot: usize, op: BusOp) {
        let row = self.slot_row(slot);
        self.verify_carried(&op);
        let data = op.data.expect("reply carries data");
        let o_col = self.origin_col(&op);
        if self.origin_row(&op) == row {
            // id match: post the MLT insert up our column, then install.
            let ins = BusOp::new(OpKind::ReadModColInsert, op.line, op.originator, op.txn)
                .with_allocate(op.allocate);
            let slot = self.col_slot(o_col);
            self.emit(slot, ins, 0);
            self.install_and_finish(op.originator, op.txn, op.data, true, true);
        } else {
            let fwd = BusOp::new(
                OpKind::ReadModColReplyInsert,
                op.line,
                op.originator,
                op.txn,
            )
            .with_data(data)
            .with_allocate(op.allocate);
            let slot = self.col_slot(o_col);
            self.emit(slot, fwd, 0);
        }
    }

    /// `READMOD (COLUMN, REPLY, PURGE)`: the broadcast pivot. Every
    /// controller on the home column purges its copy and relays a purge
    /// along its own row; the controller on the originator's row carries
    /// the data with it. The originator (if it lives on the home column)
    /// installs directly. Only the registry's sharers and owner in the
    /// column hold a copy, so only they are purged; the relays still go
    /// out on all `n` rows.
    pub(crate) fn on_readmod_col_reply_purge(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        self.verify_carried(&op);
        let data = op.data.expect("reply carries data");
        let o_row = self.origin_row(&op);
        let o_col = self.origin_col(&op);
        // Idealized sharing filter (ablation): skip the pure-purge fan-out
        // when no cache holds a shared copy anywhere. The data-carrying
        // reply toward the originator is always sent.
        let fanout_needed = !self.config.broadcast_filter()
            || self.sharer_count(op.line) > 0
            || self.line_has_inflight_interest(op.line, op.originator);
        let members = self.col_nodes(col);
        self.poison_readers(members.clone(), op.line, op.originator);
        // Purging before the relays and the delivery is safe: it touches
        // only other nodes' copies of this line, and neither schedules nor
        // traces.
        self.purge_sharers(slot, op.line, op.originator);
        if let Some(holder) = self
            .modified_holder_in(col, op.line)
            .filter(|&h| h != op.originator.as_usize())
        {
            self.clear_line(holder, op.line);
        }
        debug_assert!(
            members.clone().all(|i| i == op.originator.as_usize()
                || self.controllers[i].mode_of(&op.line).is_none()),
            "a copy of {:?} survived the column purge",
            op.line
        );
        for idx in members {
            let node = self.controllers[idx].node();
            let r = self.controllers[idx].row();
            if node == op.originator {
                let ins = BusOp::new(OpKind::ReadModColInsert, op.line, op.originator, op.txn)
                    .with_allocate(op.allocate);
                let dst = self.col_slot(o_col);
                self.emit(dst, ins, 0);
                if fanout_needed {
                    let purge = BusOp::new(OpKind::ReadModRowPurge, op.line, op.originator, op.txn)
                        .with_allocate(op.allocate);
                    let dst = self.row_slot(o_row);
                    self.emit(dst, purge, 0);
                }
                self.install_and_finish(op.originator, op.txn, op.data, true, true);
            } else if r == o_row {
                let fwd = BusOp::new(OpKind::ReadModRowReplyPurge, op.line, op.originator, op.txn)
                    .with_data(data)
                    .with_allocate(op.allocate);
                let dst = self.row_slot(r);
                self.emit(dst, fwd, 0);
            } else if fanout_needed {
                let purge = BusOp::new(OpKind::ReadModRowPurge, op.line, op.originator, op.txn)
                    .with_allocate(op.allocate);
                let dst = self.row_slot(r);
                self.emit(dst, purge, 0);
            }
        }
    }

    /// `READMOD (ROW, REPLY, PURGE)`: deliver to the originator and purge
    /// shared copies on its row (the home-column cache is already purged).
    pub(crate) fn on_readmod_row_reply_purge(&mut self, slot: usize, op: BusOp) {
        let row = self.slot_row(slot);
        debug_assert_eq!(row, self.origin_row(&op));
        self.verify_carried(&op);
        let o_col = self.origin_col(&op);
        self.poison_readers(self.row_nodes(row), op.line, op.originator);
        // Purging before the delivery is safe: it touches only other
        // nodes' copies of this line, and neither schedules nor traces.
        // The formal protocol exempts home-column caches ("the home column
        // data cache has already been purged"), but with snarfing a
        // home-column node can re-acquire a stale copy *between* the
        // column purge and this row purge — so they are purged too.
        self.purge_sharers(slot, op.line, op.originator);
        let ins = BusOp::new(OpKind::ReadModColInsert, op.line, op.originator, op.txn)
            .with_allocate(op.allocate);
        let dst = self.col_slot(o_col);
        self.emit(dst, ins, 0);
        self.install_and_finish(op.originator, op.txn, op.data, true, true);
    }

    /// `READMOD (ROW, PURGE)`: invalidate shared copies along one row.
    /// Home-column caches are purged again deliberately (see
    /// `on_readmod_row_reply_purge`): a snarfed copy may have appeared
    /// after the column purge.
    pub(crate) fn on_readmod_row_purge(&mut self, slot: usize, op: BusOp) {
        let row = self.slot_row(slot);
        self.poison_readers(self.row_nodes(row), op.line, op.originator);
        self.purge_sharers(slot, op.line, op.originator);
    }

    /// `READMOD (COLUMN, REPLY, INSERT)`: final delivery up the
    /// originator's column; every controller there inserts an MLT entry.
    pub(crate) fn on_readmod_col_reply_insert(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        debug_assert_eq!(col, self.origin_col(&op));
        self.verify_carried(&op);
        self.install_and_finish(op.originator, op.txn, op.data, true, true);
        self.mlt_insert(col, &op);
    }

    /// `READMOD (COLUMN, INSERT)`: MLT insertion broadcast after the data
    /// was delivered on a row bus.
    pub(crate) fn on_readmod_col_insert(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        self.mlt_insert(col, &op);
    }
}
