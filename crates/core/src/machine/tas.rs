//! The §4 remote test-and-set transaction.
//!
//! "The primitive is a remote test-and-set operation, which is executed
//! wherever the modified line resides, or in memory if unmodified. ... On
//! success, the line addressed by the test-and-set is moved to the cache of
//! the successful processor. On failure, only the notification of failure
//! is returned — the line remains in the remote cache."
//!
//! The column-bus test operation is modelled as atomic test-with-response:
//! the executing agent (owning cache or memory) signals the outcome on the
//! bus within the operation, the way the modified signal works, so all MLT
//! replicas can react identically. On success the transfer reuses the
//! READ-MOD reply machinery; on failure a short notification is routed back
//! to the originator.

use crate::machine::Machine;
use crate::metrics::Served;
use crate::proto::{BusOp, OpKind};

impl Machine {
    /// `TAS (ROW, REQUEST)`: routed exactly like a READ-MOD row request.
    pub(crate) fn on_tas_row_request(&mut self, slot: usize, op: BusOp) {
        let row = self.slot_row(slot);
        if let Some(cm) = self.poll_modified_signal(row, &op.line, op.txn) {
            let fwd = BusOp::new(OpKind::TasColRequest, op.line, op.originator, op.txn);
            let slot = self.col_slot(cm);
            self.emit(slot, fwd, 0);
        } else {
            let home = self.home_column(op.line);
            let fwd = BusOp::new(OpKind::TasColRequestMemory, op.line, op.originator, op.txn);
            let slot = self.col_slot(home);
            self.emit(slot, fwd, 0);
        }
    }

    /// `TAS (COLUMN, REQUEST)`: executed at the cache holding the line
    /// modified. Success removes the MLT entries and ships the line with
    /// the READ-MOD reply machinery; failure sends a short notification.
    pub(crate) fn on_tas_col_request(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        let Some(d_idx) = self.modified_holder_in(col, op.line) else {
            // Stale routing (the line moved or was written back): retry.
            self.reissue_row_request(&op);
            return;
        };
        // A blacked-out holder cannot execute the remote test-and-set;
        // bounce before any state (sync word, MLT) changes.
        if self.faults.in_blackout(d_idx, op.txn, self.now()) {
            self.reissue_row_request(&op);
            return;
        }
        let snoop = self.config.timing().snoop_latency_ns;
        self.note_served(op.txn, Served::RemoteModified);
        let word = self.sync_word(op.line);
        if word == 0 {
            // The table entry may still be in flight (the new owner's
            // `READMOD (COLUMN, INSERT)` has not landed yet). The remove
            // arbitrates exactly as in READ-MOD: a failed remove means the
            // request retries from the row bus — and crucially the word is
            // only set once the transfer is assured.
            if !self.mlt_remove(col, &op.line) {
                self.reissue_row_request(&op);
                return;
            }
            // Success: atomically set the word and transfer ownership
            // toward the originator.
            self.line_entry(op.line).sync_word = 1;
            let data = self.controllers[d_idx]
                .data_of(&op.line)
                .expect("modified line has data");
            self.clear_line(d_idx, op.line);
            let d_row = self.controllers[d_idx].row();
            let o_col = self.origin_col(&op);
            if col == o_col {
                let reply = BusOp::new(
                    OpKind::ReadModColReplyInsert,
                    op.line,
                    op.originator,
                    op.txn,
                )
                .with_data(data);
                let dst = self.col_slot(col);
                self.emit(dst, reply, snoop);
            } else {
                let reply = BusOp::new(OpKind::ReadModRowReply, op.line, op.originator, op.txn)
                    .with_data(data);
                let dst = self.row_slot(d_row);
                self.emit(dst, reply, snoop);
            }
        } else {
            // Failure: "only the notification of failure is returned".
            let d_row = self.controllers[d_idx].row();
            let fail = BusOp::new(OpKind::TasRowFail, op.line, op.originator, op.txn);
            let dst = self.row_slot(d_row);
            self.emit(dst, fail, snoop);
        }
    }

    /// `TAS (COLUMN, REQUEST, MEMORY)`: executed at memory when the line is
    /// globally unmodified; bounces off the invalid bit like a READ-MOD.
    pub(crate) fn on_tas_col_request_memory(&mut self, slot: usize, op: BusOp) {
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
                self.note_served(op.txn, Served::Memory);
                let word = self.sync_word(op.line);
                if word == 0 {
                    // Success: the line moves to the requester modified;
                    // shared copies are purged by the READ-MOD broadcast.
                    self.line_entry(op.line).sync_word = 1;
                    self.memories[col as usize].mark_invalid(&op.line);
                    let reply =
                        BusOp::new(OpKind::ReadModColReplyPurge, op.line, op.originator, op.txn)
                            .with_data(data);
                    self.emit(slot, reply, latency);
                } else {
                    let fail = BusOp::new(OpKind::TasColFail, op.line, op.originator, op.txn);
                    self.emit(slot, fail, latency);
                }
            }
            None => {
                self.metrics.memory_bounces.incr();
                let bounce = BusOp::new(OpKind::TasColRequest, op.line, op.originator, op.txn);
                self.emit(slot, bounce, latency);
            }
        }
    }

    /// `TAS (ROW, FAIL)`: failure notification crossing a row; the
    /// column-match controller relays it to the originator's column.
    pub(crate) fn on_tas_row_fail(&mut self, slot: usize, op: BusOp) {
        let row = self.slot_row(slot);
        if self.origin_row(&op) == row {
            self.install_and_finish(op.originator, op.txn, None, false, true);
        } else {
            let o_col = self.origin_col(&op);
            let fwd = BusOp::new(OpKind::TasColFail, op.line, op.originator, op.txn);
            let dst = self.col_slot(o_col);
            self.emit(dst, fwd, 0);
        }
    }

    /// `TAS (COLUMN, FAIL)`: failure notification crossing a column; the
    /// row-match controller relays it to the originator's row.
    pub(crate) fn on_tas_col_fail(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        if self.origin_col(&op) == col {
            self.install_and_finish(op.originator, op.txn, None, false, true);
        } else {
            let o_row = self.origin_row(&op);
            let fwd = BusOp::new(OpKind::TasRowFail, op.line, op.originator, op.txn);
            let dst = self.row_slot(o_row);
            self.emit(dst, fwd, 0);
        }
    }
}
