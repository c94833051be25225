//! WRITE-BACK transaction procedures (Appendix A).

use crate::driver::RequestKind;
use crate::machine::Machine;
use crate::metrics::Served;
use crate::node::{LineMode, TxnPhase};
use crate::proto::{BusOp, OpKind};

impl Machine {
    /// `WRITEBACK (COLUMN, REMOVE)`: delete the MLT entry first so that an
    /// outstanding request cannot chase a line that has already gone to
    /// memory; then (on success) the initiator writes the line back and the
    /// blocked processor request continues.
    pub(crate) fn on_writeback_col_remove(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        let removed = self.mlt_remove(col, &op.line);
        let idx = op.originator.as_usize();
        debug_assert_eq!(self.controllers[idx].col(), col);

        if removed {
            // "if (remove succeeded)": the line is still ours; write it back.
            if self.controllers[idx].mode_of(&op.line) == Some(LineMode::Modified) {
                let data = self.controllers[idx]
                    .data_of(&op.line)
                    .expect("modified line has data");
                self.downgrade_to_shared(idx, op.line);
                let snoop = self.config.timing().snoop_latency_ns;
                if col == self.home_column(op.line) {
                    let upd = BusOp::new(
                        OpKind::WritebackColUpdateMemory,
                        op.line,
                        op.originator,
                        op.txn,
                    )
                    .with_data(data);
                    let dst = self.col_slot(col);
                    self.emit(dst, upd, snoop);
                } else {
                    let row = self.controllers[idx].row();
                    let upd =
                        BusOp::new(OpKind::WritebackRowUpdate, op.line, op.originator, op.txn)
                            .with_data(data);
                    let dst = self.row_slot(row);
                    self.emit(dst, upd, snoop);
                }
            }
        }
        // "in either case signal the processor request to continue".
        self.writeback_continue(op);
    }

    /// The `continue request` signal: resume the victim-blocked transaction
    /// or complete a standalone WRITE-BACK.
    fn writeback_continue(&mut self, op: BusOp) {
        let node = op.originator;
        let idx = node.as_usize();
        let Some(out) = self.controllers[idx].outstanding else {
            return;
        };
        match out.phase {
            TxnPhase::VictimWriteback if out.txn == op.txn => {
                // "wait for continue; mark line invalid" — evict the victim
                // (now shared, or already taken by a racing request).
                if let Some(victim) = out.victim {
                    self.clear_line(idx, victim);
                }
                if let Some(o) = self.controllers[idx].outstanding.as_mut() {
                    o.phase = TxnPhase::Requested;
                    o.victim = None;
                }
                self.issue_row_request(node, op.txn);
            }
            TxnPhase::Requested if out.txn == op.txn && out.kind == RequestKind::Writeback => {
                // Standalone write-back: "mark line shared" already done by
                // the remove handler; the transaction is complete.
                self.note_served(op.txn, Served::Memory);
                self.finish_txn(node, op.txn, true);
            }
            _ => {}
        }
    }

    /// `WRITEBACK (ROW, UPDATE)`: the home-column controller forwards the
    /// line to memory.
    pub(crate) fn on_writeback_row_update(&mut self, slot: usize, op: BusOp) {
        self.verify_carried(&op);
        let data = op.data.expect("write-back carries data");
        let home = self.home_column(op.line);
        let upd = BusOp::new(
            OpKind::WritebackColUpdateMemory,
            op.line,
            op.originator,
            op.txn,
        )
        .with_data(data);
        let dst = self.col_slot(home);
        self.emit(dst, upd, 0);
        self.snarf_on_bus(slot, &op);
    }

    /// `WRITEBACK (COLUMN, UPDATE, MEMORY)`: "* write memory line and mark
    /// line valid".
    pub(crate) fn on_writeback_col_update_memory(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        debug_assert_eq!(col, self.home_column(op.line));
        self.verify_carried(&op);
        let data = op.data.expect("write-back carries data");
        self.memories[col as usize].write(op.line, data);
        self.snarf_on_bus(slot, &op);
    }
}
