//! WRITE-BACK transaction procedures (Appendix A).

use crate::machine::Machine;
use crate::node::LineMode;
use crate::proto::{BusOp, OpKind};

impl Machine {
    /// `WRITEBACK (COLUMN, REMOVE)`, the Multicube's flush: delete the MLT
    /// entry first so that an outstanding request cannot chase a line that
    /// has already gone to memory; then (on success) the initiator writes
    /// the line back, and the blocked processor request continues through
    /// the shared [`Machine::flush_done`].
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
        self.flush_done(&op);
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
