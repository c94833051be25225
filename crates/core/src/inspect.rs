//! Human-readable machine-state inspection.
//!
//! [`dump`] renders the global coherence state — per-line owners, sharers,
//! memory valid bits, modified-line-table contents and bus activity — as
//! text. Combined with the `MULTICUBE_TRACE=1` per-operation trace, this
//! is the debugging surface of the simulator.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use multicube_mem::LineAddr;
use multicube_topology::NodeId;

use crate::check::CoherenceView;
use crate::machine::Machine;
use crate::node::LineMode;

/// A summarized view of one line's global state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineView {
    /// The line.
    pub line: LineAddr,
    /// The cache holding it modified, if any.
    pub owner: Option<NodeId>,
    /// Caches holding it shared.
    pub sharers: Vec<NodeId>,
    /// Memory's valid bit at the home column.
    pub memory_valid: bool,
    /// The home column.
    pub home_column: u32,
}

/// Collects the global state of every line resident anywhere. Works over
/// any [`CoherenceView`] — the machine, or a model-checker state.
pub fn line_views(v: &dyn CoherenceView) -> Vec<LineView> {
    let n = v.side();
    let mut map: BTreeMap<LineAddr, (Option<NodeId>, Vec<NodeId>)> = BTreeMap::new();
    for idx in 0..(n * n) {
        let node = NodeId::new(idx);
        for (line, mode, _) in v.resident(node) {
            let entry = map.entry(line).or_default();
            match mode {
                LineMode::Modified => entry.0 = Some(node),
                LineMode::Shared => entry.1.push(node),
                LineMode::Reserved => {}
            }
        }
    }
    map.into_iter()
        .map(|(line, (owner, mut sharers))| {
            sharers.sort_unstable();
            let home_column = v.home_column(line);
            LineView {
                line,
                owner,
                sharers,
                memory_valid: v.memory_valid(line),
                home_column,
            }
        })
        .collect()
}

/// Renders the machine state as text: a summary header, the busiest
/// lines, per-column MLT sizes, and bus queue depths.
///
/// # Example
///
/// ```
/// use multicube::{inspect, Machine, MachineConfig, Request};
/// use multicube_mem::LineAddr;
/// use multicube_topology::NodeId;
///
/// let mut m = Machine::new(MachineConfig::grid(2).unwrap(), 1).unwrap();
/// m.submit(NodeId::new(0), Request::write(LineAddr::new(3))).unwrap();
/// m.advance();
/// m.run_to_quiescence();
/// let text = inspect::dump(&m);
/// assert!(text.contains("L0x3"));
/// assert!(text.contains("owner=P0"));
/// ```
pub fn dump(m: &Machine) -> String {
    let n = m.side();
    let mut out = String::new();
    let views = line_views(m);
    let owned = views.iter().filter(|v| v.owner.is_some()).count();
    let shared_only = views
        .iter()
        .filter(|v| v.owner.is_none() && !v.sharers.is_empty())
        .count();
    let _ = writeln!(
        out,
        "machine {n}x{n} @ {} | resident lines: {} ({} modified, {} shared-only)",
        m.now(),
        views.len(),
        owned,
        shared_only
    );

    for v in views.iter().take(64) {
        let owner = v
            .owner
            .map(|o| format!("owner={o}"))
            .unwrap_or_else(|| "unowned".to_string());
        let sharers = if v.sharers.is_empty() {
            String::from("-")
        } else {
            v.sharers
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(
            out,
            "  {:?} home=col{} mem_valid={} {} sharers=[{}]",
            v.line, v.home_column, v.memory_valid, owner, sharers
        );
    }
    if views.len() > 64 {
        let _ = writeln!(out, "  ... {} more lines", views.len() - 64);
    }

    let _ = writeln!(out, "modified line tables:");
    for col in 0..n {
        let entries = m.mlt(col).len();
        let _ = writeln!(out, "  col{col}: {entries} entries");
    }

    let _ = writeln!(out, "buses:");
    for slot in 0..(2 * n) as usize {
        let bus = m.bus(slot);
        let _ = writeln!(
            out,
            "  {}: ops={} data_ops={} queue={} util={:.4}",
            bus.id(),
            bus.op_count(),
            bus.data_op_count(),
            bus.queue_len(),
            bus.utilization(m.now())
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MachineConfig, Request};

    #[test]
    fn dump_reflects_state() {
        let mut m = Machine::new(MachineConfig::grid(2).unwrap(), 1).unwrap();
        m.submit(NodeId::new(0), Request::write(LineAddr::new(3)))
            .unwrap();
        m.advance();
        m.submit(NodeId::new(3), Request::read(LineAddr::new(5)))
            .unwrap();
        m.advance();
        m.run_to_quiescence();
        let text = dump(&m);
        assert!(text.contains("machine 2x2"));
        assert!(text.contains("owner=P0"));
        assert!(text.contains("P3"));
        assert!(text.contains("row0:"));
        assert!(text.contains("col1:"));
    }

    #[test]
    fn line_views_are_sorted_and_complete() {
        let mut m = Machine::new(MachineConfig::grid(2).unwrap(), 1).unwrap();
        for i in [9u64, 2, 7] {
            m.submit(NodeId::new(0), Request::read(LineAddr::new(i)))
                .unwrap();
            m.advance();
            m.run_to_quiescence();
        }
        let views = line_views(&m);
        assert_eq!(views.len(), 3);
        assert!(views.windows(2).all(|w| w[0].line < w[1].line));
        assert!(views.iter().all(|v| v.memory_valid));
        assert!(views.iter().all(|v| v.owner.is_none()));
    }

    #[test]
    fn empty_machine_dumps_cleanly() {
        let m = Machine::new(MachineConfig::grid(2).unwrap(), 1).unwrap();
        let text = dump(&m);
        assert!(text.contains("resident lines: 0"));
    }
}
