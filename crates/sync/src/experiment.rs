//! The contended-lock experiment: drives every node of a machine through
//! acquire → hold → release rounds under a chosen [`Discipline`].

use std::collections::HashMap;

use multicube::{Machine, Request, RequestKind};
use multicube_mem::LineAddr;
use multicube_sim::SimTime;
use multicube_topology::NodeId;

use crate::lock::{Discipline, FailAction};

/// Think time between a node's rounds, in nanoseconds.
const THINK_NS: u64 = 10_000;

/// The line every node contends for.
const LOCK_LINE: LineAddr = LineAddr::new(0x10_0000);

/// Results of one lock experiment.
#[derive(Debug, Clone)]
pub struct LockReport {
    /// Discipline name.
    pub discipline: &'static str,
    /// Total successful acquisitions (nodes × rounds).
    pub acquisitions: u64,
    /// Total bus operations during the experiment.
    pub bus_ops: u64,
    /// Test-and-set transactions issued.
    pub tas_attempts: u64,
    /// Test-and-set transactions that failed.
    pub tas_failures: u64,
    /// Total simulated time.
    pub elapsed: SimTime,
    /// Nodes in the order they acquired the lock.
    pub acquisition_order: Vec<NodeId>,
    /// Mean time from first attempt of a round to acquisition (ns).
    pub mean_wait_ns: f64,
}

impl LockReport {
    /// Bus operations per acquisition — the §4 traffic figure of merit.
    pub fn ops_per_acquisition(&self) -> f64 {
        if self.acquisitions == 0 {
            return 0.0;
        }
        self.bus_ops as f64 / self.acquisitions as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    /// Waiting out the think time before the next attempt.
    Thinking,
    /// A test-and-set is outstanding.
    Trying,
    /// Queued (queue discipline): spinning locally, zero bus traffic.
    Queued,
    /// Holding the lock; the hold timer is outstanding.
    Holding,
    /// All rounds finished.
    Done,
}

/// A configurable hot-lock workload: every node performs `rounds`
/// critical sections on one shared lock line.
///
/// # Example
///
/// ```
/// use multicube::{Machine, MachineConfig};
/// use multicube_sync::{LockExperiment, SpinLock};
///
/// let mut m = Machine::new(MachineConfig::grid(2).unwrap(), 9).unwrap();
/// let report = LockExperiment::new(2).run::<SpinLock>(&mut m);
/// assert_eq!(report.acquisitions, 2 * 4);
/// ```
#[derive(Debug, Clone)]
pub struct LockExperiment {
    rounds: u64,
    hold_ns: u64,
}

impl LockExperiment {
    /// An experiment with `rounds` acquisitions per node, a 2 µs critical
    /// section and a 10 µs think time.
    pub fn new(rounds: u64) -> Self {
        LockExperiment {
            rounds,
            hold_ns: 2_000,
        }
    }

    /// Sets the critical-section length in nanoseconds.
    #[must_use]
    pub fn with_hold_ns(mut self, ns: u64) -> Self {
        self.hold_ns = ns;
        self
    }

    /// Runs the experiment on every node of `machine` under discipline `D`.
    ///
    /// # Panics
    ///
    /// Panics if mutual exclusion is violated (two simultaneous holders) —
    /// that would be a protocol bug, not a workload outcome.
    pub fn run<D: Discipline>(&self, machine: &mut Machine) -> LockReport {
        let n = machine.side();
        let nodes: Vec<NodeId> = (0..n * n).map(NodeId::new).collect();
        let mut discipline = D::default();
        let mut st: HashMap<NodeId, St> = HashMap::new();
        let mut rounds_left: HashMap<NodeId, u64> = HashMap::new();
        let mut round_started: HashMap<NodeId, SimTime> = HashMap::new();
        let mut handoff_to: Option<NodeId> = None;
        let mut holder: Option<NodeId> = None;
        let mut order = Vec::new();
        let mut wait_sum = 0.0f64;

        // A per-node scratch line used as a pure timer (write-back of an
        // uncached line is a zero-cost local no-op).
        let scratch = |node: NodeId| LineAddr::new(0x20_0000 + node.index() as u64);

        // Stagger the first attempts.
        for (i, &node) in nodes.iter().enumerate() {
            st.insert(node, St::Thinking);
            rounds_left.insert(node, self.rounds);
            machine.submit_at(
                node,
                Request::new(RequestKind::TestAndSet, LOCK_LINE),
                machine.now() + (i as u64 * 100),
            );
        }

        let tas = |line: LineAddr| Request::new(RequestKind::TestAndSet, line);

        while let Some(c) = machine.advance() {
            match c.kind {
                RequestKind::TestAndSet if c.line == LOCK_LINE => {
                    if st[&c.node] == St::Thinking {
                        // First attempt of a round.
                        round_started.insert(c.node, c.at);
                    }
                    if c.success {
                        assert!(
                            holder.is_none(),
                            "mutual exclusion violated: {:?} and {:?}",
                            holder,
                            c.node
                        );
                        holder = Some(c.node);
                        handoff_to = None;
                        st.insert(c.node, St::Holding);
                        order.push(c.node);
                        let started = round_started.get(&c.node).copied().unwrap_or(c.at);
                        wait_sum += c.at.since(started).as_nanos() as f64;
                        // Hold timer.
                        machine.submit_at(
                            c.node,
                            Request::new(RequestKind::Writeback, scratch(c.node)),
                            c.at + self.hold_ns,
                        );
                    } else if handoff_to == Some(c.node) {
                        // The designated heir lost to a thief; requeue at
                        // the front (the paper promises only *usually*
                        // first-come-first-served).
                        handoff_to = None;
                        discipline.on_handoff_fail(c.node);
                        st.insert(c.node, St::Queued);
                    } else {
                        match discipline.on_fail(c.node) {
                            FailAction::Respin => {
                                st.insert(c.node, St::Trying);
                                machine
                                    .submit(c.node, tas(LOCK_LINE))
                                    .expect("node idle after completion");
                            }
                            FailAction::Enqueue => {
                                st.insert(c.node, St::Queued);
                            }
                        }
                    }
                }
                RequestKind::Writeback => {
                    // Hold timer expired: release.
                    debug_assert_eq!(holder, Some(c.node));
                    holder = None;
                    // Clear the lock word in our (modified) copy.
                    let cleared = machine.write_sync_word(c.node, LOCK_LINE, 0);
                    debug_assert!(cleared, "releaser must own the lock line");
                    if let Some(next) = discipline.on_release() {
                        handoff_to = Some(next);
                        st.insert(next, St::Trying);
                        machine
                            .submit(next, tas(LOCK_LINE))
                            .expect("queued node is idle");
                    }
                    // Schedule our own next round (or finish).
                    let left = rounds_left.get_mut(&c.node).expect("node known");
                    *left -= 1;
                    if *left > 0 {
                        st.insert(c.node, St::Thinking);
                        machine.submit_at(c.node, tas(LOCK_LINE), c.at + THINK_NS);
                    } else {
                        st.insert(c.node, St::Done);
                    }
                }
                _ => {}
            }
        }

        assert!(
            st.values().all(|&s| s == St::Done),
            "experiment drained with unfinished nodes: {st:?}"
        );
        machine.check_coherence().expect("coherent at end");

        let (row_ops, col_ops) = machine.bus_op_totals();
        let metrics = machine.metrics();
        LockReport {
            discipline: D::NAME,
            acquisitions: order.len() as u64,
            bus_ops: row_ops + col_ops,
            tas_attempts: metrics.tas_success.count + metrics.tas_fail.count,
            tas_failures: metrics.tas_fail.count,
            elapsed: machine.now(),
            mean_wait_ns: if order.is_empty() {
                0.0
            } else {
                wait_sum / order.len() as f64
            },
            acquisition_order: order,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::{QueueLock, SpinLock};
    use multicube::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::grid(2).unwrap(), 77).unwrap()
    }

    /// FIFO check helper: whether `order` respects queue order per round for
    /// the queue discipline (allowing the initial contention scramble).
    fn is_mostly_fifo(report: &LockReport) -> bool {
        if report.discipline != QueueLock::NAME {
            return true;
        }
        // With handoff stealing rare, each node's k-th acquisition should come
        // after most (k-1)-th acquisitions; use a weak monotonicity measure.
        let mut seen: HashMap<NodeId, u64> = HashMap::new();
        let mut violations = 0usize;
        let mut last_round = 0u64;
        for &node in &report.acquisition_order {
            let r = seen.entry(node).or_insert(0);
            *r += 1;
            if *r < last_round {
                violations += 1;
            }
            last_round = last_round.max(*r);
        }
        violations * 10 <= report.acquisition_order.len()
    }

    #[test]
    fn spin_lock_completes_all_rounds() {
        let mut m = machine();
        let report = LockExperiment::new(3).run::<SpinLock>(&mut m);
        assert_eq!(report.acquisitions, 12);
        assert_eq!(report.discipline, "spin-tas");
        assert!(report.tas_failures > 0, "contention should cause failures");
    }

    #[test]
    fn queue_lock_completes_all_rounds_with_fewer_ops() {
        let mut m1 = machine();
        let spin = LockExperiment::new(3)
            .with_hold_ns(20_000)
            .run::<SpinLock>(&mut m1);
        let mut m2 = machine();
        let queue = LockExperiment::new(3)
            .with_hold_ns(20_000)
            .run::<QueueLock>(&mut m2);
        assert_eq!(queue.acquisitions, spin.acquisitions);
        assert!(
            queue.ops_per_acquisition() < spin.ops_per_acquisition(),
            "queue {} vs spin {}",
            queue.ops_per_acquisition(),
            spin.ops_per_acquisition()
        );
    }

    #[test]
    fn queue_lock_is_mostly_fifo() {
        let mut m = machine();
        let report = LockExperiment::new(4).run::<QueueLock>(&mut m);
        assert!(is_mostly_fifo(&report));
    }
}
