//! An arbitrated broadcast bus.
//!
//! Each bus serves one operation at a time; which queued operation starts
//! next is decided by an [`Arbitration`] policy. The default
//! [`Arbitration::Fcfs`] grants in strict arrival order (the paper's
//! queueing assumption); [`Arbitration::RoundRobin`] rotates the grant
//! among requesters, the classic fairness discipline compared against
//! FCFS by Nikolov & Lerato. The machine owns the event queue, so the bus
//! only does resource bookkeeping: it reports when an enqueued operation
//! starts and the machine schedules the completion event.

use multicube_sim::stats::{BusyTracker, Counter};
use multicube_sim::SimTime;
use multicube_topology::BusId;
use std::collections::VecDeque;

use crate::proto::BusOp;

/// The bus-grant policy: which queued operation starts when the bus frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arbitration {
    /// First-come-first-served: grants follow arrival order exactly. This
    /// is the paper's queueing assumption and the default — the machine's
    /// event stream under FCFS is bit-identical to the pre-seam bus.
    #[default]
    Fcfs,
    /// Round-robin by requester: when the bus frees, the waiting requester
    /// closest (in cyclic node order) after the last-granted requester is
    /// served next; a requester's own operations stay in FIFO order. A
    /// single chatty node can no longer monopolize consecutive grants.
    RoundRobin,
}

impl Arbitration {
    /// Short label for tables and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Arbitration::Fcfs => "fcfs",
            Arbitration::RoundRobin => "round-robin",
        }
    }

    /// Both policies, in comparison order.
    pub fn all() -> [Arbitration; 2] {
        [Arbitration::Fcfs, Arbitration::RoundRobin]
    }
}

/// One bus: a single-server FIFO queue over broadcast operations.
///
/// # Example
///
/// ```
/// use multicube::bus::{Arbitration, Bus};
/// use multicube::proto::{BusOp, OpKind, TxnId};
/// use multicube_mem::LineAddr;
/// use multicube_sim::SimTime;
/// use multicube_topology::{BusId, NodeId};
///
/// let mut bus = Bus::with_arbitration(BusId::row(0), Arbitration::Fcfs);
/// let op = BusOp::new(OpKind::ReadRowRequest, LineAddr::new(1), NodeId::new(0), TxnId(1));
/// // Idle bus: the op starts immediately and completes 50ns later.
/// let done = bus.enqueue(op, 50, SimTime::ZERO).unwrap();
/// assert_eq!(done, SimTime::from_nanos(50));
/// let (finished, next) = bus.complete(done);
/// assert_eq!(finished.kind, OpKind::ReadRowRequest);
/// assert!(next.is_none());
/// ```
#[derive(Debug)]
pub struct Bus {
    id: BusId,
    arbitration: Arbitration,
    /// Requester index of the most recently granted operation (round-robin
    /// scan origin).
    last_granted: u32,
    queue: VecDeque<(BusOp, u64)>,
    in_flight: Option<(BusOp, SimTime)>,
    busy: BusyTracker,
    ops: Counter,
    data_ops: Counter,
    duplicates: Counter,
    queued_high_water: usize,
}

impl Bus {
    /// Creates an idle bus with the given grant policy.
    pub fn with_arbitration(id: BusId, arbitration: Arbitration) -> Self {
        Bus {
            id,
            arbitration,
            last_granted: u32::MAX,
            queue: VecDeque::new(),
            in_flight: None,
            busy: BusyTracker::new(),
            ops: Counter::new(),
            data_ops: Counter::new(),
            duplicates: Counter::new(),
            queued_high_water: 0,
        }
    }

    /// This bus's identity.
    pub fn id(&self) -> BusId {
        self.id
    }

    /// Enqueues `op` with the given bus occupancy in nanoseconds.
    ///
    /// Returns `Some(completion_time)` if the bus was idle and the
    /// operation starts immediately — the caller must schedule a completion
    /// event for that instant. Returns `None` if the operation was queued
    /// behind others; it will start when [`Bus::complete`] retires its
    /// predecessors.
    pub fn enqueue(&mut self, op: BusOp, duration_ns: u64, now: SimTime) -> Option<SimTime> {
        if self.in_flight.is_none() {
            let done = now + duration_ns;
            self.start(op, done, now);
            Some(done)
        } else {
            self.queue.push_back((op, duration_ns));
            self.queued_high_water = self.queued_high_water.max(self.queue.len());
            None
        }
    }

    /// Enqueues an injected duplicate of an operation, counting it in this
    /// bus's duplicate telemetry. Scheduling semantics are identical to
    /// [`Bus::enqueue`] — the copy occupies the bus like any real op.
    pub fn enqueue_duplicate(
        &mut self,
        op: BusOp,
        duration_ns: u64,
        now: SimTime,
    ) -> Option<SimTime> {
        self.duplicates.incr();
        self.enqueue(op, duration_ns, now)
    }

    fn start(&mut self, op: BusOp, done: SimTime, now: SimTime) {
        self.busy.set_busy(now);
        self.ops.incr();
        if op.streams_data() {
            self.data_ops.incr();
        }
        self.last_granted = op.originator.index();
        self.in_flight = Some((op, done));
    }

    /// Picks the next queued operation according to the arbitration policy.
    fn grant(&mut self) -> Option<(BusOp, u64)> {
        match self.arbitration {
            Arbitration::Fcfs => self.queue.pop_front(),
            Arbitration::RoundRobin => {
                // The waiting requester cyclically closest after the last
                // grant wins; among equal requesters the earliest-queued
                // operation wins (min_by_key keeps the first minimum), so
                // each node's stream stays FIFO.
                let origin = self.last_granted.wrapping_add(1);
                let pos = self
                    .queue
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (op, _))| op.originator.index().wrapping_sub(origin))
                    .map(|(i, _)| i)?;
                self.queue.remove(pos)
            }
        }
    }

    /// Retires the in-flight operation at `now`, returning it together with
    /// the completion time of the next queued operation if one starts.
    ///
    /// # Panics
    ///
    /// Panics if no operation is in flight or `now` is not its completion
    /// time — the machine's event bookkeeping must be exact.
    pub fn complete(&mut self, now: SimTime) -> (BusOp, Option<SimTime>) {
        let (op, done) = self.in_flight.take().expect("no operation in flight");
        assert_eq!(done, now, "completion event fired at the wrong time");
        match self.grant() {
            Some((next, dur)) => {
                let next_done = now + dur;
                self.start(next, next_done, now);
                (op, Some(next_done))
            }
            None => {
                self.busy.set_idle(now);
                (op, None)
            }
        }
    }

    /// The operation currently occupying the bus.
    pub fn in_flight(&self) -> Option<&BusOp> {
        self.in_flight.as_ref().map(|(op, _)| op)
    }

    /// Total operations ever started on this bus.
    pub fn op_count(&self) -> u64 {
        self.ops.get()
    }

    /// Data-streaming operations ever started.
    pub fn data_op_count(&self) -> u64 {
        self.data_ops.get()
    }

    /// Injected duplicate operations ever enqueued.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates.get()
    }

    /// Highest queue depth observed.
    pub fn queue_high_water(&self) -> usize {
        self.queued_high_water
    }

    /// Busy fraction over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy.utilization(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{OpKind, TxnId};
    use multicube_mem::LineAddr;
    use multicube_topology::NodeId;

    fn op(kind: OpKind, seq: u64) -> BusOp {
        BusOp::new(kind, LineAddr::new(seq), NodeId::new(0), TxnId(seq))
    }

    fn fcfs(id: BusId) -> Bus {
        Bus::with_arbitration(id, Arbitration::Fcfs)
    }

    #[test]
    fn idle_bus_starts_immediately() {
        let mut bus = fcfs(BusId::row(1));
        let done = bus.enqueue(op(OpKind::ReadRowRequest, 1), 100, SimTime::ZERO);
        assert_eq!(done, Some(SimTime::from_nanos(100)));
        assert!(bus.in_flight().is_some());
        assert_eq!(bus.queue_high_water(), 0);
    }

    #[test]
    fn busy_bus_queues_fifo() {
        let mut bus = fcfs(BusId::column(0));
        let t0 = SimTime::ZERO;
        let first_done = bus.enqueue(op(OpKind::ReadRowRequest, 1), 50, t0).unwrap();
        assert!(bus.enqueue(op(OpKind::ReadRowRequest, 2), 60, t0).is_none());
        assert!(bus.enqueue(op(OpKind::ReadRowRequest, 3), 70, t0).is_none());
        assert_eq!(bus.queue_high_water(), 2);

        let (f1, next) = bus.complete(first_done);
        assert_eq!(f1.txn, TxnId(1));
        let second_done = next.unwrap();
        assert_eq!(second_done, SimTime::from_nanos(110));

        let (f2, next) = bus.complete(second_done);
        assert_eq!(f2.txn, TxnId(2));
        let third_done = next.unwrap();
        assert_eq!(third_done, SimTime::from_nanos(180));

        let (f3, next) = bus.complete(third_done);
        assert_eq!(f3.txn, TxnId(3));
        assert!(next.is_none());
        assert!(bus.in_flight().is_none());
    }

    #[test]
    fn utilization_counts_only_busy_time() {
        let mut bus = fcfs(BusId::row(0));
        let done = bus
            .enqueue(op(OpKind::ReadRowRequest, 1), 100, SimTime::ZERO)
            .unwrap();
        bus.complete(done);
        // Busy [0,100), idle [100,400): 25%.
        assert!((bus.utilization(SimTime::from_nanos(400)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn counters_distinguish_data_ops() {
        let mut bus = fcfs(BusId::row(0));
        let d1 = bus
            .enqueue(op(OpKind::ReadRowRequest, 1), 50, SimTime::ZERO)
            .unwrap();
        let mut reply = op(OpKind::ReadRowReply, 2);
        reply.data = Some(multicube_mem::LineVersion::new(1));
        bus.enqueue(reply, 850, SimTime::ZERO);
        let (_, next) = bus.complete(d1);
        bus.complete(next.unwrap());
        assert_eq!(bus.op_count(), 2);
        assert_eq!(bus.data_op_count(), 1);
        assert_eq!(bus.queue_high_water(), 1);
    }

    #[test]
    fn duplicates_queue_like_real_ops_and_are_counted() {
        let mut bus = fcfs(BusId::row(0));
        let done = bus
            .enqueue(op(OpKind::ReadRowRequest, 1), 50, SimTime::ZERO)
            .unwrap();
        // The duplicate lands right behind the original.
        assert!(bus
            .enqueue_duplicate(op(OpKind::ReadRowRequest, 1), 50, SimTime::ZERO)
            .is_none());
        assert_eq!(bus.duplicate_count(), 1);
        let (_, next) = bus.complete(done);
        assert_eq!(next, Some(SimTime::from_nanos(100)));
        bus.complete(next.unwrap());
        // Both copies occupied the bus and count as started ops.
        assert_eq!(bus.op_count(), 2);
    }

    fn op_from(node: u32, seq: u64) -> BusOp {
        BusOp::new(
            OpKind::ReadRowRequest,
            LineAddr::new(seq),
            NodeId::new(node),
            TxnId(seq),
        )
    }

    /// Three nodes enqueue while node 0 monopolizes the queue: round-robin
    /// rotates grants (0, 1, 2, then node 0's backlog) instead of serving
    /// arrival order.
    #[test]
    fn round_robin_rotates_among_requesters() {
        let mut bus = Bus::with_arbitration(BusId::row(0), Arbitration::RoundRobin);
        let t0 = SimTime::ZERO;
        let first = bus.enqueue(op_from(0, 1), 10, t0).unwrap();
        // Arrival order behind the in-flight op: 0, 0, 1, 2.
        bus.enqueue(op_from(0, 2), 10, t0);
        bus.enqueue(op_from(0, 3), 10, t0);
        bus.enqueue(op_from(1, 4), 10, t0);
        bus.enqueue(op_from(2, 5), 10, t0);

        let mut served = Vec::new();
        let mut next = Some(first);
        while let Some(done) = next {
            let (finished, upcoming) = bus.complete(done);
            served.push(finished.txn.0);
            next = upcoming;
        }
        // txn 1 was in flight; then node 1, node 2, and node 0's FIFO
        // backlog (txns 2, 3) — not the FCFS order 2, 3, 4, 5.
        assert_eq!(served, vec![1, 4, 5, 2, 3]);
    }

    /// Under FCFS the same arrival order is served as-is: the seam's
    /// default is byte-identical to the pre-seam bus.
    #[test]
    fn fcfs_default_serves_arrival_order() {
        let mut bus = fcfs(BusId::row(0));
        let t0 = SimTime::ZERO;
        let first = bus.enqueue(op_from(0, 1), 10, t0).unwrap();
        bus.enqueue(op_from(0, 2), 10, t0);
        bus.enqueue(op_from(1, 3), 10, t0);
        bus.enqueue(op_from(2, 4), 10, t0);
        let mut served = Vec::new();
        let mut next = Some(first);
        while let Some(done) = next {
            let (finished, upcoming) = bus.complete(done);
            served.push(finished.txn.0);
            next = upcoming;
        }
        assert_eq!(served, vec![1, 2, 3, 4]);
    }

    /// The round-robin scan origin follows the last grant, so a requester
    /// never gets two consecutive grants while others wait.
    #[test]
    fn round_robin_never_grants_twice_while_others_wait() {
        let mut bus = Bus::with_arbitration(BusId::row(0), Arbitration::RoundRobin);
        let t0 = SimTime::ZERO;
        let mut next = bus.enqueue(op_from(3, 0), 10, t0);
        let mut seq = 1u64;
        for _ in 0..4 {
            for node in [0u32, 3] {
                bus.enqueue(op_from(node, seq), 10, t0);
                seq += 1;
            }
        }
        let mut grants = Vec::new();
        while let Some(done) = next {
            let (finished, upcoming) = bus.complete(done);
            grants.push(finished.originator.index());
            next = upcoming;
        }
        for w in grants.windows(2) {
            assert_ne!(
                w[0], w[1],
                "consecutive grants to node {}: {grants:?}",
                w[0]
            );
        }
    }

    #[test]
    #[should_panic(expected = "no operation in flight")]
    fn completing_idle_bus_panics() {
        let mut bus = fcfs(BusId::row(0));
        bus.complete(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "wrong time")]
    fn completing_at_wrong_time_panics() {
        let mut bus = fcfs(BusId::row(0));
        bus.enqueue(op(OpKind::ReadRowRequest, 1), 50, SimTime::ZERO);
        bus.complete(SimTime::from_nanos(49));
    }
}
