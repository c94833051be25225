//! Request streams as the sources of closed-loop runs, and the runner
//! that projects a stream's run into a [`WorkloadReport`].

use multicube::{Completion, Machine, Request, RequestKind, RequestSource};
use multicube_sim::stats::{Histogram, OnlineStats};
use multicube_sim::{DeterministicRng, SimTime};
use multicube_topology::NodeId;

/// The generator seed of a [`Stream`] or [`WorkloadRunner`] not given one.
const DEFAULT_SEED: u64 = 0xABCD_EF01;

/// A per-node request stream.
///
/// A [`Stream`] calls [`Workload::next`] once per node initially and then
/// after each completion; returning `None` retires the node early (before
/// the run's request quota).
pub trait Workload {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// The node's next request and the think delay (ns) before issuing it.
    fn next(&mut self, node: NodeId, rng: &mut DeterministicRng) -> Option<(u64, Request)>;
}

impl<W: Workload + ?Sized> Workload for &mut W {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn next(&mut self, node: NodeId, rng: &mut DeterministicRng) -> Option<(u64, Request)> {
        (**self).next(node, rng)
    }
}

/// A [`Workload`] as the request source of a closed-loop run
/// ([`Machine::run_closed_loop`]).
///
/// It decides each node's next request when the node's previous one
/// completes, drawing from its own RNG, and keeps the serving summary that
/// [`multicube::RunReport`] lacks.
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Stream<W> {
    workload: W,
    rng: DeterministicRng,
    /// Latency over all completions, recorded in completion order (ns).
    pub latency_ns: OnlineStats,
    /// Latency distribution over all completions (power-of-two ns
    /// buckets; the percentile source for the serving tier).
    pub latency_hist: Histogram,
    /// Per-node latency statistics (fairness and starvation analysis).
    pub node_latency_ns: Vec<OnlineStats>,
    /// Reads / writes / allocates / test-and-sets / writebacks completed.
    pub kind_counts: [u64; 5],
}

impl<W: Workload> Stream<W> {
    /// A stream of `workload`'s requests.
    pub fn new(workload: W) -> Self {
        Stream {
            workload,
            rng: DeterministicRng::seed(DEFAULT_SEED),
            latency_ns: OnlineStats::new(),
            latency_hist: Histogram::new(),
            node_latency_ns: Vec::new(),
            kind_counts: [0; 5],
        }
    }

    /// Sets the generator RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = DeterministicRng::seed(seed);
        self
    }
}

impl<W: Workload> RequestSource for Stream<W> {
    fn next(&mut self, machine: &mut Machine, node: NodeId) -> Option<(f64, Option<Request>)> {
        if self.node_latency_ns.is_empty() {
            let nodes = machine.side() * machine.side();
            self.node_latency_ns = vec![OnlineStats::new(); nodes as usize];
        }
        let (delay, request) = self.workload.next(node, &mut self.rng)?;
        Some((delay as f64, Some(request)))
    }

    fn completed(&mut self, done: &Completion) {
        let ns = done.latency.as_nanos() as f64;
        self.latency_ns.record(ns);
        self.latency_hist.record_duration(done.latency);
        self.node_latency_ns[done.node.as_usize()].record(ns);
        let k = match done.kind {
            RequestKind::Read => 0,
            RequestKind::Write => 1,
            RequestKind::Allocate => 2,
            RequestKind::TestAndSet => 3,
            RequestKind::Writeback => 4,
        };
        self.kind_counts[k] += 1;
    }
}

/// Summary of one [`WorkloadRunner`] run: its [`multicube::RunReport`]
/// and [`Stream`] summary, projected.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Requests completed across all nodes.
    pub requests_completed: u64,
    /// Mean processor efficiency (think time over total time).
    pub efficiency: f64,
    /// Total bus operations.
    pub bus_ops: u64,
    /// Latency statistics over all requests (ns).
    pub latency_ns: OnlineStats,
    /// Latency distribution over all requests (power-of-two ns buckets).
    pub latency_hist: Histogram,
    /// Reads / writes / allocates / test-and-sets / writebacks completed.
    pub kind_counts: [u64; 5],
    /// Total simulated time.
    pub elapsed: SimTime,
}

/// Drives every node of a fresh machine through a [`Workload`]: a
/// [`Stream`] run of the closed-loop driver, reported as a
/// [`WorkloadReport`].
#[derive(Debug, Clone)]
pub struct WorkloadRunner {
    requests_per_node: u64,
    seed: u64,
}

impl WorkloadRunner {
    /// A runner issuing `requests_per_node` requests from every node.
    pub fn new(requests_per_node: u64) -> Self {
        WorkloadRunner {
            requests_per_node,
            seed: DEFAULT_SEED,
        }
    }

    /// Sets the generator RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs `workload` on the fresh `machine` until every node has
    /// completed its quota (or its stream ended).
    pub fn run<W: Workload>(&self, machine: &mut Machine, workload: &mut W) -> WorkloadReport {
        let mut stream = Stream::new(workload).with_seed(self.seed);
        let run = machine.run_closed_loop(&mut stream, self.requests_per_node);
        WorkloadReport {
            requests_completed: run.transactions_completed,
            efficiency: run.efficiency,
            bus_ops: run.row_bus_ops + run.col_bus_ops,
            latency_ns: stream.latency_ns,
            latency_hist: stream.latency_hist,
            kind_counts: stream.kind_counts,
            elapsed: run.elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multicube::MachineConfig;
    use multicube_mem::LineAddr;

    /// A trivial workload: every node reads one private line repeatedly.
    struct PrivateReads;

    impl Workload for PrivateReads {
        fn name(&self) -> &'static str {
            "private-reads"
        }
        fn next(&mut self, node: NodeId, _rng: &mut DeterministicRng) -> Option<(u64, Request)> {
            let line = LineAddr::new(0x1000 + node.index() as u64);
            Some((10_000, Request::read(line)))
        }
    }

    #[test]
    fn runner_completes_quota() {
        let mut m = Machine::new(MachineConfig::grid(2).unwrap(), 7).unwrap();
        let report = m.run_closed_loop(&mut Stream::new(PrivateReads), 20);
        assert_eq!(report.transactions_completed, 20 * 4);
        // After the first fetch, every read is a local hit.
        assert!(report.ops_per_request() < 1.0);
        assert!(report.efficiency > 0.8);
    }

    #[test]
    fn early_stream_end_is_handled() {
        struct OneShot(u32);
        impl Workload for OneShot {
            fn name(&self) -> &'static str {
                "one-shot"
            }
            fn next(&mut self, _n: NodeId, _r: &mut DeterministicRng) -> Option<(u64, Request)> {
                if self.0 == 0 {
                    return None;
                }
                self.0 -= 1;
                Some((100, Request::read(LineAddr::new(1))))
            }
        }
        let mut m = Machine::new(MachineConfig::grid(2).unwrap(), 7).unwrap();
        let report = WorkloadRunner::new(1000).run(&mut m, &mut OneShot(3));
        assert_eq!(report.requests_completed, 3);
    }
}
