//! The closed-loop driver and its synthetic request source.
//!
//! Every processor alternates between a *think* period and one blocking
//! memory request — the paper's "requests are assumed to be
//! non-overlapping" model. One loop drives every closed-loop run, whatever
//! its [`RequestSource`]: the synthetic workload here, or a request stream
//! such as a trace replay.
//!
//! The synthetic generator is state-conditioned: the target class
//! (globally unmodified vs. modified-remote; with or without remote
//! sharers) is drawn from the configured probabilities and a concrete line
//! currently in that state is selected, so the Figure 2–4 caption
//! probabilities hold by construction.

use multicube_mem::LineAddr;
use multicube_sim::stats::OnlineStats;
use multicube_topology::NodeId;

use crate::driver::{Request, RequestKind, RequestSource, SyntheticSpec};
use crate::machine::{Event, Machine};
use crate::metrics::{BusReport, BusUtilization, RunReport};

/// Probability that a synthetic request targets a line in global state
/// unmodified. The Figure 2 caption: "The probability that the requested
/// data is in global state unmodified is 80 percent".
const P_UNMODIFIED: f64 = 0.8;

/// The synthetic workload as a request source: exponential think times
/// from the machine's RNG, and the line picked at issue time, because
/// `pick_modified_remote` reads which lines are modified at that instant.
struct Synthetic {
    mean_think_ns: f64,
}

impl RequestSource for Synthetic {
    fn next(&mut self, machine: &mut Machine, _node: NodeId) -> Option<(f64, Option<Request>)> {
        Some((machine.rng.exponential(self.mean_think_ns).max(0.0), None))
    }
}

/// One node's closed loop: the requests it has yet to issue, and its
/// think and blocked time (ns) so far.
#[derive(Debug, Clone, Copy)]
struct NodeLoop {
    quota: u64,
    think_ns: f64,
    blocked_ns: f64,
}

impl Machine {
    /// Runs the closed-loop synthetic workload: every processor issues
    /// `txns_per_node` blocking requests drawn from `spec`, separated by
    /// exponential think times. Returns the run report; panics on a
    /// coherence violation when checking is enabled.
    pub fn run_synthetic(&mut self, spec: &SyntheticSpec, txns_per_node: u64) -> RunReport {
        self.synthetic = Some(spec.clone());
        let mut source = Synthetic {
            mean_think_ns: spec.mean_think_ns,
        };
        self.run_closed_loop(&mut source, txns_per_node)
    }

    /// The closed-loop driver: every processor thinks, issues one blocking
    /// request from `source`, and repeats until it has issued
    /// `txns_per_node` requests or its stream ends. The machine must be
    /// fresh. At quiescence the coherence invariants are checked when the
    /// configuration enables checking (a violation panics), and the run's
    /// report is returned.
    pub fn run_closed_loop<S: RequestSource>(
        &mut self,
        source: &mut S,
        txns_per_node: u64,
    ) -> RunReport {
        assert!(
            !self.events_pending() && self.txn_seq == 0,
            "a closed-loop run requires a fresh machine"
        );
        let start = NodeLoop {
            quota: txns_per_node,
            think_ns: 0.0,
            blocked_ns: 0.0,
        };
        let mut loops = vec![start; (self.n * self.n) as usize];
        for (idx, node_loop) in loops.iter_mut().enumerate() {
            self.issue_next(source, NodeId::new(idx as u32), node_loop);
        }
        while let Some(ev) = self.next_event() {
            self.handle(ev);
            while let Some(done) = self.completions.pop_front() {
                let node_loop = &mut loops[done.node.as_usize()];
                node_loop.blocked_ns += done.latency.as_nanos() as f64;
                source.completed(&done);
                self.issue_next(source, done.node, node_loop);
            }
        }
        if self.config.checking() {
            self.check_coherence()
                .expect("coherence violated at end of closed-loop run");
        }
        self.run_report(&loops)
    }

    /// Schedules `node`'s next request after its think time, unless its
    /// quota is spent or its stream has ended.
    fn issue_next<S: RequestSource>(
        &mut self,
        source: &mut S,
        node: NodeId,
        node_loop: &mut NodeLoop,
    ) {
        if node_loop.quota == 0 {
            return;
        }
        let Some((think_ns, request)) = source.next(self, node) else {
            node_loop.quota = 0;
            return;
        };
        node_loop.quota -= 1;
        node_loop.think_ns += think_ns;
        self.events
            .schedule_after(think_ns as u64, Event::Issue { node, request });
    }

    /// Generates the node's next request from the workload spec.
    pub(crate) fn synthetic_next_request(&mut self, node: NodeId) -> Request {
        let spec = self
            .synthetic
            .clone()
            .expect("a request left to issue time needs run_synthetic's spec");
        let is_write = self.rng.chance(spec.p_write);
        let want_modified = !self.rng.chance(P_UNMODIFIED);
        let line = if want_modified {
            self.pick_modified_remote(node)
        } else {
            None
        };
        let line = line.unwrap_or_else(|| self.pick_unmodified(node, &spec, is_write));
        let kind = if is_write {
            // Every write once drew here for an ALLOCATE share that no run
            // set above 0; the draw stays so every synthetic stream, and
            // every trace fingerprint pinned on one, replays unchanged.
            let _ = self.rng.uniform();
            RequestKind::Write
        } else {
            RequestKind::Read
        };
        Request::new(kind, line)
    }

    /// A line currently modified in some other node's cache, if one exists.
    fn pick_modified_remote(&mut self, node: NodeId) -> Option<LineAddr> {
        for _ in 0..8 {
            if self.owned_list.is_empty() {
                return None;
            }
            let i = self.rng.below(self.owned_list.len() as u64) as usize;
            let line = self.owned_list[i];
            if self.registry_owner(line) != Some(node) {
                return Some(line);
            }
        }
        None
    }

    /// A line in global state unmodified that misses in the node's cache.
    ///
    /// For writes the invalidation probability decides whether the target
    /// actually has shared copies: with probability `p_invalidation` the
    /// write goes to the read-shared pool (where copies abound), otherwise
    /// to a disjoint *fresh* address range that readers never touch —
    /// modelling writes to newly allocated data, the situation the paper's
    /// ALLOCATE hint targets ("cases where entire blocks are to be
    /// written"). This makes the Figure 3 knob control real sharer
    /// presence rather than a label.
    fn pick_unmodified(&mut self, node: NodeId, spec: &SyntheticSpec, is_write: bool) -> LineAddr {
        let invalidating = is_write && self.rng.chance(spec.p_invalidation);
        let fresh_base = spec.shared_lines;
        let mut fallback = None;
        for _ in 0..16 {
            let line = if is_write && !invalidating {
                // Fresh data: no reader has a copy.
                LineAddr::new(fresh_base + self.rng.below(spec.shared_lines))
            } else {
                LineAddr::new(self.rng.below(spec.shared_lines))
            };
            if self.registry_owner(line).is_some() {
                continue; // globally modified
            }
            if self.controllers[node.as_usize()].cache.contains(&line) {
                continue; // would be a local hit
            }
            if invalidating && self.sharer_count(line) == 0 {
                fallback = Some(line);
                continue; // keep looking for a line with real sharers
            }
            return line;
        }
        fallback.unwrap_or_else(|| LineAddr::new(self.rng.below(spec.shared_lines)))
    }

    /// Assembles the report of a closed-loop run from each node's `loops`.
    /// Efficiency is the mean over nodes of think ÷ (think + blocked), 1
    /// when no node thought or waited.
    fn run_report(&self, loops: &[NodeLoop]) -> RunReport {
        let now = self.now();
        let nn = loops.len();
        let mut eff_sum = 0.0;
        let mut eff_count = 0u32;
        for t in loops {
            let denom = t.think_ns + t.blocked_ns;
            if denom > 0.0 {
                eff_sum += t.think_ns / denom;
                eff_count += 1;
            }
        }
        let efficiency = if eff_count > 0 {
            eff_sum / eff_count as f64
        } else {
            1.0
        };

        let n = self.n as usize;
        let mut util = BusUtilization::default();
        let mut row_ops = 0u64;
        let mut col_ops = 0u64;
        let mut buses = Vec::with_capacity(self.buses.len());
        for (i, bus) in self.buses.iter().enumerate() {
            let u = bus.utilization(now);
            if i < n {
                util.row_mean += u / n as f64;
                util.row_max = util.row_max.max(u);
                row_ops += bus.op_count();
            } else {
                util.col_mean += u / n as f64;
                util.col_max = util.col_max.max(u);
                col_ops += bus.op_count();
            }
            buses.push(BusReport {
                id: bus.id(),
                utilization: u,
                ops: bus.op_count(),
                data_ops: bus.data_op_count(),
                duplicates: bus.duplicate_count(),
                queue_high_water: bus.queue_high_water(),
            });
        }

        let elapsed_ms = now.as_millis_f64();
        let achieved = if elapsed_ms > 0.0 {
            self.metrics.total_transactions() as f64 / (nn as f64 * elapsed_ms)
        } else {
            0.0
        };

        let mut lat = OnlineStats::new();
        for s in [
            &self.metrics.read_unmodified,
            &self.metrics.read_modified,
            &self.metrics.write_unmodified,
            &self.metrics.write_modified,
        ] {
            lat.merge(&s.latency_ns);
        }

        RunReport {
            processors: (nn as u32),
            efficiency,
            achieved_rate_per_ms: achieved,
            transactions_completed: self.metrics.total_transactions(),
            mean_latency_ns: lat.mean(),
            elapsed: now,
            utilization: util,
            row_bus_ops: row_ops,
            col_bus_ops: col_ops,
            buses,
            events_scheduled: self.events.scheduled(),
            events_delivered: self.events.delivered(),
            event_queue_high_water: self.events.max_len(),
            metrics: self.metrics.clone(),
        }
    }
}
