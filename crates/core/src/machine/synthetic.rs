//! The closed-loop synthetic workload driver.
//!
//! Every processor alternates between an exponential *think* period and one
//! blocking memory request — the paper's "requests are assumed to be
//! non-overlapping" model. The generator is state-conditioned: the target
//! class (globally unmodified vs. modified-remote; with or without remote
//! sharers) is drawn from the configured probabilities and a concrete line
//! currently in that state is selected, so the Figure 2–4 caption
//! probabilities hold by construction.

use multicube_mem::LineAddr;
use multicube_sim::stats::OnlineStats;
use multicube_sim::SimDuration;
use multicube_topology::NodeId;

use crate::driver::{Request, RequestKind, SyntheticSpec};
use crate::machine::{Event, Machine};
use crate::metrics::{BusReport, BusUtilization, RunReport};

/// Probability that a synthetic request targets a line in global state
/// unmodified. The Figure 2 caption: "The probability that the requested
/// data is in global state unmodified is 80 percent".
const P_UNMODIFIED: f64 = 0.8;

/// Book-keeping for one synthetic run.
#[derive(Debug)]
pub(crate) struct SyntheticState {
    spec: SyntheticSpec,
    /// Requests each node has yet to issue.
    remaining: Vec<u64>,
    /// Accumulated think time per node (ns).
    think_ns: Vec<f64>,
    /// Accumulated blocked time per node (ns).
    blocked_ns: Vec<f64>,
}

impl Machine {
    /// Runs the closed-loop synthetic workload: every processor issues
    /// `txns_per_node` blocking requests drawn from `spec`, separated by
    /// exponential think times. Returns the run report; panics on a
    /// coherence violation when checking is enabled.
    pub fn run_synthetic(&mut self, spec: &SyntheticSpec, txns_per_node: u64) -> RunReport {
        assert!(
            !self.events_pending() && self.txn_seq == 0,
            "run_synthetic requires a fresh machine"
        );
        let nn = (self.n * self.n) as usize;
        self.synthetic = Some(SyntheticState {
            spec: spec.clone(),
            remaining: vec![txns_per_node; nn],
            think_ns: vec![0.0; nn],
            blocked_ns: vec![0.0; nn],
        });
        for idx in 0..nn {
            self.schedule_next_issue(idx);
        }
        while let Some(ev) = self.next_event() {
            self.handle(ev);
        }
        if self.config.checking() {
            self.check_coherence()
                .expect("coherence violated at end of synthetic run");
        }
        self.build_report()
    }

    /// Schedules the node's next issue after an exponential think time,
    /// decrementing its quota.
    fn schedule_next_issue(&mut self, node_idx: usize) {
        let mean = match self.synthetic.as_mut() {
            Some(st) if st.remaining[node_idx] > 0 => {
                st.remaining[node_idx] -= 1;
                st.spec.mean_think_ns
            }
            _ => return,
        };
        let t = self.rng.exponential(mean).max(0.0);
        if let Some(st) = self.synthetic.as_mut() {
            st.think_ns[node_idx] += t;
        }
        let node = NodeId::new(node_idx as u32);
        self.events.schedule_after(
            t as u64,
            Event::Issue {
                node,
                request: None,
            },
        );
    }

    /// Hook called by [`Machine::finish_txn`] for each completion of a
    /// synthetic run.
    pub(crate) fn on_synthetic_completion(&mut self, node: NodeId, latency: SimDuration) {
        let idx = node.as_usize();
        let st = self.synthetic.as_mut().expect("a synthetic run is active");
        st.blocked_ns[idx] += latency.as_nanos() as f64;
        self.schedule_next_issue(idx);
    }

    /// Generates the node's next request from the workload spec.
    pub(crate) fn synthetic_next_request(&mut self, node: NodeId) -> Option<Request> {
        let spec = self.synthetic.as_ref()?.spec.clone();
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
        Some(Request::new(kind, line))
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

    /// Assembles the run report and tears down the synthetic state.
    fn build_report(&mut self) -> RunReport {
        let st = self.synthetic.take().expect("synthetic state");
        let now = self.now();
        let nn = st.think_ns.len();

        let mut eff_sum = 0.0;
        let mut eff_count = 0u32;
        for i in 0..nn {
            let denom = st.think_ns[i] + st.blocked_ns[i];
            if denom > 0.0 {
                eff_sum += st.think_ns[i] / denom;
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
