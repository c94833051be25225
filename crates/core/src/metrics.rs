//! Instrumentation: per-transaction statistics and run reports.

use multicube_sim::stats::{Counter, Histogram, OnlineStats};
use multicube_sim::SimTime;
use multicube_topology::BusId;

use crate::driver::RequestKind;

/// Where a transaction's data (or decision) ultimately came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Served {
    /// Satisfied locally without any bus operation (cache hit).
    Local,
    /// Supplied by main memory on the home column.
    Memory,
    /// Supplied by the home-column controller's cache.
    HomeCache,
    /// Supplied by the cache holding the line modified.
    RemoteModified,
}

/// Aggregate statistics for one class of transactions.
#[derive(Debug, Clone, Default)]
pub struct TxnStats {
    /// Completed transactions in this class.
    pub count: u64,
    /// End-to-end latency in nanoseconds.
    pub latency_ns: OnlineStats,
    /// Bus operations attributed per transaction.
    pub bus_ops: OnlineStats,
    /// Row-bus operations attributed per transaction.
    pub row_ops: OnlineStats,
    /// Column-bus operations attributed per transaction.
    pub col_ops: OnlineStats,
    /// Row-request retransmissions (lost races, dropped signals, bounces).
    pub retries: Counter,
    /// Most retries any single transaction of this class needed.
    pub max_retries: u32,
    /// Total backoff delay inserted before retransmissions (ns).
    pub backoff_ns: Counter,
    /// Latency histogram (power-of-two buckets, ns).
    pub latency_hist: Histogram,
}

impl TxnStats {
    /// Records one completed transaction.
    pub fn record(
        &mut self,
        latency_ns: u64,
        bus_ops: u32,
        row_ops: u32,
        col_ops: u32,
        retries: u32,
        backoff_ns: u64,
    ) {
        self.count += 1;
        self.latency_ns.record(latency_ns as f64);
        self.latency_hist.record(latency_ns);
        self.bus_ops.record(bus_ops as f64);
        self.row_ops.record(row_ops as f64);
        self.col_ops.record(col_ops as f64);
        self.retries.add(retries as u64);
        self.max_retries = self.max_retries.max(retries);
        self.backoff_ns.add(backoff_ns);
    }
}

/// Machine-wide counters and per-class transaction statistics.
#[derive(Debug, Clone, Default)]
pub struct MachineMetrics {
    /// READs that found the line in global state unmodified.
    pub read_unmodified: TxnStats,
    /// READs that found the line in global state modified.
    pub read_modified: TxnStats,
    /// READ-MODs/ALLOCATEs that found the line unmodified (broadcast path).
    pub write_unmodified: TxnStats,
    /// READ-MODs/ALLOCATEs that found the line modified in a remote cache.
    pub write_modified: TxnStats,
    /// Local hits (no bus traffic).
    pub local_hits: TxnStats,
    /// Explicit WRITE-BACK transactions.
    pub writebacks: TxnStats,
    /// Test-and-set transactions that succeeded.
    pub tas_success: TxnStats,
    /// Test-and-set transactions that failed.
    pub tas_fail: TxnStats,
    /// Shared copies invalidated by purge operations.
    pub invalidations: Counter,
    /// Remote copies refreshed in place by write-update broadcasts
    /// (Dragon's counterpart to `invalidations`; zero under the
    /// write-invalidate engines).
    pub updates: Counter,
    /// Lines snarfed off snooped buses.
    pub snarfs: Counter,
    /// Modified-line-table overflow evictions.
    pub mlt_overflows: Counter,
    /// Requests bounced off an invalid memory line (robustness retries).
    pub memory_bounces: Counter,
    /// Row requests dropped by failure injection.
    pub dropped_signals: Counter,
    /// Victim write-backs forced by cache replacement.
    pub victim_writebacks: Counter,
    /// Request ops lost on a bus by failure injection.
    pub lost_ops: Counter,
    /// Spurious duplicate request ops injected.
    pub duplicated_ops: Counter,
    /// Memory requests transiently NACKed by failure injection.
    pub memory_nacks: Counter,
    /// MLT membership changes that left a controller's view transiently stale.
    pub mlt_delays: Counter,
    /// Controller blackout windows opened by failure injection.
    pub blackouts: Counter,
    /// Livelock-watchdog trips (transactions escalated to fault-free retry).
    pub watchdog_trips: Counter,
}

impl MachineMetrics {
    /// The statistics bucket for a completed transaction of `kind`
    /// served from `served` (with TAS success flag).
    pub fn bucket(&mut self, kind: RequestKind, served: Served, success: bool) -> &mut TxnStats {
        match (kind, served) {
            (_, Served::Local) => &mut self.local_hits,
            (RequestKind::Read, Served::RemoteModified) => &mut self.read_modified,
            (RequestKind::Read, _) => &mut self.read_unmodified,
            (RequestKind::Write | RequestKind::Allocate, Served::RemoteModified) => {
                &mut self.write_modified
            }
            (RequestKind::Write | RequestKind::Allocate, _) => &mut self.write_unmodified,
            (RequestKind::Writeback, _) => &mut self.writebacks,
            (RequestKind::TestAndSet, _) => {
                if success {
                    &mut self.tas_success
                } else {
                    &mut self.tas_fail
                }
            }
        }
    }

    /// Total completed transactions across all classes.
    pub fn total_transactions(&self) -> u64 {
        self.read_unmodified.count
            + self.read_modified.count
            + self.write_unmodified.count
            + self.write_modified.count
            + self.local_hits.count
            + self.writebacks.count
            + self.tas_success.count
            + self.tas_fail.count
    }

    /// Total bus-visible transactions (everything except local hits).
    pub fn bus_transactions(&self) -> u64 {
        self.total_transactions() - self.local_hits.count
    }

    /// The per-class statistics buckets with stable display names, in a
    /// fixed order (for tables and CSV export).
    ///
    /// The set is protocol-independent: every engine buckets its
    /// transactions into these same eight classes (a class an engine
    /// never produces simply stays at zero), so rows from different
    /// engines — e.g. the shootout's Multicube/MESI/Dragon runs — align
    /// one-to-one and diff cleanly. Renderers must therefore emit all
    /// eight rows rather than skipping empty classes.
    pub fn classes(&self) -> [(&'static str, &TxnStats); 8] {
        [
            ("READ unmodified", &self.read_unmodified),
            ("READ modified", &self.read_modified),
            ("READ-MOD/ALLOC unmodified", &self.write_unmodified),
            ("READ-MOD/ALLOC modified", &self.write_modified),
            ("local hit", &self.local_hits),
            ("WRITE-BACK", &self.writebacks),
            ("TAS success", &self.tas_success),
            ("TAS fail", &self.tas_fail),
        ]
    }
}

/// Per-bus utilization summary.
#[derive(Debug, Clone, Default)]
pub struct BusUtilization {
    /// Mean utilization of the row buses.
    pub row_mean: f64,
    /// Peak utilization among row buses.
    pub row_max: f64,
    /// Mean utilization of the column buses.
    pub col_mean: f64,
    /// Peak utilization among column buses.
    pub col_max: f64,
}

/// Telemetry for one bus of the grid.
#[derive(Debug, Clone)]
pub struct BusReport {
    /// Which bus.
    pub id: BusId,
    /// Busy fraction over the run.
    pub utilization: f64,
    /// Operations started on this bus.
    pub ops: u64,
    /// Data-streaming operations started.
    pub data_ops: u64,
    /// Injected duplicate operations that occupied this bus.
    pub duplicates: u64,
    /// Highest queue depth observed behind the in-flight operation.
    pub queue_high_water: usize,
}

/// The result of a closed-loop run ([`crate::Machine::run_closed_loop`]):
/// a synthetic run or a request stream.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Processors in the machine.
    pub processors: u32,
    /// Mean processor efficiency: think time over total time — the paper's
    /// "effective speedup compared to a system with no bus or main memory
    /// latency", normalized per processor.
    pub efficiency: f64,
    /// Achieved bus-request rate, requests per millisecond per processor.
    pub achieved_rate_per_ms: f64,
    /// Transactions completed (all nodes, all classes).
    pub transactions_completed: u64,
    /// Mean end-to-end latency over bus transactions (ns).
    pub mean_latency_ns: f64,
    /// Total simulated time.
    pub elapsed: SimTime,
    /// Bus utilizations.
    pub utilization: BusUtilization,
    /// Total bus operations by class.
    pub row_bus_ops: u64,
    /// Total column-bus operations.
    pub col_bus_ops: u64,
    /// Per-bus telemetry: utilization, op counts and queue high-water,
    /// rows first then columns.
    pub buses: Vec<BusReport>,
    /// Events scheduled on the kernel event queue over the run.
    pub events_scheduled: u64,
    /// Events delivered by the kernel event queue over the run.
    pub events_delivered: u64,
    /// High-water mark of pending kernel events (peak queue pressure).
    pub event_queue_high_water: usize,
    /// Full per-class metrics.
    pub metrics: MachineMetrics,
}

impl RunReport {
    /// Bus operations per completed transaction, local hits included.
    pub fn ops_per_request(&self) -> f64 {
        if self.transactions_completed == 0 {
            return 0.0;
        }
        (self.row_bus_ops + self.col_bus_ops) as f64 / self.transactions_completed as f64
    }

    /// Operations per bus transaction, aggregated.
    pub fn ops_per_transaction(&self) -> f64 {
        let txns = self.metrics.bus_transactions();
        if txns == 0 {
            return 0.0;
        }
        (self.row_bus_ops + self.col_bus_ops) as f64 / txns as f64
    }
}

impl core::fmt::Display for RunReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "{} processors | efficiency {:.4} | {:.2} req/ms/proc achieved",
            self.processors, self.efficiency, self.achieved_rate_per_ms
        )?;
        writeln!(
            f,
            "  {} transactions, mean latency {:.0} ns, {:.2} bus ops each",
            self.transactions_completed,
            self.mean_latency_ns,
            self.ops_per_transaction()
        )?;
        writeln!(
            f,
            "  bus utilization: rows {:.4} (max {:.4}), cols {:.4} (max {:.4})",
            self.utilization.row_mean,
            self.utilization.row_max,
            self.utilization.col_mean,
            self.utilization.col_max
        )?;
        writeln!(
            f,
            "  invalidations {}, memory bounces {}, retries: reads {} writes {}",
            self.metrics.invalidations.get(),
            self.metrics.memory_bounces.get(),
            self.metrics.read_unmodified.retries.get(),
            self.metrics.write_unmodified.retries.get()
        )?;
        write!(
            f,
            "  events: {} scheduled, {} delivered, queue high-water {}",
            self.events_scheduled, self.events_delivered, self.event_queue_high_water
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_stats_accumulate() {
        let mut s = TxnStats::default();
        s.record(1000, 4, 2, 2, 0, 0);
        s.record(2000, 5, 3, 2, 1, 400);
        s.record(1500, 5, 3, 2, 3, 700);
        assert_eq!(s.count, 3);
        assert!((s.latency_ns.mean() - 1500.0).abs() < 1e-9);
        assert_eq!(s.retries.get(), 4);
        assert_eq!(s.max_retries, 3);
        assert_eq!(s.backoff_ns.get(), 1100);
    }

    #[test]
    fn bucket_routes_by_kind_and_service() {
        let mut m = MachineMetrics::default();
        m.bucket(RequestKind::Read, Served::Memory, false)
            .record(1, 4, 2, 2, 0, 0);
        m.bucket(RequestKind::Read, Served::RemoteModified, false)
            .record(1, 5, 2, 3, 0, 0);
        m.bucket(RequestKind::Write, Served::Memory, false)
            .record(1, 6, 4, 2, 0, 0);
        m.bucket(RequestKind::Write, Served::RemoteModified, false)
            .record(1, 4, 2, 2, 0, 0);
        m.bucket(RequestKind::Read, Served::Local, false)
            .record(1, 0, 0, 0, 0, 0);
        m.bucket(RequestKind::TestAndSet, Served::Memory, true)
            .record(1, 4, 2, 2, 0, 0);
        m.bucket(RequestKind::TestAndSet, Served::Memory, false)
            .record(1, 4, 2, 2, 0, 0);
        assert_eq!(m.read_unmodified.count, 1);
        assert_eq!(m.read_modified.count, 1);
        assert_eq!(m.write_unmodified.count, 1);
        assert_eq!(m.write_modified.count, 1);
        assert_eq!(m.local_hits.count, 1);
        assert_eq!(m.tas_success.count, 1);
        assert_eq!(m.tas_fail.count, 1);
        assert_eq!(m.total_transactions(), 7);
        assert_eq!(m.bus_transactions(), 6);
    }

    #[test]
    fn home_cache_reads_count_as_unmodified() {
        let mut m = MachineMetrics::default();
        m.bucket(RequestKind::Read, Served::HomeCache, false)
            .record(1, 2, 1, 1, 0, 0);
        assert_eq!(m.read_unmodified.count, 1);
    }

    /// The class set is the cross-engine row schema: its names and order
    /// are pinned so shootout tables and CSVs from different engines
    /// stay aligned.
    #[test]
    fn class_set_is_stable_across_engines() {
        let m = MachineMetrics::default();
        let names: Vec<&str> = m.classes().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "READ unmodified",
                "READ modified",
                "READ-MOD/ALLOC unmodified",
                "READ-MOD/ALLOC modified",
                "local hit",
                "WRITE-BACK",
                "TAS success",
                "TAS fail",
            ]
        );
    }

    /// A report with no completed bus transactions must report 0 ops per
    /// transaction, not NaN: downstream CSV writers and the shootout
    /// comparison format numbers with `{:.2}` and would otherwise emit
    /// "NaN" rows. Pins the zero-divisor guard in `ops_per_transaction`.
    #[test]
    fn ops_per_transaction_guards_zero_transactions() {
        let report = RunReport {
            processors: 16,
            efficiency: 1.0,
            achieved_rate_per_ms: 0.0,
            transactions_completed: 0,
            mean_latency_ns: 0.0,
            elapsed: SimTime::from_nanos(0),
            utilization: BusUtilization::default(),
            row_bus_ops: 7,
            col_bus_ops: 3,
            buses: Vec::new(),
            events_scheduled: 0,
            events_delivered: 0,
            event_queue_high_water: 0,
            metrics: MachineMetrics::default(),
        };
        let ops = report.ops_per_transaction();
        assert!(ops.is_finite(), "zero transactions must not produce NaN");
        assert_eq!(ops, 0.0);
        // The Display path exercises the same division.
        assert!(!report.to_string().contains("NaN"));
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn run_report_display_is_informative() {
        let report = RunReport {
            processors: 16,
            efficiency: 0.95,
            achieved_rate_per_ms: 9.5,
            transactions_completed: 160,
            mean_latency_ns: 2500.0,
            elapsed: SimTime::from_nanos(1_000_000),
            utilization: BusUtilization {
                row_mean: 0.1,
                row_max: 0.2,
                col_mean: 0.15,
                col_max: 0.25,
            },
            row_bus_ops: 320,
            col_bus_ops: 320,
            buses: Vec::new(),
            events_scheduled: 480,
            events_delivered: 480,
            event_queue_high_water: 24,
            metrics: MachineMetrics::default(),
        };
        let text = report.to_string();
        assert!(text.contains("16 processors"));
        assert!(text.contains("efficiency 0.9500"));
        assert!(text.contains("invalidations 0"));
        assert!(text.contains("480 scheduled"));
        assert!(text.contains("queue high-water 24"));
    }
}
