//! The paper's tabular claims, measured: protocol costs (T-6.1), scaling
//! formulas (T-6.2), synchronization traffic (E-4.1), the single-bus
//! comparison (E-1.1) and the ablations (A-1..A-3, A-2+), with the
//! [`Table`]s of the fault sweep and of one run's telemetry. Every run
//! behind a table is a job of [`measure`] (the synthetic ones through
//! [`run_points`]), so a panicking point costs only its own row.

use multicube::{
    EngineKind, FaultPlan, Machine, MachineConfig, MachineMetrics, Request, RequestKind,
    RetryPolicy, RunReport, SyntheticSpec, TxnStats,
};
use multicube_mem::LineAddr;
use multicube_sim::pool::Pool;
use multicube_sim::{split_seed, stream_id};
use multicube_sync::{LockExperiment, QueueLock, SpinLock};
use multicube_topology::scaling::{ScalingReport, TransactionCostBounds};
use multicube_topology::Multicube;

use crate::simfig::{measure, run_points, Measured, Point, SimPoint};
use crate::table::{Cell, Table};

/// One measured row of the T-6.1 protocol-cost table.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// The paper's bound on total bus operations.
    pub paper_bound: String,
    /// Measured row-bus operations.
    pub row_ops: f64,
    /// Measured column-bus operations.
    pub col_ops: f64,
    /// Whether the measurement satisfies the paper's bound.
    pub within_bound: bool,
}

/// Measures the §6 per-transaction bus-operation costs on an `n x n`
/// machine by staging each scenario on a quiet grid, one point per
/// scenario.
pub fn costs_table(pool: &Pool, n: u32) -> Measured<CostRow> {
    use RequestKind::{Read, TestAndSet, Write};
    let b = TransactionCostBounds::for_grid(n);
    // Place the actors away from special columns: the line's home is
    // column 1, a remote owner sits at (3, 3) and the requester at (0, 2),
    // or at (1, 2) when it is the line's only user.
    let line = LineAddr::new(1 + n as u64);
    let (alone, owner, requester) = ((1, 2), (3, 3), (0, 2));
    // Each scenario: its name, the requests staged one after another on a
    // fresh machine, the class whose mean row and column operations it
    // reports, the paper's bound as printed, and whether those operations
    // keep to it.
    type Steps<'a> = &'a [((u32, u32), RequestKind)];
    type Class = fn(&MachineMetrics) -> &TxnStats;
    type Within = fn(&TransactionCostBounds, f64, f64) -> bool;
    let scenarios: [(&str, Steps<'_>, Class, String, Within); 5] = [
        (
            "READ, line unmodified",
            &[(alone, Read)],
            |m| &m.read_unmodified,
            format!("<= {}", b.read_unmodified_max),
            |b, row, col| row + col <= f64::from(b.read_unmodified_max),
        ),
        (
            "READ, line modified remotely",
            &[(owner, Write), (requester, Read)],
            |m| &m.read_modified,
            format!("<= {}", b.read_modified_max),
            |b, row, col| row + col <= f64::from(b.read_modified_max),
        ),
        (
            "READ-MOD, line modified remotely",
            &[(owner, Write), (requester, Write)],
            |m| &m.write_modified,
            format!("<= {}", b.readmod_modified),
            |b, row, col| row + col <= f64::from(b.readmod_modified),
        ),
        (
            "READ-MOD, line unmodified (broadcast)",
            &[(alone, Write)],
            |m| &m.write_unmodified,
            format!(
                "{} row + {} col",
                b.readmod_unmodified_row_ops, b.readmod_unmodified_col_ops
            ),
            // The measurement includes the final MLT insert (one extra
            // column op over the paper's 3-op accounting).
            |b, row, col| {
                row <= f64::from(b.readmod_unmodified_row_ops)
                    && col <= f64::from(b.readmod_unmodified_col_ops + 1)
            },
        ),
        (
            // Remote test-and-set on a held lock: short notification.
            "TEST-AND-SET, failure (line stays remote)",
            &[(owner, TestAndSet), (requester, TestAndSet)],
            |m| &m.tas_fail,
            "<= 4 (short ops only)".to_string(),
            |_, row, col| row + col <= 4.0,
        ),
    ];
    let b = &b;
    let points = scenarios
        .into_iter()
        .enumerate()
        .map(
            |(index, (scenario, steps, class, paper_bound, within))| Point {
                series: format!("costs n={n}"),
                index,
                rate_per_ms: 0.0,
                seed: 31,
                job: Box::new(move || {
                    let config = MachineConfig::grid(n).expect("valid n");
                    let mut m = Machine::new(config, 31).expect("valid configuration");
                    for &((row, col), kind) in steps {
                        let node = m.config().topology().node(row, col);
                        m.submit(node, Request::new(kind, line))
                            .expect("a quiet machine's node is idle");
                        m.advance().expect("the staged request completes");
                        m.run_to_quiescence();
                    }
                    let s = class(m.metrics());
                    let (row_ops, col_ops) = (s.row_ops.mean(), s.col_ops.mean());
                    CostRow {
                        scenario,
                        paper_bound,
                        row_ops,
                        col_ops,
                        within_bound: within(b, row_ops, col_ops),
                    }
                }),
            },
        )
        .collect();
    measure(pool, points)
}

/// The §6 scaling formulas for representative Multicube shapes (T-6.2).
pub fn scaling_rows() -> Vec<ScalingReport> {
    [
        (8u32, 2u8),
        (16, 2),
        (24, 2),
        (32, 2),
        (4, 3),
        (8, 3),
        (2, 10),
    ]
    .iter()
    .map(|&(n, k)| ScalingReport::for_cube(&Multicube::new(n, k).expect("valid shape")))
    .collect()
}

/// One row of the E-4.1 lock-traffic comparison.
#[derive(Debug, Clone)]
pub struct SyncRow {
    /// Grid side.
    pub n: u32,
    /// Bus operations per acquisition, spinning test-and-set.
    pub spin_ops_per_acq: f64,
    /// Test-and-set failure count under spinning.
    pub spin_failures: u64,
    /// Bus operations per acquisition, distributed queue lock.
    pub queue_ops_per_acq: f64,
    /// Test-and-set failure count under queueing.
    pub queue_failures: u64,
}

/// Measures hot-lock traffic for both §4 disciplines across grid sizes,
/// one point per side.
pub fn sync_rows(pool: &Pool, ns: &[u32], rounds: u64) -> Measured<SyncRow> {
    let points = ns
        .iter()
        .enumerate()
        .map(|(index, &n)| Point {
            series: format!("sync n={n}"),
            index,
            rate_per_ms: 0.0,
            seed: 13,
            job: Box::new(move || {
                let exp = LockExperiment::new(rounds).with_hold_ns(20_000);
                let mut m1 = Machine::new(MachineConfig::grid(n).unwrap(), 13).unwrap();
                let spin = exp.run::<SpinLock>(&mut m1);
                let mut m2 = Machine::new(MachineConfig::grid(n).unwrap(), 13).unwrap();
                let queue = exp.run::<QueueLock>(&mut m2);
                SyncRow {
                    n,
                    spin_ops_per_acq: spin.ops_per_acquisition(),
                    spin_failures: spin.tas_failures,
                    queue_ops_per_acq: queue.ops_per_acquisition(),
                    queue_failures: queue.tas_failures,
                }
            }),
        })
        .collect();
    measure(pool, points)
}

/// Compares the single-bus multi — Goodman's write-once on one bus, the
/// [`EngineKind::WriteOnce`] engine — against the Multicube at matched
/// processor counts and request rate (E-1.1). Each row is a processor
/// count with the single bus's run and the Multicube's; a count whose run
/// of either engine fails has no row.
pub fn baseline_rows(
    pool: &Pool,
    rate_per_ms: f64,
    txns: u64,
) -> Measured<(u32, RunReport, RunReport)> {
    let sides = [2u32, 4, 6, 8, 12, 16];
    let params: Vec<(usize, EngineKind)> = (0..sides.len())
        .flat_map(|index| [EngineKind::WriteOnce, EngineKind::Multicube].map(|e| (index, e)))
        .collect();
    let point = |_, (index, engine): (usize, EngineKind)| SimPoint {
        series: engine.name().to_string(),
        index,
        rate_per_ms,
        seed: 17,
        config: MachineConfig::grid(sides[index])
            .expect("valid side")
            .with_engine(engine),
        spec: SyntheticSpec::default(),
        txns_per_node: txns,
    };
    let runs = run_points(pool, &params, point, |(index, _), report| (index, report));
    // A side keeps its row only if both of its runs completed; those come
    // in engine order.
    let mut reports = runs.rows.into_iter().peekable();
    let rows = (0..sides.len())
        .filter_map(|index| {
            let multi = reports.next_if(|run| run.0 == index);
            let cube = reports.next_if(|run| run.0 == index);
            Some((sides[index] * sides[index], multi?.1, cube?.1))
        })
        .collect();
    Measured {
        rows,
        failures: runs.failures,
    }
}

/// One run's telemetry as three tables, titled with `setting`: per bus
/// (utilization, op counts, queue high-water), per transaction class
/// (counts, mean bus operations and latency, latency quantiles and
/// histogram, retry pressure), and the run's event-queue, fault and
/// watchdog counters.
pub fn telemetry_tables(setting: &str, report: &RunReport) -> [Table; 3] {
    let buses = Table::new(
        "telemetry_buses",
        format!("Telemetry: per-bus utilization and queueing ({setting})"),
        &report.buses,
        &[
            ("bus", None, &|b| b.id.to_string().into()),
            ("utilization", Some(4), &|b| b.utilization.into()),
            ("ops", None, &|b| b.ops.into()),
            ("data_ops", None, &|b| b.data_ops.into()),
            ("duplicates", None, &|b| b.duplicates.into()),
            ("queue_high_water", None, &|b| b.queue_high_water.into()),
        ],
    );
    // Every class, empty ones included: `classes()` is a stable,
    // protocol-independent set, so tables of different engines stay
    // row-aligned and diffable.
    let classes = Table::new(
        "telemetry_classes",
        format!("Telemetry: per-class op counts, latency quantiles and retries ({setting})"),
        &report.metrics.classes(),
        &[
            ("class", None, &|(name, _)| (*name).into()),
            ("count", None, &|(_, s)| s.count.into()),
            ("mean_bus_ops", Some(2), &|(_, s)| s.bus_ops.mean().into()),
            ("mean_latency_ns", Some(0), &|(_, s)| {
                s.latency_ns.mean().into()
            }),
            ("p50_ns", None, &|(_, s)| {
                s.latency_hist.quantile(0.5).into()
            }),
            ("p90_ns", None, &|(_, s)| {
                s.latency_hist.quantile(0.9).into()
            }),
            ("p99_ns", None, &|(_, s)| {
                s.latency_hist.quantile(0.99).into()
            }),
            ("retries", None, &|(_, s)| s.retries.get().into()),
            ("max_retries", None, &|(_, s)| s.max_retries.into()),
            ("backoff_ns", None, &|(_, s)| s.backoff_ns.get().into()),
            ("latency_hist", None, &|(_, s)| {
                let buckets: Vec<String> = s
                    .latency_hist
                    .iter()
                    .map(|(bucket, count)| format!("{bucket}:{count}"))
                    .collect();
                buckets.join(" ").into()
            }),
        ],
    );
    let counters = Table::new(
        "telemetry_run",
        format!("Telemetry: event queue, fault and watchdog counters ({setting})"),
        std::slice::from_ref(report),
        &[
            ("events scheduled", None, &|r| r.events_scheduled.into()),
            ("events delivered", None, &|r| r.events_delivered.into()),
            ("queue high-water", None, &|r| {
                r.event_queue_high_water.into()
            }),
            ("lost", None, &|r| r.metrics.lost_ops.get().into()),
            ("dup", None, &|r| r.metrics.duplicated_ops.get().into()),
            ("nacks", None, &|r| r.metrics.memory_nacks.get().into()),
            ("mlt-delays", None, &|r| r.metrics.mlt_delays.get().into()),
            ("blackouts", None, &|r| r.metrics.blackouts.get().into()),
            ("signal drops", None, &|r| {
                r.metrics.dropped_signals.get().into()
            }),
            ("watchdog trips", None, &|r| {
                r.metrics.watchdog_trips.get().into()
            }),
        ],
    );
    [buses, classes, counters]
}

#[cfg(test)]
mod tests {
    use super::*;
    use multicube_mva::{FigurePoint, FigureSeries};

    #[test]
    fn costs_table_rows_all_within_bounds() {
        let table = costs_table(&Pool::serial(), 4);
        assert!(table.failures.is_empty(), "{:?}", table.failures);
        let rows = table.rows;
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(
                row.within_bound,
                "{}: {} row + {} col exceeds {}",
                row.scenario, row.row_ops, row.col_ops, row.paper_bound
            );
        }
    }

    #[test]
    fn scaling_rows_cover_the_proposed_machine() {
        let rows = scaling_rows();
        let machine = rows.iter().find(|r| r.n == 32 && r.k == 2).unwrap();
        assert_eq!(machine.processors, 1024);
        assert_eq!(machine.buses, 64);
    }

    #[test]
    fn sync_rows_show_queue_advantage() {
        let table = sync_rows(&Pool::serial(), &[2], 3);
        assert!(table.failures.is_empty(), "{:?}", table.failures);
        let rows = table.rows;
        assert_eq!(rows.len(), 1);
        assert!(rows[0].queue_ops_per_acq <= rows[0].spin_ops_per_acq);
    }

    /// `MachineConfig::grid` rejects side 1, so each of its points fails
    /// alone: E-4.1 keeps the side-2 row, and every T-6.1 scenario
    /// becomes a failure naming its series, index and seed.
    #[test]
    fn sync_and_cost_points_on_a_bad_side_fail_alone() {
        for workers in [1, 3] {
            let pool = Pool::new(workers);
            let sync = sync_rows(&pool, &[1, 2], 2);
            let sides: Vec<u32> = sync.rows.iter().map(|r| r.n).collect();
            assert_eq!(sides, [2]);
            assert_eq!(sync.failures.len(), 1);
            let f = &sync.failures[0];
            assert_eq!((f.series.as_str(), f.index, f.seed), ("sync n=1", 0, 13));
            assert!(f.message.contains("ArityTooSmall"), "{}", f.message);

            let costs = costs_table(&pool, 1);
            assert!(costs.rows.is_empty());
            let indices: Vec<usize> = costs.failures.iter().map(|f| f.index).collect();
            assert_eq!(indices, [0, 1, 2, 3, 4]);
            for f in &costs.failures {
                assert_eq!((f.series.as_str(), f.seed), ("costs n=1", 31));
                assert!(f.message.contains("ArityTooSmall"), "{}", f.message);
            }
        }
    }

    #[test]
    fn baseline_rows_show_crossover() {
        let pool = Pool::serial();
        let table = baseline_rows(&pool, 10.0, 25);
        assert!(table.failures.is_empty(), "{:?}", table.failures);
        let rows = table.rows;
        let (_, small_multi, _) = rows.first().unwrap();
        let (_, large_multi, large_cube) = rows.last().unwrap();
        // At 4 processors both are comfortable; at 256 the single bus is
        // far behind the grid.
        assert!(small_multi.efficiency > 0.5);
        assert!(large_cube.efficiency > large_multi.efficiency + 0.2);

        // The single bus saturates: its efficiency falls from 4 to 16 to 64
        // processors (rows 0, 1 and 3) while its utilization grows.
        assert_eq!(rows[3].0, 64);
        let eff: Vec<f64> = rows.iter().map(|r| r.1.efficiency).collect();
        assert!(eff[0] > eff[1] && eff[1] > eff[3], "{eff:?}");
        let util = |row: &(u32, RunReport, RunReport)| row.1.buses[0].utilization;
        assert!(util(&rows[1]) > util(&rows[0]));
        // Light load leaves 4 processors near-ideal; at 40 req/ms, 64
        // processors offer one bus about four times its capacity.
        assert!(baseline_rows(&pool, 0.5, 25).rows[0].1.efficiency > 0.9);
        assert!(baseline_rows(&pool, 40.0, 25).rows[3].1.efficiency < 0.5);
    }

    #[test]
    fn render_series_formats_rows() {
        let s = FigureSeries {
            label: "x".into(),
            points: vec![FigurePoint {
                rate_per_ms: 1.0,
                efficiency: 0.5,
                rho_row: 0.1,
                rho_col: 0.1,
            }],
        };
        let text = |value: fn(&FigurePoint) -> f64| {
            Table::series("s", "t", &[1.0], std::slice::from_ref(&s), value)
                .unwrap()
                .text()
        };
        let eff = text(|p| p.efficiency);
        assert!(eff.contains("== t =="));
        assert!(eff.contains("0.5000"));
        let rho = text(|p| p.rho_row);
        assert!(rho.contains("0.1000") && !rho.contains("0.5000"), "{rho}");
    }

    #[test]
    fn telemetry_csvs_have_one_row_per_bus_and_class() {
        let mut m = Machine::new(MachineConfig::grid(4).unwrap(), 19).unwrap();
        let report = m.run_synthetic(&SyntheticSpec::default(), 30);
        let [buses, classes, counters] = telemetry_tables("n = 4", &report);

        let text = buses.csv();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "bus,utilization,ops,data_ops,duplicates,queue_high_water"
        );
        // A 4x4 grid has 4 row buses and 4 column buses.
        assert_eq!(lines.len(), 1 + 8);
        assert!(lines[1].starts_with("row0,"));

        let text = classes.csv();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 8, "one row per transaction class");
        assert!(lines[0].contains("retries,max_retries,backoff_ns"));
        assert!(lines.iter().any(|l| l.starts_with("READ unmodified,")));

        assert_eq!(counters.csv().lines().count(), 1 + 1, "one row per run");
    }
}

/// The MLT-sizing ablation (A-1; §6: "If the table is not large enough,
/// modified lines will, on occasion, have to be written to main memory
/// and changed to global state unmodified"): each capacity's run on an
/// `n x n` machine under a write-heavy workload. The run counts the
/// overflow write-backs in `metrics.mlt_overflows`.
pub fn mlt_rows(
    pool: &Pool,
    n: u32,
    capacities: &[usize],
    txns: u64,
) -> Measured<(usize, RunReport)> {
    let spec = SyntheticSpec::default()
        .with_p_write(0.6)
        .with_shared_lines(512);
    let point = |index, capacity| SimPoint {
        series: format!("mlt n={n}"),
        index,
        rate_per_ms: 15.0,
        seed: 41,
        config: MachineConfig::grid(n)
            .expect("valid n")
            .with_mlt_capacity(capacity),
        spec: spec.clone(),
        txns_per_node: txns,
    };
    run_points(pool, capacities, point, |capacity, report| {
        (capacity, report)
    })
}

/// The §3 robustness ablation (A-2): controllers drop their modified-signal
/// responsibility with each probability, and the valid bit in memory
/// recovers every request at the cost of retries — quantifying the claim
/// that "a controller can, on occasion, simply discard such requests
/// without breaking the protocol". The run counts the drops in
/// `metrics.dropped_signals` and the recoveries in `metrics.memory_bounces`.
pub fn robustness_rows(
    pool: &Pool,
    n: u32,
    drops: &[f64],
    txns: u64,
) -> Measured<(f64, RunReport)> {
    let point = |index, p| SimPoint {
        series: format!("robustness n={n}"),
        index,
        rate_per_ms: 15.0,
        seed: 43,
        config: MachineConfig::grid(n)
            .expect("valid n")
            .with_fault_plan(FaultPlan::default().with_signal_drop(p)),
        spec: SyntheticSpec::default(),
        txns_per_node: txns,
    };
    run_points(pool, drops, point, |p, report| (p, report))
}

/// The composite fault plan used by the sweep: signal drops at `p`, op
/// loss at `p/2`, duplicates and bank NACKs at `p/4`, MLT delay at `p/4`,
/// blackouts at `p/8`.
fn sweep_plan(p: f64) -> FaultPlan {
    FaultPlan::default()
        .with_signal_drop(p)
        .with_op_loss(p / 2.0)
        .with_op_duplicate(p / 4.0)
        .with_memory_nack(p / 4.0)
        .with_mlt_delay(p / 4.0, 2_000)
        .with_blackout(p / 8.0, 2_000)
}

/// The base seed and per-series stream of the composite fault sweep.
///
/// The stream is namespaced (`"faults"` + the grid side) via the workspace
/// seed-splitting scheme, so the sweep shares no RNG stream with the
/// figure harnesses even though they all default to base seed `0x5EED`.
fn fault_sweep_seed(n: u32, index: usize) -> u64 {
    split_seed(0x5EED, stream_id("faults", &format!("n={n}")), index as u64)
}

/// Sweeps the composite fault probability on an `n x n` machine — the §3
/// robustness claim measured under every fault class at once. Each run
/// must complete every transaction and pass the coherence checker; the
/// sweep quantifies what that resilience *costs* in latency and retries.
/// Rows come in probability order, each a probability and its run; a
/// point that panics (a `FailFast` watchdog, say) is contained as a
/// [`crate::PointFailure`].
pub fn fault_sweep_rows(
    pool: &Pool,
    n: u32,
    probs: &[f64],
    txns: u64,
) -> Measured<(f64, RunReport)> {
    let point = |index, p| SimPoint {
        series: format!("faults n={n}"),
        index,
        rate_per_ms: 15.0,
        seed: fault_sweep_seed(n, index),
        config: MachineConfig::grid(n)
            .expect("valid n")
            .with_fault_plan(sweep_plan(p))
            .with_retry_policy(RetryPolicy::default().with_backoff(100, 25_000)),
        spec: SyntheticSpec::default(),
        txns_per_node: txns,
    };
    run_points(pool, probs, point, |p, report| (p, report))
}

/// The composite fault sweep on an `n x n` machine as a table: per base
/// probability, the run's efficiency and mean latency, its retries and
/// backoff over every class, its fault and watchdog counters, and its
/// completions.
pub fn fault_sweep_table(n: u32, rows: &[(f64, RunReport)]) -> Table {
    let total = |r: &RunReport, count: fn(&TxnStats) -> u64| -> Cell {
        r.metrics
            .classes()
            .iter()
            .map(|(_, s)| count(s))
            .sum::<u64>()
            .into()
    };
    Table::new(
        "fault_sweep",
        format!(
            "A-2+: composite fault sweep (n = {n}; drop p, loss p/2, dup p/4, \
             nack p/4, mlt-delay p/4, blackout p/8; backoff 100ns..25us)"
        ),
        rows,
        &[
            ("probability", Some(2), &|(p, _)| (*p).into()),
            ("efficiency", Some(4), &|(_, r)| r.efficiency.into()),
            ("mean_latency_ns", Some(0), &|(_, r)| {
                r.mean_latency_ns.into()
            }),
            ("retries", None, &|(_, r)| total(r, |s| s.retries.get())),
            ("max_retries", None, &|(_, r)| {
                let classes = r.metrics.classes();
                classes.iter().map(|(_, s)| s.max_retries).max().into()
            }),
            ("backoff_ns", None, &|(_, r)| {
                total(r, |s| s.backoff_ns.get())
            }),
            ("lost_ops", None, &|(_, r)| r.metrics.lost_ops.get().into()),
            ("duplicated_ops", None, &|(_, r)| {
                r.metrics.duplicated_ops.get().into()
            }),
            ("memory_nacks", None, &|(_, r)| {
                r.metrics.memory_nacks.get().into()
            }),
            ("mlt_delays", None, &|(_, r)| {
                r.metrics.mlt_delays.get().into()
            }),
            ("blackouts", None, &|(_, r)| {
                r.metrics.blackouts.get().into()
            }),
            ("watchdog_trips", None, &|(_, r)| {
                r.metrics.watchdog_trips.get().into()
            }),
            ("completed", None, &|(_, r)| r.transactions_completed.into()),
        ],
    )
}

/// The snarfing ablation (A-3; §3's "snarf" optimization) under a
/// re-read-heavy workload: the run without snarfing, then with it. The run
/// counts the lines snarfed in `metrics.snarfs`.
pub fn snarf_rows(pool: &Pool, n: u32, txns: u64) -> Measured<(bool, RunReport)> {
    // A small, hot working set maximizes re-reads of purged lines.
    let spec = SyntheticSpec::default()
        .with_shared_lines(64)
        .with_p_write(0.4);
    let point = |index, on| SimPoint {
        series: format!("snarf n={n}"),
        index,
        rate_per_ms: 15.0,
        seed: 47,
        config: MachineConfig::grid(n).expect("valid n").with_snarfing(on),
        spec: spec.clone(),
        txns_per_node: txns,
    };
    run_points(pool, &[false, true], point, |on, report| (on, report))
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    #[test]
    fn tiny_mlt_forces_overflow_writebacks() {
        let rows = mlt_rows(&Pool::serial(), 4, &[4, 4096], 40).rows;
        let (small, huge) = (&rows[0].1, &rows[1].1);
        assert!(
            small.metrics.mlt_overflows.get() > 0,
            "capacity 4 must overflow"
        );
        assert_eq!(
            huge.metrics.mlt_overflows.get(),
            0,
            "huge table never overflows"
        );
        assert!(small.ops_per_transaction() >= huge.ops_per_transaction());
    }

    /// `MachineConfig::validate` rejects an MLT capacity of 0, so that
    /// point fails alone: the other capacities keep their rows and the
    /// failure names the point's series, index and seed.
    #[test]
    fn a_zero_capacity_point_fails_alone() {
        for workers in [1, 3] {
            let table = mlt_rows(&Pool::new(workers), 4, &[4, 0, 4096], 20);
            let capacities: Vec<usize> = table.rows.iter().map(|r| r.0).collect();
            assert_eq!(capacities, [4, 4096]);
            assert_eq!(table.failures.len(), 1);
            let f = &table.failures[0];
            assert_eq!((f.series.as_str(), f.index, f.seed), ("mlt n=4", 1, 41));
            assert!(f.message.contains("BadMltCapacity"), "{}", f.message);
        }
    }

    #[test]
    fn signal_drops_cost_retries_not_correctness() {
        let rows = robustness_rows(&Pool::serial(), 4, &[0.0, 0.5], 40).rows;
        let (clean, lossy) = (&rows[0].1.metrics, &rows[1].1.metrics);
        assert_eq!(clean.dropped_signals.get(), 0);
        assert!(lossy.dropped_signals.get() > 0);
        assert!(lossy.memory_bounces.get() > clean.memory_bounces.get());
        assert!(lossy.read_modified.count > 0 && lossy.read_modified.retries.get() > 0);
    }

    #[test]
    fn snarfing_runs_and_snarfs() {
        let rows = snarf_rows(&Pool::serial(), 4, 60).rows;
        assert_eq!(rows[0].1.metrics.snarfs.get(), 0);
        assert!(
            rows[1].1.metrics.snarfs.get() > 0,
            "hot set must trigger snarfs"
        );
    }

    #[test]
    fn fault_sweep_completes_everything_and_costs_retries() {
        let sweep = fault_sweep_rows(&Pool::serial(), 4, &[0.0, 0.5], 40);
        assert!(sweep.failures.is_empty());
        let rows = sweep.rows;
        assert_eq!(rows.len(), 2);
        for (_, r) in &rows {
            assert_eq!(
                r.transactions_completed,
                40 * 16,
                "every transaction completes"
            );
        }
        let total = |r: &RunReport, count: fn(&TxnStats) -> u64| -> u64 {
            r.metrics.classes().iter().map(|(_, s)| count(s)).sum()
        };
        let (clean, heavy) = (&rows[0].1, &rows[1].1);
        assert_eq!(
            total(clean, |s| s.retries.get()),
            0,
            "fault-free run needs no fault retries"
        );
        assert_eq!(clean.metrics.lost_ops.get(), 0);
        assert!(
            total(heavy, |s| s.retries.get()) > 0,
            "heavy faults must cost retries"
        );
        assert!(heavy.metrics.lost_ops.get() > 0);
        assert!(
            total(heavy, |s| s.backoff_ns.get()) > 0,
            "backoff policy must engage"
        );
        assert!(heavy.mean_latency_ns > clean.mean_latency_ns);
    }

    #[test]
    fn fault_sweep_render_has_all_columns() {
        let rows = fault_sweep_rows(&Pool::serial(), 4, &[0.25], 20).rows;
        let text = fault_sweep_table(4, &rows).text();
        assert!(text.contains("== A-2+: composite fault sweep (n = 4;"));
        assert!(text.contains("efficiency"));
        assert!(text.contains("backoff_ns"));
        assert!(text.contains("0.25"));
    }

    #[test]
    fn fault_sweep_csv_has_one_row_per_probability() {
        let rows = fault_sweep_rows(&Pool::serial(), 3, &[0.0, 0.25], 15).rows;
        let text = fault_sweep_table(3, &rows).csv();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("probability,efficiency,mean_latency_ns"));
        assert_eq!(lines.len(), 1 + 2);
        assert!(lines[1].starts_with("0,"));
        assert!(lines[2].starts_with("0.25,"));
    }

    #[test]
    fn resilience_render_includes_fault_counters() {
        let config = MachineConfig::grid(4)
            .unwrap()
            .with_fault_plan(sweep_plan(0.4))
            .with_retry_policy(RetryPolicy::default().with_backoff(100, 10_000));
        let mut m = Machine::new(config, 59).unwrap();
        let report = m.run_synthetic(&SyntheticSpec::default(), 30);
        let text: String = telemetry_tables("resilience", &report)
            .iter()
            .map(Table::text)
            .collect();
        assert!(text.contains("retries (resilience) =="));
        assert!(text.contains("retries"));
        assert!(text.contains("watchdog trips"));
    }
}
