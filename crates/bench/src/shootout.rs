//! The protocol shootout: Multicube vs single-bus MESI, Dragon and
//! write-once on *identical* workloads.
//!
//! Every engine runs the same `(grid side, rate)` matrix, and — the key
//! methodological point — each `(n, rate)` cell derives its seed from the
//! sweep stream *without* folding in the engine label. The four engines
//! therefore replay byte-identical request streams (same lines, same
//! kinds, same think times), so every difference in the measured columns
//! is attributable to the protocol, not to workload noise.
//!
//! Reported axes follow Figures 2–4 of the paper: efficiency vs offered
//! rate (Figure 2), coherence traffic — invalidations for the
//! write-invalidate engines, in-place updates for Dragon — (Figure 3's
//! knob), and bus operations per transaction plus peak bus utilization
//! (the single-bus saturation that motivates the Multicube's grid of
//! buses). The matrix runs through [`crate::run_points`], so the output is
//! byte-identical at any worker count. Its [`Table`]'s CSV is the
//! committed `BENCH_shootout.csv`.

use multicube::{EngineKind, MachineConfig, RunReport, SyntheticSpec};
use multicube_sim::pool::Pool;
use multicube_sim::stream_id;

use crate::simfig::{run_points, Measured, SimPoint, SweepConfig};
use crate::table::Table;

/// The shootout's seed for one rate index on grid side `n`: shared by
/// all engines so their workloads are identical.
fn shootout_point_seed(sweep: &SweepConfig, n: u32, index: usize) -> u64 {
    sweep.point_seed(stream_id("shootout", &format!("n={n}")), index)
}

/// Runs every engine across the sweep's rates on an `n x n` grid: rows
/// grouped by engine in `EngineKind::all()` order, rates ascending within
/// each engine, each an engine, its rate's index in `sweep.rates` and the
/// run. Each run checks its machine's quiescent state against its own
/// engine's coherence invariants; a violation poisons only that point.
pub fn run_shootout(
    pool: &Pool,
    n: u32,
    sweep: &SweepConfig,
) -> Measured<(EngineKind, usize, RunReport)> {
    let params: Vec<(EngineKind, usize)> = EngineKind::all()
        .into_iter()
        .flat_map(|engine| (0..sweep.rates.len()).map(move |index| (engine, index)))
        .collect();
    let point = |_, (engine, index): (EngineKind, usize)| SimPoint {
        series: engine.name().to_string(),
        index,
        rate_per_ms: sweep.rates[index],
        seed: shootout_point_seed(sweep, n, index),
        config: MachineConfig::grid(n).expect("valid n").with_engine(engine),
        spec: SyntheticSpec::default(),
        txns_per_node: sweep.txns_per_node,
    };
    run_points(pool, &params, point, |(engine, index), report| {
        (engine, index, report)
    })
}

/// The shootout of [`run_shootout`] on an `n x n` grid over `sweep`, one
/// row per point in run order. The seed column makes the
/// identical-workload guarantee auditable: rows at the same rate carry
/// the same seed for every engine.
pub fn shootout_table(
    n: u32,
    sweep: &SweepConfig,
    rows: &[(EngineKind, usize, RunReport)],
) -> Table {
    let peak = |r: &RunReport| r.buses.iter().map(|b| b.utilization).fold(0.0, f64::max);
    Table::new(
        "shootout",
        format!(
            "Shootout: Multicube grid vs single-bus MESI, Dragon and write-once \
             (n = {n}, identical workloads per rate)"
        ),
        rows,
        &[
            ("engine", None, &|(engine, _, _)| engine.name().into()),
            ("n", None, &|_| n.into()),
            ("rate_per_ms", None, &|(_, i, _)| sweep.rates[*i].into()),
            ("seed", None, &|(_, i, _)| {
                format!("{:#x}", shootout_point_seed(sweep, n, *i)).into()
            }),
            ("efficiency", Some(4), &|(_, _, r)| r.efficiency.into()),
            ("transactions", None, &|(_, _, r)| {
                r.transactions_completed.into()
            }),
            ("bus_ops_per_txn", Some(2), &|(_, _, r)| {
                r.ops_per_transaction().into()
            }),
            ("invalidations", None, &|(_, _, r)| {
                r.metrics.invalidations.get().into()
            }),
            ("updates", None, &|(_, _, r)| r.metrics.updates.get().into()),
            ("mean_latency_ns", Some(0), &|(_, _, r)| {
                r.mean_latency_ns.into()
            }),
            ("peak_bus_utilization", Some(4), &|(_, _, r)| peak(r).into()),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            rates: vec![5.0, 20.0],
            txns_per_node: 10,
            seed: 7,
        }
    }

    /// Four engines x two rates, rows grouped by engine, and the same
    /// seed at the same rate index across all engines (the identical-
    /// workload guarantee).
    #[test]
    fn shootout_runs_all_engines_on_identical_seeds() {
        let s = run_shootout(&Pool::serial(), 4, &tiny());
        assert!(s.failures.is_empty(), "{:?}", s.failures);
        assert_eq!(s.rows.len(), 8);
        let engines: Vec<&str> = s.rows.iter().map(|r| r.0.name()).collect();
        let labels = ["multicube", "mesi", "dragon", "writeonce"];
        assert_eq!(engines, labels.map(|l| [l, l]).concat());
        // The seed column of each row, as the CSV prints it.
        let csv = shootout_table(4, &tiny(), &s.rows).csv();
        let seeds: Vec<&str> = csv
            .lines()
            .skip(1)
            .map(|line| line.split(',').nth(3).unwrap())
            .collect();
        for i in 0..2 {
            let at_rate: Vec<&str> = s
                .rows
                .iter()
                .zip(&seeds)
                .filter(|(r, _)| tiny().rates[r.1] == tiny().rates[i])
                .map(|(_, &seed)| seed)
                .collect();
            assert_eq!(at_rate.len(), 4);
            assert!(
                at_rate.windows(2).all(|w| w[0] == w[1]),
                "engines must share the point seed"
            );
        }
        // Every engine completed the full workload.
        for (engine, _, r) in &s.rows {
            assert_eq!(
                r.transactions_completed,
                10 * 16,
                "{} completed all txns",
                engine.name()
            );
        }
        // Only Dragon produces update traffic; it never invalidates.
        for (engine, _, r) in &s.rows {
            if *engine == EngineKind::Dragon {
                assert_eq!(r.metrics.invalidations.get(), 0, "dragon never invalidates");
            } else {
                assert_eq!(
                    r.metrics.updates.get(),
                    0,
                    "{} never updates in place",
                    engine.name()
                );
            }
        }
    }

    /// The shootout is worker-count independent: the deterministic pool
    /// returns rows in stable job order.
    #[test]
    fn shootout_is_pool_deterministic() {
        let serial = run_shootout(&Pool::serial(), 4, &tiny());
        let parallel = run_shootout(&Pool::new(3), 4, &tiny());
        assert_eq!(serial.rows.len(), parallel.rows.len());
        for (a, b) in serial.rows.iter().zip(parallel.rows.iter()) {
            assert_eq!((a.0, a.1), (b.0, b.1));
            assert_eq!(a.2.transactions_completed, b.2.transactions_completed);
            assert_eq!(a.2.efficiency.to_bits(), b.2.efficiency.to_bits());
            assert_eq!(a.2.mean_latency_ns.to_bits(), b.2.mean_latency_ns.to_bits());
        }
        assert_eq!(
            shootout_table(4, &tiny(), &serial.rows).csv(),
            shootout_table(4, &tiny(), &parallel.rows).csv()
        );
    }

    #[test]
    fn render_groups_rows_by_engine() {
        let s = run_shootout(&Pool::serial(), 4, &tiny());
        let text = shootout_table(4, &tiny(), &s.rows).text();
        assert!(text.contains("multicube"));
        assert!(text.contains("mesi"));
        assert!(text.contains("dragon"));
        assert!(text.contains("writeonce"));
        assert!(!text.contains("NaN"), "{text}");
    }
}
