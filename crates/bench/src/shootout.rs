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
//! byte-identical at any worker count.

use multicube::{EngineKind, MachineConfig, SyntheticSpec};
use multicube_sim::pool::Pool;
use multicube_sim::stream_id;

use crate::simfig::{run_points, Measured, SimPoint, SweepConfig};

/// One engine's measurements at one `(n, rate)` operating point.
#[derive(Debug, Clone)]
pub struct ShootoutRow {
    /// Engine label (`multicube`, `mesi`, `dragon`, `writeonce`).
    pub engine: &'static str,
    /// Grid side (the machine has `n * n` processors).
    pub n: u32,
    /// Offered request rate per processor.
    pub rate_per_ms: f64,
    /// The per-point seed — identical across engines at the same point.
    pub seed: u64,
    /// Processor efficiency (Figure 2 axis).
    pub efficiency: f64,
    /// Completed transactions.
    pub transactions: u64,
    /// Bus operations per bus-visible transaction.
    pub bus_ops_per_txn: f64,
    /// Shared copies purged (write-invalidate traffic, Figure 3 axis).
    pub invalidations: u64,
    /// Remote copies refreshed in place (write-update traffic).
    pub updates: u64,
    /// Mean completion latency over the read/write classes.
    pub mean_latency_ns: f64,
    /// Peak utilization over all buses (the saturation axis).
    pub peak_bus_utilization: f64,
}

/// The shootout's seed for one rate index on grid side `n`: shared by
/// all engines so their workloads are identical.
fn shootout_point_seed(sweep: &SweepConfig, n: u32, index: usize) -> u64 {
    sweep.point_seed(stream_id("shootout", &format!("n={n}")), index)
}

/// Runs every engine across the sweep's rates on an `n x n` grid: rows
/// grouped by engine in `EngineKind::all()` order, rates ascending within
/// each engine. Each run checks its machine's quiescent state against its
/// own engine's coherence invariants; a violation poisons only that point.
pub fn run_shootout(pool: &Pool, n: u32, sweep: &SweepConfig) -> Measured<ShootoutRow> {
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
        ShootoutRow {
            engine: engine.name(),
            n,
            rate_per_ms: sweep.rates[index],
            seed: shootout_point_seed(sweep, n, index),
            efficiency: report.efficiency,
            transactions: report.transactions_completed,
            bus_ops_per_txn: report.ops_per_transaction(),
            invalidations: report.metrics.invalidations.get(),
            updates: report.metrics.updates.get(),
            mean_latency_ns: report.mean_latency_ns,
            peak_bus_utilization: report
                .buses
                .iter()
                .map(|b| b.utilization)
                .fold(0.0f64, f64::max),
        }
    })
}

/// Renders the shootout as an aligned comparison table, one block per
/// engine (rows align across blocks because the rate grid is shared).
pub fn render_shootout(title: &str, rows: &[ShootoutRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<10} {:>8} {:>12} {:>8} {:>9} {:>9} {:>9} {:>12} {:>10}\n",
        "engine",
        "rate/ms",
        "efficiency",
        "txns",
        "ops/txn",
        "invals",
        "updates",
        "latency ns",
        "peak util"
    ));
    let mut last_engine = "";
    for r in rows {
        if !last_engine.is_empty() && r.engine != last_engine {
            out.push('\n');
        }
        last_engine = r.engine;
        out.push_str(&format!(
            "{:<10} {:>8} {:>12.4} {:>8} {:>9.2} {:>9} {:>9} {:>12.0} {:>10.4}\n",
            r.engine,
            r.rate_per_ms,
            r.efficiency,
            r.transactions,
            r.bus_ops_per_txn,
            r.invalidations,
            r.updates,
            r.mean_latency_ns,
            r.peak_bus_utilization
        ));
    }
    out
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
        let engines: Vec<&str> = s.rows.iter().map(|r| r.engine).collect();
        let labels = ["multicube", "mesi", "dragon", "writeonce"];
        assert_eq!(engines, labels.map(|l| [l, l]).concat());
        for i in 0..2 {
            let seeds: Vec<u64> = s
                .rows
                .iter()
                .filter(|r| r.rate_per_ms == tiny().rates[i])
                .map(|r| r.seed)
                .collect();
            assert_eq!(seeds.len(), 4);
            assert!(
                seeds.windows(2).all(|w| w[0] == w[1]),
                "engines must share the point seed"
            );
        }
        // Every engine completed the full workload.
        for r in &s.rows {
            assert_eq!(r.transactions, 10 * 16, "{} completed all txns", r.engine);
        }
        // Only Dragon produces update traffic; it never invalidates.
        for r in &s.rows {
            if r.engine == "dragon" {
                assert_eq!(r.invalidations, 0, "dragon never invalidates");
            } else {
                assert_eq!(r.updates, 0, "{} never updates in place", r.engine);
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
            assert_eq!(a.engine, b.engine);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.transactions, b.transactions);
            assert_eq!(a.efficiency.to_bits(), b.efficiency.to_bits());
            assert_eq!(a.mean_latency_ns.to_bits(), b.mean_latency_ns.to_bits());
        }
    }

    #[test]
    fn render_groups_rows_by_engine() {
        let s = run_shootout(&Pool::serial(), 4, &tiny());
        let text = render_shootout("shootout", &s.rows);
        assert!(text.contains("multicube"));
        assert!(text.contains("mesi"));
        assert!(text.contains("dragon"));
        assert!(text.contains("writeonce"));
        assert!(!text.contains("NaN"), "{text}");
    }
}
