//! CSV export of figure series and run telemetry, for plotting outside
//! the harness.

use std::io::Write;
use std::path::Path;

use multicube::RunReport;
use multicube_mva::FigureSeries;

/// Writes one figure's series as a CSV table: a `rate_per_ms` column
/// followed by one efficiency column per curve.
///
/// The shared rate column is only meaningful if every series agrees on
/// the rate at each row index (shorter series simply end early). A file
/// that silently paired row `i`'s rate from one series with row `i`'s
/// efficiency from a series swept over a *different* rate grid would
/// mislabel every such point, so mismatched grids are an error.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file, and returns
/// [`std::io::ErrorKind::InvalidData`] when two series disagree on the
/// rate at the same row index.
pub fn write_series_csv(path: &Path, series: &[FigureSeries]) -> std::io::Result<()> {
    let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..rows {
        let mut at_i = series.iter().filter_map(|s| s.points.get(i));
        if let Some(first) = at_i.next() {
            if let Some(other) = at_i.find(|p| p.rate_per_ms != first.rate_per_ms) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "series disagree on the rate grid at row {i}: {} vs {} \
                         requests/ms; a shared rate_per_ms column would mislabel \
                         these points",
                        first.rate_per_ms, other.rate_per_ms
                    ),
                ));
            }
        }
    }
    let mut f = std::fs::File::create(path)?;
    write!(f, "rate_per_ms")?;
    for s in series {
        write!(f, ",{}", s.label.replace(',', ";"))?;
    }
    writeln!(f)?;
    for i in 0..rows {
        let rate = series
            .iter()
            .find_map(|s| s.points.get(i))
            .map(|p| p.rate_per_ms)
            .unwrap_or(0.0);
        write!(f, "{rate}")?;
        for s in series {
            match s.points.get(i) {
                Some(p) => write!(f, ",{}", p.efficiency)?,
                None => write!(f, ",")?,
            }
        }
        writeln!(f)?;
    }
    Ok(())
}

/// Writes a run's per-bus telemetry: one row per bus with utilization,
/// op counts and the observed queue high-water mark.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_bus_telemetry_csv(path: &Path, report: &RunReport) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "bus,utilization,ops,data_ops,duplicates,queue_high_water"
    )?;
    for b in &report.buses {
        writeln!(
            f,
            "{},{},{},{},{},{}",
            b.id, b.utilization, b.ops, b.data_ops, b.duplicates, b.queue_high_water
        )?;
    }
    Ok(())
}

/// Writes a run's per-transaction-class statistics, including the latency
/// histogram as `bucket_ns:count` pairs (power-of-two bucket lower bounds).
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_class_stats_csv(path: &Path, report: &RunReport) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "class,count,mean_bus_ops,mean_latency_ns,p50_ns,p90_ns,p99_ns,\
         retries,max_retries,backoff_ns,latency_hist"
    )?;
    for (name, s) in report.metrics.classes() {
        let q = |q: f64| {
            s.latency_hist
                .quantile(q)
                .map(|v| v.to_string())
                .unwrap_or_default()
        };
        let hist: Vec<String> = s
            .latency_hist
            .iter()
            .map(|(bucket, count)| format!("{bucket}:{count}"))
            .collect();
        writeln!(
            f,
            "{},{},{},{},{},{},{},{},{},{},{}",
            name.replace(',', ";"),
            s.count,
            s.bus_ops.mean(),
            s.latency_ns.mean(),
            q(0.5),
            q(0.9),
            q(0.99),
            s.retries.get(),
            s.max_retries,
            s.backoff_ns.get(),
            hist.join(" ")
        )?;
    }
    Ok(())
}

/// Writes the protocol shootout: one row per `(engine, rate)` point,
/// engines grouped in `EngineKind::all()` order so equal-rate rows from
/// different engines are a fixed stride apart. The seed column makes the
/// identical-workload guarantee auditable: rows at the same rate carry
/// the same seed for every engine.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_shootout_csv(
    path: &Path,
    rows: &[crate::shootout::ShootoutRow],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "engine,n,rate_per_ms,seed,efficiency,transactions,bus_ops_per_txn,\
         invalidations,updates,mean_latency_ns,peak_bus_utilization"
    )?;
    for r in rows {
        writeln!(
            f,
            "{},{},{},{:#x},{},{},{},{},{},{},{}",
            r.engine,
            r.n,
            r.rate_per_ms,
            r.seed,
            r.efficiency,
            r.transactions,
            r.bus_ops_per_txn,
            r.invalidations,
            r.updates,
            r.mean_latency_ns,
            r.peak_bus_utilization
        )?;
    }
    Ok(())
}

/// Writes the composite fault sweep: one row per fault probability with
/// the measured completion latency, retry/backoff cost and per-class
/// fault counters.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_fault_sweep_csv(
    path: &Path,
    rows: &[crate::tables::FaultSweepRow],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "probability,efficiency,mean_latency_ns,retries,max_retries,backoff_ns,\
         lost_ops,duplicated_ops,memory_nacks,mlt_delays,blackouts,watchdog_trips,completed"
    )?;
    for r in rows {
        writeln!(
            f,
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.probability,
            r.efficiency,
            r.mean_latency_ns,
            r.retries,
            r.max_retries,
            r.backoff_ns,
            r.lost_ops,
            r.duplicated_ops,
            r.memory_nacks,
            r.mlt_delays,
            r.blackouts,
            r.watchdog_trips,
            r.completed
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use multicube_mva::FigurePoint;

    #[test]
    fn csv_roundtrip_shape() {
        let series = vec![
            FigureSeries {
                label: "a".into(),
                points: vec![
                    FigurePoint {
                        rate_per_ms: 1.0,
                        efficiency: 0.9,
                        rho_row: 0.1,
                        rho_col: 0.1,
                    },
                    FigurePoint {
                        rate_per_ms: 2.0,
                        efficiency: 0.8,
                        rho_row: 0.2,
                        rho_col: 0.2,
                    },
                ],
            },
            FigureSeries {
                label: "b,with-comma".into(),
                points: vec![FigurePoint {
                    rate_per_ms: 1.0,
                    efficiency: 0.7,
                    rho_row: 0.3,
                    rho_col: 0.3,
                }],
            },
        ];
        let dir = std::env::temp_dir().join("multicube_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig.csv");
        write_series_csv(&path, &series).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "rate_per_ms,a,b;with-comma");
        assert!(lines[1].starts_with("1,0.9,0.7"));
        assert!(lines[2].starts_with("2,0.8,"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_rate_grids_are_rejected() {
        // Two curves swept over different rate grids: a shared rate column
        // would label series b's 5.0-requests/ms point as 1.0.
        let point = |rate: f64, eff: f64| FigurePoint {
            rate_per_ms: rate,
            efficiency: eff,
            rho_row: 0.0,
            rho_col: 0.0,
        };
        let series = vec![
            FigureSeries {
                label: "a".into(),
                points: vec![point(1.0, 0.9)],
            },
            FigureSeries {
                label: "b".into(),
                points: vec![point(5.0, 0.7)],
            },
        ];
        let dir = std::env::temp_dir().join("multicube_csv_mismatch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig.csv");
        let err = write_series_csv(&path, &series).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("row 0"), "{err}");
        assert!(!path.exists(), "no partial file on rejection");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_csvs_have_one_row_per_bus_and_class() {
        use multicube::{Machine, MachineConfig, SyntheticSpec};
        let mut m = Machine::new(MachineConfig::grid(4).unwrap(), 19).unwrap();
        let report = m.run_synthetic(&SyntheticSpec::default(), 30);

        let dir = std::env::temp_dir().join("multicube_telemetry_csv_test");
        std::fs::create_dir_all(&dir).unwrap();

        let bus_path = dir.join("buses.csv");
        write_bus_telemetry_csv(&bus_path, &report).unwrap();
        let text = std::fs::read_to_string(&bus_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "bus,utilization,ops,data_ops,duplicates,queue_high_water"
        );
        // A 4x4 grid has 4 row buses and 4 column buses.
        assert_eq!(lines.len(), 1 + 8);
        assert!(lines[1].starts_with("row0,"));

        let class_path = dir.join("classes.csv");
        write_class_stats_csv(&class_path, &report).unwrap();
        let text = std::fs::read_to_string(&class_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 8, "one row per transaction class");
        assert!(lines[0].contains("retries,max_retries,backoff_ns"));
        assert!(lines.iter().any(|l| l.starts_with("READ unmodified,")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_sweep_csv_has_one_row_per_probability() {
        let rows = crate::tables::fault_sweep_rows(
            &multicube_sim::pool::Pool::serial(),
            3,
            &[0.0, 0.25],
            15,
        )
        .rows;
        let dir = std::env::temp_dir().join("multicube_fault_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("faults.csv");
        write_fault_sweep_csv(&path, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("probability,efficiency,mean_latency_ns"));
        assert_eq!(lines.len(), 1 + 2);
        assert!(lines[1].starts_with("0,"));
        assert!(lines[2].starts_with("0.25,"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
