//! The runner behind every measured point in `figures`, and the sweeps
//! matching the paper's figures.
//!
//! A measured point is a job plus its replay coordinates ([`Point`]).
//! [`measure`] fans a list of them out through the deterministic worker
//! pool ([`multicube_sim::pool`]): results come back in stable job order
//! (so output is byte-identical at any worker count), and a panicking job
//! becomes a [`PointFailure`] carrying its `(series, index, rate, seed)`
//! coordinates instead of tearing down the figure or table it belongs
//! to. [`run_points`] is its synthetic case: each point one fresh machine
//! running the closed-loop synthetic workload ([`SimPoint`]).
//!
//! Every figure is a matrix of such points — one per `(series, rate)`
//! pair. Seeds follow the workspace splitting scheme
//! ([`multicube_sim::split_seed`]): each point draws from the stream
//! `(sweep.seed, stream_id(namespace, label), point index)`, so two series
//! sweeping the same rate grid — and two harnesses sharing the default
//! base seed — never replay each other's RNG streams.

use multicube::{LatencyMode, Machine, MachineConfig, RunReport, SyntheticSpec};
use multicube_mva::{FigurePoint, FigureSeries};
use multicube_sim::pool::Pool;
use multicube_sim::{split_seed, stream_id};

/// Sweep parameters shared by all simulated figures.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Offered request rates (requests/ms/processor) to sample.
    pub rates: Vec<f64>,
    /// Blocking requests issued per processor at each point.
    pub txns_per_node: u64,
    /// Base RNG seed (each point derives its own stream from this, the
    /// harness namespace, the series label and the point index).
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            rates: vec![2.0, 6.0, 10.0, 15.0, 20.0, 25.0, 30.0],
            txns_per_node: 40,
            seed: 0x5EED,
        }
    }
}

impl SweepConfig {
    /// A fast sweep for smoke-testing (three points, few transactions).
    pub fn quick() -> Self {
        SweepConfig {
            rates: vec![2.0, 10.0, 25.0],
            txns_per_node: 15,
            seed: 0x5EED,
        }
    }

    /// The seed for one `(series stream, point index)` of this sweep.
    pub fn point_seed(&self, stream: u64, index: usize) -> u64 {
        split_seed(self.seed, stream, index as u64)
    }
}

/// One measured point whose job panicked instead of producing its
/// result: everything needed to replay it, plus the panic message and
/// location.
#[derive(Debug, Clone, PartialEq)]
pub struct PointFailure {
    /// The series the point belonged to.
    pub series: String,
    /// The point's index within its series.
    pub index: usize,
    /// The offered request rate of the failed point (0 where the point
    /// has no rate).
    pub rate_per_ms: f64,
    /// The point's seed (replay: same config, this seed).
    pub seed: u64,
    /// The contained panic payload.
    pub message: String,
    /// Where the job panicked (see [`multicube_sim::pool::JobPanic`]).
    pub location: Option<String>,
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "series {} point {} (rate {} req/ms, seed {:#x})",
            self.series, self.index, self.rate_per_ms, self.seed
        )?;
        if let Some(location) = &self.location {
            write!(f, " panicked at {location}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// One measured point: its replay coordinates and the job that measures
/// it. Everything that can fail — building the machine included — belongs
/// in the job, so a bad point is contained rather than fatal.
pub struct Point<'a, R> {
    /// The series the point belongs to.
    pub series: String,
    /// The point's index within its series.
    pub index: usize,
    /// Offered request rate (requests/ms/processor); 0 where the point
    /// has no rate.
    pub rate_per_ms: f64,
    /// The point's seed.
    pub seed: u64,
    /// Measures the point; runs on a pool worker.
    pub job: Box<dyn FnOnce() -> R + Send + 'a>,
}

/// The rows a table measured from its points, plus the points that
/// failed (the table simply skips their rows).
#[derive(Debug, Clone)]
pub struct Measured<R> {
    /// Rows of the points that completed, in point order.
    pub rows: Vec<R>,
    /// Points that panicked, with replay coordinates, in point order.
    pub failures: Vec<PointFailure>,
}

/// Runs every point's job on the pool and returns, in point order, the
/// result of each job that completed and the [`PointFailure`] of each
/// that panicked.
pub fn measure<R: Send>(pool: &Pool, points: Vec<Point<'_, R>>) -> Measured<R> {
    let (coordinates, jobs): (Vec<_>, Vec<_>) = points
        .into_iter()
        .map(|p| ((p.series, p.index, p.rate_per_ms, p.seed), p.job))
        .unzip();
    let results = pool.map(jobs, |_, job| job());
    let mut measured = Measured {
        rows: Vec::new(),
        failures: Vec::new(),
    };
    for ((series, index, rate_per_ms, seed), result) in coordinates.into_iter().zip(results) {
        match result {
            Ok(row) => measured.rows.push(row),
            Err(panic) => measured.failures.push(PointFailure {
                series,
                index,
                rate_per_ms,
                seed,
                message: panic.message,
                location: panic.location,
            }),
        }
    }
    measured
}

/// One simulated point: a fresh machine running the closed-loop synthetic
/// workload, with its replay coordinates.
#[derive(Debug, Clone)]
pub struct SimPoint {
    /// The series the point belongs to.
    pub series: String,
    /// The point's index within its series.
    pub index: usize,
    /// Offered request rate (requests/ms/processor), applied to `spec`.
    pub rate_per_ms: f64,
    /// The machine's seed.
    pub seed: u64,
    /// The machine to build.
    pub config: MachineConfig,
    /// The workload; its rate is replaced by `rate_per_ms`.
    pub spec: SyntheticSpec,
    /// Blocking requests issued per processor.
    pub txns_per_node: u64,
}

/// The synthetic case of [`measure`]: point `i` is `point(i, params[i])`,
/// and its row is `row(params[i], report)`, measured in its job from the
/// run's report.
pub fn run_points<P, R>(
    pool: &Pool,
    params: &[P],
    point: impl Fn(usize, P) -> SimPoint,
    row: impl Fn(P, RunReport) -> R + Sync,
) -> Measured<R>
where
    P: Copy + Send,
    R: Send,
{
    let row = &row;
    let points = params
        .iter()
        .enumerate()
        .map(|(i, &param)| {
            let p = point(i, param);
            Point {
                series: p.series,
                index: p.index,
                rate_per_ms: p.rate_per_ms,
                seed: p.seed,
                job: Box::new(move || {
                    // The spec's rate validation and the machine run in
                    // the job, so a bad point is contained.
                    let spec = p.spec.with_request_rate_per_ms(p.rate_per_ms);
                    let mut machine = Machine::new(p.config, p.seed).expect("valid configuration");
                    row(param, machine.run_synthetic(&spec, p.txns_per_node))
                }),
            }
        })
        .collect();
    measure(pool, points)
}

/// What the run behind one simulated point recorded beside its
/// [`FigurePoint`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointRun {
    /// The derived per-point seed (replay coordinates).
    pub seed: u64,
    /// Bus operations per completed transaction.
    pub ops_per_txn: f64,
    /// Transactions completed (processors × transactions per node).
    pub completed: u64,
}

/// One simulated series: the measured curve plus any contained per-point
/// failures (the curve simply skips failed points).
#[derive(Debug, Clone)]
pub struct SimSeries {
    /// The measured efficiency/utilization curve.
    pub series: FigureSeries,
    /// The run behind each point of `series`, in the same order.
    pub runs: Vec<PointRun>,
    /// Points that panicked, with replay coordinates.
    pub failures: Vec<PointFailure>,
}

/// Extracts the renderable curves from a simulated figure.
pub fn series_view(sims: &[SimSeries]) -> Vec<FigureSeries> {
    sims.iter().map(|s| s.series.clone()).collect()
}

/// Collects every contained failure of a simulated figure.
pub fn collect_failures(sims: &[SimSeries]) -> Vec<PointFailure> {
    sims.iter().flat_map(|s| s.failures.clone()).collect()
}

/// One series' inputs in a figure matrix: label, machine configuration and
/// workload base (the rate is applied per point).
struct SeriesSpec {
    label: String,
    config: MachineConfig,
    spec_base: SyntheticSpec,
}

/// Runs a whole figure — every `(series, rate)` pair — through
/// [`run_points`] and reassembles the curves in series/point order.
fn sim_matrix(
    pool: &Pool,
    namespace: &str,
    specs: Vec<SeriesSpec>,
    sweep: &SweepConfig,
) -> Vec<SimSeries> {
    let streams: Vec<u64> = specs
        .iter()
        .map(|s| stream_id(namespace, &s.label))
        .collect();
    let params: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|series| (0..sweep.rates.len()).map(move |index| (series, index)))
        .collect();
    let point = |_, (series, index): (usize, usize)| SimPoint {
        series: specs[series].label.clone(),
        index,
        rate_per_ms: sweep.rates[index],
        seed: sweep.point_seed(streams[series], index),
        config: specs[series].config.clone(),
        spec: specs[series].spec_base.clone(),
        txns_per_node: sweep.txns_per_node,
    };
    let table = run_points(pool, &params, point, |(series, index), report| {
        let point = FigurePoint {
            rate_per_ms: sweep.rates[index],
            efficiency: report.efficiency,
            rho_row: report.utilization.row_mean,
            rho_col: report.utilization.col_mean,
        };
        let run = PointRun {
            seed: sweep.point_seed(streams[series], index),
            ops_per_txn: report.ops_per_transaction(),
            completed: report.transactions_completed,
        };
        (series, point, run)
    });
    specs
        .into_iter()
        .enumerate()
        .map(|(series, s)| {
            let (points, runs) = table
                .rows
                .iter()
                .filter(|row| row.0 == series)
                .map(|&(_, point, run)| (point, run))
                .unzip();
            SimSeries {
                failures: table
                    .failures
                    .iter()
                    .filter(|f| f.series == s.label)
                    .cloned()
                    .collect(),
                series: FigureSeries {
                    label: s.label,
                    points,
                },
                runs,
            }
        })
        .collect()
}

/// Figure 2's grid sides: n = 8 to 32, 64 to 1024 processors.
pub const FIGURE2_SIDES: [u32; 4] = [8, 16, 24, 32];

/// Figure 2 (simulated): efficiency vs. request rate for the given grid
/// sides (paper: [`FIGURE2_SIDES`]). The scaling study's grid is this
/// sweep too.
pub fn sim_figure2(pool: &Pool, ns: &[u32], sweep: &SweepConfig) -> Vec<SimSeries> {
    let specs = ns
        .iter()
        .map(|&n| SeriesSpec {
            label: format!("n={n}"),
            config: MachineConfig::grid(n).expect("valid n"),
            spec_base: SyntheticSpec::default(),
        })
        .collect();
    sim_matrix(pool, "fig2", specs, sweep)
}

/// Figure 3 (simulated): the invalidation sweep on an `n x n` machine.
///
/// Runs with the machine's *broadcast sharing filter* enabled so the
/// invalidation fan-out only happens when shared copies exist — matching
/// the accounting of the paper's analytical model, whose Figure 3 knob is
/// "the probability that an invalidation operation is required". With the
/// faithful protocol (filter off) the fan-out always happens and the
/// curves coincide; `figures -- fig3` documents both.
pub fn sim_figure3(pool: &Pool, invals: &[f64], n: u32, sweep: &SweepConfig) -> Vec<SimSeries> {
    let specs = invals
        .iter()
        .map(|&i| SeriesSpec {
            label: format!("inval={:.0}%", i * 100.0),
            config: MachineConfig::grid(n)
                .expect("valid n")
                .with_broadcast_filter(true),
            spec_base: SyntheticSpec::default().with_p_invalidation(i),
        })
        .collect();
    sim_matrix(pool, "fig3", specs, sweep)
}

/// Figure 4 (simulated): the block-size sweep on an `n x n` machine.
pub fn sim_figure4(pool: &Pool, blocks: &[u32], n: u32, sweep: &SweepConfig) -> Vec<SimSeries> {
    let specs = blocks
        .iter()
        .map(|&b| SeriesSpec {
            label: format!("block={b}"),
            config: MachineConfig::grid(n).expect("valid n").with_block_words(b),
            spec_base: SyntheticSpec::default(),
        })
        .collect();
    sim_matrix(pool, "fig4", specs, sweep)
}

/// E-5.1 (simulated): the §5 latency-reduction modes implemented by the
/// machine (store-and-forward, requested-word-first, pieces).
pub fn sim_latency_modes(pool: &Pool, n: u32, sweep: &SweepConfig) -> Vec<SimSeries> {
    let specs = [
        ("store-and-forward", LatencyMode::StoreAndForward),
        ("word-first", LatencyMode::RequestedWordFirst),
        ("pieces(4)", LatencyMode::Pieces { words: 4 }),
    ]
    .iter()
    .map(|(label, mode)| SeriesSpec {
        label: (*label).to_string(),
        config: MachineConfig::grid(n)
            .expect("valid n")
            .with_latency_mode(*mode),
        spec_base: SyntheticSpec::default(),
    })
    .collect();
    sim_matrix(pool, "latency", specs, sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            rates: vec![5.0, 25.0],
            txns_per_node: 10,
            seed: 7,
        }
    }

    #[test]
    fn sim_figure2_produces_ordered_points() {
        let series = sim_figure2(&Pool::serial(), &[4], &tiny());
        assert_eq!(series.len(), 1);
        assert!(series[0].failures.is_empty());
        let pts = &series[0].series.points;
        assert_eq!(pts.len(), 2);
        assert!(pts[0].rate_per_ms < pts[1].rate_per_ms);
        assert!(pts[0].efficiency >= pts[1].efficiency);
        let stream = stream_id("fig2", "n=4");
        for (i, run) in series[0].runs.iter().enumerate() {
            assert_eq!(run.seed, tiny().point_seed(stream, i));
            assert_eq!(run.completed, 16 * 10);
            assert!(run.ops_per_txn > 0.0);
        }
    }

    #[test]
    fn sim_figure3_labels_follow_invals() {
        let series = sim_figure3(&Pool::serial(), &[0.1, 0.5], 4, &tiny());
        assert_eq!(series[0].series.label, "inval=10%");
        assert_eq!(series[1].series.label, "inval=50%");
    }

    #[test]
    fn sim_figure4_bigger_blocks_cost_more_utilization() {
        let series = sim_figure4(&Pool::serial(), &[4, 64], 4, &tiny());
        let small_tail = series[0].series.points.last().unwrap();
        let large_tail = series[1].series.points.last().unwrap();
        assert!(large_tail.rho_row >= small_tail.rho_row);
    }

    #[test]
    fn sim_latency_modes_run() {
        let series = sim_latency_modes(&Pool::serial(), 4, &tiny());
        assert_eq!(series.len(), 3);
    }

    /// The seed-correlation bugfix, pinned: two series sweeping the *same*
    /// rate grid draw different per-point seeds (and therefore different
    /// RNG streams) because the series label is folded into the stream.
    #[test]
    fn same_rate_different_series_draw_different_streams() {
        let sweep = tiny();
        let s_a = stream_id("fig2", "n=4");
        let s_b = stream_id("fig2", "n=8");
        for i in 0..sweep.rates.len() {
            assert_ne!(
                sweep.point_seed(s_a, i),
                sweep.point_seed(s_b, i),
                "point {i} seeds collide across series"
            );
        }
        // And across harnesses sharing the default base seed: a fig2
        // series and a fig3 series never replay each other's streams.
        assert_ne!(
            sweep.point_seed(stream_id("fig2", "n=4"), 0),
            sweep.point_seed(stream_id("fig3", "n=4"), 0),
        );
    }

    /// A poisoned point (zero rate fails `SyntheticSpec` validation inside
    /// the job) is contained: the rest of the series completes and the
    /// failure carries the replay coordinates.
    #[test]
    fn poisoned_point_is_contained_with_replay_coordinates() {
        let sweep = SweepConfig {
            rates: vec![5.0, 0.0, 25.0],
            txns_per_node: 8,
            seed: 7,
        };
        for workers in [1usize, 2] {
            let pool = Pool::new(workers);
            let sim = sim_figure2(&pool, &[4], &sweep).pop().unwrap();
            assert_eq!(sim.series.points.len(), 2, "two good points survive");
            assert_eq!(sim.failures.len(), 1);
            let f = &sim.failures[0];
            assert_eq!((f.index, f.rate_per_ms), (1, 0.0));
            assert_eq!(f.series, "n=4");
            assert_eq!(f.seed, sweep.point_seed(stream_id("fig2", "n=4"), 1));
            assert!(f.message.contains("must be positive"), "{}", f.message);
            let text = f.to_string();
            assert!(text.contains("rate 0 req/ms"), "{text}");
        }
    }
}
