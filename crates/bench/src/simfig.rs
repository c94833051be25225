//! Discrete-event simulation sweeps matching the paper's figures.
//!
//! Every figure is a matrix of independent machine runs — one per
//! `(series, rate)` pair. The whole matrix fans out through the
//! deterministic worker pool ([`multicube_sim::pool`]): results come back
//! in stable job order (so output is byte-identical at any worker count),
//! and a panicking point becomes a [`PointFailure`] carrying its
//! `(series, rate, seed)` replay coordinates instead of tearing down the
//! figure.
//!
//! Seeds follow the workspace splitting scheme
//! ([`multicube_sim::split_seed`]): each point draws from the stream
//! `(sweep.seed, stream_id(namespace, label), point index)`, so two series
//! sweeping the same rate grid — and two harnesses sharing the default
//! base seed — never replay each other's RNG streams.

use multicube::{LatencyMode, Machine, MachineConfig, SyntheticSpec};
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

/// One sweep point that panicked instead of producing a [`FigurePoint`]:
/// everything needed to replay it, plus the panic message.
#[derive(Debug, Clone, PartialEq)]
pub struct PointFailure {
    /// The series the point belonged to.
    pub series: String,
    /// The point's index within the series' rate grid.
    pub index: usize,
    /// The offered request rate of the failed point.
    pub rate_per_ms: f64,
    /// The derived per-point seed (replay: same config, this seed).
    pub seed: u64,
    /// The contained panic payload.
    pub message: String,
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "series {} point {} (rate {} req/ms, seed {:#x}): {}",
            self.series, self.index, self.rate_per_ms, self.seed, self.message
        )
    }
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

/// Renders contained sweep-point failures for a figure's output (empty
/// string when the figure is clean).
pub fn render_failures(title: &str, sims: &[SimSeries]) -> String {
    let failures = collect_failures(sims);
    if failures.is_empty() {
        return String::new();
    }
    let mut out = format!("!! {title}: {} point(s) failed:\n", failures.len());
    for f in &failures {
        out.push_str(&format!("!!   {f}\n"));
    }
    out
}

/// One series' inputs in a figure matrix: label, machine configuration and
/// workload base (the rate is applied per point).
struct SeriesSpec {
    label: String,
    config: MachineConfig,
    spec_base: SyntheticSpec,
}

/// Runs a whole figure — every `(series, rate)` pair — through the pool
/// and reassembles the curves in series/point order.
fn sim_matrix(
    pool: &Pool,
    namespace: &str,
    specs: Vec<SeriesSpec>,
    sweep: &SweepConfig,
) -> Vec<SimSeries> {
    let rates = sweep.rates.clone();
    let jobs: Vec<_> = specs
        .iter()
        .flat_map(|s| {
            let stream = stream_id(namespace, &s.label);
            rates.iter().enumerate().map(move |(i, &rate)| {
                (s, i, rate, sweep.point_seed(stream, i), sweep.txns_per_node)
            })
        })
        .collect();
    let results = pool.map(jobs, |_, (s, _i, rate, seed, txns)| {
        // The spec (and its rate validation) is built *inside* the job so
        // a bad point is contained rather than fatal.
        let spec = s.spec_base.clone().with_request_rate_per_ms(rate);
        let mut machine = Machine::new(s.config.clone(), seed).expect("valid configuration");
        let report = machine.run_synthetic(&spec, txns);
        let point = FigurePoint {
            rate_per_ms: rate,
            efficiency: report.efficiency,
            rho_row: report.utilization.row_mean,
            rho_col: report.utilization.col_mean,
        };
        let run = PointRun {
            seed,
            ops_per_txn: report.ops_per_transaction(),
            completed: report.transactions_completed,
        };
        (point, run)
    });

    let per_series = rates.len();
    specs
        .iter()
        .zip(results.chunks(per_series.max(1)))
        .map(|(s, chunk)| {
            let stream = stream_id(namespace, &s.label);
            let mut points = Vec::with_capacity(per_series);
            let mut runs = Vec::with_capacity(per_series);
            let mut failures = Vec::new();
            for (i, r) in chunk.iter().enumerate() {
                match r {
                    Ok((point, run)) => {
                        points.push(*point);
                        runs.push(*run);
                    }
                    Err(panic) => failures.push(PointFailure {
                        series: s.label.clone(),
                        index: i,
                        rate_per_ms: rates[i],
                        seed: sweep.point_seed(stream, i),
                        message: panic.message.clone(),
                    }),
                }
            }
            SimSeries {
                series: FigureSeries {
                    label: s.label.clone(),
                    points,
                },
                runs,
                failures,
            }
        })
        .collect()
}

/// Runs one machine configuration across the sweep's rates on the pool
/// and returns the measured efficiency curve plus contained failures.
///
/// `namespace` names the harness (e.g. `"fig2"`); together with the label
/// it selects the series' seed stream, so same-label series in different
/// harnesses — and different-label series in the same harness — draw
/// independent RNG streams.
pub fn sim_series(
    pool: &Pool,
    namespace: &str,
    label: impl Into<String>,
    config: &MachineConfig,
    spec_base: &SyntheticSpec,
    sweep: &SweepConfig,
) -> SimSeries {
    let specs = vec![SeriesSpec {
        label: label.into(),
        config: config.clone(),
        spec_base: spec_base.clone(),
    }];
    sim_matrix(pool, namespace, specs, sweep)
        .pop()
        .expect("one series in, one series out")
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
            let sim = sim_series(
                &pool,
                "fig2",
                "n=4",
                &MachineConfig::grid(4).unwrap(),
                &SyntheticSpec::default(),
                &sweep,
            );
            assert_eq!(sim.series.points.len(), 2, "two good points survive");
            assert_eq!(sim.failures.len(), 1);
            let f = &sim.failures[0];
            assert_eq!((f.index, f.rate_per_ms), (1, 0.0));
            assert_eq!(f.series, "n=4");
            assert_eq!(f.seed, sweep.point_seed(stream_id("fig2", "n=4"), 1));
            assert!(f.message.contains("must be positive"), "{}", f.message);
            let text = render_failures("fig", &[sim]);
            assert!(text.contains("rate 0 req/ms"), "{text}");
        }
    }
}
