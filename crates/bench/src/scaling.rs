//! The 1024-processor scaling study: the paper's headline claim, measured.
//!
//! §1 proposes a 32×32 grid of 1024 processors; Figure 2 sweeps n =
//! 8..32. The study's grid half *is* the simulated Figure 2
//! ([`sim_figure2`] over [`FIGURE2_SIDES`] and the default
//! [`SweepConfig`], on the figure's own seeds): every grid side against
//! every request rate, with efficiency, bus utilization, bus operations
//! per transaction and completions per point. Its cube half runs full
//! k = 3 Multicubes. This module lays out both as tables (`figures --
//! scaling`) and as the committed JSON artifact (`BENCH_scaling.json`),
//! so scaling regressions are diffable in review.
//!
//! Cube seeds derive from `(study seed, stream_id("scaling", "cube"),
//! side)`.
//!
//! [`sim_figure2`]: crate::sim_figure2

use multicube::pdes::{run_cube, CubeConfig};
use multicube_mva::FigurePoint;
use multicube_sim::pool::Pool;
use multicube_sim::{split_seed, stream_id};

use crate::json::{self, Value};
use crate::simfig::{measure, Measured, Point, PointRun, SimSeries, SweepConfig, FIGURE2_SIDES};
use crate::table::Table;

/// Identifies the JSON layout; bump when the schema changes shape.
/// v2 added the `cube` section (the parallel n³ scaling study); v3 added
/// per-leg full-mode timing records; v4 replaced the legs with one
/// parallel timing per point, with its round and message counts; v5
/// stamps the study's `mode`: `"full"` for the committed study, `"quick"`
/// for any smaller one; v6 drops the round and message counts, which
/// are a constant and twice `remote_ops`; v7 drops the cube's wall-clock
/// timing, so the whole artifact is deterministic; v8 drops the
/// `failures` count, which was always 0 because a study that lost points
/// writes no artifact.
pub const SCALING_SCHEMA: &str = "multicube-bench-scaling/v8";

/// Parameters of the cube study: full k = 3 Multicubes of `side` planes
/// × `side`² processors each, the planes run in parallel
/// ([`run_cube`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CubeStudyConfig {
    /// Cube sides to sweep (`n` ⇒ `n³` processors).
    pub sides: Vec<u32>,
    /// Blocking transactions per processor within each plane.
    pub txns_per_node: u64,
    /// Open-loop cross-plane depth-bus ops issued per plane.
    pub remote_ops: u64,
    /// Mean gap between a plane's remote issues (ns).
    pub remote_gap_ns: f64,
    /// Base RNG seed of the study.
    pub seed: u64,
    /// Worker threads for the parallel execution (at least 2 are used).
    pub workers: usize,
}

impl CubeStudyConfig {
    /// The full study: n ∈ {8, 16, 24, 32} — 512 to 32768 processors.
    pub fn full(workers: usize) -> Self {
        CubeStudyConfig {
            sides: vec![8, 16, 24, 32],
            txns_per_node: 4,
            remote_ops: 256,
            remote_gap_ns: 250.0,
            seed: 0x5EED,
            workers,
        }
    }

    /// The CI smoke study: tiny cubes.
    pub fn quick(workers: usize) -> Self {
        CubeStudyConfig {
            sides: vec![3, 4],
            txns_per_node: 3,
            remote_ops: 16,
            remote_gap_ns: 200.0,
            seed: 0x5EED,
            workers,
        }
    }

    fn cube_config(&self, side: u32, workers: usize) -> CubeConfig {
        let mut cfg = CubeConfig::new(side);
        cfg.txns_per_node = self.txns_per_node;
        cfg.remote_ops = self.remote_ops;
        cfg.remote_gap_ns = self.remote_gap_ns;
        cfg.seed = split_seed(self.seed, stream_id("scaling", "cube"), u64::from(side));
        cfg.workers = workers;
        cfg
    }
}

/// The `mode` a scaling report records: `"full"` for the committed study
/// (Figure 2's full sweep with a [`CubeStudyConfig::full`] cube at any
/// worker count), `"quick"` for any smaller one.
fn scaling_mode(
    sides: &[u32],
    sweep: &SweepConfig,
    cube: Option<&CubeStudyConfig>,
) -> &'static str {
    let full_cube = cube.is_some_and(|c| *c == CubeStudyConfig::full(c.workers));
    if sides == FIGURE2_SIDES && *sweep == SweepConfig::default() && full_cube {
        "full"
    } else {
        "quick"
    }
}

/// One measured cube of the cube study. Every field is a deterministic
/// function of the configuration, independent of the worker count, which
/// is what lets CI byte-diff the artifact across worker counts and
/// against the committed file.
#[derive(Debug, Clone, PartialEq)]
pub struct CubePoint {
    /// Cube side.
    pub side: u32,
    /// Total processors (`side³`).
    pub processors: u64,
    /// Transactions completed across all planes.
    pub transactions: u64,
    /// Cross-plane depth-bus ops serviced.
    pub remote_ops: u64,
    /// Machine events delivered across all planes.
    pub events: u64,
    /// Mean plane efficiency.
    pub mean_efficiency: f64,
    /// The run's fingerprint (also asserted equal between the serial and
    /// parallel runs before this point is recorded).
    pub fingerprint: String,
}

/// Runs the cube study, one point per side, in `sides` order. The points
/// run one at a time on a serial pool: [`run_cube`] already runs each
/// cube's planes in parallel.
///
/// Every point executes serially first (the reference), then reruns on at
/// least 2 workers; the rerun's fingerprint is asserted identical to the
/// reference inside the point's job, so the committed artifact is itself
/// a determinism proof across worker counts, and a divergence fails only
/// its own point.
pub fn run_cube_study(config: &CubeStudyConfig) -> Measured<CubePoint> {
    let points = config
        .sides
        .iter()
        .enumerate()
        .map(|(index, &side)| {
            let serial_config = config.cube_config(side, 1);
            Point {
                series: format!("cube n={side}"),
                index,
                rate_per_ms: 0.0,
                seed: serial_config.seed,
                job: Box::new(move || cube_point(config, serial_config)),
            }
        })
        .collect();
    measure(&Pool::serial(), points)
}

/// Runs one cube of the study serially and in parallel, and records it.
fn cube_point(config: &CubeStudyConfig, serial_config: CubeConfig) -> CubePoint {
    let side = serial_config.side;
    let serial = run_cube(&serial_config);
    let fingerprint = serial.fingerprint();
    let workers = config.workers.max(2);
    let parallel = run_cube(&config.cube_config(side, workers));
    assert_eq!(
        parallel.fingerprint(),
        fingerprint,
        "cube side {side} diverged between 1 and {workers} workers"
    );

    let transactions = serial
        .planes
        .iter()
        .map(|p| p.run.transactions_completed)
        .sum();
    let remote_ops = serial.planes.iter().map(|p| p.depth.serviced).sum();
    let mean_efficiency =
        serial.planes.iter().map(|p| p.run.efficiency).sum::<f64>() / serial.planes.len() as f64;
    CubePoint {
        side,
        processors: serial.processors,
        transactions,
        remote_ops,
        events: serial.events_delivered,
        mean_efficiency,
        fingerprint,
    }
}

/// `sides` joined as `a/b/c`, for a title.
fn joined(sides: &[u32]) -> String {
    sides
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join("/")
}

/// The cube study's measured `points` as a table.
pub fn cube_table(config: &CubeStudyConfig, points: &[CubePoint]) -> Table {
    Table::new(
        "cube",
        format!(
            "Cube scaling study (planes in parallel): n = {}",
            joined(&config.sides)
        ),
        points,
        &[
            ("n", None, &|p| p.side.into()),
            ("procs", None, &|p| p.processors.into()),
            ("txns", None, &|p| p.transactions.into()),
            ("remote", None, &|p| p.remote_ops.into()),
            ("events", None, &|p| p.events.into()),
            ("eff", Some(4), &|p| p.mean_efficiency.into()),
            ("fingerprint", None, &|p| p.fingerprint.as_str().into()),
        ],
    )
}

/// One row of the grid table or report: a simulated Figure-2 point with
/// the side of its machine.
struct GridRow<'a> {
    n: u32,
    point: &'a FigurePoint,
    run: &'a PointRun,
}

impl GridRow<'_> {
    fn processors(&self) -> u32 {
        self.n * self.n
    }

    /// Efficiency × processors: the machine's effective parallelism at
    /// this operating point — the number the paper's speedup claim is
    /// about.
    fn effective_processors(&self) -> f64 {
        self.point.efficiency * f64::from(self.processors())
    }
}

/// The grid's rows in `(n, rate)` order: `sims` is `sim_figure2` over
/// `sides`.
fn grid_rows<'a>(sides: &'a [u32], sims: &'a [SimSeries]) -> impl Iterator<Item = GridRow<'a>> {
    sides.iter().zip(sims).flat_map(|(&n, sim)| {
        sim.series
            .points
            .iter()
            .zip(&sim.runs)
            .map(move |(point, run)| GridRow { n, point, run })
    })
}

/// The grid as a table: efficiency, effective processors and bus
/// utilization per point of `sims`, [`sim_figure2`] over `sides`.
///
/// [`sim_figure2`]: crate::sim_figure2
pub fn scaling_grid_table(sides: &[u32], sims: &[SimSeries]) -> Table {
    let rows: Vec<GridRow<'_>> = grid_rows(sides, sims).collect();
    Table::new(
        "scaling_grid",
        format!(
            "Scaling study: efficiency and bus utilization, n = {}",
            joined(sides)
        ),
        &rows,
        &[
            ("n", None, &|r| r.n.into()),
            ("procs", None, &|r| r.processors().into()),
            ("rate/ms", Some(1), &|r| r.point.rate_per_ms.into()),
            ("efficiency", Some(4), &|r| r.point.efficiency.into()),
            ("eff procs", Some(1), &|r| r.effective_processors().into()),
            ("rho row", Some(4), &|r| r.point.rho_row.into()),
            ("rho col", Some(4), &|r| r.point.rho_col.into()),
            ("ops/txn", Some(2), &|r| r.run.ops_per_txn.into()),
            ("completed", None, &|r| r.run.completed.into()),
        ],
    )
}

/// Renders the study as the `BENCH_scaling.json` artifact: the grid
/// (`sims`, [`sim_figure2`] over `sides` and `sweep`), then `cube`, when
/// present, as a `"cube"` section: the cube study's configuration and
/// its measured points. No field depends on the host.
///
/// [`sim_figure2`]: crate::sim_figure2
pub fn render_scaling_json(
    sides: &[u32],
    sweep: &SweepConfig,
    sims: &[SimSeries],
    cube: Option<(&CubeStudyConfig, &[CubePoint])>,
) -> String {
    let points = grid_rows(sides, sims).map(|r| {
        json::obj([
            ("n", r.n.into()),
            ("processors", r.processors().into()),
            ("rate_per_ms", r.point.rate_per_ms.into()),
            ("seed", r.run.seed.into()),
            ("efficiency", Value::fixed(r.point.efficiency, 6)),
            (
                "effective_processors",
                Value::fixed(r.effective_processors(), 2),
            ),
            ("rho_row", Value::fixed(r.point.rho_row, 6)),
            ("rho_col", Value::fixed(r.point.rho_col, 6)),
            ("ops_per_txn", Value::fixed(r.run.ops_per_txn, 4)),
            ("completed", r.run.completed.into()),
        ])
    });
    let mut report = vec![
        ("schema", SCALING_SCHEMA.into()),
        (
            "mode",
            scaling_mode(sides, sweep, cube.map(|(config, _)| config)).into(),
        ),
        ("seed", sweep.seed.into()),
        ("txns_per_node", sweep.txns_per_node.into()),
        ("ns", sides.iter().copied().collect()),
        ("rates_per_ms", sweep.rates.iter().copied().collect()),
        ("points", Value::Arr(points.collect())),
    ];
    if let Some((config, points)) = cube {
        let points = points.iter().map(|p| {
            json::obj([
                ("side", p.side.into()),
                ("processors", p.processors.into()),
                ("transactions", p.transactions.into()),
                ("remote_ops", p.remote_ops.into()),
                ("events", p.events.into()),
                ("mean_efficiency", Value::fixed(p.mean_efficiency, 6)),
                ("fingerprint", p.fingerprint.as_str().into()),
            ])
        });
        report.push((
            "cube",
            json::obj([
                ("seed", config.seed.into()),
                ("txns_per_node", config.txns_per_node.into()),
                ("remote_ops_per_plane", config.remote_ops.into()),
                ("sides", config.sides.iter().copied().collect()),
                ("points", Value::Arr(points.collect())),
            ]),
        ));
    }
    json::obj(report).pretty()
}

/// Validates that `text` is a scaling report this module wrote for a grid
/// of `sides` swept by `sweep`, and `cube`: the schema and mode, the
/// `(n, rate_per_ms)` points of `sides × rates` in order, and — when
/// `cube` is given — a fingerprinted cube point per configured side, in
/// order.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn validate_scaling_report(
    text: &str,
    sides: &[u32],
    sweep: &SweepConfig,
    cube: Option<&CubeStudyConfig>,
) -> Result<(), String> {
    let report = json::parse_artifact(text, SCALING_SCHEMA, scaling_mode(sides, sweep, cube))?;
    let points = report
        .array_field("points")?
        .iter()
        .map(|p| Ok((p.u64_field("n")?, p.f64_field("rate_per_ms")?)))
        .collect::<Result<Vec<_>, String>>()?;
    let expected: Vec<(u64, f64)> = sides
        .iter()
        .flat_map(|&n| sweep.rates.iter().map(move |&r| (u64::from(n), r)))
        .collect();
    if points != expected {
        return Err(format!(
            "expected (n, rate) points {expected:?}, found {points:?}"
        ));
    }
    match (cube, report.get("cube")) {
        (None, None) => Ok(()),
        (None, Some(_)) => Err("unexpected cube section".to_string()),
        (Some(_), None) => Err("missing cube section".to_string()),
        (Some(cube), Some(section)) => {
            let points = section.array_field("points")?;
            let sides = points
                .iter()
                .map(|p| p.u64_field("side"))
                .collect::<Result<Vec<_>, String>>()?;
            let expected: Vec<u64> = cube.sides.iter().map(|&s| u64::from(s)).collect();
            if sides != expected {
                return Err(format!("expected cube sides {expected:?}, found {sides:?}"));
            }
            for (p, side) in points.iter().zip(sides) {
                p.str_field("fingerprint")
                    .map_err(|e| format!("cube side {side}: {e}"))?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simfig::sim_figure2;
    use multicube_sim::pool::Pool;

    const SIDES: [u32; 2] = [2, 4];

    fn tiny() -> SweepConfig {
        SweepConfig {
            rates: vec![5.0, 25.0],
            txns_per_node: 8,
            seed: 7,
        }
    }

    fn tiny_grid() -> Vec<SimSeries> {
        sim_figure2(&Pool::serial(), &SIDES, &tiny())
    }

    #[test]
    fn study_covers_the_full_matrix_in_order() {
        let sims = tiny_grid();
        let report = json::parse(&render_scaling_json(&SIDES, &tiny(), &sims, None)).unwrap();
        let points = report.array_field("points").unwrap();
        let shape: Vec<(u64, f64)> = points
            .iter()
            .map(|p| {
                (
                    p.u64_field("n").unwrap(),
                    p.f64_field("rate_per_ms").unwrap(),
                )
            })
            .collect();
        assert_eq!(shape, vec![(2, 5.0), (2, 25.0), (4, 5.0), (4, 25.0)]);
        for (p, (n, i)) in points.iter().zip([(2, 0), (2, 1), (4, 0), (4, 1)]) {
            let processors = p.u64_field("processors").unwrap();
            assert_eq!(processors, n * n);
            assert_eq!(p.u64_field("completed"), Ok(processors * 8));
            let efficiency = p.f64_field("efficiency").unwrap();
            assert!(efficiency > 0.0 && efficiency <= 1.0);
            // The grid runs on Figure 2's own seeds.
            assert_eq!(
                p.u64_field("seed"),
                Ok(tiny().point_seed(stream_id("fig2", &format!("n={n}")), i))
            );
        }
    }

    #[test]
    fn bigger_machines_scale_effective_processors() {
        let sims = tiny_grid();
        let rows: Vec<GridRow<'_>> = grid_rows(&SIDES, &sims).collect();
        let small = &rows[0]; // n=2 at 5 req/ms
        let large = &rows[2]; // n=4 at 5 req/ms
        assert!(large.effective_processors() > small.effective_processors() * 2.0);
    }

    #[test]
    fn json_roundtrips_and_validates() {
        let sims = tiny_grid();
        let json = render_scaling_json(&SIDES, &tiny(), &sims, None);
        validate_scaling_report(&json, &SIDES, &tiny(), None).unwrap();
        assert!(json.contains("\"mode\": \"quick\""));
        assert!(validate_scaling_report(&json, &[2, 4, 8], &tiny(), None).is_err());
        assert!(validate_scaling_report("{}", &SIDES, &tiny(), None).is_err());
    }

    fn tiny_cube() -> CubeStudyConfig {
        CubeStudyConfig {
            sides: vec![2, 3],
            txns_per_node: 2,
            remote_ops: 8,
            remote_gap_ns: 150.0,
            seed: 7,
            workers: 2,
        }
    }

    #[test]
    fn cube_study_records_deterministic_points() {
        let cube = run_cube_study(&tiny_cube());
        assert!(cube.failures.is_empty(), "{:?}", cube.failures);
        assert_eq!(cube.rows.len(), 2);
        for (p, side) in cube.rows.iter().zip([2u64, 3]) {
            assert_eq!(p.side as u64, side);
            assert_eq!(p.processors, side.pow(3));
            assert_eq!(p.transactions, side.pow(3) * 2);
            assert_eq!(p.remote_ops, side * 8);
            assert!(p.events > 0);
            assert!(p.mean_efficiency > 0.0 && p.mean_efficiency <= 1.0);
        }
        // Deterministic end to end: a replay reproduces every field.
        assert_eq!(run_cube_study(&tiny_cube()).rows, cube.rows);
    }

    /// `run_cube` rejects a NaN remote gap, so the cube fails as one
    /// point naming its side and seed instead of ending the study.
    #[test]
    fn a_cube_that_panics_is_one_failure() {
        for workers in [1, 3] {
            let config = CubeStudyConfig {
                sides: vec![3],
                remote_gap_ns: f64::NAN,
                workers,
                ..tiny_cube()
            };
            let study = run_cube_study(&config);
            assert!(study.rows.is_empty());
            assert_eq!(study.failures.len(), 1);
            let f = &study.failures[0];
            assert_eq!((f.series.as_str(), f.index), ("cube n=3", 0));
            assert_eq!(f.seed, config.cube_config(3, 1).seed);
            assert!(f.message.contains("remote_gap_ns"), "{}", f.message);
        }
    }

    #[test]
    fn cube_json_is_worker_count_invariant_and_validates() {
        let sims = tiny_grid();
        let cube_cfg = tiny_cube();
        let cube = run_cube_study(&cube_cfg).rows;
        let json = render_scaling_json(&SIDES, &tiny(), &sims, Some((&cube_cfg, &cube)));
        validate_scaling_report(&json, &SIDES, &tiny(), Some(&cube_cfg)).unwrap();
        // The cube section renders byte-identically at a different worker
        // count — the in-process version of the CI byte-diff across
        // MULTICUBE_POOL_WORKERS.
        let mut other = tiny_cube();
        other.workers = 4;
        let other_cube = run_cube_study(&other).rows;
        let json_other = render_scaling_json(&SIDES, &tiny(), &sims, Some((&other, &other_cube)));
        assert_eq!(json, json_other);
        // A cube-less report no longer validates against a cube config.
        let plain = render_scaling_json(&SIDES, &tiny(), &sims, None);
        assert!(validate_scaling_report(&plain, &SIDES, &tiny(), Some(&cube_cfg)).is_err());
        assert!(validate_scaling_report(&json, &SIDES, &tiny(), None).is_err());
    }

    #[test]
    fn only_the_committed_study_is_full_mode() {
        let full = SweepConfig::default();
        assert_eq!(
            scaling_mode(&FIGURE2_SIDES, &full, Some(&CubeStudyConfig::full(2))),
            "full"
        );
        assert_eq!(
            scaling_mode(&FIGURE2_SIDES, &full, Some(&CubeStudyConfig::full(7))),
            "full"
        );
        assert_eq!(scaling_mode(&FIGURE2_SIDES, &full, None), "quick");
        assert_eq!(
            scaling_mode(&FIGURE2_SIDES, &full, Some(&CubeStudyConfig::quick(2))),
            "quick"
        );
        let fewer = SweepConfig {
            txns_per_node: 10,
            ..full.clone()
        };
        assert_eq!(
            scaling_mode(&FIGURE2_SIDES, &fewer, Some(&CubeStudyConfig::full(2))),
            "quick"
        );
        assert_eq!(
            scaling_mode(&[8, 16], &full, Some(&CubeStudyConfig::full(2))),
            "quick"
        );
        assert_eq!(
            scaling_mode(
                &[4, 8],
                &SweepConfig::quick(),
                Some(&CubeStudyConfig::quick(2))
            ),
            "quick"
        );
        // A quick report does not pass for the full study, nor a report
        // stamped full for a smaller one.
        let json = render_scaling_json(&SIDES, &tiny(), &tiny_grid(), None);
        let full_cube = CubeStudyConfig::full(2);
        assert_eq!(
            validate_scaling_report(&json, &FIGURE2_SIDES, &full, Some(&full_cube)),
            Err("expected a full-mode report".to_string())
        );
        let stamped = json.replace("\"mode\": \"quick\"", "\"mode\": \"full\"");
        assert_eq!(
            validate_scaling_report(&stamped, &SIDES, &tiny(), None),
            Err("expected a quick-mode report".to_string())
        );
    }

    #[test]
    fn render_has_a_row_per_point() {
        let sims = tiny_grid();
        let text = scaling_grid_table(&SIDES, &sims).text();
        assert!(text.contains("== Scaling study"));
        assert_eq!(text.lines().count(), 2 + SIDES.len() * tiny().rates.len());
    }
}
