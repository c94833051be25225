//! The 1024-processor scaling study: the paper's headline claim, measured.
//!
//! §1 proposes a 32×32 grid of 1024 processors; Figure 2 sweeps n =
//! 8..32. This module runs the full cross product — every grid side
//! against every request rate — on the deterministic worker pool,
//! recording efficiency *and* bus utilization per point, and emits the
//! results both as a table (`figures -- scaling`) and as a committed JSON
//! artifact (`BENCH_scaling.json`) so scaling regressions are diffable in
//! review.
//!
//! Seeds follow the workspace splitting scheme: point seeds derive from
//! `(study seed, stream_id("scaling", "n=<side>"), rate index)`, so the
//! study shares no RNG stream with the figure sweeps even at the default
//! base seed.

use multicube::pdes::{run_cube, CubeConfig};
use multicube::{Machine, MachineConfig, SyntheticSpec};
use multicube_sim::pool::Pool;
use multicube_sim::{split_seed, stream_id};
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::{self, Value};
use crate::simfig::PointFailure;

/// Identifies the JSON layout; bump when the schema changes shape.
/// v2 added the `cube` section (the parallel n³ scaling study); v3 added
/// per-leg full-mode timing records; v4 replaced the legs with one
/// parallel timing per point, with its round and message counts; v5
/// stamps the study's `mode`: `"full"` for the committed study, `"quick"`
/// for any smaller one; v6 drops the round and message counts, which
/// are a constant and twice `remote_ops`.
pub const SCALING_SCHEMA: &str = "multicube-bench-scaling/v6";

/// The harness namespace folded into every point seed.
const NAMESPACE: &str = "scaling";

/// Study parameters: which machines, which operating points.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingStudyConfig {
    /// Grid sides to sweep (`n` ⇒ `n²` processors).
    pub ns: Vec<u32>,
    /// Offered request rates (requests/ms/processor) per machine.
    pub rates: Vec<f64>,
    /// Blocking requests issued per processor at each point.
    pub txns_per_node: u64,
    /// Base RNG seed of the study.
    pub seed: u64,
}

impl ScalingStudyConfig {
    /// The full study: the paper's n ∈ {8, 16, 24, 32} (64 to 1024
    /// processors) across the Figure 2 rate grid.
    pub fn full() -> Self {
        ScalingStudyConfig {
            ns: vec![8, 16, 24, 32],
            rates: vec![2.0, 6.0, 10.0, 15.0, 20.0, 25.0, 30.0],
            txns_per_node: 40,
            seed: 0x5EED,
        }
    }

    /// The CI smoke study: small grids, three rates, few transactions.
    pub fn quick() -> Self {
        ScalingStudyConfig {
            ns: vec![4, 8],
            rates: vec![2.0, 10.0, 25.0],
            txns_per_node: 15,
            seed: 0x5EED,
        }
    }

    /// The seed for one `(grid side, rate index)` point of this study.
    pub fn point_seed(&self, n: u32, index: usize) -> u64 {
        split_seed(
            self.seed,
            stream_id(NAMESPACE, &format!("n={n}")),
            index as u64,
        )
    }
}

/// One measured operating point of the study.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Grid side.
    pub n: u32,
    /// Total processors (`n²`).
    pub processors: u32,
    /// Offered request rate (requests/ms/processor).
    pub rate_per_ms: f64,
    /// The derived per-point seed (replay coordinates).
    pub seed: u64,
    /// Processor efficiency (think / (think + blocked)).
    pub efficiency: f64,
    /// Efficiency × processors: the machine's effective parallelism at
    /// this operating point — the number the paper's speedup claim is
    /// about.
    pub effective_processors: f64,
    /// Mean row-bus utilization.
    pub rho_row: f64,
    /// Mean column-bus utilization.
    pub rho_col: f64,
    /// Bus operations per completed transaction.
    pub ops_per_txn: f64,
    /// Transactions completed (must equal `processors × txns_per_node`).
    pub completed: u64,
}

/// The study's outcome: measured points in `(n, rate)` order plus any
/// contained per-point failures.
#[derive(Debug, Clone)]
pub struct ScalingStudy {
    /// The configuration the study ran under.
    pub config: ScalingStudyConfig,
    /// Measured points, ordered by grid side then rate.
    pub points: Vec<ScalingPoint>,
    /// Points that panicked, with replay coordinates.
    pub failures: Vec<PointFailure>,
}

/// Runs the study's full `(n, rate)` matrix on the pool.
pub fn run_scaling_study(pool: &Pool, config: &ScalingStudyConfig) -> ScalingStudy {
    let jobs: Vec<(u32, usize, f64)> = config
        .ns
        .iter()
        .flat_map(|&n| {
            config
                .rates
                .iter()
                .enumerate()
                .map(move |(i, &r)| (n, i, r))
        })
        .collect();
    let txns = config.txns_per_node;
    let results = pool.map(jobs.clone(), |_, (n, i, rate)| {
        let seed = config.point_seed(n, i);
        let machine_config = MachineConfig::grid(n).expect("valid grid side");
        let spec = SyntheticSpec::default().with_request_rate_per_ms(rate);
        let mut m = Machine::new(machine_config, seed).expect("valid configuration");
        let report = m.run_synthetic(&spec, txns);
        ScalingPoint {
            n,
            processors: n * n,
            rate_per_ms: rate,
            seed,
            efficiency: report.efficiency,
            effective_processors: report.efficiency * f64::from(n * n),
            rho_row: report.utilization.row_mean,
            rho_col: report.utilization.col_mean,
            ops_per_txn: report.ops_per_transaction(),
            completed: report.transactions_completed,
        }
    });
    let mut points = Vec::new();
    let mut failures = Vec::new();
    for ((n, i, rate), result) in jobs.into_iter().zip(results) {
        match result {
            Ok(p) => points.push(p),
            Err(panic) => failures.push(PointFailure {
                series: format!("n={n}"),
                index: i,
                rate_per_ms: rate,
                seed: config.point_seed(n, i),
                message: panic.message,
            }),
        }
    }
    ScalingStudy {
        config: config.clone(),
        points,
        failures,
    }
}

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
    /// Worker threads for the parallel execution.
    pub workers: usize,
    /// Measure wall-clock serial-vs-parallel timing. Off in quick mode so
    /// the JSON carries only deterministic fields and stays byte-identical
    /// across worker counts for the CI determinism diff; the fingerprint
    /// column (checked serial-vs-parallel inside the run) is the
    /// worker-invariance evidence.
    pub measure: bool,
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
            measure: true,
        }
    }

    /// The CI smoke study: tiny cubes, deterministic fields only.
    pub fn quick(workers: usize) -> Self {
        CubeStudyConfig {
            sides: vec![3, 4],
            txns_per_node: 3,
            remote_ops: 16,
            remote_gap_ns: 200.0,
            seed: 0x5EED,
            workers,
            measure: false,
        }
    }

    fn cube_config(&self, side: u32, workers: usize) -> CubeConfig {
        let mut cfg = CubeConfig::new(side);
        cfg.txns_per_node = self.txns_per_node;
        cfg.remote_ops = self.remote_ops;
        cfg.remote_gap_ns = self.remote_gap_ns;
        cfg.seed = split_seed(self.seed, stream_id(NAMESPACE, "cube"), u64::from(side));
        cfg.workers = workers;
        // The per-plane coherence checker is O(lines × nodes) per plane and
        // orthogonal to what this study measures; the quick study keeps it
        // on as a smoke check, the big full-mode cubes turn it off.
        cfg.check = !self.measure;
        cfg
    }
}

/// The `mode` a scaling report records: `"full"` for the committed study
/// ([`ScalingStudyConfig::full`] with a measured [`CubeStudyConfig::full`]
/// cube at any worker count), `"quick"` for any smaller one.
fn scaling_mode(config: &ScalingStudyConfig, cube: Option<&CubeStudyConfig>) -> &'static str {
    let full_cube = cube.is_some_and(|c| *c == CubeStudyConfig::full(c.workers));
    if *config == ScalingStudyConfig::full() && full_cube {
        "full"
    } else {
        "quick"
    }
}

/// Wall-clock measurements of one cube point: the serial reference and
/// one parallel execution at `workers` threads. Full mode only — wall
/// time is host-dependent by nature, so it never appears in the
/// deterministic quick artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct CubeTiming {
    /// Host threads available (`std::thread::available_parallelism`) —
    /// context for reading the speedup: a 1-thread host cannot show one.
    pub host_parallelism: usize,
    /// Serial (1-worker) wall time, ms.
    pub serial_ms: f64,
    /// Machine events per second, serial execution.
    pub events_per_sec_serial: f64,
    /// Worker threads of the parallel execution.
    pub workers: usize,
    /// Parallel wall time, ms.
    pub parallel_ms: f64,
    /// Serial wall time / parallel wall time.
    pub speedup: f64,
    /// Machine events per second, parallel execution.
    pub events_per_sec: f64,
}

/// One measured cube of the cube study. All fields except
/// `timing` are deterministic functions of the configuration — and
/// independent of the worker count, which is what lets CI byte-diff the
/// quick artifact across worker counts.
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
    /// Wall-clock comparison; `None` when the study has `measure` off.
    pub timing: Option<CubeTiming>,
}

/// The cube study's outcome, in `sides` order.
#[derive(Debug, Clone)]
pub struct CubeStudy {
    /// The configuration the study ran under.
    pub config: CubeStudyConfig,
    /// Measured cubes, ordered by side.
    pub points: Vec<CubePoint>,
}

/// Runs the cube study. [`run_cube`] parallelizes internally (across
/// planes), so points run one at a time rather than on the pool — the
/// timed runs must not compete with sibling points for cores.
///
/// Every point executes serially first (the reference), then reruns at
/// the configured worker count; full mode times a second serial run and
/// the parallel run. Every rerun's fingerprint is asserted identical to
/// the reference before the point is recorded, so the committed artifact
/// is itself a determinism proof across worker counts.
pub fn run_cube_study(config: &CubeStudyConfig) -> CubeStudy {
    let points = config
        .sides
        .iter()
        .map(|&side| {
            // The first run doubles as the warmup: it faults in the
            // point's working set, so the timed runs below all start
            // with a warm allocator instead of the first-comer paying
            // the cold-page cost (which biased whichever run came first
            // by up to 3x before the warmup was split out).
            let serial = run_cube(&config.cube_config(side, 1));
            let fingerprint = serial.fingerprint();

            let workers = config.workers.max(if config.measure { 2 } else { 1 });
            let timing = if config.measure {
                let start = Instant::now();
                let serial_timed = run_cube(&config.cube_config(side, 1));
                let serial_ms = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(serial_timed.fingerprint(), fingerprint);

                let start = Instant::now();
                let parallel = run_cube(&config.cube_config(side, workers));
                let parallel_ms = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(
                    parallel.fingerprint(),
                    fingerprint,
                    "cube side {side} diverged between 1 and {workers} workers"
                );
                Some(CubeTiming {
                    host_parallelism: std::thread::available_parallelism()
                        .map(std::num::NonZero::get)
                        .unwrap_or(1),
                    serial_ms,
                    events_per_sec_serial: serial.events_delivered as f64 / (serial_ms / 1e3),
                    workers,
                    parallel_ms,
                    speedup: serial_ms / parallel_ms.max(f64::MIN_POSITIVE),
                    events_per_sec: parallel.events_delivered as f64 / (parallel_ms / 1e3),
                })
            } else {
                if workers > 1 {
                    let parallel = run_cube(&config.cube_config(side, workers));
                    assert_eq!(
                        parallel.fingerprint(),
                        fingerprint,
                        "cube side {side} diverged between 1 and {workers} workers"
                    );
                }
                None
            };

            let transactions = serial
                .planes
                .iter()
                .map(|p| p.run.transactions_completed)
                .sum();
            let remote_ops = serial.planes.iter().map(|p| p.depth.serviced).sum();
            let mean_efficiency = serial.planes.iter().map(|p| p.run.efficiency).sum::<f64>()
                / serial.planes.len() as f64;
            CubePoint {
                side,
                processors: serial.processors,
                transactions,
                remote_ops,
                events: serial.events_delivered,
                mean_efficiency,
                fingerprint,
                timing,
            }
        })
        .collect();
    CubeStudy {
        config: config.clone(),
        points,
    }
}

/// Renders the cube study as an ASCII table.
pub fn render_cube_study(study: &CubeStudy) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Cube scaling study (planes in parallel): n = {} ==",
        study
            .config
            .sides
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("/")
    );
    let _ = writeln!(
        out,
        "{:>4} {:>7} {:>8} {:>7} {:>9} {:>8}  fingerprint",
        "n", "procs", "txns", "remote", "events", "eff"
    );
    for p in &study.points {
        let _ = writeln!(
            out,
            "{:>4} {:>7} {:>8} {:>7} {:>9} {:>8.4}  {}",
            p.side,
            p.processors,
            p.transactions,
            p.remote_ops,
            p.events,
            p.mean_efficiency,
            p.fingerprint
        );
    }
    if study.points.iter().any(|p| p.timing.is_some()) {
        let _ = writeln!(
            out,
            "{:>4} {:>7} {:>10} {:>11} {:>8} {:>12} {:>12}",
            "n", "workers", "serial ms", "parallel ms", "speedup", "ev/s serial", "ev/s par"
        );
        for p in &study.points {
            if let Some(t) = &p.timing {
                let _ = writeln!(
                    out,
                    "{:>4} {:>7} {:>10.1} {:>11.1} {:>8.2} {:>12.0} {:>12.0}  (host threads: {})",
                    p.side,
                    t.workers,
                    t.serial_ms,
                    t.parallel_ms,
                    t.speedup,
                    t.events_per_sec_serial,
                    t.events_per_sec,
                    t.host_parallelism
                );
            }
        }
    }
    out
}

/// Renders the study as ASCII tables: one efficiency/utilization block per
/// grid side, then the effective-parallelism summary across sides.
pub fn render_scaling_study(study: &ScalingStudy) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Scaling study: efficiency and bus utilization, n = {} ==",
        study
            .config
            .ns
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("/")
    );
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>8} {:>11} {:>11} {:>8} {:>8} {:>9} {:>10}",
        "n",
        "procs",
        "rate/ms",
        "efficiency",
        "eff procs",
        "rho row",
        "rho col",
        "ops/txn",
        "completed"
    );
    for p in &study.points {
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>8.1} {:>11.4} {:>11.1} {:>8.4} {:>8.4} {:>9.2} {:>10}",
            p.n,
            p.processors,
            p.rate_per_ms,
            p.efficiency,
            p.effective_processors,
            p.rho_row,
            p.rho_col,
            p.ops_per_txn,
            p.completed
        );
    }
    for f in &study.failures {
        let _ = writeln!(out, "!! failed point: {f}");
    }
    out
}

/// The timing fields of a measured cube point, in written order.
const TIMING_KEYS: [&str; 7] = [
    "host_parallelism",
    "serial_ms",
    "events_per_sec_serial",
    "workers",
    "parallel_ms",
    "speedup",
    "events_per_sec",
];

/// Renders the study as the `BENCH_scaling.json` artifact. `cube`, when
/// present, is emitted as a `"cube"` section after the grid points; its
/// timing fields appear only for full-mode (measured) studies, keeping
/// quick-mode output free of host-dependent bytes.
pub fn render_scaling_json(study: &ScalingStudy, cube: Option<&CubeStudy>) -> String {
    let points = study.points.iter().map(|p| {
        json::obj([
            ("n", p.n.into()),
            ("processors", p.processors.into()),
            ("rate_per_ms", p.rate_per_ms.into()),
            ("seed", p.seed.into()),
            ("efficiency", Value::fixed(p.efficiency, 6)),
            (
                "effective_processors",
                Value::fixed(p.effective_processors, 2),
            ),
            ("rho_row", Value::fixed(p.rho_row, 6)),
            ("rho_col", Value::fixed(p.rho_col, 6)),
            ("ops_per_txn", Value::fixed(p.ops_per_txn, 4)),
            ("completed", p.completed.into()),
        ])
    });
    let config = &study.config;
    let mut report = vec![
        ("schema", SCALING_SCHEMA.into()),
        ("mode", scaling_mode(config, cube.map(|c| &c.config)).into()),
        ("seed", config.seed.into()),
        ("txns_per_node", config.txns_per_node.into()),
        ("ns", config.ns.iter().copied().collect()),
        ("rates_per_ms", config.rates.iter().copied().collect()),
        ("failures", study.failures.len().into()),
        ("points", Value::Arr(points.collect())),
    ];
    if let Some(cube) = cube {
        let points = cube.points.iter().map(|p| {
            let mut members = vec![
                ("side", p.side.into()),
                ("processors", p.processors.into()),
                ("transactions", p.transactions.into()),
                ("remote_ops", p.remote_ops.into()),
                ("events", p.events.into()),
                ("mean_efficiency", Value::fixed(p.mean_efficiency, 6)),
                ("fingerprint", p.fingerprint.as_str().into()),
            ];
            if let Some(t) = &p.timing {
                let values = [
                    t.host_parallelism.into(),
                    Value::fixed(t.serial_ms, 3),
                    Value::fixed(t.events_per_sec_serial, 0),
                    t.workers.into(),
                    Value::fixed(t.parallel_ms, 3),
                    Value::fixed(t.speedup, 4),
                    Value::fixed(t.events_per_sec, 0),
                ];
                members.extend(TIMING_KEYS.into_iter().zip(values));
            }
            json::obj(members)
        });
        report.push((
            "cube",
            json::obj([
                ("seed", cube.config.seed.into()),
                ("txns_per_node", cube.config.txns_per_node.into()),
                ("remote_ops_per_plane", cube.config.remote_ops.into()),
                ("sides", cube.config.sides.iter().copied().collect()),
                ("points", Value::Arr(points.collect())),
            ]),
        ));
    }
    json::obj(report).pretty()
}

/// Validates that `text` is a scaling report this module wrote for
/// `config` and `cube`: the schema and mode, no recorded failures, the
/// `(n, rate_per_ms)` points of `ns × rates` in order, and — when `cube`
/// is given — a fingerprinted cube point per configured side, in order,
/// with timing fields exactly when the cube study measures.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn validate_scaling_report(
    text: &str,
    config: &ScalingStudyConfig,
    cube: Option<&CubeStudyConfig>,
) -> Result<(), String> {
    let report = json::parse_artifact(text, SCALING_SCHEMA, scaling_mode(config, cube))?;
    if report.u64_field("failures")? != 0 {
        return Err("report records contained point failures".to_string());
    }
    let points = report
        .array_field("points")?
        .iter()
        .map(|p| Ok((p.u64_field("n")?, p.f64_field("rate_per_ms")?)))
        .collect::<Result<Vec<_>, String>>()?;
    let expected: Vec<(u64, f64)> = config
        .ns
        .iter()
        .flat_map(|&n| config.rates.iter().map(move |&r| (u64::from(n), r)))
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
                for key in TIMING_KEYS {
                    if p.get(key).is_some() != cube.measure {
                        return Err(format!(
                            "cube side {side}: `{key}` must be recorded exactly when the study measures"
                        ));
                    }
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScalingStudyConfig {
        ScalingStudyConfig {
            ns: vec![2, 4],
            rates: vec![5.0, 25.0],
            txns_per_node: 8,
            seed: 7,
        }
    }

    #[test]
    fn study_covers_the_full_matrix_in_order() {
        let study = run_scaling_study(&Pool::serial(), &tiny());
        assert!(study.failures.is_empty());
        let shape: Vec<(u32, f64)> = study.points.iter().map(|p| (p.n, p.rate_per_ms)).collect();
        assert_eq!(shape, vec![(2, 5.0), (2, 25.0), (4, 5.0), (4, 25.0)]);
        for p in &study.points {
            assert_eq!(p.completed, u64::from(p.processors) * 8);
            assert!(p.efficiency > 0.0 && p.efficiency <= 1.0);
            assert_eq!(
                p.seed,
                tiny().point_seed(p.n, usize::from(p.rate_per_ms > 5.0))
            );
        }
    }

    #[test]
    fn bigger_machines_scale_effective_processors() {
        let study = run_scaling_study(&Pool::serial(), &tiny());
        let small = &study.points[0]; // n=2 at 5 req/ms
        let large = &study.points[2]; // n=4 at 5 req/ms
        assert!(large.effective_processors > small.effective_processors * 2.0);
    }

    #[test]
    fn study_seeds_are_disjoint_from_figure_sweeps() {
        let cfg = ScalingStudyConfig::full();
        let sweep = crate::simfig::SweepConfig::default();
        // Same base seed (0x5EED), same label shape ("n=8"), same index —
        // different namespace, therefore a different stream.
        assert_ne!(
            cfg.point_seed(8, 0),
            sweep.point_seed(multicube_sim::stream_id("fig2", "n=8"), 0)
        );
    }

    #[test]
    fn json_roundtrips_and_validates() {
        let cfg = tiny();
        let study = run_scaling_study(&Pool::serial(), &cfg);
        let json = render_scaling_json(&study, None);
        validate_scaling_report(&json, &cfg, None).unwrap();
        assert!(json.contains("\"mode\": \"quick\""));
        let wrong = ScalingStudyConfig {
            ns: vec![2, 4, 8],
            ..cfg
        };
        assert!(validate_scaling_report(&json, &wrong, None).is_err());
        assert!(validate_scaling_report("{}", &tiny(), None).is_err());
        // `figures` validates before it writes, so a failed point fails it.
        let failed = json.replace("\"failures\": 0", "\"failures\": 1");
        assert_eq!(
            validate_scaling_report(&failed, &tiny(), None),
            Err("report records contained point failures".to_string())
        );
    }

    fn tiny_cube() -> CubeStudyConfig {
        CubeStudyConfig {
            sides: vec![2, 3],
            txns_per_node: 2,
            remote_ops: 8,
            remote_gap_ns: 150.0,
            seed: 7,
            workers: 2,
            measure: false,
        }
    }

    #[test]
    fn cube_study_records_deterministic_points() {
        let cube = run_cube_study(&tiny_cube());
        assert_eq!(cube.points.len(), 2);
        for (p, side) in cube.points.iter().zip([2u64, 3]) {
            assert_eq!(p.side as u64, side);
            assert_eq!(p.processors, side.pow(3));
            assert_eq!(p.transactions, side.pow(3) * 2);
            assert_eq!(p.remote_ops, side * 8);
            assert!(p.events > 0);
            assert!(p.mean_efficiency > 0.0 && p.mean_efficiency <= 1.0);
            assert!(p.timing.is_none(), "quick studies must not record timing");
        }
        // Deterministic end to end: a replay reproduces every field.
        assert_eq!(run_cube_study(&tiny_cube()).points, cube.points);
    }

    #[test]
    fn cube_json_is_worker_count_invariant_and_validates() {
        let cfg = tiny();
        let study = run_scaling_study(&Pool::serial(), &cfg);
        let cube_cfg = tiny_cube();
        let cube = run_cube_study(&cube_cfg);
        let json = render_scaling_json(&study, Some(&cube));
        validate_scaling_report(&json, &cfg, Some(&cube_cfg)).unwrap();
        // The cube section must not leak wall-clock bytes in quick mode...
        assert!(!json.contains("\"serial_ms\""));
        assert!(!json.contains("\"workers\""));
        assert!(!json.contains("\"parallel_ms\""));
        // ...and must render byte-identically at a different worker count
        // — the in-process version of the CI byte-diff across
        // MULTICUBE_POOL_WORKERS.
        let mut other = tiny_cube();
        other.workers = 4;
        let json_other = render_scaling_json(&study, Some(&run_cube_study(&other)));
        assert_eq!(json, json_other);
        // A cube-less report no longer validates against a cube config.
        let plain = render_scaling_json(&study, None);
        assert!(validate_scaling_report(&plain, &cfg, Some(&cube_cfg)).is_err());
        assert!(validate_scaling_report(&json, &cfg, None).is_err());
    }

    #[test]
    fn measured_cube_study_embeds_one_parallel_timing() {
        let mut cfg = tiny_cube();
        cfg.sides = vec![2];
        cfg.measure = true;
        let cube = run_cube_study(&cfg);
        let t = cube.points[0].timing.as_ref().expect("timing recorded");
        assert!(t.serial_ms > 0.0 && t.events_per_sec_serial > 0.0);
        assert_eq!(t.workers, 2);
        assert!(t.parallel_ms > 0.0 && t.speedup > 0.0 && t.events_per_sec > 0.0);
        let json = render_scaling_json(&run_scaling_study(&Pool::serial(), &tiny()), Some(&cube));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"host_parallelism\""));
        assert!(json.contains("\"parallel_ms\""));
        validate_scaling_report(&json, &tiny(), Some(&cfg)).unwrap();
        // A quick config rejects the measured report, and vice versa.
        let quick = CubeStudyConfig {
            measure: false,
            ..cfg.clone()
        };
        assert!(validate_scaling_report(&json, &tiny(), Some(&quick)).is_err());
    }

    #[test]
    fn only_the_committed_study_is_full_mode() {
        let full = ScalingStudyConfig::full();
        assert_eq!(scaling_mode(&full, Some(&CubeStudyConfig::full(2))), "full");
        assert_eq!(scaling_mode(&full, Some(&CubeStudyConfig::full(7))), "full");
        assert_eq!(scaling_mode(&full, None), "quick");
        assert_eq!(
            scaling_mode(&full, Some(&CubeStudyConfig::quick(2))),
            "quick"
        );
        let fewer = ScalingStudyConfig {
            txns_per_node: 10,
            ..full.clone()
        };
        assert_eq!(
            scaling_mode(&fewer, Some(&CubeStudyConfig::full(2))),
            "quick"
        );
        assert_eq!(
            scaling_mode(
                &ScalingStudyConfig::quick(),
                Some(&CubeStudyConfig::quick(2))
            ),
            "quick"
        );
        // A quick report does not pass for the full study, nor a report
        // stamped full for a smaller one.
        let json = render_scaling_json(&run_scaling_study(&Pool::serial(), &tiny()), None);
        let full_cube = CubeStudyConfig::full(2);
        assert_eq!(
            validate_scaling_report(&json, &full, Some(&full_cube)),
            Err("expected a full-mode report".to_string())
        );
        let stamped = json.replace("\"mode\": \"quick\"", "\"mode\": \"full\"");
        assert_eq!(
            validate_scaling_report(&stamped, &tiny(), None),
            Err("expected a quick-mode report".to_string())
        );
    }

    #[test]
    fn render_has_a_row_per_point() {
        let study = run_scaling_study(&Pool::serial(), &tiny());
        let text = render_scaling_study(&study);
        assert!(text.contains("== Scaling study"));
        assert_eq!(text.lines().count(), 2 + study.points.len());
    }
}
