//! Reproducible performance harness for the simulation core.
//!
//! Every sweep point of the paper's evaluation is a full machine run, so
//! simulation throughput is the budget every experiment spends from. This
//! module measures it the same way every time: each *kernel* is run
//! `warmup` untimed passes and then `repeats` timed passes, and the
//! harness reports the **median** and the **median absolute deviation**
//! (MAD) of the per-pass wall-clock times. Median/MAD are robust to the
//! scheduling outliers that plague shared CI machines, where mean/stddev
//! are not.
//!
//! The `perf` binary writes the results as `BENCH_core.json` at the repo
//! root (override with `--out`). Passing `--baseline <previous.json>`
//! embeds the previous medians and the speedup against them, which is how
//! before/after numbers are committed alongside an optimization:
//!
//! ```text
//! cargo run --release -p multicube-bench --bin perf -- --out /tmp/before.json
//! # ... apply the optimization ...
//! cargo run --release -p multicube-bench --bin perf -- \
//!     --baseline /tmp/before.json --out BENCH_core.json
//! ```
//!
//! `--quick` shrinks warmup/repeats for CI smoke runs; the numbers are
//! noisier but the schema is identical.
//!
//! The host's speed drifts, on shared virtual machines by up to ~1.8x, so
//! raw times judge the host as much as the code. Every timed pass is
//! therefore bracketed by the fixed arithmetic kernel of
//! [`multicube_sim::calibrate`], and each sample is also reported scaled to
//! the reference host's speed (`calibrated_samples_ns`). The regression
//! guard compares the fastest calibrated sample of each kernel: slowdowns
//! from other tenants of the host come in bursts that lengthen some passes
//! and never shorten one.

use std::time::Instant;

use multicube::{FaultPlan, Machine, MachineConfig, Request, SyntheticSpec};
use multicube_mem::LineAddr;
use multicube_sim::calibrate;
use multicube_sim::pool::Pool;
use multicube_sim::{DeterministicRng, EventQueue};
use multicube_topology::NodeId;

use crate::json::{self, Value};

/// Identifies the JSON layout; bump when the schema changes shape.
pub const SCHEMA: &str = "multicube-bench-core/v2";

/// Iterations of each calibration bracket: about 6 ms on the reference
/// host, long enough to read the host's speed, short beside the passes.
pub const CALIBRATION_ITERATIONS: u64 = calibrate::ITERATIONS / 25;

/// The kernels the CI regression guard watches: the serial machine core
/// and the cube's events/sec kernels, the serial reference path and the
/// planes on two workers.
pub const GUARD_KERNELS: [&str; 3] = [
    "machine_1k_transactions",
    "cube_pdes_events",
    "cube_pdes_events_parallel",
];

/// The kernel a guarded kernel is judged relative to, if any. The two-worker
/// cube runs on two CPUs, which one-thread calibration does not measure,
/// so it is judged as a ratio to the one-worker cube of the same report:
/// that kernel saw the same host.
fn guard_reference(kernel: &str) -> Option<&'static str> {
    (kernel == "cube_pdes_events_parallel").then_some("cube_pdes_events")
}

/// Harness configuration: how many passes to run per kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfConfig {
    /// Untimed passes before measurement (JIT-free, but warms caches and
    /// the allocator).
    pub warmup: u32,
    /// Timed passes; the report is their median and MAD.
    pub repeats: u32,
    /// Quick mode: fewer passes and smaller kernels (CI smoke runs).
    pub quick: bool,
}

impl PerfConfig {
    /// The full-fidelity configuration used for committed numbers.
    pub fn full() -> Self {
        PerfConfig {
            warmup: 3,
            repeats: 15,
            quick: false,
        }
    }

    /// The CI smoke configuration (`perf --quick`).
    pub fn quick() -> Self {
        PerfConfig {
            warmup: 1,
            repeats: 5,
            quick: true,
        }
    }
}

/// One kernel's measurements, in nanoseconds of wall-clock time per pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelResult {
    /// Kernel name (stable across versions; used to match baselines).
    pub name: &'static str,
    /// What one pass simulates, for the reader of the JSON.
    pub work: &'static str,
    /// Abstract work units one pass performs (transactions, schedule ops).
    /// Quick and full mode run different sizes, so cross-mode comparisons
    /// — like the CI regression guard — divide medians by this.
    pub work_units: u64,
    /// All timed samples, in pass order.
    pub samples_ns: Vec<u64>,
    /// For each sample, the faster of the calibration brackets either side
    /// of it.
    pub calibration_ns: Vec<u64>,
    /// Each sample scaled to the reference host's speed, as its bracket
    /// measured it.
    pub calibrated_samples_ns: Vec<u64>,
    /// Median of `calibrated_samples_ns`.
    pub calibrated_median_ns: u64,
    /// Smallest of `calibrated_samples_ns`: what the guard compares.
    pub calibrated_min_ns: u64,
    /// Median of `samples_ns`.
    pub median_ns: u64,
    /// Median absolute deviation of `samples_ns`.
    pub mad_ns: u64,
    /// 90th-percentile sample: regressions in the tail that a lucky
    /// median masks still show here.
    pub p90_ns: u64,
    /// Samples beyond `median + 5 * MAD` — scheduling outliers, counted
    /// so they are visible instead of silently absorbed.
    pub outliers: u32,
    /// Smallest sample.
    pub min_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
}

/// Median of a sample set (mean of the middle pair for even counts).
fn median(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

/// 90th-percentile of a sorted sample set (nearest-rank, ceil(0.9 n)).
fn p90(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    sorted[(9 * n).div_ceil(10) - 1]
}

/// One calibration bracket's wall time (ns).
fn calibration_ns() -> u64 {
    (calibrate::seconds(CALIBRATION_ITERATIONS, 1) * 1e9).round() as u64
}

/// `sample_ns` scaled to the reference host's speed, as a calibration
/// bracket of `bracket_ns` measured it.
fn calibrated(sample_ns: u64, bracket_ns: u64) -> u64 {
    let bracket_s = bracket_ns as f64 * 1e-9;
    let speed = calibrate::speed(CALIBRATION_ITERATIONS, bracket_s, bracket_s);
    (sample_ns as f64 * speed).round() as u64
}

/// Summarizes one kernel's timed passes and the bracket each was scaled
/// by.
fn summarize(
    kernel: &Kernel,
    quick: bool,
    samples_ns: Vec<u64>,
    calibration_ns: Vec<u64>,
) -> KernelResult {
    let calibrated_samples_ns: Vec<u64> = samples_ns
        .iter()
        .zip(&calibration_ns)
        .map(|(&sample, &bracket)| calibrated(sample, bracket))
        .collect();
    let mut sorted_calibrated = calibrated_samples_ns.clone();
    sorted_calibrated.sort_unstable();
    let mut sorted = samples_ns.clone();
    sorted.sort_unstable();
    let med = median(&sorted);
    let mut dev: Vec<u64> = samples_ns.iter().map(|&s| s.abs_diff(med)).collect();
    dev.sort_unstable();
    let mad = median(&dev);
    let cutoff = med.saturating_add(5 * mad);
    let outliers = samples_ns.iter().filter(|&&s| s > cutoff).count() as u32;
    KernelResult {
        name: kernel.name,
        work: kernel.work,
        work_units: (kernel.units)(quick),
        median_ns: med,
        mad_ns: mad,
        p90_ns: p90(&sorted),
        outliers,
        min_ns: sorted.first().copied().unwrap_or(0),
        max_ns: sorted.last().copied().unwrap_or(0),
        samples_ns,
        calibration_ns,
        calibrated_median_ns: median(&sorted_calibrated),
        calibrated_min_ns: sorted_calibrated.first().copied().unwrap_or(0),
        calibrated_samples_ns,
    }
}

/// The `machine_1k_transactions` kernel: 1000 mixed read/write requests
/// round-robined over a 4×4 grid, then drained to quiescence. This is the
/// headline number optimization PRs are judged against.
///
/// Deliberately NOT scaled down in quick mode: this is the kernel the CI
/// regression guard compares against the committed full-mode report, and
/// machine construction is a fixed cost (~two thirds of a 300-txn run)
/// that would make per-unit numbers from different txn counts
/// incomparable. One iteration is ~200 µs; quick mode saves its time by
/// trimming repeats instead.
fn kernel_machine_1k(_quick: bool) -> u64 {
    let txns: u64 = 1_000;
    let mut m = Machine::new(MachineConfig::grid(4).unwrap(), 8).unwrap();
    for i in 0..txns {
        let node = NodeId::new((i % 16) as u32);
        let line = LineAddr::new(i % 64);
        let req = if i % 3 == 0 {
            Request::write(line)
        } else {
            Request::read(line)
        };
        if m.submit(node, req).is_ok() {
            m.advance();
        }
    }
    m.run_to_quiescence();
    m.metrics().total_transactions()
}

/// The `synthetic_sweep` kernel: two closed-loop operating points of the
/// Figure 2 workload (a light and a heavy request rate) on a 4×4 grid —
/// the shape of every figure sweep in `figures`.
fn kernel_synthetic_sweep(quick: bool) -> u64 {
    let txns_per_node: u64 = if quick { 10 } else { 40 };
    let mut total = 0u64;
    for (seed, rate) in [(11u64, 10.0f64), (12, 25.0)] {
        let mut m = Machine::new(MachineConfig::grid(4).unwrap(), seed).unwrap();
        let spec = SyntheticSpec::default().with_request_rate_per_ms(rate);
        let report = m.run_synthetic(&spec, txns_per_node);
        total += report.transactions_completed;
    }
    total
}

/// The `faulted_run` kernel: the synthetic workload under a composite
/// fault plan, exercising the retry/backoff and watchdog paths.
fn kernel_faulted_run(quick: bool) -> u64 {
    let txns_per_node: u64 = if quick { 10 } else { 30 };
    let plan = FaultPlan::default()
        .with_signal_drop(0.10)
        .with_op_loss(0.10)
        .with_op_duplicate(0.05)
        .with_memory_nack(0.05);
    let config = MachineConfig::grid(4).unwrap().with_fault_plan(plan);
    let mut m = Machine::new(config, 21).unwrap();
    let report = m.run_synthetic(&SyntheticSpec::default(), txns_per_node);
    report.transactions_completed
}

/// Schedule operations one `queue_churn` pass performs.
fn queue_churn_ops(quick: bool) -> u64 {
    if quick {
        50_000
    } else {
        300_000
    }
}

/// The `queue_churn` kernel: pure event-queue pressure with the machine's
/// own delay mix — 10 ns processor hits, 50 ns bus words, 750 ns
/// snoop/memory latencies, zero-delay forwards and exponential think
/// times — interleaving single pops and batched same-instant drains while
/// holding ~64 events pending. This isolates the scheduler from the
/// protocol, so queue regressions show without protocol noise.
fn kernel_queue_churn(quick: bool) -> u64 {
    let ops = queue_churn_ops(quick);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = DeterministicRng::seed(97);
    let mut batch: Vec<u64> = Vec::new();
    let mut acc = 0u64;
    for i in 0..ops {
        let delay = match rng.below(16) {
            0..=2 => 10,
            3..=6 => 50,
            7..=10 => 750,
            11..=12 => 0,
            13 => rng.exponential(40_000.0) as u64,
            _ => rng.exponential(2_000_000.0) as u64,
        };
        q.schedule_after(delay, i);
        if q.len() >= 64 {
            if rng.chance(0.5) {
                if let Some((_, e)) = q.pop() {
                    acc = acc.wrapping_add(e);
                }
            } else {
                batch.clear();
                if q.pop_batch(&mut batch).is_some() {
                    acc = acc.wrapping_add(batch.len() as u64);
                }
            }
        }
    }
    while let Some((_, e)) = q.pop() {
        acc = acc.wrapping_add(e);
    }
    acc
}

/// Machine events one `cube_pdes_events` pass delivers — measured once
/// and fixed (the run is deterministic), so per-unit guard comparisons
/// are events-based: the kernel's figure of merit is machine events per
/// second of a whole cube run.
pub const CUBE_PDES_EVENTS: u64 = 14_033;

/// The `cube_pdes_events` kernels: a 4-plane cube (4^3 = 64 processors)
/// with synthetic workloads per plane and cross-plane depth traffic,
/// through [`multicube::run_cube`]. At one worker (`cube_pdes_events`)
/// this is the serial reference path, free of thread-scheduling noise,
/// measuring the depth traffic's two message exchanges and each plane's
/// event fold on top of the machine cores. At two workers
/// (`cube_pdes_events_parallel`) the planes run on two threads, two
/// each; the run is byte-identical by construction, so the two kernels'
/// per-unit numbers are directly comparable. The names predate the
/// exchange design and stay because the CI guard keys on them.
///
/// NOT scaled down in quick mode, for the same reason as
/// `kernel_machine_1k`: both kernels are CI-guarded per work unit against
/// the committed full-mode report.
fn kernel_cube_pdes(workers: usize) -> u64 {
    let mut cfg = multicube::pdes::CubeConfig::new(4);
    cfg.txns_per_node = 32;
    cfg.remote_ops = 128;
    cfg.remote_gap_ns = 300.0;
    cfg.seed = 0x5EED;
    cfg.workers = workers;
    cfg.check = false;
    let report = multicube::pdes::run_cube(&cfg);
    report.events_delivered
}

/// One kernel whose body panicked: the harness reports it and keeps the
/// other kernels' numbers instead of aborting the whole report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelFailure {
    /// Kernel name.
    pub name: &'static str,
    /// The contained panic payload.
    pub message: String,
}

impl std::fmt::Display for KernelFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kernel {} panicked: {}", self.name, self.message)
    }
}

/// One timed kernel. `units` and `body` take the quick-mode flag.
struct Kernel {
    /// Stable name; baselines and the CI guard key on it.
    name: &'static str,
    /// What one pass simulates, for the reader of the JSON.
    work: &'static str,
    /// Work units one pass performs.
    units: fn(bool) -> u64,
    /// One pass.
    body: fn(bool) -> u64,
}

/// Every kernel, in report order; [`validate_report`] requires each one.
const KERNELS: [Kernel; 6] = [
    Kernel {
        name: "machine_1k_transactions",
        work: "1000 mixed read/write transactions on a 4x4 grid, drained to quiescence",
        units: |_| 1_000,
        body: kernel_machine_1k,
    },
    Kernel {
        name: "synthetic_sweep",
        work: "closed-loop Figure-2 workload at 10 and 25 req/ms/proc on a 4x4 grid",
        units: |quick| 2 * 16 * if quick { 10 } else { 40 },
        body: kernel_synthetic_sweep,
    },
    Kernel {
        name: "faulted_run",
        work: "synthetic workload under a composite fault plan (drop/loss/dup/nack)",
        units: |quick| 16 * if quick { 10 } else { 30 },
        body: kernel_faulted_run,
    },
    Kernel {
        name: "queue_churn",
        work: "event-queue schedule/pop churn over the machine's delay mix",
        units: queue_churn_ops,
        body: kernel_queue_churn,
    },
    Kernel {
        name: "cube_pdes_events",
        work: "4-plane cube (64 processors): two depth-traffic exchanges, then \
               the planes on 1 worker, the serial reference; units are machine events",
        units: |_| CUBE_PDES_EVENTS,
        body: |_| kernel_cube_pdes(1),
    },
    Kernel {
        name: "cube_pdes_events_parallel",
        work: "the same cube with its 4 planes on 2 workers; units are \
               machine events",
        units: |_| CUBE_PDES_EVENTS,
        body: |_| kernel_cube_pdes(2),
    },
];

/// Runs every kernel and collects the results, in kernel order.
///
/// After each kernel's warmup, the timed passes run in rounds of one pass
/// per kernel, so every kernel's samples spread over the whole run: other
/// tenants of a shared host slow it in bursts of a second or so, and a
/// kernel whose passes all fell into one would read slow. Each timed pass
/// follows an untimed pass of the same kernel, since the calibration
/// bracket's arithmetic loop leaves caches and branch predictors cold for
/// the simulator, and a bracket runs after each timed pass. A pass is
/// scaled by the faster of the brackets either side of it: a bracket the
/// host preempts reads slow, never fast.
///
/// Passes run as jobs on a **serial** pool: wall-clock timing forbids
/// concurrency (parallel passes would contend for the cores being
/// measured), so the pool contributes its panic containment. A kernel that
/// panics becomes a [`KernelFailure`] and runs no more passes; the
/// remaining kernels still measure and report.
pub fn run_all(cfg: &PerfConfig) -> (Vec<KernelResult>, Vec<KernelFailure>) {
    let quick = cfg.quick;
    let pool = Pool::serial();
    let contained = |job: &(dyn Fn() -> u64 + Sync)| {
        pool.run(vec![|_| job()])
            .pop()
            .expect("one job, one outcome")
            .map_err(|panic| panic.message)
    };
    let mut failed: Vec<Option<String>> = vec![None; KERNELS.len()];
    let mut samples: Vec<(Vec<u64>, Vec<u64>)> = vec![Default::default(); KERNELS.len()];
    for (k, failure) in KERNELS.iter().zip(&mut failed) {
        let warmup = || (0..cfg.warmup).fold(0u64, |acc, _| acc.wrapping_add((k.body)(quick)));
        *failure = contained(&warmup).err();
    }
    let mut before = calibration_ns();
    for _ in 0..cfg.repeats {
        for ((k, failure), (samples_ns, calibration)) in
            KERNELS.iter().zip(&mut failed).zip(&mut samples)
        {
            if failure.is_some() {
                continue;
            }
            let timed = || {
                std::hint::black_box((k.body)(quick));
                let start = Instant::now();
                std::hint::black_box((k.body)(quick));
                start.elapsed().as_nanos() as u64
            };
            let outcome = contained(&timed);
            let after = calibration_ns();
            match outcome {
                Ok(ns) => {
                    samples_ns.push(ns);
                    calibration.push(before.min(after));
                }
                Err(message) => *failure = Some(message),
            }
            before = after;
        }
    }
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for ((k, failure), (samples_ns, calibration)) in KERNELS.iter().zip(failed).zip(samples) {
        match failure {
            None => results.push(summarize(k, quick, samples_ns, calibration)),
            Some(message) => failures.push(KernelFailure {
                name: k.name,
                message,
            }),
        }
    }
    (results, failures)
}

/// One kernel of a written report, as read back by [`kernel_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStat {
    /// Kernel name.
    pub name: String,
    /// Median wall-clock time per pass (ns).
    pub median_ns: u64,
    /// Work units per pass.
    pub work_units: u64,
    /// Fastest pass, in time on the reference host (ns).
    pub calibrated_min_ns: u64,
}

/// Reads each kernel's name, median, fastest calibrated pass and work
/// units out of a parsed report.
///
/// # Errors
///
/// A report without a `kernels` array, or a kernel missing one of the
/// four fields.
pub fn kernel_stats(report: &Value) -> Result<Vec<KernelStat>, String> {
    report
        .array_field("kernels")?
        .iter()
        .map(|k| {
            let name = k.str_field("name")?;
            let field = |key| k.u64_field(key).map_err(|e| format!("kernel {name}: {e}"));
            Ok(KernelStat {
                name: name.to_string(),
                median_ns: field("median_ns")?,
                work_units: field("work_units")?,
                calibrated_min_ns: field("calibrated_min_ns")?,
            })
        })
        .collect()
}

/// The soft CI perf-regression guard: compares `kernel`'s fastest
/// calibrated pass per work unit between two reports and fails when the
/// current one is more than `threshold_pct` percent slower. Comparing per
/// unit lets a quick run measure against a full-mode baseline, comparing
/// calibrated times lets a run on a slow host measure against one made on
/// a fast host, and comparing the fastest pass sets aside the bursts in
/// which other tenants slow the host's memory more than its arithmetic.
/// A kernel with a reference (the two-worker cube) is compared as the
/// ratio of its per-unit time to the reference's. A baseline without the
/// kernel passes with a note — the guard is soft, it must not block the
/// first report that introduces a kernel.
///
/// # Errors
///
/// A description of the regression, or of a kernel missing from `current`
/// or without work.
pub fn check_regression_guard(
    current: &[KernelStat],
    baseline: &[KernelStat],
    kernel: &str,
    threshold_pct: f64,
) -> Result<String, String> {
    let find = |stats: &[KernelStat], name: &str| stats.iter().find(|k| k.name == name).cloned();
    let skip = |name: &str| Ok(format!("guard: baseline has no kernel {name}; skipping"));
    let per_unit = |k: &KernelStat, report: &str| {
        if k.calibrated_min_ns == 0 || k.work_units == 0 {
            Err(format!(
                "{report} kernel {} has a zero median or no work units",
                k.name
            ))
        } else {
            Ok(k.calibrated_min_ns as f64 / k.work_units as f64)
        }
    };
    let cur = find(current, kernel)
        .ok_or_else(|| format!("kernel {kernel} missing from current report"))?;
    let Some(base) = find(baseline, kernel) else {
        return skip(kernel);
    };
    let (cur_v, base_v, unit) = match guard_reference(kernel) {
        None => (
            per_unit(&cur, "current")?,
            per_unit(&base, "baseline")?,
            "calibrated ns/unit".to_string(),
        ),
        Some(reference) => {
            let cur_ref = find(current, reference)
                .ok_or_else(|| format!("kernel {reference} missing from current report"))?;
            let Some(base_ref) = find(baseline, reference) else {
                return skip(reference);
            };
            (
                per_unit(&cur, "current")? / per_unit(&cur_ref, "current")?,
                per_unit(&base, "baseline")? / per_unit(&base_ref, "baseline")?,
                format!("x {reference}"),
            )
        }
    };
    let delta_pct = (cur_v - base_v) / base_v * 100.0;
    let msg = format!(
        "guard: {kernel} {cur_v:.3} {unit} vs baseline {base_v:.3} {unit} ({delta_pct:+.1}%)"
    );
    if delta_pct > threshold_pct {
        Err(format!("{msg} exceeds the +{threshold_pct:.0}% threshold"))
    } else {
        Ok(msg)
    }
}

/// What one calibration bracket takes on the reference host (ns).
fn calibrated_reference_ns() -> u64 {
    (calibrate::REFERENCE_S * 1e9 * CALIBRATION_ITERATIONS as f64 / calibrate::ITERATIONS as f64)
        .round() as u64
}

/// The `mode` a report of `cfg` records.
fn mode(cfg: &PerfConfig) -> &'static str {
    if cfg.quick {
        "quick"
    } else {
        "full"
    }
}

/// Renders the report as JSON. `baseline` medians (from [`kernel_stats`]
/// on a previous report) are embedded together with the speedup of each
/// matching kernel.
pub fn render_json(
    cfg: &PerfConfig,
    results: &[KernelResult],
    baseline: Option<&[KernelStat]>,
) -> String {
    let kernels = results.iter().map(|r| {
        let mut members = vec![
            ("name", r.name.into()),
            ("work", r.work.into()),
            ("work_units", r.work_units.into()),
            ("median_ns", r.median_ns.into()),
            ("mad_ns", r.mad_ns.into()),
            ("p90_ns", r.p90_ns.into()),
            ("outliers", r.outliers.into()),
            ("min_ns", r.min_ns.into()),
            ("max_ns", r.max_ns.into()),
            ("calibrated_median_ns", r.calibrated_median_ns.into()),
            ("calibrated_min_ns", r.calibrated_min_ns.into()),
        ];
        if let Some(base) = baseline.and_then(|b| b.iter().find(|k| k.name == r.name)) {
            members.push(("baseline_median_ns", base.median_ns.into()));
            members.push(("baseline_calibrated_min_ns", base.calibrated_min_ns.into()));
            if r.calibrated_min_ns > 0 {
                let speedup = base.calibrated_min_ns as f64 / r.calibrated_min_ns as f64;
                members.push(("speedup_vs_baseline", Value::fixed(speedup, 4)));
            }
        }
        members.push(("samples_ns", r.samples_ns.iter().copied().collect()));
        members.push(("calibration_ns", r.calibration_ns.iter().copied().collect()));
        members.push((
            "calibrated_samples_ns",
            r.calibrated_samples_ns.iter().copied().collect(),
        ));
        json::obj(members)
    });
    json::obj([
        ("schema", SCHEMA.into()),
        ("mode", mode(cfg).into()),
        (
            "host_parallelism",
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZero::get)
                .into(),
        ),
        ("warmup", cfg.warmup.into()),
        ("repeats", cfg.repeats.into()),
        ("calibration_iterations", CALIBRATION_ITERATIONS.into()),
        ("calibration_reference_ns", calibrated_reference_ns().into()),
        ("kernels", Value::Arr(kernels.collect())),
    ])
    .pretty()
}

/// Validates that `text` is a report this harness wrote under `cfg`: the
/// schema and mode, and every kernel [`run_all`] runs with a nonzero
/// median and work-unit count.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn validate_report(text: &str, cfg: &PerfConfig) -> Result<(), String> {
    let report = json::parse_artifact(text, SCHEMA, mode(cfg))?;
    let stats = kernel_stats(&report)?;
    for kernel in &KERNELS {
        match stats.iter().find(|k| k.name == kernel.name) {
            None => return Err(format!("missing kernel {}", kernel.name)),
            Some(k) if k.median_ns == 0 || k.calibrated_min_ns == 0 || k.work_units == 0 => {
                return Err(format!(
                    "kernel {} has a zero median or no work units",
                    k.name
                ))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result measured on a host at the reference speed.
    fn result(name: &'static str, work_units: u64, median_ns: u64) -> KernelResult {
        KernelResult {
            name,
            work: "w",
            work_units,
            samples_ns: vec![median_ns, median_ns],
            calibration_ns: vec![calibrated_reference_ns(); 2],
            calibrated_samples_ns: vec![median_ns, median_ns],
            calibrated_median_ns: median_ns,
            calibrated_min_ns: median_ns,
            median_ns,
            mad_ns: 0,
            p90_ns: median_ns,
            outliers: 0,
            min_ns: median_ns,
            max_ns: median_ns,
        }
    }

    #[test]
    fn median_and_mad_are_robust() {
        let sorted = [10u64, 11, 12, 13, 1_000];
        assert_eq!(median(&sorted), 12);
        let even = [10u64, 20];
        assert_eq!(median(&even), 15);
        assert_eq!(median(&[]), 0);
    }

    #[test]
    fn p90_is_nearest_rank() {
        assert_eq!(p90(&[]), 0);
        assert_eq!(p90(&[7]), 7);
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(p90(&ten), 9);
        let five = [10u64, 11, 12, 13, 1_000];
        assert_eq!(p90(&five), 1_000);
    }

    #[test]
    fn outliers_count_past_five_mads() {
        // The faulted_run pathology from the issue: a lucky median with
        // one wild sample. median = 102, MAD = 2, cutoff = 112.
        let samples = [100u64, 102, 104, 98, 10_000];
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let med = median(&sorted);
        let mut dev: Vec<u64> = samples.iter().map(|&s| s.abs_diff(med)).collect();
        dev.sort_unstable();
        let mad = median(&dev);
        let cutoff = med + 5 * mad;
        assert_eq!((med, mad, cutoff), (102, 2, 112));
        let outliers = samples.iter().filter(|&&s| s > cutoff).count();
        assert_eq!(outliers, 1);
    }

    /// The stats of a rendered report, read back through the codec.
    fn stats_of(json: &str) -> Vec<KernelStat> {
        kernel_stats(&json::parse(json).unwrap()).unwrap()
    }

    #[test]
    fn quick_report_roundtrips_and_validates() {
        let cfg = PerfConfig {
            warmup: 0,
            repeats: 2,
            quick: true,
        };
        let (results, failures) = run_all(&cfg);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(results.len(), 6);
        let json = render_json(&cfg, &results, None);
        validate_report(&json, &cfg).unwrap();
        assert_eq!(
            validate_report(&json, &PerfConfig::full()),
            Err("expected a full-mode report".to_string())
        );
        let stats = stats_of(&json);
        assert_eq!(stats.len(), 6);
        assert_eq!(stats[0].name, "machine_1k_transactions");
        assert_eq!(stats[0].median_ns, results[0].median_ns);
        // The guard kernels run their full workloads even in quick mode,
        // so CI guard comparisons are like-for-like.
        assert_eq!(stats[0].work_units, 1_000);
        assert_eq!(stats[3].name, "queue_churn");
        assert_eq!(stats[4].name, "cube_pdes_events");
        assert_eq!(stats[4].work_units, CUBE_PDES_EVENTS);
        assert_eq!(stats[5].name, "cube_pdes_events_parallel");
        assert_eq!(stats[5].work_units, CUBE_PDES_EVENTS);
        let report = json::parse(&json).unwrap();
        let kernel = &report.array_field("kernels").unwrap()[0];
        assert_eq!(kernel.u64_field("p90_ns"), Ok(results[0].p90_ns));
        assert_eq!(
            kernel.u64_field("outliers"),
            Ok(u64::from(results[0].outliers))
        );
        assert!(report.u64_field("host_parallelism").unwrap() >= 1);
    }

    #[test]
    fn baseline_is_embedded_with_speedup() {
        let cfg = PerfConfig::quick();
        let results = vec![result("machine_1k_transactions", 300, 100)];
        let base = vec![KernelStat {
            name: "machine_1k_transactions".to_string(),
            median_ns: 200,
            work_units: 1_000,
            calibrated_min_ns: 200,
        }];
        let json = render_json(&cfg, &results, Some(&base));
        assert!(json.contains("\"baseline_median_ns\": 200"));
        assert!(json.contains("\"speedup_vs_baseline\": 2.0000"));
    }

    #[test]
    fn cube_kernel_work_units_match_its_deterministic_delivery() {
        // The cube run is fully deterministic, so the kernel's work-unit
        // count can be pinned: a drift here means the planes' machine
        // runs (and therefore every committed fingerprint) changed. The parallel
        // kernel delivers the identical count — execution strategy never
        // changes what is simulated.
        assert_eq!(kernel_cube_pdes(1), CUBE_PDES_EVENTS);
        assert_eq!(kernel_cube_pdes(2), CUBE_PDES_EVENTS);
    }

    #[test]
    fn stats_extractor_keeps_each_median_with_its_own_kernel() {
        // A kernel without a median must not borrow the next kernel's.
        let text = r#"{"kernels": [{"name": "a", "work_units": 1, "mad_ns": 1},
            {"name": "b", "work_units": 1, "median_ns": 5}]}"#;
        assert_eq!(
            kernel_stats(&json::parse(text).unwrap()),
            Err("kernel a: missing `median_ns`".to_string())
        );
    }

    #[test]
    fn guard_passes_within_threshold_and_fails_beyond() {
        let cfg = PerfConfig::quick();
        // Per-unit: current is 300 units at 120 ns vs baseline 1000 units
        // at 300 ns — 0.4 vs 0.3 ns/unit, a +33% regression.
        let current = stats_of(&render_json(
            &cfg,
            &[result("machine_1k_transactions", 300, 120)],
            None,
        ));
        let baseline = stats_of(&render_json(
            &PerfConfig::full(),
            &[result("machine_1k_transactions", 1_000, 300)],
            None,
        ));
        let err = check_regression_guard(&current, &baseline, "machine_1k_transactions", 25.0)
            .unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        // A faster run passes.
        let fast = stats_of(&render_json(
            &cfg,
            &[result("machine_1k_transactions", 300, 60)],
            None,
        ));
        let msg =
            check_regression_guard(&fast, &baseline, "machine_1k_transactions", 25.0).unwrap();
        assert!(msg.contains("ns/unit"), "{msg}");
        // Threshold is inclusive-of-anything-at-or-below: +33% passes a 40% bar.
        check_regression_guard(&current, &baseline, "machine_1k_transactions", 40.0).unwrap();
        // A baseline without the kernel is a soft pass.
        let msg = check_regression_guard(&current, &[], "machine_1k_transactions", 25.0).unwrap();
        assert!(msg.contains("skipping"), "{msg}");
    }

    #[test]
    fn guard_rejects_reports_without_work_units() {
        // There is no raw-median fallback: a report that does not carry
        // `work_units` cannot be read, and a kernel without work fails the
        // guard on either side.
        let no_units = r#"{"kernels": [{"name": "machine_1k_transactions", "median_ns": 100}]}"#;
        assert_eq!(
            kernel_stats(&json::parse(no_units).unwrap()),
            Err("kernel machine_1k_transactions: missing `work_units`".to_string())
        );
        let cfg = PerfConfig::quick();
        let busy = stats_of(&render_json(
            &cfg,
            &[result("machine_1k_transactions", 300, 120)],
            None,
        ));
        let idle = stats_of(&render_json(
            &cfg,
            &[result("machine_1k_transactions", 0, 100)],
            None,
        ));
        assert_eq!(
            check_regression_guard(&busy, &idle, "machine_1k_transactions", 25.0),
            Err(
                "baseline kernel machine_1k_transactions has a zero median or no work units"
                    .to_string()
            )
        );
        assert_eq!(
            check_regression_guard(&idle, &busy, "machine_1k_transactions", 25.0),
            Err(
                "current kernel machine_1k_transactions has a zero median or no work units"
                    .to_string()
            )
        );
    }

    #[test]
    fn validate_rejects_garbage() {
        let cfg = PerfConfig::quick();
        assert!(validate_report("{", &cfg).is_err());
        assert!(validate_report("{}", &cfg).is_err());
        let no_kernels = format!("{{\"schema\": \"{SCHEMA}\", \"mode\": \"quick\"}}");
        assert_eq!(
            validate_report(&no_kernels, &cfg),
            Err("missing `kernels`".to_string())
        );
    }

    #[test]
    fn validate_rejects_a_required_kernel_without_a_median() {
        let cfg = PerfConfig::quick();
        let results: Vec<KernelResult> = [
            "machine_1k_transactions",
            "extra",
            "synthetic_sweep",
            "faulted_run",
            "queue_churn",
            "cube_pdes_events",
            "cube_pdes_events_parallel",
        ]
        .into_iter()
        .map(|name| result(name, 10, 100))
        .collect();
        let json = render_json(&cfg, &results, None);
        validate_report(&json, &cfg).unwrap();
        let without = json.replacen("\"median_ns\": 100,", "", 1);
        assert_ne!(without, json);
        assert_eq!(
            validate_report(&without, &cfg),
            Err("kernel machine_1k_transactions: missing `median_ns`".to_string())
        );
        let zero = json.replacen("\"median_ns\": 100,", "\"median_ns\": 0,", 1);
        assert_eq!(
            validate_report(&zero, &cfg),
            Err("kernel machine_1k_transactions has a zero median or no work units".to_string())
        );
        let dropped = render_json(&cfg, &results[..6], None);
        assert_eq!(
            validate_report(&dropped, &cfg),
            Err("missing kernel cube_pdes_events_parallel".to_string())
        );
    }
}
