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
//! root (override with `--out`). `--quick` shrinks warmup/repeats for CI
//! runs; the numbers are noisier but the schema is identical.
//!
//! A host's speed drifts, on shared virtual machines by up to ~1.8x, so a
//! time is comparable only with one taken on the same host at about the
//! same time. The regression guard ([`guard`], `perf --guard`) therefore
//! compares two sets of reports run alternately on one host, the parent
//! commit's and the change's, and pools each kernel's fastest pass per
//! work unit over each set: other tenants slow the host in bursts that
//! lengthen some passes and never shorten one. Its printout is also the
//! before/after of an optimization: run the two builds' `perf --quick
//! --out DIR/NN.json` in pairs that alternate which runs first, as CI's
//! `perf` job does, then `perf --guard BEFORE_DIR AFTER_DIR`.

use std::time::Instant;

use multicube::{FaultPlan, Machine, MachineConfig, Request, SyntheticSpec};
use multicube_mem::LineAddr;
use multicube_sim::pool::{JobPanic, Pool};
use multicube_sim::{DeterministicRng, EventQueue};
use multicube_topology::NodeId;

use crate::json::{self, Value};

/// Identifies the JSON layout; bump when the schema changes shape.
pub const SCHEMA: &str = "multicube-bench-core/v3";

/// The kernels the CI regression guard watches: the serial machine core
/// and the cube's events/sec kernels, the serial reference path and the
/// planes on two workers.
pub const GUARD_KERNELS: [&str; 3] = [
    "machine_1k_transactions",
    "cube_pdes_events",
    "cube_pdes_events_parallel",
];

/// The slowdown, in percent, at which [`guard`] fails a guarded kernel.
pub const GUARD_PCT: f64 = 25.0;

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
    /// Kernel name (stable across versions; the guard matches a parent's
    /// reports by it).
    pub name: &'static str,
    /// What one pass simulates, for the reader of the JSON.
    pub work: &'static str,
    /// Abstract work units one pass performs (transactions, schedule ops).
    /// Quick and full mode run different sizes, so cross-mode comparisons
    /// divide times by this.
    pub work_units: u64,
    /// All timed samples, in pass order.
    pub samples_ns: Vec<u64>,
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
    /// Smallest sample: what the guard compares.
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

/// Summarizes one kernel's timed passes.
fn summarize(kernel: &Kernel, quick: bool, samples_ns: Vec<u64>) -> KernelResult {
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
    }
}

/// The `machine_1k_transactions` kernel: 1000 mixed read/write requests
/// round-robined over a 4×4 grid, then drained to quiescence. This is the
/// headline number optimization PRs are judged against.
///
/// Deliberately NOT scaled down in quick mode: machine construction is a
/// fixed cost (~two thirds of a 300-txn run) that would make per-unit
/// numbers from different txn counts incomparable, and a guarded kernel's
/// quick figure should read like its full-mode one. One iteration is
/// ~200 µs; quick mode saves its time by trimming repeats instead.
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

/// The `queue_churn` kernel: pure event-queue pressure with a fixed delay
/// mix — 10 ns (kept from the removed processor hits, so `BENCH_core.json`
/// stays comparable), 50 ns bus words, 750 ns snoop/memory latencies,
/// zero-delay forwards and exponential think times — interleaving single
/// pops and batched same-instant drains while holding ~64 events pending.
/// This isolates the scheduler from the protocol, so queue regressions
/// show without protocol noise.
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
/// `kernel_machine_1k`.
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
    /// The contained panic.
    pub panic: JobPanic,
}

impl std::fmt::Display for KernelFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kernel {} panicked", self.name)?;
        if let Some(location) = &self.panic.location {
            write!(f, " at {location}")?;
        }
        write!(f, ": {}", self.panic.message)
    }
}

/// One timed kernel. `units` and `body` take the quick-mode flag.
struct Kernel {
    /// Stable name; the CI guard keys on it.
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
/// follows an untimed pass of the same kernel, so it starts with the
/// caches and branch predictors its kernel left, not the previous
/// kernel's.
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
    };
    let mut failed: Vec<Option<JobPanic>> = vec![None; KERNELS.len()];
    let mut samples: Vec<Vec<u64>> = vec![Vec::new(); KERNELS.len()];
    for (k, failure) in KERNELS.iter().zip(&mut failed) {
        let warmup = || (0..cfg.warmup).fold(0u64, |acc, _| acc.wrapping_add((k.body)(quick)));
        *failure = contained(&warmup).err();
    }
    for _ in 0..cfg.repeats {
        for ((k, failure), samples_ns) in KERNELS.iter().zip(&mut failed).zip(&mut samples) {
            if failure.is_some() {
                continue;
            }
            let timed = || {
                std::hint::black_box((k.body)(quick));
                let start = Instant::now();
                std::hint::black_box((k.body)(quick));
                start.elapsed().as_nanos() as u64
            };
            match contained(&timed) {
                Ok(ns) => samples_ns.push(ns),
                Err(panic) => *failure = Some(panic),
            }
        }
    }
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for ((k, failure), samples_ns) in KERNELS.iter().zip(failed).zip(samples) {
        match failure {
            None => results.push(summarize(k, quick, samples_ns)),
            Some(panic) => failures.push(KernelFailure {
                name: k.name,
                panic,
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
    /// Fastest pass (ns).
    pub min_ns: u64,
}

/// Reads each kernel's name, median, fastest pass and work units out of a
/// parsed report. Other members are ignored, so a report of an older
/// schema that carries these four reads too.
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
                min_ns: field("min_ns")?,
            })
        })
        .collect()
}

/// Each kernel's fastest pass per work unit (ns) over all of `reports`,
/// in the order the kernels first appear.
///
/// # Errors
///
/// A kernel with no fastest pass or no work units, in any report; `side`
/// names the set of reports it came from.
fn fastest_per_unit<'a>(
    side: &str,
    reports: &'a [Vec<KernelStat>],
) -> Result<Vec<(&'a str, f64)>, String> {
    let mut pooled: Vec<(&str, f64)> = Vec::new();
    for k in reports.iter().flatten() {
        if k.min_ns == 0 || k.work_units == 0 {
            return Err(format!(
                "{side} kernel {} has a zero fastest pass or no work units",
                k.name
            ));
        }
        let per_unit = k.min_ns as f64 / k.work_units as f64;
        match pooled.iter_mut().find(|(name, _)| *name == k.name) {
            Some((_, fastest)) => *fastest = fastest.min(per_unit),
            None => pooled.push((&k.name, per_unit)),
        }
    }
    Ok(pooled)
}

/// What [`guard`] found: its table and its failures.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardVerdict {
    /// A header, then one line per kernel of the change's reports: its
    /// pooled parent and change figures and their ratio, or a note.
    pub table: Vec<String>,
    /// Why the change fails, one entry per problem; empty when it passes.
    pub failures: Vec<String>,
}

/// The CI perf-regression guard: judges a change against its parent from
/// reports of both, run alternately on one host.
///
/// Each side's figure for a kernel is its fastest pass per work unit,
/// pooled over all of that side's reports: per work unit so quick and full
/// reports compare, and the fastest pass because the bursts in which other
/// tenants slow a shared host lengthen some passes and shorten none. The
/// change fails when a kernel of [`GUARD_KERNELS`] is more than
/// [`GUARD_PCT`] percent slower than the parent's, when one of its reports
/// lacks a guarded kernel, or when any kernel has a zero fastest pass or
/// no work units. A kernel the parent's reports lack passes with a note,
/// so a change may introduce a kernel.
pub fn guard(parent: &[Vec<KernelStat>], change: &[Vec<KernelStat>]) -> GuardVerdict {
    let mut failures = Vec::new();
    for (i, report) in change.iter().enumerate() {
        for kernel in GUARD_KERNELS {
            if !report.iter().any(|k| k.name == kernel) {
                failures.push(format!("change report {} has no kernel {kernel}", i + 1));
            }
        }
    }
    let mut table = vec![format!(
        "{:<28} {:>14} {:>14} {:>8}   ({} parent and {} change reports)",
        "fastest pass per work unit",
        "parent ns",
        "change ns",
        "ratio",
        parent.len(),
        change.len()
    )];
    let (before, after) = match (
        fastest_per_unit("parent", parent),
        fastest_per_unit("change", change),
    ) {
        (Ok(before), Ok(after)) => (before, after),
        (before, after) => {
            failures.extend(before.err().into_iter().chain(after.err()));
            return GuardVerdict { table, failures };
        }
    };
    for (name, change_ns) in after {
        let guarded = GUARD_KERNELS.contains(&name);
        let Some(&(_, parent_ns)) = before.iter().find(|(k, _)| *k == name) else {
            table.push(format!(
                "{name:<28} {:>14} {change_ns:>14.2} {:>8}   the parent has no such kernel: not judged",
                "-", "-"
            ));
            continue;
        };
        let ratio = change_ns / parent_ns;
        let verdict = match (guarded, (ratio - 1.0) * 100.0) {
            (false, _) => String::new(),
            (true, slower) if slower > GUARD_PCT => {
                failures.push(format!(
                    "{name} is {slower:+.1}% per work unit against the parent (limit +{GUARD_PCT:.0}%)"
                ));
                "   guarded: REGRESSION".to_string()
            }
            (true, _) => "   guarded".to_string(),
        };
        table.push(format!(
            "{name:<28} {parent_ns:>14.2} {change_ns:>14.2} {ratio:>8.3}{verdict}"
        ));
    }
    GuardVerdict { table, failures }
}

/// The `mode` a report of `cfg` records.
fn mode(cfg: &PerfConfig) -> &'static str {
    if cfg.quick {
        "quick"
    } else {
        "full"
    }
}

/// Renders the report as JSON.
pub fn render_json(cfg: &PerfConfig, results: &[KernelResult]) -> String {
    let kernels = results.iter().map(|r| {
        json::obj([
            ("name", r.name.into()),
            ("work", r.work.into()),
            ("work_units", r.work_units.into()),
            ("median_ns", r.median_ns.into()),
            ("mad_ns", r.mad_ns.into()),
            ("p90_ns", r.p90_ns.into()),
            ("outliers", r.outliers.into()),
            ("min_ns", r.min_ns.into()),
            ("max_ns", r.max_ns.into()),
            ("samples_ns", r.samples_ns.iter().copied().collect()),
        ])
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
        ("kernels", Value::Arr(kernels.collect())),
    ])
    .pretty()
}

/// Validates that `text` is a report this harness wrote under `cfg`: the
/// schema and mode, and every kernel [`run_all`] runs with a nonzero
/// median, fastest pass and work-unit count.
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
            Some(k) if k.median_ns == 0 || k.min_ns == 0 || k.work_units == 0 => {
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

    /// A result whose every pass took `median_ns`.
    fn result(name: &'static str, work_units: u64, median_ns: u64) -> KernelResult {
        KernelResult {
            name,
            work: "w",
            work_units,
            samples_ns: vec![median_ns, median_ns],
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
        let json = render_json(&cfg, &results);
        validate_report(&json, &cfg).unwrap();
        assert_eq!(
            validate_report(&json, &PerfConfig::full()),
            Err("expected a full-mode report".to_string())
        );
        let report = json::parse(&json).unwrap();
        let stats = kernel_stats(&report).unwrap();
        assert_eq!(stats.len(), 6);
        assert_eq!(stats[0].name, "machine_1k_transactions");
        assert_eq!(stats[0].median_ns, results[0].median_ns);
        assert_eq!(stats[0].min_ns, results[0].min_ns);
        // The guard kernels run their full workloads even in quick mode,
        // so CI guard comparisons are like-for-like.
        assert_eq!(stats[0].work_units, 1_000);
        assert_eq!(stats[3].name, "queue_churn");
        assert_eq!(stats[4].name, "cube_pdes_events");
        assert_eq!(stats[4].work_units, CUBE_PDES_EVENTS);
        assert_eq!(stats[5].name, "cube_pdes_events_parallel");
        assert_eq!(stats[5].work_units, CUBE_PDES_EVENTS);
        let kernel = &report.array_field("kernels").unwrap()[0];
        assert_eq!(kernel.u64_field("p90_ns"), Ok(results[0].p90_ns));
        assert_eq!(
            kernel.u64_field("outliers"),
            Ok(u64::from(results[0].outliers))
        );
        assert!(report.u64_field("host_parallelism").unwrap() >= 1);
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

    /// One report's stats: every kernel over 1,000 work units, its
    /// fastest pass at `ns_per_unit(kernel)` per unit.
    fn report(ns_per_unit: impl Fn(&str) -> u64) -> Vec<KernelStat> {
        KERNELS
            .iter()
            .map(|k| {
                let min_ns = 1_000 * ns_per_unit(k.name);
                KernelStat {
                    name: k.name.to_string(),
                    median_ns: min_ns + min_ns / 10,
                    work_units: 1_000,
                    min_ns,
                }
            })
            .collect()
    }

    /// The table line of `kernel`.
    fn line<'a>(verdict: &'a GuardVerdict, kernel: &str) -> &'a str {
        verdict
            .table
            .iter()
            .find(|l| l.split_whitespace().next() == Some(kernel))
            .unwrap_or_else(|| panic!("no line for {kernel}: {verdict:?}"))
    }

    #[test]
    fn guard_pools_the_fastest_pass_of_every_report() {
        // Nine change reports at the parent's speed and one whose passes
        // all took twice as long, as in a slow burst of the host: each
        // side's fastest pass is the same, so every kernel reads at parity.
        let parent = vec![report(|_| 100); 10];
        let mut change = vec![report(|_| 100); 9];
        change.push(report(|_| 200));
        let verdict = guard(&parent, &change);
        assert!(verdict.failures.is_empty(), "{verdict:?}");
        assert!(verdict.table[0].contains("(10 parent and 10 change reports)"));
        assert_eq!(verdict.table.len(), 1 + KERNELS.len());
        for k in &KERNELS {
            let figures: Vec<&str> = line(&verdict, k.name).split_whitespace().collect();
            assert_eq!(figures[1..4], ["100.00", "100.00", "1.000"], "{verdict:?}");
        }
        assert!(line(&verdict, "cube_pdes_events_parallel").ends_with("guarded"));
        assert!(line(&verdict, "queue_churn").ends_with("1.000"));
    }

    #[test]
    fn guard_passes_within_threshold_and_fails_beyond() {
        let parent = vec![report(|_| 100); 10];
        let slower = |kernel: &'static str, ns: u64| {
            vec![report(|name| if name == kernel { ns } else { 100 }); 10]
        };
        // A uniform +30 % on one guarded kernel fails, naming that kernel.
        let verdict = guard(&parent, &slower("cube_pdes_events", 130));
        assert_eq!(
            verdict.failures,
            vec!["cube_pdes_events is +30.0% per work unit against the parent (limit +25%)"]
        );
        assert!(line(&verdict, "cube_pdes_events").ends_with("guarded: REGRESSION"));
        // The two-worker cube is judged by its own figure.
        let verdict = guard(&parent, &slower("cube_pdes_events_parallel", 130));
        assert_eq!(verdict.failures.len(), 1);
        assert!(verdict.failures[0].starts_with("cube_pdes_events_parallel is +30.0%"));
        // +20 % passes, as does any speed-up, and an unguarded kernel is
        // printed but not judged.
        assert!(guard(&parent, &slower("machine_1k_transactions", 120))
            .failures
            .is_empty());
        assert!(guard(&parent, &slower("machine_1k_transactions", 50))
            .failures
            .is_empty());
        let verdict = guard(&parent, &slower("queue_churn", 200));
        assert!(verdict.failures.is_empty());
        assert!(line(&verdict, "queue_churn").ends_with("2.000"));
    }

    #[test]
    fn guard_reads_a_v2_report_as_a_parent() {
        // A report of schema v2, which also carried each pass scaled to a
        // reference host's speed: the guard reads its raw fastest pass and
        // ignores the rest.
        let v2 = r#"{
          "schema": "multicube-bench-core/v2",
          "mode": "quick",
          "host_parallelism": 2,
          "warmup": 1,
          "repeats": 5,
          "calibration_iterations": 2000000,
          "calibration_reference_ns": 6000000,
          "kernels": [
            {"name": "machine_1k_transactions", "work": "w", "work_units": 1000,
             "median_ns": 110000, "mad_ns": 0, "p90_ns": 110000, "outliers": 0,
             "min_ns": 100000, "max_ns": 110000, "calibrated_median_ns": 190000,
             "calibrated_min_ns": 170000, "samples_ns": [100000, 110000],
             "calibration_ns": [3500000, 3600000], "calibrated_samples_ns": [170000, 190000]},
            {"name": "cube_pdes_events", "work_units": 1000,
             "median_ns": 110000, "min_ns": 100000},
            {"name": "cube_pdes_events_parallel", "work_units": 1000,
             "median_ns": 110000, "min_ns": 100000}
          ]
        }"#;
        let parent = vec![kernel_stats(&json::parse(v2).unwrap()).unwrap()];
        assert_eq!(
            parent[0][0],
            KernelStat {
                name: "machine_1k_transactions".to_string(),
                median_ns: 110_000,
                work_units: 1_000,
                min_ns: 100_000,
            }
        );
        let verdict = guard(&parent, &[report(|_| 100)]);
        assert!(verdict.failures.is_empty(), "{verdict:?}");
        for kernel in GUARD_KERNELS {
            assert!(line(&verdict, kernel).contains(" 1.000"), "{verdict:?}");
        }
    }

    #[test]
    fn guard_passes_a_kernel_the_parent_lacks_with_a_note() {
        let mut parent = vec![report(|_| 100); 10];
        for r in &mut parent {
            r.retain(|k| k.name != "cube_pdes_events_parallel");
        }
        let change = vec![
            report(|name| if name == "cube_pdes_events_parallel" {
                900
            } else {
                100
            });
            10
        ];
        let verdict = guard(&parent, &change);
        assert!(verdict.failures.is_empty(), "{verdict:?}");
        assert!(line(&verdict, "cube_pdes_events_parallel")
            .ends_with("the parent has no such kernel: not judged"));
    }

    #[test]
    fn guard_fails_a_change_report_without_a_guarded_kernel() {
        let parent = vec![report(|_| 100); 10];
        let mut change = vec![report(|_| 100); 10];
        change[3].retain(|k| k.name != "machine_1k_transactions");
        assert_eq!(
            guard(&parent, &change).failures,
            vec!["change report 4 has no kernel machine_1k_transactions"]
        );
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
        let busy = vec![report(|_| 100); 10];
        let mut idle = busy.clone();
        idle[9][0].work_units = 0;
        assert_eq!(
            guard(&idle, &busy).failures,
            vec!["parent kernel machine_1k_transactions has a zero fastest pass or no work units"]
        );
        assert_eq!(
            guard(&busy, &idle).failures,
            vec!["change kernel machine_1k_transactions has a zero fastest pass or no work units"]
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
        let json = render_json(&cfg, &results);
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
        let dropped = render_json(&cfg, &results[..6]);
        assert_eq!(
            validate_report(&dropped, &cfg),
            Err("missing kernel cube_pdes_events_parallel".to_string())
        );
    }
}
