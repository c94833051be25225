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

use std::fmt::Write as _;
use std::time::Instant;

use multicube::{FaultPlan, Machine, MachineConfig, Request, SyntheticSpec};
use multicube_mem::LineAddr;
use multicube_sim::pool::Pool;
use multicube_sim::{DeterministicRng, EventQueue};
use multicube_topology::NodeId;

/// Identifies the JSON layout; bump when the schema changes shape.
pub const SCHEMA: &str = "multicube-bench-core/v1";

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

/// Runs one kernel body under the configured warmup/repeat discipline.
fn measure(
    cfg: &PerfConfig,
    name: &'static str,
    work: &'static str,
    work_units: u64,
    mut body: impl FnMut() -> u64,
) -> KernelResult {
    let mut guard = 0u64;
    for _ in 0..cfg.warmup {
        guard = guard.wrapping_add(body());
    }
    let mut samples_ns = Vec::with_capacity(cfg.repeats as usize);
    for _ in 0..cfg.repeats {
        let start = Instant::now();
        guard = guard.wrapping_add(body());
        samples_ns.push(start.elapsed().as_nanos() as u64);
    }
    std::hint::black_box(guard);
    let mut sorted = samples_ns.clone();
    sorted.sort_unstable();
    let med = median(&sorted);
    let mut dev: Vec<u64> = samples_ns.iter().map(|&s| s.abs_diff(med)).collect();
    dev.sort_unstable();
    let mad = median(&dev);
    let cutoff = med.saturating_add(5 * mad);
    let outliers = samples_ns.iter().filter(|&&s| s > cutoff).count() as u32;
    KernelResult {
        name,
        work,
        work_units,
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
/// are events-based: the kernel's figure of merit is events per second
/// through the conservative parallel scheduler.
pub const CUBE_PDES_EVENTS: u64 = 14_033;

/// The `cube_pdes_events` kernels: a 4-plane cube (4^3 = 64 processors)
/// with synthetic workloads per plane and cross-plane depth traffic,
/// executed through the conservative parallel scheduler. At one worker
/// (`cube_pdes_events`) this is the serial reference path, free of
/// thread-scheduling noise, measuring the PDES machinery itself (rounds,
/// horizon computation, message routing) on top of the machine cores. At
/// two workers (`cube_pdes_events_parallel`) it adds the parallel
/// executor's round barriers and slot hand-off; the run is byte-identical
/// by construction, so the two kernels' per-unit numbers are directly
/// comparable.
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

/// Runs every kernel and collects the results, in kernel order.
///
/// Kernels run as jobs on a **serial** pool: wall-clock timing forbids
/// concurrency (parallel passes would contend for the cores being
/// measured), so the pool contributes its other two guarantees — stable
/// result ordering and per-kernel panic containment. A kernel that
/// panics becomes a [`KernelFailure`]; the remaining kernels still
/// measure and report.
pub fn run_all(cfg: &PerfConfig) -> (Vec<KernelResult>, Vec<KernelFailure>) {
    let quick = cfg.quick;
    type Body = Box<dyn FnMut() -> u64 + Send>;
    let kernels: Vec<(&'static str, &'static str, u64, Body)> = vec![
        (
            "machine_1k_transactions",
            "1000 mixed read/write transactions on a 4x4 grid, drained to quiescence",
            1_000,
            Box::new(move || kernel_machine_1k(quick)),
        ),
        (
            "synthetic_sweep",
            "closed-loop Figure-2 workload at 10 and 25 req/ms/proc on a 4x4 grid",
            2 * 16 * if quick { 10 } else { 40 },
            Box::new(move || kernel_synthetic_sweep(quick)),
        ),
        (
            "faulted_run",
            "synthetic workload under a composite fault plan (drop/loss/dup/nack)",
            16 * if quick { 10 } else { 30 },
            Box::new(move || kernel_faulted_run(quick)),
        ),
        (
            "queue_churn",
            "event-queue schedule/pop churn over the machine's delay mix",
            queue_churn_ops(quick),
            Box::new(move || kernel_queue_churn(quick)),
        ),
        (
            "cube_pdes_events",
            "4-plane cube (64 processors) through the conservative parallel \
             scheduler, serial reference execution; units are machine events",
            CUBE_PDES_EVENTS,
            Box::new(|| kernel_cube_pdes(1)),
        ),
        (
            "cube_pdes_events_parallel",
            "the same cube through 4 plane shards on 2 workers; units are \
             machine events",
            CUBE_PDES_EVENTS,
            Box::new(|| kernel_cube_pdes(2)),
        ),
    ];
    let names: Vec<&'static str> = kernels.iter().map(|(name, _, _, _)| *name).collect();
    let outcomes = Pool::serial().run(
        kernels
            .into_iter()
            .map(|(name, work, units, body)| move |_id| measure(cfg, name, work, units, body))
            .collect::<Vec<_>>(),
    );
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for (name, outcome) in names.into_iter().zip(outcomes) {
        match outcome {
            Ok(r) => results.push(r),
            Err(panic) => failures.push(KernelFailure {
                name,
                message: panic.message,
            }),
        }
    }
    (results, failures)
}

/// Summary statistics of one kernel from a written report, as read back
/// by [`extract_kernel_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStat {
    /// Kernel name.
    pub name: String,
    /// Median wall-clock time per pass (ns).
    pub median_ns: u64,
    /// Work units per pass; `0` for reports written before the field
    /// existed.
    pub work_units: u64,
}

/// Scans one `u64` JSON field out of a kernel block.
fn scan_u64_field(block: &str, key: &str) -> Option<u64> {
    let pos = block.find(key)?;
    let tail = &block[pos + key.len()..];
    let digits: String = tail
        .chars()
        .skip_while(|c| *c == ':' || c.is_whitespace())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Extracts per-kernel summary stats from a previous report, tolerating
/// reports from before `work_units` existed (the field reads as zero).
/// Each kernel's fields are read from its own block only, up to the next
/// `"name"` key; a kernel without a `median_ns` is left out.
///
/// The scanner only relies on the keys this module itself emits, so it
/// round-trips any report the harness wrote.
pub fn extract_kernel_stats(text: &str) -> Vec<KernelStat> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"name\"") {
        rest = &rest[pos + "\"name\"".len()..];
        let Some(q0) = rest.find('"') else { break };
        let Some(q1) = rest[q0 + 1..].find('"') else {
            break;
        };
        let name = rest[q0 + 1..q0 + 1 + q1].to_string();
        let block = &rest[..rest.find("\"name\"").unwrap_or(rest.len())];
        if let Some(median_ns) = scan_u64_field(block, "\"median_ns\"") {
            out.push(KernelStat {
                name,
                median_ns,
                work_units: scan_u64_field(block, "\"work_units\"").unwrap_or(0),
            });
        }
    }
    out
}

/// The soft CI perf-regression guard: compares `kernel`'s median between
/// two reports and fails when the current one is more than
/// `threshold_pct` percent slower.
///
/// Quick and full reports run different kernel sizes, so when both
/// reports carry `work_units` the comparison is per work unit; raw
/// medians are compared otherwise. A baseline without the kernel passes
/// with a note — the guard is soft, it must not block the first report
/// that introduces a kernel.
///
/// # Errors
///
/// A description of the regression (or of a malformed current report).
pub fn check_regression_guard(
    current_json: &str,
    baseline_json: &str,
    kernel: &str,
    threshold_pct: f64,
) -> Result<String, String> {
    let current = extract_kernel_stats(current_json);
    let cur = current
        .iter()
        .find(|k| k.name == kernel)
        .ok_or_else(|| format!("kernel {kernel} missing from current report"))?;
    let baseline = extract_kernel_stats(baseline_json);
    let Some(base) = baseline.iter().find(|k| k.name == kernel) else {
        return Ok(format!("guard: baseline has no kernel {kernel}; skipping"));
    };
    if base.median_ns == 0 {
        return Err(format!("baseline kernel {kernel} has zero median"));
    }
    let per_unit = cur.work_units > 0 && base.work_units > 0;
    let (cur_v, base_v, unit) = if per_unit {
        (
            cur.median_ns as f64 / cur.work_units as f64,
            base.median_ns as f64 / base.work_units as f64,
            "ns/unit",
        )
    } else {
        (cur.median_ns as f64, base.median_ns as f64, "ns")
    };
    let delta_pct = (cur_v - base_v) / base_v * 100.0;
    let msg = format!(
        "guard: {kernel} {cur_v:.1} {unit} vs baseline {base_v:.1} {unit} ({delta_pct:+.1}%)"
    );
    if delta_pct > threshold_pct {
        Err(format!("{msg} exceeds the +{threshold_pct:.0}% threshold"))
    } else {
        Ok(msg)
    }
}

/// Renders the report as JSON. `baseline` medians (from
/// [`extract_kernel_stats`] on a previous report) are embedded together
/// with the speedup of each matching kernel.
pub fn render_json(
    cfg: &PerfConfig,
    results: &[KernelResult],
    baseline: Option<&[KernelStat]>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if cfg.quick { "quick" } else { "full" }
    );
    let _ = writeln!(
        out,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    let _ = writeln!(out, "  \"warmup\": {},", cfg.warmup);
    let _ = writeln!(out, "  \"repeats\": {},", cfg.repeats);
    out.push_str("  \"kernels\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(out, "      \"work\": \"{}\",", r.work);
        let _ = writeln!(out, "      \"work_units\": {},", r.work_units);
        let _ = writeln!(out, "      \"median_ns\": {},", r.median_ns);
        let _ = writeln!(out, "      \"mad_ns\": {},", r.mad_ns);
        let _ = writeln!(out, "      \"p90_ns\": {},", r.p90_ns);
        let _ = writeln!(out, "      \"outliers\": {},", r.outliers);
        let _ = writeln!(out, "      \"min_ns\": {},", r.min_ns);
        let _ = writeln!(out, "      \"max_ns\": {},", r.max_ns);
        if let Some(base) = baseline
            .and_then(|b| b.iter().find(|k| k.name == r.name))
            .map(|k| k.median_ns)
        {
            let _ = writeln!(out, "      \"baseline_median_ns\": {base},");
            if r.median_ns > 0 {
                let _ = writeln!(
                    out,
                    "      \"speedup_vs_baseline\": {:.4},",
                    base as f64 / r.median_ns as f64
                );
            }
        }
        let samples: Vec<String> = r.samples_ns.iter().map(|s| s.to_string()).collect();
        let _ = writeln!(out, "      \"samples_ns\": [{}]", samples.join(", "));
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Validates that `text` looks like a report this harness wrote: balanced
/// JSON brackets, the schema marker, and at least the three core kernels
/// with nonzero medians.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn validate_report(text: &str) -> Result<(), String> {
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut in_str = false;
    let mut prev = '\0';
    for c in text.chars() {
        if in_str {
            if c == '"' && prev != '\\' {
                in_str = false;
            }
        } else {
            match c {
                '"' => in_str = true,
                '{' => depth_obj += 1,
                '}' => depth_obj -= 1,
                '[' => depth_arr += 1,
                ']' => depth_arr -= 1,
                _ => {}
            }
            if depth_obj < 0 || depth_arr < 0 {
                return Err("unbalanced brackets".into());
            }
        }
        prev = c;
    }
    if depth_obj != 0 || depth_arr != 0 || in_str {
        return Err("unterminated JSON structure".into());
    }
    if !text.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("missing schema marker {SCHEMA}"));
    }
    let stats = extract_kernel_stats(text);
    for required in [
        "machine_1k_transactions",
        "synthetic_sweep",
        "faulted_run",
        "queue_churn",
        "cube_pdes_events",
        "cube_pdes_events_parallel",
    ] {
        match stats
            .iter()
            .find(|k| k.name == required)
            .map(|k| k.median_ns)
        {
            None => return Err(format!("missing kernel {required}")),
            Some(0) => return Err(format!("kernel {required} has zero median")),
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let json = render_json(&cfg, &results, None);
        validate_report(&json).unwrap();
        let stats = extract_kernel_stats(&json);
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
        assert!(json.contains("\"p90_ns\""));
        assert!(json.contains("\"outliers\""));
        assert!(json.contains("\"host_parallelism\": "));
    }

    #[test]
    fn baseline_is_embedded_with_speedup() {
        let cfg = PerfConfig::quick();
        let results = vec![result("machine_1k_transactions", 300, 100)];
        let base = vec![KernelStat {
            name: "machine_1k_transactions".to_string(),
            median_ns: 200,
            work_units: 1_000,
        }];
        let json = render_json(&cfg, &results, Some(&base));
        assert!(json.contains("\"baseline_median_ns\": 200"));
        assert!(json.contains("\"speedup_vs_baseline\": 2.0000"));
    }

    #[test]
    fn cube_kernel_work_units_match_its_deterministic_delivery() {
        // The cube run is fully deterministic, so the kernel's work-unit
        // count can be pinned: a drift here means the PDES schedule (and
        // therefore every committed fingerprint) changed. The parallel
        // kernel delivers the identical count — execution strategy never
        // changes what is simulated.
        assert_eq!(kernel_cube_pdes(1), CUBE_PDES_EVENTS);
        assert_eq!(kernel_cube_pdes(2), CUBE_PDES_EVENTS);
    }

    #[test]
    fn stats_extractor_tolerates_reports_without_work_units() {
        let old = r#"{"kernels": [{"name": "machine_1k_transactions",
            "median_ns": 274279, "mad_ns": 5}]}"#;
        let stats = extract_kernel_stats(old);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].median_ns, 274_279);
        assert_eq!(stats[0].work_units, 0);
    }

    #[test]
    fn stats_extractor_keeps_each_median_with_its_own_kernel() {
        // A kernel without a median must not borrow the next kernel's.
        let text = r#"{"kernels": [{"name": "a", "mad_ns": 1}, {"name": "b", "median_ns": 5}]}"#;
        let pairs: Vec<(String, u64)> = extract_kernel_stats(text)
            .into_iter()
            .map(|k| (k.name, k.median_ns))
            .collect();
        assert_eq!(pairs, [("b".to_string(), 5)]);
    }

    #[test]
    fn guard_passes_within_threshold_and_fails_beyond() {
        let cfg = PerfConfig::quick();
        // Per-unit: current is 300 units at 120 ns vs baseline 1000 units
        // at 300 ns — 0.4 vs 0.3 ns/unit, a +33% regression.
        let current = render_json(&cfg, &[result("machine_1k_transactions", 300, 120)], None);
        let baseline = render_json(
            &PerfConfig::full(),
            &[result("machine_1k_transactions", 1_000, 300)],
            None,
        );
        let err = check_regression_guard(&current, &baseline, "machine_1k_transactions", 25.0)
            .unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        // A faster run passes.
        let fast = render_json(&cfg, &[result("machine_1k_transactions", 300, 60)], None);
        let msg =
            check_regression_guard(&fast, &baseline, "machine_1k_transactions", 25.0).unwrap();
        assert!(msg.contains("ns/unit"), "{msg}");
        // Threshold is inclusive-of-anything-at-or-below: +33% passes a 40% bar.
        check_regression_guard(&current, &baseline, "machine_1k_transactions", 40.0).unwrap();
    }

    #[test]
    fn guard_falls_back_to_raw_medians_without_work_units() {
        let old_baseline =
            r#"{"kernels": [{"name": "machine_1k_transactions", "median_ns": 100}]}"#;
        let cfg = PerfConfig::quick();
        let current = render_json(&cfg, &[result("machine_1k_transactions", 300, 200)], None);
        let err = check_regression_guard(&current, old_baseline, "machine_1k_transactions", 25.0)
            .unwrap_err();
        assert!(err.contains("ns vs baseline"), "{err}");
        // An unknown kernel in the baseline is a soft pass.
        let msg = check_regression_guard(&current, "{}", "machine_1k_transactions", 25.0).unwrap();
        assert!(msg.contains("skipping"), "{msg}");
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_report("{").is_err());
        assert!(validate_report("{}").is_err());
        let no_kernels = format!("{{\"schema\": \"{SCHEMA}\"}}");
        assert!(validate_report(&no_kernels).is_err());
    }

    #[test]
    fn validate_rejects_a_required_kernel_without_a_median() {
        // An unrequired kernel right after the median-less one: its median
        // must not stand in for the missing one.
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
        validate_report(&json).unwrap();
        let without = json.replacen("\"median_ns\": 100,", "", 1);
        assert_ne!(without, json);
        assert_eq!(
            validate_report(&without),
            Err("missing kernel machine_1k_transactions".to_string())
        );
    }
}
