//! The four workloads and the harness that times them.
//!
//! Each workload sets up `SETUP_REPS` times (the median is `setup_s`),
//! then repeats its timed unit until the run's seconds are spent, and
//! at least its minimum repetition count. A traced run repeats the
//! timed phase with tracing on, so the end-to-end numbers are always
//! measured with tracing off and the difference is the tracing
//! overhead.
//!
//! Every set-up and repetition is bracketed by runs of a fixed
//! calibration kernel ([`crate::calibrate`]), and its time is reported
//! in seconds of the reference host: the benchmark host's own speed
//! drifts too much for raw wall time to compare one run with the next.
//!
//! Per-workload seeds derive from the base seed exactly as the
//! program's own harnesses derive them (`figures -- fig2`, `figures --
//! serve`, `figures -- scaling`), so default-seed runs reproduce the
//! committed artifacts.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use multicube::{run_cube, CubeConfig, Machine, MachineConfig, Request, RunReport, SyntheticSpec};
use multicube_mva::{solve, ModelParams};
use multicube_sim::pool::Pool;
use multicube_sim::stats::{Histogram, OnlineStats};
use multicube_sim::{md5_hex, split_seed, stream_id, DeterministicRng};
use multicube_topology::NodeId;
use multicube_workload::{
    Oltp, StreamingPlayer, TraceV2Reader, TraceV2Writer, WebSession, Workload, WorkloadReport,
    WorkloadRunner,
};

use crate::calibrate;
use crate::spans::{Span, SpanId, Tracer};
use crate::stats::median;
use crate::{END_TO_END, PER_LAYER};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Host threads of the sweep pool and of the parallel cube: the
/// benchmark host has 2 CPUs and no workload may use more.
const WORKERS: usize = 2;
/// Guard against an endless timed phase when a repetition is instant.
const MAX_REPS: usize = 10_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig2Sweep,
    ServeOltp,
    ServeWeb,
    CubeN32,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Fig2Sweep,
        Kind::ServeOltp,
        Kind::ServeWeb,
        Kind::CubeN32,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig2Sweep => "fig2-sweep",
            Kind::ServeOltp => "serve-oltp",
            Kind::ServeWeb => "serve-web",
            Kind::CubeN32 => "cube-n32",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Host threads the workload runs on.
    pub fn threads(self) -> usize {
        match self {
            Kind::Fig2Sweep | Kind::CubeN32 => WORKERS,
            Kind::ServeOltp | Kind::ServeWeb => 1,
        }
    }

    /// Timed repetitions a run makes even when its seconds run out.
    /// Kept low enough that a run on a slow host still fits the
    /// benchmark's time budget; a fast host fits more in its seconds.
    pub fn min_reps(self) -> usize {
        match self {
            Kind::Fig2Sweep | Kind::ServeOltp | Kind::ServeWeb => 3,
            Kind::CubeN32 => 10,
        }
    }
}

/// Workload sizes. The command line always runs [`Size::full`]; tests
/// pass [`Size::tiny`].
#[derive(Debug, Clone)]
pub struct Size {
    /// Figure-2 grid sides.
    pub sweep_sides: Vec<u32>,
    /// Figure-2 request rates (requests/ms/processor).
    pub sweep_rates: Vec<f64>,
    pub sweep_txns_per_node: u64,
    /// Serving grid side (`side x side` nodes).
    pub serve_side: u32,
    pub serve_requests_per_node: u64,
    /// Records per v2 trace chunk.
    pub serve_chunk_records: usize,
    /// Cube side (`side^3` processors).
    pub cube_side: u32,
    pub cube_txns_per_node: u64,
    pub cube_remote_ops: u64,
    pub cube_remote_gap_ns: f64,
    /// Iterations of each calibration kernel run.
    pub calibration_iterations: u64,
}

impl Size {
    /// The benchmark's operating point.
    pub fn full() -> Self {
        Size {
            sweep_sides: vec![8, 16, 24, 32],
            sweep_rates: vec![2.0, 6.0, 10.0, 15.0, 20.0, 25.0, 30.0],
            sweep_txns_per_node: 60,
            serve_side: 8,
            serve_requests_per_node: 26_500,
            serve_chunk_records: 65_536,
            cube_side: 32,
            cube_txns_per_node: 4,
            cube_remote_ops: 256,
            cube_remote_gap_ns: 250.0,
            calibration_iterations: calibrate::ITERATIONS,
        }
    }

    /// A milliseconds-scale point with the same shape, for tests.
    pub fn tiny() -> Self {
        Size {
            sweep_sides: vec![2, 3],
            sweep_rates: vec![5.0, 25.0],
            sweep_txns_per_node: 6,
            serve_side: 2,
            serve_requests_per_node: 40,
            serve_chunk_records: 16,
            cube_side: 3,
            cube_txns_per_node: 2,
            cube_remote_ops: 8,
            cube_remote_gap_ns: 200.0,
            calibration_iterations: 20_000,
        }
    }
}

/// One measured value, with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run of one workload measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub kind: Kind,
    pub seed: u64,
    pub traced: bool,
    /// Transactions the timed repetitions attempted.
    pub attempted: u64,
    /// Transactions lost to a panic or left incomplete.
    pub failed: u64,
    /// Every failed check, in the order found.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The deterministic per-layer metrics, identical in every
    /// repetition of one seed.
    pub det: Vec<Metric>,
    /// The deterministic fingerprint every repetition reproduced.
    pub fingerprint: String,
    /// Wall seconds of each untraced timed repetition.
    pub rep_s: Vec<f64>,
    /// Host speed (relative to the reference host) around each of them.
    pub rep_speed: Vec<f64>,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Host speed around each set-up.
    pub setup_speed: Vec<f64>,
    /// Seconds of every calibration kernel run, in order.
    pub calibration_s: Vec<f64>,
    /// Figure-2 points `(n, rate, simulated efficiency)` (sweep only).
    pub points: Vec<(u32, f64, f64)>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// Per-call trace-decode time, ns (traced serve runs only).
    pub decode_hist: Option<Histogram>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The value of metric `name`, if this outcome reports it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(self.det.iter())
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs workload `kind` at `size` with base seed `seed`, timing
/// repetitions for about `seconds` per phase.
pub fn run(kind: Kind, size: &Size, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut h = Harness::new(kind, seed, seconds, traced, size.calibration_iterations);
    match kind {
        Kind::Fig2Sweep => sweep(&mut h, size, seed),
        Kind::ServeOltp | Kind::ServeWeb => serve(&mut h, size, seed),
        Kind::CubeN32 => cube(&mut h, size, seed),
    }
    h.finish()
}

// ---------------------------------------------------------------------
// The harness: set-ups, timed phases, calibration, failure accounting.
// ---------------------------------------------------------------------

/// What one timed repetition reports.
#[derive(Debug, Default)]
struct Rep {
    /// Transactions completed.
    txns: u64,
    /// Transactions lost (quota minus completed, or a panicked job's).
    failed: u64,
    fingerprint: String,
    /// Deterministic per-layer values.
    det: Vec<(&'static str, f64)>,
    /// Host-time per-layer values (meaningful in traced repetitions).
    timed: Vec<(&'static str, f64)>,
    problems: Vec<String>,
    points: Vec<(u32, f64, f64)>,
    decode_hist: Option<Histogram>,
}

/// One repetition that returned: its wall time, the host speed around
/// it, and whether it ran traced.
struct Done {
    traced: bool,
    wall_s: f64,
    speed: f64,
    rep: Rep,
}

impl Done {
    /// The repetition's time on the reference host.
    fn reference_s(&self) -> f64 {
        self.wall_s * self.speed
    }
}

struct Harness {
    kind: Kind,
    seed: u64,
    seconds: f64,
    tracer: Tracer,
    root: SpanId,
    calibration_iterations: u64,
    /// Every calibration's seconds, the last one bracketing the next
    /// unit of work.
    calibration_s: Vec<f64>,
    setup_s: Vec<f64>,
    setup_speed: Vec<f64>,
    done: Vec<Done>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Per-layer values measured outside the repetitions, already in
    /// reference-host units.
    extra: Vec<(&'static str, f64)>,
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// `value`, measured while the host ran at `speed`, in reference-host
/// units: times shrink and rates grow on a slow host.
fn to_reference(name: &str, value: f64, speed: f64) -> f64 {
    match PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u) {
        Some("ns") => value * speed,
        Some("1/s") => value / speed,
        _ => value,
    }
}

impl Harness {
    fn new(kind: Kind, seed: u64, seconds: f64, traced: bool, calibration_iterations: u64) -> Self {
        let mut tracer = Tracer::new(traced);
        let root = tracer.open(kind.name(), None);
        let mut h = Harness {
            kind,
            seed,
            seconds,
            tracer,
            root,
            calibration_iterations,
            calibration_s: Vec::new(),
            setup_s: Vec::new(),
            setup_speed: Vec::new(),
            done: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            extra: Vec::new(),
        };
        h.calibrate();
        h
    }

    fn calibrate(&mut self) -> f64 {
        let start = Instant::now();
        let s = calibrate::seconds(self.calibration_iterations, self.kind.threads());
        self.tracer
            .record("calibrate", self.root, start, Instant::now());
        self.calibration_s.push(s);
        s
    }

    /// Calibrates after a unit of work and returns the host speed over
    /// it, from the calibrations on either side.
    fn bracket(&mut self) -> f64 {
        let before = *self.calibration_s.last().expect("calibrated at start");
        let after = self.calibrate();
        calibrate::speed(self.calibration_iterations, before, after)
    }

    /// Runs the set-up `SETUP_REPS` times, timing each. Returns false
    /// (with the problem recorded) if any set-up failed.
    fn setups(&mut self, mut f: impl FnMut(&mut Tracer, SpanId) -> Result<(), String>) -> bool {
        for _ in 0..SETUP_REPS {
            let span = self.tracer.open("setup", self.root);
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| f(&mut self.tracer, span)));
            self.setup_s.push(t.elapsed().as_secs_f64());
            self.tracer.close(span);
            let speed = self.bracket();
            self.setup_speed.push(speed);
            let err = match result {
                Ok(Ok(())) => continue,
                Ok(Err(e)) => e,
                Err(p) => panic_text(p),
            };
            self.problems.push(format!("set-up failed: {err}"));
            return false;
        }
        true
    }

    /// Reference-host seconds of each set-up.
    fn setup_reference_s(&self) -> Vec<f64> {
        self.setup_s
            .iter()
            .zip(&self.setup_speed)
            .map(|(s, v)| s * v)
            .collect()
    }

    /// The untraced timed phase, then (in a traced run) the traced one.
    /// Each repetition attempts `quota` transactions.
    fn reps(&mut self, quota: u64, mut f: impl FnMut(&mut Tracer, SpanId) -> Rep) {
        self.phase(false, quota, &mut f);
        if self.tracer.enabled() {
            self.phase(true, quota, &mut f);
        }
    }

    fn phase(&mut self, traced: bool, quota: u64, f: &mut impl FnMut(&mut Tracer, SpanId) -> Rep) {
        let mut off = Tracer::new(false);
        let start = Instant::now();
        for count in 1..=MAX_REPS {
            let tracer = if traced { &mut self.tracer } else { &mut off };
            let span = tracer.open("rep", self.root);
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| f(tracer, span)));
            let wall_s = t.elapsed().as_secs_f64();
            tracer.close(span);
            let speed = self.bracket();
            self.attempted += quota;
            match result {
                Ok(rep) => {
                    self.failed += rep.failed;
                    self.problems.extend(rep.problems.iter().cloned());
                    if let Some(first) = self.done.first() {
                        if first.rep.fingerprint != rep.fingerprint {
                            self.problems.push(format!(
                                "repetition {} fingerprint {} differs from the first repetition's {}",
                                self.done.len() + 1,
                                rep.fingerprint,
                                first.rep.fingerprint
                            ));
                        }
                    }
                    self.done.push(Done {
                        traced,
                        wall_s,
                        speed,
                        rep,
                    });
                }
                Err(p) => {
                    self.failed += quota;
                    self.problems
                        .push(format!("repetition panicked: {}", panic_text(p)));
                }
            }
            // Stop once the minimum is met and another repetition of
            // the same length would overrun the phase's seconds.
            if count >= self.kind.min_reps()
                && start.elapsed().as_secs_f64() + wall_s > self.seconds
            {
                break;
            }
        }
    }

    fn phase_done(&self, traced: bool) -> impl Iterator<Item = &Done> {
        self.done.iter().filter(move |d| d.traced == traced)
    }

    /// Reference-host throughput of each successful repetition of one
    /// phase.
    fn txn_per_s(&self, traced: bool) -> Vec<f64> {
        self.phase_done(traced)
            .map(|d| d.rep.txns as f64 / d.reference_s())
            .collect()
    }

    /// Reference-host seconds of each successful repetition of one phase.
    fn rep_reference_s(&self, traced: bool) -> Vec<f64> {
        self.phase_done(traced).map(Done::reference_s).collect()
    }

    fn finish(mut self) -> Outcome {
        self.tracer.close(self.root);
        let traced = self.tracer.enabled();
        let first = self.done.first().map(|d| &d.rep);
        let det: BTreeMap<&str, f64> = first
            .map(|r| r.det.iter().copied().collect())
            .unwrap_or_default();
        let metrics = if traced {
            let mut values = det.clone();
            let mut timed: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
            for d in self.phase_done(true) {
                for &(name, v) in &d.rep.timed {
                    timed
                        .entry(name)
                        .or_default()
                        .push(to_reference(name, v, d.speed));
                }
            }
            values.extend(timed.iter().map(|(&name, v)| (name, median(v))));
            values.extend(self.extra.iter().copied());
            let plain = median(&self.txn_per_s(false));
            let with_spans = median(&self.txn_per_s(true));
            values.insert("trace.overhead_frac", 1.0 - with_spans / plain);
            layer_metrics(&values)
        } else {
            let values = [
                median(&self.txn_per_s(false)),
                median(&self.setup_reference_s()),
                peak_rss_mb(),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), value)| Metric { name, unit, value })
                .collect()
        };
        let mut decode_hist: Option<Histogram> = None;
        for d in self.phase_done(true) {
            if let Some(h) = &d.rep.decode_hist {
                decode_hist.get_or_insert_with(Histogram::new).merge(h);
            }
        }
        let fingerprint = first.map(|r| r.fingerprint.clone()).unwrap_or_default();
        let points = first.map(|r| r.points.clone()).unwrap_or_default();
        let rep_s = self.phase_done(false).map(|d| d.wall_s).collect();
        let rep_speed = self.phase_done(false).map(|d| d.speed).collect();
        Outcome {
            kind: self.kind,
            seed: self.seed,
            traced,
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            metrics,
            det: layer_metrics(&det)
                .into_iter()
                .filter(|m| det.contains_key(m.name))
                .collect(),
            fingerprint,
            rep_s,
            rep_speed,
            setup_s: self.setup_s,
            setup_speed: self.setup_speed,
            calibration_s: self.calibration_s,
            points,
            spans: self.tracer.into_spans(),
            decode_hist,
        }
    }
}

/// Every per-layer metric in declared order; 0 for a layer the
/// workload does not use.
fn layer_metrics(values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    debug_assert!(
        values.keys().all(|k| PER_LAYER.iter().any(|(n, _)| n == k)),
        "undeclared per-layer metric in {:?}",
        values.keys().collect::<Vec<_>>()
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values.get(name).copied().unwrap_or(0.0),
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

// ---------------------------------------------------------------------
// Deterministic totals shared by every workload.
// ---------------------------------------------------------------------

/// Simulated-machine totals over one repetition.
#[derive(Debug, Clone)]
struct SimTotals {
    txns: u64,
    /// `None` when the event counts cannot be seen from outside (the
    /// workload runner does not report them).
    events: Option<(u64, u64, usize)>,
    bus_ops: u64,
    data_ops: u64,
    invalidations: u64,
    local_hits: u64,
    mlt_overflows: u64,
    victim_writebacks: u64,
    row_util_max: f64,
    col_util_max: f64,
    bus_queue_high_water: usize,
    efficiency_sum: f64,
    runs: u64,
    latency: OnlineStats,
    latency_hist: Histogram,
}

impl SimTotals {
    fn new() -> Self {
        SimTotals {
            txns: 0,
            events: None,
            bus_ops: 0,
            data_ops: 0,
            invalidations: 0,
            local_hits: 0,
            mlt_overflows: 0,
            victim_writebacks: 0,
            row_util_max: 0.0,
            col_util_max: 0.0,
            bus_queue_high_water: 0,
            efficiency_sum: 0.0,
            runs: 0,
            latency: OnlineStats::new(),
            latency_hist: Histogram::new(),
        }
    }

    fn add_counts(&mut self, m: &multicube::MachineMetrics) {
        self.invalidations += m.invalidations.get();
        self.local_hits += m.local_hits.count;
        self.mlt_overflows += m.mlt_overflows.get();
        self.victim_writebacks += m.victim_writebacks.get();
    }

    /// A closed-loop synthetic run (sweep point or cube plane).
    fn add_run(&mut self, r: &RunReport) {
        self.txns += r.transactions_completed;
        let (delivered, scheduled, high) = self.events.unwrap_or((0, 0, 0));
        self.events = Some((
            delivered + r.events_delivered,
            scheduled + r.events_scheduled,
            high.max(r.event_queue_high_water),
        ));
        self.bus_ops += r.row_bus_ops + r.col_bus_ops;
        self.data_ops += r.buses.iter().map(|b| b.data_ops).sum::<u64>();
        self.add_counts(&r.metrics);
        self.row_util_max = self.row_util_max.max(r.utilization.row_max);
        self.col_util_max = self.col_util_max.max(r.utilization.col_max);
        let high = r
            .buses
            .iter()
            .map(|b| b.queue_high_water)
            .max()
            .unwrap_or(0);
        self.bus_queue_high_water = self.bus_queue_high_water.max(high);
        self.efficiency_sum += r.efficiency;
        self.runs += 1;
        for (_, class) in r.metrics.classes() {
            self.latency.merge(&class.latency_ns);
            self.latency_hist.merge(&class.latency_hist);
        }
    }

    /// A trace replay: the runner's report plus the machine it drove.
    fn add_replay(&mut self, m: &Machine, r: &WorkloadReport) {
        self.txns += r.requests_completed;
        self.bus_ops += r.bus_ops;
        self.add_counts(m.metrics());
        let n = m.side() as usize;
        for slot in 0..2 * n {
            let bus = m.bus(slot);
            let u = bus.utilization(m.now());
            if slot < n {
                self.row_util_max = self.row_util_max.max(u);
            } else {
                self.col_util_max = self.col_util_max.max(u);
            }
            self.data_ops += bus.data_op_count();
            self.bus_queue_high_water = self.bus_queue_high_water.max(bus.queue_high_water());
        }
        self.efficiency_sum += r.efficiency;
        self.runs += 1;
        self.latency.merge(&r.latency_ns);
        self.latency_hist.merge(&r.latency_hist);
    }

    fn det(&self) -> Vec<(&'static str, f64)> {
        let per = |x: f64, of: f64| if of > 0.0 { x / of } else { 0.0 };
        let txns = self.txns as f64;
        let mut out = vec![
            ("core.machine.ops_per_txn", per(self.bus_ops as f64, txns)),
            (
                "core.machine.invalidations_per_txn",
                per(self.invalidations as f64, txns),
            ),
            (
                "core.machine.local_hit_frac",
                per(self.local_hits as f64, txns),
            ),
            (
                "core.machine.sim_efficiency",
                per(self.efficiency_sum, self.runs as f64),
            ),
            ("core.machine.sim_latency_mean_ns", self.latency.mean()),
            (
                "core.machine.sim_latency_p99_ns",
                self.latency_hist.quantile(0.99).unwrap_or(0) as f64,
            ),
            ("core.bus.row_util_max", self.row_util_max),
            ("core.bus.col_util_max", self.col_util_max),
            (
                "core.bus.queue_high_water_max",
                self.bus_queue_high_water as f64,
            ),
            (
                "core.bus.data_op_frac",
                per(self.data_ops as f64, self.bus_ops as f64),
            ),
            ("mem.mlt_overflows", self.mlt_overflows as f64),
            (
                "mem.victim_writebacks_per_txn",
                per(self.victim_writebacks as f64, txns),
            ),
        ];
        if let Some((delivered, scheduled, high)) = self.events {
            out.push(("core.machine.events_per_txn", per(delivered as f64, txns)));
            out.push(("sim.queue.high_water", high as f64));
            out.push(("sim.queue.scheduled_per_txn", per(scheduled as f64, txns)));
        }
        out
    }
}

/// md5 over the deterministic values (as exact bit patterns) plus any
/// workload-specific text.
fn fingerprint(det: &[(&str, f64)], extra: &str) -> String {
    let mut text = String::new();
    for (name, v) in det {
        text.push_str(&format!("{name}={:016x}\n", v.to_bits()));
    }
    text.push_str(extra);
    md5_hex(text.as_bytes())
}

// ---------------------------------------------------------------------
// fig2-sweep
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SweepPoint {
    n: u32,
    rate: f64,
    seed: u64,
    /// `mva::solve` efficiency and row-bus utilization at this point.
    mva_eff: f64,
    mva_rho_row: f64,
}

/// One pool job's result and its three timestamps.
struct SweepJob {
    report: RunReport,
    start: Instant,
    built: Instant,
    end: Instant,
}

fn sweep(h: &mut Harness, size: &Size, seed: u64) {
    let txns_per_node = size.sweep_txns_per_node;
    let mut points = Vec::new();
    // Set-up: the sweep's points, their seeds (as `figures -- fig2`
    // derives them) and the MVA reference every point is judged by.
    let ok = h.setups(|tracer, parent| {
        let start = Instant::now();
        points = size
            .sweep_sides
            .iter()
            .flat_map(|&n| {
                let stream = stream_id("fig2", &format!("n={n}"));
                size.sweep_rates.iter().enumerate().map(move |(i, &rate)| {
                    let model = solve(&ModelParams::figure2(n), rate);
                    SweepPoint {
                        n,
                        rate,
                        seed: split_seed(seed, stream, i as u64),
                        mva_eff: model.efficiency,
                        mva_rho_row: model.rho_row,
                    }
                })
            })
            .collect();
        tracer.record("mva.solve", parent, start, Instant::now());
        Ok(())
    });
    if !ok {
        return;
    }
    let quota: u64 = points
        .iter()
        .map(|p| u64::from(p.n * p.n) * txns_per_node)
        .sum();
    let pool = Pool::new(WORKERS);
    h.reps(quota, |tracer, parent| {
        let rep_start = Instant::now();
        let results = pool.map(points.clone(), |_, p| {
            let start = Instant::now();
            let spec = SyntheticSpec::default().with_request_rate_per_ms(p.rate);
            let mut machine = Machine::new(MachineConfig::grid(p.n).expect("valid side"), p.seed)
                .expect("valid configuration");
            let built = Instant::now();
            let report = machine.run_synthetic(&spec, txns_per_node);
            SweepJob {
                report,
                start,
                built,
                end: Instant::now(),
            }
        });
        let wall = secs(rep_start, Instant::now());
        let mut rep = Rep::default();
        let mut totals = SimTotals::new();
        let (mut eff_err, mut rho_err) = (0.0f64, 0.0f64);
        let (mut new_s, mut run_s) = (0.0, 0.0);
        let mut job_s = Vec::new();
        let mut text = String::new();
        for (p, result) in points.iter().zip(results) {
            let quota = u64::from(p.n * p.n) * txns_per_node;
            let job = match result {
                Ok(job) => job,
                Err(panic) => {
                    rep.failed += quota;
                    rep.problems.push(format!(
                        "fig2 point n={} rate={} (seed {:#x}) panicked: {}",
                        p.n, p.rate, p.seed, panic.message
                    ));
                    continue;
                }
            };
            let r = &job.report;
            rep.failed += quota.saturating_sub(r.transactions_completed);
            if !(r.efficiency > 0.0 && r.efficiency <= 1.0) {
                rep.problems.push(format!(
                    "fig2 point n={} rate={}: efficiency {} outside (0, 1]",
                    p.n, p.rate, r.efficiency
                ));
            }
            totals.add_run(r);
            eff_err = eff_err.max((r.efficiency - p.mva_eff).abs());
            rho_err = rho_err.max((r.utilization.row_mean - p.mva_rho_row).abs());
            rep.points.push((p.n, p.rate, r.efficiency));
            text.push_str(&format!(
                "n={} rate={} eff={:016x} rho_row={:016x} rho_col={:016x}\n",
                p.n,
                p.rate,
                r.efficiency.to_bits(),
                r.utilization.row_mean.to_bits(),
                r.utilization.col_mean.to_bits()
            ));
            new_s += secs(job.start, job.built);
            run_s += secs(job.built, job.end);
            job_s.push(secs(job.start, job.end));
            let span = tracer.record("sim.pool.job", parent, job.start, job.end);
            tracer.record("core.machine.new", span, job.start, job.built);
        }
        rep.txns = totals.txns;
        rep.det = totals.det();
        rep.det.push(("mva.eff_err_max", eff_err));
        rep.det.push(("mva.rho_row_err_max", rho_err));
        rep.fingerprint = fingerprint(&rep.det, &text);
        let busy: f64 = job_s.iter().sum();
        let job_max = job_s.iter().copied().fold(0.0, f64::max);
        rep.timed = vec![
            (
                "core.machine.ns_per_txn",
                run_s * 1e9 / totals.txns.max(1) as f64,
            ),
            ("core.machine.new_share", new_s / busy),
            ("sim.pool.busy_frac", busy / (WORKERS as f64 * wall)),
            ("sim.pool.job_max_over_p50", job_max / median(&job_s)),
        ];
        rep
    });
}

// ---------------------------------------------------------------------
// serve-oltp / serve-web
// ---------------------------------------------------------------------

/// A [`StreamingPlayer`] whose every `next` call is timed into a
/// histogram; it also notes when each trace chunk's worth of records
/// has been handed out.
struct TimedPlayer<'a> {
    inner: StreamingPlayer<'a>,
    chunk_records: u64,
    hist: Histogram,
    busy_ns: u64,
    last_return: Option<Instant>,
    chunk_ends: Vec<Instant>,
}

impl Workload for TimedPlayer<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next(&mut self, node: NodeId, rng: &mut DeterministicRng) -> Option<(u64, Request)> {
        let start = Instant::now();
        let next = self.inner.next(node, rng);
        let end = Instant::now();
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.hist.record(ns);
        self.busy_ns += ns;
        self.last_return = Some(end);
        if next.is_some() && self.inner.served() % self.chunk_records == 0 {
            self.chunk_ends.push(end);
        }
        next
    }
}

fn serve(h: &mut Harness, size: &Size, seed: u64) {
    // The `figures -- serve` application labels and their generators.
    let app = match h.kind {
        Kind::ServeOltp => "oltp",
        _ => "web-session",
    };
    let app_seed = split_seed(seed, stream_id("serve", app), 0);
    let side = size.serve_side;
    let nodes = side * side;
    let per_node = size.serve_requests_per_node;
    let chunk = size.serve_chunk_records;

    // Set-up: generate the request stream, encode it as a v2 trace, and
    // validate the encoding — separately timed so each step shows.
    let mut bytes = Vec::new();
    let mut rates: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let ok = h.setups(|tracer, parent| {
        let t0 = Instant::now();
        let mut workload: Box<dyn Workload> = match app {
            "oltp" => Box::new(Oltp::new(256)),
            _ => Box::new(WebSession::new(512, 0.8)),
        };
        let mut rng = DeterministicRng::seed(app_seed);
        let mut records = Vec::with_capacity((u64::from(nodes) * per_node) as usize);
        for _ in 0..per_node {
            for node in 0..nodes {
                let id = NodeId::new(node);
                if let Some((delay, req)) = workload.next(id, &mut rng) {
                    records.push((id, delay, req));
                }
            }
        }
        let count = records.len() as f64;
        let t1 = Instant::now();
        let mut writer = TraceV2Writer::new(nodes, chunk);
        for (id, delay, req) in records {
            writer.push(id, delay, req);
        }
        bytes = writer.finish();
        let t2 = Instant::now();
        let reader = TraceV2Reader::new(&bytes).map_err(|e| format!("own trace rejected: {e}"))?;
        let t3 = Instant::now();
        if reader.record_count() as f64 != count {
            return Err(format!(
                "trace holds {} records, {count} were written",
                reader.record_count()
            ));
        }
        tracer.record("workload.gen", parent, t0, t1);
        tracer.record("workload.trace.encode", parent, t1, t2);
        tracer.record("workload.trace.validate", parent, t2, t3);
        for (name, from, to) in [
            ("workload.gen.req_per_s", t0, t1),
            ("workload.trace.encode_rec_per_s", t1, t2),
            ("workload.trace.validate_rec_per_s", t2, t3),
        ] {
            rates.entry(name).or_default().push(count / secs(from, to));
        }
        Ok(())
    });
    if !ok {
        return;
    }
    let reader = TraceV2Reader::new(&bytes).expect("validated during set-up");
    let quota = reader.record_count();
    // Each set-up's rates, in reference-host units, then their median.
    h.extra.extend(rates.iter().map(|(&name, per_setup)| {
        let scaled: Vec<f64> = per_setup
            .iter()
            .zip(&h.setup_speed)
            .map(|(&rate, &speed)| to_reference(name, rate, speed))
            .collect();
        (name, median(&scaled))
    }));

    h.reps(quota, |tracer, parent| {
        let start = Instant::now();
        let mut machine = Machine::new(MachineConfig::grid(side).expect("valid side"), app_seed)
            .expect("valid configuration");
        let built = Instant::now();
        let runner = WorkloadRunner::new(per_node).with_seed(app_seed);
        let mut timed = tracer.enabled().then(|| TimedPlayer {
            inner: reader.player(),
            chunk_records: chunk as u64,
            hist: Histogram::new(),
            busy_ns: 0,
            last_return: None,
            chunk_ends: Vec::new(),
        });
        let report = match timed.as_mut() {
            Some(player) => runner.run(&mut machine, player),
            None => runner.run(&mut machine, &mut reader.player()),
        };
        let end = Instant::now();

        let mut rep = Rep::default();
        let mut totals = SimTotals::new();
        totals.add_replay(&machine, &report);
        rep.txns = report.requests_completed;
        if report.requests_completed != quota {
            rep.failed += quota.saturating_sub(report.requests_completed);
            rep.problems.push(format!(
                "replay completed {} of {quota} requests",
                report.requests_completed
            ));
        }
        rep.det = totals.det();
        rep.det.push((
            "workload.trace.bytes_per_rec",
            reader.byte_len() as f64 / quota.max(1) as f64,
        ));
        let extra = format!(
            "elapsed={} kinds={:?}\n",
            report.elapsed.as_nanos(),
            report.kind_counts
        );
        rep.fingerprint = fingerprint(&rep.det, &extra);

        if let Some(player) = timed {
            let replay_s = secs(built, end);
            let decode_s = player.busy_ns as f64 / 1e9;
            let last = player.last_return.unwrap_or(end);
            let check_s = secs(last, end);
            rep.timed = vec![
                (
                    "core.machine.new_share",
                    secs(start, built) / secs(start, end),
                ),
                (
                    "workload.trace.decode_rec_per_s",
                    player.inner.served() as f64 / decode_s,
                ),
                ("workload.trace.decode_share", decode_s / replay_s),
                ("core.check.share", check_s / replay_s),
                (
                    "core.machine.ns_per_txn",
                    (replay_s - decode_s - check_s) * 1e9 / rep.txns.max(1) as f64,
                ),
            ];
            tracer.record("core.machine.new", parent, start, built);
            let replay = tracer.record("workload.replay", parent, built, end);
            let mut ends = player.chunk_ends;
            if player.inner.served() % chunk as u64 != 0 {
                // The last, partial chunk ends with the last record.
                ends.push(last);
            }
            let mut from = built;
            for to in ends {
                tracer.record("workload.replay.chunk", replay, from, to);
                from = to;
            }
            tracer.record("core.check", replay, last, end);
            rep.decode_hist = Some(player.hist);
        }
        rep
    });
}

// ---------------------------------------------------------------------
// cube-n32
// ---------------------------------------------------------------------

fn cube(h: &mut Harness, size: &Size, seed: u64) {
    // `figures -- scaling`'s cube point: the `CubeConfig::new` defaults
    // for shards, executor and window, the study's traffic, and its
    // seed derivation.
    let config = |workers: usize, check: bool| {
        let mut cfg = CubeConfig::new(size.cube_side);
        cfg.txns_per_node = size.cube_txns_per_node;
        cfg.remote_ops = size.cube_remote_ops;
        cfg.remote_gap_ns = size.cube_remote_gap_ns;
        cfg.seed = split_seed(
            seed,
            stream_id("scaling", "cube"),
            u64::from(size.cube_side),
        );
        cfg.workers = workers;
        cfg.check = check;
        cfg
    };
    // Set-up: the serial (1-worker) execution, the oracle every
    // parallel repetition must reproduce byte for byte.
    let mut oracle: Option<String> = None;
    let ok = h.setups(|tracer, parent| {
        let start = Instant::now();
        let report = run_cube(&config(1, false));
        tracer.record("sim.pdes.serial", parent, start, Instant::now());
        let fp = report.fingerprint();
        match &oracle {
            Some(o) if *o != fp => Err(format!("serial runs disagree: {o} vs {fp}")),
            _ => {
                oracle = Some(fp);
                Ok(())
            }
        }
    });
    if !ok {
        return;
    }
    let oracle = oracle.expect("set-up ran");
    let quota = u64::from(size.cube_side).pow(3) * size.cube_txns_per_node;
    let parallel = config(WORKERS, false);
    h.reps(quota, |_, _| {
        let report = run_cube(&parallel);
        let mut rep = Rep::default();
        let mut totals = SimTotals::new();
        for plane in &report.planes {
            totals.add_run(&plane.run);
        }
        rep.txns = totals.txns;
        rep.failed = quota.saturating_sub(totals.txns);
        rep.fingerprint = report.fingerprint();
        if rep.fingerprint != oracle {
            rep.problems.push(format!(
                "parallel fingerprint {} differs from the serial oracle's {oracle}",
                rep.fingerprint
            ));
        }
        if totals.events.map(|e| e.0) != Some(report.events_delivered) {
            rep.problems.push(format!(
                "planes delivered {:?} events, the cube reports {}",
                totals.events, report.events_delivered
            ));
        }
        rep.det = totals.det();
        let rounds = report.pdes.rounds;
        rep.det.extend([
            ("sim.pdes.rounds", rounds as f64),
            ("sim.pdes.messages", report.pdes.messages as f64),
            (
                "sim.pdes.events_per_round",
                report.events_delivered as f64 / rounds.max(1) as f64,
            ),
            (
                "core.pdes.remote_ops",
                report.planes.iter().map(|p| p.depth.issued).sum::<u64>() as f64,
            ),
        ]);
        rep
    });
    if !h.tracer.enabled() {
        return;
    }
    // The set-up is the serial run, so its time is the serial time.
    let serial = median(&h.setup_reference_s());
    let parallel = median(&h.rep_reference_s(false));
    h.extra.extend([
        ("core.machine.ns_per_txn", serial * 1e9 / quota as f64),
        ("sim.pdes.speedup_vs_serial", serial / parallel),
    ]);
    // The traced run also checks the oracle with the per-plane
    // coherence checker on.
    let span = h.tracer.open("check-run", h.root);
    match catch_unwind(AssertUnwindSafe(|| {
        run_cube(&config(1, true)).fingerprint()
    })) {
        Ok(fp) if fp == oracle => {}
        Ok(fp) => h.problems.push(format!(
            "checked serial fingerprint {fp} differs from {oracle}"
        )),
        Err(p) => h
            .problems
            .push(format!("checked serial run panicked: {}", panic_text(p))),
    }
    h.tracer.close(span);
}
