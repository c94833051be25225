//! The repository benchmark for the Wisconsin Multicube reproduction.
//!
//! Four workloads drive the library crates only through their public
//! functions, and every timing is taken from outside those calls:
//!
//! * `fig2-sweep` — the Figure-2 closed-loop synthetic sweep on a
//!   2-worker [`multicube_sim::pool::Pool`];
//! * `serve-oltp` / `serve-web` — a synthesized v2 trace replayed with
//!   [`multicube_workload::WorkloadRunner`] on a fresh machine;
//! * `cube-n32` — the k=3 cube through [`multicube::run_cube`].
//!
//! [`workloads::run`] measures one workload; the `benchmark` binary
//! wraps it in the command line described in `README.md`.

pub mod calibrate;
pub mod compare;
pub mod json;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Schema marker written into every result file.
pub const SCHEMA: &str = "multicube-benchmark/v1";

/// The base seed the program's own harnesses default to; default-seed
/// runs are comparable with the committed `BENCH_*.json` artifacts.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("txn_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order. A
/// workload that does not use a layer, or whose use of it cannot be
/// separated from outside, reports 0 for it (see `README.md`).
pub const PER_LAYER: [(&str, &str); 34] = [
    ("workload.gen.req_per_s", "1/s"),
    ("workload.trace.encode_rec_per_s", "1/s"),
    ("workload.trace.validate_rec_per_s", "1/s"),
    ("workload.trace.decode_rec_per_s", "1/s"),
    ("workload.trace.decode_share", "frac"),
    ("workload.trace.bytes_per_rec", "B"),
    ("core.machine.ns_per_txn", "ns"),
    ("core.machine.new_share", "frac"),
    ("core.machine.events_per_txn", "1/txn"),
    ("core.machine.ops_per_txn", "1/txn"),
    ("core.machine.invalidations_per_txn", "1/txn"),
    ("core.machine.local_hit_frac", "frac"),
    ("core.machine.sim_efficiency", "frac"),
    ("core.machine.sim_latency_mean_ns", "sim_ns"),
    ("core.machine.sim_latency_p99_ns", "sim_ns"),
    ("core.check.share", "frac"),
    ("core.bus.row_util_max", "frac"),
    ("core.bus.col_util_max", "frac"),
    ("core.bus.queue_high_water_max", "count"),
    ("core.bus.data_op_frac", "frac"),
    ("mem.mlt_overflows", "count"),
    ("mem.victim_writebacks_per_txn", "1/txn"),
    ("sim.queue.high_water", "count"),
    ("sim.queue.scheduled_per_txn", "1/txn"),
    ("sim.pool.busy_frac", "frac"),
    ("sim.pool.job_max_over_p50", "ratio"),
    ("sim.pdes.rounds", "count"),
    ("sim.pdes.messages", "count"),
    ("sim.pdes.events_per_round", "count"),
    ("core.pdes.remote_ops", "count"),
    ("sim.pdes.speedup_vs_serial", "x"),
    ("mva.eff_err_max", "frac"),
    ("mva.rho_row_err_max", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// `BENCHMARK.json`, compiled in so `compare` and the tests read the
/// same bounds and names the benchmark was declared with.
pub const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct DeclaredMetric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median a change may worsen it by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself uses.
#[derive(Debug, Clone)]
pub struct Declared {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<DeclaredMetric>,
    pub per_layer: Vec<DeclaredMetric>,
}

/// Parses `text` in the `BENCHMARK.json` layout.
///
/// # Errors
///
/// The first missing or mistyped field.
pub fn parse_declared(text: &str) -> Result<Declared, String> {
    let v = json::parse(text)?;
    let metrics = |key: &str| -> Result<Vec<DeclaredMetric>, String> {
        v.get(key)
            .ok_or(format!("missing {key}"))?
            .as_array()
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(json::Value::as_str)
                        .map(str::to_string)
                        .ok_or(format!("{key} entry without {f}"))
                };
                let better = field("better")?;
                if better != "higher" && better != "lower" {
                    return Err(format!("{key}: better must be higher or lower"));
                }
                Ok(DeclaredMetric {
                    name: field("name")?,
                    unit: field("unit")?,
                    higher_is_better: better == "higher",
                    bound: m.get("bound").and_then(json::Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Declared {
        run_seconds: v
            .get("run_seconds")
            .and_then(json::Value::as_f64)
            .ok_or("missing run_seconds")? as u64,
        workloads: v
            .get("workloads")
            .ok_or("missing workloads")?
            .as_array()
            .iter()
            .filter_map(|w| {
                w.get("name")
                    .and_then(json::Value::as_str)
                    .map(str::to_string)
            })
            .collect(),
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The compiled-in `BENCHMARK.json`.
pub fn declared() -> Declared {
    parse_declared(BENCHMARK_JSON).expect("BENCHMARK.json is well formed")
}
