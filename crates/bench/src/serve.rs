//! The trace-driven serving tier: production-shaped request streams
//! synthesized offline into the chunked v2 trace format, then replayed
//! through the machine under both bus-arbitration policies.
//!
//! Each `(application, policy)` job is self-contained: it synthesizes
//! its application's trace from a seed derived *without* folding in the
//! policy label, so FCFS and round-robin replay byte-identical request
//! streams (same lines, same kinds, same think times) and every
//! difference in the fairness columns is attributable to arbitration
//! alone — the shootout's identical-workload methodology applied to the
//! arbiter. Jobs are points of the one runner ([`crate::measure`]) and the
//! report carries no wall-clock fields, so `BENCH_serve.json` is
//! byte-identical at any worker count.
//!
//! In full mode the matrix is 3 applications x 2 policies x 64 nodes x
//! 26,500 requests = 10,176,000 machine transactions — the 10^7-request
//! serving-tier target.

use multicube::{Arbitration, Machine, MachineConfig};
use multicube_sim::pool::Pool;
use multicube_sim::{split_seed, stream_id, DeterministicRng};
use multicube_topology::NodeId;
use multicube_workload::{
    Oltp, ProducerConsumer, Stream, TraceV2Reader, TraceV2Writer, WebSession, Workload,
};

use crate::json::{self, Value};
use crate::simfig::{measure, Measured, Point};
use crate::table::Table;

/// Schema marker for the `BENCH_serve.json` artifact. v2 stamps the
/// study's `mode`: `"full"` for the committed operating point, `"quick"`
/// for any smaller one; v3 drops the `failures` count, which was always
/// 0 because a study that lost jobs writes no artifact.
pub const SERVE_SCHEMA: &str = "multicube-bench-serve/v3";

/// The serving-tier applications, in report order.
pub const SERVE_APPS: [&str; 3] = ["oltp", "web-session", "producer-consumer"];

/// Operating point of the serving-tier study.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Grid side (the machine has `n * n` nodes).
    pub n: u32,
    /// Requests synthesized (and replayed) per node per application.
    pub requests_per_node: u64,
    /// Records per v2 trace chunk.
    pub chunk_records: usize,
    /// Base seed; per-application seeds derive from it.
    pub seed: u64,
}

impl ServeConfig {
    /// The committed operating point: 3 apps x 2 policies x 64 nodes x
    /// 26,500 requests = 10,176,000 transactions.
    pub fn full() -> Self {
        ServeConfig {
            n: 8,
            requests_per_node: 26_500,
            chunk_records: 65_536,
            seed: 0x5EED,
        }
    }

    /// A seconds-scale point for push gates.
    pub fn quick() -> Self {
        ServeConfig {
            n: 4,
            requests_per_node: 60,
            chunk_records: 128,
            seed: 0x5EED,
        }
    }

    /// The `mode` a report of this study records: `"full"` for the
    /// committed operating point ([`ServeConfig::full`]), `"quick"` for any
    /// smaller one.
    fn mode(&self) -> &'static str {
        if *self == ServeConfig::full() {
            "full"
        } else {
            "quick"
        }
    }

    /// Transactions the whole study pushes through machines.
    pub fn total_transactions(&self) -> u64 {
        let per_job = (self.n as u64 * self.n as u64) * self.requests_per_node;
        per_job * SERVE_APPS.len() as u64 * Arbitration::all().len() as u64
    }
}

/// One `(application, policy)` replay measurement.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Application label.
    pub app: &'static str,
    /// Arbitration policy label (`fcfs` / `round-robin`).
    pub policy: &'static str,
    /// The per-application seed — identical across policies.
    pub seed: u64,
    /// Requests completed (equals the trace's record count).
    pub requests: u64,
    /// Records in the synthesized v2 trace.
    pub trace_records: u64,
    /// Chunks in the synthesized v2 trace.
    pub trace_chunks: u32,
    /// Serialized trace size in bytes.
    pub trace_bytes: u64,
    /// Simulated time to drain the trace (ms).
    pub elapsed_ms: f64,
    /// Requests completed per simulated millisecond.
    pub throughput_per_ms: f64,
    /// Mean processor efficiency.
    pub efficiency: f64,
    /// Bus operations per request.
    pub ops_per_request: f64,
    /// Mean request latency (ns).
    pub mean_latency_ns: f64,
    /// Latency percentiles (power-of-two bucket lower bounds, ns).
    pub p50_ns: u64,
    /// 90th percentile latency (ns).
    pub p90_ns: u64,
    /// 99th percentile latency (ns).
    pub p99_ns: u64,
    /// 99.9th percentile latency (ns).
    pub p999_ns: u64,
    /// Worst single-request latency (ns).
    pub max_latency_ns: f64,
    /// Reads / writes / allocates / test-and-sets / writebacks.
    pub kind_counts: [u64; 5],
    /// Best per-node mean latency (ns) — the least-starved node.
    pub node_mean_min_ns: f64,
    /// Worst per-node mean latency (ns) — the starvation axis.
    pub node_mean_max_ns: f64,
    /// Jain fairness index over per-node mean latencies (1 = perfectly
    /// fair; 1/nodes = one node takes everything).
    pub jain_fairness: f64,
}

/// The trace-synthesis seed for one application: shared by both
/// policies so their replays are identical.
pub fn serve_app_seed(config: &ServeConfig, app: &str) -> u64 {
    split_seed(config.seed, stream_id("serve", app), 0)
}

fn make_app(label: &str) -> Box<dyn Workload> {
    match label {
        "oltp" => Box::new(Oltp::new(256)),
        "web-session" => Box::new(WebSession::new(512, 0.8)),
        "producer-consumer" => Box::new(ProducerConsumer::new()),
        other => panic!("unknown serve app {other}"),
    }
}

/// Synthesizes `app`'s chunked v2 trace offline — no machine involved,
/// just the generator round-robining across the nodes.
pub fn synthesize_serve_trace(config: &ServeConfig, app: &'static str, seed: u64) -> Vec<u8> {
    let nodes = config.n * config.n;
    let mut writer = TraceV2Writer::new(nodes, config.chunk_records);
    let mut rng = DeterministicRng::seed(seed);
    let mut workload = make_app(app);
    for _ in 0..config.requests_per_node {
        for node in 0..nodes {
            let id = NodeId::new(node);
            if let Some((delay, req)) = workload.next(id, &mut rng) {
                writer.push(id, delay, req);
            }
        }
    }
    writer.finish()
}

/// Runs every application under every arbitration policy: rows grouped
/// by application, policies in `Arbitration::all()` order within each
/// group, one point per `(app, policy)` job.
pub fn run_serve(pool: &Pool, config: &ServeConfig) -> Measured<ServeRow> {
    let points = SERVE_APPS
        .into_iter()
        .flat_map(|app| {
            let seed = serve_app_seed(config, app);
            Arbitration::all()
                .into_iter()
                .map(move |policy| (app, policy, seed))
        })
        .enumerate()
        .map(|(index, (app, policy, seed))| Point {
            series: format!("{app}/{}", policy.name()),
            index,
            rate_per_ms: 0.0,
            seed,
            job: Box::new(move || replay(config, app, policy, seed)),
        })
        .collect();
    measure(pool, points)
}

/// One serving-tier job: synthesizes `app`'s trace from `seed` and
/// replays it under `policy`.
fn replay(config: &ServeConfig, app: &'static str, policy: Arbitration, seed: u64) -> ServeRow {
    let bytes = synthesize_serve_trace(config, app, seed);
    let reader = TraceV2Reader::new(&bytes).expect("own encoding");
    let machine_config = MachineConfig::grid(config.n)
        .expect("valid n")
        .with_arbitration(policy);
    let mut machine = Machine::new(machine_config, seed).expect("valid configuration");
    let mut stream = Stream::new(reader.player()).with_seed(seed);
    let run = machine.run_closed_loop(&mut stream, config.requests_per_node);
    assert_eq!(
        run.transactions_completed,
        reader.record_count(),
        "{app}/{}: replay must drain the whole trace",
        policy.name()
    );

    let means: Vec<f64> = stream
        .node_latency_ns
        .iter()
        .filter(|s| s.count() > 0)
        .map(|s| s.mean())
        .collect();
    let sum: f64 = means.iter().sum();
    let sum_sq: f64 = means.iter().map(|m| m * m).sum();
    let jain = if sum_sq > 0.0 {
        (sum * sum) / (means.len() as f64 * sum_sq)
    } else {
        1.0
    };
    let q = |p: f64| stream.latency_hist.quantile(p).unwrap_or(0);
    let elapsed_ms = run.elapsed.as_millis_f64();
    ServeRow {
        app,
        policy: policy.name(),
        seed,
        requests: run.transactions_completed,
        trace_records: reader.record_count(),
        trace_chunks: reader.chunk_count(),
        trace_bytes: reader.byte_len() as u64,
        elapsed_ms,
        throughput_per_ms: if elapsed_ms > 0.0 {
            run.transactions_completed as f64 / elapsed_ms
        } else {
            0.0
        },
        efficiency: run.efficiency,
        ops_per_request: run.ops_per_request(),
        mean_latency_ns: stream.latency_ns.mean(),
        p50_ns: q(0.50),
        p90_ns: q(0.90),
        p99_ns: q(0.99),
        p999_ns: q(0.999),
        max_latency_ns: stream.latency_ns.max().unwrap_or(0.0),
        kind_counts: stream.kind_counts,
        node_mean_min_ns: means.iter().copied().fold(f64::INFINITY, f64::min),
        node_mean_max_ns: means.iter().copied().fold(0.0f64, f64::max),
        jain_fairness: jain,
    }
}

/// The rows of a study at `config` as a table, in study order: each
/// application's two policy rows one after the other.
pub fn serve_table(config: &ServeConfig, rows: &[ServeRow]) -> Table {
    Table::new(
        "serve",
        format!(
            "S-3: serving tier — {rpn} requests/node on {n}x{n} nodes, \
             FCFS vs round-robin arbitration",
            rpn = config.requests_per_node,
            n = config.n
        ),
        rows,
        &[
            ("app", None, &|r| r.app.into()),
            ("policy", None, &|r| r.policy.into()),
            ("requests", None, &|r| r.requests.into()),
            ("req/sim-ms", Some(1), &|r| r.throughput_per_ms.into()),
            ("eff", Some(4), &|r| r.efficiency.into()),
            ("mean ns", Some(0), &|r| r.mean_latency_ns.into()),
            ("p50", None, &|r| r.p50_ns.into()),
            ("p90", None, &|r| r.p90_ns.into()),
            ("p99", None, &|r| r.p99_ns.into()),
            ("p999", None, &|r| r.p999_ns.into()),
            ("worst-nd", Some(0), &|r| r.node_mean_max_ns.into()),
            ("jain", Some(4), &|r| r.jain_fairness.into()),
        ],
    )
}

/// Renders the rows of a study at `config` as the `BENCH_serve.json`
/// artifact. Every field is a deterministic function of `(config, seed)`
/// — there are no wall-clock bytes, so the artifact is identical at any
/// worker count.
pub fn render_serve_json(config: &ServeConfig, rows: &[ServeRow]) -> String {
    let rows = rows.iter().map(|r| {
        json::obj([
            ("app", r.app.into()),
            ("policy", r.policy.into()),
            ("seed", r.seed.into()),
            ("requests", r.requests.into()),
            ("trace_records", r.trace_records.into()),
            ("trace_chunks", r.trace_chunks.into()),
            ("trace_bytes", r.trace_bytes.into()),
            ("elapsed_ms", Value::fixed(r.elapsed_ms, 6)),
            ("throughput_per_ms", Value::fixed(r.throughput_per_ms, 4)),
            ("efficiency", Value::fixed(r.efficiency, 6)),
            ("ops_per_request", Value::fixed(r.ops_per_request, 4)),
            ("mean_latency_ns", Value::fixed(r.mean_latency_ns, 2)),
            ("p50_ns", r.p50_ns.into()),
            ("p90_ns", r.p90_ns.into()),
            ("p99_ns", r.p99_ns.into()),
            ("p999_ns", r.p999_ns.into()),
            ("max_latency_ns", Value::fixed(r.max_latency_ns, 0)),
            ("kind_counts", r.kind_counts.into_iter().collect()),
            ("node_mean_min_ns", Value::fixed(r.node_mean_min_ns, 2)),
            ("node_mean_max_ns", Value::fixed(r.node_mean_max_ns, 2)),
            ("jain_fairness", Value::fixed(r.jain_fairness, 6)),
        ])
    });
    json::obj([
        ("schema", SERVE_SCHEMA.into()),
        ("mode", config.mode().into()),
        ("seed", config.seed.into()),
        ("n", config.n.into()),
        ("requests_per_node", config.requests_per_node.into()),
        ("chunk_records", config.chunk_records.into()),
        ("total_transactions", config.total_transactions().into()),
        ("rows", Value::Arr(rows.collect())),
    ])
    .pretty()
}

/// Validates that `text` is a serve report this module wrote for
/// `config`: the schema and mode, one row per `(app, policy)` pair of
/// [`SERVE_APPS`] × [`Arbitration::all`] in order, and every row
/// completing the full per-job quota.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn validate_serve_report(text: &str, config: &ServeConfig) -> Result<(), String> {
    let report = json::parse_artifact(text, SERVE_SCHEMA, config.mode())?;
    let rows = report.array_field("rows")?;
    let jobs = rows
        .iter()
        .map(|r| Ok((r.str_field("app")?, r.str_field("policy")?)))
        .collect::<Result<Vec<_>, String>>()?;
    let expected: Vec<(&str, &str)> = SERVE_APPS
        .into_iter()
        .flat_map(|app| Arbitration::all().into_iter().map(move |p| (app, p.name())))
        .collect();
    if jobs != expected {
        return Err(format!(
            "expected (app, policy) rows {expected:?}, found {jobs:?}"
        ));
    }
    let quota = config.n as u64 * config.n as u64 * config.requests_per_node;
    for (r, (app, policy)) in rows.iter().zip(jobs) {
        if r.u64_field("requests")? != quota {
            return Err(format!(
                "{app}/{policy} did not complete the {quota}-request quota"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeConfig {
        ServeConfig {
            n: 2,
            requests_per_node: 15,
            chunk_records: 16,
            seed: 0x5EED,
        }
    }

    /// Both policies replay the same trace per app (shared seed, equal
    /// record counts) and every job drains its quota.
    #[test]
    fn serve_runs_every_app_under_both_policies() {
        let cfg = tiny();
        let study = run_serve(&Pool::serial(), &cfg);
        assert!(study.failures.is_empty(), "{:?}", study.failures);
        assert_eq!(study.rows.len(), 6);
        let quota = cfg.n as u64 * cfg.n as u64 * cfg.requests_per_node;
        for app in SERVE_APPS {
            let pair: Vec<&ServeRow> = study.rows.iter().filter(|r| r.app == app).collect();
            assert_eq!(pair.len(), 2, "{app}");
            assert_eq!(pair[0].policy, "fcfs");
            assert_eq!(pair[1].policy, "round-robin");
            assert_eq!(pair[0].seed, pair[1].seed, "{app}: policies share the seed");
            assert_eq!(pair[0].trace_records, pair[1].trace_records);
            assert_eq!(pair[0].requests, quota, "{app}: full quota");
            assert_eq!(
                pair[0].kind_counts, pair[1].kind_counts,
                "{app}: same trace"
            );
        }
        for r in &study.rows {
            assert!(r.jain_fairness > 0.0 && r.jain_fairness <= 1.0 + 1e-9);
            assert!(r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns);
            assert!(r.trace_bytes > 0 && r.trace_chunks > 0);
        }
    }

    /// The study is worker-count independent: same rows, bit-identical
    /// floats, at any pool width.
    #[test]
    fn serve_is_pool_deterministic() {
        let serial = run_serve(&Pool::serial(), &tiny());
        let parallel = run_serve(&Pool::new(3), &tiny());
        assert_eq!(serial.rows.len(), parallel.rows.len());
        for (a, b) in serial.rows.iter().zip(parallel.rows.iter()) {
            assert_eq!(a.app, b.app);
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.efficiency.to_bits(), b.efficiency.to_bits());
            assert_eq!(a.mean_latency_ns.to_bits(), b.mean_latency_ns.to_bits());
            assert_eq!(a.jain_fairness.to_bits(), b.jain_fairness.to_bits());
        }
        assert_eq!(
            render_serve_json(&tiny(), &serial.rows),
            render_serve_json(&tiny(), &parallel.rows),
            "the artifact must be byte-identical at any worker count"
        );
    }

    /// The rendered artifact satisfies its own validator, and the
    /// validator rejects tampering.
    #[test]
    fn serve_json_round_trips_through_validator() {
        let cfg = tiny();
        let rows = run_serve(&Pool::serial(), &cfg).rows;
        let json = render_serve_json(&cfg, &rows);
        validate_serve_report(&json, &cfg).expect("own report validates");
        assert!(validate_serve_report("{}", &cfg).is_err());
        // The mode is stamped, and only the committed point is full mode.
        assert!(json.contains("\"mode\": \"quick\""));
        assert_eq!(ServeConfig::full().mode(), "full");
        assert_eq!(ServeConfig::quick().mode(), "quick");
        let stamped = json.replace("\"mode\": \"quick\"", "\"mode\": \"full\"");
        assert_eq!(
            validate_serve_report(&stamped, &cfg),
            Err("expected a quick-mode report".to_string())
        );
        let text = serve_table(&cfg, &rows).text();
        assert!(text.contains("fcfs") && text.contains("round-robin"));
        assert!(!text.contains("NaN"), "{text}");
    }

    /// Full-mode bookkeeping hits the serving-tier target.
    #[test]
    fn full_config_reaches_ten_million_transactions() {
        assert!(ServeConfig::full().total_transactions() >= 10_000_000);
    }
}
