//! Differential determinism suite for the cube: the serial (1-worker)
//! execution is the reference, and every parallel worker count must
//! reproduce it byte for byte — per-plane machine traces, depth-event
//! digests, and the aggregate fingerprint — across all four coherence
//! engines. Pinned fingerprints hold the reference itself to its history,
//! and pinned exchange and message counts hold the depth traffic's
//! routing.

use multicube::pdes::{run_cube, CubeConfig, CubeReport};
use multicube::EngineKind;
use multicube_sim::{split_seed, stream_id};

fn cfg(engine: EngineKind, workers: usize, capture: bool) -> CubeConfig {
    let mut cfg = CubeConfig::new(4);
    cfg.engine = engine;
    cfg.txns_per_node = 5;
    cfg.remote_ops = 40;
    cfg.remote_gap_ns = 250.0;
    cfg.remote_lines = 48;
    cfg.seed = 0xC0FFEE;
    cfg.workers = workers;
    cfg.capture_trace = capture;
    cfg
}

fn worker_counts() -> Vec<usize> {
    // 1 (serial reference), 2, and the environment default the CI
    // pool-determinism job varies.
    vec![1, 2, multicube_sim::Pool::from_env().workers().max(2)]
}

fn summary(report: &CubeReport) -> Vec<(u64, u64, Option<String>)> {
    report
        .planes
        .iter()
        .map(|p| {
            (
                p.run.transactions_completed,
                p.depth_digest,
                p.trace_md5.clone(),
            )
        })
        .collect()
}

#[test]
fn parallel_traces_match_serial_for_every_engine() {
    for engine in EngineKind::all() {
        let reference = run_cube(&cfg(engine, 1, true));
        let ref_fp = reference.fingerprint();
        let ref_summary = summary(&reference);
        assert!(
            reference.planes.iter().all(|p| p.trace_md5.is_some()),
            "{engine:?}: trace capture must produce a hash"
        );
        for workers in worker_counts() {
            let parallel = run_cube(&cfg(engine, workers, true));
            assert_eq!(
                summary(&parallel),
                ref_summary,
                "{engine:?} diverged at {workers} workers"
            );
            assert_eq!(
                parallel.fingerprint(),
                ref_fp,
                "{engine:?} fingerprint diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn distinct_seeds_give_distinct_runs() {
    let a = run_cube(&cfg(EngineKind::Multicube, 1, false));
    let mut other = cfg(EngineKind::Multicube, 1, false);
    other.seed ^= 1;
    let b = run_cube(&other);
    assert_ne!(a.fingerprint(), b.fingerprint());
}

#[test]
fn routing_and_event_counts_are_worker_invariant() {
    let serial = run_cube(&cfg(EngineKind::Multicube, 1, false));
    for workers in worker_counts() {
        let parallel = run_cube(&cfg(EngineKind::Multicube, workers, false));
        assert_eq!(parallel.pdes, serial.pdes, "workers={workers}");
        assert_eq!(parallel.events_delivered, serial.events_delivered);
    }
}

/// `fingerprint()` of the suite's traced cube per engine. Any change to
/// the depth traffic's event order or values, or to a plane's machine
/// trace, moves them.
const SUITE_FINGERPRINTS: [(EngineKind, &str); 4] = [
    (EngineKind::Multicube, "93125b51a8a48e2faf553844e5ac6e95"),
    (EngineKind::Mesi, "a79dd09c39e3cadc6aa4d96fae5d9874"),
    (EngineKind::Dragon, "66adc173e59cdc665511cfae8cdcafc1"),
    (EngineKind::WriteOnce, "d5de839717becca8b21ab20977d455e1"),
];

#[test]
fn every_engine_keeps_its_cube_fingerprint() {
    for (engine, pin) in SUITE_FINGERPRINTS {
        for workers in worker_counts() {
            let fp = run_cube(&cfg(engine, workers, true)).fingerprint();
            assert_eq!(fp, pin, "{engine:?} at {workers} workers");
        }
    }
}

/// The n = 8 cube of the scaling study (`figures -- scaling`, committed
/// in `BENCH_scaling.json`), on 2 workers.
fn scaling_n8() -> CubeConfig {
    let mut cfg = CubeConfig::new(8);
    cfg.txns_per_node = 4;
    cfg.remote_ops = 256;
    cfg.remote_gap_ns = 250.0;
    cfg.seed = split_seed(0x5EED, stream_id("scaling", "cube"), 8);
    cfg.workers = 2;
    cfg.check = false;
    cfg
}

#[test]
fn scaling_study_n8_keeps_its_fingerprint_and_rounds() {
    let report = run_cube(&scaling_n8());
    assert_eq!(report.fingerprint(), "8a9bb1265dcc3c65dc8b0afed9deb75c");
    assert_eq!((report.pdes.rounds, report.pdes.messages), (2, 4_096));
}

#[test]
fn depth_traffic_takes_two_exchanges() {
    // The requests go out in one exchange and the replies come back in
    // the other: one request and one reply per remote op.
    let stats = run_cube(&cfg(EngineKind::Multicube, 1, false)).pdes;
    assert_eq!((stats.rounds, stats.messages), (2, 2 * 4 * 40));
}
