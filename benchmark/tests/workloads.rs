//! Every workload at a tiny size: the metric names it emits are the
//! ones `BENCHMARK.json` declares, its outputs check out, its
//! deterministic metrics repeat exactly, and the seed reaches it.

use multicube_benchmark::json;
use multicube_benchmark::workloads::{run, Kind, Outcome, Size};
use multicube_benchmark::{declared, BENCHMARK_JSON, END_TO_END, PER_LAYER};

fn tiny(kind: Kind, seed: u64, traced: bool) -> Outcome {
    let o = run(kind, &Size::tiny(), seed, 0.0, traced);
    assert!(o.correct(), "{}: {:?}", kind.name(), o.problems);
    assert!(o.attempted > 0 && o.failed == 0, "{}", kind.name());
    o
}

fn names(o: &Outcome) -> Vec<(&str, &str)> {
    o.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn declared_names_and_units_match_the_code() {
    let d = declared();
    let e2e: Vec<(&str, &str)> = d
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(e2e, END_TO_END.to_vec());
    let layers: Vec<(&str, &str)> = d
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(layers, PER_LAYER.to_vec());
    let workloads: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(d.workloads, workloads);
}

/// The limits `BENCHMARK.json` must stay within to be accepted.
#[test]
fn benchmark_json_keeps_its_contract() {
    let v = json::parse(BENCHMARK_JSON).unwrap();
    let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let command = v.get("command").unwrap().as_array();
    assert!(!command.is_empty() && command.len() <= 32);
    for part in command {
        let s = part.as_str().unwrap();
        assert!(
            s.len() <= 200 && !s.starts_with('/') && !s.contains(".."),
            "{s}"
        );
    }
    let paths = v.get("paths").unwrap().as_array();
    assert_eq!(paths.len(), 1);
    let seconds = v.get("run_seconds").unwrap().as_f64().unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = v.get("workloads").unwrap().as_array();
    assert!((2..=8).contains(&workloads.len()));
    let mut seen = std::collections::HashSet::new();
    for w in workloads {
        assert_eq!(w.members().len(), 2);
        let name = w.get("name").unwrap().as_str().unwrap();
        let why = w.get("why").unwrap().as_str().unwrap();
        assert!(name_ok(name) && seen.insert(name.to_string()), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why too long"
        );
    }
    let e2e = v.get("end_to_end").unwrap().as_array();
    assert!((1..=16).contains(&e2e.len()));
    let mut largest = 0.0f64;
    for m in e2e {
        assert_eq!(m.members().len(), 4);
        let name = m.get("name").unwrap().as_str().unwrap();
        let bound = m.get("bound").unwrap().as_f64().unwrap();
        assert!(name_ok(name) && seen.insert(name.to_string()), "{name}");
        assert!(unit_ok(m.get("unit").unwrap().as_str().unwrap()));
        assert!(bound > 0.0 && bound <= 0.25, "{name}");
        largest = largest.max(bound);
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").unwrap().as_str() == Some("setup_s"))
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    assert_eq!(setup.get("better").unwrap().as_str(), Some("lower"));
    assert_eq!(
        setup.get("bound").unwrap().as_f64(),
        Some(largest),
        "setup_s carries the largest bound"
    );
    let layers = v.get("per_layer").unwrap().as_array();
    assert!((1..=128).contains(&layers.len()));
    for m in layers {
        assert_eq!(m.members().len(), 3);
        let name = m.get("name").unwrap().as_str().unwrap();
        assert!(name_ok(name) && seen.insert(name.to_string()), "{name}");
        assert!(unit_ok(m.get("unit").unwrap().as_str().unwrap()));
    }
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
}

#[test]
fn every_workload_emits_the_declared_metrics() {
    for kind in Kind::ALL {
        let plain = tiny(kind, 7, false);
        assert_eq!(names(&plain), END_TO_END.to_vec(), "{}", kind.name());
        for m in &plain.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {m:?}",
                kind.name()
            );
        }
        assert!(plain.spans.is_empty());

        let traced = tiny(kind, 7, true);
        assert_eq!(names(&traced), PER_LAYER.to_vec(), "{}", kind.name());
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
        assert_eq!(traced.fingerprint, plain.fingerprint, "{}", kind.name());
        assert!(!traced.spans.is_empty());
        assert!(traced.metric("core.machine.ns_per_txn").unwrap() > 0.0);
    }
}

#[test]
fn deterministic_metrics_repeat_and_the_seed_reaches_every_workload() {
    for kind in Kind::ALL {
        let a = tiny(kind, 11, false);
        let b = tiny(kind, 11, false);
        assert_eq!(a.fingerprint, b.fingerprint, "{}", kind.name());
        let bits = |o: &Outcome| -> Vec<(&str, u64)> {
            o.det.iter().map(|m| (m.name, m.value.to_bits())).collect()
        };
        assert!(!a.det.is_empty());
        assert_eq!(bits(&a), bits(&b), "{}", kind.name());
        let c = tiny(kind, 12, false);
        assert_ne!(
            a.fingerprint,
            c.fingerprint,
            "{}: seed ignored",
            kind.name()
        );
    }
}

#[test]
fn traced_serve_run_covers_every_layer_boundary() {
    let o = tiny(Kind::ServeOltp, 3, true);
    let has = |name: &str| o.spans.iter().any(|s| s.name == name);
    for name in [
        "serve-oltp",
        "setup",
        "workload.gen",
        "workload.trace.encode",
        "workload.trace.validate",
        "rep",
        "core.machine.new",
        "workload.replay",
        "workload.replay.chunk",
        "core.check",
    ] {
        assert!(has(name), "no {name} span");
    }
    for s in &o.spans {
        assert!(s.end_ns >= s.start_ns, "{s:?}");
        if let Some(p) = s.parent {
            assert!(p < s.id, "parent recorded before child: {s:?}");
        }
    }
    // 2x2 nodes x 40 requests in 16-record chunks: 10 chunks per rep.
    let reps = o
        .spans
        .iter()
        .filter(|s| s.name == "workload.replay")
        .count();
    let chunks = o
        .spans
        .iter()
        .filter(|s| s.name == "workload.replay.chunk")
        .count();
    assert_eq!(chunks, 10 * reps);
    let hist = o.decode_hist.as_ref().expect("decode calls timed");
    assert!(hist.total() >= 160 * reps as u64);
    for name in [
        "workload.trace.decode_rec_per_s",
        "workload.trace.decode_share",
        "workload.gen.req_per_s",
    ] {
        assert!(o.metric(name).unwrap() > 0.0, "{name}");
    }
}

#[test]
fn traced_cube_and_sweep_report_their_own_layers() {
    let cube = tiny(Kind::CubeN32, 5, true);
    for name in [
        "sim.pdes.rounds",
        "sim.pdes.speedup_vs_serial",
        "core.pdes.remote_ops",
    ] {
        assert!(cube.metric(name).unwrap() > 0.0, "{name}");
    }
    assert_eq!(cube.metric("sim.pool.busy_frac"), Some(0.0));
    let sweep = tiny(Kind::Fig2Sweep, 5, true);
    for name in [
        "sim.pool.busy_frac",
        "mva.eff_err_max",
        "sim.queue.high_water",
    ] {
        assert!(sweep.metric(name).unwrap() > 0.0, "{name}");
    }
    assert_eq!(sweep.points.len(), 4);
    assert_eq!(sweep.metric("sim.pdes.rounds"), Some(0.0));
}
