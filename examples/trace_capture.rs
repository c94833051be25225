//! Dumps deterministic JSONL traces for fixed-seed runs — used to verify
//! that optimization PRs leave protocol behavior byte-identical.
//!
//! ```text
//! cargo run --release --example trace_capture -- /tmp/traces
//! ```

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

use multicube::trace::TraceSink;
use multicube::{Machine, MachineConfig, Request, SyntheticSpec};
use multicube_mem::LineAddr;
use multicube_topology::NodeId;

fn sink_to(path: &Path) -> TraceSink {
    let f = BufWriter::new(File::create(path).expect("create trace file"));
    TraceSink::writer(Box::new(f))
}

/// Serial traffic: one outstanding transaction at a time, mixed kinds.
fn serial(dir: &Path, seed: u64) {
    let mut m = Machine::new(MachineConfig::grid(4).unwrap(), seed).unwrap();
    m.set_trace_sink(sink_to(&dir.join(format!("serial_{seed}.jsonl"))));
    for i in 0..600u64 {
        let node = NodeId::new((i % 16) as u32);
        let line = LineAddr::new(i % 48);
        let req = match i % 5 {
            0 => Request::write(line),
            1 => Request::allocate(line),
            2 => Request::test_and_set(line),
            3 => Request::writeback(line),
            _ => Request::read(line),
        };
        if m.submit(node, req).is_ok() {
            m.advance();
        }
    }
    m.run_to_quiescence();
    m.check_coherence().expect("coherent");
}

/// Concurrent traffic: every node loaded at once, then the closed-loop
/// synthetic workload on a second machine.
fn concurrent(dir: &Path, seed: u64) {
    let mut m = Machine::new(MachineConfig::grid(4).unwrap(), seed).unwrap();
    m.set_trace_sink(sink_to(&dir.join(format!("concurrent_{seed}.jsonl"))));
    for round in 0..12u64 {
        for n in 0..16u32 {
            let line = LineAddr::new((round * 7 + u64::from(n) * 3) % 40);
            let req = if (round + u64::from(n)) % 3 == 0 {
                Request::write(line)
            } else {
                Request::read(line)
            };
            let _ = m.submit(NodeId::new(n), req);
        }
        m.run_to_quiescence();
    }
    m.check_coherence().expect("coherent");

    let mut m = Machine::new(MachineConfig::grid(4).unwrap(), seed).unwrap();
    m.set_trace_sink(sink_to(&dir.join(format!("synthetic_{seed}.jsonl"))));
    m.run_synthetic(&SyntheticSpec::default(), 25);
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_capture_out".to_string());
    let dir = Path::new(&dir);
    std::fs::create_dir_all(dir).expect("create output dir");
    for seed in [1u64, 42] {
        serial(dir, seed);
        concurrent(dir, seed);
    }
    eprintln!("trace_capture: wrote traces to {}", dir.display());
}
