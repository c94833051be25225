//! Trace capture and replay: record a database run, archive it as bytes,
//! and replay the identical request stream under different machine
//! configurations — a controlled experiment the paper's authors could not
//! run for lack of published reference traces.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use multicube_suite::machine::{Machine, MachineConfig};
use multicube_suite::workload::{Oltp, Stream, TraceRecorder, TraceV2Reader, TraceV2Writer};

fn main() {
    // Record a 4x4 OLTP run, 256 records per chunk.
    let mut machine = Machine::new(MachineConfig::grid(4).unwrap(), 7).unwrap();
    let mut recorder = TraceRecorder::new(Oltp::new(64), TraceV2Writer::new(16, 256));
    let original = machine.run_closed_loop(&mut Stream::new(&mut recorder), 100);
    let bytes = recorder.finish();
    let trace = TraceV2Reader::new(&bytes).expect("valid trace");
    println!(
        "recorded {} requests ({} bytes serialized); original run: efficiency {:.4}, {:.2} ops/request",
        trace.record_count(),
        bytes.len(),
        original.efficiency,
        original.ops_per_request()
    );

    // Replay the very same reference stream under different block sizes —
    // the Figure 4 experiment, but on a real (recorded) workload instead
    // of the statistical model.
    println!();
    println!(
        "{:>12} {:>12} {:>14} {:>14}",
        "block words", "efficiency", "ops/request", "mean lat (ns)"
    );
    for block in [4u32, 16, 64] {
        let config = MachineConfig::grid(4).unwrap().with_block_words(block);
        let mut m = Machine::new(config, 7).unwrap();
        let mut replay = Stream::new(trace.player());
        let report = m.run_closed_loop(&mut replay, 100);
        println!(
            "{:>12} {:>12.4} {:>14.2} {:>14.0}",
            block,
            report.efficiency,
            report.ops_per_request(),
            replay.latency_ns.mean()
        );
    }
    println!();
    println!("Same references, different hardware: big blocks pay longer bus holds");
    println!("on every transfer — the Figure 4 trade-off on a concrete workload.");
}
