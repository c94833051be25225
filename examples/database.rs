//! High-transaction database workload — the paper's first motivating
//! application domain ("high-transaction database systems", §1).
//!
//! Runs the OLTP generator (hot shared index probes, private tuple
//! updates, ALLOCATE log appends) on grids of increasing size and shows
//! that throughput keeps scaling because index reads hit in the large
//! snooping caches and log appends use the cheap ALLOCATE acknowledge.
//!
//! ```text
//! cargo run --release --example database
//! ```

use multicube_suite::machine::{Machine, MachineConfig};
use multicube_suite::workload::{Oltp, Stream};

fn main() {
    println!(
        "OLTP on the Wisconsin Multicube (requests: 2x index read, 1x tuple update, 1x log append)"
    );
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>14} {:>12}",
        "grid", "procs", "efficiency", "ops/request", "mean lat (ns)", "allocates"
    );
    for side in [2u32, 4, 8] {
        let config = MachineConfig::grid(side).expect("valid grid");
        let mut machine = Machine::new(config, 1234).expect("valid config");
        let mut stream = Stream::new(Oltp::new(64));
        let report = machine.run_closed_loop(&mut stream, 120);
        println!(
            "{:>4}x{:<1} {:>8} {:>12.4} {:>12.2} {:>14.0} {:>12}",
            side,
            side,
            side * side,
            report.efficiency,
            report.ops_per_request(),
            stream.latency_ns.mean(),
            stream.kind_counts[2]
        );
    }
    println!();
    println!("Index probes stay cheap (served from the big snooping caches), while the");
    println!("invalidation broadcast of each shared write grows with the grid side n —");
    println!("the scaling cost the paper quantifies in Figure 3.");
}
