//! A phased numerical kernel (stencil) — the paper's "host of numerical
//! methods" domain: long private compute phases punctuated by boundary
//! exchange with grid neighbours.
//!
//! Shows where the traffic goes: private phases run out of the big
//! snooping caches (near-zero bus ops), while each boundary exchange costs
//! a handful of short transactions.
//!
//! ```text
//! cargo run --release --example stencil
//! ```

use multicube_suite::machine::{Machine, MachineConfig};
use multicube_suite::workload::{PhasedNumeric, Stream};

fn main() {
    println!("Stencil phases on a 4x4 machine, varying the compute:exchange ratio");
    println!(
        "{:>12} {:>12} {:>14} {:>16} {:>14}",
        "phase len", "efficiency", "ops/request", "remote-mod reads", "invalidations"
    );
    for phase_len in [2u8, 8, 32] {
        let config = MachineConfig::grid(4).expect("valid grid");
        let mut machine = Machine::new(config, 99).expect("valid config");
        let mut stencil = Stream::new(PhasedNumeric::new(4, phase_len));
        let report = machine.run_closed_loop(&mut stencil, 200);
        println!(
            "{:>12} {:>12.4} {:>14.3} {:>16} {:>14}",
            phase_len,
            report.efficiency,
            report.ops_per_request(),
            machine.metrics().read_modified.count,
            machine.metrics().invalidations.get()
        );
    }
    println!();
    println!("Longer private phases amortize the boundary exchanges: bus ops per");
    println!("request fall as the computation-to-communication ratio grows.");
}
