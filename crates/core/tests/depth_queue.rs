//! The cube's depth ports must agree with the M/D/1 closed form.
//!
//! A column's memory port serves FIFO at the fixed [`SERVICE_NS`]. Its
//! requests come from the `n(n−1)` column generators of the other planes:
//! each picks its home plane uniformly among the other `n − 1` and its line
//! uniformly among `remote_lines`, a multiple of `n` here, so every port
//! sees a thinned share of many independent open-loop streams, close to
//! Poisson at the rate of one generator. The port is then an M/D/1 queue at
//! load `ρ = S/ḡ`, and the mean round trip is the Pollaczek–Khinchine wait
//! plus the fixed hops:
//!
//! `2·HOP + S + ρS/(2(1−ρ)) + ((n−1)/n)·2·GRID_HOP`,
//!
//! where the last term is the row-bus transit to the home column and back,
//! which a request skips when it enters the home plane at its line's home
//! column. The planes run no transactions, so the depth traffic is all
//! there is.

use multicube::pdes::{run_cube, CubeConfig, GRID_HOP_NS, HOP_NS, SERVICE_NS};

/// Cube side: 4 planes of 16 ports each.
const SIDE: u32 = 4;

/// Remote ops per column generator. Each port starts empty, and at 5,000
/// ops that transient alone put ρ = 0.85 3.6 % under the closed form.
const OPS_PER_COLUMN: u64 = 20_000;

/// Largest allowed relative gap between the simulated and the closed-form
/// mean round trip. The widest gap of the current code is −0.18 %, at
/// ρ = 0.75.
const TOLERANCE: f64 = 0.01;

/// The schedule's true mean gap when `remote_gap_ns` is `m`: the generator
/// adds 1 ns to the floor of an exponential draw of mean `m`, which is
/// geometric with mean `1/(e^{1/m} − 1)`.
fn mean_gap(m: f64) -> f64 {
    1.0 / m.recip().exp_m1() + 1.0
}

#[test]
fn depth_round_trips_match_md1_at_every_load() {
    let service = SERVICE_NS as f64;
    let n = f64::from(SIDE);
    for nominal in [0.25, 0.5, 0.75, 0.85] {
        let mut cfg = CubeConfig::new(SIDE);
        cfg.txns_per_node = 0;
        cfg.remote_ops = OPS_PER_COLUMN * u64::from(SIDE);
        cfg.remote_gap_ns = service / nominal;
        cfg.remote_lines = 64;
        cfg.workers = 2;
        let report = run_cube(&cfg);

        let issued: u64 = report.planes.iter().map(|p| p.depth.issued).sum();
        let replies: u64 = report.planes.iter().map(|p| p.depth.replies).sum();
        let total_ns: u64 = report.planes.iter().map(|p| p.depth.latency_total_ns).sum();
        assert_eq!(issued, OPS_PER_COLUMN * u64::from(SIDE).pow(2));
        assert_eq!(replies, issued);

        let rho = service / mean_gap(cfg.remote_gap_ns);
        let model = 2.0 * HOP_NS as f64
            + service
            + rho * service / (2.0 * (1.0 - rho))
            + (n - 1.0) / n * 2.0 * GRID_HOP_NS as f64;
        let measured = total_ns as f64 / replies as f64;
        let gap = (measured - model) / model;
        assert!(
            gap.abs() <= TOLERANCE,
            "ρ = {rho:.4}: simulated mean round trip {measured:.2} ns, M/D/1 {model:.2} ns, \
             gap {:+.2} % beyond ±{} %",
            gap * 100.0,
            TOLERANCE * 100.0
        );
    }
}
