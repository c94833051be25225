//! A mean-value model of the general k-dimensional Multicube.
//!
//! §6 sketches how the architecture scales beyond two dimensions and
//! closes with "this topic is a subject for future research". This module
//! is that analysis: the 2-D model of [`crate::model`] generalized to
//! `N = n^k` processors.
//!
//! # Structure
//!
//! * A request is routed dimension by dimension: the mean path length
//!   between distinct nodes is `k·(n-1)/n · N/(N-1)` hops, and the reply
//!   retraces a path of the same expected length, so a transaction's
//!   critical path crosses `≈ h` short request operations and `≈ h`
//!   data-carrying operations, `h` being the mean path length.
//! * Per-bus utilization stays balanced by symmetry: each transaction's
//!   `2h` operations are spread over `k·n^(k-1)` buses serving `N`
//!   processors, giving per-bus demand `n·λ·(A + D)·h/k` — for fixed `n`
//!   the *per-bus* load from point-to-point traffic is independent of `k`
//!   (the paper's "bandwidth grows in proportion to k, precisely the rate
//!   at which the normal path length grows").
//! * The invalidation broadcast needs `(N-1)/(n-1)` operations spread over
//!   all buses — per bus `≈ λ_bc·N·(N-1)/((n-1)·k·n^(k-1))`, which grows
//!   with `n^k/k`: "invalidation operations scale less favorably".
//!
//! The model exposes exactly the §6 trade-off: latency grows linearly in
//! `k` while point-to-point bus load per bus stays flat, but broadcast
//! load explodes with machine size, so write-shared-heavy workloads cap
//! the useful dimensionality.

use serde::{Deserialize, Serialize};

use crate::params::ModelParams;

/// Solver output for one k-dimensional operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KdimSolution {
    /// Dimension `k`.
    pub k: u8,
    /// Total processors `n^k`.
    pub processors: u64,
    /// Processor efficiency `Z / (Z + R)`.
    pub efficiency: f64,
    /// Mean transaction response time (ns).
    pub response_ns: f64,
    /// Bus utilization (all buses are statistically identical).
    pub rho: f64,
    /// Mean path length used for the critical path (bus hops).
    pub path_length: f64,
}

/// Solves the k-dimensional model at an offered request rate
/// (requests/ms/processor), with `params` supplying the per-bus timing and
/// workload mix (its `n` is the bus arity; `k` comes from the argument).
///
/// # Panics
///
/// Panics if `k == 0` or the rate is not positive.
pub fn solve_k(params: &ModelParams, k: u8, offered_rate_per_ms: f64) -> KdimSolution {
    assert!(k > 0, "dimension must be positive");
    assert!(offered_rate_per_ms > 0.0, "rate must be positive");
    let n = params.n as f64;
    let big_n = n.powi(k as i32);
    let z = 1.0e6 / offered_rate_per_ms;
    let a = params.addr_op();
    let d = params.data_op();
    let l = params.device_latency_ns;

    // Mean path length between distinct nodes (hops).
    let h = crate::path_length(params.n, k);

    // Broadcast fraction and per-broadcast operations.
    let p_bc = params.p_write * params.p_unmodified * params.p_invalidation;
    let bc_ops = (big_n - 1.0) / (n - 1.0);
    let buses = k as f64 * n.powi(k as i32 - 1);

    // Per-transaction bus time, spread over all buses by symmetry:
    //   h short request ops + h data ops (point-to-point)
    //   + p_bc * bc_ops short ops (broadcast).
    let pt_demand = h * (a + d);
    let bc_demand = p_bc * bc_ops * a;
    let per_bus_demand_per_txn = (pt_demand + bc_demand) * big_n / buses / big_n;
    // (the N's cancel; kept explicit for clarity of derivation)
    let per_bus_ops_per_txn = (2.0 * h + p_bc * bc_ops) * big_n / buses / big_n;
    // Second moment of a two-point service mix (short a, long d).
    let frac_data = h / (2.0 * h + p_bc * bc_ops);
    let m2 = frac_data * d * d + (1.0 - frac_data) * a * a;

    // Fixed point by bisection (monotone, as in the 2-D solver).
    const CAP: f64 = 0.999_9;
    let f = |response: f64| -> f64 {
        let lambda = 1.0 / (z + response); // per processor
        let rho = (big_n * lambda * per_bus_demand_per_txn).min(CAP);
        let arr = big_n * lambda * per_bus_ops_per_txn;
        let w = arr * m2 / (2.0 * (1.0 - rho));
        // Critical path: h request hops + h reply hops, each paying the
        // wait; one device access.
        2.0 * h * (w + a) + h * (d - a) + l
    };
    let (response, _) = crate::model::fixed_point(f(0.0).min(z), f);

    let lambda = 1.0 / (z + response);
    KdimSolution {
        k,
        processors: big_n as u64,
        efficiency: z / (z + response),
        response_ns: response,
        rho: (big_n * lambda * per_bus_demand_per_txn).min(CAP),
        path_length: h,
    }
}

/// Sweeps the dimension for a fixed bus arity and rate: the §6 scalability
/// question "how far can k grow?".
pub fn dimension_sweep(params: &ModelParams, ks: &[u8], rate: f64) -> Vec<KdimSolution> {
    ks.iter().map(|&k| solve_k(params, k, rate)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;

    fn base(n: u32) -> ModelParams {
        ModelParams::figure2(n)
    }

    #[test]
    fn k2_agrees_with_the_2d_model_in_shape() {
        // Not an identity (the 2-D model tracks row/column asymmetry and
        // exact per-class paths), but the same ballpark and the same
        // monotonicity.
        let p = base(32);
        let k2 = solve_k(&p, 2, 25.0);
        let flat = crate::solve(&p, 25.0);
        assert!((k2.efficiency - flat.efficiency).abs() < 0.1);
    }

    #[test]
    fn latency_grows_with_dimension() {
        let p = base(8);
        let low_rate = 1.0; // negligible queueing: pure path length
        let r2 = solve_k(&p, 2, low_rate).response_ns;
        let r3 = solve_k(&p, 3, low_rate).response_ns;
        let r4 = solve_k(&p, 4, low_rate).response_ns;
        assert!(r2 < r3 && r3 < r4, "{r2} {r3} {r4}");
    }

    #[test]
    fn point_to_point_load_per_bus_is_flat_in_k() {
        // With no broadcasts, per-bus utilization at a fixed per-processor
        // rate is nearly independent of k — the §6 bandwidth argument.
        let mut p = base(8);
        p.p_invalidation = 0.0;
        let rho2 = solve_k(&p, 2, 10.0).rho;
        let rho3 = solve_k(&p, 3, 10.0).rho;
        assert!((rho2 - rho3).abs() < 0.05, "{rho2} vs {rho3}");
    }

    #[test]
    fn broadcasts_eventually_dominate() {
        // "Invalidation operations scale less favorably": with the Figure 2
        // invalidation mix, utilization grows with k even at fixed rate.
        let p = base(8);
        let rho2 = solve_k(&p, 2, 10.0).rho;
        let rho3 = solve_k(&p, 3, 10.0).rho;
        let rho4 = solve_k(&p, 4, 10.0).rho;
        let rho5 = solve_k(&p, 5, 10.0).rho;
        assert!(
            rho2 < rho3 && rho3 < rho4 && rho4 < rho5,
            "broadcast load must grow with machine size: {rho2} {rho3} {rho4} {rho5}"
        );
        assert!(
            rho5 > rho2 + 0.05,
            "at 32K processors the broadcast share is substantial: {rho2} vs {rho5}"
        );
        // And efficiency drops accordingly.
        assert!(solve_k(&p, 4, 10.0).efficiency < solve_k(&p, 2, 10.0).efficiency);
    }

    #[test]
    fn hypercube_case_solves() {
        let p = base(2);
        let s = solve_k(&p, 10, 5.0); // 1024-processor hypercube
        assert_eq!(s.processors, 1024);
        assert!(s.efficiency > 0.0 && s.efficiency < 1.0);
        assert!(s.path_length > 4.9 && s.path_length < 5.1);
    }

    #[test]
    fn dimension_sweep_covers_requested_ks() {
        let p = base(4);
        let sweep = dimension_sweep(&p, &[1, 2, 3, 4], 5.0);
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep[0].processors, 4);
        assert_eq!(sweep[3].processors, 256);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dimension_rejected() {
        let _ = solve_k(&base(4), 0, 1.0);
    }
}
