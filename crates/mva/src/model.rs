//! The fixed-point mean-value solver.
//!
//! # Model structure
//!
//! Let `A` be the address-only operation time, `D` the whole-block data
//! operation time, `L` the device (snooping cache / memory) latency and
//! `λ` a processor's achieved bus-request rate. By the machine's total
//! symmetry all row buses are statistically identical, as are all column
//! buses, so the model tracks one bus of each class.
//!
//! **Demands.** Each transaction class places a known set of operations on
//! row and column buses (Appendix A paths; the dominant-geometry case is
//! used — shortcut probabilities of order `1/n` are ignored, matching an
//! approximate MVA):
//!
//! | class | probability | row ops | column ops |
//! |---|---|---|---|
//! | READ, unmodified | `(1-w)·u` | `A + D` | `A + D` |
//! | READ, modified | `(1-w)(1-u)` | `A + D` | `A + D + D` |
//! | READ-MOD, modified | `w(1-u)` | `A + D` | `A + D` |
//! | READ-MOD, unmod, inval | `w·u·i` | `A + D + (n-1)A` | `2A + D` |
//! | READ-MOD, unmod, clean | `w·u·(1-i)` | `A + D` | `2A + D` |
//!
//! Row-bus utilization integrates the per-row share: a row bus carries the
//! own-row operations of its `n` processors plus one purge per broadcast
//! from *every* processor in the machine.
//!
//! **Waiting.** Each bus is approximated as M/G/1:
//! `W = λ_bus · E[S²] / (2(1−ρ))`, with the moments computed from the
//! operation mix.
//!
//! **Response.** Every class's critical path is two row and two column
//! operations plus one device access:
//! `R = 2(W_row + W_col) + 2A + leg₁ + leg₂ + L`, where the leg times
//! depend on the §5 data-movement technique.
//!
//! **Closure.** `λ = 1 / (Z + R)` with think time `Z`; the fixed point is
//! found by bisection (the response map is monotone, so the root is
//! unique and bisection cannot oscillate, even deep in saturation).

use crate::params::{DataMovement, ModelParams};
use serde::{Deserialize, Serialize};

/// Solver output for one operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelSolution {
    /// Processor efficiency: `Z / (Z + R)`.
    pub efficiency: f64,
    /// Mean transaction response time (ns).
    pub response_ns: f64,
    /// Achieved bus-request rate per processor (requests/ms).
    pub achieved_rate_per_ms: f64,
    /// Row-bus utilization.
    pub rho_row: f64,
    /// Column-bus utilization.
    pub rho_col: f64,
    /// Fixed-point iterations used.
    pub iterations: u32,
}

/// One bus's per-transaction operation mix: `(time_ns, ops_per_txn)`.
#[derive(Debug, Clone, Default)]
struct OpMix {
    entries: Vec<(f64, f64)>,
}

impl OpMix {
    fn push(&mut self, time: f64, rate_weight: f64) {
        if rate_weight > 0.0 {
            self.entries.push((time, rate_weight));
        }
    }

    /// Total expected bus time per transaction.
    fn demand(&self) -> f64 {
        self.entries.iter().map(|(t, w)| t * w).sum()
    }

    /// Expected ops per transaction.
    fn ops(&self) -> f64 {
        self.entries.iter().map(|(_, w)| w).sum()
    }

    /// Second moment of the service time of a random operation.
    fn second_moment(&self) -> f64 {
        let ops = self.ops();
        if ops == 0.0 {
            return 0.0;
        }
        self.entries.iter().map(|(t, w)| t * t * w).sum::<f64>() / ops
    }
}

/// Effective (leg1, leg2, extra_ops_factor) for the data movement mode.
///
/// `leg1`/`leg2` are the *latency* contributions of the two data legs on
/// the critical path; bus *occupancy* stays the full transfer regardless
/// (pieces add per-piece headers).
fn leg_times(p: &ModelParams) -> (f64, f64) {
    let a = p.addr_op();
    let w = p.word_ns;
    let d = p.data_op();
    match p.movement {
        DataMovement::StoreAndForward => (d, d),
        DataMovement::CutThrough => (a + w, d),
        DataMovement::RequestedWordFirst => (d, a + w),
        DataMovement::CutThroughWordFirst => (a + w, a + w),
        DataMovement::Pieces(words) => {
            let words = words.clamp(1, p.block_words) as f64;
            let piece = a + w * words;
            // First leg: whole line in pieces (store-and-forward per
            // piece); second leg: the requested piece arrives first.
            let count = (p.block_words as f64 / words).ceil();
            (piece * count, piece)
        }
    }
}

/// Bus occupancy of one data transfer, including piece headers.
fn data_occupancy(p: &ModelParams) -> f64 {
    match p.movement {
        DataMovement::Pieces(words) => {
            let words = words.clamp(1, p.block_words) as f64;
            let count = (p.block_words as f64 / words).ceil();
            count * (p.addr_op() + p.word_ns * words)
        }
        _ => p.data_op(),
    }
}

/// Builds the per-transaction operation mixes for one row bus and one
/// column bus, per the class table in the module docs.
fn mixes(p: &ModelParams) -> (OpMix, OpMix) {
    let a = p.addr_op();
    let d = data_occupancy(p);
    let n = p.n as f64;
    let w = p.p_write;
    let u = p.p_unmodified;
    let i = p.p_invalidation;

    let p_rm = (1.0 - w) * (1.0 - u);
    let p_wui = w * u * i;
    let p_wuc = w * u * (1.0 - i);

    // Row bus: a row bus serves its own n processors' own-row and
    // random-row operations (N/n = n processors' worth of random-row ops
    // fall on each row), plus one broadcast purge from every processor in
    // the machine — per processor on this bus that is an extra factor n.
    // Working per processor-transaction:
    let mut row = OpMix::default();
    // Request on own row: every class.
    row.push(a, 1.0);
    // Final data/ack reply crosses one row: every class.
    row.push(d, 1.0);
    // Broadcast purges: each broadcast posts one address op on every row
    // bus; from one processor's standpoint its row bus carries its own
    // broadcast's local purge (already counted as the reply) plus the
    // purges of the other N-1 processors. Per transaction that is
    // (n - 1) extra address ops carried per row bus per broadcast, scaled
    // by the broadcast probability.
    row.push(a, p_wui * (n - 1.0));

    // Column bus: per transaction, spread over random columns; each
    // column bus carries n processors' worth.
    let mut col = OpMix::default();
    // Forwarded request: every class.
    col.push(a, 1.0);
    // Data reply crossing one column: every class.
    col.push(d, 1.0);
    // READ to modified data additionally writes memory back on the home
    // column.
    col.push(d, p_rm);
    // READ-MOD to unmodified data posts the MLT insert on the
    // originator's column.
    col.push(a, p_wui + p_wuc);
    // READ-MOD to modified data posts nothing extra (the insert rides on
    // the reply); READs to unmodified nothing extra.

    (row, col)
}

/// The root of `f(r) = r` at or above `lo`, for a decreasing `f` (so
/// `f(r) - r` is strictly decreasing and the root unique), and the
/// iterations taken to find it. Bisection is unconditionally stable,
/// unlike damped iteration, which oscillates deep in saturation (e.g.
/// 64-word blocks at high rates). The bracket's upper end doubles from
/// `max(lo, 1)` until `f(hi) <= hi`; then at most 200 halvings narrow it
/// to a relative width of 1e-9.
pub(crate) fn fixed_point(mut lo: f64, f: impl Fn(f64) -> f64) -> (f64, u32) {
    let mut hi = lo.max(1.0);
    let mut iterations = 0u32;
    while f(hi) > hi && iterations < 200 {
        hi *= 2.0;
        iterations += 1;
    }
    let mut root = hi;
    for _ in 0..200 {
        iterations += 1;
        let mid = 0.5 * (lo + hi);
        if f(mid) > mid {
            lo = mid;
        } else {
            hi = mid;
        }
        root = 0.5 * (lo + hi);
        if hi - lo < 1e-9 * (1.0 + root) {
            break;
        }
    }
    (root, iterations)
}

/// Solves the model at an offered request rate (requests per millisecond
/// per processor). The offered rate sets the think time `Z = 1/rate`; the
/// achieved rate follows from the response time.
///
/// # Panics
///
/// Panics if `offered_rate_per_ms` is not positive.
pub fn solve(p: &ModelParams, offered_rate_per_ms: f64) -> ModelSolution {
    assert!(offered_rate_per_ms > 0.0, "rate must be positive");
    let z = 1.0e6 / offered_rate_per_ms; // think time, ns
    let (row, col) = mixes(p);
    let n = p.n as f64;
    let (leg1, leg2) = leg_times(p);
    let a = p.addr_op();
    let base_response = 2.0 * a + leg1 + leg2 + p.device_latency_ns;

    let row_m2 = row.second_moment();
    let col_m2 = col.second_moment();
    let row_ops = row.ops();
    let col_ops = col.ops();
    let row_demand = row.demand();
    let col_demand = col.demand();

    // A longer response lowers the achieved rate, hence utilization,
    // hence waits: f is decreasing, as `fixed_point` needs.
    const CAP: f64 = 0.999_9;
    let f = |response: f64| -> f64 {
        let lambda = 1.0 / (z + response);
        let rho_row = (n * lambda * row_demand).min(CAP);
        let rho_col = (n * lambda * col_demand).min(CAP);
        let arr_row = n * lambda * row_ops;
        let arr_col = n * lambda * col_ops;
        let w_row = arr_row * row_m2 / (2.0 * (1.0 - rho_row));
        let w_col = arr_col * col_m2 / (2.0 * (1.0 - rho_col));
        base_response + 2.0 * (w_row + w_col)
    };
    let (response, iterations) = fixed_point(base_response, f);

    let lambda = 1.0 / (z + response);
    let rho_row = (n * lambda * row_demand).min(CAP);
    let rho_col = (n * lambda * col_demand).min(CAP);
    let efficiency = z / (z + response);
    ModelSolution {
        efficiency,
        response_ns: response,
        achieved_rate_per_ms: 1.0e6 / (z + response),
        rho_row,
        rho_col,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;

    #[test]
    fn light_load_approaches_ideal() {
        let p = ModelParams::figure2(8);
        let s = solve(&p, 0.1);
        assert!(s.efficiency > 0.99, "efficiency {}", s.efficiency);
        assert!(s.rho_row < 0.05);
    }

    #[test]
    fn efficiency_is_monotone_in_load() {
        let p = ModelParams::figure2(16);
        let mut last = 1.1;
        for rate in [1.0, 5.0, 10.0, 20.0, 40.0, 80.0] {
            let s = solve(&p, rate);
            assert!(
                s.efficiency < last,
                "efficiency should fall with load at rate {rate}"
            );
            last = s.efficiency;
        }
    }

    #[test]
    fn bigger_grids_are_less_efficient_at_same_rate() {
        // Figure 2 ordering: 8, 16, 24, 32 per row from top to bottom.
        let rate = 15.0;
        let effs: Vec<f64> = [8, 16, 24, 32]
            .iter()
            .map(|&n| solve(&ModelParams::figure2(n), rate).efficiency)
            .collect();
        for pair in effs.windows(2) {
            assert!(pair[0] > pair[1], "ordering violated: {effs:?}");
        }
    }

    #[test]
    fn paper_operating_point_reaches_ninety_percent() {
        // "our goal is to support 1K processors at roughly ninety percent
        // utilization ... less than twenty-five requests per millisecond"
        let p = ModelParams::figure2(32);
        let s = solve(&p, 25.0);
        assert!(
            s.efficiency > 0.75 && s.efficiency < 1.0,
            "1K processors at 25 req/ms should be near the design point, got {}",
            s.efficiency
        );
    }

    #[test]
    fn invalidations_hurt_and_saturate() {
        // Figure 3 ordering at a moderate rate.
        let rate = 20.0;
        let effs: Vec<f64> = [0.1, 0.2, 0.3, 0.4, 0.5]
            .iter()
            .map(|&i| solve(&ModelParams::figure3(i), rate).efficiency)
            .collect();
        for pair in effs.windows(2) {
            assert!(pair[0] >= pair[1], "ordering violated: {effs:?}");
        }
        // At low rate the effect is small ("in the range of ninety percent
        // processing power, the effect of increasing invalidations is very
        // small").
        let lo = solve(&ModelParams::figure3(0.1), 2.0).efficiency;
        let hi = solve(&ModelParams::figure3(0.5), 2.0).efficiency;
        assert!((lo - hi).abs() < 0.02, "low-rate gap too big: {lo} vs {hi}");
    }

    #[test]
    fn block_size_ordering_matches_figure4() {
        let rate = 20.0;
        let effs: Vec<f64> = [4u32, 8, 16, 32, 64]
            .iter()
            .map(|&b| solve(&ModelParams::figure4(b), rate).efficiency)
            .collect();
        for pair in effs.windows(2) {
            assert!(pair[0] > pair[1], "ordering violated: {effs:?}");
        }
    }

    #[test]
    fn latency_techniques_improve_response() {
        let rate = 10.0;
        let base = solve(&ModelParams::figure2(32), rate);
        for movement in [
            DataMovement::CutThrough,
            DataMovement::RequestedWordFirst,
            DataMovement::CutThroughWordFirst,
        ] {
            let p = ModelParams {
                movement,
                ..ModelParams::figure2(32)
            };
            let s = solve(&p, rate);
            assert!(
                s.response_ns < base.response_ns,
                "{movement:?} should cut response: {} vs {}",
                s.response_ns,
                base.response_ns
            );
        }
        // Combined beats each alone.
        let both = solve(
            &ModelParams {
                movement: DataMovement::CutThroughWordFirst,
                ..ModelParams::figure2(32)
            },
            rate,
        );
        let ct = solve(
            &ModelParams {
                movement: DataMovement::CutThrough,
                ..ModelParams::figure2(32)
            },
            rate,
        );
        assert!(both.response_ns < ct.response_ns);
    }

    #[test]
    fn pieces_cut_latency_but_add_occupancy() {
        let p_whole = ModelParams::figure2(32);
        let p_pieces = ModelParams {
            movement: DataMovement::Pieces(4),
            ..ModelParams::figure2(32)
        };
        let whole = solve(&p_whole, 5.0);
        let pieces = solve(&p_pieces, 5.0);
        // The requested piece arrives early: latency improves at light load.
        assert!(pieces.response_ns < whole.response_ns);
        // But headers add occupancy.
        assert!(pieces.rho_row > whole.rho_row);
    }

    #[test]
    fn achieved_rate_never_exceeds_offered() {
        let p = ModelParams::figure2(32);
        for rate in [1.0, 10.0, 50.0] {
            let s = solve(&p, rate);
            assert!(s.achieved_rate_per_ms <= rate + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = solve(&ModelParams::figure2(8), 0.0);
    }
}
