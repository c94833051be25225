//! Series generators for the paper's figures.
//!
//! Each function sweeps the request rate exactly as the corresponding
//! figure does and returns one [`FigureSeries`] per curve. The `figures`
//! binary in `multicube-bench` prints them (and the matching simulation
//! points) as the experiment output.

use serde::{Deserialize, Serialize};

use crate::model::solve;
use crate::params::{DataMovement, ModelParams};

/// One point of a figure curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FigurePoint {
    /// Offered bus-request rate (requests/ms/processor) — the x axis.
    pub rate_per_ms: f64,
    /// Processor efficiency — the y axis.
    pub efficiency: f64,
    /// Row-bus utilization at this point.
    pub rho_row: f64,
    /// Column-bus utilization at this point.
    pub rho_col: f64,
}

/// One labelled curve of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureSeries {
    /// Curve label (e.g. "n=32" or "block=16").
    pub label: String,
    /// The curve's points, in increasing rate order.
    pub points: Vec<FigurePoint>,
}

impl FigureSeries {
    fn sweep(label: impl Into<String>, params: &ModelParams, rates: &[f64]) -> Self {
        let points = rates
            .iter()
            .map(|&rate| {
                let s = solve(params, rate);
                FigurePoint {
                    rate_per_ms: rate,
                    efficiency: s.efficiency,
                    rho_row: s.rho_row,
                    rho_col: s.rho_col,
                }
            })
            .collect();
        FigureSeries {
            label: label.into(),
            points,
        }
    }

    /// Efficiency at the sweep's highest rate (curve tail).
    pub fn tail_efficiency(&self) -> f64 {
        self.points.last().map(|p| p.efficiency).unwrap_or(1.0)
    }
}

/// The default rate sweep of the figures: 1–30 requests/ms/processor.
pub fn default_rates() -> Vec<f64> {
    (1..=30).map(|r| r as f64).collect()
}

/// Figure 2: efficiency vs. request rate for `n` = 8, 16, 24, 32
/// processors per row (64–1024 processors total).
pub fn figure2() -> Vec<FigureSeries> {
    let rates = default_rates();
    [8u32, 16, 24, 32]
        .iter()
        .map(|&n| FigureSeries::sweep(format!("n={n}"), &ModelParams::figure2(n), &rates))
        .collect()
}

/// Figure 3: the effect of invalidations with 1 K processors; the fraction
/// of write misses to shared data sweeps 10–50 %.
pub fn figure3() -> Vec<FigureSeries> {
    let rates = default_rates();
    [0.1, 0.2, 0.3, 0.4, 0.5]
        .iter()
        .map(|&i| {
            FigureSeries::sweep(
                format!("inval={:.0}%", i * 100.0),
                &ModelParams::figure3(i),
                &rates,
            )
        })
        .collect()
}

/// Figure 4: the effect of block size with 1 K processors; block sweeps
/// 4–64 bus words at a fixed request rate per processor.
pub fn figure4() -> Vec<FigureSeries> {
    let rates = default_rates();
    [4u32, 8, 16, 32, 64]
        .iter()
        .map(|&b| FigureSeries::sweep(format!("block={b}"), &ModelParams::figure4(b), &rates))
        .collect()
}

/// Figure 4's sloping dashed line: "doubling the block size halves the bus
/// request rate". Evaluates each block size at a rate scaled inversely
/// with the block size (16 words ↦ `base_rate`).
pub fn figure4_rate_scaled(base_rate: f64) -> Vec<FigurePoint> {
    [4u32, 8, 16, 32, 64]
        .iter()
        .map(|&b| {
            let rate = base_rate * 16.0 / b as f64;
            let s = solve(&ModelParams::figure4(b), rate);
            FigurePoint {
                rate_per_ms: rate,
                efficiency: s.efficiency,
                rho_row: s.rho_row,
                rho_col: s.rho_col,
            }
        })
        .collect()
}

/// E-5.1: the §5 latency-reduction techniques at Figure 2 parameters.
pub fn latency_modes() -> Vec<FigureSeries> {
    let rates = default_rates();
    [
        ("store-and-forward", DataMovement::StoreAndForward),
        ("cut-through", DataMovement::CutThrough),
        ("word-first", DataMovement::RequestedWordFirst),
        ("cut-through+word-first", DataMovement::CutThroughWordFirst),
        ("pieces(4)", DataMovement::Pieces(4)),
    ]
    .iter()
    .map(|(label, movement)| {
        let params = ModelParams {
            movement: *movement,
            ..ModelParams::figure2(32)
        };
        FigureSeries::sweep(*label, &params, &rates)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_has_four_ordered_curves() {
        let series = figure2();
        assert_eq!(series.len(), 4);
        // Top-to-bottom: 8, 16, 24, 32 — check at the tail.
        for pair in series.windows(2) {
            assert!(
                pair[0].tail_efficiency() > pair[1].tail_efficiency(),
                "{} should sit above {}",
                pair[0].label,
                pair[1].label
            );
        }
        assert_eq!(series[0].points.len(), default_rates().len());
    }

    #[test]
    fn figure3_curves_are_ordered_by_invalidation_fraction() {
        let series = figure3();
        assert_eq!(series.len(), 5);
        for pair in series.windows(2) {
            assert!(pair[0].tail_efficiency() >= pair[1].tail_efficiency());
        }
    }

    #[test]
    fn figure3_curves_converge_at_saturation() {
        // "The curves begin to converge as invalidations increase to the
        // point where they saturate the available bus bandwidth."
        let series = figure3();
        let low_rate_gap = series[0].points[1].efficiency - series[4].points[1].efficiency;
        let spread_tail: Vec<f64> = series.iter().map(|s| s.tail_efficiency()).collect();
        let tail_gap = (spread_tail[3] - spread_tail[4]).abs();
        let mid_gap = (series[3].points[10].efficiency - series[4].points[10].efficiency).abs();
        // Adjacent-curve separation shrinks from mid-range to tail.
        assert!(tail_gap <= mid_gap + 0.02);
        assert!(low_rate_gap < 0.05, "low-rate curves nearly coincide");
    }

    #[test]
    fn figure4_small_blocks_win_at_fixed_rate() {
        let series = figure4();
        assert_eq!(series.len(), 5);
        for pair in series.windows(2) {
            assert!(pair[0].tail_efficiency() > pair[1].tail_efficiency());
        }
    }

    #[test]
    fn figure4_rate_scaling_flattens_the_tradeoff() {
        // Along the sloping dashed line big blocks are no longer strictly
        // worse: halving the rate compensates for the doubled block.
        let pts = figure4_rate_scaled(16.0);
        let worst = pts
            .iter()
            .map(|p| p.efficiency)
            .fold(f64::INFINITY, f64::min);
        let fixed_rate_64 = solve(&ModelParams::figure4(64), 16.0).efficiency;
        assert!(worst > fixed_rate_64, "rate scaling must help big blocks");
    }

    #[test]
    fn latency_modes_rank_sensibly() {
        let series = latency_modes();
        let find = |label: &str| {
            series
                .iter()
                .find(|s| s.label == label)
                .unwrap()
                .tail_efficiency()
        };
        assert!(find("cut-through+word-first") >= find("cut-through"));
        assert!(find("cut-through") > find("store-and-forward"));
        assert!(find("word-first") > find("store-and-forward"));
    }
}
