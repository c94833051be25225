//! The simulator and the MVA model behind the paper's Figure 2 must
//! agree: at every point of the `figures -- fig2` sweep (n = 8/16/24/32
//! at seven request rates), the simulated processor efficiency lies
//! within `TOLERANCE` of `mva::solve`'s.

use multicube_bench::{sim_figure2, Pool, SweepConfig};
use multicube_mva::{solve, ModelParams};

/// Largest allowed |simulated − model| efficiency gap. The widest gap of
/// the current code is about 0.008, at n = 8 and 30 req/ms.
const TOLERANCE: f64 = 0.02;

#[test]
fn simulated_figure2_agrees_with_the_model_at_every_point() {
    let sides = [8, 16, 24, 32];
    let sweep = SweepConfig::default();
    let sims = sim_figure2(&Pool::new(2), &sides, &sweep);
    let mut checked = 0;
    for (&n, sim) in sides.iter().zip(&sims) {
        assert!(sim.failures.is_empty(), "n = {n}: {:?}", sim.failures);
        assert_eq!(sim.series.points.len(), sweep.rates.len(), "n = {n}");
        for p in &sim.series.points {
            let model = solve(&ModelParams::figure2(n), p.rate_per_ms).efficiency;
            let gap = (p.efficiency - model).abs();
            assert!(
                gap <= TOLERANCE,
                "n = {n} at {} req/ms: simulated {:.4}, model {model:.4}, gap {gap:.4} > {TOLERANCE}",
                p.rate_per_ms,
                p.efficiency
            );
            checked += 1;
        }
    }
    assert_eq!(checked, sides.len() * sweep.rates.len());
}
