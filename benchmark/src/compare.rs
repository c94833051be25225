//! `compare PARENT_DIR CHANGE_DIR`: judges a change against its parent
//! from the result files of untraced runs of each.
//!
//! For every workload and end-to-end metric it reports each side's
//! median and quartiles and the pairwise wins, then a verdict with the
//! bounds declared in `BENCHMARK.json`: a gain needs nine tenths of the
//! pairs and a median shift beyond the parent's own spread, and a
//! metric whose spread exceeds its bound is unresolved, not unchanged.
//! Deterministic metrics and fingerprints must be bit-identical between
//! the sides for the same seed; any difference is listed separately,
//! since a host-speed-only change may not move them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Value};
use crate::stats::quartiles;
use crate::Declared;

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and the medians
    /// differ by more than the parent's own quartile spread.
    Improved,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// Within the bound, and the parent's spread is within it too.
    Unchanged,
    /// The parent's spread is wider than the bound, so "no worse than
    /// the bound" cannot be shown.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Both sides' statistics and the verdict for one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    /// `(q1, median, q3)` of the parent's runs.
    pub parent: (f64, f64, f64),
    /// `(q1, median, q3)` of the change's runs.
    pub change: (f64, f64, f64),
    /// Pairs the change won, lost, and the number of pairs.
    pub wins: usize,
    pub losses: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Judges the change's samples against the parent's. Samples pair up
/// in order (`parent[i]` with `change[i]`); ties count for neither
/// side. `bound` is the share of the parent's median the metric may
/// worsen by.
pub fn judge(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Judgement {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let losses = (0..pairs).filter(|&i| better(parent[i], change[i])).count();
    let p = quartiles(parent);
    let c = quartiles(change);
    let parent_iqr = p.2 - p.0;
    let worse = if higher_is_better {
        p.1 - c.1
    } else {
        c.1 - p.1
    };
    let worse_by = worse / p.1.abs();
    let every_change_run_better = change.iter().all(|&x| parent.iter().all(|&y| better(x, y)));
    let verdict = if pairs > 0
        && wins * 10 >= pairs * 9
        && better(c.1, p.1)
        && (c.1 - p.1).abs() > parent_iqr
    {
        Verdict::Improved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if parent_iqr / p.1.abs() > bound && !every_change_run_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Judgement {
        parent: p,
        change: c,
        wins,
        losses,
        pairs,
        verdict,
    }
}

/// The parts of one untraced result file `compare` uses.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    pub det: BTreeMap<String, f64>,
    pub fingerprint: String,
}

/// Reads every untraced `result-*.json` in `dir`, ordered by workload,
/// seed and file name.
///
/// # Errors
///
/// An unreadable directory or a malformed result file.
pub fn load_dir(dir: &Path) -> Result<Vec<RunResult>, String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("result-") && n.ends_with(".json"))
        })
        .collect();
    names.sort();
    let mut out = Vec::new();
    for path in names {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let context = v.get("context").cloned().unwrap_or(Value::Null);
        if context.get("traced").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let numbers = |key: &str, nested: bool| -> BTreeMap<String, f64> {
            v.get(key)
                .map(|m| {
                    m.members()
                        .iter()
                        .filter_map(|(k, x)| {
                            let x = if nested { x.get("value")? } else { x };
                            Some((k.clone(), x.as_f64()?))
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        let missing = |what: &str| format!("{}: missing {what}", path.display());
        out.push(RunResult {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| missing("workload"))?
                .to_string(),
            seed: context
                .get("seed")
                .and_then(Value::as_f64)
                .ok_or_else(|| missing("context.seed"))? as u64,
            correct: v.get("correct").and_then(Value::as_bool).unwrap_or(false),
            metrics: numbers("metrics", true),
            det: numbers("det", false),
            fingerprint: v
                .get("fingerprint")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
        });
    }
    out.sort_by(|a, b| (&a.workload, a.seed).cmp(&(&b.workload, b.seed)));
    Ok(out)
}

/// Renders the comparison of two result sets as text: one row per
/// (workload, end-to-end metric), then the deterministic differences.
pub fn render(declared: &Declared, parent: &[RunResult], change: &[RunResult]) -> String {
    let mut out = String::new();
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = parent.iter().map(|r| &r.workload).collect();
        w.dedup();
        w
    };
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:>32} {:>32} {:>6} {:>5}  verdict",
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "wins", "bound"
    );
    for wl in workloads {
        let side = |runs: &[RunResult]| -> Vec<RunResult> {
            runs.iter().filter(|r| &r.workload == wl).cloned().collect()
        };
        let (p, c) = (side(parent), side(change));
        if c.is_empty() {
            let _ = writeln!(out, "{wl:<12} (no change runs)");
            continue;
        }
        for m in &declared.end_to_end {
            let values = |runs: &[RunResult]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect()
            };
            let j = judge(
                &values(&p),
                &values(&c),
                m.higher_is_better,
                m.bound.unwrap_or(0.0),
            );
            let q = |t: (f64, f64, f64)| format!("{}/{}/{}", short(t.0), short(t.1), short(t.2));
            let _ = writeln!(
                out,
                "{wl:<12} {:<12} {:>32} {:>32} {:>6} {:>5}  {}",
                m.name,
                q(j.parent),
                q(j.change),
                format!("{}/{}", j.wins, j.pairs),
                m.bound.unwrap_or(0.0),
                j.verdict.name()
            );
        }
        let incorrect = p.iter().chain(c.iter()).filter(|r| !r.correct).count();
        if incorrect > 0 {
            let _ = writeln!(
                out,
                "{wl:<12} !! {incorrect} run(s) reported incorrect output"
            );
        }
    }
    let shared = parent
        .iter()
        .filter(|p| {
            change
                .iter()
                .any(|c| c.workload == p.workload && c.seed == p.seed)
        })
        .count();
    let diffs = det_differences(parent, change);
    if shared == 0 {
        let _ = writeln!(out, "deterministic metrics: no seed ran on both sides");
    } else if diffs.is_empty() {
        let _ = writeln!(
            out,
            "deterministic metrics: identical on all {shared} shared (workload, seed) runs"
        );
    } else {
        let _ = writeln!(out, "deterministic metrics that differ:");
        for d in diffs {
            let _ = writeln!(out, "  {d}");
        }
    }
    out
}

/// `x` to five significant digits, in exponent form when large or small.
fn short(x: f64) -> String {
    if x != 0.0 && !(1e-3..1e5).contains(&x.abs()) {
        format!("{x:.4e}")
    } else {
        format!("{x:.5}")
    }
}

/// Every deterministic metric or fingerprint that differs between the
/// sides for the same (workload, seed).
pub fn det_differences(parent: &[RunResult], change: &[RunResult]) -> Vec<String> {
    let mut out = Vec::new();
    for p in parent {
        let Some(c) = change
            .iter()
            .find(|c| c.workload == p.workload && c.seed == p.seed)
        else {
            continue;
        };
        let at = format!("{} seed {}", p.workload, p.seed);
        if p.fingerprint != c.fingerprint {
            out.push(format!(
                "{at}: fingerprint {} -> {}",
                p.fingerprint, c.fingerprint
            ));
        }
        for (name, pv) in &p.det {
            match c.det.get(name) {
                Some(cv) if cv.to_bits() == pv.to_bits() => {}
                Some(cv) => out.push(format!("{at}: {name} {pv} -> {cv}")),
                None => out.push(format!("{at}: {name} missing in the change")),
            }
        }
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + spread * ((i as f64) / 9.0 - 0.5))
            .collect()
    }

    #[test]
    fn a_clear_gain_is_improved() {
        let j = judge(&around(100.0, 2.0), &around(120.0, 2.0), true, 0.1);
        assert_eq!((j.wins, j.losses, j.pairs), (10, 0, 10));
        assert_eq!(j.verdict, Verdict::Improved);
        // Lower-is-better metrics invert the direction.
        let j = judge(&around(100.0, 2.0), &around(80.0, 2.0), false, 0.1);
        assert_eq!(j.verdict, Verdict::Improved);
    }

    #[test]
    fn worsening_beyond_the_bound_is_regressed() {
        let j = judge(&around(100.0, 2.0), &around(85.0, 2.0), true, 0.1);
        assert_eq!(j.verdict, Verdict::Regressed);
        let j = judge(&around(1.0, 0.01), &around(1.2, 0.01), false, 0.1);
        assert_eq!(j.verdict, Verdict::Regressed);
    }

    #[test]
    fn small_moves_within_a_tight_spread_are_unchanged() {
        let j = judge(&around(100.0, 2.0), &around(97.0, 2.0), true, 0.1);
        assert_eq!(j.verdict, Verdict::Unchanged);
        // A gain short of nine tenths of the pairs is not a claim.
        let parent = around(100.0, 2.0);
        let mut change: Vec<f64> = parent.iter().map(|x| x + 5.0).collect();
        change[0] = parent[0] - 1.0;
        change[1] = parent[1] - 1.0;
        assert_eq!(
            judge(&parent, &change, true, 0.1).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let j = judge(&around(100.0, 60.0), &around(98.0, 60.0), true, 0.1);
        assert_eq!(j.verdict, Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let j = judge(&around(100.0, 60.0), &around(200.0, 10.0), true, 0.1);
        assert_eq!(j.verdict, Verdict::Improved);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let j = judge(&[1.0, 2.0, 3.0], &[1.0, 2.5, 2.0], true, 0.5);
        assert_eq!((j.wins, j.losses, j.pairs), (1, 1, 3));
    }

    #[test]
    fn deterministic_differences_are_listed() {
        let run = |fp: &str, eff: f64| RunResult {
            workload: "serve-oltp".into(),
            seed: 1,
            correct: true,
            metrics: BTreeMap::new(),
            det: [("core.machine.sim_efficiency".to_string(), eff)]
                .into_iter()
                .collect(),
            fingerprint: fp.into(),
        };
        assert!(det_differences(&[run("a", 0.5)], &[run("a", 0.5)]).is_empty());
        let diffs = det_differences(&[run("a", 0.5)], &[run("b", 0.25)]);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
    }
}
