//! `perf` — the reproducible core-performance harness.
//!
//! ```text
//! perf [--quick] [--out PATH] [--baseline PATH] [--guard]
//! ```
//!
//! Runs the core kernels (see `multicube_bench::perf`) with warmup and
//! repeats, each timed pass bracketed by the host-speed calibration
//! kernel, and writes median/MAD/p90 results and the calibrated medians as
//! JSON (default `BENCH_core.json` in the current directory). `--baseline`
//! embeds a previous report's medians and the speedup against them.
//! `--guard` additionally fails the run when a guarded kernel
//! (`machine_1k_transactions`, `cube_pdes_events` or
//! `cube_pdes_events_parallel`) regresses more than
//! `MULTICUBE_PERF_GUARD_PCT` percent (default 25) against the baseline.
//! It compares the fastest calibrated pass per work unit, so `--quick`
//! runs measure against full-mode baselines and a slow host against a
//! fast one; the two-worker cube is compared as a ratio to the one-worker
//! cube. A set
//! threshold that is not a finite number above 0 fails the guarded run
//! before any kernel runs.

use std::process::ExitCode;

use multicube_bench::json;
use multicube_bench::perf::{
    check_regression_guard, kernel_stats, render_json, run_all, validate_report, PerfConfig,
    GUARD_KERNELS,
};

/// The environment variable holding the guard's regression threshold.
const GUARD_PCT_ENV: &str = "MULTICUBE_PERF_GUARD_PCT";

/// Parses a [`GUARD_PCT_ENV`] value: 25 when unset, the percentage when
/// set to a finite number above 0, and the offending text otherwise.
fn parse_guard_pct(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else {
        return Ok(25.0);
    };
    match raw.trim().parse::<f64>() {
        Ok(pct) if pct.is_finite() && pct > 0.0 => Ok(pct),
        _ => Err(raw.to_string()),
    }
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut guard_enabled = false;
    let mut out_path = String::from("BENCH_core.json");
    let mut baseline_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--guard" => guard_enabled = true,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => return usage("--out needs a path"),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(p),
                None => return usage("--baseline needs a path"),
            },
            "--help" | "-h" => {
                println!("usage: perf [--quick] [--out PATH] [--baseline PATH] [--guard]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if guard_enabled && baseline_path.is_none() {
        return usage("--guard needs --baseline");
    }
    let guard_pct = if guard_enabled {
        let raw = std::env::var_os(GUARD_PCT_ENV).map(|v| v.to_string_lossy().into_owned());
        match parse_guard_pct(raw.as_deref()) {
            Ok(pct) => Some(pct),
            Err(bad) => {
                eprintln!("perf: {GUARD_PCT_ENV} must be a finite number above 0, got {bad:?}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let baseline = match &baseline_path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => match json::parse(&text).and_then(|report| kernel_stats(&report)) {
                Ok(stats) if !stats.is_empty() => Some(stats),
                Ok(_) => {
                    eprintln!("perf: no kernels in baseline {p}");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("perf: baseline {p} is not a perf report: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("perf: cannot read baseline {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let cfg = if quick {
        PerfConfig::quick()
    } else {
        PerfConfig::full()
    };
    eprintln!(
        "perf: running kernels ({} warmup + {} repeats each, {} mode)",
        cfg.warmup,
        cfg.repeats,
        if cfg.quick { "quick" } else { "full" }
    );
    let (results, failures) = run_all(&cfg);
    for f in &failures {
        eprintln!("  {f}");
    }
    for r in &results {
        let speedup = baseline
            .as_deref()
            .and_then(|b| b.iter().find(|k| k.name == r.name))
            .map(|base| {
                format!(
                    " ({:.2}x vs baseline)",
                    base.calibrated_min_ns as f64 / r.calibrated_min_ns.max(1) as f64
                )
            })
            .unwrap_or_default();
        eprintln!(
            "  {:<28} median {:>12} ns  mad {:>10} ns  p90 {:>12} ns  outliers {}  \
             calibrated median {:>12} ns  min {:>12} ns{}",
            r.name,
            r.median_ns,
            r.mad_ns,
            r.p90_ns,
            r.outliers,
            r.calibrated_median_ns,
            r.calibrated_min_ns,
            speedup
        );
    }
    let json = render_json(&cfg, &results, baseline.as_deref());
    // A panicked kernel leaves a partial report: still write it (the
    // surviving kernels' numbers are good), but fail the run — partial
    // reports must never validate as committed numbers.
    if failures.is_empty() {
        if let Err(e) = validate_report(&json, &cfg) {
            eprintln!("perf: internal error, generated report fails validation: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("perf: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("perf: wrote {out_path}");
    if !failures.is_empty() {
        eprintln!(
            "perf: {} kernel(s) panicked; report incomplete",
            failures.len()
        );
        return ExitCode::FAILURE;
    }
    if let Some(threshold) = guard_pct {
        let base = baseline.as_deref().expect("guard requires baseline");
        let current = json::parse(&json)
            .and_then(|report| kernel_stats(&report))
            .expect("the report validated above");
        for kernel in GUARD_KERNELS {
            match check_regression_guard(&current, base, kernel, threshold) {
                Ok(msg) => eprintln!("perf: {msg}"),
                Err(msg) => {
                    eprintln!("perf: REGRESSION: {msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perf: {msg}\nusage: perf [--quick] [--out PATH] [--baseline PATH] [--guard]");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::parse_guard_pct;

    #[test]
    fn guard_threshold_is_a_finite_positive_percentage() {
        assert_eq!(parse_guard_pct(None), Ok(25.0));
        assert_eq!(parse_guard_pct(Some("25")), Ok(25.0));
        assert_eq!(parse_guard_pct(Some(" 7.5 ")), Ok(7.5));
        for bad in ["", "25%", "O25", "0", "-5", "NaN", "inf", "-inf"] {
            assert_eq!(parse_guard_pct(Some(bad)), Err(bad.to_string()), "{bad:?}");
        }
    }
}
