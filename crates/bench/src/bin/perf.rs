//! `perf` — the reproducible core-performance harness.
//!
//! ```text
//! perf [--quick] [--out PATH]
//! perf --guard PARENT_DIR CHANGE_DIR
//! ```
//!
//! Runs the core kernels (see `multicube_bench::perf`) with warmup and
//! repeats and writes median/MAD/p90 results as JSON (default
//! `BENCH_core.json` in the current directory).
//!
//! `--guard` runs no kernels: it reads every `*.json` report in the two
//! directories, written by the parent commit's `perf` and the change's
//! run alternately on one host, prints each kernel's fastest pass per work
//! unit pooled over each side and their ratio, and fails when
//! `machine_1k_transactions`, `cube_pdes_events` or
//! `cube_pdes_events_parallel` is more than 25 % slower than the parent.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use multicube_bench::json;
use multicube_bench::perf::{
    guard, kernel_stats, render_json, run_all, validate_report, KernelStat, PerfConfig,
};

const USAGE: &str = "usage: perf [--quick] [--out PATH]\n       perf --guard PARENT_DIR CHANGE_DIR";

fn main() -> ExitCode {
    multicube_sim::pool::install_job_panic_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, parent, change] = args.as_slice() {
        if flag == "--guard" {
            return guard_dirs(Path::new(parent), Path::new(change));
        }
    }
    let mut quick = false;
    let mut out_path = String::from("BENCH_core.json");
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(p) if !p.starts_with("--") => out_path = p,
                _ => return usage("--out needs a path"),
            },
            "--guard" => return usage("--guard takes two directories and no other option"),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

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
        eprintln!(
            "  {:<28} median {:>12} ns  mad {:>10} ns  p90 {:>12} ns  outliers {}  min {:>12} ns",
            r.name, r.median_ns, r.mad_ns, r.p90_ns, r.outliers, r.min_ns
        );
    }
    let json = render_json(&cfg, &results);
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
    ExitCode::SUCCESS
}

/// Judges the reports in `change` against those in `parent`.
fn guard_dirs(parent: &Path, change: &Path) -> ExitCode {
    let (parent, change) = match (read_reports(parent), read_reports(change)) {
        (Ok(parent), Ok(change)) => (parent, change),
        (parent, change) => {
            for e in parent.err().into_iter().chain(change.err()) {
                eprintln!("perf: {e}");
            }
            return ExitCode::FAILURE;
        }
    };
    let verdict = guard(&parent, &change);
    for line in &verdict.table {
        println!("{line}");
    }
    if verdict.failures.is_empty() {
        println!("perf: guard passed");
        return ExitCode::SUCCESS;
    }
    for failure in &verdict.failures {
        eprintln!("perf: REGRESSION: {failure}");
    }
    ExitCode::FAILURE
}

/// The kernels of every `*.json` report in `dir`, in file-name order.
fn read_reports(dir: &Path) -> Result<Vec<Vec<KernelStat>>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    paths.retain(|p| p.extension().is_some_and(|ext| ext == "json"));
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no *.json report in {}", dir.display()));
    }
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            json::parse(&text)
                .and_then(|report| kernel_stats(&report))
                .map_err(|e| format!("{} is not a perf report: {e}", p.display()))
        })
        .collect()
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perf: {msg}\n{USAGE}");
    ExitCode::FAILURE
}
