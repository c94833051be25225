//! Command line of the repository benchmark.
//!
//! ```text
//! benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
//! benchmark compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! `run --workload NAME` measures one workload in this process and
//! prints its metrics, the last line being one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Without `--workload`
//! it runs every workload, one at a time, each in its own child
//! process so `peak_rss_mb` is that workload's alone. Every run writes a
//! result file (and, traced, a span file) into the output directory.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use multicube_benchmark::json::{self, num, quote};
use multicube_benchmark::spans::to_jsonl;
use multicube_benchmark::stats::fail_frac;
use multicube_benchmark::workloads::{run, Kind, Outcome, Size};
use multicube_benchmark::{compare, declared, DEFAULT_SEED, SCHEMA};

const USAGE: &str = "usage:
  benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
  benchmark compare PARENT_DIR CHANGE_DIR";

struct RunArgs {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

fn parse_seed(raw: &str) -> Result<u64, String> {
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse::<u64>(),
    };
    parsed.map_err(|_| format!("--seed must be an unsigned integer, got {raw:?}"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: declared().run_seconds as f64,
        traced: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload = Some(Kind::from_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {name:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => out.seed = parse_seed(&value("a number")?)?,
            "--seconds" => {
                let raw = value("a number")?;
                out.seconds = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| {
                        format!("--seconds must be a non-negative number, got {raw:?}")
                    })?;
            }
            "--trace" => {
                out.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => out.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// `git rev-parse HEAD` of the working directory, looking no further up
/// than it, or `None` outside a git checkout.
fn git_rev() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let output = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let rev = String::from_utf8(output.stdout).ok()?.trim().to_string();
    (output.status.success() && !rev.is_empty()).then_some(rev)
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The result file of one run: its context, its checks, every metric
/// with its samples, and the deterministic values.
fn result_json(o: &Outcome, seconds: f64) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": {},", quote(SCHEMA));
    let _ = writeln!(
        s,
        "  \"context\": {{\"seed\": {}, \"host_parallelism\": {}, \"threads\": {}, \"traced\": {}, \"run_seconds\": {}, \"git_rev\": {}}},",
        o.seed,
        host_parallelism(),
        o.kind.threads(),
        o.traced,
        num(seconds),
        git_rev().map_or("null".to_string(), |r| quote(&r))
    );
    let _ = writeln!(s, "  \"workload\": {},", quote(o.kind.name()));
    let _ = writeln!(s, "  \"correct\": {},", o.correct());
    let _ = writeln!(s, "  \"attempted\": {},", o.attempted);
    let _ = writeln!(s, "  \"failed\": {},", o.failed);
    let _ = writeln!(
        s,
        "  \"fail_frac\": {},",
        num(fail_frac(o.failed, o.attempted))
    );
    let problems: Vec<String> = o.problems.iter().map(|p| quote(p)).collect();
    let _ = writeln!(s, "  \"problems\": [{}],", problems.join(", "));
    let list = |v: &[f64]| v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ");
    let _ = writeln!(s, "  \"rep_s\": [{}],", list(&o.rep_s));
    let _ = writeln!(s, "  \"rep_speed\": [{}],", list(&o.rep_speed));
    let _ = writeln!(s, "  \"setup_s\": [{}],", list(&o.setup_s));
    let _ = writeln!(s, "  \"setup_speed\": [{}],", list(&o.setup_speed));
    let _ = writeln!(s, "  \"calibration_s\": [{}],", list(&o.calibration_s));
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    let _ = writeln!(s, "  \"metrics\": {{{}}},", metrics.join(", "));
    let det: Vec<String> = o
        .det
        .iter()
        .map(|m| format!("{}: {}", quote(m.name), num(m.value)))
        .collect();
    let _ = writeln!(s, "  \"det\": {{{}}},", det.join(", "));
    if let Some(h) = &o.decode_hist {
        let buckets: Vec<String> = h.iter().map(|(lo, c)| format!("[{lo}, {c}]")).collect();
        let _ = writeln!(
            s,
            "  \"decode_call_ns\": {{\"calls\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": [{}]}},",
            h.total(),
            h.quantile(0.5).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            buckets.join(", ")
        );
    }
    let points: Vec<String> = o
        .points
        .iter()
        .map(|(n, rate, eff)| format!("[{n}, {}, {}]", num(*rate), num(*eff)))
        .collect();
    let _ = writeln!(s, "  \"points\": [{}],", points.join(", "));
    let _ = writeln!(s, "  \"fingerprint\": {}", quote(&o.fingerprint));
    s.push_str("}\n");
    s
}

/// The last line of a run's standard output.
fn summary_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Writes `text` to the first free `DIR/result-<stem>-<k>.json`.
fn write_result(dir: &Path, stem: &str, text: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    for k in 0.. {
        let path = dir.join(format!("result-{stem}-{k}.json"));
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                std::io::Write::write_all(&mut f, text.as_bytes())?;
                return Ok(path);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    unreachable!("some index is free")
}

fn run_one(kind: Kind, args: &RunArgs) -> ExitCode {
    eprintln!(
        "benchmark: {} seed {:#x}, {} s per phase{}",
        kind.name(),
        args.seed,
        args.seconds,
        if args.traced { ", traced" } else { "" }
    );
    let o = run(kind, &Size::full(), args.seed, args.seconds, args.traced);
    println!(
        "{} seed={} traced={} reps={} set-ups={} fingerprint={}",
        kind.name(),
        args.seed,
        o.traced,
        o.rep_s.len(),
        o.setup_s.len(),
        o.fingerprint
    );
    for m in &o.metrics {
        println!("  {:<36} {:>18} {}", m.name, num(m.value), m.unit);
    }
    println!(
        "  {:<36} {:>18} (failed {} of {} transactions)",
        "fail_frac",
        num(fail_frac(o.failed, o.attempted)),
        o.failed,
        o.attempted
    );
    for p in &o.problems {
        println!("  !! {p}");
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        kind.name(),
        args.seed,
        u8::from(o.traced)
    );
    match write_result(&args.out, &stem, &result_json(&o, args.seconds)) {
        Ok(path) => eprintln!("benchmark: wrote {}", path.display()),
        Err(e) => eprintln!("benchmark: could not write a result file: {e}"),
    }
    if o.traced {
        let path = args.out.join(format!("spans-{}.jsonl", kind.name()));
        match std::fs::write(&path, to_jsonl(&o.spans)) {
            Ok(()) => eprintln!(
                "benchmark: wrote {} spans to {}",
                o.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("benchmark: could not write {}: {e}", path.display()),
        }
    }
    let metrics: Vec<(String, f64, String)> = o
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
        .collect();
    println!(
        "{}",
        summary_line(o.correct(), o.attempted, o.failed, &metrics)
    );
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, one after another,
/// and summarizes them; a failing workload does not stop the others.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for kind in Kind::ALL {
        let output = Command::new(&exe)
            .arg("run")
            .args(raw)
            .args(["--workload", kind.name()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let stdout = match &output {
            Ok(o) => String::from_utf8_lossy(&o.stdout).into_owned(),
            Err(e) => format!("could not start: {e}"),
        };
        print!("{stdout}");
        let last = stdout.lines().last().and_then(|l| json::parse(l).ok());
        let Some(last) = last.filter(|v| v.get("metrics").is_some()) else {
            println!("  !! {} produced no result", kind.name());
            correct = false;
            continue;
        };
        correct &= last.get("correct").and_then(json::Value::as_bool) == Some(true);
        attempted += last
            .get("attempted")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as u64;
        failed += last
            .get("failed")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as u64;
        for (name, m) in last.get("metrics").map(|m| m.members()).unwrap_or_default() {
            let value = m.get("value").and_then(json::Value::as_f64);
            let unit = m.get("unit").and_then(json::Value::as_str).unwrap_or("");
            metrics.push((
                format!("{}/{name}", kind.name()),
                value.unwrap_or(f64::NAN),
                unit.to_string(),
            ));
        }
    }
    println!("{}", summary_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(run_args) => match run_args.workload {
                Some(kind) => run_one(kind, &run_args),
                None => run_all(&args[1..]),
            },
            Err(e) => {
                eprintln!("benchmark: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => {
            let load = |dir: &str| compare::load_dir(Path::new(dir));
            match (load(&args[1]), load(&args[2])) {
                (Ok(parent), Ok(change)) => {
                    print!("{}", compare::render(&declared(), &parent, &change));
                    ExitCode::SUCCESS
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("benchmark: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
