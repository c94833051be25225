//! `model` — the protocol verification CLI.
//!
//! ```text
//! model check [--engine E] [--lines N] [--txns N] [--budget N]
//!     Exhaustively explore the protocol state space and print a
//!     state-count table (all four engines unless --engine is given).
//!
//! model xval [--engine E] [--lines N] [--txns N] [--budget N]
//!     Cross-validate the simulator against the model: every request
//!     schedule, quiescent fingerprints asserted model-reachable.
//!
//! model demo-broken [--engine E] [--lines N] [--txns N]
//!     Explore a deliberately broken write rule and print the minimal
//!     counterexample schedule (replayable via `model replay`).
//!
//! model replay <file>
//!     Re-execute a serialized schedule, checking invariants after
//!     every step; exits nonzero at the recorded violation.
//! ```

use std::process::ExitCode;

use multicube::EngineKind;
use multicube_model::{kernel, rules, trace, ModelConfig};

struct Args {
    engine: Option<EngineKind>,
    lines: u8,
    txns: u8,
    budget: u8,
    positional: Vec<String>,
}

fn parse_args(mut argv: std::env::Args) -> Result<(String, Args), String> {
    let _ = argv.next();
    let cmd = argv
        .next()
        .ok_or("usage: model <check|xval|demo-broken|replay> [options]")?;
    let mut args = Args {
        engine: None,
        lines: 1,
        txns: 2,
        budget: 0,
        positional: Vec::new(),
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--engine" => {
                let name = value("--engine")?;
                args.engine =
                    Some(EngineKind::from_name(&name).ok_or(format!("unknown engine `{name}`"))?);
            }
            "--lines" => {
                args.lines = value("--lines")?
                    .parse()
                    .map_err(|e| format!("--lines: {e}"))?
            }
            "--txns" => {
                args.txns = value("--txns")?
                    .parse()
                    .map_err(|e| format!("--txns: {e}"))?
            }
            "--budget" => {
                args.budget = value("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?
            }
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => args.positional.push(other.to_string()),
        }
    }
    Ok((cmd, args))
}

fn engines(args: &Args) -> Vec<EngineKind> {
    match args.engine {
        Some(e) => vec![e],
        None => EngineKind::all().to_vec(),
    }
}

/// The per-engine fault budget: arena engines reject fault plans, so
/// their model carries no fault rules either.
fn budget_for(engine: EngineKind, requested: u8) -> u8 {
    if engine == EngineKind::Multicube {
        requested
    } else {
        0
    }
}

fn cmd_check(args: &Args) -> Result<(), String> {
    println!("engine     lines txns budget     states transitions  idle-fps  result");
    for engine in engines(args) {
        let budget = budget_for(engine, args.budget);
        let cfg = ModelConfig::new(engine, args.lines, args.txns, budget);
        let ex = multicube_model::check_model(&cfg);
        let idle = multicube_model::idle_fingerprints(&cfg, &ex).len();
        let result = match &ex.violation {
            Some(v) => format!("VIOLATION: {}", v.error),
            None if ex.truncated => "TRUNCATED".to_string(),
            None => "ok".to_string(),
        };
        println!(
            "{:<10} {:>5} {:>4} {:>6} {:>10} {:>11} {:>9}  {result}",
            engine.name(),
            args.lines,
            args.txns,
            budget,
            ex.states.len(),
            ex.transitions,
            idle,
        );
        if let Some(v) = ex.violation {
            let sched = trace::write_schedule(&cfg, false, &v.schedule);
            eprintln!("counterexample schedule:\n{sched}");
            return Err("invariant violation found".into());
        }
    }
    Ok(())
}

fn cmd_xval(args: &Args) -> Result<(), String> {
    for engine in engines(args) {
        let budget = budget_for(engine, args.budget);
        let cfg = ModelConfig::new(engine, args.lines, args.txns, budget);
        let report = multicube_model::cross_validate(&cfg)?;
        println!(
            "{}: {} model states, {} idle fingerprints, {} sim runs, {} fingerprints checked — sim ⊆ model",
            engine.name(),
            report.model_states,
            report.model_idle_fingerprints,
            report.sim_runs,
            report.fingerprints_checked,
        );
    }
    Ok(())
}

fn cmd_demo_broken(args: &Args) -> Result<(), String> {
    for engine in engines(args) {
        let cfg = ModelConfig::new(engine, args.lines, args.txns, 0);
        let broken = rules::broken_rules(&cfg);
        let ex = multicube_model::explore_model(&cfg, &broken);
        let Some(v) = ex.violation else {
            return Err(format!(
                "{}: the broken rule set was not caught — checker is too weak",
                engine.name()
            ));
        };
        eprintln!(
            "{}: caught `{}` after {} steps (of {} states explored)",
            engine.name(),
            v.error,
            v.schedule.len(),
            ex.states.len()
        );
        print!("{}", trace::write_schedule(&cfg, true, &v.schedule));
    }
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("usage: model replay <schedule-file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (cfg, broken, schedule) = trace::parse_schedule(&text)?;
    let ruleset = if broken {
        rules::broken_rules(&cfg)
    } else {
        rules::rules(&cfg)
    };
    let canon = |s: &multicube_model::State| s.canonical();
    let check = |s: &multicube_model::State| {
        multicube::check_engine(
            cfg.engine,
            &multicube_model::StateView {
                cfg: &cfg,
                state: s,
            },
        )
    };
    match kernel::replay(
        multicube_model::State::initial(&cfg),
        &ruleset,
        canon,
        check,
        &schedule,
    ) {
        Ok(_) => {
            println!(
                "replayed {} steps on {}: no violation",
                schedule.len(),
                cfg.engine.name()
            );
            Ok(())
        }
        Err((step, msg)) => Err(format!("step {step}: {msg}")),
    }
}

fn main() -> ExitCode {
    let (cmd, args) = match parse_args(std::env::args()) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "check" => cmd_check(&args),
        "xval" => cmd_xval(&args),
        "demo-broken" => cmd_demo_broken(&args),
        "replay" => cmd_replay(&args),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
