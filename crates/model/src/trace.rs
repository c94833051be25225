//! Schedule (counterexample) serialization: a line-oriented text format
//! that `model replay <file>` reads back and re-executes deterministically.
//!
//! ```text
//! # multicube-model schedule
//! engine multicube
//! lines 1
//! txns 2
//! budget 0
//! rules broken
//! fire issue 3
//! fire serve 0
//! ```

use multicube::EngineKind;

use crate::kernel::{Schedule, Step};
use crate::state::ModelConfig;

/// Serializes a schedule with enough header context to rebuild the rule
/// set it fired against.
pub fn write_schedule(cfg: &ModelConfig, broken: bool, schedule: &Schedule) -> String {
    let mut out = String::from("# multicube-model schedule\n");
    out.push_str(&format!("engine {}\n", cfg.engine.name()));
    out.push_str(&format!("lines {}\n", cfg.lines));
    out.push_str(&format!("txns {}\n", cfg.txns));
    out.push_str(&format!("budget {}\n", cfg.budget));
    out.push_str(&format!(
        "rules {}\n",
        if broken { "broken" } else { "standard" }
    ));
    for step in schedule {
        out.push_str(&format!("fire {} {}\n", step.rule, step.param));
    }
    out
}

/// Parses a serialized schedule back into `(config, broken, schedule)`.
///
/// # Errors
///
/// A 1-based line number and message for the first malformed line.
pub fn parse_schedule(text: &str) -> Result<(ModelConfig, bool, Schedule), String> {
    let mut engine: Option<EngineKind> = None;
    let mut lines_n: Option<u8> = None;
    let mut txns: Option<u8> = None;
    let mut budget: u8 = 0;
    let mut broken = false;
    let mut schedule = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        let key = words.next().unwrap_or_default();
        let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
        match key {
            "engine" => {
                let name = words.next();
                engine = Some(
                    name.and_then(EngineKind::from_name)
                        .ok_or_else(|| err(&format!("unknown engine {name:?}")))?,
                );
            }
            "lines" => {
                lines_n = Some(
                    words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("bad line count"))?,
                );
            }
            "txns" => {
                txns = Some(
                    words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("bad txn count"))?,
                );
            }
            "budget" => {
                budget = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| err("bad budget"))?;
            }
            "rules" => {
                broken = match words.next() {
                    Some("standard") => false,
                    Some("broken") => true,
                    other => return Err(err(&format!("unknown rule set {other:?}"))),
                };
            }
            "fire" => {
                let rule = words
                    .next()
                    .ok_or_else(|| err("fire needs a rule name"))?
                    .to_string();
                let param = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| err("fire needs a numeric param"))?;
                schedule.push(Step { rule, param });
            }
            other => return Err(err(&format!("unknown directive `{other}`"))),
        }
    }

    let engine = engine.ok_or("missing `engine` header")?;
    let lines_n = lines_n.ok_or("missing `lines` header")?;
    let txns = txns.ok_or("missing `txns` header")?;
    Ok((
        ModelConfig::new(engine, lines_n, txns, budget),
        broken,
        schedule,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_round_trips() {
        let cfg = ModelConfig::new(EngineKind::Mesi, 2, 3, 0);
        let sched = vec![
            Step {
                rule: "issue".into(),
                param: 5,
            },
            Step {
                rule: "serve".into(),
                param: 0,
            },
        ];
        let text = write_schedule(&cfg, true, &sched);
        let (cfg2, broken, sched2) = parse_schedule(&text).unwrap();
        assert_eq!(cfg2, cfg);
        assert!(broken);
        assert_eq!(sched2, sched);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let text = "engine multicube\nlines 1\ntxns 2\nfire issue nope\n";
        let err = parse_schedule(text).unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");
    }
}
