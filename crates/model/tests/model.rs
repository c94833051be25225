//! End-to-end checker tests: exhaustive exploration stays coherent for
//! every engine, fault schedules add no observable states, the broken
//! rule set is caught with a minimal replayable counterexample, and the
//! simulator's reachable fingerprints are a subset of the model's.

use multicube::EngineKind;
use multicube_model::{
    check_model, cross_validate, explore_model, idle_fingerprints, kernel, rules, trace,
    ModelConfig, State, StateView,
};

/// State counts are deterministic (BFS over a fixed rule order), so pin
/// them: a protocol-rule change that silently shrinks or inflates the
/// reachable space must be a conscious decision. These are the same
/// numbers committed in EXPERIMENTS.md.
#[test]
fn exhaustive_exploration_is_coherent_with_pinned_state_counts() {
    let expect = [
        (EngineKind::Multicube, 1, 2, 1, 237usize),
        (EngineKind::Mesi, 1, 2, 0, 119),
        (EngineKind::Dragon, 1, 2, 0, 131),
        (EngineKind::WriteOnce, 1, 2, 0, 123),
        (EngineKind::Multicube, 2, 2, 1, 953),
        (EngineKind::Mesi, 2, 2, 0, 477),
        (EngineKind::Dragon, 2, 2, 0, 501),
        (EngineKind::WriteOnce, 2, 2, 0, 485),
    ];
    for (engine, lines, txns, budget, states) in expect {
        let cfg = ModelConfig::new(engine, lines, txns, budget);
        let ex = check_model(&cfg);
        assert!(
            ex.violation.is_none(),
            "{}: {:?}",
            engine.name(),
            ex.violation.map(|v| v.error.to_string())
        );
        assert!(!ex.truncated, "{}: truncated", engine.name());
        assert_eq!(
            ex.states.len(),
            states,
            "{} {lines}x{txns} budget {budget}: reachable-state count drifted",
            engine.name()
        );
    }
}

/// §3 fault closure: fault transitions bounce and retry without touching
/// coherence state, so the reachable *idle fingerprints* with a fault
/// budget equal those without one.
#[test]
fn fault_budget_adds_no_observable_states() {
    for budget in [1u8, 2] {
        let faulty = ModelConfig::new(EngineKind::Multicube, 2, 2, budget);
        let clean = ModelConfig::new(EngineKind::Multicube, 2, 2, 0);
        let fp_faulty = idle_fingerprints(&faulty, &check_model(&faulty));
        let fp_clean = idle_fingerprints(&clean, &check_model(&clean));
        assert_eq!(
            fp_faulty, fp_clean,
            "budget {budget} changed the observable idle set"
        );
    }
}

/// The deliberately broken write rule (forgets remote copies) is caught
/// for every engine, the counterexample is minimal-depth, and it
/// round-trips through serialization into a deterministic replay that
/// fails at the recorded step.
#[test]
fn broken_write_rule_yields_replayable_counterexample() {
    for engine in EngineKind::all() {
        let cfg = ModelConfig::new(engine, 1, 2, 0);
        let broken = rules::broken_rules(&cfg);
        let ex = explore_model(&cfg, &broken);
        let v = ex
            .violation
            .unwrap_or_else(|| panic!("{}: broken rules escaped the checker", engine.name()));
        // Two issues and two serves is the shortest path to a write
        // racing an existing copy.
        assert_eq!(
            v.schedule.len(),
            4,
            "{}: counterexample not minimal",
            engine.name()
        );

        let text = trace::write_schedule(&cfg, true, &v.schedule);
        let (cfg2, is_broken, schedule) = trace::parse_schedule(&text).expect("round-trip");
        assert!(is_broken);
        let ruleset = rules::broken_rules(&cfg2);
        let err = kernel::replay(
            State::initial(&cfg2),
            &ruleset,
            |s: &State| s.canonical(),
            |s: &State| {
                multicube::check_engine(
                    cfg2.engine,
                    &StateView {
                        cfg: &cfg2,
                        state: s,
                    },
                )
            },
            &schedule,
        )
        .expect_err("replay must reproduce the violation");
        assert_eq!(err.0, 3, "{}: violation step drifted", engine.name());
        assert_eq!(
            err.1,
            format!("invariant violated after step 3: {}", v.error),
            "{}: replay found a different violation",
            engine.name()
        );

        // The faithful rules replay the same interleaving cleanly
        // (issue/serve share names across rule sets).
        kernel::replay(
            State::initial(&cfg2),
            &rules::rules(&cfg2),
            |s: &State| s.canonical(),
            |s: &State| {
                multicube::check_engine(
                    cfg2.engine,
                    &StateView {
                        cfg: &cfg2,
                        state: s,
                    },
                )
            },
            &schedule,
        )
        .expect("the faithful protocol survives the same schedule");
    }
}

/// The tentpole assertion: for every engine, the event-driven simulator
/// driven over every request schedule (serially and concurrently, plus
/// faulted Multicube runs) only ever reaches quiescent fingerprints the
/// model explored.
#[test]
fn simulator_fingerprints_are_subset_of_model() {
    for engine in EngineKind::all() {
        let budget = if engine == EngineKind::Multicube {
            1
        } else {
            0
        };
        let cfg = ModelConfig::new(engine, 1, 2, budget);
        let report = cross_validate(&cfg)
            .unwrap_or_else(|e| panic!("{}: cross-validation failed: {e}", engine.name()));
        assert!(report.sim_runs >= 128, "{}: too few runs", engine.name());
        assert!(
            report.model_idle_fingerprints > 0,
            "{}: empty model set",
            engine.name()
        );
    }
}

/// The two-line config cross-validates too — this is the CI push-gate
/// configuration for the subset property.
#[test]
fn two_line_cross_validation_holds() {
    for engine in EngineKind::all() {
        let budget = if engine == EngineKind::Multicube {
            1
        } else {
            0
        };
        let cfg = ModelConfig::new(engine, 2, 2, budget);
        cross_validate(&cfg)
            .unwrap_or_else(|e| panic!("{}: cross-validation failed: {e}", engine.name()));
    }
}
