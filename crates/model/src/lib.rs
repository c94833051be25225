//! Exhaustive protocol verification for the Wisconsin Multicube.
//!
//! The event-driven simulator in `multicube` *samples* protocol
//! interleavings — whichever orders its timing model and seeds produce.
//! This crate *enumerates* them: a guarded-action model of the paper's
//! Appendix-A protocol (and of the MESI, Dragon and write-once rivals)
//! small enough that breadth-first search visits **every** reachable
//! state of a 2×2 machine with a handful of lines and transactions,
//! including schedules containing dropped modified signals, stale MLT
//! replicas, lost/duplicated operations and memory NACKs from the
//! simulator's five fault classes.
//!
//! Three guarantees come out:
//!
//! 1. **Invariant coverage** — every explored state is judged by the
//!    *simulator's own* invariant predicates: [`multicube::check_engine`]
//!    runs the `check` of the engine's record, the same function
//!    `Machine::check_coherence` runs, through the shared
//!    [`CoherenceView`] trait; a wrong rule yields a minimal replayable
//!    counterexample schedule ([`kernel::Schedule`]).
//! 2. **Cross-validation** — [`xval::cross_validate`] drives the real
//!    [`Machine`](multicube::Machine) over every request schedule the
//!    model admits and asserts its quiescent fingerprints are a subset
//!    of the model's reachable-idle set.
//! 3. **Fault closure** — fault transitions consume a budget but leave
//!    coherence state fixed (§3's bounce-and-retry self-healing), so the
//!    reachable *observable* states with faults equal those without;
//!    the test suite pins this.
//!
//! [`CoherenceView`]: multicube::CoherenceView

pub mod kernel;
pub mod rules;
pub mod state;
pub mod trace;
pub mod xval;

use multicube::CoherenceViolation;

pub use kernel::{explore, replay, Counterexample, Exploration, Rule, Schedule, Step};
pub use state::{LineState, Mode, ModelConfig, Slot, State, StateView, NODES, SIDE};
pub use xval::{cross_validate, fingerprint, idle_fingerprints, Fingerprint, XvalReport};

/// Default cap on distinct states; the largest advertised configuration
/// (2 lines, 3 transactions, budget 2) stays far below it.
pub const MAX_STATES: usize = 5_000_000;

/// Explores `cfg` under an explicit rule set (faithful or broken),
/// judging every state with the engine's own quiescent invariants.
pub fn explore_model(
    cfg: &ModelConfig,
    rules: &[Rule<State>],
) -> Exploration<State, CoherenceViolation> {
    explore(
        State::initial(cfg),
        rules,
        |s| s.canonical(),
        |s| multicube::check_engine(cfg.engine, &StateView { cfg, state: s }),
        MAX_STATES,
    )
}

/// Explores `cfg` under its faithful protocol rules.
pub fn check_model(cfg: &ModelConfig) -> Exploration<State, CoherenceViolation> {
    explore_model(cfg, &rules::rules(cfg))
}
