//! Fault injection, retry/backoff policy, and the livelock watchdog.
//!
//! Section 3 of the paper claims the protocol is *self-healing*: memory keeps
//! a per-line valid bit, so controllers "may simply discard" modified-signal
//! duties and racing requests bounce off memory and retry. This module turns
//! that claim into a testable surface. A [`FaultPlan`] describes *which*
//! adversarial faults to inject and at what rates; a `FaultInjector`
//! (owned by the machine, driven by its own deterministic RNG stream) makes
//! the per-event decisions; a [`RetryPolicy`] adds bounded exponential
//! backoff to the bounce path; and a [`Watchdog`] detects transactions whose
//! retry or age budget is exhausted, either failing fast (tests) or
//! *escalating* the transaction to a fault-free retry so forward progress is
//! guaranteed (runs).
//!
//! Supported fault classes:
//!
//! - **Dropped modified signals** — the wired-OR poll lies "absent"
//!   (§3's "may simply discard").
//! - **Lost bus operations** — a request occupies its bus but no controller
//!   acts on it; the originator must retry.
//! - **Duplicated bus operations** — a request is heard twice; the copy must
//!   be harmless.
//! - **Delayed MLT updates** — one controller in a column serves a stale
//!   view of its column's table for a bounded window (transient desync).
//! - **Memory-bank transient NACKs** — a memory request is refused as if the
//!   valid bit were clear, forcing a bounce.
//! - **Controller blackout windows** — a controller neither snoops nor
//!   replies for a bounded window (purges still land: the hardware
//!   invalidation path is assumed fail-stop, not byzantine).
//!
//! All probabilities must be in `[0.0, 1.0)`: a rate of exactly 1.0 would
//! defeat every retry forever, and the convergence argument (each retry
//! re-rolls independently, so failure chains are geometric) requires the
//! complement to be positive.
//!
//! Determinism: the injector seeds its own [`DeterministicRng`] from the
//! machine seed, so enabling faults never perturbs the workload stream, and
//! identical `(config, seed)` pairs replay identical fault schedules.

use std::fmt;

use multicube_mem::LineAddr;
use multicube_sim::{DeterministicRng, FxHashMap, SimTime};

use crate::proto::{TxnId, TxnSet};

/// XOR'd into the machine seed so the injector's stream is decorrelated from
/// the workload RNG without consuming a draw from it.
const INJECTOR_SEED_SALT: u64 = 0x5EED_FA17_1B1A_57ED;

// ---------------------------------------------------------------------------
// Configuration errors
// ---------------------------------------------------------------------------

/// Validation errors for [`FaultPlan`] and [`RetryPolicy`] knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultConfigError {
    /// A probability knob is outside `[0.0, 1.0)` (or NaN).
    BadProbability {
        /// Which knob was rejected.
        knob: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A windowed fault has a nonzero rate but a zero-length window.
    ZeroWindow {
        /// Which knob was rejected.
        knob: &'static str,
    },
    /// The backoff cap is smaller than the base delay.
    BadBackoff {
        /// Configured base delay (ns).
        base_ns: u64,
        /// Configured cap (ns).
        cap_ns: u64,
    },
    /// An active fault plan was paired with an engine that has no fault
    /// handling (the single-bus arena engines model ideal buses).
    UnsupportedByEngine {
        /// The engine that cannot honor the plan.
        engine: &'static str,
    },
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultConfigError::BadProbability { knob, value } => write!(
                f,
                "fault probability `{knob}` = {value} must lie in [0.0, 1.0); \
                 a rate of 1.0 would defeat every retry and the run could \
                 never converge"
            ),
            FaultConfigError::ZeroWindow { knob } => write!(
                f,
                "`{knob}` has a nonzero probability but a zero-length window; \
                 set the matching `_ns` duration (e.g. 2000) or drop the \
                 probability to 0.0"
            ),
            FaultConfigError::BadBackoff { base_ns, cap_ns } => write!(
                f,
                "retry backoff cap ({cap_ns} ns) is below the base delay \
                 ({base_ns} ns); set cap >= base (the cap bounds the \
                 exponential growth, it does not replace the base)"
            ),
            FaultConfigError::UnsupportedByEngine { engine } => write!(
                f,
                "fault plan is active but the `{engine}` engine has no fault \
                 handling: its snoop/retry paths would silently ignore every \
                 injected fault. Use the multicube engine, or clear the plan"
            ),
        }
    }
}

impl std::error::Error for FaultConfigError {}

fn check_probability(knob: &'static str, value: f64) -> Result<(), FaultConfigError> {
    if (0.0..1.0).contains(&value) {
        Ok(())
    } else {
        Err(FaultConfigError::BadProbability { knob, value })
    }
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

/// A deterministic, seed-driven description of which faults to inject.
///
/// The default plan injects nothing. Build one with the `with_*` methods and
/// install it via `MachineConfig::with_fault_plan`:
///
/// ```
/// use multicube::FaultPlan;
///
/// let plan = FaultPlan::default()
///     .with_signal_drop(0.25)
///     .with_op_loss(0.10)
///     .with_memory_nack(0.05);
/// assert!(plan.is_active());
/// plan.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    signal_drop: f64,
    op_loss: f64,
    op_duplicate: f64,
    mlt_delay: f64,
    mlt_delay_ns: u64,
    memory_nack: f64,
    blackout: f64,
    blackout_ns: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            signal_drop: 0.0,
            op_loss: 0.0,
            op_duplicate: 0.0,
            mlt_delay: 0.0,
            mlt_delay_ns: 2_000,
            memory_nack: 0.0,
            blackout: 0.0,
            blackout_ns: 2_000,
        }
    }
}

impl FaultPlan {
    /// Probability that a successful modified-signal poll reports "absent"
    /// (the paper's "may simply discard" fault).
    #[must_use]
    pub fn with_signal_drop(mut self, p: f64) -> Self {
        self.signal_drop = p;
        self
    }

    /// Probability that a request op is *lost*: it occupies its bus for the
    /// full duration but no controller or memory acts on it.
    #[must_use]
    pub fn with_op_loss(mut self, p: f64) -> Self {
        self.op_loss = p;
        self
    }

    /// Probability that a request op is *duplicated*: a spurious copy
    /// occupies the bus right behind the original and must be ignored.
    #[must_use]
    pub fn with_op_duplicate(mut self, p: f64) -> Self {
        self.op_duplicate = p;
        self
    }

    /// Probability that an MLT membership change leaves one controller of
    /// the column serving its *pre-update* view for `window_ns` nanoseconds.
    #[must_use]
    pub fn with_mlt_delay(mut self, p: f64, window_ns: u64) -> Self {
        self.mlt_delay = p;
        self.mlt_delay_ns = window_ns;
        self
    }

    /// Probability that a memory bank transiently NACKs a request as if the
    /// valid bit were clear, forcing the §3 bounce path.
    #[must_use]
    pub fn with_memory_nack(mut self, p: f64) -> Self {
        self.memory_nack = p;
        self
    }

    /// Per-dispatched-op probability of opening a `window_ns` blackout on a
    /// uniformly chosen controller, during which it neither snoops nor
    /// volunteers replies.
    #[must_use]
    pub fn with_blackout(mut self, p: f64, window_ns: u64) -> Self {
        self.blackout = p;
        self.blackout_ns = window_ns;
        self
    }

    /// The configured signal-drop probability.
    pub fn signal_drop(&self) -> f64 {
        self.signal_drop
    }

    /// The configured op-loss probability.
    pub fn op_loss(&self) -> f64 {
        self.op_loss
    }

    /// The configured op-duplication probability.
    pub fn op_duplicate(&self) -> f64 {
        self.op_duplicate
    }

    /// The configured MLT-delay probability and window.
    pub fn mlt_delay(&self) -> (f64, u64) {
        (self.mlt_delay, self.mlt_delay_ns)
    }

    /// The configured memory-NACK probability.
    pub fn memory_nack(&self) -> f64 {
        self.memory_nack
    }

    /// The configured blackout probability and window.
    pub fn blackout(&self) -> (f64, u64) {
        (self.blackout, self.blackout_ns)
    }

    /// True if any fault class has a nonzero rate.
    pub fn is_active(&self) -> bool {
        self.signal_drop > 0.0
            || self.op_loss > 0.0
            || self.op_duplicate > 0.0
            || self.mlt_delay > 0.0
            || self.memory_nack > 0.0
            || self.blackout > 0.0
    }

    /// Validates every knob, returning the first offending one.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        check_probability("signal_drop", self.signal_drop)?;
        check_probability("op_loss", self.op_loss)?;
        check_probability("op_duplicate", self.op_duplicate)?;
        check_probability("mlt_delay", self.mlt_delay)?;
        check_probability("memory_nack", self.memory_nack)?;
        check_probability("blackout", self.blackout)?;
        if self.mlt_delay > 0.0 && self.mlt_delay_ns == 0 {
            return Err(FaultConfigError::ZeroWindow { knob: "mlt_delay" });
        }
        if self.blackout > 0.0 && self.blackout_ns == 0 {
            return Err(FaultConfigError::ZeroWindow { knob: "blackout" });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

/// Exponential backoff for the bounce/retry path.
///
/// The Nth retry of a transaction is delayed by
/// `min(cap, base << (N - 1))` nanoseconds. A zero base disables backoff
/// (retries retransmit immediately, the seed behavior). Backoff applies only
/// to *bounce* retries (remove-failed, memory-invalid, fault recovery); the
/// race-poison retransmission path is protocol-internal and stays immediate.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    backoff_base_ns: u64,
    backoff_cap_ns: u64,
}

impl RetryPolicy {
    /// Enables exponential backoff: first retry waits `base_ns`, each
    /// further retry doubles the wait, capped at `cap_ns`.
    #[must_use]
    pub fn with_backoff(mut self, base_ns: u64, cap_ns: u64) -> Self {
        self.backoff_base_ns = base_ns;
        self.backoff_cap_ns = cap_ns;
        self
    }

    /// The configured base delay (0 = backoff disabled).
    pub fn backoff_base_ns(&self) -> u64 {
        self.backoff_base_ns
    }

    /// The configured cap.
    pub fn backoff_cap_ns(&self) -> u64 {
        self.backoff_cap_ns
    }

    /// The delay (ns) to apply before the `retries`-th retransmission.
    pub fn delay_ns(&self, retries: u32) -> u64 {
        if self.backoff_base_ns == 0 || retries == 0 {
            return 0;
        }
        let shift = (retries - 1).min(32);
        let raw = self.backoff_base_ns.checked_shl(shift).unwrap_or(u64::MAX);
        raw.min(self.backoff_cap_ns)
    }

    /// Validates the policy.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        if self.backoff_base_ns > 0 && self.backoff_cap_ns < self.backoff_base_ns {
            return Err(FaultConfigError::BadBackoff {
                base_ns: self.backoff_base_ns,
                cap_ns: self.backoff_cap_ns,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

/// What the watchdog does when a transaction blows its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogAction {
    /// Panic with a diagnostic (the message contains `"watchdog"`). For
    /// tests that must fail loudly on livelock.
    FailFast,
    /// Degrade gracefully: *escalate* the transaction so the injector stops
    /// faulting it, guaranteeing its next retry runs fault-free.
    Escalate,
}

/// Livelock/starvation detector, checked on every retry.
///
/// A budget of 0 disables that check. The default trips after 256 retries
/// and escalates — invisible in fault-free runs (no transaction retries
/// anywhere near that often) but a guarantee of forward progress under
/// adversarial plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    /// Retries allowed before the watchdog trips (0 = unchecked).
    retry_budget: u32,
    /// Transaction age (ns) allowed before the watchdog trips (0 = unchecked).
    age_budget_ns: u64,
    /// What to do on a trip.
    action: WatchdogAction,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog {
            retry_budget: 256,
            age_budget_ns: 0,
            action: WatchdogAction::Escalate,
        }
    }
}

impl Watchdog {
    /// Sets the retry budget (0 disables the retry check).
    #[must_use]
    pub fn with_retry_budget(mut self, retries: u32) -> Self {
        self.retry_budget = retries;
        self
    }

    /// Sets the age budget in nanoseconds (0 disables the age check).
    #[must_use]
    pub fn with_age_budget_ns(mut self, ns: u64) -> Self {
        self.age_budget_ns = ns;
        self
    }

    /// Sets the trip action.
    #[must_use]
    pub fn with_action(mut self, action: WatchdogAction) -> Self {
        self.action = action;
        self
    }

    /// The configured retry budget.
    pub fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// The configured age budget.
    pub fn age_budget_ns(&self) -> u64 {
        self.age_budget_ns
    }

    /// The configured trip action.
    pub fn action(&self) -> WatchdogAction {
        self.action
    }

    /// Whether a transaction with this retry count and age is over budget.
    pub fn tripped(&self, retries: u32, age_ns: u64) -> bool {
        (self.retry_budget > 0 && retries > self.retry_budget)
            || (self.age_budget_ns > 0 && age_ns > self.age_budget_ns)
    }
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

/// The runtime decision engine: one per machine, seeded from the machine
/// seed (salted), consulted at well-defined protocol points.
///
/// Every decision method takes the transaction it would harm and returns
/// "no fault" for escalated transactions — that is the watchdog's graceful-
/// degradation guarantee. Decision methods draw from the injector's RNG only
/// when the corresponding rate is nonzero, so an all-zero plan consumes no
/// randomness at all.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    retry: RetryPolicy,
    watchdog: Watchdog,
    rng: DeterministicRng,
    /// Per-node blackout expiry (index = node index).
    blackout_until: Vec<SimTime>,
    /// Stale MLT overlay: a node temporarily serves this membership view for
    /// the line instead of its column's table. Entries expire lazily.
    stale_view: FxHashMap<(usize, LineAddr), (bool, SimTime)>,
    /// Transactions escalated by the watchdog: immune to all further faults.
    escalated: TxnSet,
}

impl FaultInjector {
    pub(crate) fn new(
        plan: FaultPlan,
        retry: RetryPolicy,
        watchdog: Watchdog,
        n_nodes: usize,
        seed: u64,
    ) -> Self {
        FaultInjector {
            plan,
            retry,
            watchdog,
            rng: DeterministicRng::seed(seed ^ INJECTOR_SEED_SALT),
            blackout_until: vec![SimTime::ZERO; n_nodes],
            stale_view: FxHashMap::default(),
            escalated: TxnSet::default(),
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// Backoff delay before the `retries`-th retransmission.
    pub(crate) fn retry_delay_ns(&self, retries: u32) -> u64 {
        self.retry.delay_ns(retries)
    }

    fn immune(&self, txn: TxnId) -> bool {
        self.escalated.contains(&txn)
    }

    /// Should this poll's asserted modified signal be dropped?
    pub(crate) fn drop_signal(&mut self, txn: TxnId) -> bool {
        self.plan.signal_drop > 0.0 && !self.immune(txn) && self.rng.chance(self.plan.signal_drop)
    }

    /// Should this request op be lost on the bus?
    pub(crate) fn lose_op(&mut self, txn: TxnId) -> bool {
        self.plan.op_loss > 0.0 && !self.immune(txn) && self.rng.chance(self.plan.op_loss)
    }

    /// Should this request op be duplicated?
    pub(crate) fn duplicate_op(&mut self, txn: TxnId) -> bool {
        self.plan.op_duplicate > 0.0 && !self.immune(txn) && self.rng.chance(self.plan.op_duplicate)
    }

    /// Should the memory bank transiently NACK this request?
    pub(crate) fn nack_memory(&mut self, txn: TxnId) -> bool {
        self.plan.memory_nack > 0.0 && !self.immune(txn) && self.rng.chance(self.plan.memory_nack)
    }

    /// Rolls whether this MLT membership change leaves a controller's view
    /// stale.
    pub(crate) fn roll_mlt_delay(&mut self) -> bool {
        self.plan.mlt_delay > 0.0 && self.rng.chance(self.plan.mlt_delay)
    }

    /// Uniform draw in `0..bound` from the injector's stream (used to pick
    /// the stale controller's row).
    pub(crate) fn pick(&mut self, bound: u64) -> u64 {
        self.rng.below(bound)
    }

    /// Records that `node_idx` serves `stale_present` for `line` until the
    /// given instant.
    pub(crate) fn record_stale_view(
        &mut self,
        node_idx: usize,
        line: LineAddr,
        stale_present: bool,
        until: SimTime,
    ) {
        self.stale_view
            .insert((node_idx, line), (stale_present, until));
    }

    /// The node's (possibly stale) MLT view of `line`, or `None` if its
    /// column's table applies. Expired entries are dropped lazily.
    pub(crate) fn stale_presence(
        &mut self,
        txn: TxnId,
        node_idx: usize,
        line: &LineAddr,
        now: SimTime,
    ) -> Option<bool> {
        if self.stale_view.is_empty() || self.immune(txn) {
            return None;
        }
        match self.stale_view.get(&(node_idx, *line)) {
            Some(&(_, until)) if until <= now => {
                self.stale_view.remove(&(node_idx, *line));
                None
            }
            Some(&(present, _)) => Some(present),
            None => None,
        }
    }

    /// Rolls a blackout window open on a uniformly chosen node; returns the
    /// node index if one was opened.
    pub(crate) fn roll_blackout(&mut self, now: SimTime) -> Option<usize> {
        if self.plan.blackout == 0.0 || !self.rng.chance(self.plan.blackout) {
            return None;
        }
        let node = self.rng.below(self.blackout_until.len() as u64) as usize;
        let until = now + self.plan.blackout_ns;
        if until > self.blackout_until[node] {
            self.blackout_until[node] = until;
        }
        Some(node)
    }

    /// Whether the node is currently blacked out (never true for the nodes
    /// serving an escalated transaction).
    pub(crate) fn in_blackout(&self, node_idx: usize, txn: TxnId, now: SimTime) -> bool {
        self.plan.blackout > 0.0 && !self.immune(txn) && self.blackout_until[node_idx] > now
    }

    /// Marks the transaction fault-immune; returns false if it already was.
    pub(crate) fn escalate(&mut self, txn: TxnId) -> bool {
        self.escalated.insert(txn)
    }

    /// Whether the watchdog already escalated this transaction.
    pub(crate) fn is_escalated(&self, txn: TxnId) -> bool {
        self.escalated.contains(&txn)
    }

    /// Forgets a completed transaction's escalation.
    pub(crate) fn finish(&mut self, txn: TxnId) {
        self.escalated.remove(&txn);
    }

    /// Any transaction still escalated (must be empty at quiescence).
    pub(crate) fn first_escalated(&self) -> Option<TxnId> {
        // Lowest id, not hash order: leak diagnostics must name the same
        // transaction on every run.
        self.escalated.iter().min().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert_and_valid() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        plan.validate().unwrap();
    }

    #[test]
    fn validation_rejects_out_of_range_probability() {
        for bad in [1.0, 1.5, -0.1, f64::NAN] {
            let err = FaultPlan::default()
                .with_op_loss(bad)
                .validate()
                .unwrap_err();
            match err {
                FaultConfigError::BadProbability { knob, .. } => assert_eq!(knob, "op_loss"),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn validation_rejects_zero_windows() {
        let err = FaultPlan::default()
            .with_mlt_delay(0.1, 0)
            .validate()
            .unwrap_err();
        assert_eq!(err, FaultConfigError::ZeroWindow { knob: "mlt_delay" });
        let err = FaultPlan::default()
            .with_blackout(0.1, 0)
            .validate()
            .unwrap_err();
        assert_eq!(err, FaultConfigError::ZeroWindow { knob: "blackout" });
    }

    #[test]
    fn error_messages_are_actionable() {
        let msg = FaultConfigError::BadProbability {
            knob: "op_loss",
            value: 1.0,
        }
        .to_string();
        assert!(msg.contains("op_loss") && msg.contains("[0.0, 1.0)"));
        let msg = FaultConfigError::ZeroWindow { knob: "blackout" }.to_string();
        assert!(msg.contains("blackout") && msg.contains("_ns"));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default().with_backoff(100, 1_000);
        assert_eq!(p.delay_ns(0), 0);
        assert_eq!(p.delay_ns(1), 100);
        assert_eq!(p.delay_ns(2), 200);
        assert_eq!(p.delay_ns(3), 400);
        assert_eq!(p.delay_ns(4), 800);
        assert_eq!(p.delay_ns(5), 1_000);
        assert_eq!(p.delay_ns(60), 1_000); // shift saturates, cap holds
        p.validate().unwrap();
    }

    #[test]
    fn disabled_backoff_is_always_immediate() {
        let p = RetryPolicy::default();
        for r in [0, 1, 5, 100] {
            assert_eq!(p.delay_ns(r), 0);
        }
        p.validate().unwrap();
    }

    #[test]
    fn backoff_validation_rejects_cap_below_base() {
        let err = RetryPolicy::default()
            .with_backoff(500, 100)
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            FaultConfigError::BadBackoff {
                base_ns: 500,
                cap_ns: 100
            }
        );
    }

    #[test]
    fn watchdog_budgets_zero_means_unchecked() {
        let wd = Watchdog::default()
            .with_retry_budget(0)
            .with_age_budget_ns(0);
        assert!(!wd.tripped(u32::MAX, u64::MAX));
    }

    #[test]
    fn watchdog_trips_past_either_budget() {
        let wd = Watchdog::default()
            .with_retry_budget(4)
            .with_age_budget_ns(1_000);
        assert!(!wd.tripped(4, 1_000)); // budgets are inclusive
        assert!(wd.tripped(5, 0));
        assert!(wd.tripped(0, 1_001));
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let mk = |seed| {
            let plan = FaultPlan::default().with_op_loss(0.5);
            let mut inj =
                FaultInjector::new(plan, RetryPolicy::default(), Watchdog::default(), 4, seed);
            (0..64).map(|i| inj.lose_op(TxnId(i))).collect::<Vec<_>>()
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn escalated_transactions_are_immune() {
        let plan = FaultPlan::default()
            .with_op_loss(0.999)
            .with_signal_drop(0.999)
            .with_memory_nack(0.999)
            .with_blackout(0.999, 1_000);
        let mut inj = FaultInjector::new(plan, RetryPolicy::default(), Watchdog::default(), 4, 1);
        let t = TxnId(9);
        assert!(inj.escalate(t));
        assert!(!inj.escalate(t)); // second trip suppressed
        for _ in 0..32 {
            assert!(!inj.lose_op(t));
            assert!(!inj.drop_signal(t));
            assert!(!inj.nack_memory(t));
            assert!(!inj.duplicate_op(t));
        }
        inj.roll_blackout(SimTime::ZERO);
        for node in 0..4 {
            assert!(!inj.in_blackout(node, t, SimTime::ZERO));
        }
        assert_eq!(inj.first_escalated(), Some(t));
        inj.finish(t);
        assert_eq!(inj.first_escalated(), None);
    }

    #[test]
    fn stale_view_expires_lazily() {
        let plan = FaultPlan::default().with_mlt_delay(0.5, 100);
        let mut inj = FaultInjector::new(plan, RetryPolicy::default(), Watchdog::default(), 4, 1);
        let line = LineAddr::new(0x40);
        let t = TxnId(1);
        inj.record_stale_view(2, line, true, SimTime::from_nanos(100));
        assert_eq!(
            inj.stale_presence(t, 2, &line, SimTime::from_nanos(50)),
            Some(true)
        );
        assert_eq!(
            inj.stale_presence(t, 3, &line, SimTime::from_nanos(50)),
            None
        );
        // At/after expiry the column's table applies again.
        assert_eq!(
            inj.stale_presence(t, 2, &line, SimTime::from_nanos(100)),
            None
        );
        assert_eq!(
            inj.stale_presence(t, 2, &line, SimTime::from_nanos(150)),
            None
        );
    }

    #[test]
    fn blackout_windows_open_and_expire() {
        let plan = FaultPlan::default().with_blackout(0.999, 100);
        let mut inj = FaultInjector::new(plan, RetryPolicy::default(), Watchdog::default(), 4, 3);
        let t = TxnId(1);
        let opened = (0..32)
            .filter_map(|_| inj.roll_blackout(SimTime::ZERO))
            .collect::<Vec<_>>();
        assert!(!opened.is_empty());
        let node = opened[0];
        assert!(inj.in_blackout(node, t, SimTime::from_nanos(50)));
        assert!(!inj.in_blackout(node, t, SimTime::from_nanos(100)));
    }
}
