//! Engine conformance: the per-engine record the machine is built over
//! must give every engine the same external contract (requests complete, invariants
//! hold, traces are deterministic) while each engine follows its own
//! per-line state machine. Trace-driven chain tests pin the bus-op
//! sequences of the arena engines the way `trace_protocol.rs` pins the
//! Appendix-A chains.

use multicube::trace::{TracePoint, TraceSink};
use multicube::{
    CoherenceView, EngineKind, LineMode, Machine, MachineConfig, OpKind, Request, SyntheticSpec,
    Timing, Watchdog, WatchdogAction,
};
use multicube_mem::LineAddr;

fn grid4(engine: EngineKind) -> Machine {
    let config = MachineConfig::grid(4).unwrap().with_engine(engine);
    Machine::new(config, 31).unwrap()
}

/// Completed bus ops touching `line`, in completion order.
fn completed_ops(m: &Machine, line: LineAddr) -> Vec<OpKind> {
    m.trace_events()
        .into_iter()
        .filter(|e| e.point == TracePoint::OpComplete && e.line == line)
        .map(|e| e.kind.expect("operation events carry a kind"))
        .collect()
}

fn quiesce(m: &mut Machine) {
    m.advance().unwrap();
    m.run_to_quiescence();
}

// ---------------------------------------------------------------------
// Cross-engine contract
// ---------------------------------------------------------------------

/// Every engine completes the full synthetic workload and passes its own
/// quiescent invariant check.
#[test]
fn all_engines_run_the_synthetic_workload_coherently() {
    for engine in EngineKind::all() {
        let mut m = grid4(engine);
        let report = m.run_synthetic(&SyntheticSpec::default(), 25);
        assert_eq!(
            report.transactions_completed,
            25 * 16,
            "{engine}: all transactions complete"
        );
        assert!(
            report.efficiency > 0.0 && report.efficiency <= 1.0,
            "{engine}: efficiency in range"
        );
        m.check_coherence()
            .unwrap_or_else(|v| panic!("{engine}: coherence violated: {v}"));
    }
}

/// The single-writer invariant holds for every engine under write
/// contention on one line.
#[test]
fn single_writer_holds_under_contention_for_every_engine() {
    let line = LineAddr::new(7);
    for engine in EngineKind::all() {
        let mut m = grid4(engine);
        for i in 0..24u32 {
            let node = m.config().topology().node(i % 4, (i / 4) % 4);
            m.submit(node, Request::write(line)).unwrap();
            quiesce(&mut m);
            let writers = (0..16u32)
                .map(|n| m.config().topology().node(n / 4, n % 4))
                .filter(|&n| m.controller(n).mode_of(&line) == Some(LineMode::Modified))
                .count();
            assert!(writers <= 1, "{engine}: {writers} simultaneous writers");
            m.check_coherence()
                .unwrap_or_else(|v| panic!("{engine}: coherence violated: {v}"));
        }
    }
}

/// Seeded runs of the rival engines are reproducible: identical seeds
/// give identical reports, different seeds diverge.
#[test]
fn arena_engines_are_deterministic() {
    for engine in [EngineKind::Mesi, EngineKind::Dragon, EngineKind::WriteOnce] {
        let run = |seed: u64| {
            let config = MachineConfig::grid(4).unwrap().with_engine(engine);
            let mut m = Machine::new(config, seed).unwrap();
            let r = m.run_synthetic(&SyntheticSpec::default(), 30);
            (
                r.transactions_completed,
                r.elapsed,
                r.row_bus_ops + r.col_bus_ops,
                r.mean_latency_ns.to_bits(),
            )
        };
        assert_eq!(run(9), run(9), "{engine}: same seed must reproduce");
        assert_ne!(run(9), run(10), "{engine}: different seeds must diverge");
    }
}

// ---------------------------------------------------------------------
// Watchdog coverage across engines
// ---------------------------------------------------------------------

/// Timing that makes the local-access race deterministic: the snooping
/// cache is glacial (a local hit stays in flight for 50 us) while buses
/// and memory are fast, so a rival's bus transaction always snoops the
/// line away mid-access and forces a fault-free retry.
fn race_timing() -> Timing {
    Timing {
        word_ns: 5,
        addr_op_ns: 5,
        snoop_latency_ns: 50_000,
        memory_latency_ns: 20,
    }
}

/// Drives one fault-free contention race that must end in a retry under
/// `engine`: node `a` starts a local cache access, node `b`'s bus
/// transaction snoops the line away mid-access (Multicube, MESI and
/// write-once purge it, Dragon downgrades the exclusive-clean copy), and
/// `a`'s local completion restarts over the bus — recording the retry the
/// watchdog judges. Returns the machine and the completion count.
fn run_contended(engine: EngineKind, watchdog: Watchdog) -> (Machine, usize) {
    let config = MachineConfig::grid(4)
        .unwrap()
        .with_engine(engine)
        .with_timing(race_timing())
        .with_watchdog(watchdog);
    let mut m = Machine::new(config, 11).unwrap();
    let line = LineAddr::new(3);
    let a = m.config().topology().node(0, 0);
    let b = m.config().topology().node(1, 1);

    // Setup: `a` alone holds the line — Shared under Multicube and
    // write-once, exclusive-clean under MESI and Dragon.
    m.submit(a, Request::read(line)).unwrap();
    m.run_to_quiescence();

    // The race: `a`'s access is a local hit that waits out the slow
    // cache; `b`'s bus transaction lands long before it completes.
    let (read, write) = (Request::read(line), Request::write(line));
    let (a_req, b_req) = match engine {
        // `b`'s write invalidates `a`'s shared copy out from under the
        // local read.
        EngineKind::Multicube | EngineKind::WriteOnce => (read, write),
        // `b`'s read downgrades `a`'s E copy out from under the local
        // (would-be silent) write upgrade.
        EngineKind::Mesi | EngineKind::Dragon => (write, read),
    };
    m.submit(a, a_req).unwrap();
    m.submit(b, b_req).unwrap();
    let completions = m.run_to_quiescence().len();
    (m, completions)
}

/// Escalation under every engine: the contention retry trips a 1 ns age
/// budget, escalation completes both transactions, and the quiescent
/// machine is coherent with no leaked escalations.
#[test]
fn watchdog_escalate_trips_and_recovers_for_every_engine() {
    for engine in EngineKind::all() {
        let wd = Watchdog::default()
            .with_age_budget_ns(1)
            .with_action(WatchdogAction::Escalate);
        let (m, completions) = run_contended(engine, wd);
        assert_eq!(completions, 2, "{engine}: both contenders complete");
        assert!(
            m.metrics().watchdog_trips.get() > 0,
            "{engine}: the contention retry must trip the age watchdog"
        );
        m.check_coherence()
            .unwrap_or_else(|v| panic!("{engine}: coherence violated after escalation: {v}"));
    }
}

/// An ample watchdog stays silent on the very same race, for every
/// engine: one genuine retry is far below any sane budget.
#[test]
fn watchdog_stays_silent_on_ordinary_contention_for_every_engine() {
    for engine in EngineKind::all() {
        let (m, completions) = run_contended(engine, Watchdog::default());
        assert_eq!(completions, 2, "{engine}: both contenders complete");
        assert_eq!(
            m.metrics().watchdog_trips.get(),
            0,
            "{engine}: the default budget must not trip on one retry"
        );
        m.check_coherence().unwrap();
    }
}

#[test]
#[should_panic(expected = "watchdog")]
fn multicube_fail_fast_watchdog_panics_on_contention() {
    let wd = Watchdog::default()
        .with_age_budget_ns(1)
        .with_action(WatchdogAction::FailFast);
    run_contended(EngineKind::Multicube, wd);
}

#[test]
#[should_panic(expected = "watchdog")]
fn mesi_fail_fast_watchdog_panics_on_contention() {
    let wd = Watchdog::default()
        .with_age_budget_ns(1)
        .with_action(WatchdogAction::FailFast);
    run_contended(EngineKind::Mesi, wd);
}

#[test]
#[should_panic(expected = "watchdog")]
fn dragon_fail_fast_watchdog_panics_on_contention() {
    let wd = Watchdog::default()
        .with_age_budget_ns(1)
        .with_action(WatchdogAction::FailFast);
    run_contended(EngineKind::Dragon, wd);
}

/// Satellite pin: an active fault plan on an arena engine is a
/// configuration error surfaced at machine construction, not a silent
/// no-op (the arena engines have no fault handling).
#[test]
fn arena_engines_refuse_active_fault_plans_at_construction() {
    use multicube::{FaultConfigError, FaultPlan, MachineConfigError};
    for engine in [EngineKind::Mesi, EngineKind::Dragon, EngineKind::WriteOnce] {
        let config = MachineConfig::grid(4)
            .unwrap()
            .with_engine(engine)
            .with_fault_plan(FaultPlan::default().with_signal_drop(0.2));
        let err = Machine::new(config, 1).expect_err("construction must fail");
        assert_eq!(
            err,
            MachineConfigError::Fault(FaultConfigError::UnsupportedByEngine {
                engine: engine.name()
            }),
            "{engine}: active fault plan must be rejected"
        );
    }
}

// ---------------------------------------------------------------------
// MESI chains
// ---------------------------------------------------------------------

/// A read miss to a remotely-modified line is a single atomic bus
/// transaction: the owner supplies, downgrades to S, memory snarfs.
#[test]
fn mesi_remote_modified_read_is_one_bus_transaction() {
    let mut m = grid4(EngineKind::Mesi);
    let line = LineAddr::new(5);
    let owner = m.config().topology().node(3, 3);
    let reader = m.config().topology().node(0, 2);

    m.submit(owner, Request::write(line)).unwrap();
    quiesce(&mut m);
    assert_eq!(m.controller(owner).mode_of(&line), Some(LineMode::Modified));

    m.set_trace_sink(TraceSink::ring(1024));
    m.submit(reader, Request::read(line)).unwrap();
    quiesce(&mut m);

    assert_eq!(completed_ops(&m, line), vec![OpKind::BusRead]);
    assert_eq!(m.controller(owner).mode_of(&line), Some(LineMode::Shared));
    assert_eq!(m.controller(reader).mode_of(&line), Some(LineMode::Shared));
    m.check_coherence().expect("coherent");
}

/// A write hit on a shared copy upgrades in place with an address-only
/// `BusUpgrade`, invalidating the other sharers; a subsequent read by an
/// invalidated node misses and sees the new data (no stale read after
/// invalidate).
#[test]
fn mesi_write_hit_shared_upgrades_and_invalidates() {
    let mut m = grid4(EngineKind::Mesi);
    let line = LineAddr::new(9);
    let a = m.config().topology().node(0, 0);
    let b = m.config().topology().node(1, 1);

    // a fetches exclusive-clean, b's read makes both shared.
    m.submit(a, Request::read(line)).unwrap();
    quiesce(&mut m);
    assert_eq!(m.controller(a).mode_of(&line), Some(LineMode::Reserved));
    m.submit(b, Request::read(line)).unwrap();
    quiesce(&mut m);
    assert_eq!(m.controller(a).mode_of(&line), Some(LineMode::Shared));

    let invalidations_before = m.metrics().invalidations.get();
    m.set_trace_sink(TraceSink::ring(1024));
    m.submit(a, Request::write(line)).unwrap();
    quiesce(&mut m);

    assert_eq!(completed_ops(&m, line), vec![OpKind::BusUpgrade]);
    assert_eq!(m.controller(a).mode_of(&line), Some(LineMode::Modified));
    assert_eq!(m.controller(b).mode_of(&line), None, "b was invalidated");
    assert_eq!(m.metrics().invalidations.get(), invalidations_before + 1);

    // b reads again: a miss that must observe a's write.
    m.submit(b, Request::read(line)).unwrap();
    quiesce(&mut m);
    assert_eq!(
        m.controller(b).data_of(&line),
        m.controller(a).data_of(&line),
        "no stale read after invalidate"
    );
    m.check_coherence().expect("coherent");
}

/// A write to an exclusive-clean (E) copy upgrades to M silently — the
/// MESI advantage: zero bus traffic.
#[test]
fn mesi_exclusive_clean_write_is_silent() {
    let mut m = grid4(EngineKind::Mesi);
    let line = LineAddr::new(11);
    let a = m.config().topology().node(2, 0);

    m.submit(a, Request::read(line)).unwrap();
    quiesce(&mut m);
    assert_eq!(m.controller(a).mode_of(&line), Some(LineMode::Reserved));

    m.set_trace_sink(TraceSink::ring(1024));
    m.submit(a, Request::write(line)).unwrap();
    quiesce(&mut m);

    assert!(
        completed_ops(&m, line).is_empty(),
        "E→M must use no bus traffic"
    );
    assert_eq!(m.controller(a).mode_of(&line), Some(LineMode::Modified));
    m.check_coherence().expect("coherent");
}

// ---------------------------------------------------------------------
// Dragon chains
// ---------------------------------------------------------------------

/// A write hit on a shared copy broadcasts one `BusUpdate`; the other
/// copy is refreshed in place, never invalidated, and a subsequent local
/// read sees the new data (no stale read after update).
#[test]
fn dragon_write_to_shared_broadcasts_an_update() {
    let mut m = grid4(EngineKind::Dragon);
    let line = LineAddr::new(13);
    let a = m.config().topology().node(0, 1);
    let b = m.config().topology().node(2, 2);

    m.submit(a, Request::read(line)).unwrap();
    quiesce(&mut m);
    m.submit(b, Request::read(line)).unwrap();
    quiesce(&mut m);
    assert_eq!(m.controller(a).mode_of(&line), Some(LineMode::Shared));

    let updates_before = m.metrics().updates.get();
    m.set_trace_sink(TraceSink::ring(1024));
    m.submit(b, Request::write(line)).unwrap();
    quiesce(&mut m);

    assert_eq!(completed_ops(&m, line), vec![OpKind::BusUpdate]);
    assert_eq!(
        m.controller(a).mode_of(&line),
        Some(LineMode::Shared),
        "Dragon never invalidates"
    );
    assert_eq!(m.metrics().updates.get(), updates_before + 1);
    assert_eq!(
        m.controller(a).data_of(&line),
        m.controller(b).data_of(&line),
        "no stale read after update"
    );
    m.check_coherence().expect("coherent");
}

/// A write miss while other copies exist is the classic two-op Dragon
/// sequence: `BusRead` to fetch, then `BusUpdate` to broadcast the write.
#[test]
fn dragon_write_miss_with_sharers_chains_read_then_update() {
    let mut m = grid4(EngineKind::Dragon);
    let line = LineAddr::new(17);
    let a = m.config().topology().node(0, 0);
    let b = m.config().topology().node(1, 2);
    let writer = m.config().topology().node(3, 1);

    m.submit(a, Request::read(line)).unwrap();
    quiesce(&mut m);
    m.submit(b, Request::read(line)).unwrap();
    quiesce(&mut m);

    let updates_before = m.metrics().updates.get();
    m.set_trace_sink(TraceSink::ring(1024));
    m.submit(writer, Request::write(line)).unwrap();
    quiesce(&mut m);

    assert_eq!(
        completed_ops(&m, line),
        vec![OpKind::BusRead, OpKind::BusUpdate]
    );
    // Both prior sharers were refreshed in place.
    assert_eq!(m.metrics().updates.get(), updates_before + 2);
    for n in [a, b] {
        assert_eq!(
            m.controller(n).data_of(&line),
            m.controller(writer).data_of(&line),
            "update refreshed every copy"
        );
    }
    m.check_coherence().expect("coherent");
}

/// A read of a remotely-modified line leaves the dirty data in the
/// caches: the old owner becomes the shared-modified supplier and memory
/// stays stale until a write-back.
#[test]
fn dragon_read_of_modified_line_creates_a_shared_modified_supplier() {
    let mut m = grid4(EngineKind::Dragon);
    let line = LineAddr::new(21);
    let owner = m.config().topology().node(2, 3);
    let reader = m.config().topology().node(1, 0);

    m.submit(owner, Request::write(line)).unwrap();
    quiesce(&mut m);
    assert_eq!(m.controller(owner).mode_of(&line), Some(LineMode::Modified));

    m.set_trace_sink(TraceSink::ring(1024));
    m.submit(reader, Request::read(line)).unwrap();
    quiesce(&mut m);

    assert_eq!(completed_ops(&m, line), vec![OpKind::BusRead]);
    assert_eq!(m.controller(owner).mode_of(&line), Some(LineMode::Shared));
    assert_eq!(m.controller(reader).mode_of(&line), Some(LineMode::Shared));
    m.check_coherence().expect("coherent");

    // An explicit write-back by the Sm holder cleans the line for memory.
    m.submit(owner, Request::writeback(line)).unwrap();
    quiesce(&mut m);
    m.check_coherence().expect("coherent after writeback");
}

// ---------------------------------------------------------------------
// Write-once chains
// ---------------------------------------------------------------------

/// One line through every write-once state. A lone read miss installs
/// Valid (`Shared`), never Reserved. The first write to a shared copy is
/// one `BusWriteThrough`: it purges the other copies, writes the word
/// through so memory stays valid with the new version, and leaves the
/// writer Reserved. The second write is bus-free and ends Dirty
/// (`Modified`) with memory invalid. Reads hit locally in all three valid
/// states, and a dirty holder supplies a read miss in one bus transaction
/// and drops to Valid while memory takes the block.
#[test]
fn writeonce_line_walks_valid_reserved_dirty_and_back() {
    let mut m = grid4(EngineKind::WriteOnce);
    let line = LineAddr::new(23);
    let a = m.config().topology().node(0, 3);
    let b = m.config().topology().node(2, 1);
    let (read, write) = (Request::read(line), Request::write(line));
    m.set_trace_sink(TraceSink::ring(1024));

    m.submit(a, read).unwrap();
    quiesce(&mut m);
    assert_eq!(m.controller(a).mode_of(&line), Some(LineMode::Shared));
    for node in [b, a] {
        m.submit(node, read).unwrap();
        quiesce(&mut m);
    }
    assert_eq!(completed_ops(&m, line), [OpKind::BusRead, OpKind::BusRead]);

    let invalidations_before = m.metrics().invalidations.get();
    m.submit(a, write).unwrap();
    quiesce(&mut m);
    assert_eq!(completed_ops(&m, line)[2..], [OpKind::BusWriteThrough]);
    assert_eq!(m.controller(a).mode_of(&line), Some(LineMode::Reserved));
    assert_eq!(m.controller(b).mode_of(&line), None, "b was invalidated");
    assert_eq!(m.metrics().invalidations.get(), invalidations_before + 1);
    assert!(m.memory_valid(line));
    assert_eq!(m.memory_data(line), m.committed_version(line));
    m.check_coherence().expect("coherent");

    // A read, the second write and another read are all bus-free; the
    // write leaves memory stale.
    for req in [read, write, read] {
        m.submit(a, req).unwrap();
        quiesce(&mut m);
    }
    assert_eq!(completed_ops(&m, line).len(), 3);
    assert_eq!(m.controller(a).mode_of(&line), Some(LineMode::Modified));
    assert!(!m.memory_valid(line));

    m.submit(b, read).unwrap();
    quiesce(&mut m);
    assert_eq!(completed_ops(&m, line)[3..], [OpKind::BusRead]);
    assert_eq!(m.controller(a).mode_of(&line), Some(LineMode::Shared));
    assert_eq!(m.controller(b).mode_of(&line), Some(LineMode::Shared));
    assert!(m.memory_valid(line));
    assert_eq!(m.memory_data(line), m.committed_version(line));
    m.check_coherence().expect("coherent");
}
