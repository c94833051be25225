//! Trace-driven protocol tests: the structured trace layer must expose the
//! exact Appendix-A operation chains, and the disabled sink must stay
//! silent.

use multicube::trace::{TracePoint, TraceSink};
use multicube::{FaultPlan, Machine, MachineConfig, OpKind, Request};
use multicube_mem::LineAddr;

fn grid4() -> Machine {
    Machine::new(MachineConfig::grid(4).unwrap(), 31).unwrap()
}

/// A read miss to a line held modified in a remote column follows the
/// paper's four-operation chain, in order:
/// `READ(ROW,REQ) → READ(COL,REQ,REMOVE) → READ(COL,REPLY,UPD) →
/// READ(ROW,REPLY,UPD)`.
#[test]
fn remote_modified_read_follows_the_appendix_a_chain() {
    let mut m = grid4();
    let line = LineAddr::new(1 + 4); // home column 1
    let owner = m.config().topology().node(3, 3);
    let reader = m.config().topology().node(0, 2);

    // Stage: the owner takes the line modified, quietly.
    m.submit(owner, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();

    // Trace only the read under test.
    m.set_trace_sink(TraceSink::ring(1024));
    m.submit(reader, Request::read(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();

    let completed: Vec<OpKind> = m
        .trace_events()
        .into_iter()
        .filter(|e| e.point == TracePoint::OpComplete && e.line == line)
        .map(|e| e.kind.expect("operation events carry a kind"))
        .collect();
    assert_eq!(
        completed,
        vec![
            OpKind::ReadRowRequest,
            OpKind::ReadColRequestRemove,
            OpKind::ReadColReplyUpdate,
            OpKind::ReadRowReplyUpdate,
            // The UPD legs leave memory stale until the home column's
            // bank absorbs the data: one trailing memory-update op.
            OpKind::WritebackColUpdateMemory,
        ],
        "read of a remotely-modified line must follow the Appendix-A chain"
    );

    // Every completion was preceded by its own start on the same bus.
    let events = m.trace_events();
    for done in events
        .iter()
        .filter(|e| e.point == TracePoint::OpComplete && e.line == line)
    {
        assert!(
            events.iter().any(|s| s.point == TracePoint::OpStart
                && s.kind == done.kind
                && s.bus == done.bus
                && s.at <= done.at),
            "no op-start observed for {:?}",
            done.kind
        );
    }

    // The MLT bookkeeping of the REMOVE leg is visible too.
    assert!(
        events
            .iter()
            .any(|e| e.point == TracePoint::MltRemove && e.line == line),
        "the column MLT must drop the line"
    );
}

/// The default sink records nothing: no events accumulate anywhere.
#[test]
fn disabled_sink_emits_nothing() {
    let mut m = grid4();
    assert!(!m.trace_sink().is_enabled());
    let line = LineAddr::new(9);
    let writer = m.config().topology().node(1, 1);
    let reader = m.config().topology().node(2, 2);
    m.submit(writer, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    m.submit(reader, Request::read(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    assert!(m.trace_events().is_empty());
    assert!(m.trace_sink().is_empty());
}

/// The ring buffer is bounded: a long run cannot grow it past capacity.
#[test]
fn ring_sink_stays_bounded_under_load() {
    let mut m = grid4();
    m.set_trace_sink(TraceSink::ring(16));
    for i in 0..8u64 {
        let node = m.config().topology().node((i % 4) as u32, 0);
        m.submit(node, Request::write(LineAddr::new(100 + i)))
            .unwrap();
        m.advance().unwrap();
        m.run_to_quiescence();
    }
    let events = m.trace_events();
    assert_eq!(events.len(), 16, "ring must cap at its capacity");
    // Newest events survive: timestamps are non-decreasing and end late.
    assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
}

/// Retries surface as structured events: a dropped modified signal forces
/// the read to bounce off invalid memory and retransmit.
#[test]
fn dropped_signals_surface_as_retry_events() {
    let config = MachineConfig::grid(4)
        .unwrap()
        .with_fault_plan(FaultPlan::default().with_signal_drop(0.9));
    let mut m = Machine::new(config, 7).unwrap();
    let line = LineAddr::new(1 + 4);
    let owner = m.config().topology().node(3, 3);
    let reader = m.config().topology().node(0, 2);
    m.submit(owner, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();

    m.set_trace_sink(TraceSink::ring(4096));
    m.submit(reader, Request::read(line)).unwrap();
    // With p=0.9 the signal is dropped (deterministically, for this seed)
    // before a poll finally succeeds and the read completes.
    m.advance().unwrap();
    let events = m.trace_events();
    assert!(
        events.iter().any(|e| e.point == TracePoint::SignalDrop),
        "signal drops must be traced"
    );
    assert!(
        events.iter().any(|e| e.point == TracePoint::Retry),
        "memory bounces must surface as retry events"
    );
}
