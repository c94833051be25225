//! Structured bus-operation tracing.
//!
//! Every bus operation and protocol decision point can be recorded as a
//! [`TraceEvent`] and delivered to a [`TraceSink`] chosen once at
//! [`crate::Machine::new`]. The default sink is [`TraceSink::Disabled`],
//! which costs one enum-discriminant test per potential event and never
//! allocates. Tests use the bounded [`TraceSink::ring`] buffer, and
//! [`TraceSink::writer`] streams one JSON object per event (JSONL) for
//! offline analysis; setting the `MULTICUBE_TRACE` environment variable
//! when the machine is constructed selects that writer on standard error.
//!
//! # Example
//!
//! ```
//! use multicube::{Machine, MachineConfig, Request};
//! use multicube::trace::{TracePoint, TraceSink};
//! use multicube_topology::NodeId;
//!
//! let mut m = Machine::new(MachineConfig::grid(2).unwrap(), 1).unwrap();
//! m.set_trace_sink(TraceSink::ring(256));
//! m.submit(NodeId::new(0), Request::read(multicube_mem::LineAddr::new(9))).unwrap();
//! m.advance();
//! let completed: Vec<_> = m
//!     .trace_events()
//!     .into_iter()
//!     .filter(|e| e.point == TracePoint::OpComplete)
//!     .collect();
//! assert!(!completed.is_empty());
//! ```

use std::collections::VecDeque;
use std::io::Write;

use multicube_mem::{LineAddr, LineVersion};
use multicube_sim::SimTime;
use multicube_topology::{BusId, NodeId};

use crate::proto::{OpKind, Piece, TxnId};

/// Where in the protocol a [`TraceEvent`] was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TracePoint {
    /// A bus operation started occupying its bus.
    OpStart,
    /// A bus operation completed (all nodes snoop and act at this instant).
    OpComplete,
    /// A row-request retransmission was scheduled (lost race, dropped
    /// signal, or memory bounce).
    Retry,
    /// An outstanding READ was poisoned by a purge sweeping past its line.
    Poison,
    /// The line was inserted into a column's modified line table.
    MltInsert,
    /// The line was removed from a column's modified line table.
    MltRemove,
    /// A modified signal was dropped by failure injection.
    SignalDrop,
    /// A request op was lost on its bus by failure injection (no controller
    /// acted; the originator retries).
    FaultLost,
    /// A spurious duplicate of a request was consumed without effect.
    FaultDuplicate,
    /// A memory bank transiently NACKed a request, forcing a bounce.
    FaultNack,
    /// A controller blackout window opened (the originator field names the
    /// blacked-out node).
    FaultBlackout,
    /// An MLT membership change left one controller's view transiently
    /// stale.
    MltDelay,
    /// The livelock watchdog tripped on a transaction over its retry/age
    /// budget (escalation mode only; fail-fast panics instead).
    WatchdogTrip,
}

impl TracePoint {
    /// Stable lowercase name, used by the JSONL writer.
    pub fn name(self) -> &'static str {
        match self {
            TracePoint::OpStart => "op-start",
            TracePoint::OpComplete => "op-complete",
            TracePoint::Retry => "retry",
            TracePoint::Poison => "poison",
            TracePoint::MltInsert => "mlt-insert",
            TracePoint::MltRemove => "mlt-remove",
            TracePoint::SignalDrop => "signal-drop",
            TracePoint::FaultLost => "fault-lost",
            TracePoint::FaultDuplicate => "fault-duplicate",
            TracePoint::FaultNack => "fault-nack",
            TracePoint::FaultBlackout => "fault-blackout",
            TracePoint::MltDelay => "mlt-delay",
            TracePoint::WatchdogTrip => "watchdog-trip",
        }
    }
}

/// One structured trace record.
///
/// Operation events carry the full bus-operation identity; decision-point
/// events (retry, poison, MLT, signal drop) fill in what is known at that
/// point and leave the rest `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// The protocol point that produced the event.
    pub point: TracePoint,
    /// The bus concerned, if any.
    pub bus: Option<BusId>,
    /// The operation kind, for operation events.
    pub kind: Option<OpKind>,
    /// The coherency line concerned.
    pub line: LineAddr,
    /// The originating node, if known.
    pub originator: Option<NodeId>,
    /// The transaction, if known.
    pub txn: Option<TxnId>,
    /// Piece index for split data transfers.
    pub piece: Option<Piece>,
    /// The data version carried, for data-bearing operations.
    pub data: Option<LineVersion>,
}

/// Destination for trace events, chosen once per machine.
#[derive(Default)]
pub enum TraceSink {
    /// Record nothing (the default). Costs one discriminant test per
    /// potential event; no [`TraceEvent`] is even constructed.
    #[default]
    Disabled,
    /// A bounded in-memory buffer keeping the most recent events.
    RingBuffer {
        /// Most recent events, oldest first.
        buf: VecDeque<TraceEvent>,
        /// Maximum number of retained events.
        capacity: usize,
    },
    /// JSONL records streamed to a writer.
    Writer(Box<dyn Write + Send>),
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSink::Disabled => write!(f, "TraceSink::Disabled"),
            TraceSink::RingBuffer { buf, capacity } => f
                .debug_struct("TraceSink::RingBuffer")
                .field("len", &buf.len())
                .field("capacity", capacity)
                .finish(),
            TraceSink::Writer(_) => write!(f, "TraceSink::Writer"),
        }
    }
}

impl TraceSink {
    /// The sink selected by the environment: a [`TraceSink::writer`] on
    /// standard error when `MULTICUBE_TRACE` is set,
    /// [`TraceSink::Disabled`] otherwise.
    ///
    /// Consulted exactly once, at [`crate::Machine::new`] — never in the
    /// per-operation dispatch path.
    pub fn from_env() -> Self {
        if std::env::var_os("MULTICUBE_TRACE").is_some() {
            TraceSink::writer(Box::new(std::io::stderr()))
        } else {
            TraceSink::Disabled
        }
    }

    /// A bounded ring buffer keeping the most recent `capacity` events.
    pub fn ring(capacity: usize) -> Self {
        TraceSink::RingBuffer {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
        }
    }

    /// A sink writing one JSON object per event to `out`.
    pub fn writer(out: Box<dyn Write + Send>) -> Self {
        TraceSink::Writer(out)
    }

    /// Whether events should be constructed at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        !matches!(self, TraceSink::Disabled)
    }

    /// Delivers one event to the sink.
    pub fn record(&mut self, ev: TraceEvent) {
        match self {
            TraceSink::Disabled => {}
            TraceSink::RingBuffer { buf, capacity } => {
                if buf.len() == *capacity {
                    buf.pop_front();
                }
                buf.push_back(ev);
            }
            TraceSink::Writer(out) => {
                let _ = writeln!(out, "{}", render_jsonl(&ev));
            }
        }
    }

    /// The buffered events, oldest first (empty for non-buffering sinks).
    pub fn events(&self) -> Vec<TraceEvent> {
        match self {
            TraceSink::RingBuffer { buf, .. } => buf.iter().copied().collect(),
            _ => Vec::new(),
        }
    }

    /// Number of buffered events (zero for non-buffering sinks).
    pub fn len(&self) -> usize {
        match self {
            TraceSink::RingBuffer { buf, .. } => buf.len(),
            _ => 0,
        }
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn json_str_or_null<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map(|x| format!("\"{x}\""))
        .unwrap_or_else(|| "null".to_string())
}

fn render_jsonl(ev: &TraceEvent) -> String {
    format!(
        concat!(
            "{{\"at\":{},\"point\":\"{}\",\"bus\":{},\"kind\":{},",
            "\"line\":{},\"originator\":{},\"txn\":{},\"piece\":{},\"data\":{}}}"
        ),
        ev.at.as_nanos(),
        ev.point.name(),
        json_str_or_null(ev.bus),
        json_str_or_null(ev.kind.map(|k| k.name())),
        ev.line.index(),
        json_str_or_null(ev.originator),
        ev.txn
            .map(|t| t.0.to_string())
            .unwrap_or_else(|| "null".into()),
        ev.piece
            .map(|p| format!("\"{}/{}\"", p.index, p.of))
            .unwrap_or_else(|| "null".into()),
        ev.data
            .map(|d| d.stamp().to_string())
            .unwrap_or_else(|| "null".into()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(at: u64, point: TracePoint) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(at),
            point,
            bus: Some(BusId::row(2)),
            kind: Some(OpKind::ReadRowRequest),
            line: LineAddr::new(0x40),
            originator: Some(NodeId::new(5)),
            txn: Some(TxnId(9)),
            piece: None,
            data: None,
        }
    }

    #[test]
    fn disabled_sink_buffers_nothing() {
        let mut sink = TraceSink::Disabled;
        assert!(!sink.is_enabled());
        sink.record(event(1, TracePoint::OpComplete));
        assert!(sink.is_empty());
        assert!(sink.events().is_empty());
    }

    #[test]
    fn ring_buffer_is_bounded_and_drops_oldest() {
        let mut sink = TraceSink::ring(3);
        assert!(sink.is_enabled());
        for t in 0..5 {
            sink.record(event(t, TracePoint::OpStart));
        }
        let evs = sink.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].at, SimTime::from_nanos(2));
        assert_eq!(evs[2].at, SimTime::from_nanos(4));
    }

    #[test]
    fn jsonl_record_is_well_formed() {
        let line = render_jsonl(&event(7, TracePoint::OpComplete));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"at\":7"));
        assert!(line.contains("\"point\":\"op-complete\""));
        assert!(line.contains("\"bus\":\"row2\""));
        assert!(line.contains("\"kind\":\"READ(ROW,REQ)\""));
        assert!(line.contains("\"line\":64"));
        assert!(line.contains("\"originator\":\"P5\""));
        assert!(line.contains("\"txn\":9"));
        assert!(line.contains("\"piece\":null"));
        assert!(line.contains("\"data\":null"));
    }
}
