//! The three-dimensional Multicube as a conservatively parallel
//! simulation, one shard per plane.
//!
//! Section 6 of the paper generalizes the Wisconsin Multicube to `n^k`
//! processors; the `k = 3` instance is a cube of `n` *planes*, each an
//! `n x n` grid identical to the 2-D machine, with a third set of "depth"
//! buses connecting each processor to its images in every other plane.
//! This module simulates that machine at scale by giving every plane its
//! own full [`Machine`] — the complete Appendix A protocol, its own event
//! wheel, its own deterministic RNG stream — and running the planes as
//! the shards of a conservative parallel DES ([`multicube_sim::pdes`]).
//! Only the depth buses cross shards, so the lookahead is one depth-bus
//! hop ([`HOP_NS`]).
//!
//! Cross-plane traffic models the §4 uncached-remote access pattern as a
//! four-hop pipeline through per-column [`ColumnCell`]s: a requester
//! column issues over its depth bus to the home plane ([`HOP_NS`]), the
//! request transits the home plane's row bus to the line's home column
//! ([`GRID_HOP_NS`]) unless it already landed there, the column's FIFO
//! memory port services it at [`SERVICE_NS`], and the reply retraces the
//! path. TEST-AND-SET / CLEAR operate on the home column's memory word
//! (lock bit plus a release epoch in the upper bits), READ returns it
//! uncached — all depth-traffic state lives in the column cells, never in
//! the plane's machine.
//!
//! Determinism: every machine seed and per-column traffic stream derives
//! from the cube seed by [`split_seed`], the scheduler delivers
//! cross-shard messages in `(time, source shard, sequence)` order, and
//! every cell keys same-instant events on the *operation's identity*
//! `(origin plane, origin column, op sequence)` — never on insertion
//! order — so the event order cannot depend on which round delivered a
//! message. A cube run is therefore byte-identical — per-plane machine
//! traces included — at every worker count, which
//! `crates/core/tests/pdes_determinism.rs` pins.

use std::io::Write;
use std::sync::{Arc, Mutex};

use multicube_sim::pdes::{self, Arrival, Outbox, PdesConfig, PdesStats, ShardModel};
use multicube_sim::{split_seed, stream_id, DeterministicRng, FxHashMap, SimDuration, SimTime};

use crate::config::{EngineKind, MachineConfig};
use crate::driver::SyntheticSpec;
use crate::machine::Machine;
use crate::metrics::RunReport;
use crate::trace::TraceSink;

/// One depth-bus hop: the minimum cross-plane latency, and therefore the
/// conservative lookahead.
pub const HOP_NS: u64 = 10;

/// One intra-plane grid-bus hop: a request's transit to its home column,
/// or a reply's transit back.
pub const GRID_HOP_NS: u64 = 10;

/// Fixed service time of a column's memory port (one uncached memory-side
/// access, no cache fill).
pub const SERVICE_NS: u64 = 120;

/// A remote (cross-plane) operation kind — the §4 uncached accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteKind {
    /// Uncached read of the home column's memory word.
    Read,
    /// Test-and-set on the word's lock bit.
    TestAndSet,
    /// Clear (release) of the lock bit, bumping the release epoch.
    Clear,
}

impl RemoteKind {
    fn code(self) -> u64 {
        match self {
            RemoteKind::Read => 0,
            RemoteKind::TestAndSet => 1,
            RemoteKind::Clear => 2,
        }
    }
}

/// A message on a depth or grid bus. Every variant carries the issuing
/// operation's full identity `(origin_plane, origin_col, op_seq)`: the
/// receiving cell keys the induced event on it, which is what makes the
/// event order content-addressed.
#[derive(Debug, Clone, Copy)]
pub enum DepthMsg {
    /// A remote op crossing the depth bus to its home plane (lands at the
    /// origin's column image there).
    Request {
        origin_plane: u32,
        origin_col: u32,
        op_seq: u64,
        line: u64,
        kind: RemoteKind,
    },
    /// The op transiting the home plane's row bus to the line's home
    /// column.
    RequestTransit {
        origin_plane: u32,
        origin_col: u32,
        op_seq: u64,
        line: u64,
        kind: RemoteKind,
    },
    /// The reply transiting the home plane's row bus back to the origin
    /// column's image.
    ReplyTransit {
        origin_plane: u32,
        origin_col: u32,
        op_seq: u64,
        value: u64,
        success: bool,
    },
    /// The reply crossing the depth bus back to the origin.
    Reply {
        origin_col: u32,
        op_seq: u64,
        value: u64,
        success: bool,
    },
}

/// Internal events of one column cell, ordered by `(time, class, op key)`
/// — the class keeps arrivals ahead of issues at equal instants, and the
/// op key (the operation's identity) fixes same-instant order by content.
#[derive(Debug, Clone, Copy)]
enum CellEv {
    /// The open-loop generator fires: issue one remote op.
    Issue,
    /// A request landed off the depth bus at the origin's column image on
    /// the home plane.
    Entry {
        origin_plane: u32,
        op_seq: u64,
        line: u64,
        kind: RemoteKind,
    },
    /// A forwarded request reached the line's home column.
    PortArrival {
        origin_plane: u32,
        origin_col: u32,
        op_seq: u64,
        line: u64,
        kind: RemoteKind,
    },
    /// The memory port finishes servicing (perform the op, start the
    /// reply on its way).
    ServiceDone {
        origin_plane: u32,
        origin_col: u32,
        op_seq: u64,
        line: u64,
        kind: RemoteKind,
    },
    /// A reply reached the origin column's image on the home plane,
    /// about to cross the depth bus.
    Exit {
        origin_plane: u32,
        op_seq: u64,
        value: u64,
        success: bool,
    },
    /// A reply arrived back at the requesting cell.
    ReplyArrival {
        op_seq: u64,
        value: u64,
        success: bool,
    },
}

/// Message-driven events; at equal instants these run before issues.
const CLASS_MSG: u8 = 0;
/// Generator firings.
const CLASS_ISSUE: u8 = 1;

/// The content key of an operation: its issuing cell and sequence number.
/// `side <= 128` and `op_seq` stays far below `2^48`, so the packing is
/// collision-free.
fn op_key(origin_plane: u32, origin_col: u32, op_seq: u64) -> u64 {
    ((origin_plane as u64) << 56) | ((origin_col as u64) << 48) | op_seq
}

/// Aggregate depth-traffic statistics (all integers, so the quick-mode
/// artifacts that CI diffs stay exactly reproducible).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepthStats {
    /// Remote ops issued.
    pub issued: u64,
    /// Requests serviced for others.
    pub serviced: u64,
    /// Replies received.
    pub replies: u64,
    /// TEST-AND-SET attempts that won the word.
    pub tas_won: u64,
    /// Total round-trip latency over all replies (ns).
    pub latency_total_ns: u64,
    /// Worst round-trip latency (ns).
    pub latency_max_ns: u64,
}

impl DepthStats {
    fn merge(&mut self, other: &DepthStats) {
        self.issued += other.issued;
        self.serviced += other.serviced;
        self.replies += other.replies;
        self.tas_won += other.tas_won;
        self.latency_total_ns += other.latency_total_ns;
        self.latency_max_ns = self.latency_max_ns.max(other.latency_max_ns);
    }
}

/// A shared append-only byte sink for per-plane machine traces.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One column-bus domain of one plane: the open-loop remote-traffic
/// generator for that column's processors, the column's memory module
/// (the words remote ops target), and its FIFO memory port. All
/// depth-traffic state lives here — never in the plane's [`Machine`].
struct ColumnCell {
    plane: usize,
    col: usize,
    side: usize,
    rng: DeterministicRng,
    pending: std::collections::BTreeMap<(SimTime, u8, u64), CellEv>,
    /// Remote ops the generator has yet to issue.
    issues_left: u64,
    /// Next op sequence number this cell issues.
    op_seq: u64,
    remote_gap_ns: f64,
    remote_lines: u64,
    /// When the FIFO memory port next frees up.
    port_free_at: SimTime,
    /// This column's memory words: bit 0 is the TAS lock, the bits above
    /// count CLEAR releases. Only lines with `line % side == col` live
    /// here.
    words: FxHashMap<u64, u64>,
    /// In-flight remote ops this cell issued: op_seq -> issue time.
    outstanding: FxHashMap<u64, SimTime>,
    stats: DepthStats,
    /// Order-sensitive digest of every event this cell observed.
    digest: u64,
}

impl ColumnCell {
    fn schedule(&mut self, at: SimTime, class: u8, key: u64, ev: CellEv) {
        let clobbered = self.pending.insert((at, class, key), ev);
        assert!(
            clobbered.is_none(),
            "cell ({}, {}): event key collision at {at}",
            self.plane,
            self.col
        );
    }

    fn fold(&mut self, at: SimTime, vals: [u64; 3]) {
        for v in [at.as_nanos(), vals[0], vals[1], vals[2]] {
            self.digest = self
                .digest
                .rotate_left(13)
                .wrapping_mul(0x100000001B3)
                .wrapping_add(v);
        }
    }

    /// The line's home column on any plane.
    fn home_col(&self, line: u64) -> usize {
        (line % self.side as u64) as usize
    }

    fn enqueue_port(
        &mut self,
        at: SimTime,
        origin_plane: u32,
        origin_col: u32,
        op_seq: u64,
        line: u64,
        kind: RemoteKind,
    ) {
        let start = self.port_free_at.max(at);
        let done = start + SimDuration::from_nanos(SERVICE_NS);
        self.port_free_at = done;
        self.schedule(
            done,
            CLASS_MSG,
            op_key(origin_plane, origin_col, op_seq),
            CellEv::ServiceDone {
                origin_plane,
                origin_col,
                op_seq,
                line,
                kind,
            },
        );
    }

    /// Handles one cell event at instant `at`. Emitted messages are
    /// addressed to a plane (the message itself names the column); the
    /// owning shard decides whether each is a local schedule or a
    /// cross-plane send.
    fn handle(&mut self, at: SimTime, ev: CellEv, emit: &mut impl FnMut(usize, SimTime, DepthMsg)) {
        match ev {
            CellEv::Issue => {
                let home_plane = self
                    .rng
                    .below_excluding(self.side as u64, self.plane as u64)
                    as usize;
                let line = self.rng.below(self.remote_lines);
                let kind = match self.rng.below(10) {
                    0..=5 => RemoteKind::Read,
                    6..=8 => RemoteKind::TestAndSet,
                    _ => RemoteKind::Clear,
                };
                let op_seq = self.op_seq;
                self.op_seq += 1;
                self.stats.issued += 1;
                self.outstanding.insert(op_seq, at);
                self.fold(at, [0, op_seq, (home_plane as u64) << 32 | line]);
                emit(
                    home_plane,
                    at + SimDuration::from_nanos(HOP_NS),
                    DepthMsg::Request {
                        origin_plane: self.plane as u32,
                        origin_col: self.col as u32,
                        op_seq,
                        line,
                        kind,
                    },
                );
                self.issues_left -= 1;
                if self.issues_left > 0 {
                    let gap = 1 + self.rng.exponential(self.remote_gap_ns).max(0.0) as u64;
                    self.schedule(
                        at + SimDuration::from_nanos(gap),
                        CLASS_ISSUE,
                        op_key(self.plane as u32, self.col as u32, self.op_seq),
                        CellEv::Issue,
                    );
                }
            }
            CellEv::Entry {
                origin_plane,
                op_seq,
                line,
                kind,
            } => {
                self.fold(at, [1, (origin_plane as u64) << 32 | op_seq, line]);
                let home = self.home_col(line);
                if home == self.col {
                    // Landed directly on the home column: straight to the
                    // memory port.
                    self.enqueue_port(at, origin_plane, self.col as u32, op_seq, line, kind);
                } else {
                    emit(
                        self.plane,
                        at + SimDuration::from_nanos(GRID_HOP_NS),
                        DepthMsg::RequestTransit {
                            origin_plane,
                            origin_col: self.col as u32,
                            op_seq,
                            line,
                            kind,
                        },
                    );
                }
            }
            CellEv::PortArrival {
                origin_plane,
                origin_col,
                op_seq,
                line,
                kind,
            } => {
                self.fold(at, [5, (origin_plane as u64) << 32 | op_seq, line]);
                self.enqueue_port(at, origin_plane, origin_col, op_seq, line, kind);
            }
            CellEv::ServiceDone {
                origin_plane,
                origin_col,
                op_seq,
                line,
                kind,
            } => {
                let (value, success) = match kind {
                    RemoteKind::Read => (self.words.get(&line).copied().unwrap_or(0), true),
                    RemoteKind::TestAndSet => {
                        let word = self.words.entry(line).or_insert(0);
                        let old = *word;
                        if old & 1 == 0 {
                            *word |= 1;
                        }
                        (old, old & 1 == 0)
                    }
                    RemoteKind::Clear => {
                        let word = self.words.entry(line).or_insert(0);
                        let old = *word;
                        // Drop the lock bit, bump the release epoch: later
                        // READs observe the history of releases.
                        *word = (old & !1).wrapping_add(2);
                        (old, true)
                    }
                };
                self.stats.serviced += 1;
                self.fold(at, [2, kind.code() << 32 | op_seq, value]);
                if origin_col as usize == self.col {
                    emit(
                        origin_plane as usize,
                        at + SimDuration::from_nanos(HOP_NS),
                        DepthMsg::Reply {
                            origin_col,
                            op_seq,
                            value,
                            success,
                        },
                    );
                } else {
                    emit(
                        self.plane,
                        at + SimDuration::from_nanos(GRID_HOP_NS),
                        DepthMsg::ReplyTransit {
                            origin_plane,
                            origin_col,
                            op_seq,
                            value,
                            success,
                        },
                    );
                }
            }
            CellEv::Exit {
                origin_plane,
                op_seq,
                value,
                success,
            } => {
                self.fold(at, [4, op_seq, value]);
                emit(
                    origin_plane as usize,
                    at + SimDuration::from_nanos(HOP_NS),
                    DepthMsg::Reply {
                        origin_col: self.col as u32,
                        op_seq,
                        value,
                        success,
                    },
                );
            }
            CellEv::ReplyArrival {
                op_seq,
                value,
                success,
            } => {
                let issued = self
                    .outstanding
                    .remove(&op_seq)
                    .expect("reply to an op never issued");
                let latency = (at - issued).as_nanos();
                self.stats.replies += 1;
                self.stats.tas_won += success as u64;
                self.stats.latency_total_ns += latency;
                self.stats.latency_max_ns = self.stats.latency_max_ns.max(latency);
                self.fold(at, [3, op_seq, value]);
            }
        }
    }

    /// Lower bound on the delivery time of the first *depth-bus* (that
    /// is, cross-plane) message this pending event can cause. Grid-bus
    /// transits stay inside the plane, so an op still on its way to or
    /// from the home column is bounded by the reply that finally crosses
    /// the depth bus. `None` for terminal events.
    fn send_bound(&self, t: SimTime, ev: &CellEv) -> Option<SimTime> {
        let ns = |d| t + SimDuration::from_nanos(d);
        match ev {
            CellEv::Issue | CellEv::Exit { .. } => Some(ns(HOP_NS)),
            CellEv::Entry { line, .. } => Some(if self.home_col(*line) == self.col {
                ns(SERVICE_NS + HOP_NS)
            } else {
                ns(GRID_HOP_NS + SERVICE_NS + GRID_HOP_NS + HOP_NS)
            }),
            CellEv::PortArrival { origin_col, .. } | CellEv::ServiceDone { origin_col, .. } => {
                let service = match ev {
                    CellEv::PortArrival { .. } => SERVICE_NS,
                    _ => 0,
                };
                let transit = if *origin_col as usize == self.col {
                    0
                } else {
                    GRID_HOP_NS
                };
                Some(ns(service + transit + HOP_NS))
            }
            CellEv::ReplyArrival { .. } => None,
        }
    }
}

/// Decodes a bus message into the destination column and the cell event
/// it schedules there. Used identically for cross-plane deliveries and
/// in-plane forwarding, so both construct the same event with the same
/// content key.
fn decode(msg: DepthMsg, side: usize) -> (usize, u8, u64, CellEv) {
    match msg {
        DepthMsg::Request {
            origin_plane,
            origin_col,
            op_seq,
            line,
            kind,
        } => (
            origin_col as usize,
            CLASS_MSG,
            op_key(origin_plane, origin_col, op_seq),
            CellEv::Entry {
                origin_plane,
                op_seq,
                line,
                kind,
            },
        ),
        DepthMsg::RequestTransit {
            origin_plane,
            origin_col,
            op_seq,
            line,
            kind,
        } => (
            (line % side as u64) as usize,
            CLASS_MSG,
            op_key(origin_plane, origin_col, op_seq),
            CellEv::PortArrival {
                origin_plane,
                origin_col,
                op_seq,
                line,
                kind,
            },
        ),
        DepthMsg::ReplyTransit {
            origin_plane,
            origin_col,
            op_seq,
            value,
            success,
        } => (
            origin_col as usize,
            CLASS_MSG,
            op_key(origin_plane, origin_col, op_seq),
            CellEv::Exit {
                origin_plane,
                op_seq,
                value,
                success,
            },
        ),
        DepthMsg::Reply {
            origin_col,
            op_seq,
            value,
            success,
        } => (
            origin_col as usize,
            CLASS_MSG,
            // The reply terminates at the issuing cell, whose plane is
            // the destination shard's plane — the key is completed there.
            op_seq,
            CellEv::ReplyArrival {
                op_seq,
                value,
                success,
            },
        ),
    }
}

/// One shard of the cube: a whole plane, its machine and its `n` cells.
struct CubeShard {
    side: usize,
    plane: usize,
    machine: Machine,
    /// This plane's cells in column order.
    cells: Vec<ColumnCell>,
    trace: Option<SharedBuf>,
}

impl CubeShard {
    fn deliver(&mut self, at: SimTime, msg: DepthMsg) {
        let (col, class, mut key, ev) = decode(msg, self.side);
        if let CellEv::ReplyArrival { op_seq, .. } = ev {
            // Complete the op key with the issuing cell's identity (this
            // cell — replies come home).
            key = op_key(self.plane as u32, col as u32, op_seq);
        }
        self.cells[col].schedule(at, class, key, ev);
    }
}

impl ShardModel for CubeShard {
    type Msg = DepthMsg;

    fn next_time(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = self.machine.next_event_time();
        for cell in &self.cells {
            if let Some(&(t, _, _)) = cell.pending.keys().next() {
                if next.is_none_or(|n| t < n) {
                    next = Some(t);
                }
            }
        }
        next
    }

    fn earliest_send(&self) -> Option<SimTime> {
        // Machine events are plane-internal: they never send over a depth
        // bus and so never constrain the neighbours.
        self.cells
            .iter()
            .flat_map(|cell| {
                cell.pending
                    .iter()
                    .filter_map(move |(&(t, _, _), ev)| cell.send_bound(t, ev))
            })
            .min()
    }

    fn min_turnaround(&self) -> SimDuration {
        // An inbound request is answered no earlier than one service plus
        // the depth hop back.
        SimDuration::from_nanos(SERVICE_NS + HOP_NS)
    }

    fn advance(
        &mut self,
        horizon: SimTime,
        inbox: Vec<Arrival<DepthMsg>>,
        out: &mut Outbox<DepthMsg>,
    ) {
        for a in inbox {
            self.deliver(a.at, a.msg);
        }
        let mut emits: Vec<(usize, SimTime, DepthMsg)> = Vec::new();
        loop {
            // The earliest pending cell event across this plane's cells;
            // keys are content-addressed, so the winner is
            // iteration-order-independent.
            let mut best: Option<(usize, (SimTime, u8, u64))> = None;
            for (ci, cell) in self.cells.iter().enumerate() {
                if let Some(&k) = cell.pending.keys().next() {
                    if best.is_none_or(|(_, bk)| k < bk) {
                        best = Some((ci, k));
                    }
                }
            }
            // Drain machine events strictly below the next cell event (or
            // the horizon), then the cell event itself — so at equal
            // instants depth traffic runs first: a fixed, documented
            // order.
            let bound = best.map_or(horizon, |(_, (t, _, _))| horizon.min(t));
            self.machine.advance_until(bound);
            match best {
                Some((ci, key @ (t, _, _))) if t < horizon => {
                    let ev = self.cells[ci].pending.remove(&key).unwrap();
                    self.cells[ci].handle(t, ev, &mut |plane, at, msg| {
                        emits.push((plane, at, msg));
                    });
                    for (plane, at, msg) in emits.drain(..) {
                        if plane == self.plane {
                            self.deliver(at, msg);
                        } else {
                            out.send(plane, at, msg);
                        }
                    }
                }
                _ => break,
            }
        }
    }
}

/// Configuration of a parallel cube run.
#[derive(Debug, Clone)]
pub struct CubeConfig {
    /// Cube side `n`: `n` planes of `n x n` processors (`n^3` total).
    pub side: u32,
    /// Coherence engine every plane runs.
    pub engine: EngineKind,
    /// The closed-loop synthetic workload each plane drives.
    pub spec: SyntheticSpec,
    /// Blocking transactions per processor.
    pub txns_per_node: u64,
    /// Open-loop remote (cross-plane) ops each plane issues, split across
    /// its `n` column generators.
    pub remote_ops: u64,
    /// Mean gap between a column generator's remote issues (ns).
    pub remote_gap_ns: f64,
    /// Remote ops target lines `0..remote_lines`; a line's home column is
    /// `line % n`.
    pub remote_lines: u64,
    /// Master seed; every machine and per-column traffic stream derives
    /// from it by [`split_seed`].
    pub seed: u64,
    /// Worker threads (1 = serial reference execution).
    pub workers: usize,
    /// Run the coherence checker at the end of every plane's workload.
    pub check: bool,
    /// Capture per-plane machine traces (JSONL) and fingerprint them.
    pub capture_trace: bool,
}

impl CubeConfig {
    /// A small default: side `n`, paper timing, Multicube engine, serial
    /// execution, checking on, tracing off.
    pub fn new(side: u32) -> Self {
        CubeConfig {
            side,
            engine: EngineKind::Multicube,
            spec: SyntheticSpec::default(),
            txns_per_node: 10,
            remote_ops: 64,
            remote_gap_ns: 400.0,
            remote_lines: 64,
            seed: 0x5EED,
            workers: 1,
            check: true,
            capture_trace: false,
        }
    }
}

/// One plane's slice of the cube report.
#[derive(Debug, Clone)]
pub struct PlaneReport {
    /// The plane's closed-loop workload report.
    pub run: RunReport,
    /// The plane's depth-traffic statistics (summed over its columns).
    pub depth: DepthStats,
    /// Order-sensitive digest of the plane's depth events (its cells'
    /// digests combined in column order).
    pub depth_digest: u64,
    /// md5 of the plane's machine trace (when capture was on).
    pub trace_md5: Option<String>,
}

/// The result of a cube run.
#[derive(Debug, Clone)]
pub struct CubeReport {
    /// Cube side `n`.
    pub side: u32,
    /// Total processors (`n^3`).
    pub processors: u64,
    /// Per-plane results, in plane order.
    pub planes: Vec<PlaneReport>,
    /// Scheduler statistics (deterministic, equal at every worker count;
    /// they describe the synchronization, not the simulated machine, so
    /// the fingerprint leaves them out).
    pub pdes: PdesStats,
    /// Machine events delivered across all planes (the throughput-kernel
    /// work unit).
    pub events_delivered: u64,
}

impl CubeReport {
    /// A canonical fingerprint of everything deterministic about the run:
    /// per-plane transaction counts, depth statistics and digests, and
    /// (when captured) the machine trace hashes. Byte-identical at every
    /// worker count by construction.
    pub fn fingerprint(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("side={} procs={}\n", self.side, self.processors));
        for (i, p) in self.planes.iter().enumerate() {
            s.push_str(&format!(
                "plane={} txns={} events={} depth={:?} digest={:#018x} trace={}\n",
                i,
                p.run.transactions_completed,
                p.run.events_delivered,
                p.depth,
                p.depth_digest,
                p.trace_md5.as_deref().unwrap_or("-"),
            ));
        }
        multicube_sim::md5_hex(s.as_bytes())
    }
}

/// Builds one plane's machine with its trace sink.
fn build_machine(cfg: &CubeConfig, plane: usize) -> (Machine, Option<SharedBuf>) {
    let mconfig = MachineConfig::grid(cfg.side)
        .expect("valid grid side")
        .with_engine(cfg.engine)
        .with_checking(cfg.check);
    let mseed = split_seed(cfg.seed, stream_id("pdes", "plane"), plane as u64);
    let mut machine = Machine::new(mconfig, mseed).expect("valid machine config");
    let trace = cfg.capture_trace.then(SharedBuf::default);
    if let Some(buf) = &trace {
        machine.set_trace_sink(TraceSink::writer(Box::new(buf.clone())));
    }
    machine.begin_synthetic(&cfg.spec, cfg.txns_per_node);
    (machine, trace)
}

/// Builds one column cell and schedules its first issue. The per-cell RNG
/// stream and issue budget depend only on `(plane, col)`.
fn build_cell(cfg: &CubeConfig, plane: usize, col: usize) -> ColumnCell {
    let side = cfg.side as usize;
    let per_col =
        cfg.remote_ops / side as u64 + u64::from((col as u64) < cfg.remote_ops % side as u64);
    let mut cell = ColumnCell {
        plane,
        col,
        side,
        rng: DeterministicRng::seed(split_seed(
            cfg.seed,
            stream_id("pdes", "depth"),
            (plane * side + col) as u64,
        )),
        pending: std::collections::BTreeMap::new(),
        issues_left: per_col,
        op_seq: 0,
        remote_gap_ns: cfg.remote_gap_ns,
        remote_lines: cfg.remote_lines,
        port_free_at: SimTime::ZERO,
        words: FxHashMap::default(),
        outstanding: FxHashMap::default(),
        stats: DepthStats::default(),
        digest: 0,
    };
    if cell.issues_left > 0 && side > 1 {
        let first = 1 + cell.rng.exponential(cfg.remote_gap_ns).max(0.0) as u64;
        cell.schedule(
            SimTime::from_nanos(first),
            CLASS_ISSUE,
            op_key(plane as u32, col as u32, 0),
            CellEv::Issue,
        );
    } else {
        cell.issues_left = 0;
    }
    cell
}

/// Builds the shards and runs the cube to quiescence.
///
/// # Panics
///
/// Panics on an invalid side (< 2), on a coherence violation when
/// checking is on, and propagates any shard panic.
pub fn run_cube(cfg: &CubeConfig) -> CubeReport {
    assert!(cfg.side >= 2, "a cube needs side >= 2");
    let side = cfg.side as usize;
    let mut shards: Vec<CubeShard> = (0..side)
        .map(|plane| {
            let (machine, trace) = build_machine(cfg, plane);
            CubeShard {
                side,
                plane,
                machine,
                cells: (0..side).map(|col| build_cell(cfg, plane, col)).collect(),
                trace,
            }
        })
        .collect();

    let pdes_cfg = PdesConfig::parallel(cfg.workers, SimDuration::from_nanos(HOP_NS));
    let stats = pdes::run(&pdes_cfg, &mut shards);

    let mut events_delivered = 0u64;
    let planes: Vec<PlaneReport> = shards
        .into_iter()
        .map(|mut shard| {
            let plane = shard.plane;
            let mut depth = DepthStats::default();
            let mut depth_digest = 0u64;
            for cell in &shard.cells {
                assert!(
                    cell.outstanding.is_empty(),
                    "cell ({plane}, {}) finished with unanswered remote ops",
                    cell.col
                );
                assert!(cell.pending.is_empty());
                depth.merge(&cell.stats);
                depth_digest = depth_digest
                    .rotate_left(13)
                    .wrapping_mul(0x100000001B3)
                    .wrapping_add(cell.digest);
            }
            let run = shard.machine.finish_synthetic();
            events_delivered += run.events_delivered;
            let trace_md5 = shard
                .trace
                .as_ref()
                .map(|buf| multicube_sim::md5_hex(&buf.0.lock().unwrap()));
            PlaneReport {
                run,
                depth,
                depth_digest,
                trace_md5,
            }
        })
        .collect();

    CubeReport {
        side: cfg.side,
        processors: (cfg.side as u64).pow(3),
        planes,
        pdes: stats,
        events_delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(workers: usize) -> CubeConfig {
        let mut cfg = CubeConfig::new(3);
        cfg.txns_per_node = 6;
        cfg.remote_ops = 24;
        cfg.remote_gap_ns = 150.0;
        cfg.workers = workers;
        cfg.capture_trace = true;
        cfg
    }

    #[test]
    fn cube_runs_and_traffic_balances() {
        let report = run_cube(&small_cfg(1));
        assert_eq!(report.side, 3);
        assert_eq!(report.processors, 27);
        assert_eq!(report.planes.len(), 3);
        let issued: u64 = report.planes.iter().map(|p| p.depth.issued).sum();
        let serviced: u64 = report.planes.iter().map(|p| p.depth.serviced).sum();
        let replies: u64 = report.planes.iter().map(|p| p.depth.replies).sum();
        assert_eq!(issued, 3 * 24);
        assert_eq!(serviced, issued);
        assert_eq!(replies, issued);
        for p in &report.planes {
            assert_eq!(p.run.transactions_completed, 6 * 9);
            assert!(p.depth.latency_max_ns >= 2 * HOP_NS + SERVICE_NS);
            assert!(p.trace_md5.is_some());
        }
        assert!(report.pdes.messages >= 2 * issued);
    }

    #[test]
    fn worker_count_does_not_change_the_fingerprint() {
        let reference = run_cube(&small_cfg(1)).fingerprint();
        for workers in [2usize, 3, 8] {
            let fp = run_cube(&small_cfg(workers)).fingerprint();
            assert_eq!(fp, reference, "workers={workers}");
        }
    }

    #[test]
    fn engines_all_support_the_cube() {
        for engine in EngineKind::all() {
            let mut cfg = small_cfg(2);
            cfg.engine = engine;
            cfg.capture_trace = false;
            let report = run_cube(&cfg);
            assert_eq!(report.planes.len(), 3, "{engine:?}");
        }
    }
}
