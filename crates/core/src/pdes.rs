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
//! Only the depth buses cross shards, so the scheduler's lookahead is one
//! depth-bus hop ([`HOP_NS`]).
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
//! What bounds a round: every depth-bus send is known long before it
//! happens, and the model sends each as soon as it is known, so a run
//! takes four rounds at any side instead of one per depth hop. A
//! column's generator is open loop with its own RNG stream, so the cell
//! draws its whole schedule (issue time, home plane, line, kind) at
//! construction and every plane sends all its requests on its first
//! [`ShardModel::advance`], in the first round; an issue then only
//! records the op. A plane's second advance therefore holds every
//! request it will serve. A column's memory port serves in acceptance
//! order, so the plane runs each port over its requests there: each op
//! takes effect on the column's words when the port accepts it, and the
//! reply leaves at once, stamped with its delivery instant. Arrival at
//! the port, service completion and the reply's exit onto the depth bus
//! keep their events, but those only fold into the digests; no event
//! sends. The third round delivers the replies under a horizon the
//! scheduler still draws one turnaround ([`SERVICE_NS`] + [`HOP_NS`])
//! past the earliest of them, since it cannot know that replies are
//! answered by nothing, and the fourth runs every plane to the end.
//!
//! Determinism: every machine seed and per-column traffic stream derives
//! from the cube seed by [`split_seed`], the scheduler delivers
//! cross-shard messages in `(time, source shard, sequence)` order, and a
//! plane keys same-instant events on the *operation's identity*
//! `(origin plane, origin column, op sequence)`, then the column — never
//! on insertion order — so the event order cannot depend on which round
//! delivered a message. A cube run is therefore byte-identical —
//! per-plane machine traces included — at every worker count, which
//! `crates/core/tests/pdes_determinism.rs` pins.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

use multicube_sim::pdes::{self, Arrival, Outbox, PdesConfig, PdesStats, ShardModel};
use multicube_sim::{
    split_seed, stream_id, DeterministicRng, FxHashMap, Pool, SimDuration, SimTime,
};

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

/// A message on a depth bus, the only traffic between planes. Both
/// variants carry the issuing operation's identity `(origin_plane,
/// origin_col, op_seq)` — a reply's origin plane is the plane it is sent
/// to: the receiving plane keys the induced event on it, which is what
/// makes the event order content-addressed.
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
    /// The reply crossing the depth bus back to the origin.
    Reply {
        origin_col: u32,
        op_seq: u64,
        value: u64,
        success: bool,
    },
}

/// Internal events of a plane's column cells. The plane keys each on
/// `(time, class, op key, column)`: the class keeps arrivals ahead of
/// issues at equal instants, the op key (the operation's identity, shared
/// by all of one op's events) fixes same-instant order by content, and
/// the lowest column wins what ties remain.
#[derive(Debug, Clone, Copy)]
enum CellEv {
    /// The open-loop generator issues an op, whose request is already on
    /// its way: record it.
    Issue,
    /// A request landed off the depth bus at the origin's column image on
    /// the home plane.
    Entry { line: u64, kind: RemoteKind },
    /// A forwarded request reached the line's home column.
    PortArrival { line: u64 },
    /// The memory port finishes servicing. The op took effect when the
    /// port accepted it, and its reply has left.
    ServiceDone {
        line: u64,
        kind: RemoteKind,
        value: u64,
        success: bool,
    },
    /// A reply reached the origin column's image on the home plane and
    /// enters the depth bus.
    Exit { value: u64 },
    /// A reply arrived back at the requesting cell.
    ReplyArrival { value: u64, success: bool },
}

/// Message-driven events; at equal instants these run before issues.
const CLASS_MSG: u8 = 0;
/// Generator firings.
const CLASS_ISSUE: u8 = 1;

/// The content key of an operation: its issuing cell and sequence number.
/// `side <= 128` and `op_seq` stays far below `2^48`, so the packing is
/// collision-free and [`op_id`] inverts it.
fn op_key(origin_plane: u32, origin_col: u32, op_seq: u64) -> u64 {
    ((origin_plane as u64) << 56) | ((origin_col as u64) << 48) | op_seq
}

/// `(origin_plane, origin_col, op_seq)` of an op key.
fn op_id(key: u64) -> (u32, u32, u64) {
    (
        (key >> 56) as u32,
        ((key >> 48) & 0xFF) as u32,
        key & ((1 << 48) - 1),
    )
}

/// Performs `kind` on `line`'s word and returns the reply: the word's old
/// value and whether the op succeeded (only a TEST-AND-SET of a held lock
/// fails).
fn apply(words: &mut FxHashMap<u64, u64>, line: u64, kind: RemoteKind) -> (u64, bool) {
    match kind {
        RemoteKind::Read => (words.get(&line).copied().unwrap_or(0), true),
        RemoteKind::TestAndSet => {
            let word = words.entry(line).or_insert(0);
            let old = *word;
            if old & 1 == 0 {
                *word |= 1;
            }
            (old, old & 1 == 0)
        }
        RemoteKind::Clear => {
            let word = words.entry(line).or_insert(0);
            let old = *word;
            // Drop the lock bit, bump the release epoch: later READs
            // observe the history of releases.
            *word = (old & !1).wrapping_add(2);
            (old, true)
        }
    }
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

/// One op of a column's open-loop schedule.
#[derive(Debug, Clone, Copy)]
struct RemoteOp {
    /// Issue instant.
    at: SimTime,
    home_plane: u32,
    line: u64,
    kind: RemoteKind,
}

/// One column-bus domain of one plane: the open-loop remote-traffic
/// schedule of that column's processors, the column's memory module (the
/// words remote ops target), and its FIFO memory port. All depth-traffic
/// state lives here — never in the plane's [`Machine`].
struct ColumnCell {
    /// The generator's whole schedule, in issue order; an op's index is
    /// its sequence number.
    ops: Vec<RemoteOp>,
    /// When the FIFO memory port next frees up.
    port_free_at: SimTime,
    /// This column's memory words: bit 0 is the TAS lock, the bits above
    /// count CLEAR releases. Only lines with `line % side == col` live
    /// here. Ops take effect at acceptance.
    words: FxHashMap<u64, u64>,
    /// Debug builds only: the words with each op applied again at its
    /// service instant — the oracle for the value fixed at acceptance.
    shadow: FxHashMap<u64, u64>,
    /// In-flight remote ops this cell issued: op_seq -> issue time.
    outstanding: FxHashMap<u64, SimTime>,
    stats: DepthStats,
    /// Order-sensitive digest of every event this cell observed.
    digest: u64,
}

impl ColumnCell {
    /// Draws the column's whole schedule from its own RNG stream, which
    /// depends only on `(plane, col)`. The draw order — the first gap,
    /// then each op's home plane, line and kind followed by the gap to
    /// the next op — is part of every cube fingerprint.
    fn new(cfg: &CubeConfig, plane: usize, col: usize) -> Self {
        let side = u64::from(cfg.side);
        let count = cfg.remote_ops / side + u64::from((col as u64) < cfg.remote_ops % side);
        let mut rng = DeterministicRng::seed(split_seed(
            cfg.seed,
            stream_id("pdes", "depth"),
            plane as u64 * side + col as u64,
        ));
        let mut at = 0u64;
        let ops = (0..count)
            .map(|_| {
                let gap = rng.exponential(cfg.remote_gap_ns).max(0.0) as u64;
                at = at.saturating_add(gap).saturating_add(1);
                let home_plane = rng.below_excluding(side, plane as u64) as u32;
                let line = rng.below(cfg.remote_lines);
                let kind = match rng.below(10) {
                    0..=5 => RemoteKind::Read,
                    6..=8 => RemoteKind::TestAndSet,
                    _ => RemoteKind::Clear,
                };
                RemoteOp {
                    at: SimTime::from_nanos(at),
                    home_plane,
                    line,
                    kind,
                }
            })
            .collect();
        assert!(
            at <= u64::MAX / 2,
            "remote_gap_ns = {} schedules remote issues past the end of simulated time",
            cfg.remote_gap_ns
        );
        ColumnCell {
            ops,
            port_free_at: SimTime::ZERO,
            words: FxHashMap::default(),
            shadow: FxHashMap::default(),
            outstanding: FxHashMap::default(),
            stats: DepthStats::default(),
            digest: 0,
        }
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
}

/// Which of its depth-bus sends a plane makes on its next advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sends {
    /// Every request of the run, on the first advance.
    Requests,
    /// Every reply of the run, on the second advance: every plane sent
    /// all its requests on its first advance, in the first round, so the
    /// inbox of a plane's second advance holds every request it will
    /// ever serve.
    Replies,
    /// Nothing more: every send has gone.
    Done,
}

/// One shard of the cube: a whole plane, its machine, its `n` cells and
/// their pending events.
struct CubeShard {
    side: usize,
    plane: usize,
    machine: Machine,
    /// This plane's cells in column order.
    cells: Vec<ColumnCell>,
    /// Every cell's pending events, keyed `(time, class, op key,
    /// column)`.
    pending: BTreeMap<(SimTime, u8, u64, u32), CellEv>,
    /// What the next advance sends.
    sends: Sends,
    trace: Option<SharedBuf>,
}

impl CubeShard {
    /// Builds the plane's machine and cells and schedules every issue.
    fn new(cfg: &CubeConfig, plane: usize) -> Self {
        let side = cfg.side as usize;
        let (machine, trace) = build_machine(cfg, plane);
        let cells: Vec<ColumnCell> = (0..side)
            .map(|col| ColumnCell::new(cfg, plane, col))
            .collect();
        let mut pending = BTreeMap::new();
        for (col, cell) in cells.iter().enumerate() {
            for (op_seq, op) in cell.ops.iter().enumerate() {
                let key = op_key(plane as u32, col as u32, op_seq as u64);
                pending.insert((op.at, CLASS_ISSUE, key, col as u32), CellEv::Issue);
            }
        }
        CubeShard {
            side,
            plane,
            machine,
            cells,
            pending,
            sends: Sends::Requests,
            trace,
        }
    }

    /// The line's home column on any plane.
    fn home_col(&self, line: u64) -> usize {
        (line % self.side as u64) as usize
    }

    fn schedule(&mut self, at: SimTime, class: u8, key: u64, col: usize, ev: CellEv) {
        let clobbered = self.pending.insert((at, class, key, col as u32), ev);
        assert!(
            clobbered.is_none(),
            "cell ({}, {col}): event key collision at {at}",
            self.plane
        );
    }

    /// Sends every cell's requests: each delivery instant is its issue
    /// instant plus the depth hop, fixed since construction.
    fn send_requests(&mut self, out: &mut Outbox<DepthMsg>) {
        for (col, cell) in self.cells.iter().enumerate() {
            for (op_seq, op) in cell.ops.iter().enumerate() {
                out.send(
                    op.home_plane as usize,
                    op.at + SimDuration::from_nanos(HOP_NS),
                    DepthMsg::Request {
                        origin_plane: self.plane as u32,
                        origin_col: col as u32,
                        op_seq: op_seq as u64,
                        line: op.line,
                        kind: op.kind,
                    },
                );
            }
        }
        self.sends = Sends::Replies;
    }

    /// Runs every column's memory port over the requests this plane
    /// holds, which are all it will serve, and sends every reply.
    ///
    /// A request that lands on its line's home column arrives at the port
    /// at once; one that lands elsewhere crosses the row bus first. Each
    /// port accepts its requests in the order their arrival events run —
    /// by instant, then op key — and serves them FIFO, so an op takes
    /// effect on the column's words when the port accepts it, and its
    /// reply leaves now, stamped with its delivery: one service after the
    /// port frees up, plus the row-bus transit back to the column the
    /// request entered at, plus the depth hop. Arrival at the port,
    /// service completion and exit onto the depth bus keep their events,
    /// for the digests.
    fn send_replies(&mut self, out: &mut Outbox<DepthMsg>) {
        let grid = SimDuration::from_nanos(GRID_HOP_NS);
        let mut arrivals: Vec<(usize, SimTime, u64, u64, RemoteKind)> = self
            .pending
            .iter()
            .filter_map(|(&(t, _, key, col), ev)| match *ev {
                CellEv::Entry { line, kind } => {
                    let home = self.home_col(line);
                    let at = if home == col as usize { t } else { t + grid };
                    Some((home, at, key, line, kind))
                }
                _ => None,
            })
            .collect();
        arrivals.sort_unstable_by_key(|&(home, at, key, ..)| (home, at, key));
        for (home, at, key, line, kind) in arrivals {
            // A request enters at its origin column's image.
            let (origin_plane, origin_col, op_seq) = op_id(key);
            let forwarded = origin_col as usize != home;
            if forwarded {
                self.schedule(at, CLASS_MSG, key, home, CellEv::PortArrival { line });
            }
            let cell = &mut self.cells[home];
            let done = cell.port_free_at.max(at) + SimDuration::from_nanos(SERVICE_NS);
            cell.port_free_at = done;
            let (value, success) = apply(&mut cell.words, line, kind);
            self.schedule(
                done,
                CLASS_MSG,
                key,
                home,
                CellEv::ServiceDone {
                    line,
                    kind,
                    value,
                    success,
                },
            );
            let mut exit = done;
            if forwarded {
                exit = done + grid;
                self.schedule(
                    exit,
                    CLASS_MSG,
                    key,
                    origin_col as usize,
                    CellEv::Exit { value },
                );
            }
            out.send(
                origin_plane as usize,
                exit + SimDuration::from_nanos(HOP_NS),
                DepthMsg::Reply {
                    origin_col,
                    op_seq,
                    value,
                    success,
                },
            );
        }
        self.sends = Sends::Done;
    }

    /// Schedules the event a depth-bus message induces where it lands.
    fn deliver(&mut self, at: SimTime, msg: DepthMsg) {
        let (key, col, ev) = match msg {
            DepthMsg::Request {
                origin_plane,
                origin_col,
                op_seq,
                line,
                kind,
            } => {
                assert!(
                    self.sends != Sends::Done,
                    "plane {} received a request after it sent its replies",
                    self.plane
                );
                (
                    op_key(origin_plane, origin_col, op_seq),
                    origin_col,
                    CellEv::Entry { line, kind },
                )
            }
            // A reply comes home to its issuing cell, on this plane.
            DepthMsg::Reply {
                origin_col,
                op_seq,
                value,
                success,
            } => (
                op_key(self.plane as u32, origin_col, op_seq),
                origin_col,
                CellEv::ReplyArrival { value, success },
            ),
        };
        self.schedule(at, CLASS_MSG, key, col as usize, ev);
    }

    /// Handles one event of column `col` at instant `at`. Events send
    /// nothing: every send left on the first two advances.
    fn handle(&mut self, at: SimTime, key: u64, col: usize, ev: CellEv) {
        let (origin_plane, _, op_seq) = op_id(key);
        let cell = &mut self.cells[col];
        match ev {
            CellEv::Issue => {
                let op = cell.ops[op_seq as usize];
                cell.stats.issued += 1;
                cell.outstanding.insert(op_seq, at);
                cell.fold(at, [0, op_seq, u64::from(op.home_plane) << 32 | op.line]);
            }
            CellEv::Entry { line, .. } => {
                cell.fold(at, [1, u64::from(origin_plane) << 32 | op_seq, line]);
            }
            CellEv::PortArrival { line } => {
                cell.fold(at, [5, u64::from(origin_plane) << 32 | op_seq, line]);
            }
            CellEv::ServiceDone {
                line,
                kind,
                value,
                success,
            } => {
                cell.stats.serviced += 1;
                cell.fold(at, [2, kind.code() << 32 | op_seq, value]);
                if cfg!(debug_assertions) {
                    // Services finish in acceptance order, so performing
                    // the op here must reproduce the reply already sent.
                    let served = apply(&mut cell.shadow, line, kind);
                    debug_assert_eq!(
                        served,
                        (value, success),
                        "cell ({}, {col}): op {key:#x} served a different value than it was accepted with",
                        self.plane
                    );
                }
            }
            CellEv::Exit { value } => cell.fold(at, [4, op_seq, value]),
            CellEv::ReplyArrival { value, success } => {
                let issued = cell
                    .outstanding
                    .remove(&op_seq)
                    .expect("reply to an op never issued");
                let latency = (at - issued).as_nanos();
                cell.stats.replies += 1;
                cell.stats.tas_won += success as u64;
                cell.stats.latency_total_ns += latency;
                cell.stats.latency_max_ns = cell.stats.latency_max_ns.max(latency);
                cell.fold(at, [3, op_seq, value]);
            }
        }
    }

    /// Checks that the plane drained, then assembles its report: the
    /// cells' statistics and digests, the machine's (checked) run report
    /// and its trace hash.
    fn report(mut self) -> PlaneReport {
        let plane = self.plane;
        assert!(
            self.pending.is_empty(),
            "plane {plane} finished with pending depth events"
        );
        let mut depth = DepthStats::default();
        let mut depth_digest = 0u64;
        for (col, cell) in self.cells.iter().enumerate() {
            assert!(
                cell.outstanding.is_empty(),
                "cell ({plane}, {col}) finished with unanswered remote ops"
            );
            depth.merge(&cell.stats);
            depth_digest = depth_digest
                .rotate_left(13)
                .wrapping_mul(0x100000001B3)
                .wrapping_add(cell.digest);
        }
        let run = self.machine.finish_synthetic();
        let trace_md5 = self
            .trace
            .as_ref()
            .map(|buf| multicube_sim::md5_hex(&buf.0.lock().expect("no trace writer panicked")));
        PlaneReport {
            run,
            depth,
            depth_digest,
            trace_md5,
        }
    }
}

impl ShardModel for CubeShard {
    type Msg = DepthMsg;

    fn next_time(&self) -> Option<SimTime> {
        // The requests are due at once: the first advance, in the first
        // round, sends them.
        if self.sends == Sends::Requests {
            return Some(SimTime::ZERO);
        }
        let machine = self.machine.next_event_time();
        let cells = self.pending.first_key_value().map(|(&(t, ..), _)| t);
        match (machine, cells) {
            (Some(m), Some(c)) => Some(m.min(c)),
            (m, c) => m.or(c),
        }
    }

    fn earliest_send(&self) -> Option<SimTime> {
        // Machine events are plane-internal: they never send over a depth
        // bus and so never constrain the neighbours. Before the first
        // advance the earliest send is some cell's first request. After
        // it the plane's only sends are the replies to requests still in
        // its inbox, which the scheduler bounds by their arrivals and
        // `min_turnaround`.
        match self.sends {
            Sends::Requests => self
                .cells
                .iter()
                .filter_map(|cell| cell.ops.first())
                .map(|op| op.at + SimDuration::from_nanos(HOP_NS))
                .min(),
            Sends::Replies | Sends::Done => None,
        }
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
        match self.sends {
            Sends::Requests => self.send_requests(out),
            Sends::Replies => self.send_replies(out),
            Sends::Done => {}
        }
        loop {
            // Drain machine events strictly below the next cell event (or
            // the horizon), then the cell event itself — so at equal
            // instants depth traffic runs first: a fixed, documented
            // order.
            let next = self.pending.first_key_value().map(|(&k, _)| k);
            let bound = next.map_or(horizon, |(t, ..)| horizon.min(t));
            self.machine.advance_until(bound);
            match next {
                Some((t, _, key, col)) if t < horizon => {
                    let (_, ev) = self.pending.pop_first().expect("the first event");
                    self.handle(t, key, col as usize, ev);
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
    /// Mean gap between a column generator's remote issues (ns): finite
    /// and at least 0.
    pub remote_gap_ns: f64,
    /// Remote ops target lines `0..remote_lines`; a line's home column is
    /// `line % n`. At least 1 when `remote_ops` is not 0.
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

    /// Rejects a configuration the cube cannot run, naming the field.
    fn validate(&self) {
        assert!(self.side >= 2, "a cube needs side >= 2");
        assert!(
            self.remote_gap_ns.is_finite() && self.remote_gap_ns >= 0.0,
            "remote_gap_ns must be a finite number of nanoseconds >= 0, got {}",
            self.remote_gap_ns
        );
        assert!(
            self.remote_lines > 0 || self.remote_ops == 0,
            "remote_lines must be at least 1 when remote_ops is {}",
            self.remote_ops
        );
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

/// Builds the shards and runs the cube to quiescence.
///
/// # Panics
///
/// Panics on an invalid configuration (a side under 2, a `remote_gap_ns`
/// that is negative, NaN or infinite, or no `remote_lines` for the remote
/// ops to target), on a coherence violation when checking is on, and
/// propagates any shard panic.
pub fn run_cube(cfg: &CubeConfig) -> CubeReport {
    cfg.validate();
    let mut shards: Vec<CubeShard> = (0..cfg.side as usize)
        .map(|plane| CubeShard::new(cfg, plane))
        .collect();

    let pdes_cfg = PdesConfig::parallel(cfg.workers, SimDuration::from_nanos(HOP_NS));
    let stats = pdes::run(&pdes_cfg, &mut shards);

    // Reporting a plane runs its coherence check and hashes its trace,
    // and dropping it frees its machine; both grow with the plane, so the
    // workers share them. Each takes one contiguous run of planes, as the
    // scheduler chunks them: interleaving planes across threads made the
    // frees slower than freeing all planes on one thread.
    let workers = cfg.workers.clamp(1, shards.len());
    let chunk = shards.len().div_ceil(workers);
    let mut rest = shards.into_iter();
    let runs: Vec<Vec<CubeShard>> = (0..workers)
        .map(|_| rest.by_ref().take(chunk).collect())
        .collect();
    let planes: Vec<PlaneReport> = Pool::new(workers)
        .map(runs, |_, run| {
            run.into_iter().map(CubeShard::report).collect::<Vec<_>>()
        })
        .into_iter()
        .flat_map(|r| r.unwrap_or_else(|p| panic!("{}", p.message)))
        .collect();

    CubeReport {
        side: cfg.side,
        processors: u64::from(cfg.side).pow(3),
        events_delivered: planes.iter().map(|p| p.run.events_delivered).sum(),
        planes,
        pdes: stats,
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
    #[should_panic(expected = "remote_lines must be at least 1")]
    fn remote_ops_without_remote_lines_are_rejected() {
        let mut cfg = small_cfg(1);
        cfg.remote_lines = 0;
        run_cube(&cfg);
    }

    #[test]
    fn no_remote_lines_are_needed_without_remote_ops() {
        let mut cfg = small_cfg(1);
        cfg.remote_lines = 0;
        cfg.remote_ops = 0;
        let report = run_cube(&cfg);
        assert!(report
            .planes
            .iter()
            .all(|p| p.depth == DepthStats::default()));
    }

    #[test]
    #[should_panic(expected = "remote_gap_ns must be a finite number")]
    fn a_negative_remote_gap_is_rejected() {
        let mut cfg = small_cfg(1);
        cfg.remote_gap_ns = -1.0;
        run_cube(&cfg);
    }

    #[test]
    #[should_panic(expected = "remote_gap_ns must be a finite number")]
    fn a_nan_remote_gap_is_rejected() {
        let mut cfg = small_cfg(1);
        cfg.remote_gap_ns = f64::NAN;
        run_cube(&cfg);
    }

    #[test]
    #[should_panic(expected = "remote_gap_ns must be a finite number")]
    fn an_infinite_remote_gap_is_rejected() {
        let mut cfg = small_cfg(1);
        cfg.remote_gap_ns = f64::INFINITY;
        run_cube(&cfg);
    }

    #[test]
    #[should_panic(expected = "past the end of simulated time")]
    fn a_remote_gap_beyond_the_clock_is_rejected() {
        let mut cfg = small_cfg(1);
        cfg.remote_gap_ns = 1e300;
        run_cube(&cfg);
    }

    #[test]
    fn op_keys_round_trip() {
        for (plane, col, seq) in [(0, 0, 0), (3, 2, 17), (127, 127, (1 << 48) - 1)] {
            assert_eq!(op_id(op_key(plane, col, seq)), (plane, col, seq));
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
