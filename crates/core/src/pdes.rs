//! The three-dimensional Multicube as `n` independent planes and two
//! depth-bus message exchanges.
//!
//! Section 6 of the paper generalizes the Wisconsin Multicube to `n^k`
//! processors; the `k = 3` instance is a cube of `n` *planes*, each an
//! `n x n` grid identical to the 2-D machine, with a third set of "depth"
//! buses connecting each processor to its images in every other plane.
//! This module simulates that machine at scale by giving every plane its
//! own full [`Machine`] — the complete Appendix A protocol, its own event
//! wheel, its own deterministic RNG stream.
//!
//! Cross-plane traffic models the §4 uncached-remote access pattern as a
//! four-hop pipeline through per-column cells: a requester column issues
//! over its depth bus to the home plane ([`HOP_NS`]), the request transits
//! the home plane's row bus to the line's home column ([`GRID_HOP_NS`])
//! unless it already landed there, the column's FIFO memory port services
//! it at [`SERVICE_NS`], and the reply retraces the path. TEST-AND-SET /
//! CLEAR operate on the home column's memory word (lock bit plus a release
//! epoch in the upper bits), READ returns it uncached — all depth-traffic
//! state lives in the column cells, never in the plane's machine.
//!
//! The depth traffic is open loop and never touches a plane's machine, so
//! the planes are independent and the depth traffic is a queueing network
//! that [`run_cube`] resolves before any plane runs, in two message
//! exchanges. Each column draws its whole schedule (issue time, home
//! plane, line, kind) from its own RNG stream, and the first exchange
//! routes every request to its home plane. There each column's memory
//! port serves its requests in acceptance order: an op takes effect on
//! the column's words when the port accepts it, and the second exchange
//! routes its reply back to the origin plane, stamped with its delivery
//! instant. Then every plane runs on one worker: it builds the plane's
//! machine, runs its closed-loop workload and frees the machine, then
//! builds the plane's depth events — its columns' issues, redrawn from
//! their streams, the requests it served and the replies it received —
//! and folds them into its column digests. Only the routed requests and
//! replies are held across planes.
//!
//! A closed-loop depth model, with processors blocking on remote ops,
//! would couple the planes' machines, and would need a parallel scheduler
//! between them again.
//!
//! Determinism: every machine seed and per-column traffic stream derives
//! from the cube seed by [`split_seed`], and a plane folds its depth
//! events in `(time, class, origin plane, origin column, op sequence,
//! column)` order — the operation's identity, never an insertion order. A
//! cube run is therefore byte-identical — per-plane machine traces
//! included — at every worker count, which
//! `crates/core/tests/pdes_determinism.rs` pins.

use std::io::Write;
use std::sync::{Arc, Mutex};

use multicube_sim::{
    split_seed, stream_id, DeterministicRng, FxHashMap, Pool, SimDuration, SimTime,
};

use crate::config::{EngineKind, MachineConfig};
use crate::driver::SyntheticSpec;
use crate::machine::Machine;
use crate::metrics::RunReport;
use crate::trace::TraceSink;

/// One depth-bus hop: the minimum cross-plane latency.
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

/// An operation's identity: its issuing plane and column, and its index
/// in that column's schedule. All of one op's events carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OpId {
    plane: u32,
    col: u32,
    seq: u64,
}

/// What an op does at one column of one plane.
#[derive(Debug, Clone, Copy)]
enum CellEv {
    /// The open-loop generator issues an op, whose request is already on
    /// its way: record it.
    Issue { home_plane: u32, line: u64 },
    /// A request landed off the depth bus at the origin's column image on
    /// the home plane.
    Entry { line: u64 },
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

/// Where an event falls in its plane's fold: `(time, class, op,
/// column)`. The class keeps arrivals ahead of issues at equal instants,
/// the op fixes same-instant order by content, and the lowest column wins
/// what ties remain.
type EventKey = (SimTime, u8, OpId, u32);

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
    /// Replies that succeeded: every READ and CLEAR, and every
    /// TEST-AND-SET that found the lock free. The name stays, because
    /// [`CubeReport::fingerprint`] hashes the field names.
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

/// A shared append-only byte sink for a plane's machine trace.
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

/// Draws column `col` of `plane`'s whole schedule, in issue order, from
/// the column's own RNG stream, which depends only on `(plane, col)`. The
/// draw order — the first gap, then each op's home plane, line and kind
/// followed by the gap to the next op — is part of every cube
/// fingerprint.
fn schedule(cfg: &CubeConfig, plane: usize, col: usize) -> Vec<RemoteOp> {
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
    ops
}

/// A request as it lands on its home plane, at the origin's column image,
/// and how that plane's memory port served it.
#[derive(Debug, Clone, Copy)]
struct Request {
    at: SimTime,
    op: OpId,
    line: u64,
    kind: RemoteKind,
    /// When the port finished serving it; [`serve`] fills this and the
    /// two fields below.
    done: SimTime,
    /// The word's value when the port accepted the op.
    value: u64,
    /// Whether the op succeeded (only a TEST-AND-SET of a held lock
    /// fails).
    success: bool,
}

impl Request {
    /// The line's home column, where its memory port is.
    fn home(&self, side: u64) -> u32 {
        (self.line % side) as u32
    }

    /// Whether the request entered away from its home column, so it and
    /// its reply cross the row bus.
    fn forwarded(&self, side: u64) -> bool {
        self.home(side) != self.op.col
    }

    /// When the request reaches its memory port.
    fn at_port(&self, side: u64) -> SimTime {
        if self.forwarded(side) {
            self.at + SimDuration::from_nanos(GRID_HOP_NS)
        } else {
            self.at
        }
    }

    /// When the reply leaves on the depth bus, back at the column the
    /// request entered at.
    fn exit(&self, side: u64) -> SimTime {
        if self.forwarded(side) {
            self.done + SimDuration::from_nanos(GRID_HOP_NS)
        } else {
            self.done
        }
    }
}

/// A reply as it arrives back at its requesting cell.
#[derive(Debug, Clone, Copy)]
struct Reply {
    at: SimTime,
    op: OpId,
    value: u64,
    success: bool,
}

/// One plane's depth events, in no particular order until its fold.
type Events = Vec<(EventKey, CellEv)>;

/// Runs every memory port of one plane over `requests`, which are all the
/// plane will serve: records in each request how it was served, and routes
/// its reply to `replies[origin plane]`.
///
/// A request that lands on its line's home column arrives at the port at
/// once; one that lands elsewhere crosses the row bus first. Each port
/// accepts its requests in arrival order — by instant, then op — and
/// serves them FIFO, so an op takes effect on the column's words when the
/// port accepts it. Its reply leaves one service after the port frees up,
/// crosses the row bus back to the column the request entered at, and
/// arrives one depth hop later.
fn serve(side: u64, requests: &mut [Request], replies: &mut [Vec<Reply>]) {
    requests.sort_unstable_by_key(|r| (r.home(side), r.at_port(side), r.op));
    let mut free_at = vec![SimTime::ZERO; side as usize];
    let mut words: Vec<FxHashMap<u64, u64>> = vec![FxHashMap::default(); side as usize];
    for r in requests {
        let port = r.home(side) as usize;
        r.done = free_at[port].max(r.at_port(side)) + SimDuration::from_nanos(SERVICE_NS);
        free_at[port] = r.done;
        (r.value, r.success) = apply(&mut words[port], r.line, r.kind);
        replies[r.op.plane as usize].push(Reply {
            at: r.exit(side) + SimDuration::from_nanos(HOP_NS),
            op: r.op,
            value: r.value,
            success: r.success,
        });
    }
}

/// Builds `plane`'s depth events: its columns' issues, redrawn from their
/// schedules; the entry and service of every request it served; and the
/// arrival of every reply to its own ops.
fn depth_events(cfg: &CubeConfig, plane: usize, requests: &[Request], replies: &[Reply]) -> Events {
    let side = u64::from(cfg.side);
    let forwarded = requests.iter().filter(|r| r.forwarded(side)).count();
    let mut events = Vec::with_capacity(
        cfg.remote_ops as usize + 2 * (requests.len() + forwarded) + replies.len(),
    );
    for col in 0..cfg.side {
        for (seq, op) in schedule(cfg, plane, col as usize).into_iter().enumerate() {
            let id = OpId {
                plane: plane as u32,
                col,
                seq: seq as u64,
            };
            let issue = CellEv::Issue {
                home_plane: op.home_plane,
                line: op.line,
            };
            events.push(((op.at, CLASS_ISSUE, id, col), issue));
        }
    }
    for r in requests {
        let (op, line, home) = (r.op, r.line, r.home(side));
        events.push(((r.at, CLASS_MSG, op, op.col), CellEv::Entry { line }));
        let service = CellEv::ServiceDone {
            line,
            kind: r.kind,
            value: r.value,
            success: r.success,
        };
        events.push(((r.done, CLASS_MSG, op, home), service));
        if r.forwarded(side) {
            let arrival = CellEv::PortArrival { line };
            events.push(((r.at_port(side), CLASS_MSG, op, home), arrival));
            let exit = CellEv::Exit { value: r.value };
            events.push(((r.exit(side), CLASS_MSG, op, op.col), exit));
        }
    }
    for reply in replies {
        let arrival = CellEv::ReplyArrival {
            value: reply.value,
            success: reply.success,
        };
        events.push(((reply.at, CLASS_MSG, reply.op, reply.op.col), arrival));
    }
    events
}

/// One column-bus domain of one plane as its depth events fold: the
/// cell's statistics and digest, the ops it issued still awaiting their
/// replies and, in debug builds, the column's words again.
#[derive(Default)]
struct Cell {
    /// Debug builds only: the words with each op applied again at its
    /// service instant — the oracle for the value fixed at acceptance.
    shadow: FxHashMap<u64, u64>,
    /// In-flight remote ops this cell issued: op_seq -> issue time.
    outstanding: FxHashMap<u64, SimTime>,
    stats: DepthStats,
    /// Order-sensitive digest of every event this cell observed.
    digest: u64,
}

impl Cell {
    fn fold(&mut self, at: SimTime, vals: [u64; 3]) {
        for v in [at.as_nanos(), vals[0], vals[1], vals[2]] {
            self.digest = self
                .digest
                .rotate_left(13)
                .wrapping_mul(0x100000001B3)
                .wrapping_add(v);
        }
    }

    /// Folds one event of op `op` at instant `at`.
    fn handle(&mut self, at: SimTime, op: OpId, ev: CellEv) {
        let OpId { plane, seq, .. } = op;
        match ev {
            CellEv::Issue { home_plane, line } => {
                self.stats.issued += 1;
                self.outstanding.insert(seq, at);
                self.fold(at, [0, seq, u64::from(home_plane) << 32 | line]);
            }
            CellEv::Entry { line } => self.fold(at, [1, u64::from(plane) << 32 | seq, line]),
            CellEv::PortArrival { line } => self.fold(at, [5, u64::from(plane) << 32 | seq, line]),
            CellEv::ServiceDone {
                line,
                kind,
                value,
                success,
            } => {
                self.stats.serviced += 1;
                self.fold(at, [2, kind.code() << 32 | seq, value]);
                if cfg!(debug_assertions) {
                    // Services finish in acceptance order, so performing
                    // the op here must reproduce the reply already sent.
                    let served = apply(&mut self.shadow, line, kind);
                    debug_assert_eq!(
                        served,
                        (value, success),
                        "op {op:?} served a different value than it was accepted with"
                    );
                }
            }
            CellEv::Exit { value } => self.fold(at, [4, seq, value]),
            CellEv::ReplyArrival { value, success } => {
                let issued = self
                    .outstanding
                    .remove(&seq)
                    .expect("reply to an op never issued");
                let latency = (at - issued).as_nanos();
                self.stats.replies += 1;
                self.stats.tas_won += success as u64;
                self.stats.latency_total_ns += latency;
                self.stats.latency_max_ns = self.stats.latency_max_ns.max(latency);
                self.fold(at, [3, seq, value]);
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

/// How a run routed its depth traffic: the same at every worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Message exchanges: the requests', then the replies'.
    pub rounds: u64,
    /// Depth-bus messages routed: one request and one reply per remote op.
    pub messages: u64,
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
    /// Routing statistics. They describe how the run was computed, not
    /// the simulated machine, so the fingerprint leaves them out.
    pub pdes: ExchangeStats,
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

/// Runs one plane on the calling worker: builds its machine, runs the
/// closed-loop workload and frees the machine, then builds the plane's
/// depth events from the requests it served and the replies it received,
/// folds them into its cells in key order and reports.
fn run_plane(
    cfg: &CubeConfig,
    plane: usize,
    requests: &[Request],
    replies: &[Reply],
) -> PlaneReport {
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
    let run = machine.run_synthetic(&cfg.spec, cfg.txns_per_node);
    drop(machine);
    let trace_md5 =
        trace.map(|buf| multicube_sim::md5_hex(&buf.0.lock().expect("no trace writer panicked")));

    let mut events = depth_events(cfg, plane, requests, replies);
    events.sort_unstable_by_key(|&(key, _)| key);
    if let Some(pair) = events.windows(2).find(|pair| pair[0].0 == pair[1].0) {
        let (at, _, op, col) = pair[0].0;
        panic!("cell ({plane}, {col}): event key collision at {at} for op {op:?}");
    }
    let mut cells: Vec<Cell> = (0..cfg.side).map(|_| Cell::default()).collect();
    for ((at, _, op, col), ev) in events {
        cells[col as usize].handle(at, op, ev);
    }
    let mut depth = DepthStats::default();
    let mut depth_digest = 0u64;
    for (col, cell) in cells.iter().enumerate() {
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
    PlaneReport {
        run,
        depth,
        depth_digest,
        trace_md5,
    }
}

/// Runs the cube: routes the depth traffic in two exchanges, then runs
/// the planes on `cfg.workers` threads.
///
/// # Panics
///
/// Panics on an invalid configuration (a side under 2, a `remote_gap_ns`
/// that is negative, NaN or infinite, or no `remote_lines` for the remote
/// ops to target), on a coherence violation when checking is on, and
/// propagates any plane's panic.
pub fn run_cube(cfg: &CubeConfig) -> CubeReport {
    cfg.validate();
    let side = cfg.side as usize;

    // Exchange 1: every request to its home plane, one depth hop after
    // its issue.
    let mut requests: Vec<Vec<Request>> = vec![Vec::new(); side];
    for plane in 0..side {
        for col in 0..side {
            for (seq, op) in schedule(cfg, plane, col).into_iter().enumerate() {
                requests[op.home_plane as usize].push(Request {
                    at: op.at + SimDuration::from_nanos(HOP_NS),
                    op: OpId {
                        plane: plane as u32,
                        col: col as u32,
                        seq: seq as u64,
                    },
                    line: op.line,
                    kind: op.kind,
                    done: SimTime::ZERO,
                    value: 0,
                    success: false,
                });
            }
        }
    }

    // Exchange 2: each plane's ports serve its requests, and every reply
    // goes back to its origin plane, which gets one per op it issued.
    let mut replies: Vec<Vec<Reply>> = (0..side)
        .map(|_| Vec::with_capacity(cfg.remote_ops as usize))
        .collect();
    for requests in &mut requests {
        requests.shrink_to_fit();
        serve(u64::from(cfg.side), requests, &mut replies);
    }
    let remote_ops: usize = requests.iter().map(Vec::len).sum();

    // Each worker takes one contiguous run of planes and builds, runs,
    // reports and frees each on its own thread: freeing a machine on
    // another thread than the one that built it, or interleaving planes
    // across threads, made the frees slower. A plane's depth events are
    // built there too, so only the routed messages are held centrally.
    let workers = cfg.workers.clamp(1, side);
    let chunk = side.div_ceil(workers);
    let mut rest = requests.into_iter().zip(replies).enumerate();
    let runs: Vec<Vec<_>> = (0..workers)
        .map(|_| rest.by_ref().take(chunk).collect())
        .collect();
    let planes: Vec<PlaneReport> = Pool::new(workers)
        .map(runs, |_, run| {
            run.into_iter()
                .map(|(plane, (requests, replies))| run_plane(cfg, plane, &requests, &replies))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flat_map(|r| r.unwrap_or_else(|p| panic!("{}", p.message)))
        .collect();

    CubeReport {
        side: cfg.side,
        processors: u64::from(cfg.side).pow(3),
        events_delivered: planes.iter().map(|p| p.run.events_delivered).sum(),
        planes,
        pdes: ExchangeStats {
            rounds: 2,
            messages: 2 * remote_ops as u64,
        },
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
        assert_eq!(report.pdes.messages, 2 * issued);
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
