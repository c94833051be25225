//! Conservative parallel discrete-event scheduling across shards.
//!
//! The workspace's machine models advance a single event loop; this module
//! lets a simulation be split into *shards* that each own a disjoint slice
//! of state (their own timing wheel, their own clock) and advance
//! concurrently under the classic conservative (null-message / bounded
//! window) synchronization discipline:
//!
//! * Every cross-shard interaction travels as a timestamped message with a
//!   delivery latency of at least the **lookahead** `L` — the minimum
//!   cross-domain protocol latency.
//! * Each round, every shard publishes an **earliest output time** (EOT):
//!   a lower bound on the delivery time of any message it may still send.
//!   The coordinator closes the bounds over reply chains (a reply to a
//!   message that has not even arrived yet is still `>= sender's EOT +
//!   the receiver's minimum turnaround`) by fixed-point relaxation.
//! * Shard `i` may then safely process every event strictly before
//!   `min(EOT_j, j != i)` — its **horizon** — because nothing the other
//!   shards can still do will inject an event below that bound.
//!
//! Determinism is by construction, not by luck: the round structure is a
//! pure function of the shards' published bounds, and cross-shard messages
//! are delivered in `(time, source shard, per-edge sequence)` order. The
//! worker count can only change *which thread* advances a shard within a
//! round, never what any shard observes — so traces are byte-identical at
//! any worker count, the same bar the deterministic [`crate::pool`] sets
//! for sweep harnesses.
//!
//! The executor never idles a shard on a lock: rounds are separated by two
//! barriers, shards are statically chunked over persistent workers, and a
//! `workers == 1` run executes inline on the caller's thread through the
//! identical coordinator code path.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

use crate::time::{SimDuration, SimTime};

/// A timestamp far past any reachable simulation instant ("no bound").
fn far_future() -> SimTime {
    SimTime::from_nanos(u64::MAX)
}

/// One cross-shard message as delivered to its destination: the delivery
/// instant, the sending shard, and the per-`(src, dst)` edge sequence
/// number that (with time and source) fixes the deterministic merge order.
#[derive(Debug, Clone)]
pub struct Arrival<M> {
    /// Delivery instant at the destination shard.
    pub at: SimTime,
    /// The sending shard's index.
    pub src: usize,
    /// Sequence number on the `(src, dst)` edge (monotone per edge).
    pub seq: u64,
    /// The payload.
    pub msg: M,
}

/// Collects one shard's outbound cross-shard messages during an
/// [`ShardModel::advance`] call.
#[derive(Debug)]
pub struct Outbox<M> {
    from: usize,
    floor: SimTime,
    sends: Vec<(usize, SimTime, M)>,
}

impl<M> Outbox<M> {
    /// Sends `msg` to shard `to`, delivered at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is the sending shard (self-delivery is shard-local
    /// state, not a channel op) or if `at` undercuts the earliest-send
    /// bound the shard published this round — the contract violation that
    /// would let a message land in a neighbour's past.
    pub fn send(&mut self, to: usize, at: SimTime, msg: M) {
        assert!(
            to != self.from,
            "shard {} tried to send a cross-shard message to itself",
            self.from
        );
        assert!(
            at >= self.floor,
            "shard {} sent a message at {at} below its published earliest-send bound {}",
            self.from,
            self.floor
        );
        self.sends.push((to, at, msg));
    }
}

/// One shard of a conservatively synchronized simulation.
///
/// The contract (asserted by the scheduler where cheap):
///
/// * `next_time` is the earliest unprocessed work the shard knows about —
///   local events *and* arrivals already delivered to it.
/// * `earliest_send` lower-bounds the delivery time of every message the
///   shard may send given everything delivered so far, and is at least
///   `next_time + lookahead` (any send happens at an event `>= next_time`
///   and travels for at least the lookahead). Replies to messages that
///   have *not* been delivered yet are the scheduler's problem (closed
///   via [`ShardModel::min_turnaround`]).
/// * `min_turnaround` lower-bounds `reply delivery - arrival` for any
///   message the shard answers; at least the lookahead.
/// * `advance(horizon, inbox, out)` absorbs the inbox (sorted by
///   `(time, src, seq)`), processes every pending event strictly before
///   `horizon` in time order, and emits cross-shard sends through `out`.
pub trait ShardModel: Send {
    /// The cross-shard message payload.
    type Msg: Send;

    /// Earliest unprocessed local work, `None` when idle.
    fn next_time(&self) -> Option<SimTime>;

    /// Lower bound on the delivery time of any future send (given current
    /// inputs), `None` when the shard can no longer send at all.
    fn earliest_send(&self) -> Option<SimTime>;

    /// Lower bound on the delivery time of any send an inbound message
    /// induces, minus that message's arrival time.
    fn min_turnaround(&self) -> SimDuration;

    /// Deliver `inbox`, then process every pending event with time
    /// `< horizon`, sending cross-shard messages through `out`.
    fn advance(
        &mut self,
        horizon: SimTime,
        inbox: Vec<Arrival<Self::Msg>>,
        out: &mut Outbox<Self::Msg>,
    );
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdesConfig {
    /// Worker threads advancing shards (1 = inline serial execution).
    pub workers: usize,
    /// The minimum cross-shard latency every model must respect.
    pub lookahead: SimDuration,
}

impl PdesConfig {
    /// Inline serial execution (the 1-worker reference the parallel path
    /// must match byte for byte).
    pub fn serial(lookahead: SimDuration) -> Self {
        PdesConfig {
            workers: 1,
            lookahead,
        }
    }

    /// Parallel execution on `workers` persistent threads.
    pub fn parallel(workers: usize, lookahead: SimDuration) -> Self {
        PdesConfig {
            workers: workers.max(1),
            lookahead,
        }
    }
}

/// What one scheduler run did. Deterministic: a pure function of the
/// shards and the lookahead, equal at every worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PdesStats {
    /// Synchronization rounds executed.
    pub rounds: u64,
    /// Cross-shard messages routed.
    pub messages: u64,
}

// ---------------------------------------------------------------------
// Pure coordinator arithmetic (shared by the serial and parallel executors)
// ---------------------------------------------------------------------

/// `(min, argmin, second-min)` over the `Some` entries.
fn min2(values: &[Option<SimTime>]) -> (Option<SimTime>, usize, Option<SimTime>) {
    let (mut m1, mut i1, mut m2) = (None::<SimTime>, usize::MAX, None::<SimTime>);
    for (i, v) in values.iter().enumerate() {
        let Some(v) = *v else { continue };
        if m1.is_none_or(|m| v < m) {
            m2 = m1;
            m1 = Some(v);
            i1 = i;
        } else if m2.is_none_or(|m| v < m) {
            m2 = Some(v);
        }
    }
    (m1, i1, m2)
}

/// Closes the published EOT bounds over future reply chains: a shard may
/// answer a message it has not received yet no earlier than the sender's
/// EOT plus its own minimum turnaround. Relaxes to the fixed point (at
/// most `len` passes — each pass can only propagate the global minimum one
/// further hop, and longer chains are dominated).
fn relax_eots(eots: &mut [Option<SimTime>], turnaround: &[SimDuration]) {
    for _ in 0..eots.len() {
        let (m1, i1, m2) = min2(eots);
        let mut changed = false;
        for i in 0..eots.len() {
            let others = if i == i1 { m2 } else { m1 };
            let Some(o) = others else { continue };
            let cand = o + turnaround[i];
            if eots[i].is_none_or(|e| cand < e) {
                eots[i] = Some(cand);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

/// Per-shard safe horizons: `min` of every *other* shard's closed EOT.
fn horizons(eots: &[Option<SimTime>]) -> Vec<SimTime> {
    let (m1, i1, m2) = min2(eots);
    (0..eots.len())
        .map(|i| {
            let bound = if i == i1 { m2 } else { m1 };
            bound.unwrap_or_else(far_future)
        })
        .collect()
}

/// One round's plan for one shard, or `None` when the shard has nothing to
/// do this round.
struct Plan<M> {
    horizon: SimTime,
    floor: SimTime,
    inbox: Vec<Arrival<M>>,
}

/// The coordinator state threaded through rounds: per-edge sequence
/// counters and undelivered arrivals.
struct Router<M> {
    seqs: Vec<Vec<u64>>,
    inboxes: Vec<Vec<Arrival<M>>>,
    stats: PdesStats,
}

impl<M> Router<M> {
    fn new(n: usize) -> Self {
        Router {
            seqs: vec![vec![0; n]; n],
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            stats: PdesStats::default(),
        }
    }

    /// Builds the round plan from the gathered `(next, eot)` bounds, or
    /// `None` when the simulation is quiescent. Checks the model contract
    /// and the progress guarantee.
    #[allow(clippy::type_complexity)]
    fn plan_round(
        &mut self,
        cfg: &PdesConfig,
        turnaround: &[SimDuration],
        nexts: &[Option<SimTime>],
        bases: &[Option<SimTime>],
    ) -> Option<(Vec<Option<Plan<M>>>, Vec<SimTime>)> {
        let n = nexts.len();
        let idle = nexts.iter().all(|t| t.is_none()) && self.inboxes.iter().all(|i| i.is_empty());
        if idle {
            return None;
        }
        let mut eots: Vec<Option<SimTime>> = bases.to_vec();
        for i in 0..n {
            if let (Some(nt), Some(b)) = (nexts[i], eots[i]) {
                assert!(
                    b >= nt + cfg.lookahead,
                    "shard {i} published earliest-send {b} under next_time {nt} + lookahead"
                );
            }
            // A shard's published bound cannot see arrivals still queued
            // here: fold in the sends those may induce (inboxes are
            // sorted, so the first arrival is the earliest).
            if let Some(a) = self.inboxes[i].first() {
                let cand = a.at + turnaround[i];
                if eots[i].is_none_or(|e| cand < e) {
                    eots[i] = Some(cand);
                }
            }
        }
        relax_eots(&mut eots, turnaround);
        let hz = horizons(&eots);
        let mut plans: Vec<Option<Plan<M>>> = Vec::with_capacity(n);
        let mut any = false;
        for i in 0..n {
            let has_inbox = !self.inboxes[i].is_empty();
            let has_work = nexts[i].is_some_and(|t| t < hz[i]);
            if has_inbox || has_work {
                any = true;
                plans.push(Some(Plan {
                    horizon: hz[i],
                    floor: eots[i].unwrap_or_else(far_future),
                    inbox: std::mem::take(&mut self.inboxes[i]),
                }));
            } else {
                plans.push(None);
            }
        }
        assert!(
            any,
            "conservative deadlock: pending work but no shard under its horizon \
             (nexts {nexts:?}, horizons {hz:?})"
        );
        self.stats.rounds += 1;
        Some((plans, hz))
    }

    /// Routes the round's sends into next-round inboxes in deterministic
    /// `(time, src, seq)` order, asserting no delivery lands in a
    /// receiver's past (behind the horizon it just advanced through).
    fn route(&mut self, hz: &[SimTime], sends_by_src: Vec<Vec<(usize, SimTime, M)>>) {
        for (src, sends) in sends_by_src.into_iter().enumerate() {
            for (dst, at, msg) in sends {
                assert!(
                    at >= hz[dst],
                    "cross-shard op from {src} delivered into shard {dst}'s past: \
                     {at} < horizon {}",
                    hz[dst]
                );
                let seq = self.seqs[src][dst];
                self.seqs[src][dst] += 1;
                self.inboxes[dst].push(Arrival { at, src, seq, msg });
                self.stats.messages += 1;
            }
        }
        for inbox in &mut self.inboxes {
            inbox.sort_by_key(|a| (a.at, a.src, a.seq));
        }
    }
}

// ---------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------

/// Runs `shards` to global quiescence under conservative synchronization.
///
/// The result — every shard's final state and everything it observed on
/// the way — is a pure function of the shards and the lookahead,
/// independent of `cfg.workers`.
///
/// # Panics
///
/// Panics on a zero lookahead (the progress guarantee needs `L > 0`), on
/// a model-contract violation (a turnaround or earliest-send bound under
/// the lookahead, or a send below a published bound), and re-raises any
/// panic from a shard's `advance`.
pub fn run<S: ShardModel>(cfg: &PdesConfig, shards: &mut [S]) -> PdesStats {
    assert!(
        cfg.lookahead > SimDuration::ZERO,
        "conservative synchronization needs a positive lookahead"
    );
    let n = shards.len();
    if n == 0 {
        return PdesStats::default();
    }
    let turnaround: Vec<SimDuration> = shards.iter().map(|s| s.min_turnaround()).collect();
    for (i, &ta) in turnaround.iter().enumerate() {
        assert!(
            ta >= cfg.lookahead,
            "shard {i} claims a turnaround {ta:?} under the lookahead {:?}",
            cfg.lookahead
        );
    }
    if cfg.workers <= 1 || n == 1 {
        run_serial(cfg, shards, &turnaround)
    } else {
        run_parallel(cfg, shards, &turnaround)
    }
}

fn run_serial<S: ShardModel>(
    cfg: &PdesConfig,
    shards: &mut [S],
    turnaround: &[SimDuration],
) -> PdesStats {
    let n = shards.len();
    let mut router: Router<S::Msg> = Router::new(n);
    loop {
        let nexts: Vec<_> = shards.iter().map(|s| s.next_time()).collect();
        let bases: Vec<_> = shards.iter().map(|s| s.earliest_send()).collect();
        let Some((plans, hz)) = router.plan_round(cfg, turnaround, &nexts, &bases) else {
            return router.stats;
        };
        let mut sends_by_src: Vec<Vec<(usize, SimTime, S::Msg)>> = Vec::with_capacity(n);
        for (i, plan) in plans.into_iter().enumerate() {
            match plan {
                Some(plan) => {
                    let mut out = Outbox {
                        from: i,
                        floor: plan.floor,
                        sends: Vec::new(),
                    };
                    shards[i].advance(plan.horizon, plan.inbox, &mut out);
                    sends_by_src.push(out.sends);
                }
                None => sends_by_src.push(Vec::new()),
            }
        }
        router.route(&hz, sends_by_src);
    }
}

/// Per-shard mailbox between the coordinator and the worker that owns the
/// shard. Only ever locked by one side at a time (the barriers hand it
/// back and forth), so the mutex is a formality, not a contention point.
struct Slot<M> {
    plan: Option<Plan<M>>,
    sends: Vec<(usize, SimTime, M)>,
    next: Option<SimTime>,
    eot: Option<SimTime>,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

fn run_parallel<S: ShardModel>(
    cfg: &PdesConfig,
    shards: &mut [S],
    turnaround: &[SimDuration],
) -> PdesStats {
    let n = shards.len();
    let workers = cfg.workers.min(n);
    let slots: Vec<Mutex<Slot<S::Msg>>> = shards
        .iter()
        .map(|s| {
            Mutex::new(Slot {
                plan: None,
                sends: Vec::new(),
                next: s.next_time(),
                eot: s.earliest_send(),
                panic: None,
            })
        })
        .collect();
    let start = Barrier::new(workers + 1);
    let finish = Barrier::new(workers + 1);
    let done = AtomicBool::new(false);

    // Static contiguous chunking: shard i belongs to worker i / chunk.
    let chunk = n.div_ceil(workers);
    let mut router: Router<S::Msg> = Router::new(n);

    std::thread::scope(|scope| {
        let mut rest = &mut *shards;
        let mut offset = 0usize;
        for _ in 0..workers {
            let take = chunk.min(rest.len());
            let (mine, tail) = rest.split_at_mut(take);
            rest = tail;
            let base = offset;
            offset += take;
            let (slots, start, finish, done) = (&slots, &start, &finish, &done);
            scope.spawn(move || loop {
                start.wait();
                if done.load(Ordering::Acquire) {
                    return;
                }
                for (off, shard) in mine.iter_mut().enumerate() {
                    let idx = base + off;
                    let mut slot = slots[idx].lock().unwrap();
                    if let Some(plan) = slot.plan.take() {
                        let mut out = Outbox {
                            from: idx,
                            floor: plan.floor,
                            sends: Vec::new(),
                        };
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            shard.advance(plan.horizon, plan.inbox, &mut out)
                        }));
                        match result {
                            Ok(()) => slot.sends = out.sends,
                            Err(payload) => slot.panic = Some(payload),
                        }
                    }
                    slot.next = shard.next_time();
                    slot.eot = shard.earliest_send();
                }
                finish.wait();
            });
        }

        // Coordinator. Whenever it is outside the start..finish barrier
        // pair the workers are parked at (or headed to) the start barrier,
        // and the region between the barriers runs no fallible coordinator
        // code — so on any exit, normal or panicking, one final
        // `done = true; start.wait()` releases every worker to return.
        let mut body = || -> PdesStats {
            loop {
                let nexts: Vec<_> = slots.iter().map(|s| s.lock().unwrap().next).collect();
                let bases: Vec<_> = slots.iter().map(|s| s.lock().unwrap().eot).collect();
                let Some((plans, hz)) = router.plan_round(cfg, turnaround, &nexts, &bases) else {
                    return router.stats;
                };
                for (i, plan) in plans.into_iter().enumerate() {
                    slots[i].lock().unwrap().plan = plan;
                }
                start.wait();
                finish.wait();
                let mut sends_by_src = Vec::with_capacity(n);
                let mut panic = None;
                for slot in slots.iter() {
                    let mut slot = slot.lock().unwrap();
                    sends_by_src.push(std::mem::take(&mut slot.sends));
                    if panic.is_none() {
                        panic = slot.panic.take();
                    }
                }
                if let Some(payload) = panic {
                    resume_unwind(payload);
                }
                router.route(&hz, sends_by_src);
            }
        };
        let result = catch_unwind(AssertUnwindSafe(&mut body));
        done.store(true, Ordering::Release);
        start.wait();
        match result {
            Ok(stats) => stats,
            Err(payload) => resume_unwind(payload),
        }
    })
}

#[cfg(test)]
mod tests {
    //! The example and property tests on a ping/ack shard model live in
    //! `tests/pdes.rs`.

    use super::*;

    #[test]
    fn a_shard_panic_propagates_from_worker_threads() {
        const LOOKAHEAD: u64 = 10;
        struct Bomb;
        impl ShardModel for Bomb {
            type Msg = ();
            fn next_time(&self) -> Option<SimTime> {
                Some(SimTime::from_nanos(1))
            }
            fn earliest_send(&self) -> Option<SimTime> {
                Some(SimTime::from_nanos(1) + SimDuration::from_nanos(LOOKAHEAD))
            }
            fn min_turnaround(&self) -> SimDuration {
                SimDuration::from_nanos(LOOKAHEAD)
            }
            fn advance(&mut self, _: SimTime, _: Vec<Arrival<()>>, _: &mut Outbox<()>) {
                panic!("boom in a shard");
            }
        }
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let lookahead = SimDuration::from_nanos(LOOKAHEAD);
            run(&PdesConfig::parallel(2, lookahead), &mut [Bomb, Bomb])
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("boom in a shard"), "{msg}");
    }

    #[test]
    fn relaxation_tightens_eots_over_reply_chains() {
        // Shard 0 will send at 100; shard 1 is idle but replies within 15.
        // Shard 1's closed EOT must drop to 100 + 15, and shard 2's
        // horizon must see it.
        let ta = vec![
            SimDuration::from_nanos(15),
            SimDuration::from_nanos(15),
            SimDuration::from_nanos(15),
        ];
        let mut eots = vec![Some(SimTime::from_nanos(100)), None, None];
        relax_eots(&mut eots, &ta);
        assert_eq!(eots[0], Some(SimTime::from_nanos(100)));
        assert_eq!(eots[1], Some(SimTime::from_nanos(115)));
        assert_eq!(eots[2], Some(SimTime::from_nanos(115)));
        let hz = horizons(&eots);
        assert_eq!(hz[0], SimTime::from_nanos(115));
        assert_eq!(hz[1], SimTime::from_nanos(100));
        assert_eq!(hz[2], SimTime::from_nanos(100));
    }
}
