//! Tests of the conservative parallel scheduler on a ping/ack shard
//! model: across fixed and random lookahead-respecting workloads, (1) a
//! cross-domain op is never delivered into a neighbour shard's past — the
//! shard itself asserts every arrival is at or after the latest instant
//! it has processed — and (2) every parallel worker count reproduces the
//! serial run bit for bit.

use std::collections::BTreeMap;

use multicube_sim::pdes::{run, Arrival, Outbox, PdesConfig, ShardModel};
use multicube_sim::{DeterministicRng, SimDuration, SimTime};
use proptest::prelude::*;

/// Marks acknowledgement payloads (acks are not themselves acked).
const ACK_BIT: u64 = 1 << 63;

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Delivered cross-shard message (src, seq, payload).
    Inbound(usize, u64, u64),
    /// Scheduled acknowledgement send (dst, payload).
    AckSend(usize, u64),
}

/// The workload knobs a property case draws.
#[derive(Debug, Clone, Copy)]
struct Workload {
    shards: usize,
    autos: u32,
    auto_gap: u64,
    send_chance: f64,
    lookahead: u64,
    ack_delay: u64,
    seed: u64,
}

/// A shard issuing autonomous events on a random schedule, messaging
/// random peers with delivery delay >= lookahead, and acknowledging every
/// original message after a local delay. Folds everything it observes
/// into `digest` in processing order.
///
/// Same-instant pending events are keyed on the originating message's
/// `(src, seq)` identity, never on insertion order.
struct Shard {
    id: usize,
    w: Workload,
    rng: DeterministicRng,
    pending: BTreeMap<(SimTime, u8, u64), Ev>,
    remaining_auto: u32,
    next_auto: Option<SimTime>,
    processed_max: SimTime,
    digest: u64,
    processed: u64,
}

impl Shard {
    fn new(id: usize, w: Workload) -> Self {
        Shard {
            id,
            w,
            rng: DeterministicRng::seed(w.seed ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15)),
            pending: BTreeMap::new(),
            remaining_auto: w.autos,
            next_auto: (w.autos > 0).then(|| SimTime::from_nanos(1 + id as u64)),
            processed_max: SimTime::ZERO,
            digest: 0,
            processed: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, class: u8, key: u64, ev: Ev) {
        let clobbered = self.pending.insert((at, class, key), ev);
        assert!(clobbered.is_none(), "shard {}: key collision", self.id);
    }

    fn fold(&mut self, at: SimTime, tag: u64, a: u64, b: u64) {
        for v in [at.as_nanos(), tag, a, b] {
            self.digest = self
                .digest
                .rotate_left(13)
                .wrapping_mul(0x100000001B3)
                .wrapping_add(v);
        }
        self.processed += 1;
    }
}

impl ShardModel for Shard {
    type Msg = u64;

    fn next_time(&self) -> Option<SimTime> {
        let pending = self.pending.keys().next().map(|&(t, _, _)| t);
        match (pending, self.next_auto) {
            (Some(p), Some(a)) => Some(p.min(a)),
            (p, a) => p.or(a),
        }
    }

    fn earliest_send(&self) -> Option<SimTime> {
        let hop = SimDuration::from_nanos(self.w.lookahead);
        let turn = SimDuration::from_nanos(self.w.ack_delay + self.w.lookahead);
        let mut bound: Option<SimTime> = None;
        let mut fold = |t: SimTime| {
            if bound.is_none_or(|b| t < b) {
                bound = Some(t);
            }
        };
        if let Some(a) = self.next_auto {
            fold(a + hop);
        }
        for (&(t, _, _), ev) in &self.pending {
            match ev {
                Ev::AckSend(..) => fold(t + hop),
                Ev::Inbound(..) => fold(t + turn),
            }
        }
        bound
    }

    fn min_turnaround(&self) -> SimDuration {
        SimDuration::from_nanos(self.w.ack_delay + self.w.lookahead)
    }

    fn advance(&mut self, horizon: SimTime, inbox: Vec<Arrival<u64>>, out: &mut Outbox<u64>) {
        for a in inbox {
            // The safety property: conservative synchronization never
            // delivers a cross-domain op into this shard's past.
            assert!(
                a.at >= self.processed_max,
                "shard {}: arrival at {} behind processed time {}",
                self.id,
                a.at,
                self.processed_max
            );
            let key = ((a.src as u64) << 32) | a.seq;
            self.schedule(a.at, 1, key, Ev::Inbound(a.src, a.seq, a.msg));
        }
        loop {
            let next_pending = self.pending.keys().next().copied();
            let auto_first = match (self.next_auto, next_pending) {
                (Some(a), Some((p, _, _))) => a < p,
                (Some(_), None) => true,
                _ => false,
            };
            if auto_first {
                let at = self.next_auto.unwrap();
                if at >= horizon {
                    break;
                }
                self.processed_max = at;
                self.remaining_auto -= 1;
                self.next_auto = (self.remaining_auto > 0)
                    .then(|| at + SimDuration::from_nanos(1 + self.rng.below(self.w.auto_gap)));
                self.fold(at, 0, self.id as u64, self.remaining_auto as u64);
                if self.w.shards > 1 && self.rng.chance(self.w.send_chance) {
                    let dst = self
                        .rng
                        .below_excluding(self.w.shards as u64, self.id as u64);
                    let delay = self.w.lookahead + self.rng.below(50);
                    let payload = self.rng.next_u64() & !ACK_BIT;
                    out.send(dst as usize, at + SimDuration::from_nanos(delay), payload);
                }
                continue;
            }
            let Some(key @ (at, _, content)) = next_pending else {
                break;
            };
            if at >= horizon {
                break;
            }
            let ev = self.pending.remove(&key).unwrap();
            self.processed_max = at;
            match ev {
                Ev::Inbound(src, seq, payload) => {
                    self.fold(at, 1, ((src as u64) << 32) | seq, payload);
                    if payload & ACK_BIT == 0 {
                        // Key the ack on the same (src, seq) identity; the
                        // class distinguishes it from a co-instant inbound.
                        self.schedule(
                            at + SimDuration::from_nanos(self.w.ack_delay),
                            2,
                            content,
                            Ev::AckSend(src, payload | ACK_BIT),
                        );
                    }
                }
                Ev::AckSend(dst, payload) => {
                    self.fold(at, 2, dst as u64, payload);
                    out.send(dst, at + SimDuration::from_nanos(self.w.lookahead), payload);
                }
            }
        }
    }
}

/// Runs the workload and returns (per-shard outcomes, scheduler stats).
fn execute(w: Workload, workers: usize) -> (Vec<(u64, u64)>, (u64, u64)) {
    let mut shards: Vec<Shard> = (0..w.shards).map(|id| Shard::new(id, w)).collect();
    let lookahead = SimDuration::from_nanos(w.lookahead);
    let cfg = if workers <= 1 {
        PdesConfig::serial(lookahead)
    } else {
        PdesConfig::parallel(workers, lookahead)
    };
    let stats = run(&cfg, &mut shards);
    assert!(
        shards
            .iter()
            .all(|s| s.pending.is_empty() && s.remaining_auto == 0),
        "run terminated with work left"
    );
    let out: Vec<(u64, u64)> = shards.iter().map(|s| (s.digest, s.processed)).collect();
    (out, (stats.rounds, stats.messages))
}

/// The fixed workload of the scheduler's example-based tests.
fn fixed(shards: usize, autos: u32, seed: u64) -> Workload {
    Workload {
        shards,
        autos,
        auto_gap: 30,
        send_chance: 0.6,
        lookahead: 10,
        ack_delay: 5,
        seed,
    }
}

#[test]
fn every_worker_count_matches_the_serial_reference() {
    for shards in [1usize, 2, 3, 5, 8] {
        let w = fixed(shards, 40, 99);
        let reference = execute(w, 1);
        for workers in [2usize, 3, 16] {
            // Outcomes, and the round structure, which is a pure function
            // of the published bounds.
            assert_eq!(
                execute(w, workers),
                reference,
                "{shards} shards, {workers} workers"
            );
        }
    }
}

#[test]
fn every_shard_drains_and_acks_balance() {
    // `execute` itself asserts that every shard drained.
    let (outcomes, (_, messages)) = execute(fixed(4, 25, 7), 4);
    for (id, &(_, processed)) in outcomes.iter().enumerate() {
        // 25 autos, plus one inbound and one ack send per received
        // message.
        assert!(processed >= 25, "shard {id} processed {processed}");
    }
    // Every original message is acknowledged once, and acks are not.
    assert!(messages > 0);
    assert_eq!(messages % 2, 0);
}

#[test]
fn single_shard_runs_in_one_round() {
    let (outcomes, stats) = execute(fixed(1, 50, 3), 1);
    assert_eq!(stats, (1, 0), "no neighbours, no horizon, one drain");
    assert_eq!(outcomes[0].1, 50);
}

#[test]
fn empty_shard_list_is_a_noop() {
    assert_eq!(execute(fixed(0, 1, 1), 2), (Vec::new(), (0, 0)));
}

#[test]
#[should_panic(expected = "positive lookahead")]
fn zero_lookahead_is_rejected() {
    execute(
        Workload {
            lookahead: 0,
            ..fixed(2, 1, 1)
        },
        1,
    );
}

/// How a [`Liar`] breaks the model contract.
#[derive(Debug, Clone, Copy)]
enum Lie {
    /// Sends a message one nanosecond under the earliest send it
    /// published.
    SendsEarly,
    /// Publishes an earliest send under `next_time + lookahead`.
    BoundUnderLookahead,
    /// Claims a turnaround under the lookahead.
    QuickTurnaround,
}

/// Lookahead of the [`Liar`] runs.
const LIAR_LOOKAHEAD: u64 = 10;
/// The one event of a [`Liar`].
const LIAR_EVENT: u64 = 5;

/// One of two shards whose single event at [`LIAR_EVENT`] sends one
/// lookahead-respecting message to the other, and which tells one lie
/// about it.
struct Liar {
    id: usize,
    lie: Lie,
    done: bool,
}

impl ShardModel for Liar {
    type Msg = ();

    fn next_time(&self) -> Option<SimTime> {
        (!self.done).then_some(SimTime::from_nanos(LIAR_EVENT))
    }

    fn earliest_send(&self) -> Option<SimTime> {
        let honest = LIAR_EVENT + LIAR_LOOKAHEAD;
        let published = match self.lie {
            Lie::SendsEarly => honest + 1,
            Lie::BoundUnderLookahead => honest - 1,
            Lie::QuickTurnaround => honest,
        };
        (!self.done).then_some(SimTime::from_nanos(published))
    }

    fn min_turnaround(&self) -> SimDuration {
        match self.lie {
            Lie::QuickTurnaround => SimDuration::from_nanos(LIAR_LOOKAHEAD - 1),
            _ => SimDuration::from_nanos(LIAR_LOOKAHEAD),
        }
    }

    fn advance(&mut self, horizon: SimTime, _: Vec<Arrival<()>>, out: &mut Outbox<()>) {
        if !self.done && SimTime::from_nanos(LIAR_EVENT) < horizon {
            self.done = true;
            out.send(
                1 - self.id,
                SimTime::from_nanos(LIAR_EVENT + LIAR_LOOKAHEAD),
                (),
            );
        }
    }
}

/// Runs two liars serially; the scheduler must reject the lie.
fn run_liars(lie: Lie) {
    let mut shards = [0, 1].map(|id| Liar {
        id,
        lie,
        done: false,
    });
    run(
        &PdesConfig::serial(SimDuration::from_nanos(LIAR_LOOKAHEAD)),
        &mut shards,
    );
}

#[test]
#[should_panic(expected = "below its published earliest-send bound")]
fn a_send_below_the_published_bound_is_rejected() {
    run_liars(Lie::SendsEarly);
}

#[test]
#[should_panic(expected = "under next_time")]
fn an_earliest_send_under_next_time_plus_lookahead_is_rejected() {
    run_liars(Lie::BoundUnderLookahead);
}

#[test]
#[should_panic(expected = "under the lookahead")]
fn a_turnaround_under_the_lookahead_is_rejected() {
    run_liars(Lie::QuickTurnaround);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random lookahead-respecting schedules never deliver a cross-domain
    /// op in a neighbour's past (asserted inside `advance`), and the
    /// outcome and round/message counts are independent of the worker
    /// count.
    #[test]
    fn random_schedules_stay_causal_and_deterministic(
        shards in 1usize..6,
        autos in 5u32..30,
        lookahead in 1u64..25,
        seed in 0u64..u64::MAX,
        workers in 2usize..5,
    ) {
        // Derive the remaining knobs from the seed so the case space
        // stays wide despite the five-strategy tuple limit.
        let mut knobs = DeterministicRng::seed(seed ^ 0xD1CE);
        let w = Workload {
            shards,
            autos,
            auto_gap: 1 + knobs.below(60),
            send_chance: 0.1 + 0.8 * knobs.uniform(),
            lookahead,
            ack_delay: knobs.below(20),
            seed,
        };
        let reference = execute(w, 1);
        prop_assert_eq!(execute(w, workers), reference);
    }
}
