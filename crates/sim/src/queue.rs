//! The event queue at the heart of the kernel.
//!
//! [`EventQueue`] is the public face: a stable discrete-event scheduler
//! with an embedded monotonic clock. Since the timing-wheel rewrite it is
//! backed by [`TimingWheel`] — O(1)
//! schedule/pop with structural same-instant FIFO — while the original
//! `BinaryHeap` implementation survives as [`HeapQueue`], the
//! differential-testing oracle behind the shared [`QueueImpl`] seam
//! (see `crates/sim/tests/queue_differential.rs`).

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;

/// The operations a queue backend must provide. [`EventQueue`] wraps the
/// wheel statically; the proptest differential suite drives the wheel and
/// the heap oracle through this seam with identical schedules and asserts
/// identical delivery.
pub trait QueueImpl<E> {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Inserts `event` at instant `at` (callers guarantee `at >= now`).
    fn schedule(&mut self, at: SimTime, event: E);
    /// Removes the earliest event, advancing the clock to its due time.
    fn pop(&mut self) -> Option<(SimTime, E)>;
    /// Removes *every* event due at the earliest pending instant in one
    /// structural touch, appending them to `out` in FIFO order, and
    /// returns that instant. `None` when empty.
    fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime>;
    /// Due time of the next event without removing it. Must not mutate
    /// observable or structural state: the wheel in particular may only
    /// cascade tiers en route to a delivery, never from a peek.
    fn peek_time(&self) -> Option<SimTime>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A future event: its due time, an insertion sequence number for stable
/// FIFO ordering among simultaneous events, and the payload.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    // Reversed so the *earliest* entry is the max of the BinaryHeap.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original `BinaryHeap` event queue, kept as the oracle for
/// differential testing of the wheel. O(log n) per operation; FIFO among
/// simultaneous events via a per-entry sequence number.
#[derive(Default)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
}

impl<E> HeapQueue<E> {
    /// Creates an empty heap queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
        }
    }
}

impl<E> QueueImpl<E> for HeapQueue<E> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        // The heap has no structural guarantee against delivering into the
        // past (unlike the wheel), so the invariant is checked for real —
        // this is the oracle, correctness beats cycles here.
        assert!(
            entry.at >= self.now,
            "heap delivered {} into the past (now {})",
            entry.at,
            self.now
        );
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        let (at, event) = self.pop()?;
        out.push(event);
        while self.heap.peek().map(|e| e.at) == Some(at) {
            let entry = self.heap.pop().expect("peeked entry");
            out.push(entry.event);
        }
        Some(at)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// A stable discrete-event priority queue with an embedded clock.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled (FIFO), which the Multicube protocol relies on: the paper
/// assumes "for all queues, operations are handled in a strict first-in,
/// first-out (FIFO) order". The backing [`TimingWheel`] guarantees this
/// *structurally* — same-instant events share one intrusive bucket FIFO —
/// rather than via a per-entry sequence comparator.
///
/// Popping an event advances the clock to that event's due time; the clock
/// never moves backwards. With the wheel backend that monotonicity is a
/// structural property of the bucket arithmetic, not a runtime check (see
/// the `wheel` module docs).
///
/// # Example
///
/// ```
/// use multicube_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule_after(5, "second");
/// q.schedule_after(0, "first");
/// q.schedule_after(5, "third"); // same instant as "second": FIFO order
///
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["first", "second", "third"]);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    wheel: TimingWheel<E>,
    scheduled: u64,
    delivered: u64,
    max_len: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            wheel: TimingWheel::new(),
            scheduled: 0,
            delivered: 0,
            max_len: 0,
        }
    }

    /// Current simulated time: the due time of the most recently popped
    /// event, or [`SimTime::ZERO`] before any event has been delivered.
    #[inline]
    pub fn now(&self) -> SimTime {
        QueueImpl::now(&self.wheel)
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`EventQueue::now`]); the
    /// kernel refuses to create causality violations.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now(),
            "cannot schedule event in the past ({at} < now {})",
            self.now()
        );
        self.scheduled += 1;
        self.wheel.schedule(at, event);
        self.max_len = self.max_len.max(self.wheel.len());
    }

    /// Schedules `event` a delay after the current time.
    ///
    /// Accepts anything convertible into [`SimDuration`], including plain
    /// `u64` nanosecond counts.
    pub fn schedule_after(&mut self, delay: impl Into<SimDuration>, event: E) {
        let at = self.now() + delay.into();
        self.schedule(at, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// due time. Returns `None` when the queue is empty (simulation over).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let popped = self.wheel.pop()?;
        self.delivered += 1;
        Some(popped)
    }

    /// Removes every event due at the earliest pending instant in one
    /// wheel touch, appending them to `out` in FIFO order, and returns
    /// that instant (to which the clock advances). `None` when empty.
    ///
    /// This is the batched drain the machine uses so a burst of
    /// simultaneous bus completions does not re-touch the wheel per event.
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        let before = out.len();
        let at = self.wheel.pop_batch(out)?;
        self.delivered += (out.len() - before) as u64;
        Some(at)
    }

    /// Due time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }

    /// Total number of events ever scheduled.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total number of events delivered via [`EventQueue::pop`] or
    /// [`EventQueue::pop_batch`].
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// High-water mark of pending events (peak queue pressure).
    pub fn max_len(&self) -> usize {
        self.max_len
    }
}

impl<E> core::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now())
            .field("pending", &self.len())
            .field("scheduled", &self.scheduled)
            .field("delivered", &self.delivered)
            .field("max_len", &self.max_len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let got: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, [1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        let got: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_due_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop().unwrap();
        assert_eq!(q.now(), SimTime::from_nanos(42));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), "a");
        q.pop().unwrap();
        q.schedule_after(50, "b");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(150));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop().unwrap();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.schedule_after(1, ());
        q.schedule_after(2, ());
        q.pop();
        assert_eq!(q.scheduled(), 2);
        assert_eq!(q.delivered(), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.max_len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn max_len_is_a_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule_after(i + 1, i);
        }
        for _ in 0..10 {
            q.pop();
        }
        assert!(q.is_empty());
        assert_eq!(q.max_len(), 10);
        // Draining does not reset the mark.
        q.schedule_after(1, 0);
        assert_eq!(q.max_len(), 10);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule_after(9, 'x');
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_batch_counts_all_delivered() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.schedule(SimTime::from_nanos(7), i);
        }
        q.schedule(SimTime::from_nanos(9), 9);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), Some(SimTime::from_nanos(7)));
        assert_eq!(out, [0, 1, 2, 3]);
        assert_eq!(q.delivered(), 4);
        assert_eq!(q.now(), SimTime::from_nanos(7));
        out.clear();
        assert_eq!(q.pop_batch(&mut out), Some(SimTime::from_nanos(9)));
        assert_eq!(q.pop_batch(&mut out), None);
        assert_eq!(q.delivered(), 5);
    }

    #[test]
    fn interleaved_scheduling_preserves_global_order() {
        // Schedule from inside the drain loop, as the machine model does.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(0), 0u32);
        let mut seen = Vec::new();
        while let Some((t, e)) = q.pop() {
            seen.push((t.as_nanos(), e));
            if e < 5 {
                q.schedule_after(10, e + 1);
            }
        }
        assert_eq!(
            seen,
            vec![(0, 0), (10, 1), (20, 2), (30, 3), (40, 4), (50, 5)]
        );
    }

    #[test]
    fn heap_oracle_matches_event_queue_semantics() {
        let mut q: HeapQueue<u32> = HeapQueue::new();
        q.schedule(SimTime::from_nanos(5), 1);
        q.schedule(SimTime::from_nanos(5), 2);
        q.schedule(SimTime::from_nanos(3), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, [0, 1, 2]);
        assert_eq!(QueueImpl::<u32>::now(&q), SimTime::from_nanos(5));
    }

    #[test]
    fn heap_oracle_pop_batch_drains_one_instant() {
        let mut q: HeapQueue<u32> = HeapQueue::new();
        for i in 0..3 {
            q.schedule(SimTime::from_nanos(4), i);
        }
        q.schedule(SimTime::from_nanos(6), 9);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), Some(SimTime::from_nanos(4)));
        assert_eq!(out, [0, 1, 2]);
        assert_eq!(q.len(), 1);
    }
}
