//! Hierarchical timing-wheel scheduler: the O(1) backend of
//! [`EventQueue`](crate::EventQueue).
//!
//! The machine's delays are a tiny discrete set (50 ns bus words, 750 ns
//! cache/memory latencies) plus exponential think times — the textbook
//! case for a bucketed wheel instead of a comparison heap. Three tiers
//! share one slab arena:
//!
//! - **L0 (near wheel)**: 1024 one-nanosecond buckets covering the current
//!   1024-ns *page* (`at >> 10 == now >> 10`). Every protocol delay lands
//!   here directly or after one cascade. Because the bucket width is one
//!   tick, a bucket only ever holds events due at a single instant, so its
//!   intrusive FIFO list *is* the same-instant delivery order — no
//!   comparator, no per-entry sequence number.
//! - **L1 (far wheel)**: 1024 buckets of 1024 ns covering the current
//!   ~1.05 ms *superpage* (`at >> 20 == now >> 20`). Think times live
//!   here. When the clock first enters a page, that page's L1 bucket is
//!   cascaded into L0 (relinking arena slots — events are not moved or
//!   reallocated).
//! - **Overflow heap**: everything beyond the current superpage, ordered
//!   by `(at, seq)`. This is the only tier that still needs an insertion
//!   sequence number: a binary heap is not FIFO-stable on ties, and
//!   events parked here for the same far instant must re-enter the wheels
//!   in schedule order. When the clock first enters a superpage, all its
//!   overflow events are drained — in `(at, seq)` order — into L1.
//!
//! # FIFO proof sketch
//!
//! Same-instant FIFO holds *structurally*:
//!
//! 1. Two events for instant `t` scheduled while `t` is in the current
//!    page append to the same L0 bucket in call order.
//! 2. An event can only be scheduled into a *lower* tier than an earlier
//!    same-instant event if the clock advanced in between (the tier is a
//!    pure function of `t` and `now`, and `now` is monotonic). Cascades
//!    run when the clock *enters* a page/superpage — before any event
//!    inside it is delivered, hence before any handler runs and schedules
//!    again — so the earlier event has already been relinked into the
//!    lower tier (preserving its order) by the time the later one is
//!    appended behind it.
//! 3. Within the overflow heap, `(at, seq)` ordering restores schedule
//!    order among same-instant events as they drain into L1.
//!
//! Delivery in the past is structurally impossible: `schedule` asserts
//! `at >= now`, tiers only hold present-or-future instants, and the clock
//! only advances to the due time of the earliest pending bucket. The old
//! `BinaryHeap` implementation needed a defensive `debug_assert` for
//! this; the wheel's bucket arithmetic guarantees it (see
//! `clock_is_monotonic_under_random_churn` in the tests).
//!
//! Arena slots are recycled through a free list, so steady-state
//! scheduling performs no allocation at all.

use std::collections::BinaryHeap;

use crate::queue::QueueImpl;
use crate::time::SimTime;

/// log2 of the L0 bucket count (and of the L1 bucket width in ns).
const L0_BITS: u32 = 10;
/// log2 of the L1 bucket count.
const L1_BITS: u32 = 10;
/// Buckets per wheel level.
const BUCKETS: usize = 1 << L0_BITS;
/// Bitmap words per wheel level.
const WORDS: usize = BUCKETS / 64;
/// Index mask for either level.
const MASK: u64 = (BUCKETS as u64) - 1;
/// Null link in the slot arena.
const NIL: u32 = u32::MAX;

/// One arena slot: an event payload threaded into an intrusive FIFO.
struct Slot<E> {
    at: u64,
    next: u32,
    event: Option<E>,
}

/// An event parked beyond the current superpage. Ordered by `(at, seq)`
/// reversed, so the earliest (and among ties, first-scheduled) entry is
/// the max of the `BinaryHeap`.
struct FarEntry {
    at: u64,
    seq: u64,
    slot: u32,
}

impl PartialEq for FarEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for FarEntry {}
impl PartialOrd for FarEntry {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FarEntry {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One wheel level: bucket head/tail links plus an occupancy bitmap.
struct Level {
    head: Box<[u32; BUCKETS]>,
    tail: Box<[u32; BUCKETS]>,
    bits: [u64; WORDS],
    /// Lowest bucket index that can be non-empty (scan start hint).
    scan: usize,
}

impl Level {
    fn new() -> Self {
        Level {
            head: Box::new([NIL; BUCKETS]),
            tail: Box::new([NIL; BUCKETS]),
            bits: [0; WORDS],
            scan: 0,
        }
    }

    /// Index of the first non-empty bucket at or after `self.scan`.
    #[inline]
    fn first(&self) -> Option<usize> {
        let mut w = self.scan >> 6;
        if w >= WORDS {
            return None;
        }
        let mut word = self.bits[w] & (!0u64 << (self.scan & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == WORDS {
                return None;
            }
            word = self.bits[w];
        }
    }

    #[inline]
    fn set_bit(&mut self, idx: usize) {
        self.bits[idx >> 6] |= 1 << (idx & 63);
    }

    #[inline]
    fn clear_bit(&mut self, idx: usize) {
        self.bits[idx >> 6] &= !(1 << (idx & 63));
    }
}

/// The hierarchical timing wheel. See the module docs for the design.
pub struct TimingWheel<E> {
    now: u64,
    len: usize,
    slots: Vec<Slot<E>>,
    /// Free-list head over recycled arena slots.
    free: u32,
    l0: Level,
    l1: Level,
    far: BinaryHeap<FarEntry>,
    /// Insertion sequence for the overflow heap only.
    far_seq: u64,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// Creates an empty wheel with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        TimingWheel {
            now: 0,
            len: 0,
            slots: Vec::new(),
            free: NIL,
            l0: Level::new(),
            l1: Level::new(),
            far: BinaryHeap::new(),
            far_seq: 0,
        }
    }

    /// Allocates an arena slot, recycling from the free list when possible.
    #[inline]
    fn alloc(&mut self, at: u64, event: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.slots[idx as usize];
            self.free = slot.next;
            slot.at = at;
            slot.next = NIL;
            slot.event = Some(event);
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                at,
                next: NIL,
                event: Some(event),
            });
            idx
        }
    }

    /// Returns a slot to the free list.
    #[inline]
    fn release(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.next = self.free;
        self.free = idx;
    }

    /// Appends an (already-allocated) slot to an L0 bucket.
    #[inline]
    fn push_l0(&mut self, slot_idx: u32) {
        let at = self.slots[slot_idx as usize].at;
        let idx = (at & MASK) as usize;
        self.slots[slot_idx as usize].next = NIL;
        let tail = self.l0.tail[idx];
        if tail == NIL {
            self.l0.head[idx] = slot_idx;
            self.l0.set_bit(idx);
        } else {
            self.slots[tail as usize].next = slot_idx;
        }
        self.l0.tail[idx] = slot_idx;
    }

    /// Appends an (already-allocated) slot to an L1 bucket.
    #[inline]
    fn push_l1(&mut self, slot_idx: u32) {
        let at = self.slots[slot_idx as usize].at;
        let idx = ((at >> L0_BITS) & MASK) as usize;
        self.slots[slot_idx as usize].next = NIL;
        let tail = self.l1.tail[idx];
        if tail == NIL {
            self.l1.head[idx] = slot_idx;
            self.l1.set_bit(idx);
        } else {
            self.slots[tail as usize].next = slot_idx;
        }
        self.l1.tail[idx] = slot_idx;
    }

    /// Unlinks and frees the head of L0 bucket `idx`, returning its event.
    #[inline]
    fn pop_l0_head(&mut self, idx: usize) -> (u64, E) {
        let head = self.l0.head[idx];
        debug_assert_ne!(head, NIL);
        let slot = &mut self.slots[head as usize];
        let at = slot.at;
        let event = slot.event.take().expect("occupied slot");
        let next = slot.next;
        self.l0.head[idx] = next;
        if next == NIL {
            self.l0.tail[idx] = NIL;
            self.l0.clear_bit(idx);
        }
        self.release(head);
        self.len -= 1;
        (at, event)
    }

    /// Relinks every slot of L1 bucket `idx` into L0, preserving order.
    fn cascade_l1_bucket(&mut self, idx: usize) {
        let mut cur = self.l1.head[idx];
        self.l1.head[idx] = NIL;
        self.l1.tail[idx] = NIL;
        self.l1.clear_bit(idx);
        while cur != NIL {
            let next = self.slots[cur as usize].next;
            self.push_l0(cur);
            cur = next;
        }
        self.l0.scan = 0;
        // Everything left in L1 is in a strictly later bucket.
        self.l1.scan = idx + 1;
    }

    /// Drains every overflow entry of the earliest parked superpage into
    /// L1, in `(at, seq)` order. Returns `false` if the heap is empty.
    fn cascade_far_superpage(&mut self) -> bool {
        let Some(first) = self.far.pop() else {
            return false;
        };
        let superpage = first.at >> (L0_BITS + L1_BITS);
        self.push_l1(first.slot);
        while let Some(entry) = self.far.peek() {
            if entry.at >> (L0_BITS + L1_BITS) != superpage {
                break;
            }
            let entry = self.far.pop().expect("peeked entry");
            self.push_l1(entry.slot);
        }
        self.l1.scan = 0;
        true
    }

    /// Locates the L0 bucket of the earliest pending event, cascading
    /// upper tiers down as needed. `None` when the wheel is empty.
    #[inline]
    fn earliest_bucket(&mut self) -> Option<usize> {
        loop {
            if let Some(idx) = self.l0.first() {
                return Some(idx);
            }
            if let Some(idx) = self.l1.first() {
                self.cascade_l1_bucket(idx);
                continue;
            }
            if !self.cascade_far_superpage() {
                return None;
            }
        }
    }
}

impl<E> QueueImpl<E> for TimingWheel<E> {
    #[inline]
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.as_nanos();
        debug_assert!(at >= self.now, "wheel fed a past instant");
        let slot = self.alloc(at, event);
        self.len += 1;
        if at >> L0_BITS == self.now >> L0_BITS {
            self.push_l0(slot);
        } else if at >> (L0_BITS + L1_BITS) == self.now >> (L0_BITS + L1_BITS) {
            self.push_l1(slot);
        } else {
            let seq = self.far_seq;
            self.far_seq += 1;
            self.far.push(FarEntry { at, seq, slot });
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let idx = self.earliest_bucket()?;
        let (at, event) = self.pop_l0_head(idx);
        self.now = at;
        self.l0.scan = (at & MASK) as usize;
        Some((SimTime::from_nanos(at), event))
    }

    fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        let idx = self.earliest_bucket()?;
        // A one-tick bucket holds exactly one instant: drain it whole.
        let (at, event) = self.pop_l0_head(idx);
        out.push(event);
        while self.l0.head[idx] != NIL {
            let (_, event) = self.pop_l0_head(idx);
            out.push(event);
        }
        self.now = at;
        self.l0.scan = (at & MASK) as usize;
        Some(SimTime::from_nanos(at))
    }

    fn peek_time(&self) -> Option<SimTime> {
        // Strictly read-only: cascading here would leave L0/L1 holding a
        // future page while `now` lags behind, and a subsequent `schedule`
        // would route into colliding bucket indices. Cascades may only run
        // en route to a delivery (see the module docs). Between public
        // calls the tiers are strictly ordered in time — L0 holds only the
        // current page, L1 only later pages of the current superpage, the
        // overflow heap only later superpages — so the earliest pending
        // instant lives in the lowest non-empty tier.
        if let Some(idx) = self.l0.first() {
            return Some(SimTime::from_nanos(
                self.slots[self.l0.head[idx] as usize].at,
            ));
        }
        if let Some(idx) = self.l1.first() {
            // An L1 bucket spans 1024 ns and is FIFO, not time-ordered:
            // walk it for the minimum due time.
            let mut min = u64::MAX;
            let mut cur = self.l1.head[idx];
            while cur != NIL {
                let slot = &self.slots[cur as usize];
                min = min.min(slot.at);
                cur = slot.next;
            }
            return Some(SimTime::from_nanos(min));
        }
        self.far.peek().map(|e| SimTime::from_nanos(e.at))
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic generator (splitmix64) for churn tests.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn delivers_across_all_three_tiers() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        // L0 (same page), L1 (same superpage), far (beyond).
        w.schedule(SimTime::from_nanos(700), 0);
        w.schedule(SimTime::from_nanos(5_000), 1);
        w.schedule(SimTime::from_nanos(3_000_000), 2);
        w.schedule(SimTime::from_nanos(750), 3);
        let mut got = Vec::new();
        while let Some((t, e)) = w.pop() {
            got.push((t.as_nanos(), e));
        }
        assert_eq!(got, [(700, 0), (750, 3), (5_000, 1), (3_000_000, 2)]);
    }

    #[test]
    fn far_ties_drain_in_schedule_order() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        let far = SimTime::from_nanos(10_000_000);
        for i in 0..50 {
            w.schedule(far, i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn cross_tier_same_instant_is_fifo() {
        // Event A parks in the overflow heap; B for the same instant is
        // scheduled later, once the instant is near. A must still win.
        let mut w: TimingWheel<&str> = TimingWheel::new();
        let t = 2 * (1 << (L0_BITS + L1_BITS)) + 123;
        w.schedule(SimTime::from_nanos(t), "first");
        w.schedule(SimTime::from_nanos(t - 2_000), "mover");
        let (at, e) = w.pop().unwrap();
        assert_eq!((at.as_nanos(), e), (t - 2_000, "mover"));
        // Now `t` is within the current superpage: schedule the rival.
        w.schedule(SimTime::from_nanos(t), "second");
        let order: Vec<&str> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["first", "second"]);
    }

    #[test]
    fn pop_batch_returns_one_instant_whole() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        for i in 0..5 {
            w.schedule(SimTime::from_nanos(40), i);
        }
        w.schedule(SimTime::from_nanos(41), 99);
        let mut batch = Vec::new();
        let t = w.pop_batch(&mut batch).unwrap();
        assert_eq!(t, SimTime::from_nanos(40));
        assert_eq!(batch, [0, 1, 2, 3, 4]);
        batch.clear();
        assert_eq!(w.pop_batch(&mut batch), Some(SimTime::from_nanos(41)));
        assert_eq!(batch, [99]);
        assert_eq!(w.pop_batch(&mut batch), None);
    }

    #[test]
    fn arena_recycles_slots() {
        let mut w: TimingWheel<u64> = TimingWheel::new();
        for round in 0..10u64 {
            for i in 0..100 {
                w.schedule(SimTime::from_nanos(round * 10_000 + i), i);
            }
            while w.pop().is_some() {}
        }
        // The arena never grew beyond one round's peak.
        assert_eq!(w.slots.len(), 100);
    }

    #[test]
    fn clock_is_monotonic_under_random_churn() {
        let mut w: TimingWheel<u64> = TimingWheel::new();
        let mut state = 7u64;
        let mut last = 0u64;
        let mut pending = 0u32;
        for step in 0..50_000u64 {
            if pending == 0 || !mix(&mut state).is_multiple_of(3) {
                // Mix of near, page-crossing and far delays.
                let delay = match mix(&mut state) % 5 {
                    0 => 10,
                    1 => 50,
                    2 => 750,
                    3 => mix(&mut state) % 200_000,
                    _ => mix(&mut state) % 5_000_000,
                };
                let now = QueueImpl::<u64>::now(&w).as_nanos();
                w.schedule(SimTime::from_nanos(now + delay), step);
                pending += 1;
            } else {
                let (t, _) = w.pop().expect("pending events");
                assert!(t.as_nanos() >= last, "clock ran backwards");
                last = t.as_nanos();
                pending -= 1;
            }
        }
        while let Some((t, _)) = w.pop() {
            assert!(t.as_nanos() >= last);
            last = t.as_nanos();
        }
        assert_eq!(w.len(), 0);
    }
}
