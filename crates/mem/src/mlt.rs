//! The modified line table (MLT).
//!
//! "Associated with each processor is a modified line table, all of which
//! are identical for a given column. This table is used to store addresses
//! for all modified lines residing in caches in that column." (§3)
//!
//! The table is bounded — "this is why the modified line table is likely to
//! be implemented as a cache" (§6 footnote) — so an insertion into a full
//! table reports an overflow victim, which the protocol handles by forcing
//! the victim line back to global state unmodified (the
//! `READMOD (COLUMN, REPLY, INSERT)` overflow path in Appendix A).

use std::collections::VecDeque;

use crate::addr::{LineAddr, LineMap};

/// Result of inserting into a [`ModifiedLineTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MltInsert {
    /// The address was inserted (or already present) without overflow.
    Inserted,
    /// The table was full; the returned victim was dropped to make room.
    /// The protocol must write the victim back and mark it shared.
    Overflow(LineAddr),
}

/// A bounded table of line addresses held modified within one column.
///
/// Implemented as a FIFO-replacement cache of addresses: the paper leaves
/// the replacement policy open, and FIFO matches its "hardware queues"
/// simplicity argument. In the paper every controller in a column holds an
/// identical copy, kept in step by snooping column-bus INSERT/REMOVE
/// operations; since the copies never differ, one table can stand for a
/// whole column.
///
/// Membership ([`contains`](Self::contains)) and
/// [`remove`](Self::remove) — the per-bus-operation hot path — are O(1)
/// through a hash index; the FIFO arrival order needed for overflow
/// eviction lives in a queue of stamp-tagged entries with *lazy
/// deletion*: `remove` only drops the index entry, and the dead queue slot
/// is skipped at eviction time (and swept out wholesale once dead slots
/// dominate). The stamp makes a
/// remove-then-reinsert safe — the reinserted line gets a fresh stamp, so
/// its stale old slot can never be mistaken for the live one.
///
/// # Example
///
/// ```
/// use multicube_mem::{LineAddr, MltInsert, ModifiedLineTable};
///
/// let mut mlt = ModifiedLineTable::new(2);
/// assert_eq!(mlt.insert(LineAddr::new(1)), MltInsert::Inserted);
/// assert_eq!(mlt.insert(LineAddr::new(2)), MltInsert::Inserted);
/// // Full: inserting a third entry evicts the oldest.
/// assert_eq!(
///     mlt.insert(LineAddr::new(3)),
///     MltInsert::Overflow(LineAddr::new(1))
/// );
/// assert!(mlt.contains(&LineAddr::new(2)));
/// assert!(!mlt.contains(&LineAddr::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct ModifiedLineTable {
    capacity: usize,
    /// FIFO arrival order as `(line, stamp)`; a slot is live iff the index
    /// still maps the line to the same stamp.
    queue: VecDeque<(LineAddr, u64)>,
    /// Live membership: line → stamp of its current queue slot.
    index: LineMap<u64>,
    /// Monotonic insertion stamp.
    stamp: u64,
}

impl ModifiedLineTable {
    /// Creates a table holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "modified line table needs capacity");
        ModifiedLineTable {
            capacity,
            queue: VecDeque::new(),
            index: LineMap::default(),
            stamp: 0,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `line` is recorded as modified in this column.
    pub fn contains(&self, line: &LineAddr) -> bool {
        self.index.contains_key(line)
    }

    /// Inserts `line`, evicting the oldest entry on overflow.
    ///
    /// Inserting an already-present address refreshes nothing and reports
    /// [`MltInsert::Inserted`] (the table is a set).
    pub fn insert(&mut self, line: LineAddr) -> MltInsert {
        if self.index.contains_key(&line) {
            return MltInsert::Inserted;
        }
        let victim = if self.index.len() >= self.capacity {
            Some(self.pop_oldest().expect("full table has a live entry"))
        } else {
            None
        };
        self.stamp += 1;
        self.index.insert(line, self.stamp);
        self.queue.push_back((line, self.stamp));
        self.maybe_compact();
        match victim {
            Some(v) => MltInsert::Overflow(v),
            None => MltInsert::Inserted,
        }
    }

    /// Removes `line`; returns whether it was present.
    ///
    /// A failed remove is meaningful to the protocol: in
    /// `READ (COLUMN, REQUEST, REMOVE)` a losing racer observes
    /// `remove failed` and reissues its request.
    pub fn remove(&mut self, line: &LineAddr) -> bool {
        // Lazy deletion: the queue slot stays behind as a dead entry and is
        // skipped at eviction (or swept by compaction).
        self.index.remove(line).is_some()
    }

    /// Iterates over the entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &LineAddr> {
        self.queue
            .iter()
            .filter(|(l, s)| self.index.get(l) == Some(s))
            .map(|(l, _)| l)
    }

    /// Pops and returns the oldest *live* entry, discarding any dead slots
    /// in front of it.
    fn pop_oldest(&mut self) -> Option<LineAddr> {
        while let Some((line, s)) = self.queue.pop_front() {
            if self.index.get(&line) == Some(&s) {
                self.index.remove(&line);
                return Some(line);
            }
        }
        None
    }

    /// Sweeps dead slots once they outnumber live entries by enough that
    /// the queue no longer amortizes to O(capacity) storage.
    fn maybe_compact(&mut self) {
        if self.queue.len() > self.index.len() * 2 + 16 {
            let index = &self.index;
            self.queue.retain(|(l, s)| index.get(l) == Some(s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut mlt = ModifiedLineTable::new(4);
        assert_eq!(mlt.insert(line(7)), MltInsert::Inserted);
        assert!(mlt.contains(&line(7)));
        assert!(mlt.remove(&line(7)));
        assert!(!mlt.contains(&line(7)));
        assert!(!mlt.remove(&line(7)), "second remove fails");
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut mlt = ModifiedLineTable::new(2);
        mlt.insert(line(1));
        assert_eq!(mlt.insert(line(1)), MltInsert::Inserted);
        assert_eq!(mlt.len(), 1);
    }

    #[test]
    fn overflow_evicts_oldest() {
        let mut mlt = ModifiedLineTable::new(3);
        for i in 0..3 {
            mlt.insert(line(i));
        }
        assert_eq!(mlt.insert(line(10)), MltInsert::Overflow(line(0)));
        assert_eq!(mlt.len(), 3);
        let held: Vec<_> = mlt.iter().copied().collect();
        assert_eq!(held, vec![line(1), line(2), line(10)]);
    }

    #[test]
    fn reinsert_after_remove_rejoins_at_the_back() {
        // A remove-then-reinsert must not inherit the line's old FIFO slot:
        // the stale dead slot at the front would otherwise evict line 1 as
        // if it were oldest.
        let mut mlt = ModifiedLineTable::new(2);
        mlt.insert(line(1));
        mlt.insert(line(2));
        assert!(mlt.remove(&line(1)));
        mlt.insert(line(1)); // rejoins behind line 2
        assert_eq!(mlt.insert(line(3)), MltInsert::Overflow(line(2)));
        let held: Vec<_> = mlt.iter().copied().collect();
        assert_eq!(held, vec![line(1), line(3)]);
    }

    #[test]
    fn heavy_churn_keeps_queue_bounded_and_order_right() {
        let mut mlt = ModifiedLineTable::new(8);
        for i in 0..10_000u64 {
            mlt.insert(line(i % 64));
            mlt.remove(&line((i * 7) % 64));
        }
        assert!(mlt.len() <= 8);
        // Compaction must keep dead slots from accumulating without bound.
        assert!(
            mlt.queue.len() <= mlt.index.len() * 2 + 16,
            "queue {} live {}",
            mlt.queue.len(),
            mlt.index.len()
        );
        // iter() yields exactly the live lines.
        assert_eq!(mlt.iter().count(), mlt.len());
        for l in mlt.iter() {
            assert!(mlt.contains(l));
        }
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_panics() {
        let _ = ModifiedLineTable::new(0);
    }
}
