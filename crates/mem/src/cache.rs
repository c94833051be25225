//! A generic set-associative cache with LRU replacement.
//!
//! Both cache levels of the Multicube node are instances of
//! [`SetAssocCache`]: the small SRAM processor cache stores plain presence
//! (`M = ()`), while the large DRAM snooping cache stores the protocol's
//! per-line mode enum. The container is protocol-agnostic: coherence
//! semantics live in the `multicube` crate.

use core::num::NonZeroU64;

use crate::addr::{LineAddr, LineMap};

/// Shape of a set-associative cache.
///
/// Capacity is `sets * ways` lines; a line maps to set `index % sets`.
/// `sets == 1` gives a fully-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    sets: u32,
    ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero, or if `sets` exceeds
    /// `u16::MAX` (the set directory numbers sets' blocks in 16 bits).
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0, "cache needs at least one set");
        assert!(ways > 0, "cache needs at least one way");
        assert!(
            sets <= u32::from(u16::MAX),
            "cache has {sets} sets; the set directory supports at most {}",
            u16::MAX
        );
        CacheGeometry { sets, ways }
    }

    /// A fully-associative geometry with the given capacity in lines.
    pub fn fully_associative(capacity: u32) -> Self {
        CacheGeometry::new(1, capacity)
    }

    /// Number of sets.
    pub fn sets(self) -> u32 {
        self.sets
    }

    /// Ways per set.
    pub fn ways(self) -> u32 {
        self.ways
    }

    /// Total capacity in lines.
    pub fn capacity(self) -> u32 {
        self.sets * self.ways
    }

    /// The set a line maps to: a mask when `sets` is a power of two (every
    /// configured geometry), the general modulo otherwise.
    #[inline]
    fn set_of(self, line: LineAddr) -> usize {
        let sets = u64::from(self.sets);
        if sets.is_power_of_two() {
            (line.index() & (sets - 1)) as usize
        } else {
            (line.index() % sets) as usize
        }
    }
}

/// A line evicted to make room for an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted<M> {
    /// The evicted line's address.
    pub line: LineAddr,
    /// The metadata the line held when evicted.
    pub meta: M,
}

/// One way of one set.
#[derive(Debug, Clone)]
struct Way<M> {
    line: LineAddr,
    meta: M,
    /// Last-touch stamp for LRU within the set. Stamps start at 1, so the
    /// zero niche lets an empty [`Slot`] cost no space.
    touched: NonZeroU64,
}

/// One arena slot: a resident way, or `None` for a free one.
type Slot<M> = Option<Way<M>>;

/// A set-associative cache mapping [`LineAddr`] to per-line metadata `M`,
/// with LRU replacement within each set.
///
/// Lookups, insertions and removals are O(ways). Absence of a line means
/// "invalid" — the protocol never stores an explicit invalid mode.
///
/// Storage is one slot arena per cache. A set owns a block of `ways`
/// consecutive slots, allocated on its first insertion. A two-level sparse
/// directory finds a set's block: one entry per page of 64 sets, and a
/// page of block numbers allocated on the first insertion into any of its
/// sets. A cache of 1,024 sets costs nothing until its first insertion,
/// then 32 bytes of directory plus 128 bytes per page it has written, so a
/// cache that saw a handful of sets costs a few hundred bytes, not one
/// entry per set. The arena is a list of segments of 4, 8, 16, ... up to
/// 64 blocks, each allocated once at its final size, so growth never
/// copies or frees slots. Within a block the resident ways form a prefix,
/// kept in insertion order with swap-removal, so iteration order matches a
/// per-set vector exactly.
///
/// # Example
///
/// ```
/// use multicube_mem::{CacheGeometry, LineAddr, SetAssocCache};
///
/// let mut cache: SetAssocCache<&str> = SetAssocCache::new(CacheGeometry::new(2, 2));
/// cache.insert(LineAddr::new(0), "a");
/// cache.insert(LineAddr::new(2), "b"); // same set as line 0
/// cache.insert(LineAddr::new(4), "c"); // evicts LRU of that set: line 0
/// let evicted = cache.insert(LineAddr::new(6), "d").unwrap();
/// assert_eq!(evicted.line, LineAddr::new(2));
/// assert!(cache.get(&LineAddr::new(4)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<M> {
    geometry: CacheGeometry,
    /// The set directory, then its pages, in one vector, allocated on the
    /// first insertion (empty until then), so a machine built on one thread
    /// and run on another allocates and grows it on the running thread
    /// only. The first `sets.div_ceil(PAGE_SETS)` entries hold, per page of
    /// sets, 0 if no set of the page was ever written, else 1 + the page's
    /// number. Page `p` is the [`PAGE_SETS`] entries after the directory's
    /// end at offset `p * PAGE_SETS`; each holds, per set, 0 if never
    /// written, else 1 + the number of its block.
    index: Vec<u16>,
    /// The slot arena, in segments (see [`segment_of`]).
    segments: Vec<Vec<Slot<M>>>,
    /// Blocks allocated so far.
    allocated: usize,
    clock: u64,
    len: usize,
}

impl<M> SetAssocCache<M> {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        SetAssocCache {
            geometry,
            index: Vec::new(),
            segments: Vec::new(),
            allocated: 0,
            clock: 0,
            len: 0,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn tick(&mut self) -> NonZeroU64 {
        self.clock += 1;
        NonZeroU64::new(self.clock).expect("clock starts at 1")
    }

    /// Position in `index` of `set`'s block number, if its page exists.
    #[inline]
    fn block_entry(&self, set: usize) -> Option<usize> {
        let page = self.index.get(set / PAGE_SETS)?.checked_sub(1)? as usize;
        Some(directory_len(self.geometry) + page * PAGE_SETS + set % PAGE_SETS)
    }

    /// Segment index and slot offset of a set's block, if the set was
    /// ever written.
    #[inline]
    fn locate(&self, set: usize) -> Option<(usize, usize)> {
        let block = self.index[self.block_entry(set)?].checked_sub(1)?;
        Some(block_slots(block as usize, self.geometry.ways() as usize))
    }

    /// The slots of `line`'s set (empty if the set was never written).
    #[inline]
    fn set_ways(&self, line: &LineAddr) -> &[Slot<M>] {
        let ways = self.geometry.ways() as usize;
        match self.locate(self.geometry.set_of(*line)) {
            Some((segment, off)) => &self.segments[segment][off..off + ways],
            None => &[],
        }
    }

    /// Mutable slots of `line`'s set (empty if the set was never written).
    #[inline]
    fn set_ways_mut(&mut self, line: &LineAddr) -> &mut [Slot<M>] {
        let ways = self.geometry.ways() as usize;
        match self.locate(self.geometry.set_of(*line)) {
            Some((segment, off)) => &mut self.segments[segment][off..off + ways],
            None => &mut [],
        }
    }

    /// The slots of `line`'s set, allocating its page and block on first
    /// use. A new segment is sized once, capped at the sets still without
    /// a block.
    fn set_ways_alloc(&mut self, line: &LineAddr) -> &mut [Slot<M>] {
        let set = self.geometry.set_of(*line);
        let entry = match self.block_entry(set) {
            Some(entry) => entry,
            None => {
                if self.index.is_empty() {
                    let directory = directory_len(self.geometry);
                    self.index.reserve_exact(directory + PAGE_SETS);
                    self.index.resize(directory, 0);
                }
                let page = (self.index.len() - directory_len(self.geometry)) / PAGE_SETS;
                self.index[set / PAGE_SETS] = page as u16 + 1;
                self.index.resize(self.index.len() + PAGE_SETS, 0);
                self.block_entry(set).expect("page just allocated")
            }
        };
        if self.index[entry] == 0 {
            let ways = self.geometry.ways() as usize;
            let block = self.allocated;
            let (segment, _) = segment_of(block);
            if segment == self.segments.len() {
                let blocks = (MIN_SEGMENT_BLOCKS << segment.min(DOUBLING_SEGMENTS))
                    .min(MAX_SEGMENT_BLOCKS)
                    .min(self.geometry.sets() as usize - block);
                self.segments.push(Vec::with_capacity(blocks * ways));
            }
            let slots = &mut self.segments[segment];
            slots.resize_with(slots.len() + ways, || None);
            self.allocated += 1;
            // Blocks number sets, and `CacheGeometry::new` caps the set
            // count at `u16::MAX`, so `block + 1` fits.
            self.index[entry] = block as u16 + 1;
        }
        self.set_ways_mut(line)
    }

    /// Looks up a line without affecting recency (a *snoop*, not an access).
    pub fn peek(&self, line: &LineAddr) -> Option<&M> {
        resident(self.set_ways(line))
            .find(|w| w.line == *line)
            .map(|w| &w.meta)
    }

    /// Looks up a line, updating LRU recency (a processor-side access).
    pub fn get(&mut self, line: &LineAddr) -> Option<&M> {
        self.get_mut(line).map(|meta| &*meta)
    }

    /// Mutable lookup, updating LRU recency.
    pub fn get_mut(&mut self, line: &LineAddr) -> Option<&mut M> {
        let stamp = self.tick();
        let way = resident_mut(self.set_ways_mut(line)).find(|w| w.line == *line)?;
        way.touched = stamp;
        Some(&mut way.meta)
    }

    /// Mutable lookup without touching recency (snoop-side state change).
    pub fn peek_mut(&mut self, line: &LineAddr) -> Option<&mut M> {
        resident_mut(self.set_ways_mut(line))
            .find(|w| w.line == *line)
            .map(|w| &mut w.meta)
    }

    /// Whether the line is resident.
    pub fn contains(&self, line: &LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts or updates a line, returning the evicted victim if the set
    /// was full and the line was not already resident.
    ///
    /// The victim is the least recently used way of the line's set.
    pub fn insert(&mut self, line: LineAddr, meta: M) -> Option<Evicted<M>> {
        let touched = self.tick();
        let set = self.set_ways_alloc(&line);
        let used = resident(set).count();
        if let Some(way) = resident_mut(set).find(|w| w.line == line) {
            way.meta = meta;
            way.touched = touched;
            return None;
        }
        let way = Way {
            line,
            meta,
            touched,
        };
        if used < set.len() {
            set[used] = Some(way);
            self.len += 1;
            return None;
        }
        // Full set: the last way moves into the victim's slot and the new
        // line takes the last one (a vector's swap-remove, then push).
        let last = used - 1;
        set.swap(lru_index(set), last);
        let victim = set[last].replace(way).expect("full set is nonempty");
        Some(Evicted {
            line: victim.line,
            meta: victim.meta,
        })
    }

    /// The line that would be evicted if `line` were inserted now: the LRU
    /// way of the target set, or `None` if there is a free way or the line
    /// is already resident.
    pub fn victim_for(&self, line: &LineAddr) -> Option<(LineAddr, &M)> {
        let set = self.set_ways(line);
        if resident(set).any(|w| w.line == *line) {
            return None;
        }
        if resident(set).count() < self.geometry.ways() as usize {
            return None;
        }
        let victim = set[lru_index(set)].as_ref()?;
        Some((victim.line, &victim.meta))
    }

    /// Removes a line, returning its metadata if it was resident.
    pub fn remove(&mut self, line: &LineAddr) -> Option<M> {
        let set = self.set_ways_mut(line);
        let pos = resident(set).position(|w| w.line == *line)?;
        let last = resident(set).count() - 1;
        set.swap(pos, last);
        let way = set[last].take().expect("resident way");
        self.len -= 1;
        Some(way.meta)
    }

    /// Iterates over all resident `(line, meta)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &M)> {
        let ways = self.geometry.ways() as usize;
        written_blocks(&self.index, self.geometry)
            .map(move |block| block_slots(block, ways))
            .flat_map(move |(segment, off)| resident(&self.segments[segment][off..off + ways]))
            .map(|w| (w.line, &w.meta))
    }

    /// Drains the cache, returning all resident lines.
    pub fn drain(&mut self) -> Vec<(LineAddr, M)> {
        let ways = self.geometry.ways() as usize;
        let mut out = Vec::with_capacity(self.len);
        for block in written_blocks(&self.index, self.geometry) {
            let (segment, off) = block_slots(block, ways);
            for slot in &mut self.segments[segment][off..off + ways] {
                let Some(w) = slot.take() else { break };
                out.push((w.line, w.meta));
            }
        }
        self.len = 0;
        out
    }

    /// Collects the resident lines into a map (for invariant checking).
    pub fn snapshot(&self) -> LineMap<M>
    where
        M: Clone,
    {
        self.iter().map(|(l, m)| (l, m.clone())).collect()
    }
}

/// Sets per page of the set directory.
const PAGE_SETS: usize = 64;

/// Entries of the set directory proper: one per page of sets.
#[inline]
fn directory_len(geometry: CacheGeometry) -> usize {
    (geometry.sets() as usize).div_ceil(PAGE_SETS)
}

/// The blocks of a cache's written sets, in ascending set order: only
/// allocated pages are visited.
fn written_blocks(index: &[u16], geometry: CacheGeometry) -> impl Iterator<Item = usize> + '_ {
    // An unwritten cache has not allocated its directory yet.
    let (directory, pages) = index.split_at(directory_len(geometry).min(index.len()));
    directory
        .iter()
        .filter_map(|&page| page.checked_sub(1))
        .flat_map(move |page| {
            let first = page as usize * PAGE_SETS;
            &pages[first..first + PAGE_SETS]
        })
        .filter_map(|&block| block.checked_sub(1).map(usize::from))
}

/// Segment index and slot offset of block `block` of `ways` slots.
#[inline]
fn block_slots(block: usize, ways: usize) -> (usize, usize) {
    let (segment, first) = segment_of(block);
    (segment, (block - first) * ways)
}

/// Blocks in the first arena segment: enough for the handful of sets a
/// lightly used cache touches, in one allocation.
const MIN_SEGMENT_BLOCKS: usize = 4;

/// Blocks in the largest arena segment. Segments double up to this size
/// and stay there, so a cache wastes at most one partly filled segment.
const MAX_SEGMENT_BLOCKS: usize = 64;

/// Blocks held by the doubling segments, `MIN..=MAX` blocks each.
const DOUBLING_BLOCKS: usize = 2 * MAX_SEGMENT_BLOCKS - MIN_SEGMENT_BLOCKS;

/// Doublings from the first segment's size to the largest's.
const DOUBLING_SEGMENTS: usize = (MAX_SEGMENT_BLOCKS / MIN_SEGMENT_BLOCKS).ilog2() as usize;

/// The arena segment holding block `block`, and the segment's first block.
/// Segment `k` holds `MIN_SEGMENT_BLOCKS << k` blocks up to
/// [`MAX_SEGMENT_BLOCKS`]; every later segment holds that many.
#[inline]
fn segment_of(block: usize) -> (usize, usize) {
    if block < DOUBLING_BLOCKS {
        let segment = (block / MIN_SEGMENT_BLOCKS + 1).ilog2() as usize;
        (segment, MIN_SEGMENT_BLOCKS * ((1 << segment) - 1))
    } else {
        let past = (block - DOUBLING_BLOCKS) / MAX_SEGMENT_BLOCKS;
        (
            DOUBLING_SEGMENTS + 1 + past,
            DOUBLING_BLOCKS + past * MAX_SEGMENT_BLOCKS,
        )
    }
}

/// The resident prefix of a set's slots.
#[inline]
fn resident<M>(set: &[Slot<M>]) -> impl Iterator<Item = &Way<M>> {
    set.iter().map_while(Option::as_ref)
}

/// The resident prefix of a set's slots, mutably.
#[inline]
fn resident_mut<M>(set: &mut [Slot<M>]) -> impl Iterator<Item = &mut Way<M>> {
    set.iter_mut().map_while(Option::as_mut)
}

/// Position of the least recently used way of a nonempty set. Stamps are
/// unique, so the victim is too.
fn lru_index<M>(set: &[Slot<M>]) -> usize {
    resident(set)
        .enumerate()
        .min_by_key(|(_, w)| w.touched)
        .map(|(i, _)| i)
        .expect("full set is nonempty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(4, 2));
        assert!(c.insert(line(1), 10).is_none());
        assert_eq!(c.get(&line(1)), Some(&10));
        assert_eq!(c.peek(&line(1)), Some(&10));
        assert!(c.get(&line(2)).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn update_existing_does_not_evict() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 1));
        c.insert(line(1), 10);
        assert!(c.insert(line(1), 20).is_none());
        assert_eq!(c.peek(&line(1)), Some(&20));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 2));
        c.insert(line(1), 1);
        c.insert(line(2), 2);
        c.get(&line(1)); // line 2 is now LRU
        let ev = c.insert(line(3), 3).unwrap();
        assert_eq!(ev.line, line(2));
        assert_eq!(ev.meta, 2);
        assert!(c.contains(&line(1)) && c.contains(&line(3)));
    }

    #[test]
    fn peek_does_not_affect_lru() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 2));
        c.insert(line(1), 1);
        c.insert(line(2), 2);
        c.peek(&line(1)); // should NOT refresh line 1
        let ev = c.insert(line(3), 3).unwrap();
        assert_eq!(ev.line, line(1));
    }

    #[test]
    fn set_indexing_isolates_sets() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(2, 1));
        c.insert(line(0), 0); // set 0
        c.insert(line(1), 1); // set 1
        assert!(c.insert(line(3), 3).unwrap().line == line(1)); // set 1 again
        assert!(c.contains(&line(0)));
    }

    #[test]
    fn victim_for_predicts_eviction() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 2));
        c.insert(line(1), 1);
        assert!(c.victim_for(&line(9)).is_none()); // free way
        c.insert(line(2), 2);
        assert!(c.victim_for(&line(1)).is_none()); // already resident
        let (victim, _) = c.victim_for(&line(9)).unwrap();
        let ev = c.insert(line(9), 9).unwrap();
        assert_eq!(ev.line, victim);
    }

    #[test]
    fn remove_frees_space() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 1));
        c.insert(line(1), 1);
        assert_eq!(c.remove(&line(1)), Some(1));
        assert_eq!(c.remove(&line(1)), None);
        assert!(c.insert(line(2), 2).is_none());
    }

    #[test]
    fn get_mut_changes_value() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 4));
        c.insert(line(1), 1);
        *c.get_mut(&line(1)).unwrap() = 99;
        assert_eq!(c.peek(&line(1)), Some(&99));
    }

    #[test]
    fn peek_mut_does_not_affect_lru() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 2));
        c.insert(line(1), 1);
        c.insert(line(2), 2);
        *c.peek_mut(&line(1)).unwrap() = 11;
        let ev = c.insert(line(3), 3).unwrap();
        assert_eq!(ev.line, line(1)); // still LRU despite peek_mut
    }

    #[test]
    fn iter_and_snapshot_cover_all_lines() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(4, 4));
        for i in 0..10 {
            c.insert(line(i), i as u32);
        }
        assert_eq!(c.iter().count(), 10);
        let snap = c.snapshot();
        assert_eq!(snap.len(), 10);
        assert_eq!(snap[&line(7)], 7);
    }

    #[test]
    fn drain_empties() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(2, 2));
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn fully_associative_uses_whole_capacity() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::fully_associative(8));
        for i in 0..8 {
            assert!(c.insert(line(i * 100), 0).is_none());
        }
        assert!(c.insert(line(999), 0).is_some());
    }

    #[test]
    fn slots_are_no_larger_than_ways() {
        use core::mem::size_of;
        assert_eq!(size_of::<Slot<()>>(), 16);
        assert_eq!(size_of::<Slot<u32>>(), size_of::<Way<u32>>());
        assert_eq!(size_of::<Slot<(u8, u64)>>(), size_of::<Way<(u8, u64)>>());
    }

    /// Directory pages a cache has allocated.
    fn pages<M>(c: &SetAssocCache<M>) -> usize {
        c.index.len().saturating_sub(directory_len(c.geometry)) / PAGE_SETS
    }

    #[test]
    fn untouched_sets_allocate_nothing() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1024, 4));
        assert_eq!(pages(&c), 0);
        assert_eq!(c.index.capacity(), 0, "the directory waits for a write");
        assert!(c.peek(&line(5)).is_none());
        assert!(c.victim_for(&line(5)).is_none());
        assert!(c.remove(&line(5)).is_none());
        assert!(c.segments.is_empty());
        assert_eq!(pages(&c), 0);
        c.insert(line(5), 5);
        c.insert(line(5 + 1024), 6);
        assert_eq!(c.allocated, 1);
        c.insert(line(6), 7);
        c.insert(line(7), 8);
        assert_eq!(c.allocated, 3);
        let sizes: Vec<usize> = c.segments.iter().map(Vec::capacity).collect();
        assert_eq!(sizes, [16]);
        assert_eq!(
            c.iter().map(|(l, _)| l.index()).collect::<Vec<_>>(),
            [5, 1029, 6, 7]
        );
    }

    #[test]
    fn pages_are_allocated_on_first_write_to_any_of_their_sets() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1024, 4));
        // Sets 3, 900, 70, 64 and 1023 lie in pages 0, 14, 1, 1 and 15.
        for (k, set) in [3u64, 900, 70, 64, 1023].into_iter().enumerate() {
            c.insert(line(set), k as u32);
            c.insert(line(set + 1024), k as u32);
        }
        assert_eq!(pages(&c), 4);
        assert_eq!(c.allocated, 5);
        // Ascending set order, whatever the order of first writes.
        assert_eq!(
            c.iter().map(|(l, _)| l.index()).collect::<Vec<_>>(),
            [3, 1027, 64, 1088, 70, 1094, 900, 1924, 1023, 2047]
        );
        let drained: Vec<u64> = c.drain().into_iter().map(|(l, _)| l.index()).collect();
        assert_eq!(
            drained,
            [3, 1027, 64, 1088, 70, 1094, 900, 1924, 1023, 2047]
        );
        assert!(c.is_empty() && c.iter().next().is_none());
    }

    #[test]
    fn a_partial_last_page_covers_the_remaining_sets() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(65, 1));
        c.insert(line(64), 64);
        assert_eq!(c.index.len(), 2 + PAGE_SETS);
        assert_eq!(pages(&c), 1);
        c.insert(line(0), 0);
        assert_eq!(pages(&c), 2);
        assert_eq!(c.insert(line(129), 129).map(|e| e.line), Some(line(64)));
        assert_eq!(
            c.iter().map(|(l, _)| l.index()).collect::<Vec<_>>(),
            [0, 129]
        );
    }

    #[test]
    fn the_largest_geometry_numbers_every_block() {
        let sets = u64::from(u16::MAX);
        let mut c: SetAssocCache<u64> = SetAssocCache::new(CacheGeometry::new(sets as u32, 1));
        for set in (0..sets).rev() {
            c.insert(line(set), set);
        }
        assert_eq!(c.allocated, sets as usize);
        assert_eq!(pages(&c), 1024);
        assert!((0..sets).all(|set| c.peek(&line(set)) == Some(&set)));
        assert!(c.iter().map(|(l, _)| l.index()).eq(0..sets));
    }

    #[test]
    #[should_panic(expected = "at most 65535")]
    fn sets_beyond_the_directory_limit_panic() {
        let _ = CacheGeometry::new(65_536, 1);
    }

    #[test]
    fn segments_double_then_stay_flat() {
        let starts: Vec<(usize, usize)> = [0, 3, 4, 11, 12, 123, 124, 187, 188, 1023]
            .into_iter()
            .map(segment_of)
            .collect();
        assert_eq!(
            starts,
            [
                (0, 0),
                (0, 0),
                (1, 4),
                (1, 4),
                (2, 12),
                (4, 60),
                (5, 124),
                (5, 124),
                (6, 188),
                (19, 1020)
            ]
        );
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(200, 1));
        for i in 0..200 {
            c.insert(line(i), 0);
        }
        let sizes: Vec<usize> = c.segments.iter().map(Vec::len).collect();
        assert_eq!(sizes, [4, 8, 16, 32, 64, 64, 12]);
        assert_eq!(c.iter().count(), 200);
    }

    #[test]
    fn non_power_of_two_sets_use_modulo() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(3, 1));
        c.insert(line(1), 1);
        assert_eq!(c.insert(line(4), 4).map(|e| e.line), Some(line(1)));
        assert!(c.insert(line(2), 2).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = CacheGeometry::new(4, 0);
    }
}
