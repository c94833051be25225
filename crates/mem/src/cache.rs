//! A generic set-associative cache with LRU replacement.
//!
//! Each Multicube node's large DRAM snooping cache is a [`SetAssocCache`]
//! that stores the protocol's per-line mode with every line. The container
//! is protocol-agnostic: coherence semantics live in the `multicube` crate.

use core::num::NonZeroU64;

use crate::addr::LineAddr;

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
    /// `u16::MAX` (a resident way records its set in 16 bits).
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0, "cache needs at least one set");
        assert!(ways > 0, "cache needs at least one way");
        assert!(
            sets <= u32::from(u16::MAX),
            "cache has {sets} sets; a way records its set in 16 bits, so at most {}",
            u16::MAX
        );
        CacheGeometry { sets, ways }
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
    /// configured geometry), the general modulo otherwise. It fits in 16
    /// bits because `new` caps the set count.
    #[inline]
    fn set_of(self, line: LineAddr) -> u16 {
        let sets = u64::from(self.sets);
        if sets.is_power_of_two() {
            (line.index() & (sets - 1)) as u16
        } else {
            (line.index() % sets) as u16
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

/// One resident way.
#[derive(Debug, Clone)]
struct Way<M> {
    line: LineAddr,
    meta: M,
    /// Last-touch stamp for LRU within the set. Stamps start at 1, so the
    /// zero niche lets an empty [`Slot`] cost no space.
    touched: NonZeroU64,
    /// The line's set, which fixes its home bucket.
    set: u16,
}

/// One table bucket: a resident way, or `None` for a free one.
type Slot<M> = Option<Way<M>>;

/// A set-associative cache mapping [`LineAddr`] to per-line metadata `M`,
/// with LRU replacement within each set.
///
/// Lookups, insertions and removals scan one probe run, so they cost
/// O(ways) at the table's load. Absence of a line means "invalid" — the
/// protocol never stores an explicit invalid mode.
///
/// Storage is one open-addressing table of resident ways per cache, sized
/// by the lines it holds, not by its geometry. A way lives in the probe
/// run that starts at its set's home bucket, so all ways of a set share
/// one run, and a full set evicts the least recently touched member of
/// it. The table is allocated on the first insertion (a cache that was
/// never written costs nothing), doubles to stay at most half full, and
/// deletes by backward shift, so no tombstones build up.
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
    /// The resident ways, open-addressed with linear probing from each
    /// set's [`home`] bucket. Empty until the first insertion, so a
    /// machine built on one thread and run on another allocates it on the
    /// running thread only; after that a power of two of at least
    /// [`MIN_BUCKETS`] buckets, at least twice `len`.
    table: Vec<Slot<M>>,
    clock: u64,
    len: usize,
}

/// What one pass over a set's probe run finds.
struct Census {
    /// The bucket of the line looked for, if it is resident.
    found: Option<usize>,
    /// Resident ways of the set.
    used: u32,
    /// The set's least recently touched way: its stamp and bucket.
    lru: (u64, usize),
}

impl<M> SetAssocCache<M> {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        SetAssocCache {
            geometry,
            table: Vec::new(),
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

    /// The occupied buckets of `set`'s probe run, from its home bucket up
    /// to the first free one (nothing in an unwritten cache).
    #[inline]
    fn run(&self, set: u16) -> impl Iterator<Item = (usize, &Way<M>)> {
        let mask = self.table.len().wrapping_sub(1);
        let start = match self.table.len() {
            0 => 0,
            buckets => home(set, buckets),
        };
        (start..).map_while(move |i| {
            let i = i & mask;
            self.table.get(i)?.as_ref().map(|way| (i, way))
        })
    }

    /// The bucket holding `line`, if it is resident.
    #[inline]
    fn find(&self, line: &LineAddr) -> Option<usize> {
        self.run(self.geometry.set_of(*line))
            .find(|(_, way)| way.line == *line)
            .map(|(i, _)| i)
    }

    /// Takes a census of `line`'s set in one pass over its probe run.
    fn census(&self, line: &LineAddr) -> Census {
        let set = self.geometry.set_of(*line);
        let mut census = Census {
            found: None,
            used: 0,
            lru: (u64::MAX, 0),
        };
        for (i, way) in self.run(set).filter(|(_, way)| way.set == set) {
            if way.line == *line {
                census.found = Some(i);
            }
            census.used += 1;
            if way.touched.get() < census.lru.0 {
                census.lru = (way.touched.get(), i);
            }
        }
        census
    }

    fn way(&self, bucket: usize) -> &Way<M> {
        self.table[bucket].as_ref().expect("bucket is occupied")
    }

    fn way_mut(&mut self, bucket: usize) -> &mut Way<M> {
        self.table[bucket].as_mut().expect("bucket is occupied")
    }

    /// Looks up a line without affecting recency (a *snoop*, not an access).
    pub fn peek(&self, line: &LineAddr) -> Option<&M> {
        self.find(line).map(|i| &self.way(i).meta)
    }

    /// Looks up a line, updating LRU recency (a processor-side access).
    pub fn get(&mut self, line: &LineAddr) -> Option<&M> {
        self.get_mut(line).map(|meta| &*meta)
    }

    /// Mutable lookup, updating LRU recency.
    pub fn get_mut(&mut self, line: &LineAddr) -> Option<&mut M> {
        let stamp = self.tick();
        let way = self.way_mut(self.find(line)?);
        way.touched = stamp;
        Some(&mut way.meta)
    }

    /// Mutable lookup without touching recency (snoop-side state change).
    pub fn peek_mut(&mut self, line: &LineAddr) -> Option<&mut M> {
        let i = self.find(line)?;
        Some(&mut self.way_mut(i).meta)
    }

    /// Whether the line is resident.
    pub fn contains(&self, line: &LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Inserts or updates a line, returning the evicted victim if the set
    /// was full and the line was not already resident.
    ///
    /// The victim is the least recently used way of the line's set.
    pub fn insert(&mut self, line: LineAddr, meta: M) -> Option<Evicted<M>> {
        let touched = self.tick();
        let census = self.census(&line);
        if let Some(i) = census.found {
            let way = self.way_mut(i);
            way.meta = meta;
            way.touched = touched;
            return None;
        }
        let set = self.geometry.set_of(line);
        let way = Way {
            line,
            meta,
            touched,
            set,
        };
        if census.used < self.geometry.ways() {
            self.grow_for_one_more();
            let free = self.free_bucket(set);
            self.table[free] = Some(way);
            self.len += 1;
            return None;
        }
        // The new line shares the victim's home bucket, so it takes the
        // victim's bucket.
        let victim = self.table[census.lru.1]
            .replace(way)
            .expect("full set is nonempty");
        Some(Evicted {
            line: victim.line,
            meta: victim.meta,
        })
    }

    /// The line that would be evicted if `line` were inserted now: the LRU
    /// way of the target set, or `None` if there is a free way or the line
    /// is already resident.
    pub fn victim_for(&self, line: &LineAddr) -> Option<(LineAddr, &M)> {
        let census = self.census(line);
        if census.found.is_some() || census.used < self.geometry.ways() {
            return None;
        }
        let victim = self.way(census.lru.1);
        Some((victim.line, &victim.meta))
    }

    /// Removes a line, returning its metadata if it was resident.
    pub fn remove(&mut self, line: &LineAddr) -> Option<M> {
        let bucket = self.find(line)?;
        self.len -= 1;
        Some(self.take(bucket).meta)
    }

    /// Empties `hole` and shifts the rest of its run back, so every way
    /// stays reachable from its home bucket with no free bucket between.
    fn take(&mut self, mut hole: usize) -> Way<M> {
        let way = self.table[hole].take().expect("bucket is occupied");
        let buckets = self.table.len();
        let mask = buckets - 1;
        let mut i = (hole + 1) & mask;
        while let Some(next) = &self.table[i] {
            // `next` may fill the hole if the hole lies between its home
            // bucket and `i`, cyclically.
            if i.wrapping_sub(home(next.set, buckets)) & mask >= i.wrapping_sub(hole) & mask {
                self.table.swap(hole, i);
                hole = i;
            }
            i = (i + 1) & mask;
        }
        way
    }

    /// The first free bucket of `set`'s probe run.
    fn free_bucket(&self, set: u16) -> usize {
        let mask = self.table.len() - 1;
        let mut i = home(set, self.table.len());
        while self.table[i].is_some() {
            i = (i + 1) & mask;
        }
        i
    }

    /// Doubles the table (allocating it on first use) if one more way
    /// would fill more than half of it, re-placing every way.
    fn grow_for_one_more(&mut self) {
        if 2 * (self.len + 1) <= self.table.len() {
            return;
        }
        let buckets = (2 * self.table.len()).max(MIN_BUCKETS);
        let old = std::mem::replace(&mut self.table, (0..buckets).map(|_| None).collect());
        for way in old.into_iter().flatten() {
            let free = self.free_bucket(way.set);
            self.table[free] = Some(way);
        }
    }

    /// Iterates over all resident `(line, meta)` pairs in table order,
    /// which is no particular order. It allocates nothing.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &M)> {
        self.table.iter().flatten().map(|way| (way.line, &way.meta))
    }
}

/// Buckets of a newly allocated table: room for four ways.
const MIN_BUCKETS: usize = 8;

/// The home bucket of `set` in a table of `buckets` buckets, a power of
/// two: the top bits of a Fibonacci hash, which spreads neighbouring sets
/// apart so their runs do not merge.
#[inline]
fn home(set: u16, buckets: usize) -> usize {
    (u64::from(set).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - buckets.trailing_zeros())) as usize
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
        assert!(c.iter().any(|(l, &m)| l == line(7) && m == 7));
    }

    #[test]
    fn fully_associative_uses_whole_capacity() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 8));
        for i in 0..8 {
            assert!(c.insert(line(i * 100), 0).is_none());
        }
        assert!(c.insert(line(999), 0).is_some());
    }

    #[test]
    fn slots_are_no_larger_than_ways() {
        use core::mem::size_of;
        assert_eq!(size_of::<Slot<()>>(), 24);
        assert_eq!(size_of::<Slot<u32>>(), size_of::<Way<u32>>());
        assert_eq!(size_of::<Slot<(u8, u64)>>(), size_of::<Way<(u8, u64)>>());
    }

    #[test]
    fn untouched_sets_allocate_nothing() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1024, 4));
        assert!(c.peek(&line(5)).is_none());
        assert!(c.get(&line(5)).is_none());
        assert!(c.peek_mut(&line(5)).is_none());
        assert!(c.victim_for(&line(5)).is_none());
        assert!(c.remove(&line(5)).is_none());
        assert!(c.iter().next().is_none());
        assert_eq!(c.table.capacity(), 0, "the table waits for a write");
        // Four lines in three of the 1,024 sets fit the smallest table.
        c.insert(line(5), 5);
        c.insert(line(5 + 1024), 6);
        c.insert(line(6), 7);
        c.insert(line(7), 8);
        assert_eq!(c.table.capacity(), MIN_BUCKETS);
    }

    #[test]
    fn a_u16_max_set_cache_holds_a_line_in_every_set() {
        let sets = u64::from(u16::MAX);
        let mut c: SetAssocCache<u64> = SetAssocCache::new(CacheGeometry::new(sets as u32, 1));
        for set in (0..sets).rev() {
            assert!(c.insert(line(set), set).is_none());
        }
        assert_eq!(c.len(), sets as usize);
        assert!((0..sets).all(|set| c.peek(&line(set)) == Some(&set)));
        let mut resident: Vec<u64> = c.iter().map(|(l, _)| l.index()).collect();
        resident.sort_unstable();
        assert!(resident.into_iter().eq(0..sets));
    }

    #[test]
    #[should_panic(expected = "at most 65535")]
    fn sets_beyond_the_directory_limit_panic() {
        let _ = CacheGeometry::new(65_536, 1);
    }

    #[test]
    fn a_thousand_lines_in_distinct_sets_take_at_most_2048_buckets() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1024, 4));
        for i in 0..1000 {
            assert!(c.insert(line(i), i as u32).is_none());
        }
        assert!(c.table.len() <= 2048, "{} buckets", c.table.len());
        assert!((0..1000).all(|i| c.peek(&line(i)) == Some(&(i as u32))));
    }

    #[test]
    fn wrap_sets_home_at_both_ends_of_small_tables() {
        // `crates/mem/tests/cache_properties.rs` folds its wrap-around
        // lockstep test onto sets 0, 3, 8 and 21 of a 64-set cache, whose
        // runs must cross the end of every table it grows through.
        let homes: Vec<[usize; 4]> = [8, 16, 32]
            .into_iter()
            .map(|buckets| [0, 3, 8, 21].map(|set| home(set, buckets)))
            .collect();
        assert_eq!(homes, [[0, 6, 7, 7], [0, 13, 15, 15], [0, 27, 30, 31]]);
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
