//! Property tests for the memory-hierarchy containers.

use multicube_mem::{
    CacheGeometry, LineAddr, LineVersion, MemoryBank, MltInsert, ModifiedLineTable, SetAssocCache,
};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum CacheOp {
    Insert(u64, u32),
    Get(u64),
    Remove(u64),
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..64, any::<u32>()).prop_map(|(l, m)| CacheOp::Insert(l, m)),
            (0u64..64).prop_map(CacheOp::Get),
            (0u64..64).prop_map(CacheOp::Remove),
        ],
        0..200,
    )
}

/// The retired `Vec<Vec<Way>>` cache layout, kept as the differential
/// oracle for the open-addressing [`SetAssocCache`]: every set is its own
/// vector, insertion pushes, removal swap-removes, and the victim is the
/// way with the smallest last-touch stamp.
struct VecOfVecsCache {
    sets: Vec<Vec<(u64, u32, u64)>>,
    ways: usize,
    clock: u64,
    len: usize,
}

impl VecOfVecsCache {
    fn new(sets: u32, ways: u32) -> Self {
        VecOfVecsCache {
            sets: (0..sets).map(|_| Vec::new()).collect(),
            ways: ways as usize,
            clock: 0,
            len: 0,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<(u64, u32, u64)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn peek(&mut self, line: u64) -> Option<u32> {
        self.set(line).iter().find(|w| w.0 == line).map(|w| w.1)
    }

    fn get(&mut self, line: u64) -> Option<u32> {
        let stamp = self.tick();
        let way = self.set(line).iter_mut().find(|w| w.0 == line)?;
        way.2 = stamp;
        Some(way.1)
    }

    fn insert(&mut self, line: u64, meta: u32) -> Option<(u64, u32)> {
        let stamp = self.tick();
        let ways = self.ways;
        let set = self.set(line);
        if let Some(way) = set.iter_mut().find(|w| w.0 == line) {
            *way = (line, meta, stamp);
            return None;
        }
        let mut evicted = None;
        if set.len() >= ways {
            let lru = (0..set.len()).min_by_key(|&i| set[i].2).unwrap();
            let victim = set.swap_remove(lru);
            evicted = Some((victim.0, victim.1));
        }
        set.push((line, meta, stamp));
        if evicted.is_none() {
            self.len += 1;
        }
        evicted
    }

    fn victim_for(&mut self, line: u64) -> Option<(u64, u32)> {
        let ways = self.ways;
        let set = self.set(line);
        if set.iter().any(|w| w.0 == line) || set.len() < ways {
            return None;
        }
        set.iter().min_by_key(|w| w.2).map(|w| (w.0, w.1))
    }

    fn remove(&mut self, line: u64) -> Option<u32> {
        let set = self.set(line);
        let pos = set.iter().position(|w| w.0 == line)?;
        let meta = set.swap_remove(pos).1;
        self.len -= 1;
        Some(meta)
    }

    fn iter(&self) -> Vec<(u64, u32)> {
        self.sets.iter().flatten().map(|w| (w.0, w.1)).collect()
    }
}

#[derive(Debug, Clone)]
enum DiffOp {
    Insert(u64, u32),
    Get(u64),
    Peek(u64),
    Remove(u64),
    VictimFor(u64),
}

/// Random operation streams over `lines` distinct addresses.
fn diff_ops(lines: u64) -> impl Strategy<Value = Vec<DiffOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..lines, any::<u32>()).prop_map(|(l, m)| DiffOp::Insert(l, m)),
            (0..lines, any::<u32>()).prop_map(|(l, m)| DiffOp::Insert(l, m)),
            (0..lines).prop_map(DiffOp::Get),
            (0..lines).prop_map(DiffOp::Peek),
            (0..lines).prop_map(DiffOp::Remove),
            (0..lines).prop_map(DiffOp::VictimFor),
        ],
        0..400,
    )
}

/// Drives the cache and the retired layout in lockstep, asserting
/// identical evictions, lookups, victims, lengths and resident lines.
fn run_differential(sets: u32, ways: u32, ops: Vec<DiffOp>) {
    let mut cache: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(sets, ways));
    let mut oracle = VecOfVecsCache::new(sets, ways);
    for op in ops {
        match op {
            DiffOp::Insert(l, m) => {
                let got = cache
                    .insert(LineAddr::new(l), m)
                    .map(|e| (e.line.index(), e.meta));
                prop_assert_eq!(got, oracle.insert(l, m));
            }
            DiffOp::Get(l) => {
                prop_assert_eq!(cache.get(&LineAddr::new(l)).copied(), oracle.get(l));
            }
            DiffOp::Peek(l) => {
                prop_assert_eq!(cache.peek(&LineAddr::new(l)).copied(), oracle.peek(l));
            }
            DiffOp::Remove(l) => {
                prop_assert_eq!(cache.remove(&LineAddr::new(l)), oracle.remove(l));
            }
            DiffOp::VictimFor(l) => {
                let got = cache
                    .victim_for(&LineAddr::new(l))
                    .map(|(v, m)| (v.index(), *m));
                prop_assert_eq!(got, oracle.victim_for(l));
            }
        }
        prop_assert_eq!(cache.len(), oracle.len);
    }
    // `iter` visits the table in no particular order, so the resident
    // sets are compared.
    let mut visited: Vec<(u64, u32)> = cache.iter().map(|(l, m)| (l.index(), *m)).collect();
    visited.sort_unstable();
    let mut resident = oracle.iter();
    resident.sort_unstable();
    prop_assert_eq!(visited, resident);
}

proptest! {
    /// Sparse geometry: 1024 sets x 4 ways, lines spread over a few sets
    /// (so they collide) and over many (so most sets stay untouched).
    #[test]
    fn arena_matches_vec_of_vecs_sparse(
        ops in diff_ops(8 * 1024),
        dense in any::<bool>(),
    ) {
        let ops = if dense {
            // Fold the stream onto 4 sets so ways fill and evict.
            ops.into_iter().map(|op| match op {
                DiffOp::Insert(l, m) => DiffOp::Insert(l % 4 + 1024 * (l % 7), m),
                DiffOp::Get(l) => DiffOp::Get(l % 4 + 1024 * (l % 7)),
                DiffOp::Peek(l) => DiffOp::Peek(l % 4 + 1024 * (l % 7)),
                DiffOp::Remove(l) => DiffOp::Remove(l % 4 + 1024 * (l % 7)),
                DiffOp::VictimFor(l) => DiffOp::VictimFor(l % 4 + 1024 * (l % 7)),
            }).collect()
        } else {
            ops
        };
        run_differential(1024, 4, ops);
    }

    /// Set counts that are not powers of two, mapped by modulo rather
    /// than a mask.
    #[test]
    fn arena_matches_vec_of_vecs_paged(
        ops in diff_ops(4 * 130),
        sets in prop_oneof![Just(65u32), Just(100), Just(130)],
        ways in 1u32..4,
    ) {
        run_differential(sets, ways, ops);
    }

    /// Tiny geometries, where every insert past the first few evicts.
    #[test]
    fn arena_matches_vec_of_vecs_tiny(
        ops in diff_ops(6),
        geometry in prop_oneof![Just((1u32, 1u32)), Just((2, 2)), Just((3, 2)), Just((1, 3))],
    ) {
        run_differential(geometry.0, geometry.1, ops);
    }

    /// A fully-associative cache: all 16 ways share one set, so every way
    /// lives in the one probe run of set 0.
    #[test]
    fn table_matches_vec_of_vecs_fully_associative(ops in diff_ops(24)) {
        run_differential(1, 16, ops);
    }

    /// Probe runs that wrap past the table's last bucket. The stream is
    /// folded onto sets 3, 8 and 21 of a 64 x 3 cache, whose homes are the
    /// last three buckets of a table of 8, 16 or 32 buckets or near them,
    /// and onto set 0, whose home is the first; at most 12 lines are
    /// resident, so the table never grows past 32 buckets. Removals and
    /// evictions then shift ways back across the wrap, past set 0's own
    /// ways.
    #[test]
    fn table_matches_vec_of_vecs_across_the_wrap(ops in diff_ops(20)) {
        let fold = |l: u64| [0, 3, 8, 21][(l % 4) as usize] + 64 * (l / 4);
        let ops = ops.into_iter().map(|op| match op {
            DiffOp::Insert(l, m) => DiffOp::Insert(fold(l), m),
            DiffOp::Get(l) => DiffOp::Get(fold(l)),
            DiffOp::Peek(l) => DiffOp::Peek(fold(l)),
            DiffOp::Remove(l) => DiffOp::Remove(fold(l)),
            DiffOp::VictimFor(l) => DiffOp::VictimFor(fold(l)),
        }).collect();
        run_differential(64, 3, ops);
    }

    /// The cache never exceeds its capacity and set residency never exceeds
    /// the way count, under arbitrary operation sequences.
    #[test]
    fn cache_capacity_is_never_exceeded(
        ops in cache_ops(),
        sets in 1u32..8,
        ways in 1u32..5,
    ) {
        let geom = CacheGeometry::new(sets, ways);
        let mut cache: SetAssocCache<u32> = SetAssocCache::new(geom);
        for op in ops {
            match op {
                CacheOp::Insert(l, m) => { cache.insert(LineAddr::new(l), m); }
                CacheOp::Get(l) => { cache.get(&LineAddr::new(l)); }
                CacheOp::Remove(l) => { cache.remove(&LineAddr::new(l)); }
            }
            prop_assert!(cache.len() <= geom.capacity() as usize);
            // Per-set residency: group resident lines by set index.
            let mut counts = vec![0u32; sets as usize];
            for (line, _) in cache.iter() {
                counts[(line.index() % sets as u64) as usize] += 1;
            }
            prop_assert!(counts.iter().all(|&c| c <= ways));
        }
    }

    /// A line reported evicted is really gone, and an inserted line is
    /// really resident.
    #[test]
    fn eviction_reports_are_accurate(ops in cache_ops()) {
        let mut cache: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(2, 2));
        for op in ops {
            if let CacheOp::Insert(l, m) = op {
                let line = LineAddr::new(l);
                let evicted = cache.insert(line, m);
                prop_assert!(cache.contains(&line));
                if let Some(ev) = evicted {
                    prop_assert!(!cache.contains(&ev.line));
                    prop_assert_ne!(ev.line, line);
                }
            }
        }
    }

    /// The MLT holds no duplicates and never exceeds capacity; overflow
    /// victims are distinct from the inserted line.
    #[test]
    fn mlt_set_semantics(
        inserts in prop::collection::vec(0u64..32, 0..100),
        capacity in 1usize..8,
    ) {
        let mut mlt = ModifiedLineTable::new(capacity);
        for l in inserts {
            let line = LineAddr::new(l);
            match mlt.insert(line) {
                MltInsert::Inserted => {}
                MltInsert::Overflow(victim) => prop_assert_ne!(victim, line),
            }
            prop_assert!(mlt.contains(&line));
            prop_assert!(mlt.len() <= capacity);
            let set: HashSet<_> = mlt.iter().collect();
            prop_assert_eq!(set.len(), mlt.len());
        }
    }

    /// Memory bank: read-after-write returns the written version; the valid
    /// bit gates reads exactly.
    #[test]
    fn memory_bank_read_your_writes(
        writes in prop::collection::vec((0u64..16, 1u64..1000), 1..50),
    ) {
        let mut bank = MemoryBank::new();
        let mut model = std::collections::HashMap::new();
        for (l, v) in writes {
            let line = LineAddr::new(l);
            bank.write(line, LineVersion::new(v));
            model.insert(line, LineVersion::new(v));
            prop_assert_eq!(bank.read_valid(&line), Some(LineVersion::new(v)));
        }
        for (line, v) in model {
            prop_assert_eq!(bank.read_valid(&line), Some(v));
        }
    }
}
