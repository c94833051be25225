//! Differential test of the coherence checker: on random coherence
//! states, coherent or carrying a few corruptions, `check`,
//! `check_midflight`, `check_mesi` and `check_dragon` return exactly what
//! the original implementation (`check_reference`, moved there verbatim)
//! returns: the same variant, the same line and the same nodes.
//!
//! States are plain structs, not machines, so every structure the checker
//! reads can be corrupted on its own: residency, the owner registry and
//! sharer lists, the modified line tables and the recorded columns,
//! memory's valid bits and data, committed versions, the arena side tables
//! and watchdog escalation. Each node's cache is listed in ascending line
//! order, the order in which the original checker broke ties the rewrite
//! breaks by address; memory and the tables are listed in generation
//! order, which both implementations must follow.

mod check_reference;

use std::collections::{BTreeMap, BTreeSet};

use multicube::check::{check, check_dragon, check_mesi, check_midflight};
use multicube::{CoherenceView, LineMode, TxnId};
use multicube_mem::{LineAddr, LineVersion};
use multicube_topology::NodeId;
use proptest::prelude::*;

/// A coherence state as plain data.
#[derive(Debug, Clone, Default)]
struct PlainView {
    side: u32,
    /// Per node: line -> (mode, data version).
    resident: Vec<BTreeMap<u64, (LineMode, u64)>>,
    /// Per column: the modified line table, in table order.
    mlt: Vec<Vec<u64>>,
    /// The registry's record of each listed line's column; `None` derives
    /// it from the tables, as a view without such a record does.
    mlt_cols: Option<BTreeMap<u64, u32>>,
    /// Every line memory stored: (line, valid, data), in visit order.
    memory: Vec<(u64, bool, u64)>,
    committed: BTreeMap<u64, u64>,
    owners: BTreeMap<u64, u32>,
    sharers: BTreeMap<u64, Vec<u32>>,
    excl: BTreeMap<u64, u32>,
    sm: BTreeMap<u64, u32>,
    escalated: Option<u64>,
}

impl PlainView {
    fn nodes(&self) -> u32 {
        self.side * self.side
    }

    fn memory_entry(&self, line: u64) -> Option<&(u64, bool, u64)> {
        self.memory.iter().find(|m| m.0 == line)
    }

    /// Sets memory's state of `line`, listing it if memory never stored it.
    fn set_memory(&mut self, line: u64, valid: bool, data: u64) {
        match self.memory.iter_mut().find(|m| m.0 == line) {
            Some(m) => *m = (line, valid, data),
            None => self.memory.push((line, valid, data)),
        }
    }

    fn set_sharers(&mut self, line: u64, nodes: BTreeSet<u32>) {
        if nodes.is_empty() {
            self.sharers.remove(&line);
        } else {
            self.sharers.insert(line, nodes.into_iter().collect());
        }
    }
}

impl CoherenceView for PlainView {
    fn side(&self) -> u32 {
        self.side
    }

    fn resident_len(&self, node: NodeId) -> usize {
        self.resident[node.as_usize()].len()
    }

    fn for_each_resident(&self, node: NodeId, f: &mut dyn FnMut(LineAddr, LineMode, LineVersion)) {
        for (&line, &(mode, data)) in &self.resident[node.as_usize()] {
            f(LineAddr::new(line), mode, LineVersion::new(data));
        }
    }

    fn for_each_mlt_line(&self, col: u32, f: &mut dyn FnMut(LineAddr)) {
        for &line in &self.mlt[col as usize] {
            f(LineAddr::new(line));
        }
    }

    fn home_column(&self, line: LineAddr) -> u32 {
        (line.index() % u64::from(self.side)) as u32
    }

    fn memory_valid(&self, line: LineAddr) -> bool {
        self.memory_entry(line.index()).is_none_or(|m| m.1)
    }

    fn memory_data(&self, line: LineAddr) -> LineVersion {
        LineVersion::new(self.memory_entry(line.index()).map_or(0, |m| m.2))
    }

    fn for_each_memory_line(&self, f: &mut dyn FnMut(LineAddr)) {
        for m in &self.memory {
            f(LineAddr::new(m.0));
        }
    }

    fn committed_version(&self, line: LineAddr) -> LineVersion {
        LineVersion::new(self.committed.get(&line.index()).copied().unwrap_or(0))
    }

    fn registry_owner(&self, line: LineAddr) -> Option<NodeId> {
        self.owners.get(&line.index()).map(|&n| NodeId::new(n))
    }

    fn for_each_registry_entry(&self, f: &mut dyn FnMut(LineAddr, NodeId)) {
        for (&line, &node) in &self.owners {
            f(LineAddr::new(line), NodeId::new(node));
        }
    }

    fn for_each_registry_sharers(&self, f: &mut dyn FnMut(LineAddr, &[NodeId])) {
        for (&line, nodes) in &self.sharers {
            let nodes: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
            f(LineAddr::new(line), &nodes);
        }
    }

    fn for_each_registry_mlt_col(&self, f: &mut dyn FnMut(LineAddr, u32)) {
        match &self.mlt_cols {
            Some(cols) => {
                for (&line, &col) in cols {
                    f(LineAddr::new(line), col);
                }
            }
            None => {
                for (col, table) in self.mlt.iter().enumerate() {
                    for &line in table {
                        f(LineAddr::new(line), col as u32);
                    }
                }
            }
        }
    }

    fn for_each_excl_entry(&self, f: &mut dyn FnMut(LineAddr, NodeId)) {
        for (&line, &node) in &self.excl {
            f(LineAddr::new(line), NodeId::new(node));
        }
    }

    fn for_each_sm_entry(&self, f: &mut dyn FnMut(LineAddr, NodeId)) {
        for (&line, &node) in &self.sm {
            f(LineAddr::new(line), NodeId::new(node));
        }
    }

    fn escalated(&self) -> Option<TxnId> {
        self.escalated.map(TxnId)
    }
}

/// SplitMix64: the test's own source of structure, seeded by proptest.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> Option<T> {
        (!items.is_empty()).then(|| items[self.below(items.len() as u64) as usize])
    }
}

/// The address range lines are drawn from: wide enough to spread over
/// every home column, narrow enough for corruptions to hit known lines.
const LINE_SPACE: u64 = 48;

/// Which protocol's quiescent invariants the generated state satisfies
/// before corruption.
#[derive(Debug, Clone, Copy)]
enum Flavor {
    Multicube,
    Mesi,
    Dragon,
}

/// A state coherent under `flavor`.
fn coherent(side: u32, lines: u64, flavor: Flavor, rng: &mut Rng) -> PlainView {
    let nodes = side * side;
    let mut v = PlainView {
        side,
        resident: vec![BTreeMap::new(); nodes as usize],
        mlt: vec![Vec::new(); side as usize],
        mlt_cols: rng.chance(70).then(BTreeMap::new),
        ..PlainView::default()
    };
    let mut addrs: BTreeSet<u64> = BTreeSet::new();
    while (addrs.len() as u64) < lines {
        addrs.insert(rng.below(LINE_SPACE));
    }
    let mut addrs: Vec<u64> = addrs.into_iter().collect();
    // Memory lists lines in no particular order.
    for i in (1..addrs.len()).rev() {
        addrs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for line in addrs {
        let latest = rng.below(4);
        if latest > 0 {
            v.committed.insert(line, latest);
        }
        let mut sharers = BTreeSet::new();
        match (flavor, rng.below(3)) {
            (_, 0) => {
                // Modified: the sole copy; memory is stale.
                let owner = rng.below(u64::from(nodes)) as u32;
                v.resident[owner as usize].insert(line, (LineMode::Modified, latest));
                v.owners.insert(line, owner);
                v.set_memory(line, false, rng.below(latest + 1));
                if let Flavor::Multicube = flavor {
                    let col = owner % side;
                    v.mlt[col as usize].push(line);
                    if let Some(cols) = v.mlt_cols.as_mut() {
                        cols.insert(line, col);
                    }
                }
            }
            (Flavor::Mesi | Flavor::Dragon, 1) | (Flavor::Multicube, 1 | 2) if rng.chance(30) => {
                // Exclusive-clean under the arena engines; a SYNC
                // reservation, which holds no data, under Multicube.
                let holder = rng.below(u64::from(nodes)) as u32;
                let data = match flavor {
                    Flavor::Multicube => rng.below(latest + 1),
                    _ => latest,
                };
                v.resident[holder as usize].insert(line, (LineMode::Reserved, data));
                if !matches!(flavor, Flavor::Multicube) {
                    v.excl.insert(line, holder);
                }
                v.set_memory(line, true, latest);
            }
            _ => {
                // Shared (possibly by nobody): memory is current, except
                // under a Dragon Sm holder.
                for node in 0..nodes {
                    if rng.chance(30) {
                        v.resident[node as usize].insert(line, (LineMode::Shared, latest));
                        sharers.insert(node);
                    }
                }
                let sm = match flavor {
                    Flavor::Dragon if rng.chance(50) => sharers.iter().next().copied(),
                    _ => None,
                };
                if let Some(holder) = sm {
                    v.sm.insert(line, holder);
                    v.set_memory(line, false, rng.below(latest + 1));
                } else if latest > 0 || rng.chance(50) {
                    v.set_memory(line, true, latest);
                }
            }
        }
        v.set_sharers(line, sharers);
    }
    v
}

/// Applies one random corruption to one structure.
fn corrupt(v: &mut PlainView, rng: &mut Rng) {
    let nodes = v.nodes();
    let node = rng.below(u64::from(nodes)) as u32;
    let col = rng.below(u64::from(v.side)) as u32;
    let line = rng.below(LINE_SPACE);
    let version = rng.below(6);
    let mode = [LineMode::Shared, LineMode::Modified, LineMode::Reserved][rng.below(3) as usize];
    let copies: Vec<(u32, u64)> = (0..nodes)
        .flat_map(|n| v.resident[n as usize].keys().map(move |&l| (n, l)))
        .collect();
    match rng.below(21) {
        // Residency.
        0 => {
            v.resident[node as usize].insert(line, (mode, version));
        }
        1 => {
            if let Some((n, l)) = rng.pick(&copies) {
                v.resident[n as usize].remove(&l);
            }
        }
        2 => {
            if let Some((n, l)) = rng.pick(&copies) {
                v.resident[n as usize].get_mut(&l).unwrap().0 = mode;
            }
        }
        3 => {
            if let Some((n, l)) = rng.pick(&copies) {
                v.resident[n as usize].get_mut(&l).unwrap().1 = version;
            }
        }
        // Memory and committed versions.
        4 => {
            let (valid, data) = v.memory_entry(line).map_or((true, 0), |m| (m.1, m.2));
            v.set_memory(line, !valid, data);
        }
        5 => {
            let valid = v.memory_entry(line).is_none_or(|m| m.1);
            v.set_memory(line, valid, version);
        }
        6 => {
            v.committed.insert(line, version);
        }
        // The owner registry.
        7 => {
            v.owners.insert(line, node);
        }
        8 => {
            if let Some(&l) = v
                .owners
                .keys()
                .nth(rng.below(v.owners.len() as u64 + 1) as usize)
            {
                v.owners.remove(&l);
            }
        }
        // Sharer lists.
        9 => {
            let mut listed: BTreeSet<u32> = v
                .sharers
                .get(&line)
                .into_iter()
                .flatten()
                .copied()
                .collect();
            listed.insert(node);
            v.set_sharers(line, listed);
        }
        10 => {
            let mut listed: BTreeSet<u32> = v
                .sharers
                .get(&line)
                .into_iter()
                .flatten()
                .copied()
                .collect();
            if let Some(&n) = listed
                .iter()
                .nth(rng.below(listed.len() as u64 + 1) as usize)
            {
                listed.remove(&n);
            }
            v.set_sharers(line, listed);
        }
        11 => {
            // A listed line with no nodes: the trait allows it.
            v.sharers.insert(line, Vec::new());
        }
        // Modified line tables and the recorded columns.
        12 => {
            if !v.mlt[col as usize].contains(&line) {
                let at = rng.below(v.mlt[col as usize].len() as u64 + 1) as usize;
                v.mlt[col as usize].insert(at, line);
            }
        }
        13 => {
            let table = &mut v.mlt[col as usize];
            if !table.is_empty() {
                table.remove(rng.below(table.len() as u64) as usize);
            }
        }
        14 => {
            if let Some(cols) = v.mlt_cols.as_mut() {
                cols.insert(line, col);
            }
        }
        15 => {
            if let Some(cols) = v.mlt_cols.as_mut() {
                cols.remove(&line);
            }
        }
        // The arena side tables.
        16 => {
            v.excl.insert(line, node);
        }
        17 => {
            v.excl.remove(&line);
        }
        18 => {
            v.sm.insert(line, node);
        }
        19 => {
            v.sm.remove(&line);
        }
        // Escalation.
        _ => v.escalated = Some(version),
    }
}

/// A random state: coherent under one protocol, then `corruptions` random
/// corruptions.
fn state(side: u32, lines: u64, flavor: u8, corruptions: u8, seed: u64) -> PlainView {
    let mut rng = Rng(seed);
    let flavor = [Flavor::Multicube, Flavor::Mesi, Flavor::Dragon][usize::from(flavor % 3)];
    let mut v = coherent(side, lines, flavor, &mut rng);
    for _ in 0..corruptions {
        corrupt(&mut v, &mut rng);
    }
    v
}

/// Asserts that all four entry points agree with the reference on `v`.
fn agree(v: &PlainView) {
    assert_eq!(check(v), check_reference::check(v), "check on {v:?}");
    assert_eq!(
        check_midflight(v),
        check_reference::check_midflight(v),
        "check_midflight on {v:?}"
    );
    assert_eq!(
        check_mesi(v),
        check_reference::check_mesi(v),
        "check_mesi on {v:?}"
    );
    assert_eq!(
        check_dragon(v),
        check_reference::check_dragon(v),
        "check_dragon on {v:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Coherent states and states with up to six corruptions, so that
    /// violations of one kind tie and the reported one is the first.
    #[test]
    fn checker_matches_the_reference(
        side in 1u32..=3,
        lines in 1u64..=16,
        flavor in 0u8..3,
        corruptions in 0u8..=6,
        seed in any::<u64>(),
    ) {
        agree(&state(side, lines, flavor, corruptions, seed));
    }
}

/// Every kind of single corruption, on every flavor, over many seeds:
/// each of the 21 kinds is drawn about 95 times per flavor.
#[test]
fn every_single_corruption_matches_the_reference() {
    for seed in 0..2_000u64 {
        for flavor in 0..3 {
            agree(&state(
                2,
                12,
                flavor,
                1,
                seed.wrapping_mul(0x2545_F491_4F6C_DD1D),
            ));
        }
    }
}

type Judge = fn(&dyn CoherenceView) -> Result<(), multicube::CoherenceViolation>;

/// The generator is not vacuous: coherent states pass, and corruptions
/// produce every violation the checker can report.
#[test]
fn the_generated_states_reach_every_violation() {
    use multicube::CoherenceViolation as V;
    for seed in 0..200u64 {
        let judges: [(u8, Judge); 3] = [(0, check), (1, check_mesi), (2, check_dragon)];
        for (flavor, judge) in judges {
            let v = state(2, 12, flavor, 0, seed);
            assert_eq!(judge(&v), Ok(()), "flavor {flavor} seed {seed}: {v:?}");
            assert_eq!(
                check_midflight(&v),
                Ok(()),
                "flavor {flavor} seed {seed}: {v:?}"
            );
        }
    }
    let mut seen = BTreeSet::new();
    for seed in 0..4_000u64 {
        let v = state(2, 12, (seed % 3) as u8, 1, seed);
        for result in [
            check(&v),
            check_midflight(&v),
            check_mesi(&v),
            check_dragon(&v),
        ] {
            if let Err(e) = result {
                seen.insert(match e {
                    V::MultipleWriters { .. } => "MultipleWriters",
                    V::ModifiedWithSharers { .. } => "ModifiedWithSharers",
                    V::ValidBitMismatch { .. } => "ValidBitMismatch",
                    V::StaleValue { .. } => "StaleValue",
                    V::MltInconsistent { .. } => "MltInconsistent",
                    V::RegistryMismatch { .. } => "RegistryMismatch",
                    V::SharerSetMismatch { .. } => "SharerSetMismatch",
                    V::MltColumnMismatch { .. } => "MltColumnMismatch",
                    V::EscalationLeak { .. } => "EscalationLeak",
                });
            }
        }
    }
    assert_eq!(seen.len(), 9, "violations reached: {seen:?}");
}
