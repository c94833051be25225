//! The coherence checker as it was before the single-pass rewrite,
//! moved here verbatim as the differential oracle for `multicube::check`.
//!
//! Its functions read state through the `Vec`-returning view trait they
//! were written against. That trait is declared below under its old name,
//! `CoherenceView`, and implemented for every [`multicube::CoherenceView`]
//! by collecting each visitor into a `Vec` in visit order, so the moved
//! code compiles unchanged.

#![allow(dead_code)]

use multicube::{CoherenceViolation, LineMode};
use multicube_mem::{LineAddr, LineMap, LineSet, LineVersion};
use multicube_topology::NodeId;

/// The view trait of the original checker: every collection a fresh `Vec`.
pub trait CoherenceView {
    fn side(&self) -> u32;
    fn resident(&self, node: NodeId) -> Vec<(LineAddr, LineMode, LineVersion)>;
    fn mlt_lines(&self, col: u32) -> Vec<LineAddr>;
    fn home_column(&self, line: LineAddr) -> u32;
    fn memory_valid(&self, line: LineAddr) -> bool;
    fn memory_data(&self, line: LineAddr) -> LineVersion;
    fn memory_lines(&self) -> Vec<LineAddr>;
    fn committed_version(&self, line: LineAddr) -> LineVersion;
    fn registry_owner(&self, line: LineAddr) -> Option<NodeId>;
    fn registry_entries(&self) -> Vec<(LineAddr, NodeId)>;
    fn registry_sharers(&self) -> Vec<(LineAddr, Vec<NodeId>)>;
    fn registry_mlt_cols(&self) -> Vec<(LineAddr, u32)>;
    fn excl_entries(&self) -> Vec<(LineAddr, NodeId)>;
    fn sm_entries(&self) -> Vec<(LineAddr, NodeId)>;
    fn escalated(&self) -> Option<multicube::TxnId>;
}

impl<T: multicube::CoherenceView> CoherenceView for T {
    fn side(&self) -> u32 {
        multicube::CoherenceView::side(self)
    }

    fn resident(&self, node: NodeId) -> Vec<(LineAddr, LineMode, LineVersion)> {
        let mut out = Vec::new();
        self.for_each_resident(node, &mut |line, mode, data| out.push((line, mode, data)));
        out
    }

    fn mlt_lines(&self, col: u32) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.for_each_mlt_line(col, &mut |line| out.push(line));
        out
    }

    fn home_column(&self, line: LineAddr) -> u32 {
        multicube::CoherenceView::home_column(self, line)
    }

    fn memory_valid(&self, line: LineAddr) -> bool {
        multicube::CoherenceView::memory_valid(self, line)
    }

    fn memory_data(&self, line: LineAddr) -> LineVersion {
        multicube::CoherenceView::memory_data(self, line)
    }

    fn memory_lines(&self) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.for_each_memory_line(&mut |line| out.push(line));
        out
    }

    fn committed_version(&self, line: LineAddr) -> LineVersion {
        multicube::CoherenceView::committed_version(self, line)
    }

    fn registry_owner(&self, line: LineAddr) -> Option<NodeId> {
        multicube::CoherenceView::registry_owner(self, line)
    }

    fn registry_entries(&self) -> Vec<(LineAddr, NodeId)> {
        let mut out = Vec::new();
        self.for_each_registry_entry(&mut |line, node| out.push((line, node)));
        out
    }

    fn registry_sharers(&self) -> Vec<(LineAddr, Vec<NodeId>)> {
        let mut out = Vec::new();
        self.for_each_registry_sharers(&mut |line, nodes| out.push((line, nodes.to_vec())));
        out
    }

    fn registry_mlt_cols(&self) -> Vec<(LineAddr, u32)> {
        let mut out = Vec::new();
        self.for_each_registry_mlt_col(&mut |line, col| out.push((line, col)));
        out
    }

    fn excl_entries(&self) -> Vec<(LineAddr, NodeId)> {
        let mut out = Vec::new();
        self.for_each_excl_entry(&mut |line, node| out.push((line, node)));
        out
    }

    fn sm_entries(&self) -> Vec<(LineAddr, NodeId)> {
        let mut out = Vec::new();
        self.for_each_sm_entry(&mut |line, node| out.push((line, node)));
        out
    }

    fn escalated(&self) -> Option<multicube::TxnId> {
        multicube::CoherenceView::escalated(self)
    }
}

/// Per-line residency gathered in one pass over every node's cache.
#[derive(Default)]
struct Gathered {
    owners: LineMap<NodeId>,
    sharers: LineMap<Vec<NodeId>>,
    reserved: LineMap<Vec<NodeId>>,
    held: LineMap<Vec<(NodeId, LineVersion)>>,
}

impl Gathered {
    /// The data version `node` holds for `line`, if resident.
    fn version_at(&self, node: NodeId, line: LineAddr) -> Option<LineVersion> {
        self.held
            .get(&line)
            .and_then(|v| v.iter().find(|(n, _)| *n == node))
            .map(|(_, d)| *d)
    }
}

/// Walks every cache once, detecting multiple writers on the way.
fn gather(v: &dyn CoherenceView) -> Result<Gathered, CoherenceViolation> {
    let n = v.side();
    let mut g = Gathered::default();
    for node_idx in 0..(n * n) {
        let node = NodeId::new(node_idx);
        for (line, mode, data) in v.resident(node) {
            g.held.entry(line).or_default().push((node, data));
            match mode {
                LineMode::Modified => {
                    if let Some(prev) = g.owners.insert(line, node) {
                        return Err(CoherenceViolation::MultipleWriters {
                            line,
                            nodes: (prev, node),
                        });
                    }
                }
                LineMode::Shared => g.sharers.entry(line).or_default().push(node),
                LineMode::Reserved => g.reserved.entry(line).or_default().push(node),
            }
        }
    }
    Ok(g)
}

/// Lines known to any structure, in stable address order.
fn known_lines(v: &dyn CoherenceView, g: &Gathered) -> Vec<LineAddr> {
    let mut lines: LineSet = LineSet::default();
    lines.extend(g.held.keys().copied());
    lines.extend(v.memory_lines());
    let mut lines: Vec<LineAddr> = lines.into_iter().collect();
    lines.sort_unstable_by_key(|l| l.index());
    lines
}

/// Registry sanity, both directions: every cache owner is registered,
/// every registry entry is backed by a modified copy, the per-line sharer
/// list names exactly the caches holding shared copies, and the recorded
/// MLT column names exactly the tables listing the line.
fn check_registry(v: &dyn CoherenceView, g: &Gathered) -> Result<(), CoherenceViolation> {
    let mut owned_lines: Vec<LineAddr> = g.owners.keys().copied().collect();
    owned_lines.sort_unstable_by_key(|l| l.index());
    for &line in &owned_lines {
        let node = g.owners[&line];
        if v.registry_owner(line) != Some(node) {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!("cache owner {node} not in registry"),
            });
        }
    }
    // Smallest offending address, not whichever the hash order yields
    // first: stray-registry-entry reports must be stable run to run.
    if let Some((line, node)) = v
        .registry_entries()
        .into_iter()
        .filter(|(l, _)| !g.owners.contains_key(l))
        .min_by_key(|(l, _)| l.index())
    {
        return Err(CoherenceViolation::RegistryMismatch {
            line,
            detail: format!("registry claims {node} but no cache holds it modified"),
        });
    }
    let registered: LineMap<Vec<NodeId>> = v.registry_sharers().into_iter().collect();
    let mut shared_lines: Vec<LineAddr> =
        g.sharers.keys().chain(registered.keys()).copied().collect();
    shared_lines.sort_unstable_by_key(|l| l.index());
    shared_lines.dedup();
    for line in shared_lines {
        // `gather` visits nodes in ascending order, so both lists are
        // sorted and equal exactly when the sets are.
        let caches = g.sharers.get(&line).map_or(&[][..], Vec::as_slice);
        let registry = registered.get(&line).map_or(&[][..], Vec::as_slice);
        if caches != registry {
            return Err(CoherenceViolation::SharerSetMismatch {
                line,
                registry: registry.to_vec(),
                caches: caches.to_vec(),
            });
        }
    }
    let mut tables: LineMap<Vec<u32>> = LineMap::default();
    for col in 0..v.side() {
        for line in v.mlt_lines(col) {
            tables.entry(line).or_default().push(col);
        }
    }
    let recorded: LineMap<u32> = v.registry_mlt_cols().into_iter().collect();
    let mut listed_lines: Vec<LineAddr> = tables.keys().chain(recorded.keys()).copied().collect();
    listed_lines.sort_unstable_by_key(|l| l.index());
    listed_lines.dedup();
    for line in listed_lines {
        // Columns are pushed in ascending order, so the slices compare as
        // sets.
        let listed = tables.get(&line).map_or(&[][..], Vec::as_slice);
        let registry = recorded.get(&line).copied();
        if listed != registry.as_slice() {
            return Err(CoherenceViolation::MltColumnMismatch {
                line,
                registry,
                tables: listed.to_vec(),
            });
        }
    }
    Ok(())
}

/// Runs all invariant checks against a quiescent Multicube machine (or
/// any other [`CoherenceView`] claiming Multicube semantics).
///
/// # Errors
///
/// The first violation found.
pub fn check(v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
    let n = v.side();
    let g = gather(v)?;

    // Violations below are found by walking hash maps; report them in
    // line-address order so a given failure names the same line on every
    // run, whatever the hasher.
    let mut owned_lines: Vec<LineAddr> = g.owners.keys().copied().collect();
    owned_lines.sort_unstable_by_key(|l| l.index());

    // 2. Modified excludes shared.
    for &line in &owned_lines {
        let owner = g.owners[&line];
        if let Some(&sharer) = g.sharers.get(&line).and_then(|s| s.first()) {
            return Err(CoherenceViolation::ModifiedWithSharers {
                line,
                owner,
                sharer,
            });
        }
    }

    // 3+4. Valid bit and value integrity over every line any structure knows.
    for line in known_lines(v, &g) {
        let memory_valid = v.memory_valid(line);
        let has_owner = g.owners.contains_key(&line);
        if memory_valid == has_owner {
            return Err(CoherenceViolation::ValidBitMismatch {
                line,
                memory_valid,
                has_owner,
            });
        }
        let latest = v.committed_version(line);
        if let Some(&owner) = g.owners.get(&line) {
            let held = g.version_at(owner, line);
            if held != Some(latest) {
                return Err(CoherenceViolation::StaleValue {
                    line,
                    holder: format!("owner {owner} holds {held:?}, expected {latest:?}"),
                });
            }
        } else {
            if v.memory_data(line) != latest {
                return Err(CoherenceViolation::StaleValue {
                    line,
                    holder: format!("memory column {}", v.home_column(line)),
                });
            }
            for sharer in g.sharers.get(&line).into_iter().flatten() {
                let held = g.version_at(*sharer, line);
                if held != Some(latest) {
                    return Err(CoherenceViolation::StaleValue {
                        line,
                        holder: format!("sharer {sharer} holds {held:?}, expected {latest:?}"),
                    });
                }
            }
        }
    }

    // 5. Each column's MLT matches the column's modified lines.
    for col in 0..n {
        let table: LineSet = v.mlt_lines(col).into_iter().collect();
        let actual: LineSet = g
            .owners
            .iter()
            .filter(|(_, node)| node.index() % n == col)
            .map(|(line, _)| *line)
            .collect();
        if table != actual {
            return Err(CoherenceViolation::MltInconsistent {
                col,
                detail: format!(
                    "table has {} entries, column holds {} modified lines",
                    table.len(),
                    actual.len()
                ),
            });
        }
    }

    // 6. Registry sanity.
    check_registry(v, &g)?;

    // 7. No leaked watchdog escalations.
    if let Some(txn) = v.escalated() {
        return Err(CoherenceViolation::EscalationLeak { txn });
    }

    Ok(())
}

/// Quiescent invariants of the single-bus MESI and write-once engines:
/// single writer, a modified (`M`, Dirty) or exclusive-clean (`E`,
/// Reserved) copy excludes all others, memory's valid bit is clear iff
/// an `M` copy exists, every resident copy holds the latest committed
/// version, and the `E` side table matches the caches.
///
/// # Errors
///
/// The first violation found.
pub fn check_mesi(v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
    check_arena(v, false)
}

/// Quiescent invariants of the single-bus Dragon engine: single writer,
/// `M`/`E` copies are sole copies, the shared-modified (`Sm`) holder is a
/// resident sharer, memory's valid bit is clear iff a dirty (`M` or `Sm`)
/// copy exists, and — the write-update property — *every* resident copy
/// holds the latest committed version even while shared.
///
/// # Errors
///
/// The first violation found.
pub fn check_dragon(v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
    check_arena(v, true)
}

/// The invariant subset that holds at *every* event boundary, not only at
/// quiescence: the registry mirrors the caches (both directions), and no
/// structure holds a version newer than the committed one.
/// Transiently-violable invariants (single writer during an invalidation
/// chain, the valid bit during a memory bounce, MLT-vs-cache equality
/// while a column op is in flight) are deliberately excluded.
///
/// Engine-independent.
///
/// # Errors
///
/// The first violation found.
pub fn check_midflight(v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
    let n = v.side();
    let g = gather(v)?;
    check_registry(v, &g)?;
    // No structure may hold a version from the future.
    for node_idx in 0..(n * n) {
        let node = NodeId::new(node_idx);
        for (line, _, data) in v.resident(node) {
            if data > v.committed_version(line) {
                return Err(CoherenceViolation::StaleValue {
                    line,
                    holder: format!("{node} holds uncommitted version {data:?}"),
                });
            }
        }
    }
    for line in v.memory_lines() {
        if v.memory_data(line) > v.committed_version(line) {
            return Err(CoherenceViolation::StaleValue {
                line,
                holder: format!(
                    "memory column {} holds uncommitted version",
                    v.home_column(line)
                ),
            });
        }
    }
    Ok(())
}

/// Shared invariant walk for the arena engines. `update_based`
/// selects Dragon's dirty-shared (`Sm`) semantics.
fn check_arena(v: &dyn CoherenceView, update_based: bool) -> Result<(), CoherenceViolation> {
    let n = v.side();
    let g = gather(v)?;

    // Report in line-address order so failures are stable run to run.
    let mut owned_lines: Vec<LineAddr> = g.owners.keys().copied().collect();
    owned_lines.sort_unstable_by_key(|l| l.index());

    // An M copy is the sole copy.
    for &line in &owned_lines {
        let owner = g.owners[&line];
        if let Some(&sharer) = g.sharers.get(&line).and_then(|s| s.first()) {
            return Err(CoherenceViolation::ModifiedWithSharers {
                line,
                owner,
                sharer,
            });
        }
        if let Some(&holder) = g.reserved.get(&line).and_then(|r| r.first()) {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!("{holder} holds an exclusive-clean copy alongside owner {owner}"),
            });
        }
    }

    // An E copy is the sole copy, and the side table matches the caches.
    let excl: LineMap<NodeId> = v.excl_entries().into_iter().collect();
    let mut reserved_lines: Vec<LineAddr> = g.reserved.keys().copied().collect();
    reserved_lines.sort_unstable_by_key(|l| l.index());
    for &line in &reserved_lines {
        let holders = &g.reserved[&line];
        if holders.len() > 1 {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!(
                    "{} and {} both hold exclusive-clean copies",
                    holders[0], holders[1]
                ),
            });
        }
        if let Some(&sharer) = g.sharers.get(&line).and_then(|s| s.first()) {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!(
                    "{} holds an exclusive-clean copy alongside sharer {sharer}",
                    holders[0]
                ),
            });
        }
        if excl.get(&line) != Some(&holders[0]) {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!(
                    "exclusive-clean holder {} missing from the E side table",
                    holders[0]
                ),
            });
        }
    }
    if let Some((line, node)) = excl
        .iter()
        .filter(|(l, _)| !g.reserved.contains_key(l))
        .map(|(l, n)| (*l, *n))
        .min_by_key(|(l, _)| l.index())
    {
        return Err(CoherenceViolation::RegistryMismatch {
            line,
            detail: format!("E side table claims {node} but no cache holds it exclusive-clean"),
        });
    }

    // The Sm side table: a Dragon shared-modified holder must be a
    // resident sharer; MESI must never populate it.
    let sm: LineMap<NodeId> = v.sm_entries().into_iter().collect();
    let mut sm_lines: Vec<LineAddr> = sm.keys().copied().collect();
    sm_lines.sort_unstable_by_key(|l| l.index());
    for &line in &sm_lines {
        let holder = sm[&line];
        if !update_based {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!("Sm side table claims {holder} under a write-invalidate engine"),
            });
        }
        let is_sharer = g.sharers.get(&line).is_some_and(|s| s.contains(&holder));
        if !is_sharer {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!("Sm holder {holder} does not hold the line shared"),
            });
        }
    }

    // Valid bit and value integrity over every line any structure knows.
    for line in known_lines(v, &g) {
        let memory_valid = v.memory_valid(line);
        let dirty = g.owners.contains_key(&line) || sm.contains_key(&line);
        if memory_valid == dirty {
            return Err(CoherenceViolation::ValidBitMismatch {
                line,
                memory_valid,
                has_owner: dirty,
            });
        }
        let latest = v.committed_version(line);
        if !dirty && v.memory_data(line) != latest {
            return Err(CoherenceViolation::StaleValue {
                line,
                holder: format!("memory column {}", v.home_column(line)),
            });
        }
        // Every resident copy holds the latest committed version: under
        // MESI because writers are sole holders, under Dragon because
        // updates refresh every copy in place.
        if let Some(&owner) = g.owners.get(&line) {
            let held = g.version_at(owner, line);
            if held != Some(latest) {
                return Err(CoherenceViolation::StaleValue {
                    line,
                    holder: format!("owner {owner} holds {held:?}, expected {latest:?}"),
                });
            }
        }
        for holder in g
            .sharers
            .get(&line)
            .into_iter()
            .flatten()
            .chain(g.reserved.get(&line).into_iter().flatten())
        {
            let held = g.version_at(*holder, line);
            if held != Some(latest) {
                return Err(CoherenceViolation::StaleValue {
                    line,
                    holder: format!("{holder} holds {held:?}, expected {latest:?}"),
                });
            }
        }
    }

    // The MLT is a Multicube structure; arena engines must leave every
    // column's table empty.
    for col in 0..n {
        if let Some(&line) = v.mlt_lines(col).first() {
            return Err(CoherenceViolation::MltInconsistent {
                col,
                detail: format!("arena engine populated the MLT with {line:?}"),
            });
        }
    }

    // Registry sanity (both directions).
    check_registry(v, &g)?;

    // No leaked watchdog escalations.
    if let Some(txn) = v.escalated() {
        return Err(CoherenceViolation::EscalationLeak { txn });
    }

    Ok(())
}
