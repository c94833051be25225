//! Coherence-invariant checking.
//!
//! At a quiescent instant (no bus operations or events in flight) the
//! machine must satisfy the global invariants implied by §3:
//!
//! 1. **Single writer** — at most one cache holds any line modified.
//! 2. **No stale sharers** — a modified copy excludes shared copies.
//! 3. **Valid-bit consistency** — memory's valid bit is set iff no cache
//!    holds the line modified.
//! 4. **Value integrity** — the modified copy (or memory, if unmodified)
//!    holds the latest committed write; shared copies hold it too.
//! 5. **MLT consistency** — every column's table contains exactly the
//!    lines held modified within that column.
//! 6. **Registry consistency** — the machine's owner registry and sharer
//!    lists match the caches, and its record of which column's MLT lists
//!    each line matches the tables.
//! 7. **Escalation hygiene** — no watchdog escalation survives quiescence;
//!    an escalated transaction that never finished means the fault-free
//!    retry failed to make progress.
//!
//! [`check`] verifies the default Multicube engine. The single-bus arena
//! engines have their own quiescent invariants — [`check_mesi`] (which
//! write-once shares: its Reserved state is MESI's `E`) and
//! [`check_dragon`] — sharing the vocabulary above but differing on what
//! "dirty" means (Dragon's shared-modified state keeps memory stale while
//! copies are shared) and skipping the MLT, which only the Multicube
//! protocol maintains.
//!
//! Every predicate reads machine state through the [`CoherenceView`]
//! trait rather than touching [`Machine`] directly. The simulator is one
//! implementor; the `multicube-model` explicit-state model checker is
//! another, so the *same* invariant code judges both the event-driven
//! simulation and every state the guarded-action checker enumerates.
//!
//! [`check_midflight`] is the subset of these invariants that holds at
//! *every* event boundary, not only at quiescence — see
//! [`MachineConfig::with_check_every`](crate::MachineConfig::with_check_every).

use core::fmt;

use multicube_mem::{LineAddr, LineMap, LineSet, LineVersion};
use multicube_topology::NodeId;

use crate::config::EngineKind;
use crate::machine::Machine;
use crate::node::LineMode;
use crate::proto::TxnId;

/// An abstract, read-only view of global coherence state: everything the
/// invariant predicates need, and nothing tied to the event-driven
/// simulator. Implemented by [`Machine`] and by the model checker's
/// canonical states (crate `multicube-model`).
///
/// Nodes are indexed `0..side()*side()` in row-major order; memory is
/// interleaved by home column as in the paper.
pub trait CoherenceView {
    /// The grid side `n` (the machine has `n * n` nodes).
    fn side(&self) -> u32;

    /// Every line resident in `node`'s snooping cache, with its mode and
    /// the data version it holds. Order is not significant.
    fn resident(&self, node: NodeId) -> Vec<(LineAddr, LineMode, LineVersion)>;

    /// Lines held by `node`'s processor (L1) cache; empty when the L1
    /// level is not modelled.
    fn l1_lines(&self, node: NodeId) -> Vec<LineAddr>;

    /// The contents of column `col`'s modified line table. Order is not
    /// significant (compared as sets).
    fn mlt_lines(&self, col: u32) -> Vec<LineAddr>;

    /// The home column of `line`.
    fn home_column(&self, line: LineAddr) -> u32;

    /// Memory's valid bit for `line` at its home column.
    fn memory_valid(&self, line: LineAddr) -> bool;

    /// Memory's stored data version for `line` (regardless of validity).
    fn memory_data(&self, line: LineAddr) -> LineVersion;

    /// Every line memory has ever stored (union over all columns).
    fn memory_lines(&self) -> Vec<LineAddr>;

    /// The latest committed write version of `line`.
    fn committed_version(&self, line: LineAddr) -> LineVersion;

    /// The owner registry's entry for `line`.
    fn registry_owner(&self, line: LineAddr) -> Option<NodeId>;

    /// All owner-registry entries.
    fn registry_entries(&self) -> Vec<(LineAddr, NodeId)>;

    /// Every line the registry lists shared copies of, with the nodes it
    /// lists in ascending order (lines with no sharers are omitted).
    fn registry_sharers(&self) -> Vec<(LineAddr, Vec<NodeId>)>;

    /// Every line the registry records as listed in a column's modified
    /// line table, with that column. The default reads the tables
    /// themselves, for views that keep no such record.
    fn registry_mlt_cols(&self) -> Vec<(LineAddr, u32)> {
        (0..self.side())
            .flat_map(|col| self.mlt_lines(col).into_iter().map(move |line| (line, col)))
            .collect()
    }

    /// The arena engines' exclusive-clean (`E`) side table.
    fn excl_entries(&self) -> Vec<(LineAddr, NodeId)>;

    /// The Dragon engine's shared-modified (`Sm`) side table.
    fn sm_entries(&self) -> Vec<(LineAddr, NodeId)>;

    /// A transaction still under watchdog escalation, if any.
    fn escalated(&self) -> Option<TxnId>;
}

impl CoherenceView for Machine {
    fn side(&self) -> u32 {
        Machine::side(self)
    }

    fn resident(&self, node: NodeId) -> Vec<(LineAddr, LineMode, LineVersion)> {
        self.controller(node)
            .cache
            .iter()
            .map(|(line, cl)| (line, cl.mode, cl.data))
            .collect()
    }

    fn l1_lines(&self, node: NodeId) -> Vec<LineAddr> {
        self.controller(node)
            .proc_cache
            .as_ref()
            .map(|l1| l1.iter().map(|(line, ())| line).collect())
            .unwrap_or_default()
    }

    fn mlt_lines(&self, col: u32) -> Vec<LineAddr> {
        self.mlt(col).iter().copied().collect()
    }

    fn home_column(&self, line: LineAddr) -> u32 {
        Machine::home_column(self, line)
    }

    fn memory_valid(&self, line: LineAddr) -> bool {
        self.memory(Machine::home_column(self, line))
            .is_valid(&line)
    }

    fn memory_data(&self, line: LineAddr) -> LineVersion {
        self.memory(Machine::home_column(self, line)).peek(&line)
    }

    fn memory_lines(&self) -> Vec<LineAddr> {
        let mut out = Vec::new();
        for col in 0..Machine::side(self) {
            out.extend(self.memory(col).touched_lines().map(|(l, _, _)| l));
        }
        out
    }

    fn committed_version(&self, line: LineAddr) -> LineVersion {
        Machine::committed_version(self, line)
    }

    fn registry_owner(&self, line: LineAddr) -> Option<NodeId> {
        Machine::registry_owner(self, line)
    }

    fn registry_entries(&self) -> Vec<(LineAddr, NodeId)> {
        Machine::registry_entries(self).collect()
    }

    fn registry_sharers(&self) -> Vec<(LineAddr, Vec<NodeId>)> {
        Machine::registry_sharers(self)
            .map(|(line, nodes)| (line, nodes.to_vec()))
            .collect()
    }

    fn registry_mlt_cols(&self) -> Vec<(LineAddr, u32)> {
        Machine::registry_mlt_cols(self).collect()
    }

    fn excl_entries(&self) -> Vec<(LineAddr, NodeId)> {
        self.arena_excl.iter().map(|(l, n)| (*l, *n)).collect()
    }

    fn sm_entries(&self) -> Vec<(LineAddr, NodeId)> {
        self.arena_sm.iter().map(|(l, n)| (*l, *n)).collect()
    }

    fn escalated(&self) -> Option<TxnId> {
        self.escalated_txn()
    }
}

/// A violated coherence invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoherenceViolation {
    /// Two caches hold the same line modified.
    MultipleWriters {
        /// The line concerned.
        line: LineAddr,
        /// The two offending nodes.
        nodes: (NodeId, NodeId),
    },
    /// A modified copy coexists with shared copies.
    ModifiedWithSharers {
        /// The line concerned.
        line: LineAddr,
        /// The owner.
        owner: NodeId,
        /// A node holding a stale shared copy.
        sharer: NodeId,
    },
    /// Memory claims validity while a cache holds the line modified, or
    /// vice versa.
    ValidBitMismatch {
        /// The line concerned.
        line: LineAddr,
        /// Memory's valid bit.
        memory_valid: bool,
        /// Whether some cache holds the line modified.
        has_owner: bool,
    },
    /// A copy (cache or memory) holds stale data.
    StaleValue {
        /// The line concerned.
        line: LineAddr,
        /// Description of the stale holder.
        holder: String,
    },
    /// A column's MLT does not match the modified lines actually held in
    /// the column, or an arena engine populated an MLT.
    MltInconsistent {
        /// The column concerned.
        col: u32,
        /// Description of the mismatch.
        detail: String,
    },
    /// A processor-cache line is not present in the snooping cache (the
    /// §2 strict-subset property is violated).
    SubsetViolation {
        /// The offending node.
        node: NodeId,
        /// The line present in L1 but absent from L2.
        line: LineAddr,
    },
    /// The machine's internal owner registry diverged from the caches.
    RegistryMismatch {
        /// The line concerned.
        line: LineAddr,
        /// Description of the mismatch.
        detail: String,
    },
    /// The registry's list of caches holding a line shared differs from
    /// the caches that do. Purges visit only the listed caches, so a
    /// missing entry would leave a stale copy behind.
    SharerSetMismatch {
        /// The line concerned.
        line: LineAddr,
        /// The nodes the registry lists, ascending.
        registry: Vec<NodeId>,
        /// The nodes actually holding the line shared, ascending.
        caches: Vec<NodeId>,
    },
    /// The registry's record of which column's modified line table lists a
    /// line differs from the tables. The unperturbed modified-signal poll
    /// answers from that record, so a wrong one misroutes requests.
    MltColumnMismatch {
        /// The line concerned.
        line: LineAddr,
        /// The column the registry records.
        registry: Option<u32>,
        /// The columns whose tables list the line, ascending.
        tables: Vec<u32>,
    },
    /// A watchdog escalation outlived its transaction: at quiescence every
    /// escalated transaction must have completed (and been cleared), so a
    /// leftover entry means the escalation path failed to make progress.
    EscalationLeak {
        /// The still-escalated transaction.
        txn: crate::proto::TxnId,
    },
}

impl fmt::Display for CoherenceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoherenceViolation::MultipleWriters { line, nodes } => {
                write!(
                    f,
                    "line {line:?} modified in both {} and {}",
                    nodes.0, nodes.1
                )
            }
            CoherenceViolation::ModifiedWithSharers {
                line,
                owner,
                sharer,
            } => write!(
                f,
                "line {line:?} modified in {owner} but shared in {sharer}"
            ),
            CoherenceViolation::ValidBitMismatch {
                line,
                memory_valid,
                has_owner,
            } => write!(
                f,
                "line {line:?}: memory valid={memory_valid} but owner present={has_owner}"
            ),
            CoherenceViolation::StaleValue { line, holder } => {
                write!(f, "line {line:?}: stale value at {holder}")
            }
            CoherenceViolation::MltInconsistent { col, detail } => {
                write!(f, "column {col} MLT inconsistent: {detail}")
            }
            CoherenceViolation::SubsetViolation { node, line } => {
                write!(
                    f,
                    "{node}: L1 holds {line:?} but the snooping cache does not"
                )
            }
            CoherenceViolation::RegistryMismatch { line, detail } => {
                write!(f, "line {line:?} registry mismatch: {detail}")
            }
            CoherenceViolation::SharerSetMismatch {
                line,
                registry,
                caches,
            } => write!(
                f,
                "line {line:?}: registry lists sharers {registry:?} but {caches:?} hold it shared"
            ),
            CoherenceViolation::MltColumnMismatch {
                line,
                registry,
                tables,
            } => write!(
                f,
                "line {line:?}: registry records MLT column {registry:?} but the tables of \
                 columns {tables:?} list it"
            ),
            CoherenceViolation::EscalationLeak { txn } => {
                write!(f, "{txn} still escalated at quiescence")
            }
        }
    }
}

impl std::error::Error for CoherenceViolation {}

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

/// The §2 strict-subset property: every L1 line is present in L2.
fn check_l1_subset(v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
    let n = v.side();
    for node_idx in 0..(n * n) {
        let node = NodeId::new(node_idx);
        let l1 = v.l1_lines(node);
        if l1.is_empty() {
            continue;
        }
        let l2: LineSet = v.resident(node).into_iter().map(|(l, _, _)| l).collect();
        for line in l1 {
            if !l2.contains(&line) {
                return Err(CoherenceViolation::SubsetViolation { node, line });
            }
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

    // 6. Processor-cache subset property (§2).
    check_l1_subset(v)?;

    // 7. Registry sanity.
    check_registry(v, &g)?;

    // 8. No leaked watchdog escalations.
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

/// Runs the quiescent invariant suite appropriate for `kind` against any
/// coherence view. This is how the model checker judges its states with
/// the same predicates the simulator runs at quiescence.
///
/// # Errors
///
/// The first violation found.
pub fn check_engine(kind: EngineKind, v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
    match kind {
        EngineKind::Multicube => check(v),
        EngineKind::Mesi => check_mesi(v),
        EngineKind::Dragon => check_dragon(v),
        EngineKind::WriteOnce => check_mesi(v),
    }
}

/// The invariant subset that holds at *every* event boundary, not only at
/// quiescence: the registry mirrors the caches (both directions), L1 is a
/// strict subset of L2, and no structure holds a version newer than the
/// committed one. Transiently-violable invariants (single writer during an
/// invalidation chain, the valid bit during a memory bounce, MLT-vs-cache
/// equality while a column op is in flight) are deliberately excluded.
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
    check_l1_subset(v)?;
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
    check_l1_subset(v)?;

    // Registry sanity (both directions).
    check_registry(v, &g)?;

    // No leaked watchdog escalations.
    if let Some(txn) = v.escalated() {
        return Err(CoherenceViolation::EscalationLeak { txn });
    }

    Ok(())
}
