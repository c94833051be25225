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
//!
//! # One pass over the caches
//!
//! A check reads each cache once, through the view's visitors, into one
//! flat record of the resident copies sorted by (line, node): 16 bytes a
//! copy, with the copy's data version already compared against the
//! committed one. A second, smaller record holds every modified line
//! table entry sorted by (line, column). Every invariant is then a walk
//! over those two records; the registry, the side tables and memory are
//! visited once each and looked up in the records by binary search. No
//! per-line map is built and nothing is cloned, so a passing check
//! allocates the two records and three per-column counters.
//!
//! Violations are reported in line-address order, and those found per
//! node (a second writer, an L1 line missing from L2, a copy newer than
//! the committed version) at the lowest node first, whatever order a view
//! lists its contents in. Two reports keep the original checker's
//! dependence on that order: the first memory line holding an uncommitted
//! version ([`check_midflight`]) and the line named when an arena engine
//! finds a modified line table populated are the first the view visits.

use core::fmt;
use core::ops::Range;

use multicube_mem::{LineAddr, LineVersion};
use multicube_topology::NodeId;

use crate::config::EngineKind;
use crate::machine::engine::Engine;
use crate::machine::Machine;
use crate::node::LineMode;
use crate::proto::TxnId;

/// An abstract, read-only view of global coherence state: everything the
/// invariant predicates need, and nothing tied to the event-driven
/// simulator. Implemented by [`Machine`] and by the model checker's
/// canonical states (crate `multicube-model`).
///
/// Nodes are indexed `0..side()*side()` in row-major order; memory is
/// interleaved by home column as in the paper. The `for_each_*` visitors
/// call their closure once per item, in any order, and list a line at
/// most once per cache, table or list (the default
/// [`for_each_registry_mlt_col`](CoherenceView::for_each_registry_mlt_col)
/// lists a line once per table holding it): the checker reads a view's
/// contents as sets.
pub trait CoherenceView {
    /// The grid side `n` (the machine has `n * n` nodes).
    fn side(&self) -> u32;

    /// How many lines `node`'s snooping cache holds. The checker sizes its
    /// record of resident copies by it, so a wrong answer costs memory,
    /// not correctness.
    fn resident_len(&self, node: NodeId) -> usize;

    /// Visits every line resident in `node`'s snooping cache, with its
    /// mode and the data version it holds.
    fn for_each_resident(&self, node: NodeId, f: &mut dyn FnMut(LineAddr, LineMode, LineVersion));

    /// Visits the lines held by `node`'s processor (L1) cache; none when
    /// the L1 level is not modelled.
    fn for_each_l1_line(&self, node: NodeId, f: &mut dyn FnMut(LineAddr));

    /// Visits the contents of column `col`'s modified line table.
    fn for_each_mlt_line(&self, col: u32, f: &mut dyn FnMut(LineAddr));

    /// The home column of `line`.
    fn home_column(&self, line: LineAddr) -> u32;

    /// Memory's valid bit for `line` at its home column.
    fn memory_valid(&self, line: LineAddr) -> bool;

    /// Memory's stored data version for `line` (regardless of validity).
    fn memory_data(&self, line: LineAddr) -> LineVersion;

    /// Visits every line memory has ever stored (union over all columns).
    fn for_each_memory_line(&self, f: &mut dyn FnMut(LineAddr));

    /// The latest committed write version of `line`.
    fn committed_version(&self, line: LineAddr) -> LineVersion;

    /// The owner registry's entry for `line`.
    fn registry_owner(&self, line: LineAddr) -> Option<NodeId>;

    /// Visits every owner-registry entry.
    fn for_each_registry_entry(&self, f: &mut dyn FnMut(LineAddr, NodeId));

    /// Visits every line the registry lists shared copies of, with the
    /// nodes it lists in ascending order (lines with no sharers may be
    /// omitted).
    fn for_each_registry_sharers(&self, f: &mut dyn FnMut(LineAddr, &[NodeId]));

    /// Visits every line the registry records as listed in a column's
    /// modified line table, with that column. The default reads the tables
    /// themselves, for views that keep no such record.
    fn for_each_registry_mlt_col(&self, f: &mut dyn FnMut(LineAddr, u32)) {
        for col in 0..self.side() {
            self.for_each_mlt_line(col, &mut |line| f(line, col));
        }
    }

    /// Visits the arena engines' exclusive-clean (`E`) side table.
    fn for_each_excl_entry(&self, f: &mut dyn FnMut(LineAddr, NodeId));

    /// Visits the Dragon engine's shared-modified (`Sm`) side table.
    fn for_each_sm_entry(&self, f: &mut dyn FnMut(LineAddr, NodeId));

    /// A transaction still under watchdog escalation, if any.
    fn escalated(&self) -> Option<TxnId>;
}

impl CoherenceView for Machine {
    fn side(&self) -> u32 {
        Machine::side(self)
    }

    fn resident_len(&self, node: NodeId) -> usize {
        self.controller(node).cache.len()
    }

    fn for_each_resident(&self, node: NodeId, f: &mut dyn FnMut(LineAddr, LineMode, LineVersion)) {
        for (line, cl) in self.controller(node).cache.iter() {
            f(line, cl.mode, cl.data);
        }
    }

    fn for_each_l1_line(&self, node: NodeId, f: &mut dyn FnMut(LineAddr)) {
        if let Some(l1) = &self.controller(node).proc_cache {
            for (line, ()) in l1.iter() {
                f(line);
            }
        }
    }

    fn for_each_mlt_line(&self, col: u32, f: &mut dyn FnMut(LineAddr)) {
        for &line in self.mlt(col).iter() {
            f(line);
        }
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

    fn for_each_memory_line(&self, f: &mut dyn FnMut(LineAddr)) {
        for col in 0..Machine::side(self) {
            for (line, _, _) in self.memory(col).touched_lines() {
                f(line);
            }
        }
    }

    fn committed_version(&self, line: LineAddr) -> LineVersion {
        Machine::committed_version(self, line)
    }

    fn registry_owner(&self, line: LineAddr) -> Option<NodeId> {
        Machine::registry_owner(self, line)
    }

    fn for_each_registry_entry(&self, f: &mut dyn FnMut(LineAddr, NodeId)) {
        for (line, node) in Machine::registry_entries(self) {
            f(line, node);
        }
    }

    fn for_each_registry_sharers(&self, f: &mut dyn FnMut(LineAddr, &[NodeId])) {
        for (line, nodes) in Machine::registry_sharers(self) {
            f(line, nodes);
        }
    }

    fn for_each_registry_mlt_col(&self, f: &mut dyn FnMut(LineAddr, u32)) {
        for (line, col) in Machine::registry_mlt_cols(self) {
            f(line, col);
        }
    }

    fn for_each_excl_entry(&self, f: &mut dyn FnMut(LineAddr, NodeId)) {
        for (&line, &node) in &self.arena_excl {
            f(line, node);
        }
    }

    fn for_each_sm_entry(&self, f: &mut dyn FnMut(LineAddr, NodeId)) {
        for (&line, &node) in &self.arena_sm {
            f(line, node);
        }
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

/// Flags of a [`Held`] copy. The first two compare the copy's data with
/// the line's committed version when it is recorded; the rest are set on
/// the first copy of a line, by a walk over a registry or side table that
/// found the line listed as the caches hold it.
const CURRENT: u8 = 1 << 0;
const FUTURE: u8 = 1 << 1;
const SHARERS_LISTED: u8 = 1 << 2;
const EXCL_LISTED: u8 = 1 << 3;
const SM_LISTED: u8 = 1 << 4;

/// One resident copy, as the check pass records it.
#[derive(Clone, Copy)]
struct Held {
    line: LineAddr,
    node: NodeId,
    mode: LineMode,
    flags: u8,
}

impl Held {
    fn is(&self, mode: LineMode) -> bool {
        self.mode == mode
    }

    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// The copies of one line, in node order.
type Copies = [Held];

/// The first copy held in `mode`, and the second.
fn holders(copies: &Copies, mode: LineMode) -> (Option<&Held>, Option<&Held>) {
    let mut it = copies.iter().filter(move |h| h.is(mode));
    (it.next(), it.next())
}

/// The nodes holding the line in `mode`, ascending.
fn nodes_in(copies: &Copies, mode: LineMode) -> impl Iterator<Item = NodeId> + '_ {
    copies.iter().filter(move |h| h.is(mode)).map(|h| h.node)
}

/// Every resident copy of every cache, sorted by (line, node).
struct Residency {
    held: Vec<Held>,
}

impl Residency {
    /// Reads every cache once.
    fn gather(v: &dyn CoherenceView) -> Self {
        let nodes = v.side() * v.side();
        let total = (0..nodes).map(|i| v.resident_len(NodeId::new(i))).sum();
        let mut held = Vec::with_capacity(total);
        for i in 0..nodes {
            let node = NodeId::new(i);
            v.for_each_resident(node, &mut |line, mode, data| {
                let latest = v.committed_version(line);
                let flags = match data.cmp(&latest) {
                    core::cmp::Ordering::Equal => CURRENT,
                    core::cmp::Ordering::Greater => FUTURE,
                    core::cmp::Ordering::Less => 0,
                };
                held.push(Held {
                    line,
                    node,
                    mode,
                    flags,
                });
            });
        }
        held.sort_unstable_by_key(|h| (h.line, h.node));
        Residency { held }
    }

    /// Each resident line's copies, in line order.
    fn lines(&self) -> impl Iterator<Item = &Copies> {
        self.held.chunk_by(|a, b| a.line == b.line)
    }

    /// Where `line`'s copies sit in the record (empty if none).
    fn range(&self, line: LineAddr) -> Range<usize> {
        line_range(&self.held, line, |h| h.line)
    }

    /// `line`'s copies.
    fn of(&self, line: LineAddr) -> &Copies {
        &self.held[self.range(line)]
    }

    /// Marks the first copy in `range`, one line's copies, with `flag`.
    fn mark(&mut self, range: Range<usize>, flag: u8) {
        self.held[range.start].flags |= flag;
    }

    /// Whether `node` holds `line`.
    fn holds(&self, node: NodeId, line: LineAddr) -> bool {
        self.of(line).iter().any(|h| h.node == node)
    }
}

/// One modified line table entry, as the check pass records it.
#[derive(Clone, Copy)]
struct Listed {
    line: LineAddr,
    col: u32,
    /// On a line's first entry: the column the registry records for the
    /// line, the last one visited if several are.
    recorded: Option<u32>,
}

/// Every modified line table entry, sorted by (line, column).
struct Tables {
    entries: Vec<Listed>,
}

impl Tables {
    /// Reads every table twice: once to size the record, once to fill it.
    fn gather(v: &dyn CoherenceView) -> Self {
        let mut len = 0;
        for col in 0..v.side() {
            v.for_each_mlt_line(col, &mut |_| len += 1);
        }
        let mut entries = Vec::with_capacity(len);
        for col in 0..v.side() {
            v.for_each_mlt_line(col, &mut |line| {
                entries.push(Listed {
                    line,
                    col,
                    recorded: None,
                });
            });
        }
        entries.sort_unstable_by_key(|e| (e.line, e.col));
        Tables { entries }
    }

    fn range(&self, line: LineAddr) -> Range<usize> {
        line_range(&self.entries, line, |e| e.line)
    }

    /// The columns whose tables list `line`, ascending.
    fn columns(&self, line: LineAddr) -> Vec<u32> {
        self.entries[self.range(line)]
            .iter()
            .map(|e| e.col)
            .collect()
    }
}

/// Where `line`'s items sit in `items`, a slice sorted by line.
fn line_range<T>(items: &[T], line: LineAddr, line_of: fn(&T) -> LineAddr) -> Range<usize> {
    let start = items.partition_point(|x| line_of(x) < line);
    start..start + items[start..].partition_point(|x| line_of(x) == line)
}

/// Whichever of two findings names the lower line; `a` on a tie.
fn lower<T>(a: Option<(LineAddr, T)>, b: Option<(LineAddr, T)>) -> Option<(LineAddr, T)> {
    match (a, b) {
        (Some(a), Some(b)) if b.0 < a.0 => Some(b),
        (None, b) => b,
        (a, _) => a,
    }
}

/// Keeps `found` at the finding with the lowest line: the first of equals.
fn keep_lowest<T>(found: &mut Option<(LineAddr, T)>, line: LineAddr, what: T) {
    *found = lower(found.take(), Some((line, what)));
}

/// The data version `node` holds for `line`, read back from its cache for
/// a report.
fn version_at(v: &dyn CoherenceView, node: NodeId, line: LineAddr) -> Option<LineVersion> {
    let mut found = None;
    v.for_each_resident(node, &mut |l, _, data| {
        if l == line {
            found = Some(data);
        }
    });
    found
}

/// Single writer. Of several lines held modified twice, the one reported
/// is the one whose second writer has the lowest index (then the lowest
/// address), with its first two writers.
fn check_single_writer(r: &Residency) -> Result<(), CoherenceViolation> {
    let mut found: Option<(NodeId, LineAddr, NodeId)> = None;
    for copies in r.lines() {
        if let (Some(first), Some(second)) = holders(copies, LineMode::Modified) {
            if found.is_none_or(|(n, _, _)| second.node < n) {
                found = Some((second.node, first.line, first.node));
            }
        }
    }
    match found {
        Some((second, line, first)) => Err(CoherenceViolation::MultipleWriters {
            line,
            nodes: (first, second),
        }),
        None => Ok(()),
    }
}

/// Judges every line any structure knows — the resident ones and every
/// line memory has stored — with `judge`, and reports the violation at the
/// lowest address.
fn check_known_lines(
    v: &dyn CoherenceView,
    r: &Residency,
    judge: impl Fn(LineAddr, &Copies) -> Result<(), CoherenceViolation>,
) -> Result<(), CoherenceViolation> {
    let mut found = r.lines().find_map(|copies| {
        judge(copies[0].line, copies)
            .err()
            .map(|e| (copies[0].line, e))
    });
    v.for_each_memory_line(&mut |line| {
        let before = found.as_ref().is_none_or(|(l, _)| line < *l);
        if before && r.of(line).is_empty() {
            if let Err(e) = judge(line, &[]) {
                found = Some((line, e));
            }
        }
    });
    found.map_or(Ok(()), |(_, e)| Err(e))
}

/// Registry sanity, both directions: every cache owner is registered,
/// every registry entry is backed by a modified copy, the per-line sharer
/// list names exactly the caches holding shared copies, and the recorded
/// MLT column names exactly the tables listing the line.
fn check_registry(
    v: &dyn CoherenceView,
    r: &mut Residency,
    t: &mut Tables,
) -> Result<(), CoherenceViolation> {
    for copies in r.lines() {
        if let (Some(owner), _) = holders(copies, LineMode::Modified) {
            if v.registry_owner(owner.line) != Some(owner.node) {
                return Err(CoherenceViolation::RegistryMismatch {
                    line: owner.line,
                    detail: format!("cache owner {} not in registry", owner.node),
                });
            }
        }
    }
    let mut stray = None;
    v.for_each_registry_entry(&mut |line, node| {
        if holders(r.of(line), LineMode::Modified).0.is_none() {
            keep_lowest(&mut stray, line, node);
        }
    });
    if let Some((line, node)) = stray {
        return Err(CoherenceViolation::RegistryMismatch {
            line,
            detail: format!("registry claims {node} but no cache holds it modified"),
        });
    }

    // Compare every listed line with its shared copies, marking those that
    // agree; a line with shared copies left unmarked is not listed at all.
    let mut wrong = None;
    v.for_each_registry_sharers(&mut |line, listed| {
        let range = r.range(line);
        if nodes_in(&r.held[range.clone()], LineMode::Shared).eq(listed.iter().copied()) {
            if !listed.is_empty() {
                r.mark(range, SHARERS_LISTED);
            }
        } else {
            keep_lowest(&mut wrong, line, listed.to_vec());
        }
    });
    let unlisted = r
        .lines()
        .find(|c| holders(c, LineMode::Shared).0.is_some() && !c[0].has(SHARERS_LISTED))
        .map(|c| (c[0].line, Vec::new()));
    if let Some((line, registry)) = lower(wrong, unlisted) {
        return Err(CoherenceViolation::SharerSetMismatch {
            line,
            registry,
            caches: nodes_in(r.of(line), LineMode::Shared).collect(),
        });
    }

    // The recorded MLT column names exactly the tables listing the line.
    // A view deriving the record from the tables visits a line listed
    // twice twice; the last visit stands.
    let mut unlisted: Option<(LineAddr, Option<u32>)> = None;
    v.for_each_registry_mlt_col(&mut |line, col| {
        let range = t.range(line);
        if range.is_empty() {
            if unlisted.is_none_or(|(l, _)| line <= l) {
                unlisted = Some((line, Some(col)));
            }
        } else {
            t.entries[range.start].recorded = Some(col);
        }
    });
    let wrong = t
        .entries
        .chunk_by(|a, b| a.line == b.line)
        .find(|e| e.len() > 1 || e[0].recorded != Some(e[0].col))
        .map(|e| (e[0].line, e[0].recorded));
    if let Some((line, registry)) = lower(wrong, unlisted) {
        return Err(CoherenceViolation::MltColumnMismatch {
            line,
            registry,
            tables: t.columns(line),
        });
    }
    Ok(())
}

/// The §2 strict-subset property: every L1 line is present in L2. Reports
/// the lowest node's lowest missing line.
fn check_l1_subset(v: &dyn CoherenceView, r: &Residency) -> Result<(), CoherenceViolation> {
    let n = v.side();
    for node_idx in 0..(n * n) {
        let node = NodeId::new(node_idx);
        let mut missing = None;
        v.for_each_l1_line(node, &mut |line| {
            if !r.holds(node, line) {
                keep_lowest(&mut missing, line, ());
            }
        });
        if let Some((line, ())) = missing {
            return Err(CoherenceViolation::SubsetViolation { node, line });
        }
    }
    Ok(())
}

/// No leaked watchdog escalations.
fn check_escalation(v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
    match v.escalated() {
        Some(txn) => Err(CoherenceViolation::EscalationLeak { txn }),
        None => Ok(()),
    }
}

/// Runs all invariant checks against a quiescent Multicube machine (or
/// any other [`CoherenceView`] claiming Multicube semantics).
///
/// # Errors
///
/// The first violation found.
pub fn check(v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
    let n = v.side();
    let mut r = Residency::gather(v);
    check_single_writer(&r)?;

    // 2. Modified excludes shared.
    for copies in r.lines() {
        if let (Some(owner), _) = holders(copies, LineMode::Modified) {
            if let (Some(sharer), _) = holders(copies, LineMode::Shared) {
                return Err(CoherenceViolation::ModifiedWithSharers {
                    line: owner.line,
                    owner: owner.node,
                    sharer: sharer.node,
                });
            }
        }
    }

    // 3+4. Valid bit and value integrity over every line any structure knows.
    check_known_lines(v, &r, |line, copies| {
        let memory_valid = v.memory_valid(line);
        let (owner, _) = holders(copies, LineMode::Modified);
        let has_owner = owner.is_some();
        if memory_valid == has_owner {
            return Err(CoherenceViolation::ValidBitMismatch {
                line,
                memory_valid,
                has_owner,
            });
        }
        let latest = v.committed_version(line);
        if let Some(owner) = owner {
            if !owner.has(CURRENT) {
                let held = version_at(v, owner.node, line);
                return Err(CoherenceViolation::StaleValue {
                    line,
                    holder: format!("owner {} holds {held:?}, expected {latest:?}", owner.node),
                });
            }
        } else {
            if v.memory_data(line) != latest {
                return Err(CoherenceViolation::StaleValue {
                    line,
                    holder: format!("memory column {}", v.home_column(line)),
                });
            }
            if let Some(sharer) = copies
                .iter()
                .find(|h| h.is(LineMode::Shared) && !h.has(CURRENT))
            {
                let held = version_at(v, sharer.node, line);
                return Err(CoherenceViolation::StaleValue {
                    line,
                    holder: format!("sharer {} holds {held:?}, expected {latest:?}", sharer.node),
                });
            }
        }
        Ok(())
    })?;

    // 5. Each column's MLT matches the column's modified lines: it lists
    // as many lines as the column holds modified, and none held elsewhere.
    let mut t = Tables::gather(v);
    let cols = n as usize;
    let mut owned = vec![0usize; cols];
    for copies in r.lines() {
        if let (Some(owner), _) = holders(copies, LineMode::Modified) {
            owned[owner.node.as_usize() % cols] += 1;
        }
    }
    let mut listed = vec![0usize; cols];
    let mut stray = vec![false; cols];
    for e in &t.entries {
        let col = e.col as usize;
        listed[col] += 1;
        let owner = holders(r.of(e.line), LineMode::Modified).0;
        stray[col] |= owner.is_none_or(|o| o.node.as_usize() % cols != col);
    }
    for col in 0..cols {
        if stray[col] || listed[col] != owned[col] {
            return Err(CoherenceViolation::MltInconsistent {
                col: col as u32,
                detail: format!(
                    "table has {} entries, column holds {} modified lines",
                    listed[col], owned[col]
                ),
            });
        }
    }

    // 6. Processor-cache subset property (§2).
    check_l1_subset(v, &r)?;

    // 7. Registry sanity.
    check_registry(v, &mut r, &mut t)?;

    // 8. No leaked watchdog escalations.
    check_escalation(v)
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
    (Engine::of(kind).check)(v)
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
    let mut r = Residency::gather(v);
    check_single_writer(&r)?;
    check_registry(v, &mut r, &mut Tables::gather(v))?;
    check_l1_subset(v, &r)?;
    // No structure may hold a version from the future: the lowest node's
    // lowest such line, then the first such line memory visits.
    if let Some(h) = r
        .held
        .iter()
        .filter(|h| h.has(FUTURE))
        .min_by_key(|h| (h.node, h.line))
    {
        let data = version_at(v, h.node, h.line).expect("a recorded copy is resident");
        return Err(CoherenceViolation::StaleValue {
            line: h.line,
            holder: format!("{} holds uncommitted version {data:?}", h.node),
        });
    }
    let mut future = None;
    v.for_each_memory_line(&mut |line| {
        if future.is_none() && v.memory_data(line) > v.committed_version(line) {
            future = Some(line);
        }
    });
    if let Some(line) = future {
        return Err(CoherenceViolation::StaleValue {
            line,
            holder: format!(
                "memory column {} holds uncommitted version",
                v.home_column(line)
            ),
        });
    }
    Ok(())
}

/// Shared invariant walk for the arena engines. `update_based`
/// selects Dragon's dirty-shared (`Sm`) semantics.
fn check_arena(v: &dyn CoherenceView, update_based: bool) -> Result<(), CoherenceViolation> {
    let n = v.side();
    let mut r = Residency::gather(v);
    check_single_writer(&r)?;

    // An M copy is the sole copy.
    for copies in r.lines() {
        let (Some(owner), _) = holders(copies, LineMode::Modified) else {
            continue;
        };
        if let (Some(sharer), _) = holders(copies, LineMode::Shared) {
            return Err(CoherenceViolation::ModifiedWithSharers {
                line: owner.line,
                owner: owner.node,
                sharer: sharer.node,
            });
        }
        if let (Some(holder), _) = holders(copies, LineMode::Reserved) {
            return Err(CoherenceViolation::RegistryMismatch {
                line: owner.line,
                detail: format!(
                    "{} holds an exclusive-clean copy alongside owner {}",
                    holder.node, owner.node
                ),
            });
        }
    }

    // An E copy is the sole copy, and the side table matches the caches:
    // mark the lines whose sole E holder the table names, then walk them.
    let mut stray = None;
    v.for_each_excl_entry(&mut |line, node| {
        let range = r.range(line);
        match holders(&r.held[range.clone()], LineMode::Reserved).0 {
            None => keep_lowest(&mut stray, line, node),
            Some(h) if h.node == node => r.mark(range, EXCL_LISTED),
            Some(_) => {}
        }
    });
    for copies in r.lines() {
        let (first, second) = holders(copies, LineMode::Reserved);
        let Some(first) = first else {
            continue;
        };
        let detail = if let Some(second) = second {
            format!(
                "{} and {} both hold exclusive-clean copies",
                first.node, second.node
            )
        } else if let (Some(sharer), _) = holders(copies, LineMode::Shared) {
            format!(
                "{} holds an exclusive-clean copy alongside sharer {}",
                first.node, sharer.node
            )
        } else if !copies[0].has(EXCL_LISTED) {
            format!(
                "exclusive-clean holder {} missing from the E side table",
                first.node
            )
        } else {
            continue;
        };
        return Err(CoherenceViolation::RegistryMismatch {
            line: first.line,
            detail,
        });
    }
    if let Some((line, node)) = stray {
        return Err(CoherenceViolation::RegistryMismatch {
            line,
            detail: format!("E side table claims {node} but no cache holds it exclusive-clean"),
        });
    }

    // The Sm side table: a Dragon shared-modified holder must be a
    // resident sharer; MESI must never populate it.
    let mut wrong = None;
    v.for_each_sm_entry(&mut |line, holder| {
        let range = r.range(line);
        let is_sharer = nodes_in(&r.held[range.clone()], LineMode::Shared).any(|n| n == holder);
        if update_based && is_sharer {
            r.mark(range, SM_LISTED);
        } else {
            keep_lowest(&mut wrong, line, holder);
        }
    });
    if let Some((line, holder)) = wrong {
        let detail = if update_based {
            format!("Sm holder {holder} does not hold the line shared")
        } else {
            format!("Sm side table claims {holder} under a write-invalidate engine")
        };
        return Err(CoherenceViolation::RegistryMismatch { line, detail });
    }

    // Valid bit and value integrity over every line any structure knows.
    // A listed Sm line has a resident sharer, so a line only memory knows
    // is never dirty.
    check_known_lines(v, &r, |line, copies| {
        let memory_valid = v.memory_valid(line);
        let (owner, _) = holders(copies, LineMode::Modified);
        let dirty = owner.is_some() || copies.first().is_some_and(|h| h.has(SM_LISTED));
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
        if let Some(owner) = owner.filter(|o| !o.has(CURRENT)) {
            let held = version_at(v, owner.node, line);
            return Err(CoherenceViolation::StaleValue {
                line,
                holder: format!("owner {} holds {held:?}, expected {latest:?}", owner.node),
            });
        }
        let shared = copies.iter().filter(|h| h.is(LineMode::Shared));
        let reserved = copies.iter().filter(|h| h.is(LineMode::Reserved));
        if let Some(holder) = shared.chain(reserved).find(|h| !h.has(CURRENT)) {
            let held = version_at(v, holder.node, line);
            return Err(CoherenceViolation::StaleValue {
                line,
                holder: format!("{} holds {held:?}, expected {latest:?}", holder.node),
            });
        }
        Ok(())
    })?;

    // The MLT is a Multicube structure; arena engines must leave every
    // column's table empty.
    for col in 0..n {
        let mut first = None;
        v.for_each_mlt_line(col, &mut |line| {
            first.get_or_insert(line);
        });
        if let Some(line) = first {
            return Err(CoherenceViolation::MltInconsistent {
                col,
                detail: format!("arena engine populated the MLT with {line:?}"),
            });
        }
    }
    check_l1_subset(v, &r)?;

    // Registry sanity (both directions).
    check_registry(v, &mut r, &mut Tables::gather(v))?;

    check_escalation(v)
}
