//! Model state: an abstracted 2×2 Multicube small enough to enumerate.
//!
//! The checker models the smallest interesting machine — a 2×2 grid
//! (four snooping caches, two memory columns interleaved by home column)
//! — with a handful of lines and a bounded number of transactions. Data
//! values are abstracted to per-line *generation numbers*: each committed
//! write mints the next generation, so value-integrity invariants reduce
//! to integer comparisons, and canonicalization can renumber generations
//! densely to keep the state space finite.
//!
//! Because every protocol rule fires atomically (request service is one
//! transition, not a chain of bus events), every reachable state is
//! quiescent-shaped, and the *simulator's own* quiescent invariants from
//! [`multicube::check`] judge it through the [`CoherenceView`] trait.
//! Derived structures — the owner registry, the per-column MLTs,
//! the arena side tables — are computed from cache modes on demand, so
//! they are consistent by construction; the invariants still exercise
//! the protocol-semantic constraints (single writer, valid bit, value
//! integrity, update freshness) that a wrong rule would break.

use multicube::{CoherenceView, EngineKind, LineMode, TxnId};
use multicube_mem::{LineAddr, LineVersion};
use multicube_topology::NodeId;

/// Grid side of the modelled machine.
pub const SIDE: usize = 2;
/// Node count of the modelled machine.
pub const NODES: usize = SIDE * SIDE;

/// Checker configuration: which engine's rules to enumerate and how much
/// of the machine to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Protocol rule set.
    pub engine: EngineKind,
    /// Distinct coherency lines (1–2 is exhaustive in seconds).
    pub lines: u8,
    /// Total transactions issued over a run (2–3).
    pub txns: u8,
    /// Fault budget: how many injected faults (dropped modified signals,
    /// stale MLT claims, lost/duplicated ops, memory NACKs) a schedule
    /// may contain. Only the Multicube engine has fault rules; arena
    /// engines reject active fault plans in the simulator and have no
    /// fault transitions here.
    pub budget: u8,
}

impl ModelConfig {
    /// A new configuration. `lines` and `txns` must be nonzero.
    pub fn new(engine: EngineKind, lines: u8, txns: u8, budget: u8) -> Self {
        assert!(lines >= 1, "at least one line");
        assert!(txns >= 1, "at least one transaction");
        assert!(
            budget == 0 || engine == EngineKind::Multicube,
            "fault budgets are a Multicube-only feature, mirroring the \
             simulator's FaultConfigError::UnsupportedByEngine"
        );
        ModelConfig {
            engine,
            lines,
            txns,
            budget,
        }
    }
}

/// A cache line's mode at one node, collapsed to the four classic states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mode {
    /// Invalid / not resident.
    I,
    /// Shared (read-only in Multicube, MESI and write-once;
    /// writable-with-update in Dragon).
    S,
    /// Modified (dirty, sole copy).
    M,
    /// Exclusive-clean — `LineMode::Reserved`; arena engines only.
    E,
}

/// One line's global coherence state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineState {
    /// Per-node cache mode, indexed by row-major node index.
    pub mode: [Mode; NODES],
    /// Per-node held generation; meaningful only where `mode != I` and
    /// zeroed elsewhere by canonicalization.
    pub data: [u8; NODES],
    /// Dragon's shared-modified (`Sm`) holder, if any.
    pub sm: Option<u8>,
    /// Memory's valid bit at the home column.
    pub mem_valid: bool,
    /// Memory's stored generation (possibly stale while dirty).
    pub mem_data: u8,
    /// The latest committed generation.
    pub committed: u8,
}

impl LineState {
    /// The pristine line: invalid everywhere, memory valid at generation
    /// zero — exactly a [`multicube_mem::MemoryBank`]'s untouched default.
    pub fn initial() -> Self {
        LineState {
            mode: [Mode::I; NODES],
            data: [0; NODES],
            sm: None,
            mem_valid: true,
            mem_data: 0,
            committed: 0,
        }
    }

    /// The node holding this line modified, if any.
    pub fn owner(&self) -> Option<usize> {
        (0..NODES).find(|&i| self.mode[i] == Mode::M)
    }

    /// The node holding this line exclusive-clean, if any.
    pub fn excl(&self) -> Option<usize> {
        (0..NODES).find(|&i| self.mode[i] == Mode::E)
    }

    /// Count of resident copies (any non-invalid mode).
    pub fn copies(&self) -> usize {
        (0..NODES).filter(|&i| self.mode[i] != Mode::I).count()
    }
}

/// A transaction slot. `Free < Pending < Done` ordering lets
/// canonicalization sort slots, collapsing permutations of identical
/// in-flight transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Slot {
    /// Unissued capacity.
    Free,
    /// An issued, not-yet-served request.
    Pending {
        /// Requesting node (row-major index).
        node: u8,
        /// True for a write (READ-MOD), false for a read.
        write: bool,
        /// Line index.
        line: u8,
    },
    /// A completed transaction.
    Done,
}

/// One global model state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    /// Per-line coherence state, indexed by line address.
    pub lines: Vec<LineState>,
    /// Transaction slots (sorted by canonicalization).
    pub slots: Vec<Slot>,
    /// Remaining fault budget.
    pub budget: u8,
}

impl State {
    /// The initial state for `cfg`: pristine lines, all slots free, the
    /// full fault budget.
    pub fn initial(cfg: &ModelConfig) -> Self {
        State {
            lines: vec![LineState::initial(); cfg.lines as usize],
            slots: vec![Slot::Free; cfg.txns as usize],
            budget: cfg.budget,
        }
    }

    /// True if `node` has a request in flight (the simulator admits one
    /// outstanding request per processor).
    pub fn node_busy(&self, node: u8) -> bool {
        self.slots
            .iter()
            .any(|s| matches!(s, Slot::Pending { node: n, .. } if *n == node))
    }

    /// True when no transaction is in flight — the model analogue of the
    /// simulator's quiescence.
    pub fn idle(&self) -> bool {
        !self.slots.iter().any(|s| matches!(s, Slot::Pending { .. }))
    }

    /// The canonical representative of this state's symmetry class:
    /// per-line generations renumbered densely (so unbounded version
    /// counters collapse), non-resident data slots zeroed, and slots
    /// sorted (transaction identity is immaterial).
    pub fn canonical(&self) -> State {
        let mut t = self.clone();
        for ls in &mut t.lines {
            for i in 0..NODES {
                if ls.mode[i] == Mode::I {
                    ls.data[i] = 0;
                }
            }
            let mut gens: Vec<u8> = vec![ls.committed, ls.mem_data];
            for i in 0..NODES {
                if ls.mode[i] != Mode::I {
                    gens.push(ls.data[i]);
                }
            }
            gens.sort_unstable();
            gens.dedup();
            let rank = |g: u8| gens.binary_search(&g).expect("gen collected") as u8;
            ls.committed = rank(ls.committed);
            ls.mem_data = rank(ls.mem_data);
            for i in 0..NODES {
                if ls.mode[i] != Mode::I {
                    ls.data[i] = rank(ls.data[i]);
                }
            }
        }
        t.slots.sort_unstable();
        t
    }
}

/// Adapter presenting a model [`State`] as a [`CoherenceView`], so the
/// simulator's own invariant predicates judge every explored state.
pub struct StateView<'a> {
    /// The configuration (engine selects which derived tables are live).
    pub cfg: &'a ModelConfig,
    /// The state under judgment.
    pub state: &'a State,
}

impl StateView<'_> {
    fn line(&self, line: LineAddr) -> &LineState {
        &self.state.lines[line.index() as usize]
    }
}

impl CoherenceView for StateView<'_> {
    fn side(&self) -> u32 {
        SIDE as u32
    }

    fn resident_len(&self, node: NodeId) -> usize {
        let i = node.as_usize();
        self.state
            .lines
            .iter()
            .filter(|ls| ls.mode[i] != Mode::I)
            .count()
    }

    fn for_each_resident(&self, node: NodeId, f: &mut dyn FnMut(LineAddr, LineMode, LineVersion)) {
        let i = node.as_usize();
        for (l, ls) in self.state.lines.iter().enumerate() {
            let mode = match ls.mode[i] {
                Mode::I => continue,
                Mode::S => LineMode::Shared,
                Mode::M => LineMode::Modified,
                Mode::E => LineMode::Reserved,
            };
            f(
                LineAddr::new(l as u64),
                mode,
                LineVersion::new(ls.data[i] as u64),
            );
        }
    }

    fn for_each_l1_line(&self, _node: NodeId, _f: &mut dyn FnMut(LineAddr)) {}

    fn for_each_mlt_line(&self, col: u32, f: &mut dyn FnMut(LineAddr)) {
        // The MLT is a Multicube structure; arena engines leave it empty.
        // The model keeps no table of its own: a column's table is the set
        // of lines owned by a node in that column.
        if self.cfg.engine != EngineKind::Multicube {
            return;
        }
        for (l, ls) in self.state.lines.iter().enumerate() {
            if ls.owner().is_some_and(|o| o as u32 % SIDE as u32 == col) {
                f(LineAddr::new(l as u64));
            }
        }
    }

    fn home_column(&self, line: LineAddr) -> u32 {
        (line.index() % SIDE as u64) as u32
    }

    fn memory_valid(&self, line: LineAddr) -> bool {
        self.line(line).mem_valid
    }

    fn memory_data(&self, line: LineAddr) -> LineVersion {
        LineVersion::new(self.line(line).mem_data as u64)
    }

    fn for_each_memory_line(&self, f: &mut dyn FnMut(LineAddr)) {
        for l in 0..self.state.lines.len() as u64 {
            f(LineAddr::new(l));
        }
    }

    fn committed_version(&self, line: LineAddr) -> LineVersion {
        LineVersion::new(self.line(line).committed as u64)
    }

    fn registry_owner(&self, line: LineAddr) -> Option<NodeId> {
        self.line(line).owner().map(|o| NodeId::new(o as u32))
    }

    fn for_each_registry_entry(&self, f: &mut dyn FnMut(LineAddr, NodeId)) {
        for (l, ls) in self.state.lines.iter().enumerate() {
            if let Some(o) = ls.owner() {
                f(LineAddr::new(l as u64), NodeId::new(o as u32));
            }
        }
    }

    fn for_each_registry_sharers(&self, f: &mut dyn FnMut(LineAddr, &[NodeId])) {
        // Derived from the modes, like the owner: the model has no separate
        // list that could drift.
        for (l, ls) in self.state.lines.iter().enumerate() {
            let mut nodes = [NodeId::new(0); NODES];
            let mut len = 0;
            for i in (0..NODES).filter(|&i| ls.mode[i] == Mode::S) {
                nodes[len] = NodeId::new(i as u32);
                len += 1;
            }
            if len > 0 {
                f(LineAddr::new(l as u64), &nodes[..len]);
            }
        }
    }

    fn for_each_excl_entry(&self, f: &mut dyn FnMut(LineAddr, NodeId)) {
        for (l, ls) in self.state.lines.iter().enumerate() {
            if let Some(e) = ls.excl() {
                f(LineAddr::new(l as u64), NodeId::new(e as u32));
            }
        }
    }

    fn for_each_sm_entry(&self, f: &mut dyn FnMut(LineAddr, NodeId)) {
        for (l, ls) in self.state.lines.iter().enumerate() {
            if let Some(s) = ls.sm {
                f(LineAddr::new(l as u64), NodeId::new(s as u32));
            }
        }
    }

    fn escalated(&self) -> Option<TxnId> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_canonical_and_coherent() {
        let cfg = ModelConfig::new(EngineKind::Multicube, 2, 2, 0);
        let s = State::initial(&cfg);
        assert_eq!(s.canonical(), s);
        let view = StateView {
            cfg: &cfg,
            state: &s,
        };
        multicube::check_engine(cfg.engine, &view).expect("pristine state is coherent");
    }

    #[test]
    fn canonicalization_renumbers_generations_densely() {
        let cfg = ModelConfig::new(EngineKind::Multicube, 1, 2, 0);
        let mut s = State::initial(&cfg);
        // Owner at generation 7, stale memory at 3: ranks 1 and 0.
        s.lines[0].mode[2] = Mode::M;
        s.lines[0].data[2] = 7;
        s.lines[0].committed = 7;
        s.lines[0].mem_data = 3;
        s.lines[0].mem_valid = false;
        let c = s.canonical();
        assert_eq!(c.lines[0].committed, 1);
        assert_eq!(c.lines[0].data[2], 1);
        assert_eq!(c.lines[0].mem_data, 0);
    }

    #[test]
    fn slot_order_is_immaterial() {
        let cfg = ModelConfig::new(EngineKind::Multicube, 1, 2, 0);
        let mut a = State::initial(&cfg);
        a.slots = vec![
            Slot::Done,
            Slot::Pending {
                node: 1,
                write: false,
                line: 0,
            },
        ];
        let mut b = State::initial(&cfg);
        b.slots = vec![
            Slot::Pending {
                node: 1,
                write: false,
                line: 0,
            },
            Slot::Done,
        ];
        assert_eq!(a.canonical(), b.canonical());
    }
}
