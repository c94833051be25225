//! Per-node controller state: the snooping cache and the node's
//! outstanding transaction.

use multicube_mem::{CacheGeometry, LineAddr, LineVersion, SetAssocCache};
use multicube_topology::NodeId;
use std::collections::VecDeque;

use crate::proto::TxnId;

/// The local mode of a line in a snooping cache.
///
/// "With respect to a particular cache, a line may be in one of three local
/// modes: shared..., modified..., or invalid" (§3). Invalid is represented
/// by absence from the cache. `Reserved` is the single-bus engines'
/// exclusive-clean copy (MESI's `E`, write-once's Reserved); the
/// Multicube protocol never holds a line in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineMode {
    /// Global state unmodified; other copies may exist; memory is current.
    Shared,
    /// This cache holds the only copy; memory is stale.
    Modified,
    /// This cache holds the only copy; memory is current. A write
    /// upgrades it to `Modified` without a bus operation.
    Reserved,
}

/// One resident line: its mode and (versioned) contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    /// Coherence mode.
    pub mode: LineMode,
    /// Opaque contents stamp.
    pub data: LineVersion,
}

/// Per-node controller: snooping cache and outstanding request.
///
/// The controller is a passive state container; the protocol procedures in
/// [`crate::machine`] mutate it. Public accessors exist for tests and
/// debugging. The column's modified line table ([`crate::Machine::mlt`])
/// and the record of the outstanding transaction are held by the machine.
#[derive(Debug)]
pub struct Controller {
    node: NodeId,
    row: u32,
    col: u32,
    /// The big DRAM snooping cache. Absence == invalid.
    pub(crate) cache: SetAssocCache<CacheLine>,
    /// Recently evicted/purged lines, eligible for snarfing. Filled only
    /// when snarfing is on: nothing else reads it.
    pub(crate) recent: VecDeque<LineAddr>,
    /// Whether the machine snarfs ([`MachineConfig::snarfing`]).
    ///
    /// [`MachineConfig::snarfing`]: crate::MachineConfig::snarfing
    snarfing: bool,
    /// The single outstanding processor transaction ("Requests are
    /// assumed to be non-overlapping", Figure 2).
    pub(crate) outstanding: Option<TxnId>,
}

/// Maximum length of the snarf-recency list.
const RECENT_CAP: usize = 16;

impl Controller {
    /// Creates a controller for `node` at grid position `(row, col)`. It
    /// remembers recently held lines only if `snarfing` is on.
    pub fn new(
        node: NodeId,
        row: u32,
        col: u32,
        cache_geometry: CacheGeometry,
        snarfing: bool,
    ) -> Self {
        Controller {
            node,
            row,
            col,
            cache: SetAssocCache::new(cache_geometry),
            recent: VecDeque::new(),
            snarfing,
            outstanding: None,
        }
    }

    /// This controller's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Grid row.
    pub fn row(&self) -> u32 {
        self.row
    }

    /// Grid column.
    pub fn col(&self) -> u32 {
        self.col
    }

    /// The line's local mode, or `None` if invalid (absent).
    pub fn mode_of(&self, line: &LineAddr) -> Option<LineMode> {
        self.cache.peek(line).map(|l| l.mode)
    }

    /// The line's cached contents, if resident.
    pub fn data_of(&self, line: &LineAddr) -> Option<LineVersion> {
        self.cache.peek(line).map(|l| l.data)
    }

    /// The outstanding transaction, if any.
    pub fn outstanding(&self) -> Option<TxnId> {
        self.outstanding
    }

    /// Records an eviction/purge for snarf-recency tracking, if snarfing
    /// is on.
    pub(crate) fn note_recent(&mut self, line: LineAddr) {
        if !self.snarfing || self.recent.contains(&line) {
            return;
        }
        if self.recent.len() >= RECENT_CAP {
            self.recent.pop_front();
        }
        self.recent.push_back(line);
    }

    /// Whether the line was recently held (snarf eligibility, §3: "a line
    /// that is invalid, but was recently contained in the cache, may be
    /// acquired (snarfed) in shared mode as it passes by").
    pub(crate) fn recently_held(&self, line: &LineAddr) -> bool {
        self.recent.contains(line)
    }

    /// Removes a line from the snarf-recency list (it is resident again).
    pub(crate) fn forget_recent(&mut self, line: &LineAddr) {
        if !self.snarfing {
            return;
        }
        if let Some(pos) = self.recent.iter().position(|l| l == line) {
            self.recent.remove(pos);
        }
    }

    /// Marks a resident line invalid (purge), remembering it for snarfing
    /// if snarfing is on. Returns the line's prior state if it was
    /// resident.
    pub(crate) fn purge(&mut self, line: &LineAddr) -> Option<CacheLine> {
        let prior = self.cache.remove(line);
        if prior.is_some() {
            self.note_recent(*line);
        }
        prior
    }

    /// Whether a snarfed line could be inserted without evicting anything,
    /// and without consuming the way reserved for `requested`, the line of
    /// an outstanding bus request, when it maps to the same set.
    pub(crate) fn can_snarf(&self, line: &LineAddr, requested: Option<LineAddr>) -> bool {
        if self.cache.contains(line) {
            return false;
        }
        if self.cache.victim_for(line).is_some() {
            return false; // would evict
        }
        // Don't consume the way reserved for the outstanding miss.
        if let Some(req) = requested {
            let sets = self.cache.geometry().sets() as u64;
            if !self.cache.contains(&req) && req.index() % sets == line.index() % sets {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> Controller {
        Controller::new(NodeId::new(5), 1, 1, CacheGeometry::new(2, 2), true)
    }

    fn line(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn new_controller_is_empty() {
        let c = controller();
        assert_eq!(c.node(), NodeId::new(5));
        assert_eq!((c.row(), c.col()), (1, 1));
        assert_eq!(c.mode_of(&line(0)), None);
        assert!(c.outstanding().is_none());
    }

    #[test]
    fn purge_remembers_for_snarfing() {
        let mut c = controller();
        c.cache.insert(
            line(3),
            CacheLine {
                mode: LineMode::Shared,
                data: LineVersion::INITIAL,
            },
        );
        assert!(c.purge(&line(3)).is_some());
        assert!(c.recently_held(&line(3)));
        assert_eq!(c.mode_of(&line(3)), None);
        // Purging an absent line records nothing.
        assert!(c.purge(&line(9)).is_none());
        assert!(!c.recently_held(&line(9)));
    }

    #[test]
    fn recent_list_is_bounded() {
        let mut c = controller();
        for i in 0..100 {
            c.note_recent(line(i));
        }
        assert!(c.recent.len() <= RECENT_CAP);
        assert!(c.recently_held(&line(99)));
        assert!(!c.recently_held(&line(0)));
    }

    #[test]
    fn forget_recent_removes() {
        let mut c = controller();
        c.note_recent(line(1));
        c.forget_recent(&line(1));
        assert!(!c.recently_held(&line(1)));
    }

    #[test]
    fn can_snarf_requires_free_way() {
        let mut c = controller();
        // Fill set 0 (lines 0, 2 with 2-set geometry).
        for i in [0u64, 2] {
            c.cache.insert(
                line(i),
                CacheLine {
                    mode: LineMode::Shared,
                    data: LineVersion::INITIAL,
                },
            );
        }
        assert!(!c.can_snarf(&line(4), None)); // set 0 full
        assert!(c.can_snarf(&line(1), None)); // set 1 has room
        assert!(!c.can_snarf(&line(0), None)); // already resident
    }

    #[test]
    fn can_snarf_respects_reservation() {
        let mut c = controller();
        // An outstanding request for line 1 (set 1).
        let requested = Some(line(1));
        // Set 1 is empty (two free ways), but one is reserved: a same-set
        // snarf of a *different* line is still fine (two ways); fill one.
        c.cache.insert(
            line(3),
            CacheLine {
                mode: LineMode::Shared,
                data: LineVersion::INITIAL,
            },
        );
        // Now set 1 has one free way, reserved for line 1.
        assert!(!c.can_snarf(&line(5), requested));
        assert!(c.can_snarf(&line(5), None));
        // Set 0 unaffected.
        assert!(c.can_snarf(&line(4), requested));
    }
}
