//! Typed line addresses and the per-line hash containers.

use core::fmt;

use multicube_sim::hash::{FxHashMap, FxHashSet};

/// A deterministic fast-hash map keyed by [`LineAddr`] — the map type every
/// hot-path per-line table in the workspace should use. See
/// `multicube_sim::hash` for why the default `RandomState` is wrong here.
pub type LineMap<V> = FxHashMap<LineAddr, V>;

/// A deterministic fast-hash set of [`LineAddr`]s.
pub type LineSet = FxHashSet<LineAddr>;

/// A coherency-line index: the unit over which a single consistency check
/// is performed (paper §5, "coherency block").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from its index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        LineAddr(index)
    }

    /// The line index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        // The form every coherence-violation message prints a line in.
        assert_eq!(format!("{:?}", LineAddr::new(16)), "L0x10");
    }
}
