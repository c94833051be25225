//! Typed identifiers for nodes and buses.

use core::fmt;

/// A processor/controller node, identified by its linear index in the
/// topology's row-major coordinate order.
///
/// # Example
///
/// ```
/// use multicube_topology::NodeId;
///
/// let node = NodeId::new(17);
/// assert_eq!(node.index(), 17);
/// assert_eq!(node.to_string(), "P17");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its linear index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The linear index of this node.
    #[inline]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// The linear index as a `usize`, for direct array indexing.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The role a bus plays in the two-dimensional machine.
///
/// In the 2-D Wisconsin Multicube every node sits on one **row** bus and one
/// **column** bus; main memory hangs off the column buses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BusKind {
    /// A row bus of the 2-D machine (connects the nodes of one row).
    Row,
    /// A column bus of the 2-D machine (connects the nodes of one column;
    /// memory banks attach here).
    Column,
}

impl fmt::Display for BusKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusKind::Row => write!(f, "row"),
            BusKind::Column => write!(f, "col"),
        }
    }
}

/// A bus, identified by its kind and its index among buses of that kind.
///
/// For a [`crate::Grid`] of side `n`, row buses are `BusId::row(0..n)` and
/// column buses are `BusId::column(0..n)`.
///
/// # Example
///
/// ```
/// use multicube_topology::BusId;
///
/// let b = BusId::row(3);
/// assert_eq!(b.to_string(), "row3");
/// assert_ne!(BusId::row(3), BusId::column(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BusId {
    kind: BusKind,
    index: u32,
}

impl BusId {
    /// The row bus of row `row`.
    #[inline]
    pub const fn row(row: u32) -> Self {
        BusId {
            kind: BusKind::Row,
            index: row,
        }
    }

    /// The column bus of column `col`.
    #[inline]
    pub const fn column(col: u32) -> Self {
        BusId {
            kind: BusKind::Column,
            index: col,
        }
    }

    /// This bus's kind.
    #[inline]
    pub const fn kind(self) -> BusKind {
        self.kind
    }

    /// Index among buses of the same kind.
    #[inline]
    pub const fn index(self) -> u32 {
        self.index
    }

    /// Whether this is a row bus of the 2-D machine.
    #[inline]
    pub const fn is_row(self) -> bool {
        matches!(self.kind, BusKind::Row)
    }

    /// Whether this is a column bus of the 2-D machine.
    #[inline]
    pub const fn is_column(self) -> bool {
        matches!(self.kind, BusKind::Column)
    }
}

impl fmt::Display for BusId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.kind, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(1023);
        assert_eq!(n.index(), 1023);
        assert_eq!(n.as_usize(), 1023);
    }

    #[test]
    fn bus_ids_distinguish_kinds() {
        let mut set = HashSet::new();
        set.insert(BusId::row(0));
        set.insert(BusId::column(0));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId::new(5).to_string(), "P5");
        assert_eq!(BusId::row(2).to_string(), "row2");
        assert_eq!(BusId::column(7).to_string(), "col7");
    }

    #[test]
    fn ordering_groups_by_kind_then_index() {
        assert!(BusId::row(9) < BusId::column(0));
        assert!(BusId::row(1) < BusId::row(2));
    }
}
