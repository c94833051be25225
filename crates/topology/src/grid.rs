//! The two-dimensional grid used by the Wisconsin Multicube machine.

use crate::cube::TopologyError;
use crate::ids::NodeId;

/// An `n x n` grid of processors: the Wisconsin Multicube topology.
///
/// Node `(row, col)` sits on row bus `row` and column bus `col`. Main
/// memory is interleaved across the column buses by line address, so every
/// line has a *home column* ([`Grid::home_column`]).
///
/// # Example
///
/// ```
/// use multicube_topology::Grid;
///
/// let grid = Grid::new(4).unwrap();
/// let node = grid.node(2, 3);
/// assert_eq!(grid.row_of(node), 2);
/// assert_eq!(grid.col_of(node), 3);
/// assert_eq!(grid.home_column(42), (42 % 4) as u32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    n: u32,
}

impl Grid {
    /// Creates an `n x n` grid.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ArityTooSmall`] if `n < 2`.
    pub fn new(n: u32) -> Result<Self, TopologyError> {
        if n < 2 {
            return Err(TopologyError::ArityTooSmall);
        }
        // n^2 must fit in u32; n <= 65535 always satisfies u32, but be strict.
        if n > u16::MAX as u32 {
            return Err(TopologyError::TooManyNodes);
        }
        Ok(Grid { n })
    }

    /// Grid side `n` (processors per bus).
    #[inline]
    pub fn side(&self) -> u32 {
        self.n
    }

    /// Total processors, `n^2`.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.n * self.n
    }

    /// Total buses, `2n` (n row + n column).
    #[inline]
    pub fn num_buses(&self) -> u32 {
        2 * self.n
    }

    /// The node at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is `>= n`.
    #[inline]
    pub fn node(&self, row: u32, col: u32) -> NodeId {
        assert!(row < self.n && col < self.n, "grid coordinate out of range");
        NodeId::new(row * self.n + col)
    }

    /// The row coordinate of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn row_of(&self, node: NodeId) -> u32 {
        assert!(node.index() < self.num_nodes(), "node out of range");
        node.index() / self.n
    }

    /// The column coordinate of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn col_of(&self, node: NodeId) -> u32 {
        assert!(node.index() < self.num_nodes(), "node out of range");
        node.index() % self.n
    }

    /// Iterates over all nodes in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId::new)
    }

    /// The *home column* of a memory line: main memory is interleaved by
    /// line index across the `n` column buses (§3: "Main memory is located
    /// on the columns, interleaved by lines or pages").
    #[inline]
    pub fn home_column(&self, line_index: u64) -> u32 {
        (line_index % self.n as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rejects_too_small() {
        assert_eq!(Grid::new(1), Err(TopologyError::ArityTooSmall));
        assert!(Grid::new(2).is_ok());
    }

    #[test]
    fn proposed_machine_is_32_by_32() {
        let grid = Grid::new(32).unwrap();
        assert_eq!(grid.num_nodes(), 1024);
        assert_eq!(grid.num_buses(), 64);
    }

    #[test]
    fn node_coordinates_roundtrip() {
        let grid = Grid::new(7).unwrap();
        for r in 0..7 {
            for c in 0..7 {
                let node = grid.node(r, c);
                assert_eq!(grid.row_of(node), r);
                assert_eq!(grid.col_of(node), c);
            }
        }
    }

    #[test]
    fn row_and_column_of_a_node_intersect_only_there() {
        let grid = Grid::new(6).unwrap();
        let node = grid.node(2, 4);
        let row: HashSet<_> = (0..6).map(|c| grid.node(2, c)).collect();
        let col: HashSet<_> = (0..6).map(|r| grid.node(r, 4)).collect();
        let both: Vec<_> = row.intersection(&col).collect();
        assert_eq!(both, vec![&node]);
    }

    #[test]
    fn home_column_interleaves_lines() {
        let grid = Grid::new(4).unwrap();
        let mut seen = [0u32; 4];
        for line in 0..400u64 {
            seen[grid.home_column(line) as usize] += 1;
        }
        assert_eq!(seen, [100; 4]);
    }

    #[test]
    fn matches_general_multicube() {
        let grid = Grid::new(9).unwrap();
        let cube = crate::Multicube::new(9, 2).unwrap();
        assert_eq!(cube.num_nodes(), grid.num_nodes());
        assert_eq!(cube.num_buses(), grid.num_buses());
    }
}
