//! The general `N = n^k` Multicube topology.

use core::fmt;

/// Errors from constructing a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// `n` must be at least 2 (a bus with one node is degenerate).
    ArityTooSmall,
    /// `k` must be at least 1.
    DimensionTooSmall,
    /// `n^k` overflows the node index space (`u32`).
    TooManyNodes,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::ArityTooSmall => write!(f, "bus arity n must be at least 2"),
            TopologyError::DimensionTooSmall => write!(f, "dimension k must be at least 1"),
            TopologyError::TooManyNodes => write!(f, "n^k exceeds the supported node count"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A general Multicube: `N = n^k` nodes, each on `k` buses, each bus
/// connecting `n` nodes. It carries the shape and the §6 counts; the
/// machine simulator addresses its nodes and buses through [`crate::Grid`].
///
/// # Example
///
/// ```
/// use multicube_topology::Multicube;
///
/// // Figure 5 of the paper: 64 processors, 48 buses, 3 dimensions.
/// let cube = Multicube::new(4, 3).unwrap();
/// assert_eq!(cube.num_nodes(), 64);
/// assert_eq!(cube.num_buses(), 48);
/// assert_eq!(cube.dimension(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Multicube {
    n: u32,
    k: u8,
    num_nodes: u32,
}

impl Multicube {
    /// Creates an `n^k` multicube.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ArityTooSmall`] if `n < 2`,
    /// [`TopologyError::DimensionTooSmall`] if `k == 0`, and
    /// [`TopologyError::TooManyNodes`] if `n^k` does not fit in `u32`.
    pub fn new(n: u32, k: u8) -> Result<Self, TopologyError> {
        if n < 2 {
            return Err(TopologyError::ArityTooSmall);
        }
        if k == 0 {
            return Err(TopologyError::DimensionTooSmall);
        }
        let mut num_nodes: u32 = 1;
        for _ in 0..k {
            num_nodes = num_nodes
                .checked_mul(n)
                .ok_or(TopologyError::TooManyNodes)?;
        }
        Ok(Multicube { n, k, num_nodes })
    }

    /// Bus arity `n`: processors per bus.
    #[inline]
    pub fn arity(&self) -> u32 {
        self.n
    }

    /// Dimension `k`: buses per processor.
    #[inline]
    pub fn dimension(&self) -> u8 {
        self.k
    }

    /// Total number of nodes, `n^k`.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of buses along one dimension, `n^(k-1)`.
    #[inline]
    pub fn buses_per_dimension(&self) -> u32 {
        self.num_nodes / self.n
    }

    /// Total number of buses, `k * n^(k-1)` (§6).
    #[inline]
    pub fn num_buses(&self) -> u32 {
        self.k as u32 * self.buses_per_dimension()
    }

    /// Aggregate bus bandwidth per processor in bus-units: `k / n` (§6).
    #[inline]
    pub fn bandwidth_per_processor(&self) -> f64 {
        self.k as f64 / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_parameters() {
        assert_eq!(Multicube::new(1, 2), Err(TopologyError::ArityTooSmall));
        assert_eq!(Multicube::new(4, 0), Err(TopologyError::DimensionTooSmall));
        assert_eq!(Multicube::new(1 << 16, 2), Err(TopologyError::TooManyNodes));
    }

    #[test]
    fn figure5_counts() {
        // "A 64-Processor/48-Bus Multicube with 3 Dimensions."
        let cube = Multicube::new(4, 3).unwrap();
        assert_eq!(cube.num_nodes(), 64);
        assert_eq!(cube.num_buses(), 48);
        assert_eq!(cube.arity(), 4);
        assert_eq!(cube.dimension(), 3);
    }

    #[test]
    fn hypercube_is_n_equals_2() {
        let cube = Multicube::new(2, 4).unwrap();
        assert_eq!(cube.num_nodes(), 16);
        // 4-cube has 4 * 2^3 = 32 "buses" (edges-as-buses of arity 2).
        assert_eq!(cube.num_buses(), 32);
    }

    #[test]
    fn multi_is_k_equals_1() {
        let multi = Multicube::new(20, 1).unwrap();
        assert_eq!(multi.num_nodes(), 20);
        assert_eq!(multi.num_buses(), 1);
    }

    #[test]
    fn bandwidth_scales_as_k_over_n() {
        for (n, k) in [(8u32, 2u8), (32, 2), (4, 3), (2, 10)] {
            let cube = Multicube::new(n, k).unwrap();
            let expect = k as f64 / n as f64;
            assert!((cube.bandwidth_per_processor() - expect).abs() < 1e-12);
            // Consistency: total buses / total nodes == k/n.
            let ratio = cube.num_buses() as f64 / cube.num_nodes() as f64;
            assert!((ratio - expect).abs() < 1e-12);
        }
    }
}
