//! Closed-form scaling properties from Section 6 of the paper.
//!
//! These are the paper's analytical claims about how a `k`-dimensional
//! Multicube scales; the experiment harness prints them as the "T-6.2"
//! table and the machine simulator's measured costs are checked against the
//! transaction bounds ("T-6.1") in the integration tests.

use crate::cube::Multicube;

/// The §6 bus-operation cost bounds for the 2-D protocol, per transaction
/// class ("T-6.1").
///
/// "READs to unmodified lines \[require\] no more than four bus accesses
/// (five if the requested line is modified). Likewise, READ-MODs to
/// modified lines also require four bus accesses. However, in the case that
/// a READ-MOD (or ALLOCATE) request is for an unmodified line, a broadcast
/// operation is required. This includes n+1 row bus accesses and 3 column
/// bus accesses."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransactionCostBounds {
    /// Maximum bus ops for a READ of a line in global state unmodified.
    pub read_unmodified_max: u32,
    /// Maximum bus ops for a READ of a line in global state modified.
    pub read_modified_max: u32,
    /// Bus ops for a READ-MOD of a line in global state modified.
    pub readmod_modified: u32,
    /// Row-bus ops for a READ-MOD/ALLOCATE of an unmodified line (broadcast).
    pub readmod_unmodified_row_ops: u32,
    /// Column-bus ops for a READ-MOD/ALLOCATE of an unmodified line.
    pub readmod_unmodified_col_ops: u32,
}

impl TransactionCostBounds {
    /// The paper's bounds for a grid with `n` processors per bus.
    pub fn for_grid(n: u32) -> Self {
        TransactionCostBounds {
            read_unmodified_max: 4,
            read_modified_max: 5,
            readmod_modified: 4,
            readmod_unmodified_row_ops: n + 1,
            readmod_unmodified_col_ops: 3,
        }
    }
}

/// Scaling figures for a `k`-dimensional Multicube ("T-6.2").
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingReport {
    /// Processors per bus.
    pub n: u32,
    /// Buses per processor.
    pub k: u8,
    /// Total processors `n^k`.
    pub processors: u32,
    /// Total buses `k * n^(k-1)`.
    pub buses: u32,
    /// Bus bandwidth per processor, `k / n`.
    pub bandwidth_per_processor: f64,
    /// Processors whose modified lines one modified-line table must cover:
    /// `N / n` (§6: "the modified line table \[must\] recognize all modified
    /// lines in N/n processors").
    pub mlt_coverage_processors: u32,
    /// Approximate bus operations for a full invalidation broadcast:
    /// `(N - 1) / (n - 1)` (§6).
    pub invalidation_ops: f64,
    /// Mean minimum path length (bus hops) between two distinct processors.
    pub mean_path_length: f64,
}

impl ScalingReport {
    /// Computes the report for `cube`.
    pub fn for_cube(cube: &Multicube) -> Self {
        let n = cube.arity();
        let k = cube.dimension();
        let big_n = cube.num_nodes();
        ScalingReport {
            n,
            k,
            processors: big_n,
            buses: cube.num_buses(),
            bandwidth_per_processor: cube.bandwidth_per_processor(),
            mlt_coverage_processors: big_n / n,
            invalidation_ops: (big_n as f64 - 1.0) / (n as f64 - 1.0),
            mean_path_length: mean_path_length(n, k),
        }
    }
}

/// Mean Hamming distance between two distinct uniformly random nodes of an
/// `n^k` multicube.
///
/// Each of the `k` coordinates differs with probability `(n-1)/n`; the
/// expected distance conditioned on the nodes being distinct is
/// `k * (n-1)/n * N / (N-1)`.
///
/// # Example
///
/// ```
/// use multicube_topology::scaling::mean_path_length;
///
/// // Single bus: every pair of distinct nodes is 1 hop apart.
/// assert!((mean_path_length(8, 1) - 1.0).abs() < 1e-12);
/// ```
pub fn mean_path_length(n: u32, k: u8) -> f64 {
    let big_n = (n as f64).powi(k as i32);
    let unconditioned = k as f64 * (n as f64 - 1.0) / n as f64;
    unconditioned * big_n / (big_n - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_bounds_match_paper_text() {
        let b = TransactionCostBounds::for_grid(32);
        assert_eq!(b.read_unmodified_max, 4);
        assert_eq!(b.read_modified_max, 5);
        assert_eq!(b.readmod_modified, 4);
        assert_eq!(b.readmod_unmodified_row_ops, 33);
        assert_eq!(b.readmod_unmodified_col_ops, 3);
    }

    #[test]
    fn scaling_report_for_proposed_machine() {
        let cube = Multicube::new(32, 2).unwrap();
        let r = ScalingReport::for_cube(&cube);
        assert_eq!(r.processors, 1024);
        assert_eq!(r.buses, 64);
        assert_eq!(r.mlt_coverage_processors, 32);
        assert!((r.invalidation_ops - 1023.0 / 31.0).abs() < 1e-12);
        assert!((r.bandwidth_per_processor - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn mean_path_length_limits() {
        // k=1: always exactly one hop between distinct nodes.
        assert!((mean_path_length(16, 1) - 1.0).abs() < 1e-12);
        // k=2, large n: approaches 2.
        assert!(mean_path_length(32, 2) > 1.9);
        assert!(mean_path_length(32, 2) < 2.0);
        // Hypercube: k/2 * N/(N-1).
        let expect = 4.0 / 2.0 * 16.0 / 15.0;
        assert!((mean_path_length(2, 4) - expect).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_per_processor_grows_with_k_for_fixed_n() {
        let per_proc =
            |k: u8| ScalingReport::for_cube(&Multicube::new(8, k).unwrap()).bandwidth_per_processor;
        assert!(per_proc(3) > per_proc(2));
        assert!((per_proc(2) - 2.0 / 8.0).abs() < 1e-12);
        assert!((per_proc(3) - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn invalidation_ops_match_broadcast_structure() {
        // In 2-D, (N-1)/(n-1) = n+1, consistent with the n+1 row ops of the
        // broadcast (the column ops are the constant overhead).
        let cube = Multicube::new(16, 2).unwrap();
        let r = ScalingReport::for_cube(&cube);
        assert!((r.invalidation_ops - 17.0).abs() < 1e-12);
    }
}
