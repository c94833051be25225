//! Property-based tests of the Multicube topology invariants.

use multicube_topology::{Grid, Multicube};
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy over feasible (n, k) pairs, keeping n^k small enough to test.
fn cube_params() -> impl Strategy<Value = (u32, u8)> {
    prop_oneof![
        (2u32..=32, Just(1u8)),
        (2u32..=16, Just(2u8)),
        (2u32..=6, Just(3u8)),
        (2u32..=3, Just(4u8)),
    ]
}

proptest! {
    #[test]
    fn bus_count_formula_holds((n, k) in cube_params()) {
        let cube = Multicube::new(n, k).unwrap();
        prop_assert_eq!(cube.num_buses(), k as u32 * n.pow(k as u32 - 1));
    }

    #[test]
    fn grid_matches_two_dimensional_cube(n in 2u32..=24) {
        let grid = Grid::new(n).unwrap();
        let cube = Multicube::new(n, 2).unwrap();
        prop_assert_eq!(cube.num_nodes(), grid.num_nodes());
        prop_assert_eq!(cube.num_buses(), grid.num_buses());
    }

    #[test]
    fn grid_home_columns_are_balanced(n in 2u32..=32) {
        let grid = Grid::new(n).unwrap();
        let lines = (n * 10) as u64;
        let mut counts = vec![0u64; n as usize];
        for line in 0..lines {
            counts[grid.home_column(line) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn grid_row_and_col_buses_partition_nodes(n in 2u32..=16) {
        let grid = Grid::new(n).unwrap();
        let mut rows = vec![0u32; n as usize];
        let mut cols = vec![0u32; n as usize];
        let mut places = HashSet::new();
        for node in grid.nodes() {
            rows[grid.row_of(node) as usize] += 1;
            cols[grid.col_of(node) as usize] += 1;
            prop_assert!(places.insert((grid.row_of(node), grid.col_of(node))));
        }
        prop_assert!(rows.iter().chain(&cols).all(|&members| members == n));
    }
}
