//! Protocol-level integration tests: transaction flows, bus-operation
//! counts (the §6 cost claims), races, robustness, and determinism.

use multicube::{
    FaultPlan, LatencyMode, Machine, MachineConfig, Request, RequestKind, SyntheticSpec,
};
use multicube_mem::LineAddr;
use multicube_topology::NodeId;

fn machine(n: u32) -> Machine {
    Machine::new(MachineConfig::grid(n).unwrap(), 99).unwrap()
}

/// A line whose home column is `col` in an `n`-wide grid.
fn line_with_home(n: u32, col: u32, k: u64) -> LineAddr {
    LineAddr::new(k * n as u64 + col as u64)
}

#[test]
fn read_miss_unmodified_completes_and_caches_shared() {
    let mut m = machine(4);
    let node = NodeId::new(0);
    let line = LineAddr::new(10);
    m.submit(node, Request::read(line)).unwrap();
    let done = m.advance().unwrap();
    assert_eq!(done.node, node);
    assert!(done.success);
    assert_eq!(
        m.controller(node).mode_of(&line),
        Some(multicube::LineMode::Shared)
    );
    m.run_to_quiescence();
    m.check_coherence().unwrap();
    assert_eq!(m.metrics().read_unmodified.count, 1);
}

#[test]
fn write_miss_takes_ownership_and_invalidates_memory() {
    let mut m = machine(4);
    let node = NodeId::new(5);
    let line = LineAddr::new(3);
    m.submit(node, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    assert_eq!(
        m.controller(node).mode_of(&line),
        Some(multicube::LineMode::Modified)
    );
    let home = m.home_column(line);
    assert!(!m.memory(home).is_valid(&line));
    m.check_coherence().unwrap();
}

#[test]
fn read_after_remote_write_returns_latest_data_and_updates_memory() {
    let mut m = machine(4);
    let writer = NodeId::new(0);
    let reader = NodeId::new(15); // different row AND column
    let line = LineAddr::new(7);

    m.submit(writer, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    let written = m.committed_version(line);

    m.submit(reader, Request::read(line)).unwrap();
    let done = m.advance().unwrap();
    assert_eq!(done.kind, RequestKind::Read);
    m.run_to_quiescence();

    // Both copies shared, value is the written version, memory updated.
    assert_eq!(m.controller(reader).data_of(&line), Some(written));
    assert_eq!(
        m.controller(writer).mode_of(&line),
        Some(multicube::LineMode::Shared)
    );
    let home = m.home_column(line);
    assert!(m.memory(home).is_valid(&line));
    m.check_coherence().unwrap();
    assert_eq!(m.metrics().read_modified.count, 1);
}

#[test]
fn write_invalidates_all_shared_copies() {
    let mut m = machine(4);
    let line = LineAddr::new(21);
    // Four scattered readers cache the line shared.
    let readers = [0u32, 5, 10, 15].map(NodeId::new);
    for r in readers {
        m.submit(r, Request::read(line)).unwrap();
        m.advance().unwrap();
    }
    m.run_to_quiescence();
    // A fifth node writes.
    let writer = NodeId::new(6);
    m.submit(writer, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    for r in readers {
        assert_eq!(m.controller(r).mode_of(&line), None, "{r} not purged");
    }
    assert_eq!(
        m.controller(writer).mode_of(&line),
        Some(multicube::LineMode::Modified)
    );
    assert!(m.metrics().invalidations.get() >= 4);
    m.check_coherence().unwrap();
}

#[test]
fn ownership_transfers_between_writers() {
    let mut m = machine(4);
    let line = LineAddr::new(2);
    let a = NodeId::new(1);
    let b = NodeId::new(14);
    m.submit(a, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    m.submit(b, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    assert_eq!(m.controller(a).mode_of(&line), None);
    assert_eq!(
        m.controller(b).mode_of(&line),
        Some(multicube::LineMode::Modified)
    );
    // Memory was never updated by the cache-to-cache transfer.
    assert!(!m.memory(m.home_column(line)).is_valid(&line));
    m.check_coherence().unwrap();
    assert_eq!(m.metrics().write_modified.count, 1);
}

// ---------------------------------------------------------------------
// §6 cost claims ("T-6.1")
// ---------------------------------------------------------------------

/// READ of an unmodified line: at most 4 bus operations.
#[test]
fn cost_read_unmodified_at_most_four_ops() {
    for n in [4u32, 8] {
        let mut m = machine(n);
        // Requester away from the home column so the full path is used.
        let line = line_with_home(n, 0, 1);
        let node = m.config().topology().node(1, 2);
        m.submit(node, Request::read(line)).unwrap();
        m.advance().unwrap();
        m.run_to_quiescence();
        let ops = m.metrics().read_unmodified.bus_ops.max().unwrap();
        assert!(ops <= 4.0, "n={n}: read-unmodified used {ops} ops");
    }
}

/// READ of a modified line: at most 5 bus operations.
#[test]
fn cost_read_modified_at_most_five_ops() {
    let n = 8;
    let mut m = machine(n);
    let line = line_with_home(n, 0, 1);
    // Owner in a different row, column and home column than the reader.
    let owner = m.config().topology().node(5, 5);
    let reader = m.config().topology().node(2, 3);
    m.submit(owner, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();

    m.submit(reader, Request::read(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    let ops = m.metrics().read_modified.bus_ops.max().unwrap();
    assert!(ops <= 5.0, "read-modified used {ops} ops");
    m.check_coherence().unwrap();
}

/// READ-MOD of a modified line: at most 4 bus operations.
#[test]
fn cost_readmod_modified_at_most_four_ops() {
    let n = 8;
    let mut m = machine(n);
    let line = line_with_home(n, 0, 1);
    let owner = m.config().topology().node(5, 5);
    let writer = m.config().topology().node(2, 3);
    m.submit(owner, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();

    m.submit(writer, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    let ops = m.metrics().write_modified.bus_ops.max().unwrap();
    assert!(ops <= 4.0, "readmod-modified used {ops} ops");
}

/// READ-MOD of an unmodified line: broadcast of n+1 row ops + 3 column ops
/// (plus the final MLT insert on the originator's column).
#[test]
fn cost_readmod_unmodified_broadcast_shape() {
    let n = 4;
    let mut m = machine(n);
    let line = line_with_home(n, 0, 1);
    let writer = m.config().topology().node(1, 2);
    m.submit(writer, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    let row = m.metrics().write_unmodified.row_ops.max().unwrap();
    let col = m.metrics().write_unmodified.col_ops.max().unwrap();
    // n+1 row ops: the original request plus one purge per row.
    assert_eq!(row, (n + 1) as f64, "row ops");
    // 3 column ops in the paper's accounting (request, reply) plus the
    // final INSERT on the originator's column.
    assert!(col <= 4.0, "col ops = {col}");
    m.check_coherence().unwrap();
}

// ---------------------------------------------------------------------
// ALLOCATE
// ---------------------------------------------------------------------

#[test]
fn allocate_behaves_like_readmod_but_cheaper_on_the_bus() {
    let n = 4;
    let mut m1 = machine(n);
    let mut m2 = machine(n);
    let line = line_with_home(n, 0, 1);
    let node = m1.config().topology().node(1, 2);

    m1.submit(node, Request::new(RequestKind::Write, line))
        .unwrap();
    m1.advance().unwrap();
    let t_write = m1.run_to_quiescence();

    m2.submit(node, Request::new(RequestKind::Allocate, line))
        .unwrap();
    m2.advance().unwrap();
    let t_alloc = m2.run_to_quiescence();

    assert!(t_write.is_empty() && t_alloc.is_empty());
    assert_eq!(
        m2.controller(node).mode_of(&line),
        Some(multicube::LineMode::Modified)
    );
    // Same op count, but the allocate acknowledge is address-length, so
    // the allocate transaction holds buses for less total time.
    let w = m1.metrics().write_unmodified.latency_ns.mean();
    let a = m2.metrics().write_unmodified.latency_ns.mean();
    assert!(a < w, "allocate {a} should beat write {w}");
    m1.check_coherence().unwrap();
    m2.check_coherence().unwrap();
}

// ---------------------------------------------------------------------
// WRITE-BACK and victim handling
// ---------------------------------------------------------------------

#[test]
fn explicit_writeback_restores_memory() {
    let mut m = machine(4);
    let node = NodeId::new(9);
    let line = LineAddr::new(13);
    m.submit(node, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    let v = m.committed_version(line);

    m.submit(node, Request::new(RequestKind::Writeback, line))
        .unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    let home = m.home_column(line);
    assert!(m.memory(home).is_valid(&line));
    assert_eq!(m.memory(home).peek(&line), v);
    assert_eq!(
        m.controller(node).mode_of(&line),
        Some(multicube::LineMode::Shared)
    );
    m.check_coherence().unwrap();
}

#[test]
fn writeback_of_clean_line_is_a_noop() {
    let mut m = machine(4);
    let node = NodeId::new(0);
    m.submit(node, Request::new(RequestKind::Writeback, LineAddr::new(1)))
        .unwrap();
    let done = m.advance().unwrap();
    assert!(done.success);
    assert_eq!(m.metrics().local_hits.count, 1);
}

#[test]
fn victim_writeback_preserves_dirty_data() {
    // Tiny cache: 1 set, 1 way — every distinct line evicts the previous.
    let config = MachineConfig::grid(4)
        .unwrap()
        .with_snoop_cache(multicube_mem::CacheGeometry::new(1, 1));
    let mut m = Machine::new(config, 3).unwrap();
    let node = NodeId::new(6);
    let l1 = LineAddr::new(100);
    let l2 = LineAddr::new(200);

    m.submit(node, Request::write(l1)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    let v1 = m.committed_version(l1);

    // Writing l2 forces l1 out through a victim write-back.
    m.submit(node, Request::write(l2)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();

    assert_eq!(m.controller(node).mode_of(&l1), None);
    let home1 = m.home_column(l1);
    assert!(m.memory(home1).is_valid(&l1));
    assert_eq!(m.memory(home1).peek(&l1), v1);
    assert!(m.metrics().victim_writebacks.get() >= 1);
    m.check_coherence().unwrap();
}

// ---------------------------------------------------------------------
// Robustness: dropped modified signals bounce off the valid bit
// ---------------------------------------------------------------------

#[test]
fn dropped_signals_still_complete_via_memory_bounce() {
    let config = MachineConfig::grid(4)
        .unwrap()
        .with_fault_plan(FaultPlan::default().with_signal_drop(0.7));
    let mut m = Machine::new(config, 11).unwrap();
    let line = LineAddr::new(5);
    let owner = NodeId::new(0);
    m.submit(owner, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();

    // Many remote reads; each must complete despite dropped signals.
    for reader in [15u32, 10, 7, 9] {
        let reader = NodeId::new(reader);
        m.submit(reader, Request::read(line)).unwrap();
        let done = m.advance().unwrap();
        assert!(done.success);
        m.run_to_quiescence();
    }
    m.check_coherence().unwrap();
}

// ---------------------------------------------------------------------
// Latency-reduction modes (§5)
// ---------------------------------------------------------------------

#[test]
fn requested_word_first_reduces_latency() {
    let line = LineAddr::new(6);
    let mut base = machine(4);
    let node = NodeId::new(10);
    base.submit(node, Request::read(line)).unwrap();
    let slow = base.advance().unwrap().latency;

    let config = MachineConfig::grid(4)
        .unwrap()
        .with_latency_mode(LatencyMode::RequestedWordFirst);
    let mut rwf = Machine::new(config, 99).unwrap();
    rwf.submit(node, Request::read(line)).unwrap();
    let fast = rwf.advance().unwrap().latency;
    rwf.run_to_quiescence();
    rwf.check_coherence().unwrap();
    assert!(fast < slow, "RWF {fast} should beat {slow}");
}

#[test]
fn pieces_mode_preserves_correctness() {
    let config = MachineConfig::grid(4)
        .unwrap()
        .with_latency_mode(LatencyMode::Pieces { words: 4 });
    let mut m = Machine::new(config, 5).unwrap();
    let writer = NodeId::new(0);
    let reader = NodeId::new(15);
    let line = LineAddr::new(9);
    m.submit(writer, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    let v = m.committed_version(line);
    m.submit(reader, Request::read(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    assert_eq!(m.controller(reader).data_of(&line), Some(v));
    m.check_coherence().unwrap();
}

// ---------------------------------------------------------------------
// Test-and-set
// ---------------------------------------------------------------------

#[test]
fn tas_succeeds_once_then_fails() {
    let mut m = machine(4);
    let line = LineAddr::new(17);
    let a = NodeId::new(3);
    let b = NodeId::new(12);

    m.submit(a, Request::new(RequestKind::TestAndSet, line))
        .unwrap();
    let first = m.advance().unwrap();
    assert!(first.success);
    m.run_to_quiescence();
    assert_eq!(
        m.controller(a).mode_of(&line),
        Some(multicube::LineMode::Modified)
    );

    // B's test-and-set fails; the line stays with A.
    m.submit(b, Request::new(RequestKind::TestAndSet, line))
        .unwrap();
    let second = m.advance().unwrap();
    assert!(!second.success);
    m.run_to_quiescence();
    assert_eq!(
        m.controller(a).mode_of(&line),
        Some(multicube::LineMode::Modified)
    );
    assert_eq!(m.controller(b).mode_of(&line), None);
    m.check_coherence().unwrap();
    assert_eq!(m.metrics().tas_success.count, 1);
    assert_eq!(m.metrics().tas_fail.count, 1);
}

#[test]
fn tas_lock_release_allows_next_acquire() {
    let mut m = machine(4);
    let line = LineAddr::new(17);
    let a = NodeId::new(3);
    let b = NodeId::new(12);

    m.submit(a, Request::new(RequestKind::TestAndSet, line))
        .unwrap();
    assert!(m.advance().unwrap().success);
    m.run_to_quiescence();

    // A releases: clears the sync word in its owned copy.
    assert!(m.write_sync_word(a, line, 0));

    m.submit(b, Request::new(RequestKind::TestAndSet, line))
        .unwrap();
    let done = m.advance().unwrap();
    assert!(done.success, "lock released, B must acquire");
    m.run_to_quiescence();
    assert_eq!(
        m.controller(b).mode_of(&line),
        Some(multicube::LineMode::Modified)
    );
    m.check_coherence().unwrap();
}

// ---------------------------------------------------------------------
// Determinism and synthetic runs
// ---------------------------------------------------------------------

#[test]
fn identical_seeds_produce_identical_runs() {
    let spec = SyntheticSpec::default().with_request_rate_per_ms(20.0);
    let run = |seed: u64| {
        let mut m = Machine::new(MachineConfig::grid(4).unwrap(), seed).unwrap();
        let r = m.run_synthetic(&spec, 50);
        (
            r.efficiency,
            r.row_bus_ops,
            r.col_bus_ops,
            r.transactions_completed,
        )
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}

#[test]
fn synthetic_run_is_coherent_and_efficient_at_low_rate() {
    let spec = SyntheticSpec::default().with_request_rate_per_ms(1.0);
    let mut m = Machine::new(MachineConfig::grid(4).unwrap(), 8).unwrap();
    let report = m.run_synthetic(&spec, 100);
    assert!(report.efficiency > 0.9, "efficiency {}", report.efficiency);
    assert_eq!(report.transactions_completed, 1600);
}

#[test]
fn synthetic_efficiency_decreases_with_request_rate() {
    let run = |rate: f64| {
        let spec = SyntheticSpec::default().with_request_rate_per_ms(rate);
        let mut m = Machine::new(MachineConfig::grid(4).unwrap(), 21).unwrap();
        m.run_synthetic(&spec, 150).efficiency
    };
    let low = run(2.0);
    let high = run(100.0);
    assert!(
        low > high,
        "efficiency should fall with load: low-rate {low} vs high-rate {high}"
    );
}

#[test]
fn snarfing_reduces_misses() {
    let line = LineAddr::new(30);
    let config = MachineConfig::grid(4).unwrap().with_snarfing(true);
    let mut m = Machine::new(config, 2).unwrap();
    let a = NodeId::new(1);
    let b = NodeId::new(2); // same row as a

    // Both read the line; then a write purges both.
    for r in [a, b] {
        m.submit(r, Request::read(line)).unwrap();
        m.advance().unwrap();
        m.run_to_quiescence();
    }
    let writer = NodeId::new(15);
    m.submit(writer, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();

    // a re-reads: the reply passes along row 0 where b recently held the
    // line — b may snarf it.
    m.submit(a, Request::read(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    assert!(
        m.metrics().snarfs.get() >= 1,
        "b should have snarfed the passing line"
    );
    assert_eq!(
        m.controller(b).mode_of(&line),
        Some(multicube::LineMode::Shared)
    );
    m.check_coherence().unwrap();
}

// ---------------------------------------------------------------------
// Broadcast sharing-filter ablation
// ---------------------------------------------------------------------

#[test]
fn broadcast_filter_skips_fanout_without_sharers() {
    let line = LineAddr::new(9);
    let run = |filter: bool| {
        let config = MachineConfig::grid(4)
            .unwrap()
            .with_broadcast_filter(filter);
        let mut m = Machine::new(config, 7).unwrap();
        let writer = NodeId::new(6);
        m.submit(writer, Request::write(line)).unwrap();
        m.advance().unwrap();
        m.run_to_quiescence();
        m.check_coherence().unwrap();
        m.metrics().write_unmodified.row_ops.mean()
    };
    // No shared copies anywhere: the filter drops the n row purges.
    assert_eq!(run(false), 5.0); // n + 1
    assert!(run(true) <= 2.0); // request + data reply only
}

#[test]
fn broadcast_filter_still_invalidates_real_sharers() {
    let line = LineAddr::new(9);
    let config = MachineConfig::grid(4).unwrap().with_broadcast_filter(true);
    let mut m = Machine::new(config, 7).unwrap();
    for reader in [0u32, 10, 15] {
        m.submit(NodeId::new(reader), Request::read(line)).unwrap();
        m.advance().unwrap();
        m.run_to_quiescence();
    }
    let writer = NodeId::new(6);
    m.submit(writer, Request::write(line)).unwrap();
    m.advance().unwrap();
    m.run_to_quiescence();
    for reader in [0u32, 10, 15] {
        assert_eq!(m.controller(NodeId::new(reader)).mode_of(&line), None);
    }
    m.check_coherence().unwrap();
}
