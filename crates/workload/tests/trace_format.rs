//! Trace-format robustness: proptest round-trips over the chunked binary
//! format, a truncation sweep proving every prefix of a valid buffer
//! decodes to an error (never a panic), and the replay-cost pin — a
//! 4×4-node replay touches each record exactly once.

use multicube::{Machine, MachineConfig, Request, RequestKind};
use multicube_mem::LineAddr;
use multicube_sim::DeterministicRng;
use multicube_topology::NodeId;
use multicube_workload::{
    TraceDecodeError, TraceRecord, TraceRecorder, TraceV2Reader, TraceV2Writer, Workload,
    WorkloadRunner,
};
use proptest::prelude::*;

fn kind_of(code: u8) -> RequestKind {
    match code {
        0 => RequestKind::Read,
        1 => RequestKind::Write,
        2 => RequestKind::Allocate,
        3 => RequestKind::TestAndSet,
        _ => RequestKind::Writeback,
    }
}

/// A random record stream over 64 nodes.
fn records(max_len: usize) -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec(
        (0u32..64, any::<u64>(), 0u8..5, any::<u64>()).prop_map(|(node, delay_ns, kind, line)| {
            TraceRecord {
                node,
                delay_ns,
                kind,
                line,
            }
        }),
        0..max_len,
    )
}

fn encode(records: &[TraceRecord], nodes: u32, chunk_records: usize) -> Vec<u8> {
    let mut w = TraceV2Writer::new(nodes, chunk_records);
    for r in records {
        w.push(
            NodeId::new(r.node),
            r.delay_ns,
            Request::new(kind_of(r.kind), LineAddr::new(r.line)),
        );
    }
    w.finish()
}

proptest! {
    /// Any record stream survives the chunked encoding at any chunk size.
    #[test]
    fn roundtrip(recs in records(200), chunk in 1usize..50) {
        let bytes = encode(&recs, 64, chunk);
        let reader = TraceV2Reader::new(&bytes).expect("own encoding");
        prop_assert_eq!(reader.record_count(), recs.len() as u64);
        prop_assert_eq!(reader.read_all(), recs.clone());
        // The offset tables account for every record of every node.
        let per_node: u64 = reader.node_record_counts().iter().sum();
        prop_assert_eq!(per_node, recs.len() as u64);
    }

    /// Decoding never panics on arbitrary bytes — worst case is an error.
    #[test]
    fn decode_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = TraceV2Reader::new(&bytes);
    }
}

/// Every strict prefix of a valid buffer decodes to `BadMagic` or
/// `Truncated` — never a panic, and never a silently short trace.
#[test]
fn truncation_sweep() {
    let recs: Vec<TraceRecord> = (0..40u64)
        .map(|i| TraceRecord {
            node: (i % 5) as u32,
            delay_ns: i * 7,
            kind: (i % 5) as u8,
            line: i * 13,
        })
        .collect();
    let bytes = encode(&recs, 5, 9);

    for len in 0..bytes.len() {
        let err = TraceV2Reader::new(&bytes[..len])
            .expect_err(&format!("prefix of {len} bytes must not decode"));
        assert!(
            matches!(
                err,
                TraceDecodeError::BadMagic | TraceDecodeError::Truncated
            ),
            "prefix of {len} bytes: unexpected error {err:?}"
        );
    }
    // The full buffer still decodes.
    assert_eq!(TraceV2Reader::new(&bytes).unwrap().read_all(), recs);
}

/// The replay-cost pin: a 16-node (4×4) replay hands out each record
/// exactly once — the delivered streams partition the trace with nothing
/// decoded twice or skipped.
#[test]
fn four_by_four_replay_touches_each_record_exactly_once() {
    const NODES: u32 = 16;
    let mut w = TraceV2Writer::new(NODES, 7);
    let mut recs = Vec::new();
    // An uneven interleave: node k gets 10 + k records, tagged by a
    // unique (delay, line) pair so deliveries are attributable.
    let mut serial = 0u64;
    for round in 0..26u64 {
        for node in 0..NODES {
            if round < 10 + node as u64 {
                w.push(
                    NodeId::new(node),
                    1_000 + serial,
                    Request::read(LineAddr::new(serial)),
                );
                recs.push((node, 1_000 + serial, serial));
                serial += 1;
            }
        }
    }
    let bytes = w.finish();
    let reader = TraceV2Reader::new(&bytes).unwrap();

    let mut player = reader.player();
    let mut rng = DeterministicRng::seed(3);
    let mut delivered = 0u64;
    for node in 0..NODES {
        let expected: Vec<(u64, u64)> = recs
            .iter()
            .filter(|r| r.0 == node)
            .map(|r| (r.1, r.2))
            .collect();
        let mut got = Vec::new();
        while let Some((delay, req)) = player.next(NodeId::new(node), &mut rng) {
            got.push((delay, req.line.index()));
            delivered += 1;
        }
        assert_eq!(
            got, expected,
            "node {node} must replay its own records in order"
        );
    }
    assert_eq!(delivered, reader.record_count(), "every record delivered");
    assert_eq!(player.served(), reader.record_count());
    // Exhausted nodes stay exhausted; out-of-range nodes get nothing.
    for node in 0..NODES {
        assert!(player.next(NodeId::new(node), &mut rng).is_none());
    }
    assert!(player.next(NodeId::new(99), &mut rng).is_none());
}

/// The same exactly-once property holds when a 4×4 machine drives the
/// replay through the runner.
#[test]
fn four_by_four_machine_replay_completes_every_record() {
    let mut m = Machine::new(MachineConfig::grid(4).unwrap(), 21).unwrap();
    let mut rec = TraceRecorder::new(
        multicube_workload::Oltp::new(32),
        TraceV2Writer::new(16, 64),
    );
    let original = WorkloadRunner::new(30).run(&mut m, &mut rec);
    let bytes = rec.finish();
    let reader = TraceV2Reader::new(&bytes).unwrap();
    assert_eq!(reader.record_count(), original.requests_completed);

    let mut m2 = Machine::new(MachineConfig::grid(4).unwrap(), 21).unwrap();
    let mut player = reader.player();
    let replay = WorkloadRunner::new(30).run(&mut m2, &mut player);
    assert_eq!(replay.requests_completed, reader.record_count());
    assert_eq!(player.served(), reader.record_count());
}
