//! Trace-format robustness: proptest round-trips over the chunked binary
//! format, arbitrary and mutated buffers that decode to an error (never
//! a panic), a truncation sweep proving every prefix of a valid buffer
//! does too, and the replay-cost pin — a 4×4-node replay touches each
//! record exactly once.

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

/// Nodes of the random record streams: enough for two-byte node varints.
const NODES: u32 = 160;

/// A field value: mostly the one- to three-byte varints of real traces,
/// which fit the reader's word path, and sometimes any `u64`.
fn field() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..128, 0u64..1 << 21, any::<u64>(), Just(u64::MAX)]
}

/// A random record stream over [`NODES`] nodes.
fn records(max_len: usize) -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec(
        (0..NODES, field(), 0u8..5, field()).prop_map(|(node, delay_ns, kind, line)| TraceRecord {
            node,
            delay_ns,
            kind,
            line,
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
        let bytes = encode(&recs, NODES, chunk);
        let reader = TraceV2Reader::new(&bytes).expect("own encoding");
        prop_assert_eq!(reader.record_count(), recs.len() as u64);
        prop_assert_eq!(reader.read_all(), recs.clone());
        // The offset tables account for every record of every node.
        let per_node: u64 = reader.node_record_counts().iter().sum();
        prop_assert_eq!(per_node, recs.len() as u64);
    }

    /// Decoding never panics on arbitrary bytes — worst case is an error.
    /// Behind a valid magic and header, whatever counts the header
    /// declares, a buffer that decodes also replays.
    #[test]
    fn decode_arbitrary_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        total in prop_oneof![0u64..4, any::<u64>()],
        nodes in prop_oneof![0u32..4, any::<u32>()],
        chunks in prop_oneof![0u32..4, any::<u32>()],
    ) {
        let _ = TraceV2Reader::new(&bytes);
        let framed = [header(total, nodes, chunks), bytes].concat();
        if let Ok(reader) = TraceV2Reader::new(&framed) {
            let mut player = reader.player();
            let mut rng = DeterministicRng::seed(1);
            for node in 0..reader.node_count().min(8) {
                while player.next(NodeId::new(node), &mut rng).is_some() {}
            }
        }
    }

    /// A valid trace with some bytes overwritten decodes to an error or
    /// to a trace that replays every record it declares: the varint
    /// decoder never panics on damaged records.
    #[test]
    fn decode_mutated_trace_never_panics(
        recs in records(60),
        chunk in 1usize..20,
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
    ) {
        // Four nodes keep the offset tables short, so most edits land in
        // records.
        let folded: Vec<TraceRecord> = recs
            .iter()
            .map(|r| TraceRecord { node: r.node % 4, ..*r })
            .collect();
        let mut bytes = encode(&folded, 4, chunk);
        for (at, value) in edits {
            let len = bytes.len();
            bytes[at % len] = value;
        }
        if let Ok(reader) = TraceV2Reader::new(&bytes) {
            let mut player = reader.player();
            let mut rng = DeterministicRng::seed(1);
            for node in 0..reader.node_count() {
                while player.next(NodeId::new(node), &mut rng).is_some() {}
            }
            prop_assert_eq!(player.served(), reader.record_count());
        }
    }
}

/// A trace header: magic, record total, node count and chunk count.
fn header(total: u64, nodes: u32, chunks: u32) -> Vec<u8> {
    [
        &b"MCUBTRC3"[..],
        &total.to_be_bytes(),
        &nodes.to_be_bytes(),
        &chunks.to_be_bytes(),
    ]
    .concat()
}

/// Node and chunk counts the buffer cannot hold are `Truncated` before
/// anything is allocated for them: each chunk needs `8 × (1 + nodes)`
/// header bytes.
#[test]
fn header_counts_beyond_the_buffer_are_truncated() {
    for (nodes, chunks) in [(1, u32::MAX), (u32::MAX, 1)] {
        assert_eq!(
            TraceV2Reader::new(&header(0, nodes, chunks)).unwrap_err(),
            TraceDecodeError::Truncated,
            "{nodes} nodes, {chunks} chunks"
        );
    }
}

/// A trace with no chunks is valid for any node count, and neither the
/// reader nor its player allocates per-node storage for it.
#[test]
fn empty_trace_declares_any_node_count() {
    let bytes = header(0, u32::MAX, 0);
    let reader = TraceV2Reader::new(&bytes).unwrap();
    assert_eq!(reader.node_count(), u32::MAX);
    assert_eq!(reader.record_count(), 0);
    let mut player = reader.player();
    let mut rng = DeterministicRng::seed(1);
    for node in [0, 1, u32::MAX - 1] {
        assert!(player.next(NodeId::new(node), &mut rng).is_none());
    }
}

/// A buffer in the earlier fixed-width record format (`MCUBTRC2`) is not
/// a trace of this format.
#[test]
fn earlier_format_is_bad_magic() {
    let recs = [TraceRecord {
        node: 0,
        delay_ns: 1_000,
        kind: 0,
        line: 7,
    }];
    let mut bytes = encode(&recs, 1, 4);
    bytes[..8].copy_from_slice(b"MCUBTRC2");
    assert_eq!(
        TraceV2Reader::new(&bytes).unwrap_err(),
        TraceDecodeError::BadMagic
    );
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
