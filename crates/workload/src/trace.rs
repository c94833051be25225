//! Request-trace recording and replay.
//!
//! The paper laments that "very little data has been published on the
//! memory reference behavior of parallel programs"; a reproducible trace
//! format is the tooling answer. A [`TraceRecorder`] captures the exact
//! request stream a workload generated (per node, with think delays) into
//! a [`TraceV2Writer`], and a [`TraceV2Reader`] replays it as a
//! [`Workload`] — so an interesting run can be archived and re-examined
//! under different machine configurations.
//!
//! The wire format (`MCUBTRC2`) carries a `u64` record count and splits
//! the stream into chunks, each with a per-node table of how many records
//! of that node precede the chunk. A [`TraceV2Reader`] can therefore start
//! replay at *any chunk boundary* with correct per-node positions, and its
//! [`StreamingPlayer`] decodes chunks lazily instead of materializing a
//! 10⁷-record trace up front. [`TraceV2Writer`] streams records out
//! without knowing the total in advance. Each record is 21 big-endian
//! bytes (`u32` node, `u64` delay, `u8` kind, `u64` line).

use multicube::{Request, RequestKind};
use multicube_mem::LineAddr;
use multicube_sim::DeterministicRng;
use multicube_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::runner::Workload;

/// One recorded request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The issuing node.
    pub node: u32,
    /// Think delay before the request (ns).
    pub delay_ns: u64,
    /// Request kind (encoded).
    pub kind: u8,
    /// Target line index.
    pub line: u64,
}

impl TraceRecord {
    fn request(&self) -> Request {
        let kind = decode_kind(self.kind).expect("kind validated at decode");
        Request::new(kind, LineAddr::new(self.line))
    }
}

fn encode_kind(kind: RequestKind) -> u8 {
    match kind {
        RequestKind::Read => 0,
        RequestKind::Write => 1,
        RequestKind::Allocate => 2,
        RequestKind::TestAndSet => 3,
        RequestKind::Writeback => 4,
    }
}

fn decode_kind(code: u8) -> Option<RequestKind> {
    Some(match code {
        0 => RequestKind::Read,
        1 => RequestKind::Write,
        2 => RequestKind::Allocate,
        3 => RequestKind::TestAndSet,
        4 => RequestKind::Writeback,
        _ => return None,
    })
}

/// Error from decoding a binary trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The buffer does not start with the trace magic.
    BadMagic,
    /// The buffer ended mid-record or mid-header.
    Truncated,
    /// A record carried an unknown request-kind code.
    BadKind(u8),
    /// A record named a node outside the header's node count.
    BadNode(u32),
    /// A chunk's per-node offset table disagrees with the records
    /// preceding it.
    BadOffsets {
        /// The inconsistent chunk.
        chunk: u32,
    },
    /// The header counts disagree with the buffer (record total or
    /// trailing bytes).
    BadCount,
}

impl core::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceDecodeError::BadMagic => write!(f, "not a multicube trace"),
            TraceDecodeError::Truncated => write!(f, "trace truncated mid-record"),
            TraceDecodeError::BadKind(k) => write!(f, "unknown request kind code {k}"),
            TraceDecodeError::BadNode(n) => write!(f, "record names node {n} beyond the header"),
            TraceDecodeError::BadOffsets { chunk } => {
                write!(f, "chunk {chunk} offset table disagrees with the records")
            }
            TraceDecodeError::BadCount => write!(f, "header counts disagree with the buffer"),
        }
    }
}

impl std::error::Error for TraceDecodeError {}

const MAGIC: &[u8; 8] = b"MCUBTRC2";
/// Bytes of one encoded record.
const RECORD_BYTES: usize = 21;
/// Bytes of the fixed file header (magic, u64 total, u32 nodes, u32
/// chunks).
const HEADER_BYTES: usize = 8 + 8 + 4 + 4;

/// A bounds-checked big-endian reader over a byte slice.
struct Cursor<'a> {
    data: &'a [u8],
    position: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.data.len() - self.position
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let bytes = self.data.get(self.position..self.position + N)?;
        self.position += N;
        Some(bytes.try_into().expect("slice of length N"))
    }

    fn get_u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|b| b[0])
    }

    fn get_u32(&mut self) -> Option<u32> {
        self.take::<4>().map(u32::from_be_bytes)
    }

    fn get_u64(&mut self) -> Option<u64> {
        self.take::<8>().map(u64::from_be_bytes)
    }

    /// Reads one 21-byte record without validating its fields.
    fn get_record(&mut self) -> Option<TraceRecord> {
        if self.remaining() < RECORD_BYTES {
            return None;
        }
        Some(TraceRecord {
            node: self.get_u32().expect("length checked"),
            delay_ns: self.get_u64().expect("length checked"),
            kind: self.get_u8().expect("length checked"),
            line: self.get_u64().expect("length checked"),
        })
    }
}

fn put_record(buf: &mut Vec<u8>, r: &TraceRecord) {
    buf.extend_from_slice(&r.node.to_be_bytes());
    buf.extend_from_slice(&r.delay_ns.to_be_bytes());
    buf.push(r.kind);
    buf.extend_from_slice(&r.line.to_be_bytes());
}

/// Records the requests another workload produces into a
/// [`TraceV2Writer`].
///
/// # Example
///
/// ```
/// use multicube::{Machine, MachineConfig};
/// use multicube_workload::{Oltp, TraceRecorder, TraceV2Reader, TraceV2Writer, WorkloadRunner};
///
/// // Record an OLTP run...
/// let mut m = Machine::new(MachineConfig::grid(2).unwrap(), 3).unwrap();
/// let mut recorder = TraceRecorder::new(Oltp::new(8), TraceV2Writer::new(4, 16));
/// WorkloadRunner::new(10).run(&mut m, &mut recorder);
/// let bytes = recorder.finish();
///
/// // ...then validate and replay it.
/// let reader = TraceV2Reader::new(&bytes).unwrap();
/// assert_eq!(reader.record_count(), 40);
/// let mut m2 = Machine::new(MachineConfig::grid(2).unwrap(), 3).unwrap();
/// let report = WorkloadRunner::new(10).run(&mut m2, &mut reader.player());
/// assert_eq!(report.requests_completed, 40);
/// ```
#[derive(Debug)]
pub struct TraceRecorder<W> {
    inner: W,
    writer: TraceV2Writer,
}

impl<W> TraceRecorder<W> {
    /// Wraps `inner`, appending everything it emits to `writer`.
    pub fn new(inner: W, writer: TraceV2Writer) -> Self {
        TraceRecorder { inner, writer }
    }

    /// Finishes recording and returns the encoded trace.
    pub fn finish(self) -> Vec<u8> {
        self.writer.finish()
    }
}

impl<W: Workload> Workload for TraceRecorder<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next(&mut self, node: NodeId, rng: &mut DeterministicRng) -> Option<(u64, Request)> {
        let (delay, req) = self.inner.next(node, rng)?;
        self.writer.push(node, delay, req);
        Some((delay, req))
    }
}

/// Streaming writer for the chunked trace format.
///
/// Records are appended one at a time and flushed as chunks of
/// `chunk_records`; the totals in the file header are patched in by
/// [`TraceV2Writer::finish`], so the caller never needs to know the
/// stream length in advance.
///
/// # Example
///
/// ```
/// use multicube::Request;
/// use multicube_mem::LineAddr;
/// use multicube_topology::NodeId;
/// use multicube_workload::{TraceV2Reader, TraceV2Writer};
///
/// let mut w = TraceV2Writer::new(2, 3); // 2 nodes, 3 records per chunk
/// for i in 0..8 {
///     w.push(NodeId::new(i % 2), 1_000, Request::read(LineAddr::new(i as u64)));
/// }
/// let bytes = w.finish();
///
/// let reader = TraceV2Reader::new(&bytes).unwrap();
/// assert_eq!(reader.record_count(), 8);
/// assert_eq!(reader.chunk_count(), 3); // 3 + 3 + 2
/// assert_eq!(reader.read_all().len(), 8);
/// ```
#[derive(Debug)]
pub struct TraceV2Writer {
    buf: Vec<u8>,
    nodes: u32,
    chunk_capacity: usize,
    /// Records of the currently open chunk.
    open: Vec<TraceRecord>,
    /// Per-node record counts over all *flushed* chunks — the offset
    /// table of the next chunk to be written.
    flushed_per_node: Vec<u64>,
    total: u64,
    chunks: u32,
}

impl TraceV2Writer {
    /// A writer for a machine of `nodes` nodes, flushing every
    /// `chunk_records` records (clamped to at least 1).
    pub fn new(nodes: u32, chunk_records: usize) -> Self {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&0u64.to_be_bytes()); // total, patched at finish
        buf.extend_from_slice(&nodes.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes()); // chunks, patched at finish
        TraceV2Writer {
            buf,
            nodes,
            chunk_capacity: chunk_records.max(1),
            open: Vec::new(),
            flushed_per_node: vec![0; nodes as usize],
            total: 0,
            chunks: 0,
        }
    }

    /// Appends one request.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the writer's node count.
    pub fn push(&mut self, node: NodeId, delay_ns: u64, request: Request) {
        assert!(
            node.index() < self.nodes,
            "record node {} outside writer node count {}",
            node.index(),
            self.nodes
        );
        self.open.push(TraceRecord {
            node: node.index(),
            delay_ns,
            kind: encode_kind(request.kind),
            line: request.line.index(),
        });
        self.total += 1;
        if self.open.len() >= self.chunk_capacity {
            self.flush_chunk();
        }
    }

    /// Records written so far.
    pub fn record_count(&self) -> u64 {
        self.total
    }

    fn flush_chunk(&mut self) {
        self.buf
            .extend_from_slice(&(self.open.len() as u64).to_be_bytes());
        for &count in &self.flushed_per_node {
            self.buf.extend_from_slice(&count.to_be_bytes());
        }
        for r in &self.open {
            self.flushed_per_node[r.node as usize] += 1;
            put_record(&mut self.buf, r);
        }
        self.open.clear();
        self.chunks += 1;
    }

    /// Flushes the final partial chunk, patches the header totals, and
    /// returns the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if !self.open.is_empty() {
            self.flush_chunk();
        }
        self.buf[8..16].copy_from_slice(&self.total.to_be_bytes());
        self.buf[20..24].copy_from_slice(&self.chunks.to_be_bytes());
        self.buf
    }
}

/// Streaming reader for the chunked trace format.
///
/// Construction makes one validating pass over the buffer (structure,
/// kinds, node bounds, and every chunk's offset table) without
/// materializing records; afterwards chunks decode on demand. Because
/// each chunk header carries the per-node count of records preceding it,
/// replay can start at any chunk boundary with correct per-node
/// positions ([`TraceV2Reader::player_from`]).
#[derive(Debug, Clone)]
pub struct TraceV2Reader<'a> {
    data: &'a [u8],
    total: u64,
    nodes: u32,
    /// Byte offset of each chunk header.
    chunk_starts: Vec<usize>,
    /// Final per-node record counts (validated against the offset tables).
    per_node_totals: Vec<u64>,
}

impl<'a> TraceV2Reader<'a> {
    /// Validates the buffer and indexes its chunk boundaries.
    ///
    /// # Errors
    ///
    /// See [`TraceDecodeError`]. Every strict prefix of a valid buffer
    /// fails with [`TraceDecodeError::BadMagic`] or
    /// [`TraceDecodeError::Truncated`], and so does a header whose chunk
    /// and node counts need more bytes than the buffer holds; nothing is
    /// allocated for those counts until the buffer backs them.
    pub fn new(data: &'a [u8]) -> Result<Self, TraceDecodeError> {
        if data.len() < 8 || &data[..8] != MAGIC {
            return Err(TraceDecodeError::BadMagic);
        }
        if data.len() < HEADER_BYTES {
            return Err(TraceDecodeError::Truncated);
        }
        let mut c = Cursor { data, position: 8 };
        let total = c.get_u64().expect("header length checked");
        let nodes = c.get_u32().expect("header length checked");
        let chunk_count = c.get_u32().expect("header length checked");
        // Each chunk opens with its length and a `nodes`-long offset table.
        let table_bytes = 8 * (1 + u128::from(nodes));
        if u128::from(chunk_count) * table_bytes > c.remaining() as u128 {
            return Err(TraceDecodeError::Truncated);
        }
        let mut chunk_starts = Vec::with_capacity(chunk_count as usize);
        // Per-node counts only where a chunk's offset table backs them.
        let tracked = if chunk_count == 0 { 0 } else { nodes as usize };
        let mut running = vec![0u64; tracked];
        let mut seen = 0u64;
        for chunk in 0..chunk_count {
            chunk_starts.push(c.position);
            let len = c.get_u64().ok_or(TraceDecodeError::Truncated)?;
            for &expected in &running {
                let off = c.get_u64().ok_or(TraceDecodeError::Truncated)?;
                if off != expected {
                    return Err(TraceDecodeError::BadOffsets { chunk });
                }
            }
            for _ in 0..len {
                let r = c.get_record().ok_or(TraceDecodeError::Truncated)?;
                if r.node >= nodes {
                    return Err(TraceDecodeError::BadNode(r.node));
                }
                decode_kind(r.kind).ok_or(TraceDecodeError::BadKind(r.kind))?;
                running[r.node as usize] += 1;
            }
            seen = seen.saturating_add(len);
        }
        if seen != total || c.remaining() != 0 {
            return Err(TraceDecodeError::BadCount);
        }
        Ok(TraceV2Reader {
            data,
            total,
            nodes,
            chunk_starts,
            per_node_totals: running,
        })
    }

    /// Total records in the trace.
    pub fn record_count(&self) -> u64 {
        self.total
    }

    /// Node count declared by the writer.
    pub fn node_count(&self) -> u32 {
        self.nodes
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> u32 {
        self.chunk_starts.len() as u32
    }

    /// Encoded size in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Per-node record counts over the whole trace (empty for a trace
    /// with no chunks).
    pub fn node_record_counts(&self) -> &[u64] {
        &self.per_node_totals
    }

    /// The per-node counts of records preceding chunk `chunk` — the
    /// replay cursor positions for a replay starting there. `chunk` may
    /// equal [`Self::chunk_count`] only when the trace is empty.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range.
    pub fn chunk_node_offsets(&self, chunk: u32) -> Vec<u64> {
        let mut c = Cursor {
            data: self.data,
            position: self.chunk_starts[chunk as usize],
        };
        let _len = c.get_u64().expect("validated at construction");
        (0..self.nodes)
            .map(|_| c.get_u64().expect("validated at construction"))
            .collect()
    }

    /// Decodes chunk `chunk` into records (recording order).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range.
    pub fn chunk_records(&self, chunk: u32) -> Vec<TraceRecord> {
        let mut c = Cursor {
            data: self.data,
            position: self.chunk_starts[chunk as usize],
        };
        let len = c.get_u64().expect("validated at construction");
        for _ in 0..self.nodes {
            c.get_u64().expect("validated at construction");
        }
        (0..len)
            .map(|_| c.get_record().expect("validated at construction"))
            .collect()
    }

    /// Decodes the whole trace into memory, in recording order.
    pub fn read_all(&self) -> Vec<TraceRecord> {
        let mut records = Vec::with_capacity(self.total.min(1 << 20) as usize);
        for chunk in 0..self.chunk_count() {
            records.extend(self.chunk_records(chunk));
        }
        records
    }

    /// A streaming player over the whole trace.
    pub fn player(&self) -> StreamingPlayer<'a> {
        self.player_from(0)
    }

    /// A streaming player that starts replay at the boundary of `chunk`:
    /// per-node positions come from the chunk's offset table, and only
    /// chunks from `chunk` on are ever decoded.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` exceeds the chunk count.
    pub fn player_from(&self, chunk: u32) -> StreamingPlayer<'a> {
        assert!(
            chunk <= self.chunk_count(),
            "chunk {chunk} beyond chunk count {}",
            self.chunk_count()
        );
        let start_offsets = if chunk < self.chunk_count() {
            self.chunk_node_offsets(chunk)
        } else {
            // Starting at the end-of-trace boundary: everything precedes.
            self.per_node_totals.clone()
        };
        StreamingPlayer {
            reader: self.clone(),
            pending: vec![VecDeque::new(); self.per_node_totals.len()],
            next_chunk: chunk,
            start_offsets,
            served: 0,
        }
    }
}

/// Replays a trace as a [`Workload`], decoding chunks lazily.
///
/// Only the records a node has not yet consumed from already-decoded
/// chunks are buffered, so memory tracks per-node skew rather than trace
/// length.
#[derive(Debug, Clone)]
pub struct StreamingPlayer<'a> {
    reader: TraceV2Reader<'a>,
    /// Decoded-but-unconsumed records, per node.
    pending: Vec<VecDeque<TraceRecord>>,
    next_chunk: u32,
    /// Per-node records skipped by starting mid-trace.
    start_offsets: Vec<u64>,
    served: u64,
}

impl StreamingPlayer<'_> {
    /// Requests handed out so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Per-node counts of records that precede this player's start chunk
    /// (all zero for a replay from the beginning, and empty for a trace
    /// with no chunks).
    pub fn start_offsets(&self) -> &[u64] {
        &self.start_offsets
    }

    fn load_chunk(&mut self) {
        let records = self.reader.chunk_records(self.next_chunk);
        self.next_chunk += 1;
        for r in records {
            self.pending[r.node as usize].push_back(r);
        }
    }
}

impl Workload for StreamingPlayer<'_> {
    fn name(&self) -> &'static str {
        "trace-replay-v2"
    }

    fn next(&mut self, node: NodeId, _rng: &mut DeterministicRng) -> Option<(u64, Request)> {
        let idx = node.as_usize();
        if idx >= self.pending.len() {
            return None;
        }
        loop {
            if let Some(r) = self.pending[idx].pop_front() {
                self.served += 1;
                return Some((r.delay_ns, r.request()));
            }
            if self.next_chunk >= self.reader.chunk_count() {
                return None;
            }
            self.load_chunk();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::Oltp;
    use crate::runner::WorkloadRunner;
    use multicube::{Machine, MachineConfig};

    /// `count` records over `nodes` nodes: record `i` goes to node
    /// `i % nodes` with delay `i * 10`, line `i` and every kind in turn.
    fn records(count: u64, nodes: u32) -> Vec<TraceRecord> {
        (0..count)
            .map(|i| TraceRecord {
                node: (i % u64::from(nodes)) as u32,
                delay_ns: i * 10,
                kind: (i % 5) as u8,
                line: i,
            })
            .collect()
    }

    fn encode(records: &[TraceRecord], nodes: u32, chunk_records: usize) -> Vec<u8> {
        let mut w = TraceV2Writer::new(nodes, chunk_records);
        for r in records {
            w.push(NodeId::new(r.node), r.delay_ns, r.request());
        }
        w.finish()
    }

    #[test]
    fn roundtrip_binary_format() {
        let recs = records(100, 7);
        for chunk_records in [1, 3, 64, 1000] {
            let bytes = encode(&recs, 7, chunk_records);
            let reader = TraceV2Reader::new(&bytes).unwrap();
            assert_eq!(reader.read_all(), recs, "{chunk_records}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            TraceV2Reader::new(b"notatrace").unwrap_err(),
            TraceDecodeError::BadMagic
        );
        let mut bytes = TraceV2Writer::new(2, 4).finish();
        bytes[20..24].copy_from_slice(&1u32.to_be_bytes()); // claim a chunk
        assert_eq!(
            TraceV2Reader::new(&bytes).unwrap_err(),
            TraceDecodeError::Truncated
        );
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        let mut bytes = encode(&records(1, 1), 1, 4);
        // Header, then the chunk's length and one-node offset table, then
        // the record's node and delay precede its kind byte.
        bytes[HEADER_BYTES + 8 + 8 + 12] = 99;
        assert_eq!(
            TraceV2Reader::new(&bytes).unwrap_err(),
            TraceDecodeError::BadKind(99)
        );
    }

    #[test]
    fn decode_rejects_corruption() {
        let good = encode(&records(10, 2), 2, 4);

        // Record naming a node beyond the header's node count.
        let first_record = HEADER_BYTES + 8 + 2 * 8;
        let mut bytes = good.clone();
        bytes[first_record..first_record + 4].copy_from_slice(&9u32.to_be_bytes());
        assert_eq!(
            TraceV2Reader::new(&bytes).unwrap_err(),
            TraceDecodeError::BadNode(9)
        );

        // Second chunk's offset table disagreeing with the records.
        let second_chunk = HEADER_BYTES + 8 + 2 * 8 + 4 * RECORD_BYTES;
        let mut bytes = good.clone();
        bytes[second_chunk + 8..second_chunk + 16].copy_from_slice(&41u64.to_be_bytes());
        assert_eq!(
            TraceV2Reader::new(&bytes).unwrap_err(),
            TraceDecodeError::BadOffsets { chunk: 1 }
        );

        // Trailing bytes after the declared chunks.
        let mut bytes = good.clone();
        bytes.push(0);
        assert_eq!(
            TraceV2Reader::new(&bytes).unwrap_err(),
            TraceDecodeError::BadCount
        );

        // Header total disagreeing with the chunks.
        let mut bytes = good;
        bytes[8..16].copy_from_slice(&11u64.to_be_bytes());
        assert_eq!(
            TraceV2Reader::new(&bytes).unwrap_err(),
            TraceDecodeError::BadCount
        );
    }

    /// Records a 2×2 OLTP run of `per_node` requests per node.
    fn record_oltp(per_node: u64) -> (crate::WorkloadReport, Vec<u8>) {
        let mut m = Machine::new(MachineConfig::grid(2).unwrap(), 5).unwrap();
        let mut rec = TraceRecorder::new(Oltp::new(8), TraceV2Writer::new(4, 16));
        let report = WorkloadRunner::new(per_node).run(&mut m, &mut rec);
        (report, rec.finish())
    }

    #[test]
    fn record_then_replay_gives_identical_machine_behaviour() {
        let (live, bytes) = record_oltp(25);
        let reader = TraceV2Reader::new(&bytes).unwrap();
        assert_eq!(reader.record_count(), live.requests_completed);

        let mut m = Machine::new(MachineConfig::grid(2).unwrap(), 5).unwrap();
        let replay = WorkloadRunner::new(25).run(&mut m, &mut reader.player());
        assert_eq!(replay.requests_completed, live.requests_completed);
        assert_eq!(replay.elapsed, live.elapsed);
        assert_eq!(replay.kind_counts, live.kind_counts);
        assert_eq!(replay.bus_ops, live.bus_ops);
        assert_eq!(
            replay.efficiency.to_bits(),
            live.efficiency.to_bits(),
            "replay must be bit-identical"
        );
    }

    #[test]
    fn replay_on_different_machine_config_is_valid() {
        let (_, bytes) = record_oltp(15);
        let reader = TraceV2Reader::new(&bytes).unwrap();

        // Same trace, different block size: still coherent and complete.
        let config = MachineConfig::grid(2).unwrap().with_block_words(64);
        let mut m = Machine::new(config, 99).unwrap();
        let report = WorkloadRunner::new(15).run(&mut m, &mut reader.player());
        assert_eq!(report.requests_completed, 60);
    }

    #[test]
    fn player_exhausts_cleanly() {
        let bytes = encode(&records(1, 1), 1, 4);
        let reader = TraceV2Reader::new(&bytes).unwrap();
        let mut p = reader.player();
        let mut rng = DeterministicRng::seed(1);
        assert!(p.next(NodeId::new(0), &mut rng).is_some());
        assert!(p.next(NodeId::new(0), &mut rng).is_none());
        assert!(p.next(NodeId::new(1), &mut rng).is_none());
        assert_eq!(p.served(), 1);
    }

    #[test]
    fn streaming_player_resumes_from_any_chunk_boundary() {
        let recs = records(50, 3);
        let bytes = encode(&recs, 3, 7);
        let reader = TraceV2Reader::new(&bytes).unwrap();

        // Per-node tails from a full replay.
        let full_tail = |node: u32, skip: usize| -> Vec<u64> {
            recs.iter()
                .filter(|r| r.node == node)
                .skip(skip)
                .map(|r| r.delay_ns)
                .collect()
        };

        for chunk in 0..=reader.chunk_count() {
            let mut p = reader.player_from(chunk);
            let offsets = p.start_offsets().to_vec();
            for node in 0..3u32 {
                let mut got = Vec::new();
                let mut rng2 = DeterministicRng::seed(2);
                while let Some((delay, _)) = p.next(NodeId::new(node), &mut rng2) {
                    got.push(delay);
                }
                assert_eq!(
                    got,
                    full_tail(node, offsets[node as usize] as usize),
                    "chunk {chunk} node {node}"
                );
            }
        }
    }
}
