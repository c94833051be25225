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
//! The wire format (`MCUBTRC3`) opens with a 24-byte header: the magic, a
//! `u64` record count, a `u32` node count and a `u32` chunk count. The
//! stream follows in chunks, and each chunk opens with a table of its
//! `u64` record count and, per node, the `u64` count of that node's
//! records preceding the chunk. A [`TraceV2Reader`] checks every table
//! against the records before it, and its [`StreamingPlayer`] decodes
//! chunks lazily instead of materializing a 10⁷-record trace up front.
//! [`TraceV2Writer`] streams records out without knowing the total in
//! advance. Header and tables are fixed-width big-endian, so a header's
//! counts say how many bytes they need (`8 × (1 + nodes)` per chunk)
//! before the reader allocates for them.
//!
//! A record is its node, think delay (ns) and line as unsigned LEB128
//! varints (seven bits a byte, low group first, the high bit set on every
//! byte but the last), with the request-kind byte between delay and line.
//! The serving tier's records take about 6 bytes each. Only the canonical
//! varint of a value of the field's width (`u32` node, `u64` delay and
//! line) decodes: an overlong, overflowing or zero-padded one is
//! [`TraceDecodeError::BadVarint`].

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
    /// A record field is not the canonical varint of a value of its width
    /// (`u32` node, `u64` delay and line): more bytes than the width
    /// needs, bits beyond it, or a zero last byte after the first.
    BadVarint,
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
            TraceDecodeError::BadVarint => {
                write!(f, "record field is not a canonical varint of its width")
            }
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

const MAGIC: &[u8; 8] = b"MCUBTRC3";
/// Bytes of the fixed file header (magic, u64 total, u32 nodes, u32
/// chunks).
const HEADER_BYTES: usize = 8 + 8 + 4 + 4;
/// Bytes of the longest record: a 5-byte node, a 10-byte delay, the kind
/// byte and a 10-byte line.
const MAX_RECORD_BYTES: usize = 5 + 10 + 1 + 10;
/// The high bit of every byte of a word: set on a varint's continuation
/// bytes.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// Writes `value` as an unsigned LEB128 varint into `out` at `at` and
/// returns where it ends.
fn put_varint(out: &mut [u8; MAX_RECORD_BYTES], mut at: usize, mut value: u64) -> usize {
    while value >= 0x80 {
        out[at] = value as u8 | 0x80;
        value >>= 7;
        at += 1;
    }
    out[at] = value as u8;
    at + 1
}

fn put_record(buf: &mut Vec<u8>, r: &TraceRecord) {
    let mut out = [0; MAX_RECORD_BYTES];
    let at = put_varint(&mut out, 0, u64::from(r.node));
    let at = put_varint(&mut out, at, r.delay_ns);
    out[at] = r.kind;
    let end = put_varint(&mut out, at + 1, r.line);
    buf.extend_from_slice(&out[..end]);
}

/// Bits `0..end` of a word (`1 <= end <= 64`).
fn low_bits(end: u32) -> u64 {
    u64::MAX >> (64 - end)
}

/// The value of the varint in bits `start..end` of `word`: its bytes'
/// low seven bits, packed low group first.
fn varint_in_word(word: u64, start: u32, end: u32) -> u64 {
    let v = ((word & low_bits(end)) >> start) & !HIGH_BITS;
    let v = (v & 0x007f_007f_007f_007f) | ((v >> 1) & 0x3f80_3f80_3f80_3f80);
    let v = (v & 0x0000_3fff_0000_3fff) | ((v >> 2) & 0x0fff_c000_0fff_c000);
    (v & 0x0000_0000_0fff_ffff) | ((v >> 4) & 0x00ff_ffff_f000_0000)
}

/// Decodes the record at the start of `word` (eight buffer bytes, read
/// little-endian so byte `i` is bits `8i..8i + 8`) and its length in
/// bytes, when the record is well formed and fits in the word. `None`
/// sends the caller to [`record_bytewise`], which decodes every record
/// and names what is wrong with a malformed one.
///
/// Every varint ends at the first byte with its high bit clear, and so
/// does the kind byte, whose codes are below 0x80. The record is
/// therefore the bytes up to the fourth such stop byte, and the stops
/// come from bit operations on the whole word: no branch or bounds
/// check per byte. A record of at most eight bytes holds no overlong or
/// `u64`-overflowing varint, so what is left to check is a zero-padded
/// varint and a node beyond `u32`.
#[inline(always)]
fn record_in_word(word: u64) -> Option<(TraceRecord, usize)> {
    let stops = !word & HIGH_BITS;
    let after_node = stops & stops.wrapping_sub(1);
    let after_delay = after_node & after_node.wrapping_sub(1);
    let after_kind = after_delay & after_delay.wrapping_sub(1);
    if after_kind == 0 {
        return None;
    }
    // Bit positions just past the node, delay, kind and line bytes.
    let node_end = stops.trailing_zeros() + 1;
    let delay_end = after_node.trailing_zeros() + 1;
    let kind_end = after_delay.trailing_zeros() + 1;
    let line_end = after_kind.trailing_zeros() + 1;
    // The kind is one byte; a longer "kind" is a code of 0x80 or more.
    if kind_end != delay_end + 8 {
        return None;
    }
    // A zero byte after a continuation byte ends a zero-padded varint.
    let zero = !(((word & !HIGH_BITS) + !HIGH_BITS) | word) & HIGH_BITS;
    if zero & ((word & HIGH_BITS) << 8) & low_bits(line_end) != 0 {
        return None;
    }
    let node = u32::try_from(varint_in_word(word, 0, node_end)).ok()?;
    let record = TraceRecord {
        node,
        delay_ns: varint_in_word(word, node_end, delay_end),
        kind: (word >> delay_end) as u8,
        line: varint_in_word(word, kind_end, line_end),
    };
    // The line ends in byte `tz / 8`: a shift and an add are all that
    // the next record's load waits for.
    Some((record, after_kind.trailing_zeros() as usize / 8 + 1))
}

/// A bounds-checked reader over a byte slice.
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

    /// Reads the canonical varint of a `bits`-wide field: at most as many
    /// bytes as the width needs, no bits beyond it, and no zero last byte
    /// after the first.
    fn get_varint(&mut self, bits: u32) -> Result<u64, TraceDecodeError> {
        let mut value = 0u128;
        for shift in (0..bits).step_by(7) {
            let byte = self.get_u8().ok_or(TraceDecodeError::Truncated)?;
            value |= u128::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if (byte == 0 && shift > 0) || value >> bits != 0 {
                    return Err(TraceDecodeError::BadVarint);
                }
                return Ok(value as u64);
            }
        }
        Err(TraceDecodeError::BadVarint)
    }

    /// Reads one record, checking that its varints are canonical but not
    /// its node or kind.
    #[inline(always)]
    fn get_record(&mut self) -> Result<TraceRecord, TraceDecodeError> {
        let word = self
            .data
            .get(self.position..self.position + 8)
            .and_then(|bytes| {
                record_in_word(u64::from_le_bytes(bytes.try_into().expect("eight bytes")))
            });
        let (record, len) = match word {
            Some(decoded) => decoded,
            None => record_bytewise(&self.data[self.position..])?,
        };
        self.position += len;
        Ok(record)
    }
}

/// Decodes the record at the start of `bytes` a byte at a time, returning
/// it with its length: the records [`record_in_word`] declines, and those
/// in the last few bytes of the buffer. It takes a slice, not the
/// cursor, so that the validating loop's cursor stays in registers.
#[cold]
#[inline(never)]
fn record_bytewise(bytes: &[u8]) -> Result<(TraceRecord, usize), TraceDecodeError> {
    let mut c = Cursor {
        data: bytes,
        position: 0,
    };
    let record = TraceRecord {
        node: c.get_varint(32)? as u32,
        delay_ns: c.get_varint(64)?,
        kind: c.get_u8().ok_or(TraceDecodeError::Truncated)?,
        line: c.get_varint(64)?,
    };
    Ok((record, c.position))
}

/// Records the requests another workload produces into a
/// [`TraceV2Writer`].
///
/// # Example
///
/// ```
/// use multicube::{Machine, MachineConfig};
/// use multicube_workload::{Oltp, Stream, TraceRecorder, TraceV2Reader, TraceV2Writer};
///
/// // Record an OLTP run...
/// let mut m = Machine::new(MachineConfig::grid(2).unwrap(), 3).unwrap();
/// let mut recorder = TraceRecorder::new(Oltp::new(8), TraceV2Writer::new(4, 16));
/// m.run_closed_loop(&mut Stream::new(&mut recorder), 10);
/// let bytes = recorder.finish();
///
/// // ...then validate and replay it.
/// let reader = TraceV2Reader::new(&bytes).unwrap();
/// assert_eq!(reader.record_count(), 40);
/// let mut m2 = Machine::new(MachineConfig::grid(2).unwrap(), 3).unwrap();
/// let report = m2.run_closed_loop(&mut Stream::new(reader.player()), 10);
/// assert_eq!(report.transactions_completed, 40);
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
/// Records are encoded straight into the output as they arrive, in
/// chunks of `chunk_records`; each chunk's record count is patched in
/// when it closes and the totals in the file header by
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
    /// Byte offset of the open chunk's record count.
    open_at: usize,
    /// Records in the open chunk; 0 when no chunk is open.
    open_records: usize,
    /// Per-node record counts so far: the offset table of a chunk that
    /// opens now.
    per_node: Vec<u64>,
    total: u64,
    chunks: u32,
}

impl TraceV2Writer {
    /// A writer for a machine of `nodes` nodes, closing a chunk every
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
            open_at: 0,
            open_records: 0,
            per_node: vec![0; nodes as usize],
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
        if self.open_records == 0 {
            self.open_at = self.buf.len();
            self.buf.extend_from_slice(&0u64.to_be_bytes()); // patched at close
            for &count in &self.per_node {
                self.buf.extend_from_slice(&count.to_be_bytes());
            }
        }
        put_record(
            &mut self.buf,
            &TraceRecord {
                node: node.index(),
                delay_ns,
                kind: encode_kind(request.kind),
                line: request.line.index(),
            },
        );
        self.per_node[node.as_usize()] += 1;
        self.open_records += 1;
        self.total += 1;
        if self.open_records == self.chunk_capacity {
            self.close_chunk();
        }
    }

    fn close_chunk(&mut self) {
        let count = (self.open_records as u64).to_be_bytes();
        self.buf[self.open_at..self.open_at + 8].copy_from_slice(&count);
        self.open_records = 0;
        self.chunks += 1;
    }

    /// Closes the final partial chunk, patches the header totals, and
    /// returns the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.open_records > 0 {
            self.close_chunk();
        }
        self.buf[8..16].copy_from_slice(&self.total.to_be_bytes());
        self.buf[20..24].copy_from_slice(&self.chunks.to_be_bytes());
        self.buf
    }
}

/// Streaming reader for the chunked trace format.
///
/// Construction makes one validating pass over the buffer (structure,
/// varints, kinds, node bounds, and every chunk's offset table) without
/// materializing records; afterwards chunks decode on demand. Each
/// chunk's offset table takes `8 × nodes` bytes, so the buffer must back
/// a header's node count before the reader allocates per-node state.
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
                let r = c.get_record()?;
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

    /// Hands each record of chunk `chunk` to `f`, in recording order.
    fn decode_chunk(&self, chunk: u32, mut f: impl FnMut(TraceRecord)) {
        let mut c = Cursor {
            data: self.data,
            position: self.chunk_starts[chunk as usize],
        };
        let len = c.get_u64().expect("validated at construction");
        c.position += 8 * self.nodes as usize;
        for _ in 0..len {
            f(c.get_record().expect("validated at construction"));
        }
    }

    /// Decodes the whole trace into memory, in recording order.
    pub fn read_all(&self) -> Vec<TraceRecord> {
        let mut records = Vec::with_capacity(self.total.min(1 << 20) as usize);
        for chunk in 0..self.chunk_count() {
            self.decode_chunk(chunk, |r| records.push(r));
        }
        records
    }

    /// A streaming player over the whole trace.
    pub fn player(&self) -> StreamingPlayer<'a> {
        StreamingPlayer {
            reader: self.clone(),
            pending: vec![VecDeque::new(); self.per_node_totals.len()],
            next_chunk: 0,
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
    served: u64,
}

impl StreamingPlayer<'_> {
    /// Requests handed out so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Decodes the next chunk into the per-node queues. Out of line, so
    /// that [`Workload::next`], which calls it about once per chunk,
    /// stays a small function for the calls that only pop a queue.
    #[cold]
    #[inline(never)]
    fn load_chunk(&mut self) {
        let pending = &mut self.pending;
        self.reader
            .decode_chunk(self.next_chunk, |r| pending[r.node as usize].push_back(r));
        self.next_chunk += 1;
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
    use crate::runner::Stream;
    use multicube::{Machine, MachineConfig, RunReport};

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

    /// The encoder's bytes for `value`.
    fn varint(value: u64) -> Vec<u8> {
        let mut out = [0; MAX_RECORD_BYTES];
        let end = put_varint(&mut out, 0, value);
        out[..end].to_vec()
    }

    /// The encoder's bytes for `r`.
    fn record_bytes(r: &TraceRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        put_record(&mut buf, r);
        buf
    }

    /// Byte offset of the first record of a trace's first chunk.
    fn first_record(nodes: u32) -> usize {
        HEADER_BYTES + 8 * (1 + nodes as usize)
    }

    /// A one-chunk trace over one node whose records are `records`,
    /// byte for byte.
    fn raw_trace(records: &[&[u8]]) -> Vec<u8> {
        let count = records.len() as u64;
        let mut bytes = TraceV2Writer::new(1, 1).finish();
        bytes[8..16].copy_from_slice(&count.to_be_bytes());
        bytes[20..24].copy_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&count.to_be_bytes());
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.extend(records.concat());
        bytes
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        let recs = records(1, 1);
        let mut bytes = encode(&recs, 1, 4);
        // The record's node and delay precede its kind byte.
        let kind_at = first_record(1) + varint(0).len() + varint(recs[0].delay_ns).len();
        bytes[kind_at] = 99;
        assert_eq!(
            TraceV2Reader::new(&bytes).unwrap_err(),
            TraceDecodeError::BadKind(99)
        );
        // A code with its high bit set reads as the kind too, not as a
        // varint continuation.
        bytes[kind_at] = 0x85;
        assert_eq!(
            TraceV2Reader::new(&bytes).unwrap_err(),
            TraceDecodeError::BadKind(0x85)
        );
    }

    #[test]
    fn decode_rejects_corruption() {
        let recs = records(10, 2);
        let good = encode(&recs, 2, 4);

        // Record naming a node beyond the header's node count.
        let first = first_record(2);
        let node = varint(u64::from(recs[0].node)).len();
        let mut bytes = good.clone();
        bytes.splice(first..first + node, varint(9));
        assert_eq!(
            TraceV2Reader::new(&bytes).unwrap_err(),
            TraceDecodeError::BadNode(9)
        );

        // Second chunk's offset table disagreeing with the records.
        let second_chunk = first
            + recs[..4]
                .iter()
                .map(|r| record_bytes(r).len())
                .sum::<usize>();
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

    #[test]
    fn varints_are_little_endian_seven_bit_groups() {
        assert_eq!(varint(0), [0]);
        assert_eq!(varint(127), [0x7f]);
        assert_eq!(varint(128), [0x80, 0x01]);
        assert_eq!(varint(5_999), [0xef, 0x2e]);
        assert_eq!(varint(1 << 21), [0x80, 0x80, 0x80, 0x01]);
        assert_eq!(varint(u64::MAX), [&[0xff; 9][..], &[0x01]].concat());
        // Node 3, delay 300, kind 1 (write), line 5: five bytes.
        let r = TraceRecord {
            node: 3,
            delay_ns: 300,
            kind: 1,
            line: 5,
        };
        assert_eq!(record_bytes(&r), [0x03, 0xac, 0x02, 0x01, 0x05]);
    }

    /// A malformed record fails alone, where it is decoded a byte at a
    /// time, and followed by valid records, where the word path sees it
    /// first.
    fn assert_rejected(what: &str, record: &[u8], expected: TraceDecodeError) {
        let valid: &[u8] = &[0, 0, 0, 0];
        for records in [&[record][..], &[record, valid, valid]] {
            assert_eq!(
                TraceV2Reader::new(&raw_trace(records)).unwrap_err(),
                expected,
                "{what} in {} records",
                records.len()
            );
        }
    }

    #[test]
    fn decode_rejects_malformed_varints() {
        let zero: &[u8] = &[0];
        let padded: &[u8] = &[0x80, 0x00];
        let overlong: &[u8] = &[&[0x80; 10][..], &[0x00]].concat();
        let overflowing: &[u8] = &[&[0xff; 9][..], &[0x02]].concat();
        let cases: [(&str, Vec<u8>); 9] = [
            ("overlong delay", [zero, overlong, zero, zero].concat()),
            ("overlong line", [zero, zero, zero, overlong].concat()),
            ("delay beyond u64", [zero, overflowing, zero, zero].concat()),
            ("line beyond u64", [zero, zero, zero, overflowing].concat()),
            ("zero-padded node", [padded, zero, zero, zero].concat()),
            ("zero-padded delay", [zero, padded, zero, zero].concat()),
            ("zero-padded line", [zero, zero, zero, padded].concat()),
            (
                "node 2^32",
                [&[0x80, 0x80, 0x80, 0x80, 0x10][..], zero, zero, zero].concat(),
            ),
            (
                "six-byte node",
                [&[0x80, 0x80, 0x80, 0x80, 0x80, 0x00][..], zero, zero, zero].concat(),
            ),
        ];
        for (what, record) in cases {
            assert_rejected(what, &record, TraceDecodeError::BadVarint);
        }
        // The widest node is a valid varint but beyond the header.
        let widest = [&[0xff, 0xff, 0xff, 0xff, 0x0f][..], zero, zero, zero].concat();
        assert_rejected(
            "node u32::MAX",
            &widest,
            TraceDecodeError::BadNode(u32::MAX),
        );
        // A record cut inside a varint is truncated, not malformed.
        let cut = raw_trace(&[&[0x00, 0x80]]);
        assert_eq!(
            TraceV2Reader::new(&cut).unwrap_err(),
            TraceDecodeError::Truncated
        );
    }

    #[test]
    fn extreme_field_values_round_trip() {
        let recs: Vec<TraceRecord> = [0, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX]
            .into_iter()
            .enumerate()
            .map(|(i, v)| TraceRecord {
                node: [0, 127, 128, 299][i % 4],
                delay_ns: v,
                kind: (i % 5) as u8,
                line: u64::MAX - v,
            })
            .collect();
        for chunk_records in [1, 3, 100] {
            let bytes = encode(&recs, 300, chunk_records);
            let reader = TraceV2Reader::new(&bytes).unwrap();
            assert_eq!(reader.read_all(), recs, "{chunk_records}");
        }
    }

    /// The word path decodes exactly what the byte path decodes, and
    /// declines only records that the byte path rejects, that run past
    /// the word, or whose kind byte has its high bit set.
    #[test]
    fn word_path_agrees_with_the_byte_path() {
        let mut rng = DeterministicRng::seed(0x7ace);
        let mut decoded = 0;
        for _ in 0..200_000 {
            // Bytes biased toward the interesting ones: zeros, small
            // kind-like codes, continuation bytes and padding.
            let bytes: [u8; 8] = std::array::from_fn(|_| match rng.below(6) {
                0 => 0,
                1 => rng.below(6) as u8,
                2 => 0x80,
                3 => 0x80 | rng.below(0x80) as u8,
                _ => rng.below(0x80) as u8,
            });
            let fast = record_in_word(u64::from_le_bytes(bytes));
            let slow = record_bytewise(&bytes);
            match fast {
                Some(decoded_word) => {
                    assert_eq!(slow, Ok(decoded_word), "{bytes:02x?}");
                    decoded += 1;
                }
                None => assert!(
                    slow.as_ref().map_or(true, |(r, _)| r.kind >= 0x80),
                    "{bytes:02x?}: byte path decoded {slow:?}"
                ),
            }
        }
        assert!(decoded > 10_000, "only {decoded} words decoded");
    }

    /// Records a 2×2 OLTP run of `per_node` requests per node.
    fn record_oltp(per_node: u64) -> (RunReport, [u64; 5], Vec<u8>) {
        let mut m = Machine::new(MachineConfig::grid(2).unwrap(), 5).unwrap();
        let mut rec = TraceRecorder::new(Oltp::new(8), TraceV2Writer::new(4, 16));
        let mut stream = Stream::new(&mut rec);
        let report = m.run_closed_loop(&mut stream, per_node);
        let kinds = stream.kind_counts;
        (report, kinds, rec.finish())
    }

    #[test]
    fn record_then_replay_gives_identical_machine_behaviour() {
        let (live, live_kinds, bytes) = record_oltp(25);
        let reader = TraceV2Reader::new(&bytes).unwrap();
        assert_eq!(reader.record_count(), live.transactions_completed);

        let mut m = Machine::new(MachineConfig::grid(2).unwrap(), 5).unwrap();
        let mut stream = Stream::new(reader.player());
        let replay = m.run_closed_loop(&mut stream, 25);
        assert_eq!(replay.transactions_completed, live.transactions_completed);
        assert_eq!(replay.elapsed, live.elapsed);
        assert_eq!(stream.kind_counts, live_kinds);
        assert_eq!(replay.row_bus_ops, live.row_bus_ops);
        assert_eq!(replay.col_bus_ops, live.col_bus_ops);
        assert_eq!(
            replay.efficiency.to_bits(),
            live.efficiency.to_bits(),
            "replay must be bit-identical"
        );
    }

    #[test]
    fn replay_on_different_machine_config_is_valid() {
        let (_, _, bytes) = record_oltp(15);
        let reader = TraceV2Reader::new(&bytes).unwrap();

        // Same trace, different block size: still coherent and complete.
        let config = MachineConfig::grid(2).unwrap().with_block_words(64);
        let mut m = Machine::new(config, 99).unwrap();
        let report = m.run_closed_loop(&mut Stream::new(reader.player()), 15);
        assert_eq!(report.transactions_completed, 60);
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
}
