//! Byte-identical trace determinism.
//!
//! A seeded run must be a pure function of `(config, seed)` — including
//! every hash-map iteration the protocol or its diagnostics perform. These
//! tests run the same fixed-seed scenario twice on fresh machines and
//! require the full JSONL trace streams to match byte for byte. They
//! guard the deterministic-hasher and LineTable/slab plumbing: any map
//! whose iteration order leaks into protocol decisions or trace emission
//! shows up here as a diff.

use std::io::Write;
use std::sync::{Arc, Mutex};

use multicube::trace::TraceSink;
use multicube::{Machine, MachineConfig, Request, SyntheticSpec};
use multicube_mem::LineAddr;
use multicube_topology::NodeId;

/// A `Write` target the test can read back after the machine is dropped.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn traced_machine(seed: u64) -> (Machine, SharedBuf) {
    let mut m = Machine::new(MachineConfig::grid(4).unwrap(), seed).unwrap();
    let buf = SharedBuf::default();
    m.set_trace_sink(TraceSink::writer(Box::new(buf.clone())));
    (m, buf)
}

/// One outstanding transaction at a time, mixed request kinds.
fn serial_trace(seed: u64) -> Vec<u8> {
    let (mut m, buf) = traced_machine(seed);
    for i in 0..300u64 {
        let node = NodeId::new((i % 16) as u32);
        let line = LineAddr::new(i % 48);
        let req = match i % 5 {
            0 => Request::write(line),
            1 => Request::allocate(line),
            2 => Request::test_and_set(line),
            3 => Request::writeback(line),
            _ => Request::read(line),
        };
        if m.submit(node, req).is_ok() {
            m.advance();
        }
    }
    m.run_to_quiescence();
    m.check_coherence().expect("coherent");
    drop(m);
    let bytes = buf.0.lock().unwrap().clone();
    assert!(!bytes.is_empty(), "trace was captured");
    bytes
}

/// Every node loaded at once each round, then the closed-loop synthetic
/// workload (which exercises the owned-line sampling path) on a fresh
/// machine sharing the buffer.
fn concurrent_trace(seed: u64) -> Vec<u8> {
    let (mut m, buf) = traced_machine(seed);
    for round in 0..10u64 {
        for n in 0..16u32 {
            let line = LineAddr::new((round * 7 + u64::from(n) * 3) % 40);
            let req = if (round + u64::from(n)) % 3 == 0 {
                Request::write(line)
            } else {
                Request::read(line)
            };
            let _ = m.submit(NodeId::new(n), req);
        }
        m.run_to_quiescence();
    }
    m.check_coherence().expect("coherent");
    drop(m);

    let (mut m, buf2) = traced_machine(seed);
    m.run_synthetic(&SyntheticSpec::default(), 10);
    drop(m);

    let mut bytes = buf.0.lock().unwrap().clone();
    bytes.extend_from_slice(&buf2.0.lock().unwrap());
    assert!(!bytes.is_empty(), "trace was captured");
    bytes
}

#[test]
fn serial_traces_are_byte_identical_across_runs() {
    for seed in [1u64, 42] {
        let a = serial_trace(seed);
        let b = serial_trace(seed);
        assert!(a == b, "serial trace diverged at seed {seed}");
    }
}

#[test]
fn concurrent_traces_are_byte_identical_across_runs() {
    for seed in [1u64, 42] {
        let a = concurrent_trace(seed);
        let b = concurrent_trace(seed);
        assert!(a == b, "concurrent trace diverged at seed {seed}");
    }
}

/// Pinned pre-`ProtocolEngine` trace fingerprints. The engine seam must
/// keep the default Multicube machine byte-identical at fixed seeds:
/// these digests were captured before the refactor and must never drift.
/// (The serial workload submits a fixed request sequence and draws no
/// randomness, so its digest is seed-independent.)
#[test]
fn multicube_traces_match_pre_refactor_fingerprints() {
    use multicube_sim::md5_hex;
    assert_eq!(
        md5_hex(&serial_trace(1)),
        "4d2f2546d675e38c62e6d1c07b19b99e"
    );
    assert_eq!(
        md5_hex(&serial_trace(42)),
        "4d2f2546d675e38c62e6d1c07b19b99e"
    );
    assert_eq!(
        md5_hex(&concurrent_trace(1)),
        "b09a608738491fbcd7fc9a57299de463"
    );
    assert_eq!(
        md5_hex(&concurrent_trace(42)),
        "9692576ff7ace77ad58595bb531578b2"
    );
}

#[test]
fn different_seeds_still_differ() {
    // Guard against the sinks accidentally capturing nothing comparable:
    // the synthetic workload is seed-driven, so different seeds must
    // produce different streams.
    let a = concurrent_trace(1);
    let b = concurrent_trace(2);
    assert!(a != b, "seeds 1 and 2 produced identical traces");
}
