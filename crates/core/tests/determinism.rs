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
use multicube::{EngineKind, Machine, MachineConfig, Request, SyntheticSpec};
use multicube_mem::{CacheGeometry, LineAddr};
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

/// A traced 4x4 machine on `engine`, with the default snoop cache unless
/// `snoop` names another geometry.
fn traced_machine(
    engine: EngineKind,
    snoop: Option<CacheGeometry>,
    seed: u64,
) -> (Machine, SharedBuf) {
    let mut config = MachineConfig::grid(4).unwrap().with_engine(engine);
    if let Some(geometry) = snoop {
        config = config.with_snoop_cache(geometry);
    }
    let mut m = Machine::new(config, seed).unwrap();
    let buf = SharedBuf::default();
    m.set_trace_sink(TraceSink::writer(Box::new(buf.clone())));
    (m, buf)
}

/// One outstanding transaction at a time, mixed request kinds.
fn serial_trace(engine: EngineKind, snoop: Option<CacheGeometry>, seed: u64) -> Vec<u8> {
    let (mut m, buf) = traced_machine(engine, snoop, seed);
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
fn concurrent_trace(engine: EngineKind, snoop: Option<CacheGeometry>, seed: u64) -> Vec<u8> {
    let (mut m, buf) = traced_machine(engine, snoop, seed);
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

    let (mut m, buf2) = traced_machine(engine, snoop, seed);
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
        let a = serial_trace(EngineKind::Multicube, None, seed);
        let b = serial_trace(EngineKind::Multicube, None, seed);
        assert!(a == b, "serial trace diverged at seed {seed}");
    }
}

#[test]
fn concurrent_traces_are_byte_identical_across_runs() {
    for seed in [1u64, 42] {
        let a = concurrent_trace(EngineKind::Multicube, None, seed);
        let b = concurrent_trace(EngineKind::Multicube, None, seed);
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
    assert_pins(EngineKind::Multicube, None, MULTICUBE_DEFAULT);
}

/// A 4-set direct-mapped snoop cache: every transaction that misses
/// evicts, so the victim write-back path runs under every engine.
fn small_cache() -> Option<CacheGeometry> {
    Some(CacheGeometry::new(4, 1))
}

/// Trace digests of one engine and snoop cache: serial (seed-independent),
/// then concurrent at seeds 1 and 42.
struct Pins {
    serial: &'static str,
    concurrent_1: &'static str,
    concurrent_42: &'static str,
}

const MULTICUBE_DEFAULT: Pins = Pins {
    serial: "4d2f2546d675e38c62e6d1c07b19b99e",
    concurrent_1: "b09a608738491fbcd7fc9a57299de463",
    concurrent_42: "9692576ff7ace77ad58595bb531578b2",
};

fn assert_pins(engine: EngineKind, snoop: Option<CacheGeometry>, pins: Pins) {
    use multicube_sim::md5_hex;
    let label = engine.name();
    for seed in [1u64, 42] {
        assert_eq!(
            md5_hex(&serial_trace(engine, snoop, seed)),
            pins.serial,
            "{label} serial trace, seed {seed}"
        );
    }
    assert_eq!(
        md5_hex(&concurrent_trace(engine, snoop, 1)),
        pins.concurrent_1,
        "{label} concurrent trace, seed 1"
    );
    assert_eq!(
        md5_hex(&concurrent_trace(engine, snoop, 42)),
        pins.concurrent_42,
        "{label} concurrent trace, seed 42"
    );
}

/// The processor side (start, victim reservation, local completion and
/// restart, flush continuation) is shared by every engine, so every
/// engine's traces are pinned, on the default snoop cache and on one
/// small enough to force victim write-backs.
#[test]
fn every_engine_keeps_its_trace_fingerprints() {
    assert_pins(
        EngineKind::Mesi,
        None,
        Pins {
            serial: "e9cc98862f4ec67afde7c18308008a04",
            concurrent_1: "8b56c33a8bb02354a794b7f52d5b27b4",
            concurrent_42: "9ed916149f602695aad94f6d906c0f79",
        },
    );
    assert_pins(
        EngineKind::Dragon,
        None,
        Pins {
            serial: "abfc214ce48c777e122ac132ca6f5458",
            concurrent_1: "28c1892b280b65f168f959390d30c32d",
            concurrent_42: "b58555c69931b79953da45ddaf8b5cb8",
        },
    );
    assert_pins(
        EngineKind::WriteOnce,
        None,
        Pins {
            serial: "19eb1aa1d50b488a202f18aa9ab2d9d0",
            concurrent_1: "018b7ab993555367bf7685a641671cf5",
            concurrent_42: "6ae4beb4fba3e48d15e3daaf5dc10898",
        },
    );
}

/// With one 4-set direct-mapped cache per node, every node's serial lines
/// share one set, so no copy survives to be written: MESI and write-once
/// agree on that trace.
#[test]
fn every_engine_keeps_its_small_cache_fingerprints() {
    assert_pins(
        EngineKind::Multicube,
        small_cache(),
        Pins {
            serial: "8b6400b6bfd32ba8e304752e0021893c",
            concurrent_1: "c266cd5130206a6b5c71e00f79231cb6",
            concurrent_42: "cb3928b32d897dfde1744967785f7e1d",
        },
    );
    assert_pins(
        EngineKind::Mesi,
        small_cache(),
        Pins {
            serial: "c6f4c44efe08b1480463f5b2c81df801",
            concurrent_1: "ff27ace2b9853c2188161a09a0466d7f",
            concurrent_42: "a1fe6c4e09a8222842f13c8315e72219",
        },
    );
    assert_pins(
        EngineKind::Dragon,
        small_cache(),
        Pins {
            serial: "77286e3863b7a7de54603b8777d05b0c",
            concurrent_1: "9863356b8f589de32a903bec3bff629c",
            concurrent_42: "a675de1212b1cdfd5e7a410dd65c28ab",
        },
    );
    assert_pins(
        EngineKind::WriteOnce,
        small_cache(),
        Pins {
            serial: "c6f4c44efe08b1480463f5b2c81df801",
            concurrent_1: "3d311802228b24365ec58379e146dc92",
            concurrent_42: "7237839d4460e597cedf8222f7a6a0b8",
        },
    );
}

#[test]
fn different_seeds_still_differ() {
    // Guard against the sinks accidentally capturing nothing comparable:
    // the synthetic workload is seed-driven, so different seeds must
    // produce different streams.
    let a = concurrent_trace(EngineKind::Multicube, None, 1);
    let b = concurrent_trace(EngineKind::Multicube, None, 2);
    assert!(a != b, "seeds 1 and 2 produced identical traces");
}
