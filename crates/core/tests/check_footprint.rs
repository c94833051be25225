//! What the coherence check costs on a Figure-2 machine: the heap it
//! allocates above what the machine holds, and its time.
//!
//! A counting allocator tracks the bytes the checking thread holds while
//! `check_coherence` runs. A reallocation counts its new block before it
//! frees the old one, as a moving reallocation holds both.
//!
//! `cargo test --release -p multicube --test check_footprint -- --ignored
//! --nocapture` prints the figures for the n = 32 machine at 30 req/ms.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use multicube::{CoherenceView, Machine, MachineConfig, SyntheticSpec};
use multicube_sim::{split_seed, stream_id};
use multicube_topology::NodeId;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let live = LIVE.get() + delta;
            LIVE.set(live);
            PEAK.set(PEAK.get().max(live));
            if delta > 0 {
                BLOCKS.set(BLOCKS.get() + 1);
            }
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator, so
// the allocator contract holds as it does for `System`; the bookkeeping
// only touches const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` with `layout`, as `alloc` and
        // `realloc` only hand out `System`'s blocks.
        unsafe { System.dealloc(p, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // contract for `new_size`.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            note(new_size as isize);
            note(-(layout.size() as isize));
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One check's cost.
struct Footprint {
    /// Resident copies over all snooping caches.
    copies: usize,
    /// Entries over all modified line tables.
    listed: usize,
    /// Peak bytes the check held at once.
    peak: usize,
    /// Blocks it allocated.
    blocks: usize,
    time: Duration,
}

/// Runs the Figure-2 workload at `rate` req/ms on an `n` x `n` machine with
/// the end-of-run check off (seeded as `figures -- fig2` seeds its
/// `index`-th rate), then checks it once under the counting allocator.
fn footprint(n: u32, rate: f64, index: u64) -> Footprint {
    let seed = split_seed(0x5EED, stream_id("fig2", &format!("n={n}")), index);
    let config = MachineConfig::grid(n).unwrap().with_checking(false);
    let mut m = Machine::new(config, seed).unwrap();
    m.run_synthetic(&SyntheticSpec::default().with_request_rate_per_ms(rate), 60);
    let copies = (0..n * n).map(|i| m.resident_len(NodeId::new(i))).sum();
    let mut listed = 0;
    for col in 0..n {
        m.for_each_mlt_line(col, &mut |_| listed += 1);
    }
    LIVE.set(0);
    PEAK.set(0);
    BLOCKS.set(0);
    COUNTING.set(true);
    let start = Instant::now();
    let verdict = m.check_coherence();
    let time = start.elapsed();
    COUNTING.set(false);
    verdict.expect("the run is coherent");
    Footprint {
        copies,
        listed,
        peak: PEAK.get() as usize,
        blocks: BLOCKS.get(),
        time,
    }
}

/// A passing check allocates its two records, sized before they are
/// filled, and a few per-column counters: 16 bytes a resident copy, 24 a
/// table entry. Nothing grows with memory, the registry or the lines.
#[test]
fn a_passing_check_allocates_only_its_records() {
    let n = 16;
    let f = footprint(n, 30.0, 6);
    assert!(f.copies > 5_000, "{} copies", f.copies);
    let budget = 16 * f.copies + 24 * f.listed + 3 * 8 * n as usize;
    assert!(
        f.peak <= budget,
        "peak {} B over {} copies and {} table entries exceeds {budget} B",
        f.peak,
        f.copies,
        f.listed
    );
    assert!(f.blocks <= 8, "{} blocks", f.blocks);
}

/// The figures for the n = 32 machine at 30 req/ms, the largest point of
/// the Figure-2 sweep.
#[test]
#[ignore = "prints a measurement; run in release"]
fn n32_footprint() {
    for _ in 0..5 {
        let f = footprint(32, 30.0, 6);
        println!(
            "n=32 rate=30: {} copies, {} table entries, peak {} B in {} blocks, {:?}",
            f.copies, f.listed, f.peak, f.blocks, f.time
        );
    }
}
