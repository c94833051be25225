//! The application-style generators.
//!
//! Address-space layout (line indices):
//!
//! | region | lines |
//! |---|---|
//! | shared index / table / boundary data | `0x0000 .. 0x8000` |
//! | log / queue buffers | `0x8000 .. 0x1_0000` |
//! | per-node private heaps | `0x10_0000 + node * 0x1000 ..` |

use multicube::{Request, RequestKind};
use multicube_mem::LineAddr;
use multicube_sim::DeterministicRng;
use multicube_topology::NodeId;

use crate::runner::Workload;

fn private_line(node: NodeId, slot: u64) -> LineAddr {
    LineAddr::new(0x10_0000 + node.index() as u64 * 0x1000 + (slot % 0x1000))
}

/// OLTP-style database transactions (§1: "high-transaction database
/// systems").
///
/// Each transaction is a short program: a few reads of hot shared index
/// lines, a private tuple read-modify-write, and with some probability a
/// whole-line append to a shared log — issued as ALLOCATE, the §3 use case
/// ("much of the benefit can be obtained by its inclusion in a few places,
/// such as in I/O handlers, loaders, and memory allocators").
#[derive(Debug)]
pub struct Oltp {
    index_lines: u64,
    log_cursor: u64,
    /// Per-node position inside the current transaction program.
    pc: Vec<u8>,
}

impl Oltp {
    /// An OLTP workload with a hot index of `index_lines` lines.
    pub fn new(index_lines: u64) -> Self {
        Oltp {
            index_lines: index_lines.max(1),
            log_cursor: 0,
            pc: Vec::new(),
        }
    }

    fn pc(&mut self, node: NodeId) -> &mut u8 {
        let idx = node.as_usize();
        if self.pc.len() <= idx {
            self.pc.resize(idx + 1, 0);
        }
        &mut self.pc[idx]
    }
}

impl Workload for Oltp {
    fn name(&self) -> &'static str {
        "oltp"
    }

    fn next(&mut self, node: NodeId, rng: &mut DeterministicRng) -> Option<(u64, Request)> {
        let step = *self.pc(node);
        *self.pc(node) = (step + 1) % 4;
        let think = 2_000 + rng.below(4_000);
        Some(match step {
            // Two index probes: Zipf-skewed hot shared reads (the root of
            // a B-tree is touched by every transaction).
            0 | 1 => {
                let line = LineAddr::new(rng.zipf(self.index_lines, 0.8));
                (think, Request::read(line))
            }
            // Private tuple update.
            2 => {
                let line = private_line(node, rng.below(64));
                (think, Request::write(line))
            }
            // Log append: a fresh whole line — ALLOCATE.
            _ => {
                self.log_cursor += 1;
                let line = LineAddr::new(0x8000 + (self.log_cursor % 0x8000));
                (think, Request::new(RequestKind::Allocate, line))
            }
        })
    }
}

/// Producer/consumer pipelines: node `2k` produces buffer lines that node
/// `2k+1` consumes, ping-ponging ownership between the two caches.
#[derive(Debug, Default)]
pub struct ProducerConsumer {
    cursor: Vec<u64>,
}

impl ProducerConsumer {
    /// Creates the pipeline workload.
    pub fn new() -> Self {
        ProducerConsumer::default()
    }

    fn cursor(&mut self, pair: usize) -> &mut u64 {
        if self.cursor.len() <= pair {
            self.cursor.resize(pair + 1, 0);
        }
        &mut self.cursor[pair]
    }

    fn buffer_line(pair: usize, slot: u64) -> LineAddr {
        LineAddr::new(0x8000 + pair as u64 * 0x100 + (slot % 0x80))
    }
}

impl Workload for ProducerConsumer {
    fn name(&self) -> &'static str {
        "producer-consumer"
    }

    fn next(&mut self, node: NodeId, rng: &mut DeterministicRng) -> Option<(u64, Request)> {
        let pair = (node.index() / 2) as usize;
        let is_producer = node.index().is_multiple_of(2);
        let think = 3_000 + rng.below(3_000);
        let slot = if is_producer {
            let c = self.cursor(pair);
            *c += 1;
            *c
        } else {
            // The consumer trails the producer.
            self.cursor(pair).saturating_sub(1)
        };
        let line = Self::buffer_line(pair, slot);
        Some(if is_producer {
            (think, Request::write(line))
        } else {
            (think, Request::read(line))
        })
    }
}

/// Phased numerical computation: long private phases punctuated by
/// boundary exchange with the four grid neighbours (stencil pattern).
///
/// Private accesses model a sweep over the node's subgrid: each phase
/// works a small hot window of private lines and the window slides by
/// `Self::WINDOW_STRIDE` per phase, so consecutive phases overlap and
/// most private accesses hit lines fetched a phase or two earlier.
#[derive(Debug)]
pub struct PhasedNumeric {
    /// Grid side (to compute neighbours).
    n: u32,
    /// Private accesses per phase before exchanging.
    phase_len: u8,
    pc: Vec<u8>,
    /// Per-node start of the sliding private hot window.
    window_base: Vec<u64>,
}

impl PhasedNumeric {
    /// A stencil workload on an `n x n` machine with the given private
    /// phase length.
    pub fn new(n: u32, phase_len: u8) -> Self {
        PhasedNumeric {
            n,
            phase_len: phase_len.max(1),
            pc: Vec::new(),
            window_base: Vec::new(),
        }
    }

    /// Private lines per node (the subgrid footprint).
    const PRIVATE_LINES: u64 = 256;
    /// Lines in the per-phase hot window.
    const WINDOW_LINES: u64 = 4;
    /// How far the hot window slides per phase.
    const WINDOW_STRIDE: u64 = 2;

    fn boundary_line(&self, owner_row: u32, owner_col: u32) -> LineAddr {
        LineAddr::new((owner_row * self.n + owner_col) as u64)
    }
}

impl Workload for PhasedNumeric {
    fn name(&self) -> &'static str {
        "phased-numeric"
    }

    fn next(&mut self, node: NodeId, rng: &mut DeterministicRng) -> Option<(u64, Request)> {
        let idx = node.as_usize();
        if self.pc.len() <= idx {
            self.pc.resize(idx + 1, 0);
        }
        if self.window_base.len() <= idx {
            self.window_base.resize(idx + 1, 0);
        }
        let step = self.pc[idx];
        self.pc[idx] = (step + 1) % (self.phase_len + 2);
        if self.pc[idx] == 0 {
            // Phase boundary: slide the private hot window along the subgrid.
            self.window_base[idx] =
                (self.window_base[idx] + Self::WINDOW_STRIDE) % Self::PRIVATE_LINES;
        }
        let row = node.index() / self.n;
        let col = node.index() % self.n;
        Some(if step < self.phase_len {
            // Private compute: read-mostly with occasional writes, confined
            // to the current hot window so the sweep re-uses cached lines.
            let slot =
                (self.window_base[idx] + rng.below(Self::WINDOW_LINES)) % Self::PRIVATE_LINES;
            let line = private_line(node, slot);
            let think = 5_000 + rng.below(5_000);
            if rng.chance(0.3) {
                (think, Request::write(line))
            } else {
                (think, Request::read(line))
            }
        } else if step == self.phase_len {
            // Publish our boundary.
            (2_000, Request::write(self.boundary_line(row, col)))
        } else {
            // Read one random neighbour's boundary.
            let (nr, nc) = match rng.below(4) {
                0 => ((row + 1) % self.n, col),
                1 => ((row + self.n - 1) % self.n, col),
                2 => (row, (col + 1) % self.n),
                _ => (row, (col + self.n - 1) % self.n),
            };
            (2_000, Request::read(self.boundary_line(nr, nc)))
        })
    }
}

/// AI-style state-space search: private node expansion, a shared
/// transposition table, and occasional lock probes (remote test-and-set).
#[derive(Debug)]
pub struct Search {
    table_lines: u64,
    locks: u64,
}

impl Search {
    /// A search workload with the given transposition-table size and lock
    /// count.
    pub fn new(table_lines: u64, locks: u64) -> Self {
        Search {
            table_lines: table_lines.max(1),
            locks: locks.max(1),
        }
    }
}

impl Workload for Search {
    fn name(&self) -> &'static str {
        "search"
    }

    fn next(&mut self, node: NodeId, rng: &mut DeterministicRng) -> Option<(u64, Request)> {
        let think = 4_000 + rng.below(8_000);
        let roll = rng.uniform();
        Some(if roll < 0.6 {
            // Private expansion.
            let line = private_line(node, rng.below(512));
            if rng.chance(0.4) {
                (think, Request::write(line))
            } else {
                (think, Request::read(line))
            }
        } else if roll < 0.9 {
            // Transposition-table probe (mostly reads, some updates).
            let line = LineAddr::new(0x4000 + rng.below(self.table_lines));
            if rng.chance(0.2) {
                (think, Request::write(line))
            } else {
                (think, Request::read(line))
            }
        } else {
            // Work-queue lock probe.
            let line = LineAddr::new(0x7F00 + rng.below(self.locks));
            (think, Request::new(RequestKind::TestAndSet, line))
        })
    }
}

/// Web-session cache traffic: front-end servers answering user requests
/// against a Zipf-popular shared content set (the hot front page and a
/// long tail), with per-session private state writes, a small set of hot
/// shared hit counters, and occasional whole-line session-log appends
/// (ALLOCATE).
///
/// The read-heavy Zipf mix is the serving-tier profile the paper's
/// "millions of users" framing implies: most bus traffic is shared-read
/// fetches that cache well, punctuated by counter writes that invalidate
/// broadly.
#[derive(Debug)]
pub struct WebSession {
    content_lines: u64,
    skew: f64,
    /// Per-node session-state cursor (sessions touch fresh private slots).
    session: Vec<u64>,
    log_cursor: u64,
}

impl WebSession {
    /// A web workload over `content_lines` content lines with Zipf skew
    /// `skew` (in `(0,1)`; higher concentrates on the front page).
    pub fn new(content_lines: u64, skew: f64) -> Self {
        WebSession {
            content_lines: content_lines.max(1),
            skew: skew.clamp(0.01, 0.99),
            session: Vec::new(),
            log_cursor: 0,
        }
    }

    fn session(&mut self, node: NodeId) -> &mut u64 {
        let idx = node.as_usize();
        if self.session.len() <= idx {
            self.session.resize(idx + 1, 0);
        }
        &mut self.session[idx]
    }
}

impl Workload for WebSession {
    fn name(&self) -> &'static str {
        "web-session"
    }

    fn next(&mut self, node: NodeId, rng: &mut DeterministicRng) -> Option<(u64, Request)> {
        // Web requests are light: short think times keep the buses busy.
        let think = 1_500 + rng.below(3_000);
        let roll = rng.uniform();
        Some(if roll < 0.75 {
            // Content fetch: Zipf-popular shared lines.
            let line = LineAddr::new(rng.zipf(self.content_lines, self.skew));
            (think, Request::read(line))
        } else if roll < 0.78 {
            // Content update: an editor republishes a popular page,
            // invalidating the copies every front end has cached.
            let line = LineAddr::new(rng.zipf(self.content_lines, self.skew));
            (think, Request::write(line))
        } else if roll < 0.93 {
            // Session-state update in the node's private heap.
            let cursor = self.session(node);
            *cursor += 1;
            let slot = *cursor;
            (think, Request::write(private_line(node, slot % 128)))
        } else if roll < 0.98 {
            // Hot hit-counter bump: few lines, every server writes them.
            let line = LineAddr::new(0x7E00 + rng.zipf(16, self.skew));
            (think, Request::write(line))
        } else {
            // Session-log append: a fresh whole line — ALLOCATE.
            self.log_cursor += 1;
            let line = LineAddr::new(0xC000 + (self.log_cursor % 0x4000));
            (think, Request::new(RequestKind::Allocate, line))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Stream;
    use multicube::{Machine, MachineConfig, RunReport};

    fn machine() -> Machine {
        Machine::new(MachineConfig::grid(2).unwrap(), 11).unwrap()
    }

    /// Runs `workload` for `per_node` requests per node on a fresh 2×2
    /// machine: the run's report, its kind counts and the machine.
    fn run<W: Workload>(workload: W, per_node: u64) -> (RunReport, [u64; 5], Machine) {
        let mut m = machine();
        let mut stream = Stream::new(workload);
        let report = m.run_closed_loop(&mut stream, per_node);
        (report, stream.kind_counts, m)
    }

    #[test]
    fn oltp_exercises_allocate() {
        let (report, kinds, _) = run(Oltp::new(16), 40);
        assert_eq!(report.transactions_completed, 160);
        assert!(kinds[2] > 0, "log appends must allocate");
        assert!(kinds[0] > kinds[1]);
    }

    #[test]
    fn producer_consumer_transfers_ownership() {
        let (report, _, m) = run(ProducerConsumer::new(), 40);
        assert_eq!(report.transactions_completed, 160);
        // The consumer's reads hit remotely-modified lines, so traffic is
        // dominated by cache-to-cache transfers, not memory.
        assert!(m.metrics().read_modified.count > 0);
    }

    #[test]
    fn phased_numeric_alternates_private_and_boundary() {
        let (report, _, _) = run(PhasedNumeric::new(2, 4), 60);
        assert_eq!(report.transactions_completed, 240);
        // Private phases make most accesses local after warmup.
        assert!(report.ops_per_request() < 4.0);
    }

    #[test]
    fn search_probes_locks() {
        let (report, kinds, _) = run(Search::new(64, 4), 80);
        assert_eq!(report.transactions_completed, 320);
        assert!(kinds[3] > 0, "lock probes must happen");
    }

    #[test]
    fn web_session_is_read_heavy_with_hot_writes() {
        let (report, kinds, m) = run(WebSession::new(512, 0.8), 200);
        assert_eq!(report.transactions_completed, 800);
        // Content fetches dominate...
        assert!(kinds[0] > kinds[1] * 2);
        // ...but the shared hit counters still force invalidations.
        assert!(m.metrics().invalidations.get() > 0);
        // Session logs append whole lines.
        assert!(kinds[2] > 0);
    }

    #[test]
    fn workloads_have_distinct_traffic_profiles() {
        let oltp = run(Oltp::new(16), 50).0.ops_per_request();
        let pc = run(ProducerConsumer::new(), 50).0.ops_per_request();
        // Producer/consumer ping-pong generates more traffic per request
        // than index-cached OLTP.
        assert!(pc > oltp * 0.5, "profiles should differ meaningfully");
    }
}
