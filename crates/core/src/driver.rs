//! Processor-side requests and the synthetic workload specification.

use multicube_mem::LineAddr;

/// What a processor asks its cache controller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Read a word of the line (a READ transaction on a miss).
    Read,
    /// Write a word of the line (a READ-MOD transaction unless the line is
    /// already held modified).
    Write,
    /// Write an entire line without regard to its prior contents (an
    /// ALLOCATE transaction — the §3 optimization of READ-MOD).
    Allocate,
    /// Flush a modified line back to memory (a WRITE-BACK transaction).
    Writeback,
    /// Atomic remote test-and-set on the line's synchronization word (§4).
    TestAndSet,
}

/// One processor request.
///
/// # Example
///
/// ```
/// use multicube::{Request, RequestKind};
/// use multicube_mem::LineAddr;
///
/// let req = Request::new(RequestKind::Read, LineAddr::new(7));
/// assert_eq!(req.kind, RequestKind::Read);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Operation class.
    pub kind: RequestKind,
    /// Target coherency line.
    pub line: LineAddr,
}

impl Request {
    /// Creates a request.
    pub fn new(kind: RequestKind, line: LineAddr) -> Self {
        Request { kind, line }
    }

    /// Shorthand for a read request.
    pub fn read(line: LineAddr) -> Self {
        Request::new(RequestKind::Read, line)
    }

    /// Shorthand for a write request.
    pub fn write(line: LineAddr) -> Self {
        Request::new(RequestKind::Write, line)
    }

    /// Shorthand for an allocate request.
    pub fn allocate(line: LineAddr) -> Self {
        Request::new(RequestKind::Allocate, line)
    }

    /// Shorthand for a writeback request.
    pub fn writeback(line: LineAddr) -> Self {
        Request::new(RequestKind::Writeback, line)
    }

    /// Shorthand for a test-and-set request.
    pub fn test_and_set(line: LineAddr) -> Self {
        Request::new(RequestKind::TestAndSet, line)
    }
}

/// The statistical workload of the paper's evaluation (§5).
///
/// Processors alternate between *thinking* (computing out of their caches)
/// and issuing one blocking bus request. The probabilities mirror the
/// Figure 2 caption: "The probability that the requested data is in global
/// state unmodified is 80 percent, and the probability that an invalidation
/// operation is required for a write miss to unmodified data is 20 percent."
/// The 80 percent is fixed for every run; the 20 percent is
/// `p_invalidation`, Figure 3's knob.
///
/// The generator is *state-conditioned*: it draws the target class (e.g.
/// "a line currently modified in a remote cache") and then picks a concrete
/// line in that state, so the configured probabilities hold exactly rather
/// than emerging from an unknown steady state.
///
/// # Example
///
/// ```
/// use multicube::SyntheticSpec;
///
/// // 25 bus requests per millisecond per processor = 40 us of think time.
/// let spec = SyntheticSpec::default().with_request_rate_per_ms(25.0);
/// assert!((spec.mean_think_ns - 40_000.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Mean think time between requests (ns); requests are non-overlapping.
    pub mean_think_ns: f64,
    /// Fraction of bus requests that are writes (READ-MOD).
    pub p_write: f64,
    /// Of write misses to unmodified data, the fraction that target lines
    /// with shared copies in other caches (and therefore actually
    /// invalidate something).
    pub p_invalidation: f64,
    /// Number of shared lines the workload touches.
    pub shared_lines: u64,
}

impl Default for SyntheticSpec {
    /// The Figure 2 parameter set at a moderate request rate
    /// (10 requests/ms/processor).
    fn default() -> Self {
        SyntheticSpec {
            mean_think_ns: 100_000.0,
            p_write: 0.3,
            p_invalidation: 0.2,
            shared_lines: 4096,
        }
    }
}

impl SyntheticSpec {
    /// Sets the mean think time from a bus-request rate in requests per
    /// millisecond per processor (the x-axis of Figures 2–4).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    #[must_use]
    pub fn with_request_rate_per_ms(mut self, rate: f64) -> Self {
        assert!(rate > 0.0, "request rate must be positive");
        self.mean_think_ns = 1_000_000.0 / rate;
        self
    }

    /// Sets the write fraction.
    #[must_use]
    pub fn with_p_write(mut self, p: f64) -> Self {
        self.p_write = p;
        self
    }

    /// Sets the invalidation probability for write misses to unmodified
    /// data (the Figure 3 sweep parameter).
    #[must_use]
    pub fn with_p_invalidation(mut self, p: f64) -> Self {
        self.p_invalidation = p;
        self
    }

    /// Sets the shared working-set size in lines.
    #[must_use]
    pub fn with_shared_lines(mut self, lines: u64) -> Self {
        self.shared_lines = lines;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors() {
        let line = LineAddr::new(3);
        assert_eq!(Request::read(line).kind, RequestKind::Read);
        assert_eq!(Request::write(line).kind, RequestKind::Write);
        assert_eq!(Request::allocate(line).kind, RequestKind::Allocate);
        assert_eq!(Request::writeback(line).kind, RequestKind::Writeback);
        assert_eq!(Request::test_and_set(line).kind, RequestKind::TestAndSet);
        assert_eq!(Request::new(RequestKind::Writeback, line).line, line);
    }

    #[test]
    fn default_spec_matches_figure2_caption() {
        let s = SyntheticSpec::default();
        assert_eq!(s.p_invalidation, 0.2);
    }

    #[test]
    fn rate_roundtrip() {
        let s = SyntheticSpec::default().with_request_rate_per_ms(25.0);
        assert!((1_000_000.0 / s.mean_think_ns - 25.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_panics() {
        let _ = SyntheticSpec::default().with_request_rate_per_ms(0.0);
    }

    #[test]
    fn builders_apply() {
        let s = SyntheticSpec::default()
            .with_p_write(0.5)
            .with_p_invalidation(0.4)
            .with_shared_lines(128);
        assert_eq!(s.p_write, 0.5);
        assert_eq!(s.p_invalidation, 0.4);
        assert_eq!(s.shared_lines, 128);
    }
}
