//! Machine shape, timing and protocol options.

use core::fmt;

use multicube_mem::{CacheGeometry, LineGeometry};
use multicube_topology::{Grid, TopologyError};

use crate::bus::Arbitration;
use crate::fault::{FaultConfigError, FaultPlan, RetryPolicy, Watchdog};
use crate::machine::engine::Engine;

/// Processor-cache (L1) hit latency in nanoseconds: a request the SRAM
/// processor cache satisfies completes this long after issue, without
/// touching a bus.
pub const PROCESSOR_LATENCY_NS: u64 = 10;

/// Bus and memory timing parameters, all in nanoseconds.
///
/// Defaults are the paper's Figure 2 parameters: "The data is transferred
/// at a rate of 1 bus word every 50 ns. The latency of both the snooping
/// cache and main memory is 750 ns."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Time to transfer one bus word (ns).
    pub word_ns: u64,
    /// Bus occupancy of an address/command-only operation (ns). The paper
    /// notes such operations "are very short, since they contain only an
    /// address and command information"; we charge one bus word.
    pub addr_op_ns: u64,
    /// Snooping-cache access latency before a controller can supply data (ns).
    pub snoop_latency_ns: u64,
    /// Main-memory access latency before a bank can supply data (ns).
    pub memory_latency_ns: u64,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            word_ns: 50,
            addr_op_ns: 50,
            snoop_latency_ns: 750,
            memory_latency_ns: 750,
        }
    }
}

impl Timing {
    /// Bus occupancy of a data-carrying operation for a block of
    /// `block_words` words: header plus the streamed block.
    pub fn data_op_ns(&self, block_words: u32) -> u64 {
        self.addr_op_ns + self.word_ns * block_words as u64
    }
}

/// How data replies traverse the (up to) two bus legs back to the
/// requester — the §5 "Techniques for Reducing Bus Latency".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatencyMode {
    /// Store-and-forward whole blocks; the requester is unblocked when the
    /// final data operation completes. The paper's baseline assumption.
    #[default]
    StoreAndForward,
    /// "Transmitting the requested word first": the requester resumes as
    /// soon as the header and first word of the final reply arrive; the bus
    /// is still occupied for the whole block.
    RequestedWordFirst,
    /// "Send the requested line in small fixed-size pieces": each data
    /// reply is split into pieces of the given number of words, each a
    /// separate bus operation. Reduces per-op bus holding time at the cost
    /// of extra headers. The requester resumes when the piece containing
    /// the requested word (modelled as the first piece) arrives.
    Pieces {
        /// Words per piece; clamped to the block size.
        words: u32,
    },
}

/// Which coherence-protocol engine drives the machine.
///
/// The default [`EngineKind::Multicube`] engine implements the paper's
/// Appendix-A protocol over the two-dimensional grid of row and column
/// buses. The three rival engines model classic single-bus snooping
/// protocols on bus 0 only, so the Multicube's bus hierarchy becomes the
/// experimental variable in a shootout (`figures -- shootout`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The paper's snooping write-invalidate protocol on the bus grid.
    #[default]
    Multicube,
    /// Write-invalidate MESI on a single shared snooping bus.
    Mesi,
    /// Write-update Dragon on a single shared snooping bus.
    Dragon,
    /// Goodman's write-once on a single shared snooping bus: the
    /// single-bus *multi* the Multicube generalizes.
    WriteOnce,
}

impl EngineKind {
    /// Stable lowercase identifier, used in CSV output and CLI labels.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Multicube => "multicube",
            EngineKind::Mesi => "mesi",
            EngineKind::Dragon => "dragon",
            EngineKind::WriteOnce => "writeonce",
        }
    }

    /// The engine whose [`EngineKind::name`] is `name`, if any.
    pub fn from_name(name: &str) -> Option<EngineKind> {
        EngineKind::all().into_iter().find(|e| e.name() == name)
    }

    /// All engines, in shootout order.
    pub fn all() -> [EngineKind; 4] {
        use EngineKind::*;
        [Multicube, Mesi, Dragon, WriteOnce]
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors from validating a [`MachineConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum MachineConfigError {
    /// The grid side was invalid.
    Topology(TopologyError),
    /// Block size must be a nonzero power of two.
    BadBlockSize(u32),
    /// Pieces mode needs a nonzero piece size.
    BadPieceSize,
    /// A fault-plan or retry-policy knob was invalid (this subsumes the old
    /// `BadDropProbability`: the drop knob now lives on [`FaultPlan`]).
    Fault(FaultConfigError),
}

impl fmt::Display for MachineConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineConfigError::Topology(e) => write!(f, "invalid topology: {e}"),
            MachineConfigError::BadBlockSize(b) => {
                write!(f, "block size must be a nonzero power of two, got {b}")
            }
            MachineConfigError::BadPieceSize => write!(f, "piece size must be nonzero"),
            MachineConfigError::Fault(e) => write!(f, "invalid fault configuration: {e}"),
        }
    }
}

impl std::error::Error for MachineConfigError {}

impl From<TopologyError> for MachineConfigError {
    fn from(e: TopologyError) -> Self {
        MachineConfigError::Topology(e)
    }
}

impl From<FaultConfigError> for MachineConfigError {
    fn from(e: FaultConfigError) -> Self {
        MachineConfigError::Fault(e)
    }
}

/// Full configuration of a Wisconsin Multicube machine.
///
/// Construct with [`MachineConfig::grid`] and customize via the builder
/// methods, then pass to [`crate::Machine::new`].
///
/// # Example
///
/// ```
/// use multicube::{LatencyMode, MachineConfig};
///
/// let config = MachineConfig::grid(8)
///     .unwrap()
///     .with_block_words(32)
///     .with_latency_mode(LatencyMode::RequestedWordFirst)
///     .with_snarfing(true);
/// assert_eq!(config.topology().num_nodes(), 64);
/// assert_eq!(config.line_geometry().words_per_line(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfig {
    grid: Grid,
    timing: Timing,
    block_words: u32,
    snoop_cache: CacheGeometry,
    /// Geometry of the first-level (SRAM) processor cache; `None` disables
    /// the L1 model (all accesses go to the snooping cache).
    processor_cache: Option<CacheGeometry>,
    mlt_capacity: usize,
    latency_mode: LatencyMode,
    snarfing: bool,
    /// Which adversarial faults to inject (§3 robustness testing); inert by
    /// default.
    faults: FaultPlan,
    /// Backoff applied to bounce-path retries; immediate by default.
    retry: RetryPolicy,
    /// Livelock/starvation watchdog; defaults to escalating past 256
    /// retries.
    watchdog: Watchdog,
    /// Idealized sharing filter for the invalidation broadcast (ablation).
    broadcast_filter: bool,
    /// When true, the coherence checker runs during the simulation.
    checking: bool,
    /// Run the mid-flight invariant subset every this many delivered
    /// events; 0 disables (the default).
    check_every: u64,
    /// Which protocol engine drives the machine.
    engine: EngineKind,
    /// Bus-grant policy shared by every bus in the machine.
    arbitration: Arbitration,
}

impl MachineConfig {
    /// Creates a configuration for an `n x n` grid with the paper's default
    /// parameters: 16-word blocks, 50 ns words, 750 ns latencies, a
    /// generously sized snooping cache and modified line table, no
    /// snarfing, store-and-forward data movement, checking enabled.
    ///
    /// # Errors
    ///
    /// Returns [`MachineConfigError::Topology`] if `n < 2`.
    pub fn grid(n: u32) -> Result<Self, MachineConfigError> {
        Ok(MachineConfig {
            grid: Grid::new(n)?,
            timing: Timing::default(),
            block_words: 16,
            // "a very large (minimum size: 64 DRAMs) cache": the snooping
            // cache is big; default 4096 lines of 4-way associativity.
            snoop_cache: CacheGeometry::new(1024, 4),
            // "a high-performance (SRAM) cache designed with the
            // traditional goal of minimizing memory latency": small and
            // fast relative to the big DRAM snooping cache.
            processor_cache: Some(CacheGeometry::new(64, 2)),
            mlt_capacity: 4096,
            latency_mode: LatencyMode::StoreAndForward,
            snarfing: false,
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
            watchdog: Watchdog::default(),
            broadcast_filter: false,
            checking: true,
            check_every: 0,
            engine: EngineKind::Multicube,
            arbitration: Arbitration::Fcfs,
        })
    }

    /// Selects the coherence-protocol engine (default
    /// [`EngineKind::Multicube`]). The single-bus engines put all `n * n`
    /// processors on row bus 0 and ignore the other buses and the
    /// Multicube-specific knobs (MLT capacity, snarfing, broadcast
    /// filter, latency modes beyond store-and-forward occupancy, and the
    /// Multicube fault vocabulary).
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the coherency/transfer block size in bus words.
    #[must_use]
    pub fn with_block_words(mut self, words: u32) -> Self {
        self.block_words = words;
        self
    }

    /// Sets the bus and memory timing.
    #[must_use]
    pub fn with_timing(mut self, timing: Timing) -> Self {
        self.timing = timing;
        self
    }

    /// Sets the snooping-cache geometry.
    #[must_use]
    pub fn with_snoop_cache(mut self, geometry: CacheGeometry) -> Self {
        self.snoop_cache = geometry;
        self
    }

    /// Sets (or disables, with `None`) the processor-cache geometry.
    #[must_use]
    pub fn with_processor_cache(mut self, geometry: Option<CacheGeometry>) -> Self {
        self.processor_cache = geometry;
        self
    }

    /// Sets the modified-line-table capacity (entries per column).
    #[must_use]
    pub fn with_mlt_capacity(mut self, capacity: usize) -> Self {
        self.mlt_capacity = capacity;
        self
    }

    /// Sets the §5 latency-reduction mode.
    #[must_use]
    pub fn with_latency_mode(mut self, mode: LatencyMode) -> Self {
        self.latency_mode = mode;
        self
    }

    /// Enables or disables snarfing (re-acquiring a recently held line in
    /// shared mode as it passes by on a snooped bus).
    #[must_use]
    pub fn with_snarfing(mut self, on: bool) -> Self {
        self.snarfing = on;
        self
    }

    /// Enables the idealized *sharing filter* ablation: the invalidation
    /// broadcast of a READ-MOD to unmodified data fans out to the rows
    /// only when shared copies actually exist somewhere. The real protocol
    /// always broadcasts (memory cannot know about sharers); this option
    /// reproduces the accounting of the paper's analytical model, where
    /// "the probability that an invalidation operation is required for a
    /// write miss to unmodified data is 20 percent" (Figure 2 caption).
    #[must_use]
    pub fn with_broadcast_filter(mut self, on: bool) -> Self {
        self.broadcast_filter = on;
        self
    }

    /// Installs a fault-injection plan (§3 robustness testing). The default
    /// plan injects nothing.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Sets the retry/backoff policy for bounce-path retransmissions.
    #[must_use]
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Configures the livelock/starvation watchdog.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Enables or disables the runtime coherence checker (on by default;
    /// disable for large benchmark sweeps).
    #[must_use]
    pub fn with_checking(mut self, on: bool) -> Self {
        self.checking = on;
        self
    }

    /// Runs the mid-flight coherence-invariant subset
    /// ([`check_midflight`](crate::check::check_midflight)) every `n`
    /// delivered events, panicking on the first violation — catching
    /// transiently-bad states the end-of-run quiescent check would miss.
    /// `0` disables (the default); chaos tests enable it.
    #[must_use]
    pub fn with_check_every(mut self, n: u64) -> Self {
        self.check_every = n;
        self
    }

    /// Selects the bus-grant policy for every bus in the machine (default
    /// [`Arbitration::Fcfs`], the paper's queueing assumption — and the
    /// policy under which the machine's event stream is bit-identical to
    /// the pre-seam implementation).
    #[must_use]
    pub fn with_arbitration(mut self, arbitration: Arbitration) -> Self {
        self.arbitration = arbitration;
        self
    }

    /// Validates the configuration, returning derived line geometry.
    ///
    /// # Errors
    ///
    /// See [`MachineConfigError`].
    pub fn validate(&self) -> Result<LineGeometry, MachineConfigError> {
        let geom = LineGeometry::new(self.block_words)
            .map_err(|e| MachineConfigError::BadBlockSize(e.0))?;
        if let LatencyMode::Pieces { words } = self.latency_mode {
            if words == 0 {
                return Err(MachineConfigError::BadPieceSize);
            }
        }
        self.faults.validate()?;
        self.retry.validate()?;
        // An engine without fault handling would silently ignore every
        // injected fault, making a "faulted" run indistinguishable from a
        // clean one. Reject the combination instead of letting it lie.
        if self.faults.is_active() && !Engine::of(self.engine).takes_faults() {
            return Err(MachineConfigError::Fault(
                FaultConfigError::UnsupportedByEngine {
                    engine: self.engine.name(),
                },
            ));
        }
        Ok(geom)
    }

    /// The selected coherence-protocol engine.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The selected bus-grant policy.
    pub fn arbitration(&self) -> Arbitration {
        self.arbitration
    }

    /// The grid topology.
    pub fn topology(&self) -> &Grid {
        &self.grid
    }

    /// The timing parameters.
    pub fn timing(&self) -> Timing {
        self.timing
    }

    /// Block size in bus words.
    pub fn block_words(&self) -> u32 {
        self.block_words
    }

    /// The word-to-line mapping implied by the block size.
    ///
    /// # Panics
    ///
    /// Panics if the block size is invalid; call [`MachineConfig::validate`]
    /// first to report the error gracefully.
    pub fn line_geometry(&self) -> LineGeometry {
        LineGeometry::new(self.block_words).expect("invalid block size")
    }

    /// Snooping-cache geometry.
    pub fn snoop_cache(&self) -> CacheGeometry {
        self.snoop_cache
    }

    /// Processor-cache geometry, if the L1 level is modelled.
    pub fn processor_cache(&self) -> Option<CacheGeometry> {
        self.processor_cache
    }

    /// Modified-line-table capacity.
    pub fn mlt_capacity(&self) -> usize {
        self.mlt_capacity
    }

    /// Latency-reduction mode.
    pub fn latency_mode(&self) -> LatencyMode {
        self.latency_mode
    }

    /// Whether snarfing is enabled.
    pub fn snarfing(&self) -> bool {
        self.snarfing
    }

    /// The fault-injection plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The retry/backoff policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The livelock watchdog configuration.
    pub fn watchdog(&self) -> Watchdog {
        self.watchdog
    }

    /// Whether the idealized broadcast sharing filter is enabled.
    pub fn broadcast_filter(&self) -> bool {
        self.broadcast_filter
    }

    /// Whether runtime coherence checking is enabled.
    pub fn checking(&self) -> bool {
        self.checking
    }

    /// Mid-flight check cadence in delivered events (0 = disabled).
    pub fn check_every(&self) -> u64 {
        self.check_every
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_timing_matches_paper() {
        let t = Timing::default();
        assert_eq!(t.word_ns, 50);
        assert_eq!(t.snoop_latency_ns, 750);
        assert_eq!(t.memory_latency_ns, 750);
        // 16-word block: 50 header + 800 data.
        assert_eq!(t.data_op_ns(16), 850);
    }

    #[test]
    fn grid_config_defaults() {
        let c = MachineConfig::grid(32).unwrap();
        assert_eq!(c.topology().num_nodes(), 1024);
        assert_eq!(c.block_words(), 16);
        assert!(c.checking());
        assert!(!c.snarfing());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods_apply() {
        let c = MachineConfig::grid(4)
            .unwrap()
            .with_block_words(8)
            .with_mlt_capacity(16)
            .with_snarfing(true)
            .with_fault_plan(FaultPlan::default().with_signal_drop(0.1))
            .with_retry_policy(RetryPolicy::default().with_backoff(100, 5_000))
            .with_watchdog(Watchdog::default().with_retry_budget(8))
            .with_checking(false);
        assert_eq!(c.block_words(), 8);
        assert_eq!(c.mlt_capacity(), 16);
        assert!(c.snarfing());
        assert_eq!(c.fault_plan().signal_drop(), 0.1);
        assert_eq!(c.retry_policy().backoff_base_ns(), 100);
        assert_eq!(c.watchdog().retry_budget(), 8);
        assert!(!c.checking());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn default_engine_is_multicube() {
        let c = MachineConfig::grid(4).unwrap();
        assert_eq!(c.engine(), EngineKind::Multicube);
        let c = c.with_engine(EngineKind::Dragon);
        assert_eq!(c.engine(), EngineKind::Dragon);
        assert_eq!(EngineKind::Mesi.name(), "mesi");
        assert_eq!(EngineKind::all().len(), 4);
    }

    #[test]
    fn engine_names_parse_back() {
        for e in EngineKind::all() {
            assert_eq!(EngineKind::from_name(e.name()), Some(e));
        }
        assert_eq!(EngineKind::from_name("moesi"), None);
    }

    #[test]
    fn validation_rejects_bad_block() {
        let c = MachineConfig::grid(4).unwrap().with_block_words(12);
        assert_eq!(c.validate(), Err(MachineConfigError::BadBlockSize(12)));
    }

    #[test]
    fn validation_rejects_bad_pieces() {
        let c = MachineConfig::grid(4)
            .unwrap()
            .with_latency_mode(LatencyMode::Pieces { words: 0 });
        assert_eq!(c.validate(), Err(MachineConfigError::BadPieceSize));
    }

    #[test]
    fn validation_rejects_bad_fault_plan() {
        let c = MachineConfig::grid(4)
            .unwrap()
            .with_fault_plan(FaultPlan::default().with_signal_drop(1.0));
        assert!(matches!(
            c.validate(),
            Err(MachineConfigError::Fault(
                FaultConfigError::BadProbability {
                    knob: "signal_drop",
                    ..
                }
            ))
        ));
    }

    #[test]
    fn validation_rejects_bad_backoff() {
        let c = MachineConfig::grid(4)
            .unwrap()
            .with_retry_policy(RetryPolicy::default().with_backoff(500, 100));
        assert!(matches!(
            c.validate(),
            Err(MachineConfigError::Fault(
                FaultConfigError::BadBackoff { .. }
            ))
        ));
    }

    #[test]
    fn arena_engines_reject_active_fault_plans() {
        for engine in [EngineKind::Mesi, EngineKind::Dragon, EngineKind::WriteOnce] {
            let c = MachineConfig::grid(4)
                .unwrap()
                .with_engine(engine)
                .with_fault_plan(FaultPlan::default().with_op_loss(0.1));
            assert_eq!(
                c.validate(),
                Err(MachineConfigError::Fault(
                    FaultConfigError::UnsupportedByEngine {
                        engine: engine.name()
                    }
                )),
                "{engine}: active plan must be rejected"
            );
            // An explicitly installed *inert* plan is fine.
            let c = MachineConfig::grid(4)
                .unwrap()
                .with_engine(engine)
                .with_fault_plan(FaultPlan::default());
            assert!(c.validate().is_ok(), "{engine}: inert plan is allowed");
        }
        // The default engine keeps full fault support.
        let c = MachineConfig::grid(4)
            .unwrap()
            .with_fault_plan(FaultPlan::default().with_op_loss(0.1));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn check_every_defaults_off_and_round_trips() {
        let c = MachineConfig::grid(4).unwrap();
        assert_eq!(c.check_every(), 0);
        let c = c.with_check_every(64);
        assert_eq!(c.check_every(), 64);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn topology_error_propagates() {
        assert!(matches!(
            MachineConfig::grid(1),
            Err(MachineConfigError::Topology(_))
        ));
    }
}
