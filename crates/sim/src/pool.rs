//! A bounded worker pool with deterministic job ordering and panic
//! containment — the execution layer under every sweep harness.
//!
//! Every figure, fault sweep and perf harness in the workspace fans a
//! matrix of independent simulation runs out over threads. Doing that with
//! ad-hoc `thread::scope` spawns has three failure modes this module
//! removes:
//!
//! 1. **Unbounded spawn.** One thread per sweep point means a 4-series ×
//!    7-rate figure starts 28 OS threads at once. The pool runs at most
//!    [`Pool::workers`] threads and feeds them jobs from a shared queue.
//! 2. **Nondeterministic output.** Results are collected by stable
//!    [`JobId`] — the job's index in the submission order — so the output
//!    vector is byte-identical whether the pool runs on 1 worker or 16.
//!    Scheduling order may differ; observable results may not.
//! 3. **Panic amplification.** `handle.join().expect(..)` turns one
//!    panicking sweep point into a lost figure. Here every job body runs
//!    under [`std::panic::catch_unwind`]; a panic becomes a per-job
//!    [`JobPanic`] carrying the payload message, and every other job still
//!    completes and reports. A binary that reports each [`JobPanic`]
//!    itself calls [`install_job_panic_hook`] first, so the panic hook
//!    stays silent inside a job and the failure prints once, with the
//!    location the hook would have printed.
//!
//! Seed discipline is the callers' half of the determinism contract: jobs
//! must not share mutable state or draw from a common RNG. Derive one
//! stream per job with [`crate::rng::split_seed`] and the job becomes a
//! pure function of its inputs, which is what makes worker-count
//! invariance more than a scheduling accident.
//!
//! # Example
//!
//! ```
//! use multicube_sim::pool::Pool;
//!
//! let pool = Pool::new(4);
//! let results = pool.run((0..8).map(|i| move |_id| i * i).collect::<Vec<_>>());
//! let squares: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// Environment variable overriding the default worker count.
///
/// CI uses this to cross-check determinism: the same sweep is run with
/// `MULTICUBE_POOL_WORKERS=1` and with the hardware default, and the
/// outputs are diffed byte for byte.
pub const WORKERS_ENV: &str = "MULTICUBE_POOL_WORKERS";

/// A job's stable identity: its index in the submission order.
///
/// Results are collected by `JobId`, never by completion order, so the
/// output of [`Pool::run`] is independent of scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub usize);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// A contained panic from one job: the job's identity plus the panic
/// payload rendered as text (`&str` and `String` payloads verbatim,
/// anything else identified by its type), and where it panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Which job panicked.
    pub job: JobId,
    /// The panic payload, for the caller's error report.
    pub message: String,
    /// The panic's `file:line:column`, recorded by the hook of
    /// [`install_job_panic_hook`]; `None` without that hook.
    pub location: Option<String>,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} panicked", self.job)?;
        if let Some(location) = &self.location {
            write!(f, " at {location}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Renders a panic payload as text. `&str` and `String` payloads are
/// preserved verbatim; anything else is identified by type (and value,
/// where the type is a common `panic_any` primitive), so a `PointFailure`
/// replay report says *what* was thrown rather than a bare placeholder.
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let payload = match payload.downcast::<String>() {
        Ok(s) => return *s,
        Err(p) => p,
    };
    let payload = match payload.downcast::<&'static str>() {
        Ok(s) => return (*s).to_string(),
        Err(p) => p,
    };
    // `dyn Any` has erased the concrete type's name; recover a
    // `type_name`-style identification for the primitives `panic_any`
    // commonly throws, and fall back to the `TypeId` so distinct unknown
    // types at least stay distinguishable in reports.
    macro_rules! identify {
        ($($t:ty),* $(,)?) => {
            $(if let Some(v) = payload.downcast_ref::<$t>() {
                return format!(
                    "non-string panic payload of type {}: {:?}",
                    std::any::type_name::<$t>(),
                    v
                );
            })*
        };
    }
    identify!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize, f32, f64, bool, char);
    format!(
        "non-string panic payload of type id {:?}",
        (*payload).type_id()
    )
}

thread_local! {
    /// Whether this thread is running a pool job.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
    /// Where the job running on this thread panicked, as the hook of
    /// [`install_job_panic_hook`] recorded it.
    static PANIC_LOCATION: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Installs, once per process, a panic hook that is silent while a thread
/// runs a pool job and calls the hook it replaced everywhere else.
///
/// [`Pool::run`] contains a job's panic as a [`JobPanic`] for its caller
/// to report; the default hook would print the panic as well, so each
/// contained failure would print twice. Inside a job this hook only
/// records the panic's location, which [`Pool::run`] puts into the
/// [`JobPanic`]. A binary that reports its jobs' panics calls this first
/// in `main`; without it, jobs panic through whatever hook is installed.
pub fn install_job_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_JOB.try_with(Cell::get).unwrap_or(false) {
                let location = info.location().map(ToString::to_string);
                let _ = PANIC_LOCATION.try_with(|l| l.replace(location));
            } else {
                previous(info);
            }
        }));
    });
}

/// Runs `job` as a pool job on this thread: marked for the hook of
/// [`install_job_panic_hook`], its panic contained as a [`JobPanic`].
fn run_job<T>(id: usize, job: impl FnOnce(JobId) -> T) -> Result<T, JobPanic> {
    let outer = IN_JOB.replace(true);
    let result = catch_unwind(AssertUnwindSafe(|| job(JobId(id))));
    IN_JOB.set(outer);
    result.map_err(|payload| JobPanic {
        job: JobId(id),
        message: payload_message(payload),
        location: PANIC_LOCATION.take(),
    })
}

/// Parses a [`WORKERS_ENV`] override: `Ok(None)` when unset, the worker
/// count when set to a positive integer, and the offending text otherwise.
fn parse_workers(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    match raw.trim().parse::<usize>() {
        Ok(w) if w > 0 => Ok(Some(w)),
        _ => Err(raw.to_string()),
    }
}

/// The bounded deterministic worker pool. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool running at most `workers` jobs concurrently (clamped to at
    /// least 1).
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
        }
    }

    /// A single-worker pool: jobs run inline on the caller's thread, in
    /// `JobId` order. The timing-sensitive `perf` harness uses this so the
    /// pool contributes ordering and containment without concurrency.
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// The default pool: [`WORKERS_ENV`] if set, otherwise the machine's
    /// available parallelism.
    ///
    /// # Panics
    ///
    /// Panics when [`WORKERS_ENV`] is set but is not a positive integer.
    /// A typo like `O4` (or an explicit `0`) used to fall back *silently*
    /// to the hardware default — quietly voiding the CI determinism
    /// diff's pinned 1-worker leg — so a misconfigured override is loud.
    pub fn from_env() -> Self {
        Pool::from_override(std::env::var(WORKERS_ENV).ok().as_deref())
    }

    /// [`Pool::from_env`] with the override value passed explicitly
    /// (testable without touching process-global environment state).
    fn from_override(raw: Option<&str>) -> Self {
        match parse_workers(raw) {
            Ok(Some(w)) => Pool::new(w),
            Ok(None) => Pool::new(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
            Err(bad) => panic!("{WORKERS_ENV} must be a positive integer, got {bad:?}"),
        }
    }

    /// The concurrency bound.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job and returns the results **in submission order**:
    /// `results[i]` is job `i`'s return value, or the [`JobPanic`] that
    /// ended it. Each closure receives its own [`JobId`].
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<Result<T, JobPanic>>
    where
        T: Send,
        F: FnOnce(JobId) -> T + Send,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        if self.workers == 1 || n == 1 {
            // Inline fast path: no threads, identical results by
            // construction (the contract the threaded path is tested
            // against).
            return jobs
                .into_iter()
                .enumerate()
                .map(|(i, job)| run_job(i, job))
                .collect();
        }

        let queue: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<T, JobPanic>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    let job = queue[i].lock().unwrap().take().expect("job claimed once");
                    let result = run_job(i, job);
                    *slots[i].lock().unwrap() = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("every job ran"))
            .collect()
    }

    /// Maps `f` over `items` on the pool; `results[i]` corresponds to
    /// `items[i]`. A convenience over [`Pool::run`] for the common
    /// sweep-over-a-parameter-list shape.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<Result<T, JobPanic>>
    where
        I: Send,
        T: Send,
        F: Fn(JobId, I) -> T + Sync,
    {
        let f = &f;
        self.run(
            items
                .into_iter()
                .map(|item| move |id: JobId| f(id, item))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_follow_submission_order_at_every_worker_count() {
        // Jobs finish in scrambled wall-clock order (later jobs sleep
        // less); the result vector must not care.
        for workers in [1usize, 2, 3, 8, 64] {
            let pool = Pool::new(workers);
            let jobs: Vec<_> = (0..16u64)
                .map(|i| {
                    move |id: JobId| {
                        std::thread::sleep(std::time::Duration::from_micros((16 - i) * 50));
                        (id.0 as u64, i * 10)
                    }
                })
                .collect();
            let out: Vec<(u64, u64)> = pool.run(jobs).into_iter().map(|r| r.unwrap()).collect();
            let expect: Vec<(u64, u64)> = (0..16u64).map(|i| (i, i * 10)).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn a_panicking_job_is_contained() {
        for workers in [1usize, 4] {
            let pool = Pool::new(workers);
            let results = pool.map((0..6u32).collect(), |_, i| {
                if i == 3 {
                    panic!("poisoned job {i}");
                }
                i * 2
            });
            assert_eq!(results.len(), 6);
            for (i, r) in results.iter().enumerate() {
                if i == 3 {
                    let err = r.as_ref().unwrap_err();
                    assert_eq!(err.job, JobId(3));
                    assert!(err.message.contains("poisoned job 3"), "{}", err.message);
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u32 * 2);
                }
            }
        }
    }

    #[test]
    fn string_and_str_payloads_are_preserved() {
        let pool = Pool::serial();
        let results = pool.run(vec![
            |_id: JobId| -> u32 { panic!("static str") },
            |_id: JobId| -> u32 { panic!("formatted {}", 7) },
        ]);
        assert_eq!(results[0].as_ref().unwrap_err().message, "static str");
        assert_eq!(results[1].as_ref().unwrap_err().message, "formatted 7");
    }

    #[test]
    fn non_string_payloads_are_identified_by_type() {
        let pool = Pool::serial();
        let results = pool.run(vec![
            |_id: JobId| -> u32 { std::panic::panic_any(42u32) },
            |_id: JobId| -> u32 { std::panic::panic_any(true) },
        ]);
        let msg = &results[0].as_ref().unwrap_err().message;
        assert!(msg.contains("u32") && msg.contains("42"), "{msg}");
        let msg = &results[1].as_ref().unwrap_err().message;
        assert!(msg.contains("bool") && msg.contains("true"), "{msg}");

        // Unknown payload types still identify themselves by TypeId.
        #[derive(Debug)]
        struct Opaque;
        let results = pool.run(vec![|_id: JobId| -> u32 { std::panic::panic_any(Opaque) }]);
        let msg = &results[0].as_ref().unwrap_err().message;
        assert!(msg.contains("type id TypeId"), "{msg}");
    }

    #[test]
    fn worker_env_overrides_parse_strictly() {
        assert_eq!(parse_workers(None), Ok(None));
        assert_eq!(parse_workers(Some("4")), Ok(Some(4)));
        assert_eq!(parse_workers(Some(" 8 ")), Ok(Some(8)));
        assert_eq!(parse_workers(Some("O4")), Err("O4".to_string()));
        assert_eq!(parse_workers(Some("0")), Err("0".to_string()));
        assert_eq!(parse_workers(Some("-2")), Err("-2".to_string()));
        assert_eq!(parse_workers(Some("")), Err(String::new()));
    }

    #[test]
    fn a_garbled_worker_override_panics_with_the_offending_value() {
        let err = std::panic::catch_unwind(|| Pool::from_override(Some("O4"))).unwrap_err();
        let msg = payload_message(err);
        assert!(msg.contains("O4"), "{msg}");
        assert!(msg.contains(WORKERS_ENV), "{msg}");
        // An unset override still falls back to hardware parallelism.
        assert!(Pool::from_override(None).workers() >= 1);
        assert_eq!(Pool::from_override(Some("3")).workers(), 3);
    }

    #[test]
    fn empty_and_singleton_job_lists() {
        let pool = Pool::new(4);
        let none: Vec<Result<u32, JobPanic>> = pool.run(Vec::<fn(JobId) -> u32>::new());
        assert!(none.is_empty());
        let one = pool.run(vec![|id: JobId| id.0 + 41]);
        assert_eq!(*one[0].as_ref().unwrap(), 41);
    }

    #[test]
    fn worker_count_is_clamped_and_reported() {
        assert_eq!(Pool::new(0).workers(), 1);
        assert_eq!(Pool::new(7).workers(), 7);
        assert_eq!(Pool::serial().workers(), 1);
        assert!(Pool::from_env().workers() >= 1);
    }

    #[test]
    fn map_preserves_item_order() {
        let pool = Pool::new(3);
        let out: Vec<String> = pool
            .map(vec!["a", "bb", "ccc"], |id, s| format!("{id}:{s}"))
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(out, vec!["job0:a", "job1:bb", "job2:ccc"]);
    }
}
