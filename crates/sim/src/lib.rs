//! Discrete-event simulation kernel for the Wisconsin Multicube reproduction.
//!
//! This crate provides the substrate every simulator in the workspace is built
//! on: a monotonic simulated clock ([`SimTime`]), a stable priority event
//! queue ([`EventQueue`]), statistics accumulators ([`stats`]), a
//! deterministic random-number source ([`rng`]) with seed splitting for
//! sweep matrices ([`split_seed`]), and a bounded worker pool with
//! deterministic job ordering and panic containment ([`pool`]) that every
//! sweep harness, and the k = 3 cube's planes, fan out through. A fixed
//! arithmetic kernel ([`calibrate`]) measures the host's speed, so timings
//! taken at different speeds compare.
//!
//! The kernel is deliberately *typed*: the machine model owns an event enum
//! and dispatches it itself, instead of the kernel invoking boxed callbacks.
//! This keeps the hot path free of allocation and dynamic dispatch and makes
//! simulations reproducible and easy to snapshot.
//!
//! # Example
//!
//! ```
//! use multicube_sim::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule_after(10, Ev::Pong);
//! q.schedule_after(5, Ev::Ping);
//!
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_nanos(5), Ev::Ping));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_nanos(10), Ev::Pong));
//! assert!(q.pop().is_none());
//! ```

pub mod calibrate;
pub mod digest;
pub mod hash;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod wheel;

pub use digest::md5_hex;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use pool::{JobId, JobPanic, Pool};
pub use queue::{EventQueue, HeapQueue, QueueImpl};
pub use rng::{split_seed, stream_id, DeterministicRng};
pub use time::{SimDuration, SimTime};
pub use wheel::TimingWheel;
