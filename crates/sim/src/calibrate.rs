//! Host-speed calibration.
//!
//! Shared virtual hosts change speed by up to ~1.8x over a minute or so,
//! so the same deterministic work takes different wall-clock times from
//! one run to the next. A fixed arithmetic kernel run just before and just
//! after a timed unit measures the host's current speed, and the unit's
//! time scaled by it is the time the unit would take on a reference host.
//! The kernel touches no memory, so nothing the simulator does, nor the
//! cache state it leaves behind, can change what the kernel measures.
//!
//! ```
//! use multicube_sim::calibrate;
//!
//! let iterations = calibrate::ITERATIONS / 1_000;
//! let before = calibrate::seconds(iterations, 1);
//! // ... time a unit of work here ...
//! let after = calibrate::seconds(iterations, 1);
//! assert!(calibrate::speed(iterations, before, after) > 0.0);
//! ```

use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations at full size.
pub const ITERATIONS: u64 = 50_000_000;

/// Seconds the kernel takes at [`ITERATIONS`] on the reference host (a
/// 2-vCPU Intel Xeon VM at 2.0 GHz, in its fast phase).
pub const REFERENCE_S: f64 = 0.15;

/// The calibration kernel: a xorshift stream folded into an accumulator,
/// with a data-dependent branch, so it neither vectorises nor folds away.
pub fn kernel(iterations: u64) -> u64 {
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for i in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(i | 1)).rotate_left(7);
        if x & 7 == 3 {
            acc ^= i;
        }
    }
    acc
}

/// Wall seconds for `threads` copies of the kernel running at once, so a
/// workload on several threads is calibrated on all of its CPUs. One
/// copy runs on the calling thread.
pub fn seconds(iterations: u64, threads: usize) -> f64 {
    let start = Instant::now();
    if threads <= 1 {
        black_box(kernel(black_box(iterations)));
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| black_box(kernel(black_box(iterations))));
            }
        });
    }
    start.elapsed().as_secs_f64()
}

/// The host's speed relative to the reference host while a unit of work
/// ran between two calibrations of `iterations` each: below 1 on a slow
/// host. A measured time times this factor is reference-host time.
pub fn speed(iterations: u64, before_s: f64, after_s: f64) -> f64 {
    let reference = REFERENCE_S * iterations as f64 / ITERATIONS as f64;
    2.0 * reference / (before_s + after_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_reference_over_the_bracketing_mean() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(speed(ITERATIONS, REFERENCE_S, REFERENCE_S), 1.0));
        assert!(close(speed(ITERATIONS, 0.2, 0.4), 0.5));
        // A shorter kernel is compared with a proportionally shorter
        // reference.
        assert!(close(speed(ITERATIONS / 10, 0.015, 0.015), 1.0));
    }

    #[test]
    fn the_kernel_does_work_in_proportion_to_its_length() {
        assert_ne!(kernel(1_000), kernel(2_000));
        assert!(seconds(10_000, 1) > 0.0);
        assert!(seconds(10_000, 2) > 0.0);
    }
}
