//! Host-speed calibration.
//!
//! The benchmark host is a shared 2-vCPU virtual machine whose speed
//! drifts by up to ~1.8x over a minute or so while the guest sees no
//! steal time; consecutive runs of identical, deterministic work differ
//! by that much. A fixed arithmetic kernel run just before and just
//! after each timed unit measures the host's current speed, and every
//! time is scaled by it to seconds of a reference host. The kernel is
//! the benchmark's own code and touches no memory, so no change to the
//! library crates — nor the cache state they leave behind — can change
//! what it measures.

use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations at full size.
pub const ITERATIONS: u64 = 50_000_000;

/// Seconds the kernel takes at [`ITERATIONS`] on the reference host (a
/// 2-vCPU Intel Xeon VM at 2.0 GHz, in its fast phase).
pub const REFERENCE_S: f64 = 0.15;

fn kernel(iterations: u64) -> u64 {
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
/// 2-thread workload is calibrated on both of its CPUs.
pub fn seconds(iterations: u64, threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| black_box(kernel(black_box(iterations))));
        }
    });
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
        assert!(seconds(10_000, 2) > 0.0);
    }
}
