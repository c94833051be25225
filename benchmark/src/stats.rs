//! Order statistics over run samples and the failure ratio.

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) and `statistics.median` compute them, so the
/// spreads this crate reports match the ones an outside check computes.
/// NaN for an empty slice; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    match len {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let median = if len % 2 == 1 {
        v[len / 2]
    } else {
        (v[len / 2 - 1] + v[len / 2]) / 2.0
    };
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), median, q(3))
}

/// Failed transactions over transactions attempted; 0 when nothing was
/// attempted, so an empty run never reads as a perfect or a broken one
/// by division artefact.
pub fn fail_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from Python 3: `statistics.quantiles(v, n=4)`
    /// and `statistics.median(v)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        assert_eq!(quartiles(&ten), (1.75, 3.5, 5.25));
        let five = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quartiles(&five), (15.0, 30.0, 45.0));
        assert_eq!(quartiles(&[2.0, 4.0]), (1.5, 3.0, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fail_frac_counts_failures_against_attempts() {
        assert_eq!(fail_frac(0, 0), 0.0);
        assert_eq!(fail_frac(0, 1_000), 0.0);
        assert_eq!(fail_frac(25, 100), 0.25);
        assert_eq!(fail_frac(7, 7), 1.0);
    }
}
