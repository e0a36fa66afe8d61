//! Order statistics shared by the workloads and `compare`.

/// Sorts a copy of `v` (NaN-safe total order).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Percentile `q` in `[0, 1]` of already sorted samples, interpolating
/// linearly between the two nearest ranks. Empty input gives NaN.
pub fn percentile_sorted(s: &[f64], q: f64) -> f64 {
    match s.len() {
        0 => f64::NAN,
        1 => s[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        }
    }
}

/// Percentile `q` of unsorted samples.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted(v), q)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Where among a run's parts the reported value of a per-part statistic
/// sits, counted from the fast end: the tenth percentile of times, the
/// ninetieth of rates.
const BEST_SHARE: f64 = 0.1;

/// The value of a per-part statistic (one value per part of a run) at
/// [`BEST_SHARE`] from the fast end. Another tenant of a shared host only
/// ever adds time to a part, so the fastest parts track the program and
/// the slowest track the host.
pub fn best_parts(v: &[f64], higher_is_better: bool) -> f64 {
    percentile(
        v,
        if higher_is_better {
            1.0 - BEST_SHARE
        } else {
            BEST_SHARE
        },
    )
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default "exclusive" method), which is how the
/// benchmark's spread is judged. Needs at least two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (the benchmark's spread).
pub fn spread(v: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(v)?;
    Some((q3 - q1) / median(v).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn best_parts_takes_the_fast_end() {
        // Eleven parts: the tenth percentile is the second value in order.
        let v: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(best_parts(&v, false), 1.0);
        assert_eq!(best_parts(&v, true), 9.0);
        assert_eq!(best_parts(&[5.0], false), 5.0);
    }
}
