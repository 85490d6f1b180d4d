//! Order statistics over repeated measurements of one deterministic
//! computation.

/// Median, quartiles and range of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Quartiles by the method of Python's `statistics.quantiles(xs, n=4)`
/// (exclusive), so the numbers printed here can be checked against the
/// acceptance procedure's own arithmetic. A single sample is its own
/// quartiles.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let quartile = |i: usize| {
        if n == 1 {
            return xs[0];
        }
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    };
    Summary {
        n,
        min: xs[0],
        q1: quartile(1),
        median: quartile(2),
        q3: quartile(3),
        max: xs[n - 1],
        mean: xs.iter().sum::<f64>() / n as f64,
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) — used for the slice timings,
/// where a value that actually occurred is wanted.
pub fn percentile(samples: &[f64], p: usize) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let rank = (p * xs.len()).div_ceil(100).clamp(1, xs.len());
    xs[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max, s.mean), (10, 1.0, 10.0, 5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = summarize(&[4.2]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.2, 4.2, 4.2, 1));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 50), 3.0);
        assert_eq!(percentile(&xs, 100), 5.0);
        assert_eq!(percentile(&xs, 0), 1.0);
    }
}
