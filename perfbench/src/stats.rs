//! Order statistics for the reported figures.

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice: every figure is measured at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail figure: the percentile it was taken at and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile as a fraction; 1.0 means the maximum.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
}

/// The highest nearest-rank percentile, at most `cap`, that leaves at
/// least ten samples beyond it. A percentile below the median says
/// nothing about the tail, so when fewer than twenty samples exist the
/// maximum is reported instead (`percentile == 1.0`).
pub fn tail(xs: &[f64], cap: f64) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // The highest rank whose percentile does not exceed `cap`.
    let cap_rank = ((cap * n as f64 + 1e-9).floor() as usize).clamp(1, n);
    match n.checked_sub(10) {
        Some(supported) if supported.min(cap_rank) * 2 >= n => {
            let rank = supported.min(cap_rank);
            Tail {
                percentile: rank as f64 / n as f64,
                value: v[rank - 1],
            }
        }
        _ => Tail {
            percentile: 1.0,
            value: v[n - 1],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: rank 990 leaves exactly ten beyond it.
        let t = tail(&ramp(1000), 0.99);
        assert_eq!((t.percentile, t.value), (0.99, 990.0));
        // 999 samples: p99 would leave 9, so the rule steps down a rank.
        let t = tail(&ramp(999), 0.99);
        assert_eq!(t.value, 989.0);
        assert!(t.percentile < 0.99);
    }

    #[test]
    fn tail_always_leaves_ten_samples_beyond() {
        for n in 20..3000 {
            let xs = ramp(n);
            let t = tail(&xs, 0.99);
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert!(beyond >= 10, "n={n}: only {beyond} beyond");
            assert!(t.percentile <= 0.99 + 1e-12, "n={n}");
            // And it is the highest such rank: one rank up leaves < 10
            // or passes the cap.
            let next_beyond = beyond - 1;
            assert!(
                next_beyond < 10 || t.percentile + 1.0 / n as f64 > 0.99,
                "n={n}"
            );
        }
    }

    #[test]
    fn too_few_samples_report_the_maximum() {
        for n in 1..20 {
            let t = tail(&ramp(n), 0.99);
            assert_eq!((t.percentile, t.value), (1.0, n as f64), "n={n}");
        }
        // Twenty samples support the median-rank tail (ten beyond rank 10).
        assert_eq!(tail(&ramp(20), 0.99).value, 10.0);
    }
}
