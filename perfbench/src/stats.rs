//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p ∈ (0, 100]` of an ascending slice.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    (sorted[idx], n - 1 - idx)
}

/// A tail latency: the highest of the candidate percentiles that still
/// has at least [`TAIL_MIN_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile chosen.
    pub pct: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Decades rather than finer steps, so a run whose sample count drifts a
/// little does not flip between percentiles.
const TAIL_CANDIDATES: [f64; 3] = [99.0, 90.0, 50.0];

/// The tail of `xs`; falls back to the median (p50) when fewer than
/// `2 × TAIL_MIN_BEYOND` samples exist. `None` for an empty slice.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    for pct in TAIL_CANDIDATES {
        let (value, beyond) = nearest_rank(&v, pct);
        if beyond >= TAIL_MIN_BEYOND {
            return Some(Tail {
                value,
                pct,
                samples: v.len(),
            });
        }
    }
    Some(Tail {
        value: median(&v),
        pct: 50.0,
        samples: v.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        // p90 = 90 leaves exactly ten samples above it; p99 leaves one
        assert_eq!((t.pct, t.value, t.samples), (90.0, 90.0, 100));
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few).unwrap().pct, 50.0);
        assert!(tail(&[]).is_none());
    }
}
