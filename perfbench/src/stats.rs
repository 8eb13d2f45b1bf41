//! Exact order statistics over raw samples.
//!
//! Percentiles are computed from every recorded sample (nearest rank), never
//! from bucketed histograms, and carry the sample count and the number of
//! samples beyond them so a reader can judge how well the data supports
//! them.

/// One reported percentile of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The `q`-quantile (`0 < q ≤ 1`) by nearest rank; `None` on no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(Quantile {
        value: sorted[rank - 1],
        n: sorted.len(),
        beyond: sorted.len() - rank,
    })
}

/// The median (average of the middle pair on an even count); 0 on no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The values of `(time, value)` samples grouped into consecutive windows of
/// `width` time units. Samples past the last whole window are dropped, unless
/// there is no whole window.
pub fn windows(samples: &[(f64, f64)], width: f64) -> Vec<Vec<f64>> {
    let end = samples.iter().map(|s| s.0).fold(0.0, f64::max);
    let count = ((end / width).floor() as usize).max(1);
    let mut out = vec![Vec::new(); count];
    for &(t, v) in samples {
        if let Some(window) = out.get_mut((t / width) as usize) {
            window.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = quantile(&samples, 0.99).unwrap();
        assert_eq!((p99.value, p99.n, p99.beyond), (99.0, 100, 1));
        assert_eq!(quantile(&samples, 0.5).unwrap().value, 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!(quantile(&[], 0.5).is_none());
    }

    #[test]
    fn windows_drop_the_partial_tail() {
        let samples = [(0.1, 1.0), (0.9, 2.0), (1.5, 3.0), (2.2, 4.0)];
        assert_eq!(windows(&samples, 1.0), vec![vec![1.0, 2.0], vec![3.0]]);
        assert_eq!(windows(&samples[..1], 1.0), vec![vec![1.0]]);
    }
}
