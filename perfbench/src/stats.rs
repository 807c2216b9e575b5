//! Nearest-rank percentiles: a reported percentile is always a sample that
//! actually occurred.

use std::time::Duration;

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `sorted`.
///
/// # Panics
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (nearest rank).
///
/// # Panics
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Samples beyond the nearest-rank `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// Completed operations per one-second window of a timed phase.
#[derive(Debug, Default, Clone)]
pub struct Windows(Vec<u64>);

impl Windows {
    /// Counts one operation completed `since_start` into the phase.
    pub fn count(&mut self, since_start: Duration) {
        let index = since_start.as_secs() as usize;
        if self.0.len() <= index {
            self.0.resize(index + 1, 0);
        }
        self.0[index] += 1;
    }

    /// Adds another thread's counts, window by window.
    pub fn merge(&mut self, other: &Windows) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            *mine += theirs;
        }
    }

    /// Operations per second of each window a `wall`-long phase filled
    /// completely.
    pub fn rates(&self, wall: Duration) -> Vec<f64> {
        let full = (wall.as_secs() as usize).min(self.0.len());
        self.0[..full].iter().map(|&n| n as f64).collect()
    }
}

/// The rate a run's segments sustain three times out of four (their lower
/// quartile), or `None` without segments. On a shared machine a slow or
/// fast stretch moves a few segments, and this quartile far less than the
/// whole-phase mean.
pub fn sustained(rates: &[f64]) -> Option<f64> {
    let mut sorted = rates.to_vec();
    sorted.sort_by(f64::total_cmp);
    (!sorted.is_empty()).then(|| percentile(&sorted, 25.0))
}

/// Latency samples of one operation class, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Records one latency.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True with no samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank percentile, or `None` without samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        Some(percentile(&sorted, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn window_rates_ignore_the_partial_tail() {
        let mut w = Windows::default();
        for ms in [100, 200, 1100, 1200, 1300, 2100, 2200, 2300, 2400, 3050] {
            w.count(Duration::from_millis(ms));
        }
        let mut other = Windows::default();
        other.count(Duration::from_millis(500));
        w.merge(&other);
        // windows 0..3 are full: 3, 3, 4 ops; the fourth is partial
        assert_eq!(w.rates(Duration::from_millis(3500)), [3.0, 3.0, 4.0]);
        assert!(w.rates(Duration::from_millis(900)).is_empty());
        assert_eq!(sustained(&[4.0, 1.0, 3.0, 2.0]), Some(1.0));
        assert_eq!(sustained(&[]), None);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(20, 50.0), 10);
    }
}
