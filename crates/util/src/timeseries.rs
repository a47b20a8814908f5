//! Per-interval aggregation of timestamped samples.
//!
//! The statistics collector bins completed requests into fixed-width windows
//! (one second by default) to produce the throughput and latency series that
//! the monitoring view and the game's status updates consume.

use crate::clock::{Micros, MICROS_PER_SEC};

/// One aggregated window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Window start, in µs since epoch.
    pub start: Micros,
    /// Number of samples in the window.
    pub count: u64,
    /// Sum of sample values (e.g. latencies, µs).
    pub sum: u128,
    pub min: u64,
    pub max: u64,
}

impl Window {
    fn empty(start: Micros) -> Window {
        Window { start, count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A series of fixed-width windows, extended on demand.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    width: Micros,
    origin: Micros,
    windows: Vec<Window>,
}

impl TimeSeries {
    pub fn new(width: Micros) -> TimeSeries {
        assert!(width > 0);
        TimeSeries { width, origin: 0, windows: Vec::new() }
    }

    /// Per-second series (the default used for throughput plots).
    pub fn per_second() -> TimeSeries {
        TimeSeries::new(MICROS_PER_SEC)
    }

    pub fn width(&self) -> Micros {
        self.width
    }

    /// The window covering `t`, extending the series up to it.
    fn window_at(&mut self, t: Micros) -> &mut Window {
        let idx = ((t.saturating_sub(self.origin)) / self.width) as usize;
        if idx >= self.windows.len() {
            let mut start = self.origin + self.windows.len() as u64 * self.width;
            while self.windows.len() <= idx {
                self.windows.push(Window::empty(start));
                start += self.width;
            }
        }
        &mut self.windows[idx]
    }

    /// Record a sample with value `value` at time `t`.
    pub fn record(&mut self, t: Micros, value: u64) {
        let w = self.window_at(t);
        w.count += 1;
        w.sum += value as u128;
        w.min = w.min.min(value);
        w.max = w.max.max(value);
    }

    /// Count-only sample (throughput accounting).
    pub fn tick(&mut self, t: Micros) {
        self.tick_n(t, 1);
    }

    /// `n` count-only samples at time `t`: the same series as `n` calls
    /// to [`TimeSeries::tick`], in one step.
    pub fn tick_n(&mut self, t: Micros, n: u64) {
        if n == 0 {
            return;
        }
        let w = self.window_at(t);
        w.count += n;
        w.min = 0;
    }

    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    pub fn len(&self) -> usize {
        self.windows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.windows.iter().map(|w| w.count).sum()
    }

    /// Rate (samples per second) for each window.
    pub fn rates(&self) -> Vec<f64> {
        let per_window_to_per_sec = MICROS_PER_SEC as f64 / self.width as f64;
        self.windows.iter().map(|w| w.count as f64 * per_window_to_per_sec).collect()
    }

    /// Mean value per window (0.0 where empty).
    pub fn means(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.mean()).collect()
    }

    /// Merge another series into this one. Same width and origin (the
    /// sharded-stats path) merges window-for-window, losslessly. A
    /// mismatched layout — a cluster peer binning at a different width or
    /// origin — re-bins each of the other's non-empty windows into the slot
    /// covering its start time, so aggregate count/sum/min/max are exact
    /// and only sub-window timing is coarsened; nothing panics.
    pub fn merge(&mut self, other: &TimeSeries) {
        if self.width == other.width && self.origin == other.origin {
            if other.windows.len() > self.windows.len() {
                let mut start = self.origin + self.windows.len() as u64 * self.width;
                while self.windows.len() < other.windows.len() {
                    self.windows.push(Window::empty(start));
                    start += self.width;
                }
            }
            for (w, o) in self.windows.iter_mut().zip(&other.windows) {
                w.count += o.count;
                w.sum += o.sum;
                w.min = w.min.min(o.min);
                w.max = w.max.max(o.max);
            }
            return;
        }
        for o in &other.windows {
            if o.count == 0 {
                continue;
            }
            let w = self.window_at(o.start);
            w.count += o.count;
            w.sum += o.sum;
            w.min = w.min.min(o.min);
            w.max = w.max.max(o.max);
        }
    }

    /// Sum of counts in the last `n` complete windows before `now`.
    pub fn recent_rate(&self, now: Micros, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let current = ((now.saturating_sub(self.origin)) / self.width) as usize;
        let end = current.min(self.windows.len());
        let start = end.saturating_sub(n);
        let count: u64 = self.windows[start..end].iter().map(|w| w.count).sum();
        let span = (end - start).max(1) as f64 * self.width as f64 / MICROS_PER_SEC as f64;
        count as f64 / span
    }
}

/// Summary statistics over a slice of f64 values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary { n: 0, mean: 0.0, std_dev: 0.0, min: 0.0, max: 0.0 };
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Summary { n, mean, std_dev: var.sqrt(), min, max }
    }

    /// Coefficient of variation (jitter measure used by the tunnel test).
    pub fn cv(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

/// Mean absolute error between two equal-length series, used to quantify
/// how closely the delivered throughput tracks the requested schedule.
pub fn mean_abs_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_per_second() {
        let mut ts = TimeSeries::per_second();
        for i in 0..2_000u64 {
            ts.tick(i * 1_000); // 1 event per ms for 2 seconds
        }
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.windows()[0].count, 1_000);
        assert_eq!(ts.windows()[1].count, 1_000);
        assert_eq!(ts.rates(), vec![1_000.0, 1_000.0]);
    }

    #[test]
    fn gaps_are_zero_windows() {
        let mut ts = TimeSeries::per_second();
        ts.tick(100);
        ts.tick(3 * MICROS_PER_SEC + 5);
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.windows()[1].count, 0);
        assert_eq!(ts.windows()[2].count, 0);
        assert_eq!(ts.total(), 2);
    }

    #[test]
    fn tick_n_equals_n_ticks() {
        let mut one_by_one = TimeSeries::per_second();
        let mut batched = TimeSeries::per_second();
        batched.tick_n(MICROS_PER_SEC, 0); // a zero count extends nothing
        assert!(batched.is_empty());
        for (t, n) in [(0, 3u64), (10, 5), (2 * MICROS_PER_SEC + 7, 4)] {
            for _ in 0..n {
                one_by_one.tick(t);
            }
            batched.tick_n(t, n);
        }
        assert_eq!(batched.windows(), one_by_one.windows());
        assert_eq!(batched.total(), 12);
    }

    #[test]
    fn window_stats() {
        let mut ts = TimeSeries::per_second();
        ts.record(10, 100);
        ts.record(20, 300);
        let w = ts.windows()[0];
        assert_eq!(w.count, 2);
        assert_eq!(w.mean(), 200.0);
        assert_eq!(w.min, 100);
        assert_eq!(w.max, 300);
    }

    #[test]
    fn recent_rate_window() {
        let mut ts = TimeSeries::per_second();
        // 100/s in seconds 0..5
        for s in 0..5u64 {
            for i in 0..100u64 {
                ts.tick(s * MICROS_PER_SEC + i * 10_000);
            }
        }
        let now = 5 * MICROS_PER_SEC;
        assert!((ts.recent_rate(now, 3) - 100.0).abs() < 1e-9);
        // Partial current window excluded.
        ts.tick(now + 1);
        assert!((ts.recent_rate(now + 2, 3) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_windows() {
        let mut a = TimeSeries::per_second();
        a.record(10, 100);
        a.record(MICROS_PER_SEC + 10, 200);
        let mut b = TimeSeries::per_second();
        b.record(20, 300);
        b.record(2 * MICROS_PER_SEC + 20, 400);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.windows()[0].count, 2);
        assert_eq!(a.windows()[0].min, 100);
        assert_eq!(a.windows()[0].max, 300);
        assert_eq!(a.windows()[1].count, 1);
        assert_eq!(a.windows()[2].count, 1);
        assert_eq!(a.total(), 4);
        // Merging an empty series is a no-op.
        let before = a.windows().to_vec();
        a.merge(&TimeSeries::per_second());
        assert_eq!(a.windows(), &before[..]);
    }

    #[test]
    fn merge_empty_operands() {
        // Empty into empty stays empty.
        let mut a = TimeSeries::per_second();
        a.merge(&TimeSeries::per_second());
        assert!(a.is_empty());
        assert_eq!(a.total(), 0);
        // Populated into empty adopts the windows verbatim.
        let mut b = TimeSeries::per_second();
        b.record(10, 100);
        b.record(2 * MICROS_PER_SEC, 300);
        let mut empty = TimeSeries::per_second();
        empty.merge(&b);
        assert_eq!(empty.windows(), b.windows());
        // Empty-but-mismatched-width into populated is a no-op.
        let before = b.windows().to_vec();
        b.merge(&TimeSeries::new(250_000));
        assert_eq!(b.windows(), &before[..]);
    }

    #[test]
    fn merge_mismatched_width_rebins() {
        // A peer binning at 250ms folded into a per-second series: each
        // fine window lands in the second covering its start; totals,
        // sums and extrema are preserved exactly.
        let mut coarse = TimeSeries::per_second();
        coarse.record(100, 500);
        let mut fine = TimeSeries::new(250_000);
        fine.record(300_000, 10); // second 0
        fine.record(750_000, 90); // second 0
        fine.record(MICROS_PER_SEC + 10, 40); // second 1
        coarse.merge(&fine);
        assert_eq!(coarse.len(), 2);
        assert_eq!(coarse.windows()[0].count, 3);
        assert_eq!(coarse.windows()[0].min, 10);
        assert_eq!(coarse.windows()[0].max, 500);
        assert_eq!(coarse.windows()[0].sum, 600);
        assert_eq!(coarse.windows()[1].count, 1);
        assert_eq!(coarse.total(), 4);
    }

    #[test]
    fn merge_mismatched_origin_rebins() {
        let mut a = TimeSeries::per_second();
        a.record(10, 1);
        // Same width, shifted origin: re-binned by window start time.
        let mut b = TimeSeries { width: MICROS_PER_SEC, origin: 500_000, windows: Vec::new() };
        b.record(500_000, 7); // b's window 0 starts at 0.5s -> a's second 0
        b.record(1_600_000, 9); // b's window 1 starts at 1.5s -> a's second 1
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.windows()[0].count, 2);
        assert_eq!(a.windows()[1].count, 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn summary_stats() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean, 5.0);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.cv() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn mae() {
        assert_eq!(mean_abs_error(&[1.0, 2.0], &[2.0, 0.0]), 1.5);
        assert_eq!(mean_abs_error(&[], &[]), 0.0);
    }
}
