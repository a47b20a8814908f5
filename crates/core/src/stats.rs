//! Statistics collection: per-type latency histograms, per-second
//! throughput series, queue delay, and the instantaneous feedback the
//! control API exposes (§2.2.4).
//!
//! The completion path is the hottest client-side code in the testbed —
//! every finished transaction calls [`StatsCollector::record`] — so the
//! collector is sharded: each worker thread records into its own
//! cache-line-padded shard guarded by a lock no other recorder touches.
//! Readers (the controller feedback loop, the monitor, the control API)
//! merge the shards on demand; reads are orders of magnitude rarer than
//! writes, so the merge cost sits on the cold path where it belongs.

use bp_util::clock::{Micros, SharedClock, MICROS_PER_SEC};
use bp_util::histogram::{Histogram, WindowedHistogram};
use bp_util::sync::{thread_slot, CachePadded, Mutex};
use bp_util::timeseries::TimeSeries;

/// Seconds of per-second latency history each shard keeps for sliding
/// windows. Two minutes comfortably covers any control-loop window while
/// bounding memory per shard.
const WINDOW_RING_S: usize = 120;

/// How a dispatched request ended: bp-obs's span outcome, so stats, traces
/// and spans share one enum and the completion path needs no mapping.
pub use bp_obs::SpanOutcome as RequestOutcome;

#[derive(Debug, Clone)]
struct PerType {
    latency: Histogram,
    completions: TimeSeries,
    committed: u64,
    user_aborted: u64,
    failed: u64,
    retries: u64,
    shed: u64,
}

impl PerType {
    fn new() -> PerType {
        PerType {
            latency: Histogram::latency(),
            completions: TimeSeries::per_second(),
            committed: 0,
            user_aborted: 0,
            failed: 0,
            retries: 0,
            shed: 0,
        }
    }

    fn merge(&mut self, other: &PerType) {
        self.latency.merge(&other.latency);
        self.completions.merge(&other.completions);
        self.committed += other.committed;
        self.user_aborted += other.user_aborted;
        self.failed += other.failed;
        self.retries += other.retries;
        self.shed += other.shed;
    }
}

/// One worker's private slice of the statistics.
#[derive(Debug)]
struct Shard {
    per_type: Vec<PerType>,
    /// All completions regardless of type.
    all_completions: TimeSeries,
    all_latency: Histogram,
    queue_delay: Histogram,
    requested: TimeSeries,
    /// Per-second latency ring for sliding-window percentiles. Recorded
    /// under the same shard lock as everything else: no new locking on
    /// the hot path.
    windowed: WindowedHistogram,
}

impl Shard {
    fn new(num_types: usize) -> Shard {
        Shard {
            per_type: (0..num_types).map(|_| PerType::new()).collect(),
            all_completions: TimeSeries::per_second(),
            all_latency: Histogram::latency(),
            queue_delay: Histogram::latency(),
            requested: TimeSeries::per_second(),
            windowed: WindowedHistogram::new(WINDOW_RING_S),
        }
    }

    /// Cumulative merge. The windowed ring is deliberately excluded:
    /// window views are folded across shards by
    /// [`StatsCollector::window_histogram`], which merges each shard's
    /// ring slice for one specific window instead of the whole ring.
    fn merge(&mut self, other: &Shard) {
        for (pt, o) in self.per_type.iter_mut().zip(&other.per_type) {
            pt.merge(o);
        }
        self.all_completions.merge(&other.all_completions);
        self.all_latency.merge(&other.all_latency);
        self.queue_delay.merge(&other.queue_delay);
        self.requested.merge(&other.requested);
    }
}

/// Default shard count; power of two so the thread-slot modulo is cheap.
/// With typical worker counts (≤ a few dozen) collisions are rare, and a
/// collision only means two workers share one (still uncontended-by-others)
/// lock — never a correctness issue.
const DEFAULT_SHARDS: usize = 16;

/// Thread-safe statistics collector shared by all workers of one workload.
///
/// Writes go to a per-thread shard; no lock in [`StatsCollector::record`]
/// is shared across recording workers (up to shard-count collisions).
/// Readers merge all shards on demand.
pub struct StatsCollector {
    shards: Vec<CachePadded<Mutex<Shard>>>,
    type_names: Vec<String>,
    clock: SharedClock,
    start: Micros,
    /// Span recorder attached by the executor so client latency histograms
    /// can carry trace-id exemplars on scrape (cold path only).
    span_source: Mutex<Option<std::sync::Arc<bp_obs::SpanRecorder>>>,
}

/// One completed-request sample.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub txn_type: usize,
    /// When the request was scheduled to arrive.
    pub arrival: Micros,
    /// When a worker started executing it.
    pub start: Micros,
    /// When it finished.
    pub end: Micros,
    pub outcome: RequestOutcome,
    pub retries: u32,
}

/// A point-in-time view used by the control API and the game.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusSnapshot {
    /// Throughput over the last few complete seconds (tx/s).
    pub throughput: f64,
    /// Mean latency (µs) per transaction type over the whole run.
    pub latency_by_type: Vec<(String, f64)>,
    /// p95 latency across all types (µs).
    pub p95_latency_us: u64,
    pub committed: u64,
    pub user_aborted: u64,
    pub failed: u64,
    pub retries: u64,
    /// Requests shed by the admission controller (excluded from
    /// throughput and latency).
    pub shed: u64,
    /// Seconds since the collector started.
    pub elapsed_s: f64,
}

impl StatsCollector {
    pub fn new(clock: SharedClock, type_names: &[&str]) -> StatsCollector {
        StatsCollector::with_shards(clock, type_names, DEFAULT_SHARDS)
    }

    /// Collector with an explicit shard count (1 = the old single-lock
    /// layout; used by the shard-equivalence regression tests).
    pub fn with_shards(
        clock: SharedClock,
        type_names: &[&str],
        shards: usize,
    ) -> StatsCollector {
        let shards = shards.max(1);
        let num_types = type_names.len();
        StatsCollector {
            shards: (0..shards)
                .map(|_| CachePadded::new(Mutex::new(Shard::new(num_types))))
                .collect(),
            type_names: type_names.iter().map(|n| (*n).to_string()).collect(),
            start: clock.now(),
            clock,
            span_source: Mutex::new(None),
        }
    }

    /// Attach the run's span recorder; scrapes then decorate
    /// `bp_client_latency_us` buckets with recent trace-id exemplars.
    pub fn set_span_source(&self, spans: std::sync::Arc<bp_obs::SpanRecorder>) {
        *self.span_source.lock() = Some(spans);
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The calling thread's shard. Thread slots are handed out once per
    /// thread process-wide, so a worker always lands on the same shard of a
    /// given collector.
    #[inline]
    fn my_shard(&self) -> &Mutex<Shard> {
        &self.shards[thread_slot() % self.shards.len()]
    }

    /// Fold every shard into one merged view (cold path).
    fn merged(&self) -> Shard {
        let mut acc = Shard::new(self.type_names.len());
        for shard in &self.shards {
            acc.merge(&shard.lock());
        }
        acc
    }

    /// Record a completed request. Touches only the calling worker's shard.
    pub fn record(&self, s: Sample) {
        let latency = s.end.saturating_sub(s.start);
        let delay = s.start.saturating_sub(s.arrival);
        let mut shard = self.my_shard().lock();
        if s.outcome == RequestOutcome::Shed {
            // Shed requests never executed: they contribute to no latency
            // histogram and no completion (throughput) series — only their
            // own counter. Graceful degradation must not be reported as
            // either work done or work failed.
            if let Some(pt) = shard.per_type.get_mut(s.txn_type) {
                pt.shed += 1;
            }
            return;
        }
        shard.all_latency.record(latency);
        shard.windowed.record(s.end, latency);
        shard.queue_delay.record(delay);
        shard.all_completions.record(s.end, latency);
        if let Some(pt) = shard.per_type.get_mut(s.txn_type) {
            pt.latency.record(latency);
            pt.completions.record(s.end, latency);
            pt.retries += s.retries as u64;
            match s.outcome {
                RequestOutcome::Committed => pt.committed += 1,
                RequestOutcome::UserAborted => pt.user_aborted += 1,
                RequestOutcome::Failed => pt.failed += 1,
                RequestOutcome::Shed => unreachable!("shed handled above"),
            }
        }
    }

    /// Record that `n` requests were generated at time `t` (target side).
    pub fn record_requested(&self, t: Micros, n: usize) {
        self.my_shard().lock().requested.tick_n(t, n as u64);
    }

    /// Instantaneous status (sliding window of `window_s` complete seconds).
    pub fn status(&self, window_s: usize) -> StatusSnapshot {
        let merged = self.merged();
        let now = self.clock.now();
        let throughput = merged.all_completions.recent_rate(now, window_s.max(1));
        let latency_by_type = self
            .type_names
            .iter()
            .zip(&merged.per_type)
            .map(|(name, pt)| (name.clone(), pt.latency.mean()))
            .collect();
        StatusSnapshot {
            throughput,
            latency_by_type,
            p95_latency_us: merged.all_latency.p95(),
            committed: merged.per_type.iter().map(|p| p.committed).sum(),
            user_aborted: merged.per_type.iter().map(|p| p.user_aborted).sum(),
            failed: merged.per_type.iter().map(|p| p.failed).sum(),
            retries: merged.per_type.iter().map(|p| p.retries).sum(),
            shed: merged.per_type.iter().map(|p| p.shed).sum(),
            elapsed_s: (now - self.start) as f64 / MICROS_PER_SEC as f64,
        }
    }

    /// Per-second delivered throughput series.
    pub fn throughput_series(&self) -> Vec<f64> {
        self.merged().all_completions.rates()
    }

    /// Per-second requested (target) series.
    pub fn requested_series(&self) -> Vec<f64> {
        self.merged().requested.rates()
    }

    /// Mean latency per second (µs).
    pub fn latency_series(&self) -> Vec<f64> {
        self.merged().all_completions.means()
    }

    /// Per-type summary: (name, count, mean µs, p95 µs, committed, aborted).
    pub fn per_type_summary(&self) -> Vec<TypeSummary> {
        let merged = self.merged();
        self.type_names
            .iter()
            .zip(&merged.per_type)
            .map(|(name, pt)| TypeSummary {
                name: name.clone(),
                count: pt.latency.count(),
                mean_us: pt.latency.mean(),
                p95_us: pt.latency.p95(),
                committed: pt.committed,
                user_aborted: pt.user_aborted,
                failed: pt.failed,
            })
            .collect()
    }

    /// Queue-delay distribution snapshot (p50, p95, max in µs).
    pub fn queue_delay(&self) -> (u64, u64, u64) {
        let merged = self.merged();
        (merged.queue_delay.p50(), merged.queue_delay.p95(), merged.queue_delay.max())
    }

    pub fn total_completed(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().all_latency.count()).sum()
    }

    /// The clock this collector stamps and windows against.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Latency histogram over the last `window_s` seconds (including the
    /// current partial second), folded across all shards on demand.
    pub fn window_histogram(&self, window_s: usize) -> Histogram {
        let now = self.clock.now();
        let mut acc = Histogram::latency();
        for shard in &self.shards {
            acc.merge(&shard.lock().windowed.window(now, window_s));
        }
        acc
    }

    /// Sliding-window view for feedback control: latency percentiles over
    /// the window plus throughput over the same horizon.
    pub fn window_snapshot(&self, window_s: usize) -> WindowSnapshot {
        let hist = self.window_histogram(window_s);
        let now = self.clock.now();
        let throughput = self.merged().all_completions.recent_rate(now, window_s.max(1));
        WindowSnapshot {
            count: hist.count(),
            mean_us: hist.mean(),
            p50_us: hist.p50(),
            p95_us: hist.p95(),
            p99_us: hist.p99(),
            throughput,
        }
    }
}

/// Sliding-window latency/throughput snapshot (the SLO controller's
/// sensor reading).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Completions inside the window.
    pub count: u64,
    pub mean_us: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    /// Throughput over the same window (tx/s, complete seconds).
    pub throughput: f64,
}

impl bp_obs::MetricsSource for StatsCollector {
    fn collect(&self, buf: &mut bp_obs::MetricsBuf) {
        let merged = self.merged();
        // Recent retained spans, oldest first, for per-type latency
        // exemplars (client latency = dispatch → end, matching `Sample`).
        let recent_spans = self
            .span_source
            .lock()
            .as_ref()
            .map(|s| s.recent(256))
            .unwrap_or_default();
        for (idx, (name, pt)) in self.type_names.iter().zip(&merged.per_type).enumerate() {
            let labels: [(&str, &str); 1] = [("type", name)];
            buf.counter(
                "bp_client_committed_total",
                "Requests committed, by transaction type",
                &labels,
                pt.committed as f64,
            );
            buf.counter(
                "bp_client_user_aborted_total",
                "Requests ending in a benchmark-logic abort, by transaction type",
                &labels,
                pt.user_aborted as f64,
            );
            buf.counter(
                "bp_client_failed_total",
                "Requests failed after exhausting retries, by transaction type",
                &labels,
                pt.failed as f64,
            );
            buf.counter(
                "bp_client_retries_total",
                "Retries of retryable aborts, by transaction type",
                &labels,
                pt.retries as f64,
            );
            buf.counter(
                "bp_client_shed_total",
                "Requests shed by the admission controller, by transaction type",
                &labels,
                pt.shed as f64,
            );
            let exemplars: Vec<(u64, String)> = recent_spans
                .iter()
                .filter(|s| s.trace_id != 0 && s.txn_type as usize == idx)
                .map(|s| (s.end_us.saturating_sub(s.dequeued_us), bp_obs::format_trace_id(s.trace_id)))
                .collect();
            buf.histogram_with_exemplars(
                "bp_client_latency_us",
                "Client-observed execution latency in microseconds",
                &labels,
                &pt.latency,
                &exemplars,
            );
        }
        buf.histogram(
            "bp_client_queue_delay_us",
            "Scheduled arrival to dispatch delay in microseconds",
            &[],
            &merged.queue_delay,
        );
        let now = self.clock.now();
        buf.gauge(
            "bp_client_throughput_tps",
            "Delivered throughput over the last 3 complete seconds",
            &[],
            merged.all_completions.recent_rate(now, 3),
        );
    }
}

/// Per-transaction-type roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeSummary {
    pub name: String,
    pub count: u64,
    pub mean_us: f64,
    pub p95_us: u64,
    pub committed: u64,
    pub user_aborted: u64,
    pub failed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_util::clock::sim_clock;

    fn sample(ty: usize, start: Micros, latency: Micros) -> Sample {
        Sample {
            txn_type: ty,
            arrival: start.saturating_sub(50),
            start,
            end: start + latency,
            outcome: RequestOutcome::Committed,
            retries: 0,
        }
    }

    #[test]
    fn record_and_status() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["read", "write"]);
        for i in 0..100u64 {
            c.record(sample(0, i * 10_000, 500));
            c.record(sample(1, i * 10_000, 1_500));
        }
        sim.advance_to(2 * MICROS_PER_SEC);
        let st = c.status(1);
        assert_eq!(st.committed, 200);
        assert_eq!(st.latency_by_type[0].0, "read");
        assert!((st.latency_by_type[0].1 - 500.0).abs() < 30.0);
        assert!((st.latency_by_type[1].1 - 1500.0).abs() < 80.0);
        // All 200 completions land in second 0 -> window of second 1 is 0.
        assert_eq!(c.throughput_series()[0], 200.0);
    }

    #[test]
    fn sliding_window_throughput() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        // 100 tx in second 0, 300 in second 1.
        for i in 0..100u64 {
            c.record(sample(0, i * 10_000, 100));
        }
        for i in 0..300u64 {
            c.record(sample(0, MICROS_PER_SEC + i * 3_000, 100));
        }
        sim.advance_to(2 * MICROS_PER_SEC);
        let st = c.status(2);
        assert!((st.throughput - 200.0).abs() < 1.0, "{}", st.throughput);
        let st1 = c.status(1);
        assert!((st1.throughput - 300.0).abs() < 1.0, "{}", st1.throughput);
    }

    #[test]
    fn outcome_counters() {
        let (_, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        let mut s = sample(0, 0, 100);
        s.outcome = RequestOutcome::UserAborted;
        c.record(s);
        let mut s = sample(0, 0, 100);
        s.outcome = RequestOutcome::Failed;
        s.retries = 3;
        c.record(s);
        let st = c.status(1);
        assert_eq!(st.user_aborted, 1);
        assert_eq!(st.failed, 1);
        assert_eq!(st.retries, 3);
        assert_eq!(st.committed, 0);
    }

    #[test]
    fn retrying_txn_counts_once_in_throughput_n_in_retries() {
        // Regression pin (satellite 2): a transaction that retries N times
        // and then succeeds is ONE unit of throughput and N units of retry.
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        let mut s = sample(0, 0, 2_000);
        s.retries = 4;
        c.record(s);
        sim.advance_to(MICROS_PER_SEC);
        assert_eq!(c.total_completed(), 1, "one completion, not 1 + retries");
        let st = c.status(1);
        assert_eq!(st.committed, 1);
        assert_eq!(st.retries, 4);
        assert_eq!(c.per_type_summary()[0].count, 1, "latency recorded once");
        assert_eq!(c.throughput_series().iter().sum::<f64>() as u64, 1);
    }

    #[test]
    fn shed_excluded_from_throughput_and_latency() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        c.record(sample(0, 0, 100));
        let mut s = sample(0, 0, 100);
        s.outcome = RequestOutcome::Shed;
        c.record(s);
        c.record(s);
        sim.advance_to(MICROS_PER_SEC);
        let st = c.status(1);
        assert_eq!(st.shed, 2);
        assert_eq!(st.committed, 1);
        assert_eq!(st.failed, 0, "shed is not an error");
        assert_eq!(c.total_completed(), 1, "shed is not throughput");
        assert_eq!(c.per_type_summary()[0].count, 1, "shed has no latency");
    }

    #[test]
    fn queue_delay_tracked() {
        let (_, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        c.record(Sample {
            txn_type: 0,
            arrival: 0,
            start: 5_000,
            end: 6_000,
            outcome: RequestOutcome::Committed,
            retries: 0,
        });
        let (p50, _, max) = c.queue_delay();
        assert!(p50 >= 4_800 && max >= 4_800);
    }

    #[test]
    fn per_type_summary() {
        let (_, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["a", "b"]);
        c.record(sample(0, 0, 1_000));
        c.record(sample(0, 0, 3_000));
        let sum = c.per_type_summary();
        assert_eq!(sum[0].count, 2);
        assert_eq!(sum[0].mean_us, 2_000.0);
        assert_eq!(sum[1].count, 0);
    }

    #[test]
    fn requested_series() {
        let (_, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        c.record_requested(0, 50);
        c.record_requested(MICROS_PER_SEC, 70);
        assert_eq!(c.requested_series(), vec![50.0, 70.0]);
        c.record_requested(2 * MICROS_PER_SEC, 0);
        assert_eq!(c.requested_series(), vec![50.0, 70.0], "a zero count adds no window");
        c.record_requested(4 * MICROS_PER_SEC, 100_000);
        assert_eq!(c.requested_series(), vec![50.0, 70.0, 0.0, 0.0, 100_000.0]);
    }

    #[test]
    fn multithreaded_records_all_merge() {
        let (sim, clock) = sim_clock();
        let c = std::sync::Arc::new(StatsCollector::new(clock, &["a", "b"]));
        let threads = 8u64;
        let per_thread = 500u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        c.record(sample((t % 2) as usize, i * 1_000, 200 + t * 10));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        sim.advance_to(MICROS_PER_SEC);
        assert_eq!(c.total_completed(), threads * per_thread);
        let st = c.status(1);
        assert_eq!(st.committed, threads * per_thread);
        let sum = c.per_type_summary();
        assert_eq!(sum[0].count + sum[1].count, threads * per_thread);
    }

    #[test]
    fn window_snapshot_tracks_recent_latency_only() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        // Second 0: slow (10ms). Seconds 5-6: fast (1ms).
        for i in 0..50u64 {
            c.record(sample(0, i * 10_000, 10_000));
        }
        for i in 0..100u64 {
            c.record(sample(0, 5 * MICROS_PER_SEC + i * 15_000, 1_000));
        }
        sim.advance_to(7 * MICROS_PER_SEC);
        // A 3s window sees only the fast phase.
        let w = c.window_snapshot(3);
        assert_eq!(w.count, 100);
        assert!(w.p99_us < 1_100, "p99 {} should reflect the fast phase", w.p99_us);
        // A huge window sees everything, matching the cumulative histogram.
        let all = c.window_snapshot(1_000);
        assert_eq!(all.count, 150);
        assert!(all.p99_us > 9_000, "cumulative p99 {} includes the slow phase", all.p99_us);
    }

    #[test]
    fn window_histogram_huge_equals_cumulative() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        for i in 0..2_000u64 {
            c.record(sample(0, i * 5_000, 100 + (i * 7) % 3_000));
        }
        sim.advance_to(11 * MICROS_PER_SEC);
        let windowed = c.window_histogram(usize::MAX);
        let st = c.status(1);
        assert_eq!(windowed.count(), st.committed);
        assert_eq!(windowed.p95(), c.per_type_summary()[0].p95_us);
    }

    #[test]
    fn window_empty_after_quiet_period() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        c.record(sample(0, 0, 500));
        sim.advance_to(30 * MICROS_PER_SEC);
        let w = c.window_snapshot(5);
        assert_eq!(w.count, 0);
        assert_eq!(w.p99_us, 0);
        assert_eq!(w.mean_us, 0.0);
    }

    #[test]
    fn window_shed_excluded() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        c.record(sample(0, 0, 100));
        let mut s = sample(0, 0, 100);
        s.outcome = RequestOutcome::Shed;
        c.record(s);
        sim.advance_to(MICROS_PER_SEC);
        assert_eq!(c.window_snapshot(10).count, 1, "shed never enters the window");
    }

    #[test]
    fn single_shard_collector_still_works() {
        let (_, clock) = sim_clock();
        let c = StatsCollector::with_shards(clock, &["t"], 1);
        assert_eq!(c.shard_count(), 1);
        c.record(sample(0, 0, 100));
        assert_eq!(c.total_completed(), 1);
    }
}
