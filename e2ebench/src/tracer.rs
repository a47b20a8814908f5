//! The benchmark's outside tracer and its no-op workload.
//!
//! Nothing inside the driver's crates is instrumented: [`Timed`] wraps the
//! workload the driver runs and times every `Workload::execute` call with a
//! nanosecond clock from the outside, plus the gap on each worker thread
//! between one call's return and the next call.

use std::sync::Arc;
use std::time::Instant;

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::histogram::Histogram;
use bp_util::rng::Rng;
use bp_util::sync::{thread_slot, CachePadded, Mutex};

/// Sub-bucket bits of the nanosecond histograms: ≤ 0.8% relative error.
pub const NS_BUCKET_BITS: u32 = 7;

/// Per-thread slots, indexed like the driver's own sharded collectors. The
/// runs use two workers, far below this.
const SLOTS: usize = 16;

/// A histogram of nanosecond values at [`NS_BUCKET_BITS`] precision.
pub fn ns_histogram() -> Histogram {
    Histogram::new(NS_BUCKET_BITS)
}

/// Percentile `pct` (0..=100) of a log-linear histogram with
/// `sub_bucket_bits` precision, interpolated linearly inside the bucket
/// that holds it. Reading the bucket's midpoint instead would repeat the
/// same value on every run whose spread fits inside one bucket. 0 when
/// empty.
pub fn percentile(h: &Histogram, sub_bucket_bits: u32, pct: f64) -> f64 {
    if h.is_empty() {
        return 0.0;
    }
    let rank = (pct.clamp(0.0, 100.0) / 100.0) * h.count() as f64;
    let mut below = 0.0;
    for (low, count) in h.iter() {
        let count = count as f64;
        if below + count >= rank {
            let width = if low < (1 << sub_bucket_bits) {
                1
            } else {
                1u64 << ((63 - low.leading_zeros()) - sub_bucket_bits)
            };
            let v = low as f64 + (rank - below) / count * width as f64;
            return v.clamp(h.min() as f64, h.max() as f64);
        }
        below += count;
    }
    h.max() as f64
}

/// The `noop` workload. It exists to measure the driver alone: `execute`
/// returns `Committed` without touching the engine, so every microsecond
/// of a request goes to the dispatch gate, the queue and the completion
/// path. An engine change must not move its numbers; a driver change must.
pub struct Noop;

impl Workload for Noop {
    fn name(&self) -> &'static str {
        "noop"
    }
    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::FeatureTesting
    }
    fn domain(&self) -> &'static str {
        "Driver ceiling"
    }
    fn transaction_types(&self) -> Vec<TransactionType> {
        vec![TransactionType::new("Noop", 100.0, true)]
    }
    fn create_schema(&self, _conn: &mut Connection) -> SqlResult<()> {
        Ok(())
    }
    fn load(&self, _conn: &mut Connection, _scale: f64, _rng: &mut Rng) -> SqlResult<LoadSummary> {
        Ok(LoadSummary::default())
    }
    fn execute(
        &self,
        _txn_idx: usize,
        _conn: &mut Connection,
        _rng: &mut Rng,
    ) -> SqlResult<TxnOutcome> {
        Ok(TxnOutcome::Committed)
    }
}

/// What one worker thread observed.
struct ThreadLog {
    /// `execute` time per transaction type, ns.
    per_type: Vec<Histogram>,
    /// Time from one `execute` return to the next call, ns.
    gap: Histogram,
    busy_ns: u64,
    errors: u64,
    /// Errors a retry cannot cure (not a lock conflict).
    fatal: u64,
    last_end: Option<Instant>,
}

/// Everything [`Timed`] observed, merged over threads.
pub struct TracerReport {
    pub per_type: Vec<Histogram>,
    pub all: Histogram,
    pub gap: Histogram,
    pub busy_ns: u64,
    pub calls: u64,
    pub errors: u64,
    pub fatal: u64,
}

/// A `Workload` decorator that times each `execute` call from outside.
pub struct Timed {
    inner: Arc<dyn Workload>,
    slots: Vec<CachePadded<Mutex<ThreadLog>>>,
}

impl Timed {
    pub fn new(inner: Arc<dyn Workload>) -> Timed {
        let types = inner.transaction_types().len();
        let slots = (0..SLOTS)
            .map(|_| {
                CachePadded::new(Mutex::new(ThreadLog {
                    per_type: (0..types).map(|_| ns_histogram()).collect(),
                    gap: ns_histogram(),
                    busy_ns: 0,
                    errors: 0,
                    fatal: 0,
                    last_end: None,
                }))
            })
            .collect();
        Timed { inner, slots }
    }

    pub fn report(&self) -> TracerReport {
        let types = self.inner.transaction_types().len();
        let mut r = TracerReport {
            per_type: (0..types).map(|_| ns_histogram()).collect(),
            all: ns_histogram(),
            gap: ns_histogram(),
            busy_ns: 0,
            calls: 0,
            errors: 0,
            fatal: 0,
        };
        for slot in &self.slots {
            let log = slot.lock();
            for (acc, h) in r.per_type.iter_mut().zip(&log.per_type) {
                acc.merge(h);
                r.all.merge(h);
            }
            r.gap.merge(&log.gap);
            r.busy_ns += log.busy_ns;
            r.errors += log.errors;
            r.fatal += log.fatal;
        }
        r.calls = r.all.count();
        r
    }
}

impl Workload for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn class(&self) -> BenchmarkClass {
        self.inner.class()
    }
    fn domain(&self) -> &'static str {
        self.inner.domain()
    }
    fn transaction_types(&self) -> Vec<TransactionType> {
        self.inner.transaction_types()
    }
    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        self.inner.create_schema(conn)
    }
    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        self.inner.load(conn, scale, rng)
    }
    fn execute(
        &self,
        txn_idx: usize,
        conn: &mut Connection,
        rng: &mut Rng,
    ) -> SqlResult<TxnOutcome> {
        let start = Instant::now();
        let result = self.inner.execute(txn_idx, conn, rng);
        let end = Instant::now();
        let mut log = self.slots[thread_slot() % SLOTS].lock();
        let ns = end.duration_since(start).as_nanos() as u64;
        log.per_type[txn_idx].record(ns);
        log.busy_ns += ns;
        if let Err(e) = &result {
            log.errors += 1;
            log.fatal += u64::from(!e.is_retryable());
        }
        if let Some(prev) = log.last_end {
            log.gap.record(start.duration_since(prev).as_nanos() as u64);
        }
        log.last_end = Some(end);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_inside_buckets() {
        let mut h = ns_histogram();
        for v in 1..=100 {
            h.record(v);
        }
        // Linear region: 1 ns buckets; a value v stands for [v, v + 1).
        let p50 = percentile(&h, NS_BUCKET_BITS, 50.0);
        assert!((50.0..=51.0).contains(&p50), "{p50}");
        assert_eq!(percentile(&h, NS_BUCKET_BITS, 100.0), 100.0);
        assert_eq!(percentile(&ns_histogram(), NS_BUCKET_BITS, 50.0), 0.0);

        // Log region: values spread over one wide bucket read between its
        // bounds, not at its midpoint.
        let mut wide = Histogram::new(1);
        for v in [1_024, 1_100, 1_300, 1_500] {
            wide.record(v);
        }
        let p25 = percentile(&wide, 1, 25.0);
        let p75 = percentile(&wide, 1, 75.0);
        assert!(1_024.0 <= p25 && p25 < p75 && p75 <= 1_500.0, "{p25} {p75}");
    }

    #[test]
    fn timed_records_calls_errors_and_gaps() {
        let timed = Timed::new(Arc::new(Noop));
        let db = bp_storage::Database::new(bp_storage::Personality::test());
        let mut conn = Connection::open(&db);
        let mut rng = Rng::new(1);
        for _ in 0..3 {
            timed.execute(0, &mut conn, &mut rng).expect("noop commits");
        }
        let r = timed.report();
        assert_eq!((r.calls, r.errors, r.fatal), (3, 0, 0));
        assert_eq!(r.per_type[0].count(), 3);
        assert_eq!(r.gap.count(), 2, "no gap before a thread's first call");
    }
}
