//! Single-thread layer probes, run after the traced run.
//!
//! Each probe times one public function of one crate in batches and
//! reports the median per-call time over the batches. The SQL and storage
//! probes run on the workload's loaded database with its hottest
//! statement; the driver and span probes need no database.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bp_core::{RequestOutcome, Sample, StatsCollector, Trace, TraceRecord};
use bp_obs::{ObsConfig, Span, SpanOutcome, SpanRecorder};
use bp_sql::Connection;
use bp_storage::{Database, Value};
use bp_util::clock::wall_clock;
use bp_util::rng::Rng;

/// Measuring time per probe, after one warm-up batch.
const PROBE_BUDGET: Duration = Duration::from_millis(250);

/// The statement a workload runs most, and the primary-key rows it reads.
pub struct HotStatement {
    pub sql: &'static str,
    pub table: &'static str,
    /// Parameters (one set per call, cycled) — also the table's PK values.
    pub keys: Vec<Vec<Value>>,
}

/// Median nanoseconds per call of `f`, timed in batches of `batch` calls.
fn per_call_ns(batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut i = 0usize;
    let mut run_batch = |f: &mut dyn FnMut(usize)| {
        let t = Instant::now();
        for _ in 0..batch {
            f(i);
            i = i.wrapping_add(1);
        }
        t.elapsed().as_nanos() as f64 / batch as f64
    };
    run_batch(&mut f);
    let mut per_call = Vec::new();
    let start = Instant::now();
    while start.elapsed() < PROBE_BUDGET || per_call.len() < 5 {
        per_call.push(run_batch(&mut f));
    }
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

/// `StatsCollector::record` (the driver's completion path), ns per call.
pub fn stats_record_ns() -> f64 {
    let clock = wall_clock();
    let stats = StatsCollector::new(clock.clone(), &["t"]);
    per_call_ns(1_000, |i| {
        let now = clock.now();
        stats.record(Sample {
            txn_type: 0,
            arrival: now.saturating_sub(50),
            start: now,
            end: now + (i % 7) as u64,
            outcome: RequestOutcome::Committed,
            retries: 0,
        });
    })
}

/// `Trace::append`, ns per call. A fresh trace per batch bounds memory;
/// the driver's trace grows the same way, by amortised doubling.
pub fn trace_append_ns() -> f64 {
    let mut trace = Trace::new();
    per_call_ns(10_000, |i| {
        if i % 10_000 == 0 {
            trace = Trace::new();
        }
        trace.append(TraceRecord {
            start_us: i as u64,
            latency_us: 5,
            txn_type: 0,
            outcome: RequestOutcome::Committed,
        });
    })
}

/// `SpanRecorder::offer` in the default (`full`) mode, ns per call.
pub fn span_offer_ns() -> f64 {
    let spans = SpanRecorder::new(ObsConfig::default());
    per_call_ns(1_000, |i| {
        let seq = i as u64;
        spans.offer(Span {
            trace_id: bp_obs::trace_id(1, seq),
            seq,
            submitted_us: seq,
            dequeued_us: seq + 3,
            end_us: seq + 9,
            lock_wait_us: 0,
            commit_us: 1,
            tenant: 0,
            phase: 0,
            txn_type: 0,
            retries: 0,
            outcome: SpanOutcome::Committed,
        });
    })
}

/// SQL-layer probes on a loaded database, µs per call:
/// (`bp_sql::parse`, `Connection::query`, `Connection::query_prepared`).
pub fn sql_us(db: &Arc<Database>, hot: &HotStatement) -> (f64, f64, f64) {
    let mut conn = Connection::open(db);
    let keys = &hot.keys;
    let parse = per_call_ns(1_000, |_| {
        std::hint::black_box(
            bp_sql::parse(std::hint::black_box(hot.sql)).expect("hot statement parses"),
        );
    });
    let query = per_call_ns(200, |i| {
        let rs = conn
            .query(hot.sql, &keys[i % keys.len()])
            .expect("hot statement runs");
        std::hint::black_box(rs);
    });
    let prepared = conn.prepare(hot.sql).expect("hot statement prepares");
    let query_prepared = per_call_ns(200, |i| {
        let rs = conn
            .query_prepared(&prepared, &keys[i % keys.len()])
            .expect("prepared statement runs");
        std::hint::black_box(rs);
    });
    (parse / 1e3, query / 1e3, query_prepared / 1e3)
}

/// Storage-layer probes on the hot table, µs per call: a point read
/// (`begin`, `read_pk`, `commit`) and an update (`read_pk` for update,
/// `update` with the row unchanged, `commit`: lock, WAL append, commit).
pub fn storage_us(db: &Arc<Database>, hot: &HotStatement) -> (f64, f64) {
    let table = db.table(hot.table).expect("hot table exists");
    let mut session = db.session();
    let keys = &hot.keys;
    let read = per_call_ns(500, |i| {
        session.begin().expect("begin");
        let row = session
            .read_pk(&table, &keys[i % keys.len()], false)
            .expect("read_pk");
        std::hint::black_box(row);
        session.commit().expect("commit");
    });
    let update = per_call_ns(500, |i| {
        session.begin().expect("begin");
        let (rowid, row) = session
            .read_pk(&table, &keys[i % keys.len()], true)
            .expect("read_pk for update")
            .expect("hot row exists");
        session.update(&table, rowid, row).expect("update");
        session.commit().expect("commit");
    });
    (read / 1e3, update / 1e3)
}

/// Hot statement of each engine workload; `None` for `noop`. Keys a run
/// deleted are left out, so every probe call finds its row.
pub fn hot_statement(workload: &str, seed: u64, db: &Arc<Database>) -> Option<HotStatement> {
    let mut rng = Rng::new(seed ^ 0x5EED_F9A0);
    let mut hot = match workload {
        // YCSB Read by key, over the 1,000-key zipfian hot set.
        "ycsb" => HotStatement {
            sql: "SELECT * FROM usertable WHERE ycsb_key = ?",
            table: "usertable",
            keys: (0..1_000)
                .map(|_| vec![Value::Int(rng.int_range(0, 999))])
                .collect(),
        },
        // NewOrder's district read, the per-district hot spot.
        "tpcc" => HotStatement {
            sql: "SELECT d_next_o_id, d_tax FROM district WHERE d_w_id = ? AND d_id = ? FOR UPDATE",
            table: "district",
            keys: (1..=2)
                .flat_map(|w| (1..=10).map(move |d| vec![Value::Int(w), Value::Int(d)]))
                .collect(),
        },
        _ => return None,
    };
    let table = db.table(hot.table).expect("hot table exists");
    hot.keys.retain(|k| table.lookup_pk(k).is_some());
    Some(hot)
}
