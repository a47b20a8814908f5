//! The threaded Workload Manager and its client workers (Fig. 1, §2.1).
//!
//! A manager thread asks a [`ScheduleSource`] for one window of timestamped
//! arrivals per second and pushes them to the central queue. The default
//! source ([`ScriptSchedule`](crate::schedule::ScriptSchedule)) generates
//! them live from the phase script (plus any runtime overrides from the
//! control API), exactly `rate` per second, interleaved uniformly or
//! exponentially; `bp-replay` substitutes a recorded schedule. Transaction
//! types are pinned on each request at generation time, so worker threads
//! ("terminals") just pull requests, invoke the benchmark's transaction
//! control code for the pinned type, optionally sleep a think time, and
//! loop.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bp_chaos::{Admission, CircuitBreaker, FaultKind, ResilienceConfig, RetryBudget};
use bp_obs::{
    journal_now_us, ObsConfig, Severity, Span, SpanRecorder, TelemetryGuard,
    TelemetryRecorder, TelemetrySample,
};
use bp_sql::Connection;
use bp_storage::Database;
use bp_util::clock::{SharedClock, MICROS_PER_SEC};
use bp_util::rng::{next_backoff, Rng};

use crate::controller::{ControlState, Controller};
use crate::mixture::Mixture;
use crate::queue::RequestQueue;
use crate::rate::{PhaseScript, Rate};
use crate::schedule::{ScheduleSource, ScriptSchedule};
use crate::slo::SloConfig;
use crate::stats::{RequestOutcome, Sample, StatsCollector};
use crate::trace::{Trace, TraceRecord};
use crate::workload::{TxnOutcome, Workload};

/// Configuration for one workload run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of worker threads (terminals).
    pub terminals: usize,
    /// The phase script to execute.
    pub script: PhaseScript,
    /// RNG seed for workers.
    pub seed: u64,
    /// Collect a full trace (trace.txt) in memory.
    pub collect_trace: bool,
    /// Retries for retryable (lock-conflict) aborts before counting a
    /// request as failed.
    pub max_retries: u32,
    /// Arrival rate used for `Rate::Unlimited` (the "large configurable
    /// constant" of §2.2.1).
    pub unlimited_rate: f64,
    /// Request-lifecycle span recording (`observability.spans`).
    pub obs: ObsConfig,
    /// Tenant id stamped on spans (multi-tenant testbeds set this per run).
    pub tenant: u16,
    /// Client resilience: backoff, deadlines, retry budget, breaker.
    pub resilience: ResilienceConfig,
    /// Closed-loop SLO admission control; `None` runs open-loop.
    pub slo: Option<SloConfig>,
    /// Continuous telemetry recorder tick, µs of wall time (0 disables
    /// the recorder thread entirely).
    pub telemetry_interval_us: u64,
    /// Node identity in a bp-cluster fleet; single-process runs keep the
    /// default. Stamped on the controller so the agent layer and merged
    /// cluster views can attribute this run to a node.
    pub node: String,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            terminals: 4,
            script: PhaseScript::default(),
            seed: 42,
            collect_trace: true,
            max_retries: 3,
            unlimited_rate: 50_000.0,
            obs: ObsConfig::default(),
            tenant: 0,
            resilience: ResilienceConfig::default(),
            slo: None,
            telemetry_interval_us: 1_000_000,
            node: "local".to_string(),
        }
    }
}

/// A handle to a running workload: controller + joinable threads.
pub struct RunHandle {
    pub controller: Controller,
    pub trace: Option<Arc<Trace>>,
    /// The run's lifecycle flight recorder (also reachable via
    /// `controller.spans()`).
    pub spans: Arc<SpanRecorder>,
    threads: Vec<JoinHandle<()>>,
    active_workers: Arc<AtomicUsize>,
    /// Keeps the telemetry thread alive for the run's lifetime; dropping
    /// the handle (after `join`) stops it. The recorded samples stay
    /// readable through `controller.recorder()`.
    _telemetry: Option<TelemetryGuard>,
}

impl RunHandle {
    /// Wait for the run to finish (script end or stop()).
    pub fn join(mut self) -> Controller {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.controller.clone()
    }

    /// Ask the run to stop and wait for it.
    pub fn stop_and_join(self) -> Controller {
        self.controller.stop();
        self.join()
    }

    /// Number of workers still running.
    pub fn active_workers(&self) -> usize {
        self.active_workers.load(Ordering::Relaxed)
    }
}

/// Start a workload run on its own threads. The database must already be
/// loaded (use `workload.setup`). Arrivals are generated live from
/// `cfg.script` by a [`ScriptSchedule`].
pub fn start(
    db: Arc<Database>,
    workload: Arc<dyn Workload>,
    clock: SharedClock,
    cfg: RunConfig,
) -> RunHandle {
    let source = ScriptSchedule::new(cfg.script.clone(), cfg.unlimited_rate, cfg.seed);
    start_with_source(db, workload, clock, cfg, Box::new(source))
}

/// Start a workload run driven by an explicit schedule source (replay,
/// recording decorators, synthetic schedules). `cfg.script` is still used
/// for the initial rate/mixture and controller status display.
pub fn start_with_source(
    db: Arc<Database>,
    workload: Arc<dyn Workload>,
    clock: SharedClock,
    cfg: RunConfig,
    source: Box<dyn ScheduleSource>,
) -> RunHandle {
    let types = workload.transaction_types();
    let type_names: Vec<&str> = types.iter().map(|t| t.name).collect();
    let initial_phase = cfg.script.phases.first();
    let initial_rate = initial_phase.map(|p| p.rate).unwrap_or(Rate::Disabled);
    let initial_mixture = initial_phase
        .and_then(|p| p.weights.clone())
        .and_then(|w| Mixture::new(w).ok())
        .unwrap_or_else(|| Mixture::default_of(&types));

    let state = ControlState::new(initial_rate, initial_mixture, cfg.unlimited_rate);
    let queue = Arc::new(RequestQueue::new(clock.clone()));
    queue.set_rate(initial_rate.arrivals_per_second(cfg.unlimited_rate));
    let stats = Arc::new(StatsCollector::new(clock.clone(), &type_names));
    let trace = if cfg.collect_trace { Some(Arc::new(Trace::new())) } else { None };
    let spans = Arc::new(SpanRecorder::new(cfg.obs).with_journal(db.journal().clone()));
    stats.set_span_source(spans.clone());
    let breaker = cfg.resilience.breaker.as_ref().map(|b| {
        Arc::new(
            CircuitBreaker::new(workload.name(), b.clone()).with_journal(db.journal().clone()),
        )
    });
    let budget = Arc::new(RetryBudget::new(cfg.resilience.retry_budget_per_s));

    let mut controller = Controller::new(
        state.clone(),
        queue.clone(),
        stats.clone(),
        db.clone(),
        types,
        workload.name(),
    )
    .with_node(&cfg.node)
    .with_spans(spans.clone());
    if let Some(b) = &breaker {
        controller = controller.with_breaker(b.clone());
    }

    // Continuous telemetry: a background thread samples the client window
    // stats and per-interval engine-counter deltas into a flight-recorder
    // ring (`GET /report`, `bp-doctor`).
    let telemetry = if cfg.telemetry_interval_us > 0 {
        let recorder = Arc::new(TelemetryRecorder::new(cfg.telemetry_interval_us));
        controller = controller.with_recorder(recorder.clone());
        let guard = recorder.spawn(sensor(
            state.clone(),
            queue.clone(),
            stats.clone(),
            db.clone(),
            breaker.clone(),
            spans.clone(),
        ));
        Some(guard)
    } else {
        None
    };

    // Closed-loop SLO control: the loop thread is detached (it polls
    // stats, not the queue) and exits on stop via its epoch/stop checks.
    if let Some(slo_cfg) = &cfg.slo {
        controller.start_slo(slo_cfg.clone());
    }

    let active_workers = Arc::new(AtomicUsize::new(cfg.terminals));
    let mut threads = Vec::with_capacity(cfg.terminals + 1);

    // Manager thread.
    {
        let state = state.clone();
        let queue = queue.clone();
        let stats = stats.clone();
        let clock = clock.clone();
        let budget = budget.clone();
        threads.push(
            std::thread::Builder::new()
                .name("bp-manager".into())
                .spawn(move || manager_loop(state, queue, stats, clock, source, budget))
                .expect("spawn manager"),
        );
    }

    // Worker threads.
    for w in 0..cfg.terminals {
        let db = db.clone();
        let workload = workload.clone();
        let state = state.clone();
        let queue = queue.clone();
        let stats = stats.clone();
        let clock = clock.clone();
        let trace = trace.clone();
        let spans = spans.clone();
        let active = active_workers.clone();
        let max_retries = cfg.max_retries;
        let tenant = cfg.tenant;
        let seed = cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(w as u64 + 1));
        let run_seed = cfg.seed;
        let breaker = breaker.clone();
        let budget = budget.clone();
        let resilience = cfg.resilience.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("bp-worker-{w}"))
                .spawn(move || {
                    worker_loop(WorkerCtx {
                        db,
                        workload,
                        state,
                        queue,
                        stats,
                        clock,
                        trace,
                        spans,
                        max_retries,
                        tenant,
                        seed,
                        run_seed,
                        breaker,
                        budget,
                        resilience,
                    });
                    active.fetch_sub(1, Ordering::Relaxed);
                })
                .expect("spawn worker"),
        );
    }

    RunHandle { controller, trace, spans, threads, active_workers, _telemetry: telemetry }
}

/// Build the telemetry sensor closure: one call = one [`TelemetrySample`].
/// Client-side window stats come from the collector, engine counters are
/// per-interval deltas of the server silo, and the breaker/queue/rate
/// gauges are read point-in-time.
fn sensor(
    state: Arc<ControlState>,
    queue: Arc<RequestQueue>,
    stats: Arc<StatsCollector>,
    db: Arc<Database>,
    breaker: Option<Arc<CircuitBreaker>>,
    spans: Arc<SpanRecorder>,
) -> Box<dyn FnMut() -> TelemetrySample + Send> {
    let mut prev_srv = db.metrics().snapshot();
    let mut prev_done = 0u64;
    let mut prev_failed = 0u64;
    let mut prev_shed = 0u64;
    Box::new(move || {
        let win = stats.window_snapshot(3);
        // Feed the tail sampler: the live window p99 becomes its "slow"
        // cutoff (rise-slowly / fall-fast smoothing happens inside), and a
        // crashed engine marks the moment so in-flight requests that
        // straddle it are always retained.
        if win.count >= 20 {
            spans.set_slow_threshold(win.p99_us);
        }
        if db.is_crashed() {
            spans.note_crash(stats.clock().now());
        }
        let status = stats.status(3);
        let srv = db.metrics().snapshot();
        let d = srv.delta(&prev_srv);
        prev_srv = srv;
        let done_total = status.committed + status.user_aborted + status.failed;
        let done = done_total.saturating_sub(prev_done);
        let failed = status.failed.saturating_sub(prev_failed);
        let shed = status.shed.saturating_sub(prev_shed);
        prev_done = done_total;
        prev_failed = status.failed;
        prev_shed = status.shed;
        TelemetrySample {
            t_us: journal_now_us(),
            rate: match state.rate() {
                Rate::Limited(tps) => tps,
                Rate::Unlimited => f64::INFINITY,
                Rate::Disabled => 0.0,
            },
            throughput: win.throughput,
            p50_us: win.p50_us,
            p99_us: win.p99_us,
            error_rate: if done > 0 { failed as f64 / done as f64 } else { 0.0 },
            shed_rate: if done + shed > 0 {
                shed as f64 / (done + shed) as f64
            } else {
                0.0
            },
            breaker_state: breaker.as_ref().map(|b| b.state() as u8).unwrap_or(0),
            queue_depth: queue.backlog() as u64,
            commits: d.commits,
            lock_waits: d.lock_waits,
            lock_wait_us: d.lock_wait_micros,
            deadlocks: d.deadlocks,
            io_reads: d.io_reads,
            io_writes: d.io_writes,
            wal_fsyncs: d.wal_fsyncs,
            wal_bytes: d.wal_bytes,
            fsync_us: d.fsync_micros,
            buf_hits: d.buf_hits,
            buf_misses: d.buf_misses,
            busy_us: d.busy_micros,
        }
    })
}

/// The Workload Manager: one iteration per second, window contents decided
/// by the schedule source.
fn manager_loop(
    state: Arc<ControlState>,
    queue: Arc<RequestQueue>,
    stats: Arc<StatsCollector>,
    clock: SharedClock,
    mut source: Box<dyn ScheduleSource>,
    budget: Arc<RetryBudget>,
) {
    let start = clock.now();
    let mut second: u64 = 0;

    loop {
        if state.is_stopped() {
            queue.close();
            return;
        }
        let boundary = start + second * MICROS_PER_SEC;
        let behind = clock.now().saturating_sub(boundary);
        let window = source.plan(second, behind, &state);

        if let Some(tps) = window.gate_tps {
            queue.set_rate(tps);
        }
        if !window.requests.is_empty() {
            let n = window.requests.len();
            queue.push_scheduled(boundary, window.requests);
            stats.record_requested(boundary, n);
        }
        if window.done {
            if source.drain_on_done() {
                // Replay: let the already-enqueued tail dispatch instead of
                // dropping it with the close.
                while !state.is_stopped() && queue.backlog() > 0 {
                    clock.sleep(20_000);
                }
            }
            state.stop();
            queue.close();
            return;
        }

        // One second's worth of fresh retry tokens (§ resilience).
        budget.refill();

        second += 1;
        clock.sleep_until(start + second * MICROS_PER_SEC);
    }
}

/// Best-effort panic payload text for the `worker_panic` journal event.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Everything one client worker needs; bundled so the span recorder and
/// tenant id ride along without a 12-argument function.
struct WorkerCtx {
    db: Arc<Database>,
    workload: Arc<dyn Workload>,
    state: Arc<ControlState>,
    queue: Arc<RequestQueue>,
    stats: Arc<StatsCollector>,
    clock: SharedClock,
    trace: Option<Arc<Trace>>,
    spans: Arc<SpanRecorder>,
    max_retries: u32,
    tenant: u16,
    seed: u64,
    /// The unperturbed run seed: trace ids must be a function of
    /// (run seed, seq) alone so every worker — and every node replaying
    /// the same schedule — derives the same id for the same request.
    run_seed: u64,
    breaker: Option<Arc<CircuitBreaker>>,
    budget: Arc<RetryBudget>,
    resilience: ResilienceConfig,
}

/// One client worker ("terminal").
fn worker_loop(ctx: WorkerCtx) {
    let WorkerCtx {
        db,
        workload,
        state,
        queue,
        stats,
        clock,
        trace,
        spans,
        max_retries,
        tenant,
        seed,
        run_seed,
        breaker,
        budget,
        resilience,
    } = ctx;
    let mut conn = Connection::open(&db);
    let mut rng = Rng::new(seed);

    loop {
        // Stop wins over pause: a paused worker must still exit (a worker
        // spinning in the pause branch with a non-empty backlog would hang
        // join() forever — the queue drops its backlog on close anyway).
        if state.is_stopped() {
            return;
        }
        if state.is_paused() {
            // The control API temporarily blocks all threads from executing
            // transaction requests (§4.1.2).
            clock.sleep(2_000);
            continue;
        }
        let Some(req) = queue.pull(20_000) else {
            return; // queue closed
        };

        // The type was pinned at generation time (see `schedule`): no
        // worker-side sampling, so replay is exact and schedules are a pure
        // function of the seed.
        let txn_idx = req.txn_type as usize;
        let start = clock.now();
        // One mode check per request; the storage layer's stage accumulator
        // is always drained (here, pre-execution) so lock-wait/commit time
        // from an unrecorded request can't leak into a recorded one. The
        // retain/drop decision itself is tail-based: every completed span
        // is *offered* to the recorder, which keeps slow/errored/shed/
        // crash-straddling ones unconditionally.
        let record_span = spans.enabled();
        let tid = if record_span { bp_obs::trace_id(run_seed, req.seq) } else { 0 };
        bp_obs::take_stage_acc();

        // Admission control: an Open breaker fast-fails the request before
        // it touches the engine. Shed is its own bucket — never an error,
        // never throughput — and skips the breaker callbacks and think time.
        let shed = breaker
            .as_ref()
            .is_some_and(|b| b.admit(start, queue.backlog()) == Admission::Shed);
        let mut retries = 0u32;
        let outcome = if shed {
            RequestOutcome::Shed
        } else {
            // Mark this thread's in-flight trace so deep storage events
            // (deadlock victims, crashes) can cite the request that was
            // on-CPU when they fired.
            if record_span {
                bp_obs::set_current_trace(tid);
            }
            loop {
                // A tenant blackout invalidates the attempt before it reaches
                // the engine; it behaves like any retryable transient fault.
                let attempt = if db.chaos().blackout(tenant) {
                    None
                } else {
                    // Panic isolation: a panicking transaction (workload bug or
                    // an injected `PanicStorm` fault) must not take the worker
                    // thread down with it — OLTP-Bench terminals similarly
                    // survive benchmark-code exceptions. The panic is caught,
                    // the open transaction rolled back (releasing its locks),
                    // and the request counted as a plain failure.
                    match catch_unwind(AssertUnwindSafe(|| {
                        if db.chaos().roll(FaultKind::PanicStorm).is_some() {
                            panic!("injected worker panic (panic_storm)");
                        }
                        workload.execute(txn_idx, &mut conn, &mut rng)
                    })) {
                        Ok(r) => Some(r),
                        Err(payload) => {
                            if conn.in_transaction() {
                                let _ = conn.rollback();
                            }
                            let msg = panic_message(payload.as_ref());
                            db.journal().emit_with(Severity::Error, "core", "worker_panic", || {
                                (
                                    format!("worker survived transaction panic: {msg}"),
                                    vec![
                                        ("txn_type", txn_idx.to_string()),
                                        ("panic", msg.clone()),
                                    ],
                                )
                            });
                            break RequestOutcome::Failed;
                        }
                    }
                };
                let retryable_failure = match attempt {
                    Some(Ok(TxnOutcome::Committed)) => break RequestOutcome::Committed,
                    Some(Ok(TxnOutcome::UserAborted)) => break RequestOutcome::UserAborted,
                    Some(Err(e)) => {
                        // Defensive: the workload must leave the session idle.
                        if conn.in_transaction() {
                            let _ = conn.rollback();
                        }
                        e.is_retryable()
                    }
                    None => {
                        if conn.in_transaction() {
                            let _ = conn.rollback();
                        }
                        true
                    }
                };
                // Deadline, the retry cap, and the cluster-wide retry budget
                // all end the request as Failed.
                let deadline_hit = resilience.deadline_us > 0
                    && clock.now().saturating_sub(start) >= resilience.deadline_us;
                if !retryable_failure || retries >= max_retries || deadline_hit || !budget.take() {
                    break RequestOutcome::Failed;
                }
                retries += 1;
                // Capped exponential backoff with deterministic jitter replaces
                // the old tight retry loop: contending workers spread out
                // instead of re-colliding in lockstep.
                if resilience.backoff_base_us > 0 {
                    clock.sleep(next_backoff(
                        retries - 1,
                        resilience.backoff_base_us,
                        resilience.backoff_cap_us,
                        seed ^ req.seq,
                    ));
                }
            }
        };
        let end = if shed { start } else { clock.now() };
        if record_span {
            bp_obs::set_current_trace(0);
        }

        if let Some(b) = &breaker {
            match outcome {
                RequestOutcome::Shed => {}
                RequestOutcome::Failed => b.on_failure(end),
                _ => b.on_success(),
            }
        }

        stats.record(Sample { txn_type: txn_idx, arrival: req.arrival, start, end, outcome, retries });
        if record_span {
            let (lock_wait_us, commit_us) = bp_obs::take_stage_acc();
            spans.offer(Span {
                trace_id: tid,
                seq: req.seq,
                submitted_us: req.arrival,
                dequeued_us: start,
                end_us: end,
                lock_wait_us,
                commit_us,
                tenant,
                phase: req.phase,
                txn_type: txn_idx.min(u16::MAX as usize) as u16,
                retries: retries.min(u16::MAX as u32) as u16,
                outcome,
            });
        }
        if let Some(t) = &trace {
            t.append(TraceRecord {
                start_us: start,
                latency_us: end - start,
                txn_type: txn_idx,
                outcome,
            });
        }

        let think = state.think_time_us();
        if think > 0 && !shed {
            clock.sleep(think);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::{ArrivalDist, Phase};
    use crate::workload::{BenchmarkClass, LoadSummary, TransactionType};
    use bp_sql::Result as SqlResult;
    use bp_storage::Personality;
    use bp_util::clock::wall_clock;

    /// A trivial but real workload: single-row increments and reads.
    struct CounterWorkload;

    impl Workload for CounterWorkload {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn class(&self) -> BenchmarkClass {
            BenchmarkClass::FeatureTesting
        }
        fn domain(&self) -> &'static str {
            "Testing"
        }
        fn transaction_types(&self) -> Vec<TransactionType> {
            vec![
                TransactionType::new("Read", 50.0, true),
                TransactionType::new("Incr", 50.0, false),
            ]
        }
        fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
            conn.execute_batch("CREATE TABLE c (id INT PRIMARY KEY, v INT);")
        }
        fn load(&self, conn: &mut Connection, scale: f64, _rng: &mut Rng) -> SqlResult<LoadSummary> {
            let n = (10.0 * scale).max(1.0) as i64;
            for i in 0..n {
                conn.execute(
                    "INSERT INTO c VALUES (?, 0)",
                    &[bp_storage::Value::Int(i)],
                )?;
            }
            Ok(LoadSummary { tables: 1, rows: n as u64 })
        }
        fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
            let id = bp_storage::Value::Int(rng.int_range(0, 9));
            conn.begin()?;
            let r = (|| {
                if txn_idx == 0 {
                    conn.query("SELECT v FROM c WHERE id = ?", &[id])?;
                } else {
                    conn.execute("UPDATE c SET v = v + 1 WHERE id = ?", &[id])?;
                }
                Ok(())
            })();
            match r {
                Ok(()) => {
                    conn.commit()?;
                    Ok(TxnOutcome::Committed)
                }
                Err(e) => {
                    if conn.in_transaction() {
                        let _ = conn.rollback();
                    }
                    Err(e)
                }
            }
        }
    }

    fn setup() -> (Arc<Database>, Arc<dyn Workload>) {
        let db = Database::new(Personality::test());
        let w: Arc<dyn Workload> = Arc::new(CounterWorkload);
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 1.0, &mut Rng::new(1)).unwrap();
        (db, w)
    }

    #[test]
    fn throttled_run_delivers_target_rate() {
        let (db, w) = setup();
        let clock = wall_clock();
        let cfg = RunConfig {
            terminals: 4,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(200.0), 2.0)]),
            ..Default::default()
        };
        let handle = start(db, w, clock, cfg);
        let controller = handle.join();
        let done = controller.stats().total_completed();
        // 2 seconds at 200 tps: expect ~400, allow wide margins for CI noise
        // (and the never-exceed property with a small dispatch tolerance).
        assert!((300..=440).contains(&(done as i64)), "completed {done}");
    }

    #[test]
    fn rate_change_via_controller_takes_effect() {
        let (db, w) = setup();
        let clock = wall_clock();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(50.0), 10.0)]),
            ..Default::default()
        };
        let handle = start(db, w, clock, cfg);
        std::thread::sleep(std::time::Duration::from_millis(1100));
        let before = handle.controller.stats().total_completed();
        handle.controller.set_rate(Rate::Limited(400.0));
        std::thread::sleep(std::time::Duration::from_millis(2000));
        let after = handle.controller.stats().total_completed();
        handle.controller.stop();
        handle.join();
        let delta = after - before;
        assert!(delta > 350, "rate change not applied: {delta} in 2s");
    }

    #[test]
    fn pause_blocks_execution() {
        let (db, w) = setup();
        let clock = wall_clock();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(200.0), 10.0)]),
            ..Default::default()
        };
        let handle = start(db, w, clock, cfg);
        std::thread::sleep(std::time::Duration::from_millis(500));
        handle.controller.pause();
        std::thread::sleep(std::time::Duration::from_millis(200));
        let before = handle.controller.stats().total_completed();
        std::thread::sleep(std::time::Duration::from_millis(500));
        let after = handle.controller.stats().total_completed();
        assert_eq!(before, after, "work executed while paused");
        handle.controller.resume();
        std::thread::sleep(std::time::Duration::from_millis(500));
        let resumed = handle.controller.stats().total_completed();
        assert!(resumed > after, "did not resume");
        handle.controller.stop();
        handle.join();
    }

    #[test]
    fn mixture_swap_changes_sampled_types() {
        let (db, w) = setup();
        let clock = wall_clock();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![
                Phase::new(Rate::Limited(300.0), 10.0).with_weights(vec![100.0, 0.0]),
            ]),
            ..Default::default()
        };
        let handle = start(db, w, clock, cfg);
        std::thread::sleep(std::time::Duration::from_millis(800));
        // All reads so far.
        let summary = handle.controller.stats().per_type_summary();
        assert!(summary[1].count == 0, "writes before switch: {}", summary[1].count);
        handle.controller.set_mixture(vec![0.0, 100.0]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(800));
        let summary = handle.controller.stats().per_type_summary();
        assert!(summary[1].count > 0, "no writes after switch");
        handle.controller.stop();
        handle.join();
    }

    #[test]
    fn script_end_stops_run() {
        let (db, w) = setup();
        let clock = wall_clock();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 0.5)]),
            ..Default::default()
        };
        let handle = start(db, w, clock, cfg);
        let controller = handle.join();
        assert!(controller.is_stopped());
    }

    #[test]
    fn trace_collected() {
        let (db, w) = setup();
        let clock = wall_clock();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 1.0)]),
            collect_trace: true,
            ..Default::default()
        };
        let handle = start(db, w, clock, cfg);
        let trace = handle.trace.clone().unwrap();
        handle.join();
        assert!(trace.len() > 50, "trace has {} records", trace.len());
    }

    #[test]
    fn spans_full_mode_matches_stats_counts() {
        let (db, w) = setup();
        let clock = wall_clock();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(300.0), 1.0)]),
            ..Default::default()
        };
        let handle = start(db, w, clock, cfg);
        let spans = handle.spans.clone();
        let controller = handle.join();
        let completed = controller.stats().total_completed();
        assert_eq!(spans.recorded(), completed, "full mode records every request");
        let sums = spans.stage_summaries();
        assert_eq!(sums[0].count, completed);
        // Spans carry the workload's txn types and real timestamps.
        let recent = spans.recent(10);
        assert!(!recent.is_empty());
        assert!(recent.iter().all(|s| s.txn_type < 2 && s.end_us >= s.dequeued_us));
    }

    #[test]
    fn span_modes_agree_on_aggregates() {
        let (db, w) = setup();
        let clock = wall_clock();
        let script = PhaseScript::new(vec![Phase::new(Rate::Limited(400.0), 1.0)]);

        // Off: stats still complete, zero spans.
        let cfg = RunConfig {
            terminals: 2,
            script: script.clone(),
            obs: bp_obs::ObsConfig { mode: bp_obs::SpanMode::Off, ..Default::default() },
            ..Default::default()
        };
        let handle = start(db.clone(), w.clone(), clock.clone(), cfg);
        let spans = handle.spans.clone();
        let completed_off = handle.join().stats().total_completed();
        assert!(completed_off > 100, "off-mode run completed {completed_off}");
        assert_eq!(spans.recorded(), 0, "off mode records nothing");

        // Sampled: recorded/completed within tolerance of the ratio.
        let cfg = RunConfig {
            terminals: 2,
            script,
            obs: bp_obs::ObsConfig {
                mode: bp_obs::SpanMode::Sampled,
                sample_ratio: 0.5,
                ..Default::default()
            },
            ..Default::default()
        };
        let handle = start(db, w, clock, cfg);
        let spans = handle.spans.clone();
        let completed = handle.join().stats().total_completed();
        let observed = spans.recorded() as f64 / completed as f64;
        assert!(
            (0.3..=0.7).contains(&observed),
            "sampled ratio {observed} too far from 0.5 ({} of {completed})",
            spans.recorded()
        );
    }

    #[test]
    fn worker_survives_injected_panics() {
        use bp_chaos::{FaultPlan, FaultWindow};
        let (db, w) = setup();
        let clock = wall_clock();
        // Every transaction panics its worker mid-execution for the whole
        // run. The workers must survive (isolation), count the requests as
        // failures, and journal each panic.
        db.chaos().arm(
            FaultPlan::new("storm", 7)
                .with_window(FaultWindow::always(bp_chaos::FaultKind::PanicStorm, 1.0, 0)),
        );
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(60.0), 0.5)]),
            ..Default::default()
        };
        let handle = start(db.clone(), w, clock, cfg);
        let controller = handle.join();
        db.chaos().disarm();
        let status = controller.stats().status(60);
        assert_eq!(status.committed, 0, "every attempt panicked");
        assert!(status.failed > 0, "panics counted as failures");
        let panics = db
            .journal()
            .all()
            .iter()
            .filter(|e| e.kind == "worker_panic")
            .count();
        assert!(panics > 0, "worker_panic events journaled");
        assert!(panics as u64 >= status.failed, "one journal event per panic");
    }

    #[test]
    fn phase_transition_applies_new_weights() {
        let (db, w) = setup();
        let clock = wall_clock();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![
                Phase::new(Rate::Limited(200.0), 1.0).with_weights(vec![100.0, 0.0]),
                Phase::new(Rate::Limited(200.0), 1.0)
                    .with_weights(vec![0.0, 100.0])
                    .with_arrival(ArrivalDist::Exponential),
            ]),
            ..Default::default()
        };
        let handle = start(db, w, clock, cfg);
        let controller = handle.join();
        let summary = controller.stats().per_type_summary();
        assert!(summary[0].count > 0, "phase 1 reads missing");
        assert!(summary[1].count > 0, "phase 2 writes missing");
    }
}
