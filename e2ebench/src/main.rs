//! End-to-end and per-layer benchmark of the BenchPress driver.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload ycsb|tpcc|noop --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is an open loop through the public driver
//! (`bp_core::start`): requests fall due on the driver's own uniform
//! schedule whether or not earlier ones have finished. Every workload runs
//! on `Personality::test()` (`DelayMode::None`), so no simulated engine
//! cost appears in any number, and on `RunConfig::default()` apart from the
//! terminals, the phase script and the seed.
//!
//! `--trace 0` prints the end-to-end metrics: the invocation makes
//! [`SUB_RUNS`] plain runs, each in a child process of its own (so each has
//! its own heap and peak memory) on a freshly loaded database, and reports
//! each metric's median. `--trace 1` makes a plain and a traced run of half
//! the time each, each on a fresh database, and prints the per-layer
//! metrics of the traced one plus the tracing overhead. The last line of
//! standard output is one JSON object with the result.

mod checks;
mod probes;
mod tracer;

use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bp_core::{Phase, PhaseScript, Rate, RunConfig, Workload};
use bp_obs::Stage;
use bp_sql::Connection;
use bp_storage::{Database, MetricsSnapshot, Personality};
use bp_util::clock::wall_clock;
use bp_util::histogram::Histogram;
use bp_util::json::Json;
use bp_util::rng::Rng;

use checks::Check;
use tracer::{percentile, Noop, Timed, TracerReport};

/// Worker threads: the size of the box the benchmark was sized on.
const TERMINALS: usize = 2;

/// A plain invocation splits its time over this many runs and reports the
/// median of each metric. The host's speed drifts by tens of percent over
/// seconds; a median over independent runs keeps one slow stretch from
/// moving a figure.
const SUB_RUNS: u64 = 5;

/// Before a run, set-up is repeated until this much time has passed (at
/// least once); the run's `setup_s` is the median.
const SETUP_MIN_TIME: Duration = Duration::from_millis(200);

/// The end-to-end metrics with their units, in print order.
const END_TO_END: [(&str, &str); 7] = [
    ("committed_tps", "1/s"),
    ("delivered_ratio", "ratio"),
    ("txn_p50_us", "us"),
    ("txn_p99_us", "us"),
    ("success_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Sub-bucket bits of the driver's own latency histograms.
const DRIVER_BUCKET_BITS: u32 = 5;

/// One benchmark workload: which `Workload`, at what size and rate.
struct Spec {
    name: &'static str,
    scale: f64,
    rate: f64,
    make: fn() -> Arc<dyn Workload>,
    /// Listed in `BENCHMARK.json`. An unlisted workload still runs, with
    /// its checks, when named on the command line.
    listed: bool,
}

const SPECS: [Spec; 3] = [
    // YCSB default mixture; scale 100 = 100k rows, more than the 65,536-row
    // buffer pool, while the 1,000-key zipfian hot set fits.
    Spec {
        name: "ycsb",
        scale: 100.0,
        rate: 20_000.0,
        make: || Arc::new(bp_workloads::ycsb::Ycsb::new()),
        listed: true,
    },
    // TPC-C default mixture, 2 warehouses: writes, growing scans, lock
    // conflicts. Not listed: `Session::insert` takes the new row's lock
    // before it records the undo, so a lock failure on a reused rowid
    // leaves the row behind after rollback. Orphan `new_order` rows then
    // fail later NewOrders with duplicate keys, and an orphan `orders` row
    // fails TPC-C condition 2 (see README.md). List it once that is fixed.
    Spec {
        name: "tpcc",
        scale: 2.0,
        rate: 2_000.0,
        make: || Arc::new(bp_workloads::tpcc::Tpcc::new()),
        listed: false,
    },
    // The driver alone.
    Spec {
        name: "noop",
        scale: 1.0,
        rate: 100_000.0,
        make: || Arc::new(Noop),
        listed: true,
    },
];

/// What an invocation does.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// End-to-end metrics: the median over [`SUB_RUNS`] child processes.
    Plain,
    /// Per-layer metrics.
    Traced,
    /// One plain run in this process (`--sub-run 1`, used by `Plain`).
    SubRun,
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut sub_run) =
        (None, None, None, None, false);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let flag_on = || match value.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("{flag} must be 0 or 1, not {other}")),
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(flag_on()?),
            "--sub-run" => sub_run = flag_on()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("unknown workload {workload} (ycsb, tpcc, noop)"))?;
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, not {seconds}"));
    }
    let mode = match (trace.ok_or("missing --trace")?, sub_run) {
        (true, _) => Mode::Traced,
        (false, true) => Mode::SubRun,
        (false, false) => Mode::Plain,
    };
    Ok(Args {
        spec,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        mode,
    })
}

/// A loaded database and the workload instance that loaded it (YCSB keeps
/// its row count in the instance).
struct Loaded {
    db: Arc<Database>,
    workload: Arc<dyn Workload>,
}

/// Schema creation plus data load on a fresh engine.
fn set_up(spec: &Spec, seed: u64) -> (Loaded, f64) {
    let t = Instant::now();
    let db = Database::new(Personality::test());
    let workload = (spec.make)();
    workload
        .setup(&mut Connection::open(&db), spec.scale, &mut Rng::new(seed))
        .expect("workload loads");
    (Loaded { db, workload }, t.elapsed().as_secs_f64())
}

/// Set-up repeated for [`SETUP_MIN_TIME`]: the last database and the
/// median time.
fn set_up_repeated(spec: &Spec, seed: u64) -> (Loaded, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut rng = Rng::new(seed);
    loop {
        // A spacer of varying size moves each repetition's allocations to
        // other addresses. Without it a sub-microsecond set-up (`noop`)
        // reuses one block for every repetition and runs at one of two
        // speeds, fixed for the process by where that block landed.
        let _spacer = vec![0u8; rng.index(1 << 16)];
        let (loaded, secs) = set_up(spec, seed);
        times.push(secs);
        if start.elapsed() >= SETUP_MIN_TIME {
            return (loaded, median(times));
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What one driver run produced.
struct RunResult {
    seconds: f64,
    committed: u64,
    user_aborted: u64,
    failed: u64,
    shed: u64,
    requested: u64,
    completed: u64,
    lag: Histogram,
    tracer: TracerReport,
    engine: MetricsSnapshot,
    /// Backlog once a second, as (seconds since start, requests).
    backlog: Vec<(f64, f64)>,
    checks: Vec<(&'static str, Check)>,
}

impl RunResult {
    fn committed_tps(&self) -> f64 {
        self.committed as f64 / self.seconds
    }
    fn txn_us(&self, pct: f64) -> f64 {
        percentile(&self.tracer.all, tracer::NS_BUCKET_BITS, pct) / 1e3
    }
    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, c)| c.is_ok())
    }
}

/// One open-loop run of `seconds` at the workload's rate on a loaded
/// database. With `sample_backlog`, the calling thread samples
/// `Controller::backlog()` once a second while the run lasts.
fn run(spec: &Spec, loaded: &Loaded, seed: u64, seconds: f64, sample_backlog: bool) -> RunResult {
    let db = loaded.db.clone();
    let timed = Arc::new(Timed::new(loaded.workload.clone()));
    let cfg = RunConfig {
        terminals: TERMINALS,
        script: PhaseScript::new(vec![Phase::new(Rate::Limited(spec.rate), seconds)]),
        seed,
        ..RunConfig::default()
    };
    let before = db.metrics().snapshot();
    let t0 = Instant::now();
    let handle = bp_core::start(db.clone(), timed.clone(), wall_clock(), cfg);
    let mut backlog = Vec::new();
    if sample_backlog {
        for tick in 1.. {
            let due = t0 + Duration::from_secs(tick);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            if handle.controller.is_stopped() {
                break;
            }
            backlog.push((
                t0.elapsed().as_secs_f64(),
                handle.controller.backlog() as f64,
            ));
        }
    }
    let lag_recorder = handle.spans.clone();
    let controller = handle.join();
    let engine = db.metrics().snapshot().delta(&before);

    let status = controller.stats().status(1);
    let completed: f64 = controller.stats().throughput_series().iter().sum();
    let requested: f64 = controller.stats().requested_series().iter().sum();
    let (completed, requested) = (completed as u64, requested as u64);
    let mut checks = vec![(
        "accounting",
        checks::accounting(
            requested,
            completed,
            status.shed,
            controller.backlog() as u64,
        ),
    )];
    match spec.name {
        "ycsb" => checks.push((
            "commits",
            checks::commits_match(status.committed, engine.commits),
        )),
        "tpcc" => checks.push(("tpcc_consistency", checks::tpcc_consistency(&db))),
        _ => {}
    }
    RunResult {
        seconds,
        committed: status.committed,
        user_aborted: status.user_aborted,
        failed: status.failed,
        shed: status.shed,
        requested,
        completed,
        lag: lag_recorder.stage_histograms()[Stage::Queue as usize].clone(),
        tracer: timed.report(),
        engine,
        backlog,
        checks,
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Least-squares slope of `(x, y)` points; 0 with fewer than two.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metrics in print order: (name, value, unit).
type Metrics = Vec<(String, f64, &'static str)>;

/// End-to-end metrics of one run, in [`END_TO_END`] order.
fn end_to_end(r: &RunResult, setup_s: f64) -> Metrics {
    let ended = (r.committed + r.user_aborted + r.failed) as f64;
    let values = [
        r.committed_tps(),
        ratio(r.completed as f64, r.requested as f64),
        r.txn_us(50.0),
        r.txn_us(99.0),
        ratio((r.committed + r.user_aborted) as f64, ended),
        setup_s,
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect()
}

fn per_layer(
    spec: &Spec,
    r: &RunResult,
    plain: &RunResult,
    db: &Arc<Database>,
    seed: u64,
) -> Metrics {
    let t = &r.tracer;
    let e = &r.engine;
    let commits = e.commits as f64;
    let ns = tracer::NS_BUCKET_BITS;
    let mut m: Metrics = vec![
        (
            "core.lag_p50_us".into(),
            percentile(&r.lag, DRIVER_BUCKET_BITS, 50.0),
            "us",
        ),
        (
            "core.lag_p99_us".into(),
            percentile(&r.lag, DRIVER_BUCKET_BITS, 99.0),
            "us",
        ),
        ("core.lag_samples".into(), r.lag.count() as f64, "count"),
        (
            "core.worker_gap_p50_us".into(),
            percentile(&t.gap, ns, 50.0) / 1e3,
            "us",
        ),
        (
            "core.worker_gap_p99_us".into(),
            percentile(&t.gap, ns, 99.0) / 1e3,
            "us",
        ),
        (
            "core.worker_busy_share".into(),
            t.busy_ns as f64 / (TERMINALS as f64 * r.seconds * 1e9),
            "ratio",
        ),
        ("core.backlog_growth_per_s".into(), slope(&r.backlog), "1/s"),
        (
            "core.attempts_per_request".into(),
            ratio(t.calls as f64, r.completed as f64),
            "ratio",
        ),
        (
            "core.stats_record_ns".into(),
            probes::stats_record_ns(),
            "ns",
        ),
        (
            "core.trace_append_ns".into(),
            probes::trace_append_ns(),
            "ns",
        ),
        ("obs.span_offer_ns".into(), probes::span_offer_ns(), "ns"),
    ];
    // Every listed engine workload's types, so each listed workload's
    // traced run reports the same names; `noop` has one type and no engine
    // work to split. An unlisted workload adds its own.
    let engine_specs = SPECS
        .iter()
        .filter(|s| s.name != "noop" && (s.listed || s.name == spec.name));
    for other in engine_specs {
        for (i, txn) in (other.make)().transaction_types().iter().enumerate() {
            let h = t.per_type.get(i).filter(|_| other.name == spec.name);
            let (p50, p99, calls) = h.map_or((0.0, 0.0, 0.0), |h| {
                (
                    percentile(h, ns, 50.0) / 1e3,
                    percentile(h, ns, 99.0) / 1e3,
                    h.count() as f64,
                )
            });
            let name = format!("workloads.{}.{}", other.name, txn.name);
            m.push((format!("{name}.p50_us"), p50, "us"));
            m.push((format!("{name}.p99_us"), p99, "us"));
            m.push((format!("{name}.calls"), calls, "count"));
        }
    }
    m.push((
        "workloads.error_share".into(),
        ratio(t.errors as f64, t.calls as f64),
        "ratio",
    ));

    let hot = probes::hot_statement(spec.name, seed, db);
    let (parse, query, prepared) = hot
        .as_ref()
        .map_or((0.0, 0.0, 0.0), |h| probes::sql_us(db, h));
    let (point_read, update_commit) = hot
        .as_ref()
        .map_or((0.0, 0.0), |h| probes::storage_us(db, h));
    m.extend([
        ("sql.parse_us".into(), parse, "us"),
        ("sql.query_us".into(), query, "us"),
        ("sql.prepared_us".into(), prepared, "us"),
        (
            "sql.rows_read_per_commit".into(),
            ratio(e.rows_read as f64, commits),
            "rows",
        ),
        (
            "storage.abort_ratio".into(),
            ratio(e.aborts as f64, (e.commits + e.aborts) as f64),
            "ratio",
        ),
        (
            "storage.deadlocks_per_1k_commits".into(),
            ratio(e.deadlocks as f64 * 1e3, commits),
            "count",
        ),
        (
            "storage.lock_wait_us_per_commit".into(),
            ratio(e.lock_wait_micros as f64, commits),
            "us",
        ),
        (
            "storage.wal_bytes_per_commit".into(),
            ratio(e.wal_bytes as f64, commits),
            "B",
        ),
        (
            "storage.rows_written_per_commit".into(),
            ratio(e.rows_written as f64, commits),
            "rows",
        ),
        ("storage.buf_hit_ratio".into(), e.hit_ratio(), "ratio"),
        ("storage.point_read_us".into(), point_read, "us"),
        ("storage.update_commit_us".into(), update_commit, "us"),
        (
            "trace.overhead_committed_tps".into(),
            plain.committed_tps() - r.committed_tps(),
            "1/s",
        ),
        (
            "trace.overhead_txn_p50_us".into(),
            r.txn_us(50.0) - plain.txn_us(50.0),
            "us",
        ),
    ]);
    m
}

fn print_run(label: &str, r: &RunResult) {
    let ended = (r.committed + r.user_aborted + r.failed) as f64;
    println!(
        "{label}: requested {} completed {} committed {} user_aborted {} failed {} shed {} \
         failed_ratio {:.6} execute_calls {} execute_errors {} non_retryable {} \
         lag_p50_us {:.1} lag_p99_us {:.1} lag_samples {}",
        r.requested,
        r.completed,
        r.committed,
        r.user_aborted,
        r.failed,
        r.shed,
        ratio(r.failed as f64, ended),
        r.tracer.calls,
        r.tracer.errors,
        r.tracer.fatal,
        percentile(&r.lag, DRIVER_BUCKET_BITS, 50.0),
        percentile(&r.lag, DRIVER_BUCKET_BITS, 99.0),
        r.lag.count()
    );
    for (name, check) in &r.checks {
        match check {
            Ok(()) => println!("{label}: check {name} ok"),
            Err(why) => println!("{label}: check {name} FAILED: {why}"),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = args.spec;
    println!(
        "e2ebench: workload {} seed {} seconds {} trace {} terminals {} rate {}/s cpus {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.mode == Mode::Traced),
        TERMINALS,
        spec.rate,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let outcome = match args.mode {
        Mode::Plain => plain(&args),
        Mode::Traced => Ok(traced(&args)),
        Mode::SubRun => Ok(sub_run(&args)),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &outcome.metrics {
        println!("{name} = {value} {unit}");
    }
    let mut metrics = Json::obj();
    for (name, value, unit) in &outcome.metrics {
        metrics = metrics.set(name, Json::obj().set("value", *value).set("unit", *unit));
    }
    let result = Json::obj()
        .set("correct", outcome.correct)
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("metrics", metrics);
    println!("{result}");
    ExitCode::SUCCESS
}

/// An invocation's result.
struct Outcome {
    metrics: Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn of(metrics: Metrics, runs: &[RunResult]) -> Outcome {
        Outcome {
            metrics,
            correct: runs.iter().all(RunResult::correct),
            attempted: runs.iter().map(|r| r.completed + r.shed).sum(),
            failed: runs.iter().map(|r| r.failed).sum(),
        }
    }
}

fn sub_run(args: &Args) -> Outcome {
    let (loaded, setup_s) = set_up_repeated(args.spec, args.seed);
    let r = run(args.spec, &loaded, args.seed, args.seconds as f64, false);
    print_run("run", &r);
    Outcome::of(end_to_end(&r, setup_s), &[r])
}

fn traced(args: &Args) -> Outcome {
    // Half the time each (whole seconds: the driver schedules a second at a
    // time), so a traced invocation takes as long as a plain one.
    let (spec, seed) = (args.spec, args.seed);
    let half = args.seconds.div_ceil(2) as f64;
    let (loaded, _) = set_up(spec, seed);
    let plain = run(spec, &loaded, seed, half, false);
    drop(loaded);
    let (loaded, _) = set_up(spec, seed);
    let traced = run(spec, &loaded, seed, half, true);
    print_run("plain", &plain);
    print_run("traced", &traced);
    let metrics = per_layer(spec, &traced, &plain, &loaded.db, seed);
    Outcome::of(metrics, &[plain, traced])
}

/// [`SUB_RUNS`] sub-runs in child processes; each metric's median.
fn plain(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let seconds = args.seconds.div_ceil(SUB_RUNS).to_string();
    let seed = args.seed.to_string();
    let mut results = Vec::new();
    for i in 0..SUB_RUNS {
        let out = Command::new(&exe)
            .args([
                "--workload",
                args.spec.name,
                "--seed",
                &seed,
                "--seconds",
                &seconds,
            ])
            .args(["--trace", "0", "--sub-run", "1"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("sub-run {i}: {e}"))?;
        if !out.status.success() {
            return Err(format!("sub-run {i} exited with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines
            .pop()
            .ok_or_else(|| format!("sub-run {i} printed nothing"))?;
        for line in lines {
            println!("sub-run {i}: {line}");
        }
        results.push(Json::parse(last).map_err(|e| format!("sub-run {i} result: {e}"))?);
    }
    let number = |r: &Json, key: &str| r.get(key).and_then(Json::as_f64);
    let value = |r: &Json, name: &str| {
        r.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| number(m, "value"))
    };
    let mut metrics = Metrics::new();
    for (name, unit) in END_TO_END {
        let values: Option<Vec<f64>> = results.iter().map(|r| value(r, name)).collect();
        let values = values.ok_or_else(|| format!("a sub-run did not report {name}"))?;
        metrics.push((name.to_string(), median(values), unit));
    }
    let sum = |key: &str| results.iter().filter_map(|r| number(r, key)).sum::<f64>() as u64;
    Ok(Outcome {
        metrics,
        correct: results
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true)),
        attempted: sum("attempted"),
        failed: sum("failed"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_and_median() {
        let line: Vec<(f64, f64)> = (0..5).map(|t| (t as f64, 3.0 * t as f64 + 1.0)).collect();
        assert!((slope(&line) - 3.0).abs() < 1e-9);
        assert_eq!(slope(&line[..1]), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
