//! Bench E3 (§2.2.1): rate-control machinery — arrival generation, the
//! centralized queue's gated dispatch, DES shape tracking, and the
//! completion-path statistics hot path. Plain `fn main()` harness
//! (hermetic build — no criterion).

use std::hint::black_box;
use std::sync::Arc;

use bp_bench::simulate_shape;
use bp_bench::timing::{group, Bencher};
use bp_core::{ArrivalDist, RequestOutcome, RequestQueue, Sample, StatsCollector};
use bp_util::clock::{sim_clock, wall_clock, MICROS_PER_SEC};
use bp_util::rng::Rng;

fn bench_arrival_offsets(b: &mut Bencher) {
    group("arrival_offsets");
    for n in [100usize, 1_000, 10_000] {
        let mut rng = Rng::new(1);
        b.bench(&format!("uniform/{n}"), move || {
            black_box(ArrivalDist::Uniform.offsets(n, &mut rng))
        });
        let mut rng = Rng::new(1);
        b.bench(&format!("exponential/{n}"), move || {
            black_box(ArrivalDist::Exponential.offsets(n, &mut rng))
        });
    }
}

fn bench_queue_dispatch(b: &mut Bencher) {
    group("queue_dispatch");
    b.bench("queue_push_pull_1k", || {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.push_arrivals(0..1_000u64);
        sim.advance_to(2_000);
        let mut n = 0;
        while q.try_pull().is_some() {
            n += 1;
        }
        black_box(n)
    });
    b.bench("queue_gated_drain_1k", || {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.set_rate(1_000_000.0); // 1µs spacing
        q.push_arrivals(0..1_000u64);
        let mut n = 0;
        while n < 1_000 {
            sim.advance(1);
            while q.try_pull().is_some() {
                n += 1;
            }
        }
        black_box(n)
    });
}

/// Two threads drain an overdue backlog through the blocking `pull` on the
/// wall clock, gated at 100k tx/s: the real worker path, including how the
/// gate is waited for. On target a dispatch takes 10,000 ns; the SimClock
/// `queue_dispatch` benches above cannot see wake-up lateness.
fn bench_queue_wallclock(b: &mut Bencher) {
    group("queue_wallclock");
    const N: u64 = 20_000;
    let r = b.bench("queue_wallclock_gated_100k", || {
        let q = Arc::new(RequestQueue::new(wall_clock()));
        q.set_rate(100_000.0);
        q.push_arrivals((0..N).map(|_| 0));
        let pullers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    while q.pull(MICROS_PER_SEC).is_some() {
                        if q.backlog() == 0 {
                            q.close();
                        }
                    }
                })
            })
            .collect();
        for p in pullers {
            p.join().unwrap();
        }
        black_box(q.dispatched())
    });
    let per_dispatch = r.best_ns / N as f64;
    println!("{:<44} {per_dispatch:>9.0} ns/dispatch (best)", "queue_wallclock_gated_100k");
}

/// The completion path: one `StatsCollector::record` per finished
/// transaction. Reported single-threaded (pure per-record cost) and from
/// multiple recording threads (contention behavior of the sharded layout).
fn bench_stats_completion_path(b: &mut Bencher) {
    group("stats_completion_path");
    let (_, clock) = sim_clock();
    let stats = StatsCollector::new(clock, &["read", "write"]);
    let mut i = 0u64;
    b.bench("stats_record_single_thread", || {
        i += 1;
        stats.record(Sample {
            txn_type: (i % 2) as usize,
            arrival: i * 10,
            start: i * 10 + 5,
            end: i * 10 + 500,
            outcome: RequestOutcome::Committed,
            retries: 0,
        });
    });

    // Multi-threaded: fixed work divided among recording threads; one
    // iteration spawns the threads and records `threads × per_thread`
    // samples into one shared collector. The `1shard` variants reproduce
    // the pre-sharding layout (one global mutex) for direct comparison.
    for threads in [2usize, 4, 8] {
        let per_thread = 100_000u64;
        for (label, shards) in [("sharded", 0usize), ("1shard", 1)] {
            b.bench(&format!("stats_record_{threads}threads_{label}"), move || {
                let (_, clock) = sim_clock();
                let stats = Arc::new(if shards == 0 {
                    StatsCollector::new(clock, &["read", "write"])
                } else {
                    StatsCollector::with_shards(clock, &["read", "write"], shards)
                });
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let stats = stats.clone();
                        std::thread::spawn(move || {
                            for i in 0..per_thread {
                                stats.record(Sample {
                                    txn_type: t % 2,
                                    arrival: i * 10,
                                    start: i * 10 + 5,
                                    end: i * 10 + 500,
                                    outcome: RequestOutcome::Committed,
                                    retries: 0,
                                });
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
                black_box(stats.total_completed())
            });
        }
    }
}

/// Figure-style series: simulate each challenge shape on the model DBMS
/// (this is what regenerates the §4.1.2 target-vs-delivered curves).
fn bench_shape_tracking(b: &mut Bencher) {
    group("shape_tracking_des");
    for shape in ["steps", "sin", "peak", "tunnel"] {
        b.bench(&format!("mysql/{shape}"), || {
            black_box(simulate_shape("mysql", shape, 60.0))
        });
    }
}

fn main() {
    let mut b = Bencher::new();
    bench_arrival_offsets(&mut b);
    bench_queue_dispatch(&mut b);
    bench_queue_wallclock(&mut b);
    bench_stats_completion_path(&mut b);
    bench_shape_tracking(&mut b);
}
