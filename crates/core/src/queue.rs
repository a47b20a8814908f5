//! The centralized request queue (§2.1, §2.2.1).
//!
//! "Using a centralized queue allows us to control the throughput from one
//! location without needing to coordinate the multiple threads."
//!
//! The Workload Manager pushes timestamped arrivals; workers pull. Two rules
//! give the paper's *never-exceed* guarantee:
//!
//! 1. a request may not be dispatched before its scheduled arrival time, and
//! 2. dispatches are additionally gated to the current target spacing, so a
//!    backlog drains at the target rate instead of bursting ("the remainder
//!    is postponed in such a way that the framework never exceeds the
//!    target rate").

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bp_util::sync::{Condvar, Mutex};

use bp_util::clock::{Micros, SharedClock};

/// One work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Scheduled arrival time (µs since run start).
    pub arrival: Micros,
    /// Sequence number (for tracing).
    pub seq: u64,
    /// Transaction type, pinned at generation time. Sampling the mixture on
    /// the manager thread (not in workers) is what makes a schedule a pure
    /// function of the seed: worker pull order can no longer change which
    /// request gets which type, so a recorded schedule replays byte-for-byte.
    pub txn_type: u16,
    /// Phase index active when the request was generated.
    pub phase: u16,
}

/// One pre-planned request inside a `ScheduleSource` window: arrival offset
/// relative to the window start plus the pinned transaction type and phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledRequest {
    pub offset_us: Micros,
    pub txn_type: u16,
    pub phase: u16,
}

/// Nanoseconds per microsecond: the gate runs in nanos so fractional
/// µs spacings (any rate above ~1k tx/s) are not truncated away.
const NANOS_PER_MICRO: u64 = 1_000;

/// How close to the gate a blocking `pull` stops sleeping and spins.
/// A short timed wait on Linux overshoots by the default 50 µs timer slack
/// plus wake-up cost (~55–66 µs measured), so a sleep aimed at the gate
/// itself lands one overshoot late; a sleep aimed `SPIN_NS` early lands
/// before it and the last stretch is spun on the clock.
const SPIN_NS: u64 = 100_000;

#[derive(Debug, Default)]
struct QueueState {
    queue: VecDeque<Request>,
    /// Earliest time the next dispatch may happen (rate gate), in nanos.
    next_dispatch_ns: u64,
    /// Schedule anchor of the most recent dispatch (nanos). `None` until
    /// the first dispatch so a `set_rate` during setup cannot delay the
    /// run's very first request by one spacing.
    last_gate_ns: Option<u64>,
    /// A puller is busy-spinning towards the gate (at most one per queue).
    spinning: bool,
    closed: bool,
}

impl QueueState {
    /// When the head may dispatch (nanos): its arrival, held back by the
    /// rate gate. `None` when the queue is empty.
    fn head_gate_ns(&self) -> Option<u64> {
        let head = self.queue.front()?;
        Some((head.arrival * NANOS_PER_MICRO).max(self.next_dispatch_ns))
    }
}

/// The central request queue.
pub struct RequestQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    clock: SharedClock,
    /// Current dispatch spacing in nanos (0 = no gating, i.e. unlimited).
    spacing_ns: AtomicU64,
    seq: AtomicU64,
    /// `state.queue.len()`, written under the lock and read without it, so
    /// the backlog readers (breaker admission, telemetry, the manager) stay
    /// off the mutex the gate takes on every dispatch.
    len: AtomicUsize,
    dispatched: AtomicU64,
    /// Cumulative scheduled-arrival → dispatch wait across all dispatches
    /// (µs). With `dispatched` this gives the mean queue wait without
    /// merging any histogram — the cheap signal the metrics registry and
    /// saturation checks read.
    queue_wait_us: AtomicU64,
}

impl RequestQueue {
    pub fn new(clock: SharedClock) -> RequestQueue {
        RequestQueue {
            state: Mutex::new(QueueState::default()),
            cond: Condvar::new(),
            clock,
            spacing_ns: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            dispatched: AtomicU64::new(0),
            queue_wait_us: AtomicU64::new(0),
        }
    }

    /// Update the dispatch gate for a new target rate (requests/second).
    ///
    /// The gate is re-anchored to the last dispatch's schedule point under
    /// the *new* spacing: stepping the rate down immediately pushes
    /// `next_dispatch` back (no overshoot burst under stale spacing right
    /// after a downward adjustment — the SLO controller depends on this),
    /// and stepping it up pulls the gate forward.
    pub fn set_rate(&self, tps: f64) {
        let spacing = if tps <= 0.0 || !tps.is_finite() {
            0
        } else {
            ((1_000_000_000.0 / tps).round() as u64).max(1)
        };
        self.spacing_ns.store(spacing, Ordering::Relaxed);
        let mut st = self.state.lock();
        st.next_dispatch_ns = match st.last_gate_ns {
            Some(gate) if spacing > 0 => gate.saturating_add(spacing),
            _ => 0,
        };
        drop(st);
        self.cond.notify_all();
    }

    /// Enqueue arrivals (already stamped with absolute times). Requests get
    /// type/phase 0 — used by benches and tests that bypass the manager.
    pub fn push_arrivals(&self, arrivals: impl IntoIterator<Item = Micros>) {
        self.push(arrivals.into_iter().map(|arrival| (arrival, 0, 0)));
    }

    /// Enqueue a schedule window: offsets are relative to `base` and each
    /// request carries its pinned transaction type and phase.
    pub fn push_scheduled(&self, base: Micros, reqs: impl IntoIterator<Item = ScheduledRequest>) {
        self.push(reqs.into_iter().map(|r| (base + r.offset_us, r.txn_type, r.phase)));
    }

    fn push(&self, reqs: impl Iterator<Item = (Micros, u16, u16)>) {
        let mut st = self.state.lock();
        for (arrival, txn_type, phase) in reqs {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            st.queue.push_back(Request { arrival, seq, txn_type, phase });
        }
        self.len.store(st.queue.len(), Ordering::Relaxed);
        drop(st);
        self.cond.notify_all();
    }

    /// Number of requests waiting (the backlog). Lock-free.
    pub fn backlog(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Total requests ever dispatched.
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Cumulative arrival→dispatch wait over all dispatches (µs).
    pub fn total_queue_wait_us(&self) -> u64 {
        self.queue_wait_us.load(Ordering::Relaxed)
    }

    /// Mean arrival→dispatch wait (µs); 0 before the first dispatch.
    pub fn mean_queue_wait_us(&self) -> f64 {
        let n = self.dispatched();
        if n == 0 {
            0.0
        } else {
            self.total_queue_wait_us() as f64 / n as f64
        }
    }

    /// Remove all pending requests (rate drop / phase reset), returning how
    /// many were discarded.
    pub fn drain(&self) -> usize {
        let mut st = self.state.lock();
        let n = st.queue.len();
        st.queue.clear();
        self.len.store(0, Ordering::Relaxed);
        n
    }

    /// Close the queue: pullers get `None` once empty.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.cond.notify_all();
    }

    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    fn now_ns(&self) -> u64 {
        self.clock.now() * NANOS_PER_MICRO
    }

    /// Pop the head if its gate is open at `now_ns` and advance the gate.
    /// `pull` and `try_pull` both dispatch through here, so the SimClock
    /// gate tests pin exactly the code the worker threads run.
    fn dispatch_head(&self, st: &mut QueueState, now_ns: u64) -> Option<Request> {
        let gate_ns = st.head_gate_ns().filter(|&gate| now_ns >= gate)?;
        let req = st.queue.pop_front()?;
        self.len.store(st.queue.len(), Ordering::Relaxed);
        let spacing = self.spacing_ns.load(Ordering::Relaxed);
        // Token-bucket with one spacing of credit: anchoring on the gate's
        // own schedule avoids cumulative drift from late dispatches, while
        // clamping to (now - one credit) keeps an old backlog from bursting
        // past the target rate. The credit is at least one clock quantum
        // (1µs) so sub-µs spacings don't lose schedule to clock granularity.
        let credit = spacing.max(NANOS_PER_MICRO);
        let anchor = gate_ns.max(now_ns.saturating_sub(credit));
        st.last_gate_ns = Some(anchor);
        st.next_dispatch_ns = anchor + spacing;
        self.dispatched.fetch_add(1, Ordering::Relaxed);
        self.queue_wait_us
            .fetch_add((now_ns / NANOS_PER_MICRO).saturating_sub(req.arrival), Ordering::Relaxed);
        Some(req)
    }

    /// Busy-wait (lock not held) until the clock reaches `gate_ns`, for at
    /// most `SPIN_NS` of real time. Returns whether the gate was reached;
    /// `false` means the clock is not following real time (a `SimClock`).
    fn spin_until(&self, gate_ns: u64) -> bool {
        let start = Instant::now();
        let budget = Duration::from_nanos(SPIN_NS);
        loop {
            // Budget read before the clock: a wall clock read after the
            // budget ran out is past any gate within `SPIN_NS`, even if the
            // thread was preempted between the two reads.
            let out_of_budget = start.elapsed() >= budget;
            if self.now_ns() >= gate_ns {
                return true;
            }
            if out_of_budget {
                return false;
            }
            std::hint::spin_loop();
        }
    }

    /// Blocking pull honoring arrival times and the rate gate. Returns
    /// `None` when the queue is closed. `max_wait_us` bounds each internal
    /// wait so callers can re-check external conditions.
    ///
    /// A gate more than `SPIN_NS` away is slept towards, stopping `SPIN_NS`
    /// short. Inside that distance one puller (the `spinning` flag) spins
    /// on the clock until the gate opens; the others wait on the condvar
    /// until the gate, as before, and a dispatch that leaves work behind
    /// wakes one of them to take over the spin.
    pub fn pull(&self, max_wait_us: Micros) -> Option<Request> {
        // Cleared once a spin runs out without the clock reaching the gate,
        // after which this call only sleeps.
        let mut may_spin = true;
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return None;
            }
            let now_ns = self.now_ns();
            if let Some(req) = self.dispatch_head(&mut st, now_ns) {
                if !st.queue.is_empty() {
                    self.cond.notify_one();
                }
                return Some(req);
            }
            let wait_ns = match st.head_gate_ns() {
                None => max_wait_us * NANOS_PER_MICRO,
                Some(gate_ns) => {
                    let until_gate = gate_ns - now_ns;
                    if may_spin && until_gate > SPIN_NS {
                        until_gate - SPIN_NS
                    } else if may_spin && !st.spinning {
                        st.spinning = true;
                        drop(st);
                        may_spin = self.spin_until(gate_ns);
                        st = self.state.lock();
                        st.spinning = false;
                        continue; // re-check closed/head/gate
                    } else {
                        until_gate
                    }
                }
            };
            let wait_us = wait_ns.div_ceil(NANOS_PER_MICRO).min(max_wait_us).max(1);
            self.cond.wait_for(&mut st, Duration::from_micros(wait_us));
        }
    }

    /// Non-blocking pull used by tests and the DES executor.
    pub fn try_pull(&self) -> Option<Request> {
        let mut st = self.state.lock();
        if st.closed {
            return None;
        }
        let now_ns = self.now_ns();
        self.dispatch_head(&mut st, now_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_util::clock::{sim_clock, MICROS_PER_SEC};

    #[test]
    fn fifo_dispatch_after_arrival_time() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.push_arrivals([100, 200, 300]);
        assert_eq!(q.try_pull(), None, "nothing has arrived yet");
        sim.advance_to(150);
        assert_eq!(q.try_pull().unwrap().arrival, 100);
        assert_eq!(q.try_pull(), None, "200 still in the future");
        sim.advance_to(301);
        assert_eq!(q.try_pull().unwrap().arrival, 200);
        assert_eq!(q.try_pull().unwrap().arrival, 300);
        assert_eq!(q.dispatched(), 3);
    }

    #[test]
    fn rate_gate_prevents_burst_drain() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.set_rate(1000.0); // 1000 µs spacing
        // 10 requests all overdue (backlog).
        q.push_arrivals((0..10).map(|i| i * 10));
        sim.advance_to(MICROS_PER_SEC); // way past all arrivals
        // The token bucket grants one spacing of catch-up credit, so two
        // dispatches may fire back-to-back at drain start...
        assert!(q.try_pull().is_some());
        assert!(q.try_pull().is_some(), "one catch-up credit allowed");
        // ...after which drains are strictly paced at the target spacing.
        assert!(q.try_pull().is_none(), "gated by spacing");
        sim.advance(999);
        assert!(q.try_pull().is_none());
        sim.advance(1);
        assert!(q.try_pull().is_some());
        assert!(q.try_pull().is_none(), "still one per spacing");
    }

    #[test]
    fn unlimited_rate_no_gate() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.set_rate(0.0); // no gating
        q.push_arrivals([0, 0, 0]);
        sim.advance_to(1);
        assert!(q.try_pull().is_some());
        assert!(q.try_pull().is_some());
        assert!(q.try_pull().is_some());
    }

    #[test]
    fn backlog_and_drain() {
        let (_, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.push_arrivals([1, 2, 3]);
        assert_eq!(q.backlog(), 3);
        assert_eq!(q.drain(), 3);
        assert_eq!(q.backlog(), 0);
    }

    #[test]
    fn close_wakes_pullers() {
        let (_, clock) = sim_clock();
        let q = std::sync::Arc::new(RequestQueue::new(clock));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pull(50_000));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn blocking_pull_with_wallclock() {
        use bp_util::clock::wall_clock;
        let clock = wall_clock();
        let q = std::sync::Arc::new(RequestQueue::new(clock.clone()));
        let now = clock.now();
        q.push_arrivals([now + 20_000]); // 20ms in the future
        let got = q.pull(MICROS_PER_SEC).unwrap();
        let elapsed = clock.now() - now;
        assert!(elapsed >= 18_000, "dispatched too early: {elapsed}µs");
        assert_eq!(got.arrival, now + 20_000);
    }

    #[test]
    fn short_gate_wait_is_not_late_by_timer_slack() {
        // A timed wait of a few tens of µs overshoots by the OS timer slack
        // (~55 µs on Linux); the spin must absorb it.
        use bp_util::clock::wall_clock;
        let clock = wall_clock();
        let q = RequestQueue::new(clock.clone());
        let mut late: Vec<u64> = (0..200)
            .map(|_| {
                q.push_arrivals([clock.now() + 30]);
                let req = q.pull(MICROS_PER_SEC).unwrap();
                clock.now() - req.arrival
            })
            .collect();
        late.sort_unstable();
        let median = late[late.len() / 2];
        assert!(median < 20, "median lateness {median}µs: {:?}", &late[..10]);
    }

    #[test]
    fn threaded_pull_never_exceeds_rate() {
        use bp_util::clock::wall_clock;
        let clock = wall_clock();
        let q = std::sync::Arc::new(RequestQueue::new(clock.clone()));
        let tps = 50_000.0;
        q.set_rate(tps);
        q.push_arrivals((0..30_000).map(|_| 0)); // all overdue
        let start = clock.now();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || while q.pull(MICROS_PER_SEC).is_some() {})
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(300));
        q.close(); // no dispatch happens after this returns
        let elapsed = clock.now() - start;
        for w in workers {
            w.join().unwrap();
        }
        let allowed = (tps * elapsed as f64 / 1e6) as u64 + 2;
        let n = q.dispatched();
        assert!(n <= allowed, "dispatched {n} in {elapsed}µs, allowed {allowed}");
    }

    #[test]
    fn spin_is_bounded_when_the_clock_stands_still() {
        // On a clock that never advances the gate never opens: the spin
        // must give up after SPIN_NS of real time and fall back to timed
        // waits that still see `close`.
        let (_, clock) = sim_clock();
        let q = std::sync::Arc::new(RequestQueue::new(clock));
        q.push_arrivals([50]);
        let q2 = q.clone();
        let h = std::thread::spawn(move || (q2.pull(MICROS_PER_SEC), Instant::now()));
        std::thread::sleep(std::time::Duration::from_millis(20));
        let closed_at = Instant::now();
        q.close();
        let (got, returned_at) = h.join().unwrap();
        assert_eq!(got, None);
        let after_close = returned_at.saturating_duration_since(closed_at);
        assert!(after_close < Duration::from_millis(100), "returned {after_close:?} after close");
    }

    #[test]
    fn queue_wait_accumulates() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.push_arrivals([100, 200]);
        assert_eq!(q.total_queue_wait_us(), 0);
        sim.advance_to(500);
        q.try_pull().unwrap(); // waited 400
        q.try_pull().unwrap(); // waited 300
        assert_eq!(q.total_queue_wait_us(), 700);
        assert!((q.mean_queue_wait_us() - 350.0).abs() < 1e-9);
    }

    #[test]
    fn push_scheduled_pins_type_and_phase() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.push_scheduled(
            1_000,
            [
                ScheduledRequest { offset_us: 0, txn_type: 3, phase: 1 },
                ScheduledRequest { offset_us: 250, txn_type: 0, phase: 2 },
            ],
        );
        sim.advance_to(2_000);
        let a = q.try_pull().unwrap();
        assert_eq!((a.arrival, a.txn_type, a.phase), (1_000, 3, 1));
        let b = q.try_pull().unwrap();
        assert_eq!((b.arrival, b.txn_type, b.phase), (1_250, 0, 2));
        assert!(a.seq < b.seq);
    }

    /// Drain an overdue backlog for `dur_us` simulated µs at `tps` and
    /// return how many requests were dispatched.
    fn drain_at_rate(tps: f64, dur_us: u64) -> u64 {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.set_rate(tps);
        let expected = (tps * dur_us as f64 / 1e6) as u64;
        q.push_arrivals((0..expected + expected / 10 + 10).map(|_| 0));
        let mut n = 0u64;
        for _ in 0..dur_us {
            sim.advance(1);
            while q.try_pull().is_some() {
                n += 1;
            }
        }
        n
    }

    #[test]
    fn dispatch_accuracy_300k() {
        // Regression: whole-µs spacing truncation made 300k tx/s dispatch
        // at ~333k (+11%). With nano spacing the error must be ≤1%, and
        // the never-exceed guarantee must hold.
        let target = 300_000.0;
        let secs = 0.5;
        let n = drain_at_rate(target, (secs * 1e6) as u64);
        let expected = target * secs;
        let err = (n as f64 - expected).abs() / expected;
        assert!(err <= 0.01, "300k: dispatched {n}, expected {expected}, err {err:.4}");
        assert!(n as f64 <= expected * 1.01, "never-exceed violated: {n}");
    }

    #[test]
    fn dispatch_accuracy_1_5m() {
        // Above 1M tx/s the old gate truncated spacing to 0µs — fully
        // unlimited. Sub-µs spacing must still track the target within 1%.
        let target = 1_500_000.0;
        let secs = 0.5;
        let n = drain_at_rate(target, (secs * 1e6) as u64);
        let expected = target * secs;
        let err = (n as f64 - expected).abs() / expected;
        assert!(err <= 0.01, "1.5M: dispatched {n}, expected {expected}, err {err:.4}");
        assert!(n as f64 <= expected * 1.01, "never-exceed violated: {n}");
    }

    #[test]
    fn rate_step_down_pushes_gate_back() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.set_rate(10_000.0); // 100µs spacing
        q.push_arrivals((0..10).map(|_| 0));
        sim.advance_to(MICROS_PER_SEC);
        assert!(q.try_pull().is_some());
        assert!(q.try_pull().is_some(), "one catch-up credit");
        assert!(q.try_pull().is_none());
        // Step DOWN to 1000 tx/s: the gate must be re-anchored to the new
        // 1000µs spacing immediately, not after one stale 100µs slot.
        q.set_rate(1_000.0);
        sim.advance(100);
        assert!(q.try_pull().is_none(), "stale 100µs spacing leaked through");
        sim.advance(899);
        assert!(q.try_pull().is_none(), "gate must honor the new spacing fully");
        sim.advance(1); // 1000µs after the last dispatch
        assert!(q.try_pull().is_some());
    }

    #[test]
    fn rate_step_up_pulls_gate_forward() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.set_rate(1_000.0); // 1000µs spacing
        q.push_arrivals((0..10).map(|_| 0));
        sim.advance_to(MICROS_PER_SEC);
        assert!(q.try_pull().is_some());
        assert!(q.try_pull().is_some(), "one catch-up credit");
        assert!(q.try_pull().is_none());
        // Step UP to 10k tx/s: next dispatch is 100µs after the last one,
        // not 1000µs.
        q.set_rate(10_000.0);
        sim.advance(99);
        assert!(q.try_pull().is_none());
        sim.advance(1);
        assert!(q.try_pull().is_some(), "faster rate applies immediately");
    }

    #[test]
    fn set_rate_before_first_dispatch_does_not_delay_it() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        // The executor configures the rate before the run starts; the very
        // first request must still dispatch at its arrival time.
        q.set_rate(10.0); // 100ms spacing
        q.set_rate(10.0);
        q.push_arrivals([1_000]);
        sim.advance_to(1_000);
        assert!(q.try_pull().is_some(), "first dispatch delayed by set_rate");
    }

    #[test]
    fn sequence_numbers_monotonic() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.push_arrivals([0, 0]);
        q.push_arrivals([0]);
        sim.advance_to(10);
        let a = q.try_pull().unwrap();
        let b = q.try_pull().unwrap();
        let c = q.try_pull().unwrap();
        assert!(a.seq < b.seq && b.seq < c.seq);
    }
}
