//! Closed-loop SLO admission control.
//!
//! Everything else in the testbed is *open-loop*: an operator (or a
//! phase script) sets a rate and hopes the system holds its latency
//! objective. The [`SloCore`] closes the loop: given a target —
//! `p99 <= N`, `p50 <= N`, or *max sustainable throughput* — a
//! background control thread samples a sliding-window latency/throughput
//! snapshot each tick and adjusts the offered rate, so the testbed finds
//! and holds its own operating point.
//!
//! Two control laws are available:
//!
//! * **AIMD** (default): additive increase while the objective is met,
//!   multiplicative decrease proportional to the violation
//!   (`rate *= max(backoff, limit/observed)`) when it is not — the
//!   classic TCP-style shape, stable and fast to converge.
//! * **PID**: rate is scaled by `kp·e + ki·∫e + kd·Δe` on the relative
//!   error, with the integral clamped for anti-windup. Smoother near the
//!   operating point, more knobs to mis-tune.
//!
//! The loop cooperates with the `bp-chaos` circuit breaker: an *open*
//! breaker forces a hard multiplicative backoff (`breaker_backoff`) and
//! resets the integral term; a *half-open* breaker holds the rate so
//! recovery probes are judged at a stable offered load. After the
//! breaker re-closes, normal additive probing resumes from the
//! backed-off rate.
//!
//! [`SloCore`] is deliberately pure — no clock, no RNG, no I/O — so the
//! adjustment sequence is a function of the observation sequence alone
//! (same seed + same config ⇒ identical adjustments, the replay-style
//! purity guarantee). The impure shell ([`slo_loop`]) lives at the edge.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bp_chaos::BreakerState;
use bp_obs::{MetricsBuf, MetricsSource, Severity};
use bp_util::sync::Mutex;

use crate::controller::Controller;
use crate::rate::Rate;

/// What the control loop steers toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloTarget {
    /// Keep windowed p99 latency at or below this many µs.
    P99BelowUs(u64),
    /// Keep windowed p50 latency at or below this many µs.
    P50BelowUs(u64),
    /// Find the highest rate the engine sustains (delivered ≈ offered).
    MaxThroughput,
}

impl SloTarget {
    /// Parse a target kind plus latency limit (µs; ignored for
    /// `max-throughput`).
    pub fn parse(kind: &str, limit_us: u64) -> Option<SloTarget> {
        match kind.trim().to_ascii_lowercase().as_str() {
            "p99" => Some(SloTarget::P99BelowUs(limit_us)),
            "p50" => Some(SloTarget::P50BelowUs(limit_us)),
            "max-throughput" | "max_throughput" | "throughput" => Some(SloTarget::MaxThroughput),
            _ => None,
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            SloTarget::P99BelowUs(_) => "p99",
            SloTarget::P50BelowUs(_) => "p50",
            SloTarget::MaxThroughput => "max-throughput",
        }
    }

    /// The latency limit in µs (0 for `max-throughput`).
    pub fn limit_us(&self) -> u64 {
        match self {
            SloTarget::P99BelowUs(us) | SloTarget::P50BelowUs(us) => *us,
            SloTarget::MaxThroughput => 0,
        }
    }
}

/// Which control law adjusts the rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlLaw {
    Aimd,
    Pid,
}

impl ControlLaw {
    pub fn parse(s: &str) -> Option<ControlLaw> {
        match s.trim().to_ascii_lowercase().as_str() {
            "aimd" => Some(ControlLaw::Aimd),
            "pid" => Some(ControlLaw::Pid),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            ControlLaw::Aimd => "aimd",
            ControlLaw::Pid => "pid",
        }
    }
}

/// Full SLO controller configuration (the `<slo>` config block /
/// `POST /slo` body).
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    pub target: SloTarget,
    pub law: ControlLaw,
    /// Sliding window the sensor reads, seconds.
    pub window_s: usize,
    /// Control-loop period, µs.
    pub tick_us: u64,
    /// Rate floor: the loop never starves the workload entirely.
    pub min_rate: f64,
    /// Rate ceiling (`f64::INFINITY` = effectively unlimited).
    pub max_rate: f64,
    /// Offered rate at loop start.
    pub initial_rate: f64,
    /// AIMD additive probe step, tx/s per tick.
    pub additive_step: f64,
    /// Floor of the multiplicative-decrease factor (0 < backoff < 1).
    pub backoff: f64,
    /// Multiplicative factor applied while the breaker is open.
    pub breaker_backoff: f64,
    /// PID gains on the relative error.
    pub kp: f64,
    pub ki: f64,
    pub kd: f64,
    /// Hold (don't adjust) until the window holds this many samples.
    pub min_samples: u64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            target: SloTarget::P99BelowUs(50_000),
            law: ControlLaw::Aimd,
            window_s: 3,
            tick_us: 200_000,
            min_rate: 10.0,
            max_rate: f64::INFINITY,
            initial_rate: 100.0,
            additive_step: 50.0,
            backoff: 0.7,
            breaker_backoff: 0.5,
            kp: 0.5,
            ki: 0.1,
            kd: 0.0,
            min_samples: 20,
        }
    }
}

/// One sensor reading fed into [`SloCore::tick`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloObservation {
    pub p50_us: u64,
    pub p99_us: u64,
    /// Delivered throughput over the window, tx/s.
    pub throughput: f64,
    /// Completions inside the window.
    pub sample_count: u64,
    pub breaker_open: bool,
    pub breaker_half_open: bool,
}

/// What a tick decided to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adjustment {
    Increase,
    Decrease,
    /// Hard multiplicative backoff because the circuit breaker is open.
    BreakerBackoff,
    Hold,
}

impl Adjustment {
    pub fn name(&self) -> &'static str {
        match self {
            Adjustment::Increase => "increase",
            Adjustment::Decrease => "decrease",
            Adjustment::BreakerBackoff => "breaker_backoff",
            Adjustment::Hold => "hold",
        }
    }
}

/// Output of one control tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloDecision {
    /// New offered rate, tx/s (already clamped).
    pub rate: f64,
    pub adjustment: Adjustment,
    /// Relative error term: positive = headroom, negative = violation.
    pub error: f64,
}

/// The pure control law. Feed observations in, get rate decisions out;
/// identical observation sequences produce identical decision sequences.
#[derive(Debug, Clone)]
pub struct SloCore {
    cfg: SloConfig,
    rate: f64,
    /// PID integral of the relative error (anti-windup clamped).
    integral: f64,
    last_error: f64,
    /// AIMD decrease cooldown: after a multiplicative decrease the sliding
    /// window keeps showing the pre-decrease tail for up to `window_s`,
    /// and reacting to that stale data again every tick would compound one
    /// violation into a geometric collapse. Violations observed while this
    /// is nonzero hold instead of decreasing.
    hold_ticks: u32,
}

/// Anti-windup clamp on the PID integral term.
const INTEGRAL_CLAMP: f64 = 5.0;
/// Per-tick bound on the PID multiplicative delta.
const PID_DELTA_CLAMP: f64 = 0.5;

impl SloCore {
    pub fn new(cfg: SloConfig) -> SloCore {
        let rate = cfg.initial_rate.clamp(cfg.min_rate, cfg.max_rate);
        SloCore { cfg, rate, integral: 0.0, last_error: 0.0, hold_ticks: 0 }
    }

    /// Ticks until the sliding window no longer contains samples from
    /// before the last decrease.
    fn window_flush_ticks(&self) -> u32 {
        let window_us = self.cfg.window_s as u64 * 1_000_000;
        window_us.div_ceil(self.cfg.tick_us.max(1)).min(u32::MAX as u64) as u32
    }

    pub fn rate(&self) -> f64 {
        self.rate
    }

    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// Run one control tick against an observation.
    pub fn tick(&mut self, obs: &SloObservation) -> SloDecision {
        if obs.breaker_open {
            // The engine is sick enough that the admission controller
            // tripped: back off hard and forget accumulated PID state —
            // the pre-incident error history is no longer meaningful.
            self.integral = 0.0;
            self.last_error = 0.0;
            // When the breaker closes again the window will still show the
            // incident's tail; hold through it instead of decreasing more.
            self.hold_ticks = self.window_flush_ticks();
            self.rate = (self.rate * self.cfg.breaker_backoff).max(self.cfg.min_rate);
            return SloDecision {
                rate: self.rate,
                adjustment: Adjustment::BreakerBackoff,
                error: -1.0,
            };
        }
        if obs.breaker_half_open {
            // Hold steady while recovery probes are in flight so their
            // outcome reflects a stable offered load.
            return SloDecision { rate: self.rate, adjustment: Adjustment::Hold, error: 0.0 };
        }
        if obs.sample_count < self.cfg.min_samples {
            return SloDecision { rate: self.rate, adjustment: Adjustment::Hold, error: 0.0 };
        }

        let decision = match self.cfg.target {
            SloTarget::P99BelowUs(limit) => self.latency_step(limit, obs.p99_us),
            SloTarget::P50BelowUs(limit) => self.latency_step(limit, obs.p50_us),
            SloTarget::MaxThroughput => self.throughput_step(obs.throughput),
        };
        self.rate = decision.rate.clamp(self.cfg.min_rate, self.cfg.max_rate);
        SloDecision { rate: self.rate, ..decision }
    }

    fn latency_step(&mut self, limit_us: u64, observed_us: u64) -> SloDecision {
        let limit = limit_us.max(1) as f64;
        let observed = observed_us as f64;
        // Positive = headroom below the limit, negative = violation.
        let error = (limit - observed) / limit;
        match self.cfg.law {
            ControlLaw::Aimd => {
                if error >= 0.0 {
                    // Headroom means the window has flushed the last
                    // incident: probing may resume immediately.
                    self.hold_ticks = 0;
                    SloDecision {
                        rate: self.rate + self.cfg.additive_step,
                        adjustment: Adjustment::Increase,
                        error,
                    }
                } else if self.hold_ticks > 0 {
                    self.hold_ticks -= 1;
                    SloDecision { rate: self.rate, adjustment: Adjustment::Hold, error }
                } else {
                    // Proportional multiplicative decrease: a 2× latency
                    // overshoot halves the rate (floored at `backoff` per
                    // tick so one noisy window can't collapse the run),
                    // then hold until the window has flushed.
                    self.hold_ticks = self.window_flush_ticks();
                    let factor = (limit / observed.max(1.0)).max(self.cfg.backoff);
                    SloDecision {
                        rate: self.rate * factor,
                        adjustment: Adjustment::Decrease,
                        error,
                    }
                }
            }
            ControlLaw::Pid => {
                self.integral = (self.integral + error).clamp(-INTEGRAL_CLAMP, INTEGRAL_CLAMP);
                let derivative = error - self.last_error;
                self.last_error = error;
                let delta = (self.cfg.kp * error
                    + self.cfg.ki * self.integral
                    + self.cfg.kd * derivative)
                    .clamp(-PID_DELTA_CLAMP, PID_DELTA_CLAMP);
                SloDecision {
                    rate: self.rate * (1.0 + delta),
                    adjustment: if delta >= 0.0 { Adjustment::Increase } else { Adjustment::Decrease },
                    error,
                }
            }
        }
    }

    /// Max-throughput search (always AIMD-shaped): probe upward while the
    /// engine keeps up with the offered rate, pull back proportionally
    /// when delivered throughput falls behind.
    fn throughput_step(&mut self, throughput: f64) -> SloDecision {
        let error = throughput / self.rate.max(1.0) - 1.0;
        if throughput >= 0.9 * self.rate {
            SloDecision {
                rate: self.rate + self.cfg.additive_step,
                adjustment: Adjustment::Increase,
                error,
            }
        } else {
            let factor = (throughput / self.rate.max(1.0)).clamp(self.cfg.backoff, 1.0);
            SloDecision { rate: self.rate * factor, adjustment: Adjustment::Decrease, error }
        }
    }
}

/// Atomic f64 stored as bits.
fn store_f64(cell: &AtomicU64, v: f64) {
    cell.store(v.to_bits(), Ordering::Relaxed);
}

fn load_f64(cell: &AtomicU64) -> f64 {
    f64::from_bits(cell.load(Ordering::Relaxed))
}

/// Shared state of one workload's SLO controller: configuration, the
/// loop-cancellation epoch, and the live gauges/counters the control API
/// and `/metrics` read. One persistent handle lives on each
/// [`Controller`] (shared by all of its clones); bp-cluster's coordinator
/// keeps one for the fleet loop.
pub struct SloHandle {
    workload: String,
    cfg: Mutex<Option<SloConfig>>,
    active: AtomicBool,
    /// Bumped on every start/stop; a running loop exits when its epoch
    /// is stale, so re-`POST /slo` cleanly replaces the old loop.
    epoch: AtomicU64,
    rate_bits: AtomicU64,
    error_bits: AtomicU64,
    throughput_bits: AtomicU64,
    observed_us: AtomicU64,
    window_samples: AtomicU64,
    increases: AtomicU64,
    decreases: AtomicU64,
    holds: AtomicU64,
    breaker_backoffs: AtomicU64,
    ticks: AtomicU64,
}

impl SloHandle {
    pub fn new(workload: &str) -> SloHandle {
        SloHandle {
            workload: workload.to_string(),
            cfg: Mutex::new(None),
            active: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            rate_bits: AtomicU64::new(0f64.to_bits()),
            error_bits: AtomicU64::new(0f64.to_bits()),
            throughput_bits: AtomicU64::new(0f64.to_bits()),
            observed_us: AtomicU64::new(0),
            window_samples: AtomicU64::new(0),
            increases: AtomicU64::new(0),
            decreases: AtomicU64::new(0),
            holds: AtomicU64::new(0),
            breaker_backoffs: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
        }
    }

    pub fn workload(&self) -> &str {
        &self.workload
    }

    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::SeqCst)
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    pub fn config(&self) -> Option<SloConfig> {
        self.cfg.lock().clone()
    }

    /// Current offered rate as last set by the loop.
    pub fn current_rate(&self) -> f64 {
        load_f64(&self.rate_bits)
    }

    /// Last relative error term.
    pub fn error(&self) -> f64 {
        load_f64(&self.error_bits)
    }

    /// Last windowed throughput the loop observed.
    pub fn observed_throughput(&self) -> f64 {
        load_f64(&self.throughput_bits)
    }

    /// Last windowed latency the loop steered on (µs).
    pub fn observed_us(&self) -> u64 {
        self.observed_us.load(Ordering::Relaxed)
    }

    pub fn window_samples(&self) -> u64 {
        self.window_samples.load(Ordering::Relaxed)
    }

    pub fn increases(&self) -> u64 {
        self.increases.load(Ordering::Relaxed)
    }

    pub fn decreases(&self) -> u64 {
        self.decreases.load(Ordering::Relaxed)
    }

    pub fn holds(&self) -> u64 {
        self.holds.load(Ordering::Relaxed)
    }

    pub fn breaker_backoffs(&self) -> u64 {
        self.breaker_backoffs.load(Ordering::Relaxed)
    }

    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Arm for a new loop run: store config, reset the live counters, and
    /// return the new loop epoch. (Counters reset so `GET /slo/status`
    /// after a re-POST describes the new loop, not the old one.)
    pub fn arm(&self, cfg: &SloConfig) -> u64 {
        *self.cfg.lock() = Some(cfg.clone());
        store_f64(&self.rate_bits, cfg.initial_rate.clamp(cfg.min_rate, cfg.max_rate));
        store_f64(&self.error_bits, 0.0);
        store_f64(&self.throughput_bits, 0.0);
        self.observed_us.store(0, Ordering::Relaxed);
        self.window_samples.store(0, Ordering::Relaxed);
        self.increases.store(0, Ordering::Relaxed);
        self.decreases.store(0, Ordering::Relaxed);
        self.holds.store(0, Ordering::Relaxed);
        self.breaker_backoffs.store(0, Ordering::Relaxed);
        self.ticks.store(0, Ordering::Relaxed);
        self.active.store(true, Ordering::SeqCst);
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Cancel any running loop (it notices the stale epoch on its next
    /// tick) and mark the controller inactive.
    pub fn disarm(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.active.store(false, Ordering::SeqCst);
    }

    /// Record one tick's observation and decision in the live gauges and
    /// counters.
    pub fn on_tick(&self, obs: &SloObservation, d: &SloDecision) {
        store_f64(&self.rate_bits, d.rate);
        store_f64(&self.error_bits, d.error);
        store_f64(&self.throughput_bits, obs.throughput);
        let cfg = self.cfg.lock();
        let observed = match cfg.as_ref().map(|c| c.target) {
            Some(SloTarget::P50BelowUs(_)) => obs.p50_us,
            _ => obs.p99_us,
        };
        drop(cfg);
        self.observed_us.store(observed, Ordering::Relaxed);
        self.window_samples.store(obs.sample_count, Ordering::Relaxed);
        match d.adjustment {
            Adjustment::Increase => self.increases.fetch_add(1, Ordering::Relaxed),
            Adjustment::Decrease => self.decreases.fetch_add(1, Ordering::Relaxed),
            Adjustment::Hold => self.holds.fetch_add(1, Ordering::Relaxed),
            Adjustment::BreakerBackoff => self.breaker_backoffs.fetch_add(1, Ordering::Relaxed),
        };
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }
}

impl MetricsSource for SloHandle {
    fn collect(&self, buf: &mut MetricsBuf) {
        let labels = [("workload", self.workload.as_str())];
        buf.gauge(
            "bp_slo_active",
            "1 while a closed-loop SLO controller is driving the rate.",
            &labels,
            if self.is_active() { 1.0 } else { 0.0 },
        );
        let (target_us, kind) = match self.config().map(|c| c.target) {
            Some(t) => (t.limit_us() as f64, t.kind()),
            None => (0.0, "none"),
        };
        buf.gauge(
            "bp_slo_target_us",
            "Configured latency objective in µs (0 for max-throughput).",
            &[("workload", self.workload.as_str()), ("target", kind)],
            target_us,
        );
        buf.gauge(
            "bp_slo_current_rate",
            "Offered rate the SLO loop last set, tx/s.",
            &labels,
            self.current_rate(),
        );
        buf.gauge(
            "bp_slo_error",
            "Relative error term (positive = headroom, negative = violation).",
            &labels,
            self.error(),
        );
        buf.gauge(
            "bp_slo_observed_us",
            "Windowed latency percentile the loop last steered on, µs.",
            &labels,
            self.observed_us() as f64,
        );
        buf.gauge(
            "bp_slo_observed_throughput",
            "Windowed delivered throughput the loop last observed, tx/s.",
            &labels,
            self.observed_throughput(),
        );
        for (dir, n) in [
            ("increase", self.increases()),
            ("decrease", self.decreases()),
            ("hold", self.holds()),
        ] {
            buf.counter(
                "bp_slo_adjustments_total",
                "Control-loop adjustments, by direction.",
                &[("workload", self.workload.as_str()), ("dir", dir)],
                n as f64,
            );
        }
        buf.counter(
            "bp_slo_breaker_backoffs_total",
            "Hard backoffs forced by an open circuit breaker.",
            &labels,
            self.breaker_backoffs() as f64,
        );
        buf.counter(
            "bp_slo_ticks_total",
            "Control-loop ticks executed.",
            &labels,
            self.ticks() as f64,
        );
    }
}

/// The impure shell: runs [`SloCore`] against live window snapshots on a
/// detached thread until the epoch goes stale, the handle deactivates,
/// or the run stops. Spawned by [`Controller::start_slo`].
pub(crate) fn slo_loop(controller: Controller, handle: Arc<SloHandle>, cfg: SloConfig, epoch: u64) {
    let clock = controller.stats().clock().clone();
    let journal = controller.journal().clone();
    let mut core = SloCore::new(cfg.clone());
    loop {
        clock.sleep(cfg.tick_us);
        if handle.epoch() != epoch || !handle.is_active() || controller.is_stopped() {
            return;
        }
        let snap = controller.stats().window_snapshot(cfg.window_s);
        let (open, half_open) = match controller.breaker() {
            Some(b) => {
                let s = b.state();
                (s == BreakerState::Open, s == BreakerState::HalfOpen)
            }
            None => (false, false),
        };
        let obs = SloObservation {
            p50_us: snap.p50_us,
            p99_us: snap.p99_us,
            throughput: snap.throughput,
            sample_count: snap.count,
            breaker_open: open,
            breaker_half_open: half_open,
        };
        let before = core.rate();
        let d = core.tick(&obs);
        if d.adjustment != Adjustment::Hold {
            // Holds are the steady state; journaling only the actual rate
            // decisions keeps the ring about *changes* (the doctor matches
            // these against latency onsets).
            let sev = match d.adjustment {
                Adjustment::BreakerBackoff => Severity::Warn,
                _ => Severity::Info,
            };
            journal.emit_with(sev, "slo", "slo_decision", || {
                (
                    format!(
                        "slo {}: rate {before:.1} -> {:.1} (error {:+.2})",
                        d.adjustment.name(),
                        d.rate,
                        d.error,
                    ),
                    vec![
                        ("adjustment", d.adjustment.name().to_string()),
                        ("before", format!("{before:.1}")),
                        ("after", format!("{:.1}", d.rate)),
                    ],
                )
            });
        }
        controller.set_rate(Rate::Limited(d.rate));
        handle.on_tick(&obs, &d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(p99: u64, tput: f64, n: u64) -> SloObservation {
        SloObservation {
            p50_us: p99 / 2,
            p99_us: p99,
            throughput: tput,
            sample_count: n,
            breaker_open: false,
            breaker_half_open: false,
        }
    }

    #[test]
    fn target_parsing_round_trips() {
        assert_eq!(SloTarget::parse("p99", 5_000), Some(SloTarget::P99BelowUs(5_000)));
        assert_eq!(SloTarget::parse("P50", 100), Some(SloTarget::P50BelowUs(100)));
        assert_eq!(SloTarget::parse("max-throughput", 0), Some(SloTarget::MaxThroughput));
        assert_eq!(SloTarget::parse("bogus", 0), None);
        for t in [SloTarget::P99BelowUs(7), SloTarget::P50BelowUs(9), SloTarget::MaxThroughput] {
            assert_eq!(SloTarget::parse(t.kind(), t.limit_us()), Some(t));
        }
        assert_eq!(ControlLaw::parse("pid"), Some(ControlLaw::Pid));
        assert_eq!(ControlLaw::parse("AIMD"), Some(ControlLaw::Aimd));
        assert_eq!(ControlLaw::parse("fuzzy"), None);
    }

    #[test]
    fn aimd_increases_with_headroom_decreases_on_violation() {
        let cfg = SloConfig {
            target: SloTarget::P99BelowUs(10_000),
            initial_rate: 1_000.0,
            additive_step: 100.0,
            ..SloConfig::default()
        };
        let mut core = SloCore::new(cfg);
        // Well under the limit: additive increase.
        let d = core.tick(&obs(5_000, 900.0, 500));
        assert_eq!(d.adjustment, Adjustment::Increase);
        assert!((d.rate - 1_100.0).abs() < 1e-9);
        assert!(d.error > 0.0);
        // 2× violation: proportional multiplicative decrease (halve),
        // floored at `backoff`.
        let d = core.tick(&obs(20_000, 900.0, 500));
        assert_eq!(d.adjustment, Adjustment::Decrease);
        assert!(d.error < 0.0);
        assert!((d.rate - 1_100.0 * 0.7).abs() < 1e-9, "floored at backoff: {}", d.rate);
        // A further violation right away is stale-window data: hold.
        let d2 = core.tick(&obs(11_000, 900.0, 500));
        assert_eq!(d2.adjustment, Adjustment::Hold);
        assert!((d2.rate - d.rate).abs() < 1e-9);
        // Headroom clears the cooldown and probing resumes at once.
        let d3 = core.tick(&obs(5_000, 900.0, 500));
        assert_eq!(d3.adjustment, Adjustment::Increase);
        // ...and after the hold the next genuine violation decreases again.
        let d4 = core.tick(&obs(11_000, 900.0, 500));
        assert_eq!(d4.adjustment, Adjustment::Decrease);
        assert!((d4.rate - d3.rate * (10_000.0 / 11_000.0)).abs() < 1e-9);
    }

    #[test]
    fn decrease_cooldown_covers_window_flush() {
        // window 2s / tick 200ms: a decrease must be followed by 10 holds
        // (one full window flush) before the next decrease can fire.
        let cfg = SloConfig {
            target: SloTarget::P99BelowUs(10_000),
            window_s: 2,
            tick_us: 200_000,
            initial_rate: 1_000.0,
            ..SloConfig::default()
        };
        let mut core = SloCore::new(cfg);
        let violation = obs(20_000, 900.0, 500);
        assert_eq!(core.tick(&violation).adjustment, Adjustment::Decrease);
        for i in 0..10 {
            assert_eq!(core.tick(&violation).adjustment, Adjustment::Hold, "tick {i}");
        }
        assert_eq!(core.tick(&violation).adjustment, Adjustment::Decrease);
    }

    #[test]
    fn rate_clamped_to_bounds() {
        let cfg = SloConfig {
            target: SloTarget::P99BelowUs(1_000),
            // window == tick so the decrease cooldown is a single tick.
            window_s: 1,
            tick_us: 1_000_000,
            initial_rate: 20.0,
            min_rate: 15.0,
            max_rate: 30.0,
            additive_step: 100.0,
            ..SloConfig::default()
        };
        let mut core = SloCore::new(cfg);
        let d = core.tick(&obs(100, 10.0, 100));
        assert_eq!(d.rate, 30.0, "capped at max_rate");
        for _ in 0..10 {
            core.tick(&obs(100_000, 10.0, 100));
        }
        assert_eq!(core.rate(), 15.0, "floored at min_rate");
    }

    #[test]
    fn open_breaker_forces_multiplicative_decrease() {
        let cfg = SloConfig {
            target: SloTarget::P99BelowUs(10_000),
            initial_rate: 1_000.0,
            breaker_backoff: 0.5,
            ..SloConfig::default()
        };
        let mut core = SloCore::new(cfg);
        // Even with a perfectly healthy latency observation, an open
        // breaker overrides everything with a hard backoff.
        let healthy_but_open = SloObservation { breaker_open: true, ..obs(1_000, 900.0, 500) };
        let d = core.tick(&healthy_but_open);
        assert_eq!(d.adjustment, Adjustment::BreakerBackoff);
        assert!((d.rate - 500.0).abs() < 1e-9);
        let d = core.tick(&healthy_but_open);
        assert!((d.rate - 250.0).abs() < 1e-9, "backoff compounds while open");
        // Half-open: hold for the probes.
        let half = SloObservation { breaker_half_open: true, ..obs(1_000, 900.0, 500) };
        let d = core.tick(&half);
        assert_eq!(d.adjustment, Adjustment::Hold);
        assert!((d.rate - 250.0).abs() < 1e-9);
        // Re-closed: additive probing resumes from the backed-off rate.
        let d = core.tick(&obs(1_000, 240.0, 500));
        assert_eq!(d.adjustment, Adjustment::Increase);
        assert!(d.rate > 250.0);
    }

    #[test]
    fn sparse_window_holds() {
        let mut core = SloCore::new(SloConfig {
            min_samples: 50,
            initial_rate: 500.0,
            ..SloConfig::default()
        });
        let d = core.tick(&obs(1, 10.0, 49));
        assert_eq!(d.adjustment, Adjustment::Hold);
        assert_eq!(d.rate, 500.0);
        assert_eq!(core.tick(&obs(1, 10.0, 50)).adjustment, Adjustment::Increase);
    }

    #[test]
    fn max_throughput_probes_up_and_backs_off() {
        let cfg = SloConfig {
            target: SloTarget::MaxThroughput,
            initial_rate: 1_000.0,
            additive_step: 100.0,
            ..SloConfig::default()
        };
        let mut core = SloCore::new(cfg);
        // Engine keeps up: probe upward.
        let d = core.tick(&obs(1_000, 990.0, 500));
        assert_eq!(d.adjustment, Adjustment::Increase);
        assert!((d.rate - 1_100.0).abs() < 1e-9);
        // Engine saturated at 800: pull back proportionally.
        let d = core.tick(&obs(1_000, 800.0, 500));
        assert_eq!(d.adjustment, Adjustment::Decrease);
        assert!((d.rate - 1_100.0 * (800.0 / 1_100.0)).abs() < 1e-9);
    }

    #[test]
    fn identical_observations_identical_decisions() {
        // The replay-style purity guarantee: SloCore has no clock and no
        // RNG, so the decision sequence is a function of (config,
        // observation sequence) alone.
        let cfg = SloConfig {
            target: SloTarget::P99BelowUs(8_000),
            law: ControlLaw::Pid,
            initial_rate: 400.0,
            ..SloConfig::default()
        };
        let mut a = SloCore::new(cfg.clone());
        let mut b = SloCore::new(cfg);
        let mut seq = Vec::new();
        for i in 0..200u64 {
            // A deterministic, wiggly synthetic trace: latency swings
            // above and below the limit, breaker opens mid-sequence.
            let p99 = 4_000 + (i * 997) % 9_000;
            let mut o = obs(p99, 300.0 + (i % 7) as f64 * 20.0, 100 + i);
            o.breaker_open = (60..65).contains(&i);
            o.breaker_half_open = (65..67).contains(&i);
            seq.push(o);
        }
        let da: Vec<SloDecision> = seq.iter().map(|o| a.tick(o)).collect();
        let db: Vec<SloDecision> = seq.iter().map(|o| b.tick(o)).collect();
        assert_eq!(da, db, "same config + observations ⇒ identical adjustment sequence");
        assert!(da.iter().any(|d| d.adjustment == Adjustment::BreakerBackoff));
        assert!(da.iter().any(|d| d.adjustment == Adjustment::Increase));
        assert!(da.iter().any(|d| d.adjustment == Adjustment::Decrease));
    }

    #[test]
    fn pid_converges_toward_limit() {
        let cfg = SloConfig {
            target: SloTarget::P99BelowUs(10_000),
            law: ControlLaw::Pid,
            initial_rate: 100.0,
            min_rate: 1.0,
            ..SloConfig::default()
        };
        let mut core = SloCore::new(cfg);
        // Toy plant: p99 responds linearly to rate (saturates at 200 tx/s
        // where p99 hits the 10ms limit).
        let mut rate = 100.0;
        for _ in 0..300 {
            let p99 = (rate / 200.0 * 10_000.0) as u64;
            rate = core.tick(&obs(p99, rate * 0.98, 1_000)).rate;
        }
        assert!(
            (rate - 200.0).abs() / 200.0 < 0.10,
            "PID should settle near the 200 tx/s operating point, got {rate}"
        );
    }

    #[test]
    fn handle_arm_resets_and_bumps_epoch() {
        let h = SloHandle::new("w");
        assert!(!h.is_active());
        let e1 = h.arm(&SloConfig::default());
        assert!(h.is_active());
        assert_eq!(h.epoch(), e1);
        assert!((h.current_rate() - SloConfig::default().initial_rate).abs() < 1e-9);
        let d = SloDecision { rate: 123.0, adjustment: Adjustment::Increase, error: 0.5 };
        h.on_tick(&obs(1_000, 100.0, 50), &d);
        assert_eq!(h.increases(), 1);
        assert_eq!(h.ticks(), 1);
        assert!((h.current_rate() - 123.0).abs() < 1e-9);
        // Re-arm: counters reset, epoch bumps (stale loop dies).
        let e2 = h.arm(&SloConfig::default());
        assert!(e2 > e1);
        assert_eq!(h.increases(), 0);
        assert_eq!(h.ticks(), 0);
        h.disarm();
        assert!(!h.is_active());
        assert!(h.epoch() > e2);
    }

    #[test]
    fn handle_metrics_expose_slo_series() {
        let h = SloHandle::new("voter");
        h.arm(&SloConfig { target: SloTarget::P99BelowUs(5_000), ..SloConfig::default() });
        let o = SloObservation { breaker_open: true, ..obs(9_000, 50.0, 100) };
        let d = SloDecision { rate: 50.0, adjustment: Adjustment::BreakerBackoff, error: -1.0 };
        h.on_tick(&o, &d);
        let mut buf = MetricsBuf::new();
        h.collect(&mut buf);
        let samples = buf.into_samples();
        let get = |name: &str| samples.iter().find(|s| s.name == name).unwrap();
        assert_eq!(get("bp_slo_active").value, bp_obs::MetricValue::Gauge(1.0));
        assert_eq!(get("bp_slo_target_us").value, bp_obs::MetricValue::Gauge(5_000.0));
        assert!(get("bp_slo_target_us").labels.iter().any(|(k, v)| k == "target" && v == "p99"));
        assert_eq!(get("bp_slo_current_rate").value, bp_obs::MetricValue::Gauge(50.0));
        assert_eq!(get("bp_slo_breaker_backoffs_total").value, bp_obs::MetricValue::Counter(1.0));
        assert!(samples.iter().all(|s| s.labels.iter().any(|(k, v)| k == "workload" && v == "voter")));
    }
}
