//! The cluster coordinator: membership authority, control fan-out, merged
//! telemetry, and the cluster-wide SLO loop.
//!
//! The coordinator owns no workload. It mounts its `/cluster/*` routes on a
//! plain [`bp_api::ApiServer`] (via [`bp_api::router::RouteExtension`]) and
//! runs one background detector thread that:
//!
//! * sweeps the [`MembershipTable`] (joined → suspect → dead on missed
//!   heartbeats), journaling `node_suspect` / `node_dead`;
//! * re-splits the global rate across survivors whenever the live set or
//!   the global rate changes (`rate_resplit`), pushing each share to the
//!   owning agent;
//! * flags stragglers — one live node whose windowed p99 dominates the
//!   median of its peers (`node_straggler`, picked up by bp-doctor);
//! * when armed, runs the node SLO control law ([`SloCore`]) on the
//!   fleet's merged window histogram and steers the global rate
//!   (`cluster_slo`).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bp_api::http::{http_request_text_timeout, http_request_timeout};
use bp_api::router::{slo_config_from_json, slo_status_json, RouteExtension};
use bp_api::{Method, Request, Response, PROMETHEUS_CONTENT_TYPE};
use bp_core::{Adjustment, SloCore, SloHandle, SloObservation};
use bp_obs::{
    merge_samples, render_samples, EventJournal, MetricsBuf, MetricsRegistry, MetricsSource,
    Sample, Severity,
};
use bp_util::histogram::Histogram;
use bp_util::json::Json;
use bp_util::sync::Mutex;

use crate::member::{Admission, MembershipTable, NodeState, NodeWindow};

/// Fan-out calls must never stall the detector behind a dead peer: a
/// coordinator tick is ~hundreds of ms, so give each agent call a fraction
/// of that.
pub const FANOUT_TIMEOUT: Duration = Duration::from_millis(500);

/// A node is a straggler when its windowed p99 is at least this multiple
/// of the median of its live peers.
const STRAGGLER_FACTOR: f64 = 3.0;

/// ...and above this floor, so an idle fleet with microsecond latencies
/// doesn't flag noise.
const STRAGGLER_FLOOR_US: u64 = 1_000;

/// Minimum windowed completions per node before it participates in the
/// straggler comparison.
const STRAGGLER_MIN_COUNT: u64 = 20;

/// Coordinator tuning.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Expected agent heartbeat period. Suspect after >1 missed interval,
    /// dead after >2 (the failure-detection contract the harness asserts).
    pub heartbeat: Duration,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig { heartbeat: Duration::from_millis(200) }
    }
}

/// The coordinator. Construct with [`ClusterCoordinator::new`], mount on an
/// [`bp_api::ApiServer`] with `set_extension`, and keep the
/// [`DetectorGuard`] from [`ClusterCoordinator::start_detector`] alive for
/// the run.
pub struct ClusterCoordinator {
    membership: Mutex<MembershipTable>,
    /// Operator-or-SLO commanded fleet-wide rate; `None` until first set.
    global_rate: Mutex<Option<f64>>,
    /// Config, gauges and counters of the cluster SLO loop.
    slo: SloHandle,
    /// The armed control law and the coordinator time of its last tick;
    /// `None` while disarmed.
    slo_core: Mutex<Option<(SloCore, u64)>>,
    journal: Arc<EventJournal>,
    /// Own registry, folded into `GET /cluster/metrics` alongside agents.
    registry: Mutex<Option<Arc<MetricsRegistry>>>,
    origin: Instant,
    heartbeat_us: u64,
    heartbeats_total: AtomicU64,
    resplits_total: AtomicU64,
    stragglers_total: AtomicU64,
}

/// Stops and joins the detector thread on drop.
pub struct DetectorGuard {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for DetectorGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').filter_map(|kv| kv.split_once('=')).find(|(k, _)| *k == key).map(|(_, v)| v)
}

impl ClusterCoordinator {
    pub fn new(cfg: CoordinatorConfig) -> Arc<ClusterCoordinator> {
        let heartbeat_us = cfg.heartbeat.as_micros().max(1) as u64;
        Arc::new(ClusterCoordinator {
            membership: Mutex::new(MembershipTable::new(heartbeat_us)),
            global_rate: Mutex::new(None),
            slo: SloHandle::new("cluster"),
            slo_core: Mutex::new(None),
            journal: Arc::new(EventJournal::new()),
            registry: Mutex::new(None),
            origin: Instant::now(),
            heartbeat_us,
            heartbeats_total: AtomicU64::new(0),
            resplits_total: AtomicU64::new(0),
            stragglers_total: AtomicU64::new(0),
        })
    }

    /// The coordinator's own event journal (`node_join`, `node_dead`,
    /// `rate_resplit`, `node_straggler`, `cluster_slo`, …).
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// Fold this registry (typically carrying the coordinator's own
    /// [`MetricsSource`]) into `GET /cluster/metrics`.
    pub fn set_registry(&self, registry: Arc<MetricsRegistry>) {
        *self.registry.lock() = Some(registry);
    }

    /// Microseconds since coordinator start — the membership clock.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    pub fn heartbeat_interval(&self) -> Duration {
        Duration::from_micros(self.heartbeat_us)
    }

    /// Set the fleet-wide rate: split across live agents by observed
    /// capacity and push each share out. Returns the split.
    pub fn set_global_rate(&self, tps: f64) -> Vec<(String, f64)> {
        *self.global_rate.lock() = Some(tps);
        self.resplit_and_fanout("operator")
    }

    pub fn global_rate(&self) -> Option<f64> {
        *self.global_rate.lock()
    }

    /// Re-split the current global rate across live members and push each
    /// share to its agent. No-op (empty) until a global rate is set.
    fn resplit_and_fanout(&self, reason: &'static str) -> Vec<(String, f64)> {
        let Some(global) = *self.global_rate.lock() else {
            return Vec::new();
        };
        let (split, targets) = {
            let mut table = self.membership.lock();
            let split = table.split_rate(global);
            let targets: Vec<(String, SocketAddr)> =
                table.live().iter().map(|m| (m.id.clone(), m.addr)).collect();
            (split, targets)
        };
        if split.is_empty() {
            return split;
        }
        self.resplits_total.fetch_add(1, Ordering::Relaxed);
        self.journal.emit_with(Severity::Info, "cluster", "rate_resplit", || {
            let shares = split
                .iter()
                .map(|(id, r)| format!("{id}={r:.1}"))
                .collect::<Vec<_>>()
                .join(" ");
            (
                format!("global rate {global:.1} tx/s re-split ({reason}): {shares}"),
                vec![
                    ("reason", reason.to_string()),
                    ("global_rate", format!("{global}")),
                    ("nodes", format!("{}", split.len())),
                ],
            )
        });
        for (id, addr) in targets {
            let share = split.iter().find(|(sid, _)| sid == &id).map(|(_, r)| *r).unwrap_or(0.0);
            let body = Json::obj().set("tps", share);
            if let Err(e) = http_request_timeout(
                addr,
                "POST",
                &format!("/workloads/{id}/rate"),
                Some(&body),
                FANOUT_TIMEOUT,
            ) {
                self.journal.emit_with(Severity::Debug, "cluster", "fanout_error", || {
                    (
                        format!("rate push to {id} ({addr}) failed: {e}"),
                        vec![("node", id.clone())],
                    )
                });
            }
        }
        split
    }

    /// One detector pass: sweep membership, journal transitions, re-split
    /// on deaths, run the straggler check, tick the SLO loop. Public so
    /// in-process tests can drive it deterministically.
    pub fn tick(&self) {
        let now = self.now_us();
        let transitions = self.membership.lock().sweep(now);
        let mut lost_node = false;
        for (id, state) in &transitions {
            match state {
                NodeState::Suspect => {
                    self.journal.emit_with(Severity::Warn, "cluster", "node_suspect", || {
                        (
                            format!("node {id} missed a heartbeat interval"),
                            vec![("node", id.clone())],
                        )
                    });
                }
                NodeState::Dead => {
                    lost_node = true;
                    self.journal.emit_with(Severity::Error, "cluster", "node_dead", || {
                        (
                            format!("node {id} missed 2 heartbeat intervals; declared dead"),
                            vec![("node", id.clone())],
                        )
                    });
                }
                NodeState::Joined => {}
            }
        }
        if lost_node {
            self.resplit_and_fanout("node_dead");
        }
        self.straggler_check();
        self.slo_tick(now);
    }

    /// Flag a live node whose windowed p99 is `STRAGGLER_FACTOR`× the
    /// median of its peers. bp-doctor folds the resulting event run into a
    /// `straggler_node` finding.
    fn straggler_check(&self) {
        let stats: Vec<(String, u64, u64)> = {
            let table = self.membership.lock();
            table
                .live()
                .iter()
                .filter(|m| m.window.count >= STRAGGLER_MIN_COUNT)
                .map(|m| (m.id.clone(), m.window.p99_us, m.window.slow_trace))
                .collect()
        };
        if stats.len() < 2 {
            return;
        }
        for (id, p99, slow_trace) in &stats {
            let mut others: Vec<u64> =
                stats.iter().filter(|(oid, _, _)| oid != id).map(|(_, p, _)| *p).collect();
            others.sort_unstable();
            let median = others[others.len() / 2];
            if *p99 >= STRAGGLER_FLOOR_US && *p99 as f64 >= STRAGGLER_FACTOR * median as f64 {
                self.stragglers_total.fetch_add(1, Ordering::Relaxed);
                self.journal.emit_with(Severity::Warn, "cluster", "node_straggler", || {
                    let mut fields = vec![
                        ("node", id.clone()),
                        ("p99_us", format!("{p99}")),
                        ("cluster_p99_us", format!("{median}")),
                    ];
                    if *slow_trace != 0 {
                        fields.push(("trace_id", bp_obs::format_trace_id(*slow_trace)));
                    }
                    (
                        format!("node {id} window p99 {p99}us vs cluster median {median}us"),
                        fields,
                    )
                });
            }
        }
    }

    /// One SLO control step, rate-limited to the configured tick period:
    /// [`SloCore::tick`] on the fleet observation, then the journal event
    /// and, when the rate moved, a re-split.
    fn slo_tick(&self, now: u64) {
        let mut guard = self.slo_core.lock();
        let Some((core, last_tick_us)) = guard.as_mut() else { return };
        if now.saturating_sub(*last_tick_us) < core.config().tick_us {
            return;
        }
        *last_tick_us = now;
        let obs = self.fleet_observation();
        let target = core.config().target;
        let before = core.rate();
        let d = core.tick(&obs);
        drop(guard);
        self.slo.on_tick(&obs, &d);
        if d.adjustment != Adjustment::Hold {
            let observed = self.slo.observed_us();
            self.journal.emit_with(Severity::Debug, "cluster", "cluster_slo", || {
                (
                    format!(
                        "merged {} {observed}us vs limit {}us: {} {before:.1} -> {:.1} tx/s",
                        target.kind(),
                        target.limit_us(),
                        d.adjustment.name(),
                        d.rate,
                    ),
                    vec![
                        ("observed_us", format!("{observed}")),
                        ("rate", format!("{:.1}", d.rate)),
                    ],
                )
            });
        }
        if (d.rate - before).abs() > f64::EPSILON {
            *self.global_rate.lock() = Some(d.rate);
            self.resplit_and_fanout("slo");
        }
    }

    /// The SLO sensor reading for the whole fleet: percentiles and sample
    /// count of the live nodes' merged window histograms, and their summed
    /// window throughput. The fleet has no single breaker, so the breaker
    /// fields stay `false`.
    fn fleet_observation(&self) -> SloObservation {
        let table = self.membership.lock();
        let mut merged = Histogram::latency();
        let mut throughput = 0.0;
        for m in table.live() {
            merged.merge(&m.window.histogram);
            throughput += m.window.throughput;
        }
        SloObservation {
            p50_us: merged.p50(),
            p99_us: merged.p99(),
            throughput,
            sample_count: merged.count(),
            breaker_open: false,
            breaker_half_open: false,
        }
    }

    /// Spawn the background detector (membership sweep + straggler check +
    /// SLO loop), ticking a few times per heartbeat interval so deaths are
    /// declared promptly after the 2-interval deadline.
    pub fn start_detector(self: &Arc<Self>) -> DetectorGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let me = self.clone();
        let flag = stop.clone();
        let period = Duration::from_micros((self.heartbeat_us / 4).max(5_000));
        let thread = std::thread::Builder::new()
            .name("bp-cluster-detector".into())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    me.tick();
                    std::thread::sleep(period);
                }
            })
            .expect("spawn detector thread");
        DetectorGuard { stop, thread: Some(thread) }
    }

    // ---- route handlers -------------------------------------------------

    fn join(&self, req: &Request) -> Response {
        let body = req.body.clone().unwrap_or(Json::Null);
        let Some(node) = body.get("node").and_then(Json::as_str) else {
            return Response::error(400, "body must contain node");
        };
        let Some(addr) = body.get("addr").and_then(Json::as_str) else {
            return Response::error(400, "body must contain addr (host:port)");
        };
        let addr: SocketAddr = match addr.parse() {
            Ok(a) => a,
            Err(_) => return Response::error(400, &format!("invalid addr {addr}")),
        };
        let now = self.now_us();
        let admission = self.membership.lock().join(node, addr, now);
        let node_owned = node.to_string();
        self.journal.emit_with(Severity::Info, "cluster", "node_join", || {
            let verb = match admission {
                Admission::New => "joined",
                Admission::Rejoined => "rejoined",
                Admission::Refreshed => "re-registered",
            };
            (format!("node {node_owned} {verb} from {addr}"), vec![("node", node_owned.clone())])
        });
        if admission != Admission::Refreshed {
            self.resplit_and_fanout("node_join");
        }
        let assigned =
            self.membership.lock().get(node).map(|m| m.assigned_rate).unwrap_or(0.0);
        Response::ok(
            Json::obj()
                .set("node", node)
                .set("heartbeat_ms", self.heartbeat_us / 1_000)
                .set("assigned_rate", assigned),
        )
    }

    fn heartbeat(&self, req: &Request) -> Response {
        let body = req.body.clone().unwrap_or(Json::Null);
        let Some(node) = body.get("node").and_then(Json::as_str) else {
            return Response::error(400, "body must contain node");
        };
        let window = body.get("window").map(NodeWindow::from_json).unwrap_or_default();
        let now = self.now_us();
        self.heartbeats_total.fetch_add(1, Ordering::Relaxed);
        let admission = self.membership.lock().heartbeat(node, window, now);
        if admission == Admission::Rejoined {
            let node_owned = node.to_string();
            self.journal.emit_with(Severity::Info, "cluster", "node_join", || {
                (
                    format!("node {node_owned} resumed heartbeating; back in the live set"),
                    vec![("node", node_owned.clone())],
                )
            });
            self.resplit_and_fanout("node_rejoin");
        }
        let assigned =
            self.membership.lock().get(node).map(|m| m.assigned_rate).unwrap_or(0.0);
        let mut resp = Json::obj().set("node", node);
        if self.global_rate.lock().is_some() {
            resp = resp.set("assigned_rate", assigned);
        }
        Response::ok(resp)
    }

    fn status(&self) -> Response {
        let table = self.membership.lock();
        let nodes: Vec<Json> = table
            .members()
            .iter()
            .map(|m| {
                Json::obj()
                    .set("node", m.id.as_str())
                    .set("addr", m.addr.to_string().as_str())
                    .set("state", m.state.name())
                    .set("assigned_rate", m.assigned_rate)
                    .set("weight", m.weight)
                    .set("heartbeats", m.heartbeats)
                    .set("last_seen_us", m.last_seen_us)
                    .set("window", m.window.to_json())
            })
            .collect();
        let (joined, suspect, dead) = table.counts();
        drop(table);
        Response::ok(
            Json::obj()
                .set("heartbeat_ms", self.heartbeat_us / 1_000)
                .set("global_rate", self.global_rate().map_or(Json::Null, Json::Num))
                .set("joined", joined as u64)
                .set("suspect", suspect as u64)
                .set("dead", dead as u64)
                .set("heartbeats", self.heartbeats_total.load(Ordering::Relaxed))
                .set("resplits", self.resplits_total.load(Ordering::Relaxed))
                .set("nodes", Json::Arr(nodes)),
        )
    }

    fn set_rate(&self, req: &Request) -> Response {
        let body = req.body.clone().unwrap_or(Json::Null);
        let tps = body
            .get("tps")
            .and_then(Json::as_f64)
            .or_else(|| body.get("rate").and_then(Json::as_f64));
        let Some(tps) = tps else {
            return Response::error(400, "body must contain tps");
        };
        if !tps.is_finite() || tps < 0.0 {
            return Response::error(400, "tps must be a finite non-negative number");
        }
        let split = self.set_global_rate(tps);
        Response::ok(
            Json::obj().set("global_rate", tps).set(
                "split",
                Json::Arr(
                    split
                        .into_iter()
                        .map(|(id, r)| Json::obj().set("node", id.as_str()).set("rate", r))
                        .collect(),
                ),
            ),
        )
    }

    /// Fan a request out to agents: `path(id)` builds the per-agent path,
    /// `body` is forwarded verbatim. `only` restricts to one node id.
    fn fanout(
        &self,
        method: &str,
        path: impl Fn(&str) -> String,
        body: Option<&Json>,
        only: Option<&str>,
    ) -> Response {
        let targets: Vec<(String, SocketAddr)> = {
            let table = self.membership.lock();
            table
                .live()
                .iter()
                .filter(|m| only.is_none_or(|id| id == m.id))
                .map(|m| (m.id.clone(), m.addr))
                .collect()
        };
        if targets.is_empty() {
            return Response::error(
                404,
                &only.map_or("no live nodes".to_string(), |id| format!("no live node {id}")),
            );
        }
        let mut results = Vec::new();
        for (id, addr) in targets {
            let item = match http_request_timeout(addr, method, &path(&id), body, FANOUT_TIMEOUT) {
                Ok((status, resp)) => Json::obj()
                    .set("node", id.as_str())
                    .set("status", status as u64)
                    .set("body", resp),
                Err(e) => {
                    self.journal.emit_with(Severity::Debug, "cluster", "fanout_error", || {
                        (
                            format!("{method} {} to {id} failed: {e}", path(&id)),
                            vec![("node", id.clone())],
                        )
                    });
                    Json::obj().set("node", id.as_str()).set("error", e.to_string().as_str())
                }
            };
            results.push(item);
        }
        Response::ok(Json::obj().set("results", Json::Arr(results)))
    }

    /// `GET /cluster/trace/{id}`: fan the trace lookup out to every live
    /// agent's `GET /trace/{id}` and merge the per-node views — stages
    /// summed across nodes, the dominant stage named on the merged
    /// breakdown. 404 only when no live node retained the trace.
    fn cluster_trace(&self, id_hex: &str) -> Response {
        let Some(id) = bp_obs::parse_trace_id(id_hex) else {
            return Response::error(
                400,
                &format!("invalid trace id {id_hex}: expected 1-16 hex digits"),
            );
        };
        let hex = bp_obs::format_trace_id(id);
        let targets: Vec<(String, SocketAddr)> = {
            let table = self.membership.lock();
            table.live().iter().map(|m| (m.id.clone(), m.addr)).collect()
        };
        let mut nodes: Vec<Json> = Vec::new();
        let mut stage_sums: Vec<(String, u64)> = Vec::new();
        let mut total_us = 0u64;
        for (nid, addr) in targets {
            match http_request_timeout(addr, "GET", &format!("/trace/{hex}"), None, FANOUT_TIMEOUT)
            {
                Ok((200, body)) => {
                    if let Some(stages) = body.get("stages").and_then(Json::as_arr) {
                        for st in stages {
                            let name = st.get("stage").and_then(Json::as_str);
                            let us = st.get("us").and_then(Json::as_u64);
                            let (Some(name), Some(us)) = (name, us) else { continue };
                            match stage_sums.iter_mut().find(|(n, _)| n == name) {
                                Some((_, sum)) => *sum += us,
                                None => stage_sums.push((name.to_string(), us)),
                            }
                        }
                    }
                    total_us += body.get("total_us").and_then(Json::as_u64).unwrap_or(0);
                    nodes.push(Json::obj().set("node", nid.as_str()).set("trace", body));
                }
                // 404 just means this node never retained the trace.
                Ok((404, _)) => {}
                Ok((status, _)) => {
                    self.journal.emit_with(Severity::Debug, "cluster", "fanout_error", || {
                        (
                            format!("trace lookup on {nid} returned {status}"),
                            vec![("node", nid.clone())],
                        )
                    });
                }
                Err(e) => {
                    self.journal.emit_with(Severity::Debug, "cluster", "fanout_error", || {
                        (
                            format!("trace lookup on {nid} failed: {e}"),
                            vec![("node", nid.clone())],
                        )
                    });
                }
            }
        }
        if nodes.is_empty() {
            return Response::error(404, &format!("trace {hex} not retained on any live node"));
        }
        let dominant = stage_sums
            .iter()
            .max_by_key(|(_, us)| *us)
            .map(|(n, _)| n.clone())
            .unwrap_or_default();
        let stages_json = Json::Arr(
            stage_sums
                .iter()
                .map(|(n, us)| Json::obj().set("stage", n.as_str()).set("us", *us))
                .collect(),
        );
        Response::ok(
            Json::obj().set("trace_id", hex.as_str()).set("nodes", Json::Arr(nodes)).set(
                "merged",
                Json::obj()
                    .set("stages", stages_json)
                    .set("total_us", total_us)
                    .set("dominant_stage", dominant.as_str()),
            ),
        )
    }

    /// `GET /cluster/metrics`: pull every live agent's metrics snapshot
    /// (structured samples, not text — no Prometheus parser needed), fold
    /// them with the coordinator's own registry, and render one exposition
    /// with families deduped and counters summed.
    fn merged_metrics(&self) -> Response {
        let targets: Vec<(String, SocketAddr)> = {
            let table = self.membership.lock();
            table.live().iter().map(|m| (m.id.clone(), m.addr)).collect()
        };
        let mut sets: Vec<Vec<Sample>> = Vec::new();
        if let Some(reg) = self.registry.lock().clone() {
            sets.push(reg.snapshot());
        }
        for (id, addr) in targets {
            match http_request_text_timeout(addr, "GET", "/cluster/snapshot", None, FANOUT_TIMEOUT)
            {
                Ok((200, text)) => {
                    let parsed = Json::parse(&text).unwrap_or(Json::Null);
                    let samples: Vec<Sample> = parsed
                        .get("samples")
                        .and_then(Json::as_arr)
                        .map(|arr| arr.iter().filter_map(Sample::from_json).collect())
                        .unwrap_or_default();
                    sets.push(samples);
                }
                Ok((status, _)) => {
                    self.journal.emit_with(Severity::Debug, "cluster", "fanout_error", || {
                        (
                            format!("snapshot from {id} returned {status}"),
                            vec![("node", id.clone())],
                        )
                    });
                }
                Err(e) => {
                    self.journal.emit_with(Severity::Debug, "cluster", "fanout_error", || {
                        (format!("snapshot from {id} failed: {e}"), vec![("node", id.clone())])
                    });
                }
            }
        }
        let merged = merge_samples(sets);
        Response::text(PROMETHEUS_CONTENT_TYPE, render_samples(&merged))
    }

    /// `POST /cluster/slo`: the `POST /slo` body, armed on the global
    /// rate. Two defaults differ from a node's: without `tick_ms` the loop
    /// ticks every 2 heartbeat intervals, so each tick sees fresh windows
    /// from the whole fleet; without `initial_rate` it starts from the
    /// current global rate (`min_rate` when none is set).
    fn slo_arm(&self, req: &Request) -> Response {
        let body = req.body.clone().unwrap_or(Json::Null);
        let mut cfg = match slo_config_from_json(&body) {
            Ok(cfg) => cfg,
            Err(e) => return Response::error(400, &e),
        };
        if body.get("tick_ms").and_then(Json::as_u64).is_none() {
            cfg.tick_us = 2 * self.heartbeat_us;
        }
        if body.get("initial_rate").and_then(Json::as_f64).is_none() {
            cfg.initial_rate = self.global_rate().unwrap_or(cfg.min_rate);
        }
        let core = SloCore::new(cfg.clone());
        *self.global_rate.lock() = Some(core.rate());
        self.slo.arm(&cfg);
        *self.slo_core.lock() = Some((core, self.now_us()));
        self.resplit_and_fanout("slo_arm");
        self.slo_status()
    }

    fn slo_disarm(&self) -> Response {
        *self.slo_core.lock() = None;
        self.slo.disarm();
        self.slo_status()
    }

    fn slo_status(&self) -> Response {
        Response::ok(
            slo_status_json("cluster", &self.slo)
                .set("global_rate", self.global_rate().map_or(Json::Null, Json::Num)),
        )
    }
}

impl RouteExtension for ClusterCoordinator {
    fn handle(&self, req: &Request) -> Option<Response> {
        let (path, query) = match req.path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (req.path.as_str(), ""),
        };
        let path = path.trim_matches('/');
        let parts: Vec<&str> = if path.is_empty() { Vec::new() } else { path.split('/').collect() };
        let resp = match (req.method, parts.as_slice()) {
            (Method::Post, ["cluster", "join"]) => self.join(req),
            (Method::Post, ["cluster", "heartbeat"]) => self.heartbeat(req),
            (Method::Get, ["cluster", "status"]) => self.status(),
            (Method::Get, ["cluster", "metrics"]) => self.merged_metrics(),
            (Method::Post, ["cluster", "rate"]) => self.set_rate(req),
            (Method::Post, ["cluster", action @ ("pause" | "resume" | "stop")]) => {
                let action = action.to_string();
                self.fanout(
                    "POST",
                    |id| format!("/workloads/{id}/{action}"),
                    Some(&Json::obj()),
                    query_param(query, "node"),
                )
            }
            (Method::Post, ["cluster", "mixture"]) => self.fanout(
                "POST",
                |id| format!("/workloads/{id}/mixture"),
                req.body.as_ref(),
                query_param(query, "node"),
            ),
            (Method::Post, ["cluster", "chaos"]) => self.fanout(
                "POST",
                |_| "/chaos".to_string(),
                req.body.as_ref(),
                query_param(query, "node"),
            ),
            (Method::Delete, ["cluster", "chaos"]) => self.fanout(
                "DELETE",
                |_| "/chaos".to_string(),
                None,
                query_param(query, "node"),
            ),
            (Method::Get, ["cluster", "trace", id]) => self.cluster_trace(id),
            (Method::Post, ["cluster", "slo"]) => self.slo_arm(req),
            (Method::Delete, ["cluster", "slo"]) => self.slo_disarm(),
            (Method::Get, ["cluster", "slo"]) => self.slo_status(),
            _ => return None,
        };
        Some(resp)
    }
}

impl MetricsSource for ClusterCoordinator {
    fn collect(&self, buf: &mut MetricsBuf) {
        let (joined, suspect, dead) = self.membership.lock().counts();
        buf.gauge(
            "bp_cluster_nodes",
            "Cluster members by failure-detector state.",
            &[("state", "joined")],
            joined as f64,
        );
        buf.gauge(
            "bp_cluster_nodes",
            "Cluster members by failure-detector state.",
            &[("state", "suspect")],
            suspect as f64,
        );
        buf.gauge(
            "bp_cluster_nodes",
            "Cluster members by failure-detector state.",
            &[("state", "dead")],
            dead as f64,
        );
        buf.gauge(
            "bp_cluster_global_rate",
            "Fleet-wide commanded rate (tx/s); 0 until set.",
            &[],
            self.global_rate().unwrap_or(0.0),
        );
        buf.counter(
            "bp_cluster_heartbeats_total",
            "Heartbeats received from agents.",
            &[],
            self.heartbeats_total.load(Ordering::Relaxed) as f64,
        );
        buf.counter(
            "bp_cluster_resplits_total",
            "Rate re-splits pushed to the fleet.",
            &[],
            self.resplits_total.load(Ordering::Relaxed) as f64,
        );
        buf.counter(
            "bp_cluster_stragglers_total",
            "Straggler detections (node_straggler events).",
            &[],
            self.stragglers_total.load(Ordering::Relaxed) as f64,
        );
        buf.gauge(
            "bp_cluster_slo_active",
            "1 while the cluster SLO loop is armed.",
            &[],
            if self.slo.is_active() { 1.0 } else { 0.0 },
        );
    }
}
