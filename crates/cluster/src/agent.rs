//! The cluster agent: one per benchmark node.
//!
//! An agent is just the existing single-node stack — a workload under a
//! [`bp_core::Controller`] behind a [`bp_api::ApiServer`] — plus:
//!
//! * a `GET /cluster/snapshot` route serving this node's metrics registry
//!   as structured JSON samples (the coordinator folds these into the
//!   merged `GET /cluster/metrics` exposition);
//! * a background heartbeat thread that joins the coordinator (with
//!   retry), reports the controller's windowed latency histogram and
//!   throughput every interval, and applies the rate share the coordinator
//!   assigns.
//!
//! Crash semantics: while the node's storage engine is crashed
//! (`database().is_crashed()` — e.g. a chaos `ServerCrash`), the agent
//! *stops heartbeating*. A node that cannot commit is dead to the fleet,
//! so the coordinator's missed-heartbeat detector declares it suspect and
//! then dead, and traffic re-splits to the survivors — no special kill RPC
//! needed.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bp_api::http::http_request_timeout;
use bp_api::router::RouteExtension;
use bp_api::{ApiServer, Method, Request, Response};
use bp_core::{Controller, Rate};
use bp_obs::{MetricsRegistry, Severity};
use bp_util::json::Json;

use crate::coordinator::FANOUT_TIMEOUT;
use crate::member::NodeWindow;

/// How an agent reaches its coordinator and identifies itself.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Node id; becomes the workload id on this agent's API server and the
    /// member id in the coordinator's table.
    pub node: String,
    /// Coordinator control address.
    pub coordinator: SocketAddr,
    /// This agent's own control address, as the coordinator should dial it.
    pub advertise: SocketAddr,
    /// Heartbeat period.
    pub heartbeat: Duration,
    /// Seconds of history the reported latency window covers.
    pub window_s: usize,
}

impl AgentConfig {
    pub fn new(node: &str, coordinator: SocketAddr, advertise: SocketAddr) -> AgentConfig {
        AgentConfig {
            node: node.to_string(),
            coordinator,
            advertise,
            heartbeat: Duration::from_millis(200),
            window_s: 2,
        }
    }

    pub fn with_heartbeat(mut self, heartbeat: Duration) -> AgentConfig {
        self.heartbeat = heartbeat;
        self
    }
}

/// The agent-side `/cluster/*` routes (mounted as the API server's route
/// extension): today just the metrics snapshot.
struct AgentRoutes {
    node: String,
    registry: Arc<MetricsRegistry>,
}

impl RouteExtension for AgentRoutes {
    fn handle(&self, req: &Request) -> Option<Response> {
        let path = req.path.split('?').next().unwrap_or("").trim_matches('/');
        match (req.method, path) {
            (Method::Get, "cluster/snapshot") => {
                let samples: Vec<Json> =
                    self.registry.snapshot().iter().map(|s| s.to_json()).collect();
                Some(Response::ok(
                    Json::obj().set("node", self.node.as_str()).set("samples", Json::Arr(samples)),
                ))
            }
            _ => None,
        }
    }
}

/// Stops the heartbeat thread on drop.
pub struct AgentGuard {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    heartbeats_sent: Arc<AtomicU64>,
}

impl AgentGuard {
    /// Heartbeats successfully delivered (2xx from the coordinator).
    pub fn heartbeats_sent(&self) -> u64 {
        self.heartbeats_sent.load(Ordering::Relaxed)
    }
}

impl Drop for AgentGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Wire a node into the fleet: mount the snapshot route on its API server,
/// join the coordinator, and start heartbeating. The returned guard owns
/// the heartbeat thread.
///
/// The `controller` must be registered on `api` under `cfg.node` — that's
/// the path (`/workloads/<node>/rate`) the coordinator pushes rate shares
/// to.
pub fn start_agent(
    cfg: AgentConfig,
    controller: Controller,
    api: &Arc<ApiServer>,
    registry: Arc<MetricsRegistry>,
) -> AgentGuard {
    api.set_extension(Arc::new(AgentRoutes { node: cfg.node.clone(), registry }));
    let stop = Arc::new(AtomicBool::new(false));
    let heartbeats_sent = Arc::new(AtomicU64::new(0));
    let flag = stop.clone();
    let sent = heartbeats_sent.clone();
    let thread = std::thread::Builder::new()
        .name(format!("bp-agent-{}", cfg.node))
        .spawn(move || heartbeat_loop(cfg, controller, flag, sent))
        .expect("spawn agent heartbeat thread");
    AgentGuard { stop, thread: Some(thread), heartbeats_sent }
}

fn heartbeat_loop(
    cfg: AgentConfig,
    controller: Controller,
    stop: Arc<AtomicBool>,
    sent: Arc<AtomicU64>,
) {
    let journal = controller.journal().clone();
    // Join with retry: the coordinator may come up after its agents.
    let join_body = Json::obj()
        .set("node", cfg.node.as_str())
        .set("addr", cfg.advertise.to_string().as_str());
    let mut joined = false;
    while !stop.load(Ordering::Relaxed) && !joined {
        match http_request_timeout(
            cfg.coordinator,
            "POST",
            "/cluster/join",
            Some(&join_body),
            FANOUT_TIMEOUT,
        ) {
            Ok((200, resp)) => {
                joined = true;
                apply_assigned_rate(&controller, &resp);
                journal.emit_with(Severity::Info, "cluster", "node_join", || {
                    (
                        format!("joined coordinator {} as {}", cfg.coordinator, cfg.node),
                        vec![("node", cfg.node.clone())],
                    )
                });
            }
            _ => std::thread::sleep(cfg.heartbeat),
        }
    }
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(cfg.heartbeat);
        if stop.load(Ordering::Relaxed) {
            break;
        }
        // A crashed engine cannot serve its share of the fleet's load;
        // going silent is how this node tells the coordinator so.
        if controller.database().is_crashed() {
            continue;
        }
        let stats = controller.stats();
        // Slowest recently retained trace: the exemplar the coordinator can
        // cite if this node turns out to be the fleet's straggler.
        let slow_trace = controller.spans().and_then(|rec| {
            rec.recent(64)
                .into_iter()
                .filter(|s| s.trace_id != 0)
                .max_by_key(|s| s.total_us())
                .map(|s| s.trace_id)
        });
        let window = NodeWindow::from_histogram(
            stats.window_histogram(cfg.window_s),
            stats.window_snapshot(cfg.window_s).throughput,
            slow_trace.unwrap_or(0),
        );
        let body = Json::obj().set("node", cfg.node.as_str()).set("window", window.to_json());
        match http_request_timeout(
            cfg.coordinator,
            "POST",
            "/cluster/heartbeat",
            Some(&body),
            FANOUT_TIMEOUT,
        ) {
            Ok((200, resp)) => {
                sent.fetch_add(1, Ordering::Relaxed);
                apply_assigned_rate(&controller, &resp);
            }
            Ok(_) | Err(_) => {
                // Coordinator down or unreachable; keep trying — membership
                // recovery is its problem, not ours.
            }
        }
    }
}

/// Apply the coordinator's assigned rate share, if the response carries one
/// and it differs from what we're already running.
fn apply_assigned_rate(controller: &Controller, resp: &Json) {
    let Some(tps) = resp.get("assigned_rate").and_then(Json::as_f64) else {
        return;
    };
    if !tps.is_finite() || tps <= 0.0 {
        return;
    }
    match controller.current_rate() {
        Rate::Limited(cur) if (cur - tps).abs() < 1e-9 => {}
        _ => controller.set_rate(Rate::Limited(tps)),
    }
}
