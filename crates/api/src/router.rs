//! The API router: endpoints, request/response model and handlers.

use std::collections::HashMap;
use std::sync::Arc;

use bp_util::sync::RwLock;

use bp_chaos::{ChaosController, FaultPlan};
use bp_core::{
    ControlLaw, Controller, MixturePreset, Rate, RecoveryConfig, SloConfig, SloHandle, SloTarget,
    StatusSnapshot,
};
use bp_obs::{Event, EventJournal, MetricsRegistry, Severity};
use bp_replay::{Artifact, ReplaySession, ReplayTiming};
use bp_util::json::Json;

/// Prometheus text exposition content type.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// JSON-lines content type used by `/trace/spans`.
pub const JSONL_CONTENT_TYPE: &str = "application/x-ndjson";

/// Content type for `GET /record` replay artifacts.
pub const ARTIFACT_CONTENT_TYPE: &str = "text/plain; charset=utf-8";

/// Slack added on each side of a span's lifetime when correlating journal
/// events by time in `GET /trace/{id}` (the clock domains align only
/// loosely).
const TRACE_EVENT_SLACK_US: u64 = 1_000;

/// Cap on correlated events returned by `GET /trace/{id}` (most recent
/// win).
const TRACE_EVENT_CAP: usize = 50;

/// HTTP-style method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Get,
    Post,
    Delete,
}

impl Method {
    pub fn parse(s: &str) -> Option<Method> {
        match s.to_ascii_uppercase().as_str() {
            "GET" => Some(Method::Get),
            "POST" | "PUT" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

/// An API request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: Method,
    pub path: String,
    pub body: Option<Json>,
}

impl Request {
    pub fn get(path: &str) -> Request {
        Request { method: Method::Get, path: path.to_string(), body: None }
    }

    pub fn post(path: &str, body: Json) -> Request {
        Request { method: Method::Post, path: path.to_string(), body: Some(body) }
    }
}

/// An API response. Most endpoints return JSON (`body`); text-exposition
/// endpoints (`/metrics`, `/trace/spans`) set `raw` instead, which the HTTP
/// transport serves verbatim under its content type.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: Json,
    /// `(content_type, payload)` for non-JSON responses.
    pub raw: Option<(String, String)>,
}

impl Response {
    pub fn ok(body: Json) -> Response {
        Response { status: 200, body, raw: None }
    }

    pub fn error(status: u16, message: &str) -> Response {
        Response { status, body: Json::obj().set("error", message), raw: None }
    }

    /// A 200 response carrying a raw text payload.
    pub fn text(content_type: &str, payload: String) -> Response {
        Response { status: 200, body: Json::Null, raw: Some((content_type.to_string(), payload)) }
    }

    pub fn is_ok(&self) -> bool {
        self.status == 200
    }
}

/// Pluggable hook for adding benchmarks on the fly (POST /workloads):
/// the embedding application decides how to set up and start a workload.
pub trait Launcher: Send + Sync {
    /// Benchmarks this launcher can start.
    fn available(&self) -> Vec<String>;

    /// Set up (if needed) and start the named benchmark; returns the new
    /// tenant's controller.
    fn launch(&self, benchmark: &str, body: &Json) -> Result<Controller, String>;
}

/// Provider for `GET /record`: returns the current capture as artifact
/// text, or `None` while there is nothing to serve.
pub type RecordProvider = Arc<dyn Fn() -> Option<String> + Send + Sync>;

/// Pluggable route extension: a chance to serve requests the built-in
/// router has no route for (the cluster layer mounts its `/cluster/*`
/// endpoints this way). Returning `None` falls through to the 404.
pub trait RouteExtension: Send + Sync {
    fn handle(&self, req: &Request) -> Option<Response>;
}

/// Pluggable hook for `POST /replay`: the embedding application owns the
/// database and workload, so it decides how a captured artifact turns into
/// a live replay run (typically via `bp_replay::start_replay`).
pub trait ReplayLauncher: Send + Sync {
    /// Start replaying the artifact; the returned session is what
    /// `GET /replay/status` reports on.
    fn launch(&self, artifact: &Artifact, timing: ReplayTiming) -> Result<ReplaySession, String>;
}

/// The API server: a named set of workload controllers plus an optional
/// launcher and metrics provider.
pub struct ApiServer {
    workloads: RwLock<HashMap<String, Controller>>,
    launcher: Option<Arc<dyn Launcher>>,
    metrics: Option<Arc<dyn Fn() -> Json + Send + Sync>>,
    registry: Option<Arc<MetricsRegistry>>,
    chaos: RwLock<Option<Arc<ChaosController>>>,
    replay_launcher: Option<Arc<dyn ReplayLauncher>>,
    replay: RwLock<Option<Arc<ReplaySession>>>,
    record: RwLock<Option<RecordProvider>>,
    extension: RwLock<Option<Arc<dyn RouteExtension>>>,
}

impl Default for ApiServer {
    fn default() -> Self {
        ApiServer::new()
    }
}

fn status_json(st: &StatusSnapshot) -> Json {
    Json::obj()
        .set("throughput", st.throughput)
        .set(
            "latency_by_type",
            Json::Arr(
                st.latency_by_type
                    .iter()
                    .map(|(n, l)| Json::obj().set("type", n.as_str()).set("avg_latency_us", *l))
                    .collect(),
            ),
        )
        .set("p95_latency_us", st.p95_latency_us)
        .set("committed", st.committed)
        .set("user_aborted", st.user_aborted)
        .set("failed", st.failed)
        .set("shed", st.shed)
        .set("retries", st.retries)
        .set("elapsed_s", st.elapsed_s)
}

/// Look up a `key=value` pair in a raw query string (no percent-decoding —
/// the API's parameters are all simple tokens).
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Strict `?last=N` parsing: absent falls back to `default`; present but
/// non-numeric, negative, or overflowing is a 400 (not a silent default —
/// a typo'd `last=1e4` silently returning 100 events is a debugging trap).
fn parse_last(query: &str, default: usize) -> Result<usize, Response> {
    match query_param(query, "last") {
        None => Ok(default),
        Some(v) => v.parse::<usize>().map_err(|_| {
            Response::error(400, &format!("invalid last={v}: must be a non-negative integer"))
        }),
    }
}

/// Optional `/trace/spans` filters; each absent field means "no filter".
struct SpanFilters {
    outcome: Option<bp_obs::SpanOutcome>,
    tenant: Option<u16>,
    min_us: Option<u64>,
}

impl SpanFilters {
    fn matches(&self, s: &bp_obs::Span) -> bool {
        self.outcome.is_none_or(|o| s.outcome == o)
            && self.tenant.is_none_or(|t| s.tenant == t)
            && self.min_us.is_none_or(|us| s.total_us() >= us)
    }
}

/// Strict parsing of the `/trace/spans` filters (`outcome=`, `tenant=`,
/// `min_us=`): absent falls through, present but unparseable is a 400.
fn parse_span_filters(query: &str) -> Result<SpanFilters, Response> {
    let outcome = match query_param(query, "outcome") {
        None => None,
        Some(v) => Some(bp_obs::SpanOutcome::parse(v).ok_or_else(|| {
            Response::error(
                400,
                &format!("invalid outcome={v}; known: committed, user_aborted, failed, shed"),
            )
        })?),
    };
    let tenant = match query_param(query, "tenant") {
        None => None,
        Some(v) => Some(v.parse::<u16>().map_err(|_| {
            Response::error(400, &format!("invalid tenant={v}: must be an integer in 0..=65535"))
        })?),
    };
    let min_us = match query_param(query, "min_us") {
        None => None,
        Some(v) => Some(v.parse::<u64>().map_err(|_| {
            Response::error(400, &format!("invalid min_us={v}: must be a non-negative integer"))
        })?),
    };
    Ok(SpanFilters { outcome, tenant, min_us })
}

/// Strict `?severity=` parsing: absent means everything (debug and up).
fn parse_severity(query: &str) -> Result<Severity, Response> {
    match query_param(query, "severity") {
        None => Ok(Severity::Debug),
        Some(v) => Severity::parse(v).ok_or_else(|| {
            Response::error(
                400,
                &format!("invalid severity={v}; known: debug, info, warn, error"),
            )
        }),
    }
}

fn rate_json(rate: Rate) -> Json {
    match rate {
        Rate::Unlimited => Json::Str("unlimited".into()),
        Rate::Disabled => Json::Str("disabled".into()),
        Rate::Limited(tps) => Json::Num(tps),
    }
}

/// Build an [`SloConfig`] from a `POST /slo` (or `POST /cluster/slo`)
/// body; every field falls back to the crate default.
pub fn slo_config_from_json(body: &Json) -> Result<SloConfig, String> {
    let mut cfg = SloConfig::default();
    let limit_us = match body.get("limit_ms").and_then(Json::as_f64) {
        Some(ms) if ms > 0.0 && ms.is_finite() => (ms * 1_000.0).round() as u64,
        Some(_) => return Err("limit_ms must be a positive number".into()),
        None => cfg.target.limit_us(),
    };
    let kind = body.get("target").and_then(Json::as_str).unwrap_or("p99");
    cfg.target = SloTarget::parse(kind, limit_us)
        .ok_or_else(|| format!("unknown target {kind}; known: p99, p50, max-throughput"))?;
    if let Some(law) = body.get("law").and_then(Json::as_str) {
        cfg.law =
            ControlLaw::parse(law).ok_or_else(|| format!("unknown law {law}; known: aimd, pid"))?;
    }
    if let Some(w) = body.get("window_s").and_then(Json::as_u64) {
        cfg.window_s = (w as usize).max(1);
    }
    if let Some(t) = body.get("tick_ms").and_then(Json::as_u64) {
        cfg.tick_us = t.max(1) * 1_000;
    }
    if let Some(v) = body.get("min_rate").and_then(Json::as_f64) {
        cfg.min_rate = v.max(0.0);
    }
    if let Some(v) = body.get("max_rate").and_then(Json::as_f64) {
        cfg.max_rate = v;
    }
    if let Some(v) = body.get("initial_rate").and_then(Json::as_f64) {
        cfg.initial_rate = v;
    }
    if let Some(v) = body.get("step").and_then(Json::as_f64) {
        cfg.additive_step = v;
    }
    if let Some(v) = body.get("backoff").and_then(Json::as_f64) {
        if !(0.0..1.0).contains(&v) || v == 0.0 {
            return Err("backoff must be in (0, 1)".into());
        }
        cfg.backoff = v;
    }
    if let Some(v) = body.get("breaker_backoff").and_then(Json::as_f64) {
        if !(0.0..1.0).contains(&v) || v == 0.0 {
            return Err("breaker_backoff must be in (0, 1)".into());
        }
        cfg.breaker_backoff = v;
    }
    if let Some(v) = body.get("kp").and_then(Json::as_f64) {
        cfg.kp = v;
    }
    if let Some(v) = body.get("ki").and_then(Json::as_f64) {
        cfg.ki = v;
    }
    if let Some(v) = body.get("kd").and_then(Json::as_f64) {
        cfg.kd = v;
    }
    if let Some(v) = body.get("min_samples").and_then(Json::as_u64) {
        cfg.min_samples = v;
    }
    if cfg.max_rate < cfg.min_rate {
        return Err("max_rate must be >= min_rate".into());
    }
    Ok(cfg)
}

/// The `GET /slo/status` (and `GET /cluster/slo`) body for one SLO handle.
pub fn slo_status_json(id: &str, h: &SloHandle) -> Json {
    let (target, limit_us, law, window_s) = match h.config() {
        Some(cfg) => (cfg.target.kind(), cfg.target.limit_us(), cfg.law.name(), cfg.window_s as u64),
        None => ("none", 0, "none", 0),
    };
    Json::obj()
        .set("workload", id)
        .set("active", h.is_active())
        .set("target", target)
        .set("limit_us", limit_us)
        .set("law", law)
        .set("window_s", window_s)
        .set("rate", h.current_rate())
        .set("error", h.error())
        .set("observed_us", h.observed_us())
        .set("observed_throughput", h.observed_throughput())
        .set("window_samples", h.window_samples())
        .set("ticks", h.ticks())
        .set(
            "adjustments",
            Json::obj()
                .set("increase", h.increases())
                .set("decrease", h.decreases())
                .set("hold", h.holds())
                .set("breaker_backoff", h.breaker_backoffs()),
        )
}

/// GET /healthz — process liveness. Always 200: if the router runs, the
/// process is alive. Readiness (can the testbed do useful work?) is a
/// separate, stricter question answered by `/readyz`.
fn healthz() -> Response {
    Response::ok(Json::obj().set("ok", true))
}

/// The `GET /recovery/status` body: engine-side crash/recovery counters
/// plus the supervisor's own state for one workload.
fn recovery_status_json(id: &str, c: &Controller) -> Json {
    let s = c.database().recovery_status();
    let h = c.recovery();
    let (poll_us, checkpoint_us) = match h.config() {
        Some(cfg) => (cfg.poll_interval_us, cfg.checkpoint_interval_us),
        None => (0, 0),
    };
    Json::obj()
        .set("workload", id)
        .set("crashed", s.crashed)
        .set("crashes", s.crashes)
        .set("recoveries", s.recoveries)
        .set("replayed_records", s.replayed_records)
        .set("torn_truncations", s.torn_truncations)
        .set("checkpoints", s.checkpoints)
        .set("segments_truncated", s.segments_truncated)
        .set("last_recovery_us", s.last_recovery_us)
        .set(
            "last_crashpoint",
            match s.last_crashpoint {
                Some(p) => Json::Str(p.name().to_string()),
                None => Json::Null,
            },
        )
        .set("checkpoint_lsn", s.checkpoint_lsn)
        .set("durable_lsn", s.durable_lsn)
        .set("generation", s.generation)
        .set(
            "supervisor",
            Json::obj()
                .set("active", h.is_active())
                .set("poll_us", poll_us)
                .set("checkpoint_us", checkpoint_us)
                .set("recoveries_run", h.recoveries_run())
                .set("checkpoints_run", h.checkpoints_run())
                .set("ticks", h.ticks()),
        )
}

impl ApiServer {
    pub fn new() -> ApiServer {
        ApiServer {
            workloads: RwLock::new(HashMap::new()),
            launcher: None,
            metrics: None,
            registry: None,
            chaos: RwLock::new(None),
            replay_launcher: None,
            replay: RwLock::new(None),
            record: RwLock::new(None),
            extension: RwLock::new(None),
        }
    }

    /// Mount a route extension; it sees every request the built-in routes
    /// do not claim (e.g. `/cluster/*`).
    pub fn set_extension(&self, ext: Arc<dyn RouteExtension>) {
        *self.extension.write() = Some(ext);
    }

    /// Attach a replay launcher for `POST /replay`.
    pub fn with_replay_launcher(mut self, launcher: Arc<dyn ReplayLauncher>) -> ApiServer {
        self.replay_launcher = Some(launcher);
        self
    }

    /// Provide the `GET /record` artifact. A provider (rather than a stored
    /// string) lets the embedder snapshot a still-recording run on demand.
    pub fn set_record_provider(&self, f: RecordProvider) {
        *self.record.write() = Some(f);
    }

    /// The current replay session, if one was started via `POST /replay`.
    pub fn replay_session(&self) -> Option<Arc<ReplaySession>> {
        self.replay.read().clone()
    }

    /// Attach a chaos controller explicitly for the `/chaos` endpoints.
    /// Without this, the endpoints fall back to the chaos controller of the
    /// first registered workload's engine.
    pub fn with_chaos(self, chaos: Arc<ChaosController>) -> ApiServer {
        *self.chaos.write() = Some(chaos);
        self
    }

    fn chaos_controller(&self) -> Option<Arc<ChaosController>> {
        if let Some(c) = self.chaos.read().clone() {
            return Some(c);
        }
        let map = self.workloads.read();
        let mut ids: Vec<&String> = map.keys().collect();
        ids.sort();
        ids.first().map(|id| map[*id].chaos().clone())
    }

    pub fn with_launcher(mut self, launcher: Arc<dyn Launcher>) -> ApiServer {
        self.launcher = Some(launcher);
        self
    }

    /// Provide a metrics callback for GET /metrics (e.g. from bp-monitor).
    /// Superseded by [`ApiServer::with_registry`], which serves Prometheus
    /// text instead of ad-hoc JSON; the callback remains as a fallback when
    /// no registry is configured.
    pub fn with_metrics(mut self, f: Arc<dyn Fn() -> Json + Send + Sync>) -> ApiServer {
        self.metrics = Some(f);
        self
    }

    /// Attach a unified metrics registry. GET /metrics then renders the
    /// Prometheus text exposition, and every controller registered with
    /// [`ApiServer::register`] has its stats / server counters / span
    /// recorder wired into it automatically.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> ApiServer {
        self.registry = Some(registry);
        self
    }

    /// The attached metrics registry, if any.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.registry.as_ref()
    }

    /// Register a running workload under an id.
    pub fn register(&self, id: &str, controller: Controller) {
        if let Some(reg) = &self.registry {
            controller.register_metrics(reg);
        }
        controller.journal().emit_with(Severity::Info, "api", "run_start", || {
            (
                format!("workload {id} registered ({})", controller.workload_name()),
                vec![("workload", id.to_string())],
            )
        });
        self.workloads.write().insert(id.to_string(), controller);
    }

    pub fn controller(&self, id: &str) -> Option<Controller> {
        self.workloads.read().get(id).cloned()
    }

    pub fn workload_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.workloads.read().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Route and handle a request.
    pub fn handle(&self, req: &Request) -> Response {
        let (path, query) = match req.path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (req.path.as_str(), ""),
        };
        let path = path.trim_matches('/');
        let parts: Vec<&str> = if path.is_empty() { Vec::new() } else { path.split('/').collect() };
        match (req.method, parts.as_slice()) {
            (Method::Get, ["status"]) | (Method::Get, []) => self.all_status(),
            (Method::Get, ["workloads"]) => Response::ok(
                Json::Arr(self.workload_ids().into_iter().map(Json::Str).collect()),
            ),
            (Method::Post, ["workloads"]) => self.add_workload(req),
            (Method::Get, ["benchmarks"]) => match &self.launcher {
                Some(l) => Response::ok(Json::Arr(
                    l.available().into_iter().map(Json::Str).collect(),
                )),
                None => Response::error(501, "no launcher configured"),
            },
            (Method::Get, ["metrics"]) => self.metrics_response(),
            (Method::Post, ["replay"]) => self.replay_start(req),
            (Method::Get, ["replay", "status"]) => self.replay_status(),
            (Method::Get, ["record"]) => self.record_artifact(),
            (Method::Post, ["chaos"]) => self.chaos_arm(req),
            (Method::Delete, ["chaos"]) => self.chaos_disarm(),
            (Method::Get, ["chaos", "status"]) => self.chaos_status(),
            (Method::Get, ["healthz"]) => healthz(),
            (Method::Get, ["readyz"]) => self.readyz(),
            (Method::Post, ["recovery"]) => self.recovery_arm(req, query),
            (Method::Delete, ["recovery"]) => self.recovery_disarm(req, query),
            (Method::Get, ["recovery", "status"]) => self.recovery_status(req, query),
            (Method::Post, ["slo"]) => self.slo_arm(req, query),
            (Method::Delete, ["slo"]) => self.slo_disarm(req, query),
            (Method::Get, ["slo", "status"]) => self.slo_status(req, query),
            (Method::Get, ["trace", "spans"]) => self.trace_spans(query),
            (Method::Get, ["trace", "summary"]) => self.trace_summary(),
            (Method::Get, ["trace", id]) => self.trace_detail(id),
            (Method::Get, ["events"]) => self.events(query),
            (Method::Get, ["report"]) => self.report(query),
            (Method::Get, ["doctor"]) => self.doctor(query),
            (Method::Get, ["workloads", id]) => self.workload_status(id),
            (Method::Post, ["workloads", id, action]) => self.workload_action(id, action, req),
            _ => {
                let ext = self.extension.read().clone();
                match ext.and_then(|e| e.handle(req)) {
                    Some(resp) => resp,
                    None => Response::error(404, &format!("no route for {}", req.path)),
                }
            }
        }
    }

    /// POST /replay — start replaying a captured artifact. Body:
    /// `{"artifact": "<bp-replay text>", "mode": "as-recorded"|"warp"|"asap",
    /// "warp": k}`. 409 while a previous replay is still running.
    fn replay_start(&self, req: &Request) -> Response {
        let Some(launcher) = &self.replay_launcher else {
            return Response::error(501, "no replay launcher configured");
        };
        if let Some(session) = self.replay.read().clone() {
            if !session.is_complete() {
                return Response::error(409, "a replay is already running");
            }
        }
        let body = req.body.clone().unwrap_or(Json::Null);
        let Some(text) = body.get("artifact").and_then(Json::as_str) else {
            return Response::error(400, "body must contain artifact (bp-replay artifact text)");
        };
        let artifact = match Artifact::from_text(text) {
            Ok(a) => a,
            Err(e) => return Response::error(400, &format!("invalid artifact: {e}")),
        };
        let timing = match ReplayTiming::parse(
            body.get("mode").and_then(Json::as_str),
            body.get("warp").and_then(Json::as_f64),
        ) {
            Ok(t) => t,
            Err(e) => return Response::error(400, &e),
        };
        match launcher.launch(&artifact, timing) {
            Ok(session) => {
                let session = Arc::new(session);
                if let Some(reg) = &self.registry {
                    session.register_metrics(reg);
                }
                session.controller.journal().emit_with(
                    Severity::Info,
                    "api",
                    "replay_launch",
                    || {
                        (
                            format!(
                                "replay of {} launched ({} scheduled requests)",
                                session.workload,
                                artifact.schedule.len(),
                            ),
                            vec![("workload", session.workload.clone())],
                        )
                    },
                );
                let resp = Response::ok(session.status_json());
                *self.replay.write() = Some(session);
                resp
            }
            Err(e) => Response::error(400, &e),
        }
    }

    /// GET /replay/status — progress and (once complete) the divergence
    /// report of the most recently started replay.
    fn replay_status(&self) -> Response {
        match self.replay.read().clone() {
            Some(session) => Response::ok(session.status_json()),
            None => Response::error(404, "no replay started"),
        }
    }

    /// GET /record — the captured artifact of the current/last recorded run
    /// as `text/plain`, ready to be fed back to `POST /replay`.
    fn record_artifact(&self) -> Response {
        let provider = self.record.read().clone();
        match provider.and_then(|f| f()) {
            Some(text) => Response::text(ARTIFACT_CONTENT_TYPE, text),
            None => Response::error(404, "no recorded artifact available"),
        }
    }

    /// POST /chaos — arm a fault scenario mid-run. Body is either
    /// `{"scenario": "error-burst", "seed": 7}` (a named preset) or
    /// `{"plan": {...}}` (an inline [`FaultPlan`]); `{"disarm": true}`
    /// disarms instead.
    fn chaos_arm(&self, req: &Request) -> Response {
        let Some(chaos) = self.chaos_controller() else {
            return Response::error(501, "no chaos controller wired");
        };
        let body = req.body.clone().unwrap_or(Json::Null);
        if body.get("disarm").and_then(Json::as_bool) == Some(true) {
            chaos.disarm();
            return Response::ok(chaos.status_json());
        }
        let plan = if let Some(name) = body.get("scenario").and_then(Json::as_str) {
            let seed = body.get("seed").and_then(Json::as_u64).unwrap_or(42);
            match FaultPlan::scenario(name, seed) {
                Some(p) => p,
                None => {
                    return Response::error(
                        400,
                        &format!(
                            "unknown scenario {name}; known: {}",
                            FaultPlan::scenario_names().join(", ")
                        ),
                    )
                }
            }
        } else if let Some(p) = body.get("plan") {
            match FaultPlan::from_json(p) {
                Some(p) => p,
                None => return Response::error(400, "invalid fault plan"),
            }
        } else {
            return Response::error(400, "body must contain scenario, plan, or disarm");
        };
        chaos.arm(plan);
        Response::ok(chaos.status_json())
    }

    /// DELETE /chaos — disarm fault injection (counters are kept).
    fn chaos_disarm(&self) -> Response {
        let Some(chaos) = self.chaos_controller() else {
            return Response::error(501, "no chaos controller wired");
        };
        chaos.disarm();
        Response::ok(chaos.status_json())
    }

    /// GET /chaos/status — armed flag, plan, and per-kind probe/injection
    /// counters.
    fn chaos_status(&self) -> Response {
        let Some(chaos) = self.chaos_controller() else {
            return Response::error(501, "no chaos controller wired");
        };
        Response::ok(chaos.status_json())
    }

    /// The workload an `/slo` request addresses: the `workload` field of
    /// the body (or query parameter), falling back to the first registered
    /// workload id — the same convention the `/chaos` endpoints use.
    fn slo_workload(&self, body: &Json, query: &str) -> Result<(String, Controller), Response> {
        let explicit = body
            .get("workload")
            .and_then(Json::as_str)
            .or_else(|| query_param(query, "workload"));
        let map = self.workloads.read();
        match explicit {
            Some(id) => match map.get(id) {
                Some(c) => Ok((id.to_string(), c.clone())),
                None => Err(Response::error(404, &format!("unknown workload {id}"))),
            },
            None => {
                let mut ids: Vec<&String> = map.keys().collect();
                ids.sort();
                match ids.first() {
                    Some(id) => Ok(((*id).clone(), map[*id].clone())),
                    None => Err(Response::error(404, "no workloads registered")),
                }
            }
        }
    }

    /// POST /slo — arm the closed-loop admission controller on a workload.
    /// Body (all fields optional): `{"target": "p99"|"p50"|"max-throughput",
    /// "limit_ms": 50, "law": "aimd"|"pid", "window_s": 3, "tick_ms": 200,
    /// "min_rate": 10, "max_rate": 5000, "initial_rate": 100, "step": 50,
    /// "backoff": 0.7, "breaker_backoff": 0.5, "min_samples": 20,
    /// "kp": .., "ki": .., "kd": .., "workload": "<id>"}`.
    fn slo_arm(&self, req: &Request, query: &str) -> Response {
        let body = req.body.clone().unwrap_or(Json::Null);
        let (id, c) = match self.slo_workload(&body, query) {
            Ok(t) => t,
            Err(r) => return r,
        };
        let cfg = match slo_config_from_json(&body) {
            Ok(cfg) => cfg,
            Err(e) => return Response::error(400, &e),
        };
        c.start_slo(cfg);
        if let Some(reg) = &self.registry {
            // Arc-pointer dedupe in the registry makes re-arming a no-op.
            reg.register(&format!("slo:{id}"), c.slo().clone());
        }
        Response::ok(slo_status_json(&id, c.slo()))
    }

    /// DELETE /slo — disarm the SLO loop; the last commanded rate sticks
    /// (operators use POST /workloads/{id}/rate to change it afterwards).
    fn slo_disarm(&self, req: &Request, query: &str) -> Response {
        let body = req.body.clone().unwrap_or(Json::Null);
        let (id, c) = match self.slo_workload(&body, query) {
            Ok(t) => t,
            Err(r) => return r,
        };
        c.stop_slo();
        Response::ok(slo_status_json(&id, c.slo()))
    }

    /// GET /slo/status — the controller's live state: target, commanded
    /// rate, windowed observation and per-adjustment counters.
    fn slo_status(&self, req: &Request, query: &str) -> Response {
        let body = req.body.clone().unwrap_or(Json::Null);
        let (id, c) = match self.slo_workload(&body, query) {
            Ok(t) => t,
            Err(r) => return r,
        };
        Response::ok(slo_status_json(&id, c.slo()))
    }

    /// GET /readyz — readiness probe: 200 once at least one workload is
    /// registered and no workload's engine is crashed (i.e. mid-outage,
    /// waiting on recovery). Load balancers and harnesses poll this to know
    /// when to (re)start driving traffic.
    fn readyz(&self) -> Response {
        let map = self.workloads.read();
        let mut ids: Vec<&String> = map.keys().collect();
        ids.sort();
        let mut crashed: Vec<Json> = Vec::new();
        for id in &ids {
            if map[*id].database().is_crashed() {
                crashed.push(Json::Str((*id).clone()));
            }
        }
        let ready = !ids.is_empty() && crashed.is_empty();
        let reason = if ids.is_empty() {
            "no workloads registered"
        } else if !crashed.is_empty() {
            "engine crashed; awaiting recovery"
        } else {
            "ok"
        };
        let body = Json::obj()
            .set("ready", ready)
            .set("reason", reason)
            .set("workloads", ids.len() as u64)
            .set("crashed", Json::Arr(crashed));
        Response { status: if ready { 200 } else { 503 }, body, raw: None }
    }

    /// POST /recovery — arm the recovery supervisor (watchdog + periodic
    /// checkpointer) on a workload. Body (all optional): `{"poll_ms": 5,
    /// "checkpoint_ms": 2000, "workload": "<id>"}`. `checkpoint_ms: 0`
    /// disables periodic checkpoints.
    fn recovery_arm(&self, req: &Request, query: &str) -> Response {
        let body = req.body.clone().unwrap_or(Json::Null);
        let (id, c) = match self.slo_workload(&body, query) {
            Ok(t) => t,
            Err(r) => return r,
        };
        let mut cfg = RecoveryConfig::default();
        if let Some(v) = body.get("poll_ms").and_then(Json::as_u64) {
            if v == 0 {
                return Response::error(400, "poll_ms must be > 0");
            }
            cfg.poll_interval_us = v * 1_000;
        }
        if let Some(v) = body.get("checkpoint_ms").and_then(Json::as_u64) {
            cfg.checkpoint_interval_us = v * 1_000;
        }
        c.start_recovery(cfg);
        Response::ok(recovery_status_json(&id, &c))
    }

    /// DELETE /recovery — disarm the supervisor. A crashed engine then
    /// stays down until re-armed or recovered manually.
    fn recovery_disarm(&self, req: &Request, query: &str) -> Response {
        let body = req.body.clone().unwrap_or(Json::Null);
        let (id, c) = match self.slo_workload(&body, query) {
            Ok(t) => t,
            Err(r) => return r,
        };
        c.stop_recovery();
        Response::ok(recovery_status_json(&id, &c))
    }

    /// GET /recovery/status — engine crash/recovery counters and the
    /// supervisor's state.
    fn recovery_status(&self, req: &Request, query: &str) -> Response {
        let body = req.body.clone().unwrap_or(Json::Null);
        let (id, c) = match self.slo_workload(&body, query) {
            Ok(t) => t,
            Err(r) => return r,
        };
        Response::ok(recovery_status_json(&id, &c))
    }

    /// Every distinct event journal across the registered workloads
    /// (controllers sharing one database share one journal; dedupe by
    /// pointer), in sorted-workload-id order.
    fn journals(&self) -> Vec<Arc<EventJournal>> {
        let map = self.workloads.read();
        let mut ids: Vec<&String> = map.keys().collect();
        ids.sort();
        let mut out: Vec<Arc<EventJournal>> = Vec::new();
        for id in ids {
            let j = map[id].journal().clone();
            if !out.iter().any(|seen| Arc::ptr_eq(seen, &j)) {
                out.push(j);
            }
        }
        out
    }

    /// GET /events?last=N&severity=S — the merged event journal across all
    /// workloads, oldest first, newest N kept (default 100).
    fn events(&self, query: &str) -> Response {
        let last = match parse_last(query, 100) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let min = match parse_severity(query) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let mut events: Vec<Event> = Vec::new();
        for j in self.journals() {
            events.extend(j.recent(usize::MAX, min));
        }
        events.sort_by_key(|e| (e.ts_us, e.seq));
        if events.len() > last {
            let cut = events.len() - last;
            events.drain(..cut);
        }
        Response::ok(
            Json::obj()
                .set("count", events.len() as u64)
                .set("events", Json::Arr(events.iter().map(Event::to_json).collect())),
        )
    }

    /// The workload a `/report` or `/doctor` request addresses (same
    /// convention as `/slo`: `?workload=` or the first registered id), plus
    /// its telemetry recorder.
    fn recorder_workload(
        &self,
        query: &str,
    ) -> Result<(String, Controller, Arc<bp_obs::TelemetryRecorder>), Response> {
        let (id, c) = self.slo_workload(&Json::Null, query)?;
        match c.recorder() {
            Some(r) => {
                let r = r.clone();
                Ok((id, c, r))
            }
            None => Err(Response::error(
                404,
                &format!("workload {id} has no telemetry recorder wired"),
            )),
        }
    }

    /// GET /report — the `#bp-report v1` flight-recorder artifact: the
    /// telemetry sample timeline plus the event journal, as text.
    fn report(&self, query: &str) -> Response {
        match self.recorder_workload(query) {
            Ok((_, c, recorder)) => {
                Response::text(ARTIFACT_CONTENT_TYPE, recorder.report(c.journal()).to_text())
            }
            Err(r) => r,
        }
    }

    /// GET /doctor — ranked bottleneck findings from `bp_obs::diagnose`
    /// over the current report, as JSON.
    fn doctor(&self, query: &str) -> Response {
        match self.recorder_workload(query) {
            Ok((id, c, recorder)) => {
                let report = recorder.report(c.journal());
                let findings = bp_obs::diagnose(&report);
                Response::ok(
                    Json::obj()
                        .set("workload", id.as_str())
                        .set("samples", report.samples.len() as u64)
                        .set("events", report.events.len() as u64)
                        .set(
                            "findings",
                            Json::Arr(findings.iter().map(|f| f.to_json()).collect()),
                        ),
                )
            }
            Err(r) => r,
        }
    }

    /// GET /metrics — Prometheus text when a registry is attached, the
    /// legacy JSON callback otherwise.
    fn metrics_response(&self) -> Response {
        if let Some(reg) = &self.registry {
            return Response::text(PROMETHEUS_CONTENT_TYPE, reg.render_prometheus());
        }
        match &self.metrics {
            Some(f) => Response::ok(f()),
            None => Response::error(501, "no metrics provider configured"),
        }
    }

    /// GET /trace/spans?last=N — the most recent N spans across every
    /// workload's flight recorder, oldest first, one JSON object per line.
    /// Optional filters: `outcome=` (committed/user_aborted/failed/shed),
    /// `tenant=` and `min_us=` (end-to-end latency floor).
    fn trace_spans(&self, query: &str) -> Response {
        let last = match parse_last(query, 100) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let filters = match parse_span_filters(query) {
            Ok(f) => f,
            Err(r) => return r,
        };
        let mut spans: Vec<(String, bp_obs::Span)> = Vec::new();
        {
            let map = self.workloads.read();
            for (id, c) in map.iter() {
                if let Some(rec) = c.spans() {
                    spans.extend(
                        rec.recent(usize::MAX)
                            .into_iter()
                            .filter(|s| filters.matches(s))
                            .map(|s| (id.clone(), s)),
                    );
                }
            }
        }
        spans.sort_by_key(|(_, s)| (s.end_us, s.seq));
        if spans.len() > last {
            let cut = spans.len() - last;
            spans.drain(..cut);
        }
        let mut out = String::new();
        use std::fmt::Write as _;
        for (id, s) in &spans {
            let _ = writeln!(out, "{}", s.to_json().set("workload", id.as_str()));
        }
        Response::text(JSONL_CONTENT_TYPE, out)
    }

    /// GET /trace/summary — per-workload per-stage latency summaries plus
    /// the one-line rendering used by run logs.
    fn trace_summary(&self) -> Response {
        let map = self.workloads.read();
        let mut ids: Vec<&String> = map.keys().collect();
        ids.sort();
        let items: Vec<Json> = ids
            .into_iter()
            .filter_map(|id| {
                let c = &map[id];
                let rec = c.spans()?;
                let stages = rec.stage_summaries();
                let stages_json = Json::Arr(
                    stages
                        .iter()
                        .map(|st| {
                            Json::obj()
                                .set("stage", st.stage.name())
                                .set("count", st.count)
                                .set("p50_us", st.p50_us)
                                .set("p95_us", st.p95_us)
                                .set("p99_us", st.p99_us)
                                .set("mean_us", st.mean_us)
                        })
                        .collect(),
                );
                Some(
                    Json::obj()
                        .set("id", id.as_str())
                        .set("mode", rec.mode().name())
                        .set("spans", rec.recorded())
                        .set("overwritten", rec.overwritten())
                        .set("line", rec.summary_line())
                        .set("stages", stages_json),
                )
            })
            .collect();
        Response::ok(Json::obj().set("workloads", Json::Arr(items)))
    }

    /// GET /trace/{id} — resolve one retained trace id to its full stage
    /// breakdown plus journal events correlated with the request: events
    /// explicitly tagged `trace_id=<id>` (deadlock victims, crashes), or
    /// events whose timestamp falls inside the span's lifetime.
    fn trace_detail(&self, id_hex: &str) -> Response {
        let Some(id) = bp_obs::parse_trace_id(id_hex) else {
            return Response::error(
                400,
                &format!("invalid trace id {id_hex}: expected 1-16 hex digits"),
            );
        };
        let found = {
            let map = self.workloads.read();
            let mut ids: Vec<&String> = map.keys().collect();
            ids.sort();
            ids.into_iter().find_map(|wid| {
                let c = &map[wid];
                let span = c.spans()?.find_trace(id)?;
                Some((wid.clone(), span, c.clone()))
            })
        };
        let Some((wid, span, c)) = found else {
            return Response::error(
                404,
                &format!("trace {id_hex} not retained (never sampled, or evicted)"),
            );
        };
        let stages = [
            ("queue", span.queue_wait_us()),
            ("lock", span.lock_wait_us),
            ("exec", span.exec_us()),
            ("commit", span.commit_us),
        ];
        let dominant =
            stages.iter().max_by_key(|(_, us)| *us).map(|(name, _)| *name).unwrap_or("queue");
        // Span timestamps count µs from the run's clock origin; journal
        // events count from the process journal origin. Align the two
        // domains by their current offset — exact enough for a per-request
        // correlation window.
        let offset = bp_obs::journal_now_us().saturating_sub(c.stats().clock().now());
        let lo = (span.submitted_us + offset).saturating_sub(TRACE_EVENT_SLACK_US);
        let hi = span.end_us + offset + TRACE_EVENT_SLACK_US;
        let hex = bp_obs::format_trace_id(id);
        let mut events: Vec<Json> = c
            .journal()
            .all()
            .into_iter()
            .filter(|e| {
                let tagged = e.fields.iter().any(|(k, v)| *k == "trace_id" && *v == hex);
                tagged || (e.ts_us >= lo && e.ts_us <= hi)
            })
            .map(|e| e.to_json())
            .collect();
        if events.len() > TRACE_EVENT_CAP {
            events.drain(..events.len() - TRACE_EVENT_CAP);
        }
        Response::ok(
            Json::obj()
                .set("trace_id", hex.as_str())
                .set("workload", wid.as_str())
                .set("node", c.node_id())
                .set("seq", span.seq)
                .set("tenant", span.tenant as u64)
                .set("txn_type", span.txn_type as u64)
                .set("phase", span.phase as u64)
                .set("retries", span.retries as u64)
                .set("outcome", span.outcome.name())
                .set("submitted_us", span.submitted_us)
                .set("end_us", span.end_us)
                .set("total_us", span.total_us())
                .set(
                    "stages",
                    Json::Arr(
                        stages
                            .iter()
                            .map(|(name, us)| Json::obj().set("stage", *name).set("us", *us))
                            .collect(),
                    ),
                )
                .set("dominant_stage", dominant)
                .set("events", Json::Arr(events)),
        )
    }

    fn all_status(&self) -> Response {
        let map = self.workloads.read();
        let items: Vec<Json> = map
            .iter()
            .map(|(id, c)| {
                Json::obj()
                    .set("id", id.as_str())
                    .set("benchmark", c.workload_name())
                    .set("paused", c.is_paused())
                    .set("stopped", c.is_stopped())
                    .set("status", status_json(&c.status()))
            })
            .collect();
        Response::ok(Json::obj().set("workloads", Json::Arr(items)))
    }

    fn workload_status(&self, id: &str) -> Response {
        let Some(c) = self.controller(id) else {
            return Response::error(404, &format!("unknown workload {id}"));
        };
        let mixture = c.current_mixture();
        let breaker = match c.breaker() {
            Some(b) => Json::obj()
                .set("state", b.state().name())
                .set("shed", b.shed_total()),
            None => Json::Null,
        };
        Response::ok(
            Json::obj()
                .set("id", id)
                .set("breaker", breaker)
                .set("benchmark", c.workload_name())
                .set("rate", rate_json(c.current_rate()))
                .set("mixture", mixture.weights().to_vec())
                .set(
                    "transaction_types",
                    Json::Arr(
                        c.transaction_types()
                            .iter()
                            .map(|t| Json::Str(t.name.to_string()))
                            .collect(),
                    ),
                )
                .set("paused", c.is_paused())
                .set("stopped", c.is_stopped())
                .set("backlog", c.backlog() as u64)
                .set("status", status_json(&c.status())),
        )
    }

    fn workload_action(&self, id: &str, action: &str, req: &Request) -> Response {
        let Some(c) = self.controller(id) else {
            return Response::error(404, &format!("unknown workload {id}"));
        };
        let body = req.body.clone().unwrap_or(Json::Null);
        match action {
            "rate" => {
                // {"tps": 500} or {"rate": "unlimited" | "disabled" | 500}
                let rate = body
                    .get("tps")
                    .and_then(Json::as_f64)
                    .map(Rate::Limited)
                    .or_else(|| match body.get("rate") {
                        Some(Json::Num(tps)) => Some(Rate::Limited(*tps)),
                        Some(Json::Str(s)) => Rate::parse(s),
                        _ => None,
                    });
                match rate {
                    Some(r @ Rate::Limited(tps)) if tps >= 0.0 => {
                        c.set_rate(r);
                        self.workload_status(id)
                    }
                    Some(r @ (Rate::Unlimited | Rate::Disabled)) => {
                        c.set_rate(r);
                        self.workload_status(id)
                    }
                    _ => Response::error(400, "body must contain tps or rate"),
                }
            }
            "mixture" => {
                // {"weights":[...]} or {"preset":"read_only"}
                if let Some(weights) = body.get("weights").and_then(Json::as_arr) {
                    let w: Option<Vec<f64>> = weights.iter().map(Json::as_f64).collect();
                    match w {
                        Some(w) => match c.set_mixture(w) {
                            Ok(()) => self.workload_status(id),
                            Err(e) => Response::error(400, &e.to_string()),
                        },
                        None => Response::error(400, "weights must be numbers"),
                    }
                } else if let Some(name) = body.get("preset").and_then(Json::as_str) {
                    match MixturePreset::by_name(name) {
                        Some(p) => {
                            c.set_preset(p);
                            self.workload_status(id)
                        }
                        None => Response::error(400, &format!("unknown preset {name}")),
                    }
                } else {
                    Response::error(400, "body must contain weights or preset")
                }
            }
            "pause" => {
                c.pause();
                self.workload_status(id)
            }
            "resume" => {
                c.resume();
                self.workload_status(id)
            }
            "stop" => {
                c.journal().emit_with(Severity::Info, "api", "run_stop", || {
                    (
                        format!("workload {id} stopped via API"),
                        vec![("workload", id.to_string())],
                    )
                });
                c.stop();
                self.workload_status(id)
            }
            "reset" => {
                // The game-over path: halt the benchmark, reset the DB.
                c.journal().emit_with(Severity::Warn, "api", "run_stop", || {
                    (
                        format!("workload {id} halted and reset via API"),
                        vec![("workload", id.to_string()), ("crash", "reset".to_string())],
                    )
                });
                let dropped = c.halt_and_reset();
                Response::ok(Json::obj().set("halted", true).set("dropped_requests", dropped))
            }
            other => Response::error(404, &format!("unknown action {other}")),
        }
    }

    fn add_workload(&self, req: &Request) -> Response {
        let Some(launcher) = &self.launcher else {
            return Response::error(501, "no launcher configured");
        };
        let body = req.body.clone().unwrap_or(Json::Null);
        let Some(benchmark) = body.get("benchmark").and_then(Json::as_str) else {
            return Response::error(400, "body must contain benchmark");
        };
        let id = body
            .get("id")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| {
                let base = benchmark.to_string();
                let existing = self.workload_ids();
                if existing.contains(&base) {
                    format!("{base}-{}", existing.len())
                } else {
                    base
                }
            });
        if self.controller(&id).is_some() {
            return Response::error(409, &format!("workload {id} already exists"));
        }
        match launcher.launch(benchmark, &body) {
            Ok(controller) => {
                self.register(&id, controller);
                self.workload_status(&id)
            }
            Err(e) => Response::error(400, &e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{ControlState, Mixture, RequestQueue, StatsCollector, TransactionType};
    use bp_storage::{Database, Personality};
    use bp_util::clock::sim_clock;

    fn controller() -> Controller {
        let (_, clock) = sim_clock();
        let types = vec![
            TransactionType::new("Read", 60.0, true),
            TransactionType::new("Write", 40.0, false),
        ];
        let mixture = Mixture::default_of(&types);
        let state = ControlState::new(Rate::Limited(100.0), mixture, 10_000.0);
        let queue = Arc::new(RequestQueue::new(clock.clone()));
        let stats = Arc::new(StatsCollector::new(clock, &["Read", "Write"]));
        let db = Database::new(Personality::test());
        Controller::new(state, queue, stats, db, types, "demo")
    }

    fn server() -> ApiServer {
        let s = ApiServer::new();
        s.register("demo", controller());
        s
    }

    #[test]
    fn list_workloads() {
        let s = server();
        let r = s.handle(&Request::get("/workloads"));
        assert!(r.is_ok());
        assert_eq!(r.body, Json::Arr(vec![Json::Str("demo".into())]));
    }

    #[test]
    fn get_status() {
        let s = server();
        let r = s.handle(&Request::get("/workloads/demo"));
        assert!(r.is_ok());
        assert_eq!(r.body.get("benchmark").unwrap().as_str(), Some("demo"));
        assert_eq!(r.body.get("rate").unwrap().as_f64(), Some(100.0));
        assert!(r.body.get("status").unwrap().get("throughput").is_some());
    }

    #[test]
    fn throttle_rate() {
        let s = server();
        let r = s.handle(&Request::post("/workloads/demo/rate", Json::obj().set("tps", 750.0)));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("rate").unwrap().as_f64(), Some(750.0));
        let r = s.handle(&Request::post(
            "/workloads/demo/rate",
            Json::obj().set("rate", "unlimited"),
        ));
        assert_eq!(r.body.get("rate").unwrap().as_str(), Some("unlimited"));
    }

    #[test]
    fn rate_requires_body() {
        let s = server();
        let r = s.handle(&Request::post("/workloads/demo/rate", Json::obj()));
        assert_eq!(r.status, 400);
    }

    #[test]
    fn change_mixture_by_weights_and_preset() {
        let s = server();
        let r = s.handle(&Request::post(
            "/workloads/demo/mixture",
            Json::obj().set("weights", vec![10.0, 90.0]),
        ));
        assert!(r.is_ok(), "{r:?}");
        let mix = r.body.get("mixture").unwrap().as_arr().unwrap();
        assert_eq!(mix[1].as_f64(), Some(90.0));

        let r = s.handle(&Request::post(
            "/workloads/demo/mixture",
            Json::obj().set("preset", "read_only"),
        ));
        assert!(r.is_ok());
        let mix = r.body.get("mixture").unwrap().as_arr().unwrap();
        assert_eq!(mix[1].as_f64(), Some(0.0));
    }

    #[test]
    fn wrong_arity_mixture_rejected() {
        let s = server();
        let r = s.handle(&Request::post(
            "/workloads/demo/mixture",
            Json::obj().set("weights", vec![1.0]),
        ));
        assert_eq!(r.status, 400);
    }

    #[test]
    fn pause_resume_reset() {
        let s = server();
        let r = s.handle(&Request::post("/workloads/demo/pause", Json::obj()));
        assert_eq!(r.body.get("paused").unwrap().as_bool(), Some(true));
        let r = s.handle(&Request::post("/workloads/demo/resume", Json::obj()));
        assert_eq!(r.body.get("paused").unwrap().as_bool(), Some(false));
        let r = s.handle(&Request::post("/workloads/demo/reset", Json::obj()));
        assert!(r.is_ok());
        assert_eq!(r.body.get("halted").unwrap().as_bool(), Some(true));
    }

    /// Crash the workload's engine the same way the chaos layer does in
    /// production: arm `ServerCrash`, push one commit through it.
    fn crash_engine(db: &Arc<Database>) {
        use bp_chaos::{FaultKind, FaultPlan, FaultWindow};
        db.create_table(
            bp_storage::TableSchema::new(
                "crashed_t",
                vec![bp_storage::Column::new("id", bp_storage::DataType::Int)],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let t = db.table("crashed_t").unwrap();
        db.chaos().arm(FaultPlan::new("crash", 1).with_window(FaultWindow::always(
            FaultKind::ServerCrash,
            1.0,
            0,
        )));
        let mut sess = db.session();
        sess.begin().unwrap();
        sess.insert(&t, vec![bp_storage::Value::Int(1)]).unwrap();
        assert_eq!(sess.commit(), Err(bp_storage::StorageError::Crashed));
        db.chaos().disarm();
        assert!(db.is_crashed());
    }

    #[test]
    fn healthz_always_ok() {
        let empty = ApiServer::new();
        let r = empty.handle(&Request::get("/healthz"));
        assert!(r.is_ok());
        assert_eq!(r.body.get("ok").unwrap().as_bool(), Some(true));
        // Still 200 with workloads registered — liveness never depends on them.
        let r = server().handle(&Request::get("/healthz"));
        assert!(r.is_ok());
    }

    #[test]
    fn readyz_tracks_registration_and_crash() {
        let s = ApiServer::new();
        let r = s.handle(&Request::get("/readyz"));
        assert_eq!(r.status, 503);
        assert_eq!(r.body.get("ready").unwrap().as_bool(), Some(false));
        assert_eq!(r.body.get("reason").unwrap().as_str(), Some("no workloads registered"));

        s.register("demo", controller());
        let r = s.handle(&Request::get("/readyz"));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("ready").unwrap().as_bool(), Some(true));

        let db = s.controller("demo").unwrap().database().clone();
        crash_engine(&db);
        let r = s.handle(&Request::get("/readyz"));
        assert_eq!(r.status, 503);
        assert_eq!(r.body.get("reason").unwrap().as_str(), Some("engine crashed; awaiting recovery"));
        assert_eq!(r.body.get("crashed").unwrap().as_arr().unwrap().len(), 1);

        db.recover();
        let r = s.handle(&Request::get("/readyz"));
        assert!(r.is_ok());
        assert_eq!(r.body.get("ready").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn recovery_arm_status_disarm_roundtrip() {
        let s = server();
        // Arm with a fast poll; periodic checkpoints off.
        let r = s.handle(&Request::post(
            "/recovery",
            Json::obj().set("poll_ms", 1u64).set("checkpoint_ms", 0u64),
        ));
        assert!(r.is_ok(), "{r:?}");
        let sup = r.body.get("supervisor").unwrap();
        assert_eq!(sup.get("active").unwrap().as_bool(), Some(true));
        assert_eq!(sup.get("poll_us").unwrap().as_u64(), Some(1_000));
        assert_eq!(sup.get("checkpoint_us").unwrap().as_u64(), Some(0));

        // Crash the engine; the supervisor brings it back within a few polls.
        let db = s.controller("demo").unwrap().database().clone();
        crash_engine(&db);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while db.is_crashed() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(!db.is_crashed(), "supervisor recovered the engine");

        let r = s.handle(&Request::get("/recovery/status"));
        assert!(r.is_ok());
        assert_eq!(r.body.get("workload").unwrap().as_str(), Some("demo"));
        assert_eq!(r.body.get("crashed").unwrap().as_bool(), Some(false));
        assert_eq!(r.body.get("crashes").unwrap().as_u64(), Some(1));
        assert_eq!(r.body.get("recoveries").unwrap().as_u64(), Some(1));
        assert_eq!(r.body.get("last_crashpoint").unwrap().as_str(), Some("before_append"));
        let sup = r.body.get("supervisor").unwrap();
        assert_eq!(sup.get("recoveries_run").unwrap().as_u64(), Some(1));

        let r = s.handle(&Request {
            method: Method::Delete,
            path: "/recovery".into(),
            body: None,
        });
        assert!(r.is_ok());
        let sup = r.body.get("supervisor").unwrap();
        assert_eq!(sup.get("active").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn recovery_arm_validates_input() {
        let s = server();
        let r = s.handle(&Request::post("/recovery", Json::obj().set("poll_ms", 0u64)));
        assert_eq!(r.status, 400);
        let r = s.handle(&Request::post(
            "/recovery",
            Json::obj().set("workload", "ghost"),
        ));
        assert_eq!(r.status, 404);
        // No workloads at all: 404, same convention as /slo.
        let r = ApiServer::new().handle(&Request::get("/recovery/status"));
        assert_eq!(r.status, 404);
    }

    #[test]
    fn unknown_routes_404() {
        let s = server();
        assert_eq!(s.handle(&Request::get("/nope")).status, 404);
        assert_eq!(s.handle(&Request::get("/workloads/ghost")).status, 404);
        assert_eq!(
            s.handle(&Request::post("/workloads/demo/explode", Json::obj())).status,
            404
        );
    }

    #[test]
    fn add_workload_without_launcher_501() {
        let s = server();
        let r = s.handle(&Request::post("/workloads", Json::obj().set("benchmark", "voter")));
        assert_eq!(r.status, 501);
    }

    struct FakeLauncher;
    impl Launcher for FakeLauncher {
        fn available(&self) -> Vec<String> {
            vec!["demo2".into()]
        }
        fn launch(&self, benchmark: &str, _body: &Json) -> Result<Controller, String> {
            if benchmark == "demo2" {
                Ok(controller())
            } else {
                Err(format!("unknown benchmark {benchmark}"))
            }
        }
    }

    #[test]
    fn add_workload_on_the_fly() {
        let s = ApiServer::new().with_launcher(Arc::new(FakeLauncher));
        let r = s.handle(&Request::get("/benchmarks"));
        assert!(r.is_ok());
        let r = s.handle(&Request::post("/workloads", Json::obj().set("benchmark", "demo2")));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(s.workload_ids(), vec!["demo2"]);
        // Duplicate id rejected.
        let r = s.handle(&Request::post(
            "/workloads",
            Json::obj().set("benchmark", "demo2").set("id", "demo2"),
        ));
        assert_eq!(r.status, 409);
        // Unknown benchmark surfaces launcher error.
        let r = s.handle(&Request::post("/workloads", Json::obj().set("benchmark", "ghost")));
        assert_eq!(r.status, 400);
    }

    #[test]
    fn metrics_endpoint() {
        let s = ApiServer::new()
            .with_metrics(Arc::new(|| Json::obj().set("cpu_busy", 0.42)));
        let r = s.handle(&Request::get("/metrics"));
        assert!(r.is_ok());
        assert_eq!(r.body.get("cpu_busy").unwrap().as_f64(), Some(0.42));
    }

    use bp_obs::{MetricsRegistry, ObsConfig, Span, SpanOutcome, SpanRecorder};

    fn controller_with_spans() -> Controller {
        let rec = Arc::new(SpanRecorder::new(ObsConfig::default()));
        for seq in 0..3u64 {
            rec.record(Span {
                trace_id: bp_obs::trace_id(42, seq),
                seq,
                submitted_us: seq * 100,
                dequeued_us: seq * 100 + 50,
                end_us: seq * 100 + 250,
                lock_wait_us: 20,
                commit_us: 30,
                tenant: (seq % 2) as u16,
                phase: 0,
                txn_type: (seq % 2) as u16,
                retries: 0,
                outcome: if seq == 2 { SpanOutcome::Failed } else { SpanOutcome::Committed },
            });
        }
        controller().with_spans(rec)
    }

    #[test]
    fn metrics_prometheus_with_registry() {
        let reg = Arc::new(MetricsRegistry::new());
        let s = ApiServer::new().with_registry(reg.clone());
        s.register("demo", controller_with_spans());
        assert_eq!(reg.source_count(), 6, "stats + server + chaos + spans + journal + recovery");
        let r = s.handle(&Request::get("/metrics"));
        assert!(r.is_ok());
        let (ctype, text) = r.raw.expect("raw payload");
        assert!(ctype.starts_with("text/plain"));
        assert!(text.contains("bp_server_commits_total"), "{text}");
        assert!(text.contains("bp_stage_latency_us_bucket"), "{text}");
        assert!(text.contains("bp_client_committed_total"), "{text}");
    }

    #[test]
    fn trace_spans_jsonl() {
        let s = ApiServer::new();
        s.register("demo", controller_with_spans());
        let r = s.handle(&Request::get("/trace/spans"));
        let (ctype, text) = r.raw.expect("raw payload");
        assert_eq!(ctype, JSONL_CONTENT_TYPE);
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let j = Json::parse(line).expect("valid JSON line");
            assert_eq!(j.get("workload").unwrap().as_str(), Some("demo"));
            assert!(j.get("queue_us").is_some());
        }
        // ?last=N keeps only the newest N, oldest first.
        let r = s.handle(&Request::get("/trace/spans?last=1"));
        let (_, text) = r.raw.unwrap();
        assert_eq!(text.lines().count(), 1);
        let j = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(j.get("seq").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn trace_summary_reports_stages() {
        let s = ApiServer::new();
        s.register("demo", controller_with_spans());
        let r = s.handle(&Request::get("/trace/summary"));
        assert!(r.is_ok());
        let items = r.body.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].get("spans").unwrap().as_u64(), Some(3));
        let line = items[0].get("line").unwrap().as_str().unwrap().to_string();
        assert!(line.contains("spans=3"), "{line}");
        let stages = items[0].get("stages").unwrap().as_arr().unwrap();
        assert_eq!(stages.len(), 4);
        assert!(stages.iter().any(|st| st.get("stage").unwrap().as_str() == Some("queue")));
    }

    #[test]
    fn trace_spans_filters() {
        let s = ApiServer::new();
        s.register("demo", controller_with_spans());
        // outcome= keeps only matching spans (seq 2 is the lone failure).
        let r = s.handle(&Request::get("/trace/spans?outcome=failed"));
        let (_, text) = r.raw.expect("raw payload");
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("\"seq\": 2") || text.contains("\"seq\":2"), "{text}");
        // tenant= filters on the issuing tenant (seqs 0 and 2 are tenant 0).
        let r = s.handle(&Request::get("/trace/spans?tenant=0"));
        let (_, text) = r.raw.expect("raw payload");
        assert_eq!(text.lines().count(), 2, "{text}");
        // min_us= is an end-to-end latency floor; every helper span takes
        // 250µs total, so 251 excludes all and 250 keeps all.
        let r = s.handle(&Request::get("/trace/spans?min_us=251"));
        assert_eq!(r.raw.as_ref().unwrap().1.lines().count(), 0);
        let r = s.handle(&Request::get("/trace/spans?min_us=250"));
        assert_eq!(r.raw.as_ref().unwrap().1.lines().count(), 3);
        // Filters compose.
        let r = s.handle(&Request::get("/trace/spans?outcome=committed&tenant=0"));
        assert_eq!(r.raw.as_ref().unwrap().1.lines().count(), 1);
    }

    #[test]
    fn trace_detail_resolves_and_404s() {
        let s = ApiServer::new();
        s.register("demo", controller_with_spans());
        let hex = bp_obs::format_trace_id(bp_obs::trace_id(42, 1));
        let r = s.handle(&Request::get(&format!("/trace/{hex}")));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("trace_id").unwrap().as_str(), Some(hex.as_str()));
        assert_eq!(r.body.get("workload").unwrap().as_str(), Some("demo"));
        assert_eq!(r.body.get("seq").unwrap().as_u64(), Some(1));
        assert_eq!(r.body.get("total_us").unwrap().as_u64(), Some(250));
        let stages = r.body.get("stages").unwrap().as_arr().unwrap();
        assert_eq!(stages.len(), 4);
        let sum: u64 = stages.iter().map(|st| st.get("us").unwrap().as_u64().unwrap()).sum();
        // queue 50 + lock 20 + exec 150 + commit 30 = end-to-end 250.
        assert_eq!(sum, 250);
        // exec = 200 − 20 − 30 = 150 dominates.
        assert_eq!(r.body.get("dominant_stage").unwrap().as_str(), Some("exec"));
        // Unknown-but-valid id is a 404; garbage is a 400.
        let r = s.handle(&Request::get("/trace/deadbeef"));
        assert_eq!(r.status, 404, "{r:?}");
        let r = s.handle(&Request::get("/trace/nothex!"));
        assert_eq!(r.status, 400, "{r:?}");
        assert!(r.body.get("error").unwrap().as_str().unwrap().contains("invalid"));
    }

    #[test]
    fn chaos_arm_status_disarm_roundtrip() {
        let s = server();
        // Status while disarmed.
        let r = s.handle(&Request::get("/chaos/status"));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("armed").unwrap().as_bool(), Some(false));
        // Arm a named scenario with an explicit seed.
        let r = s.handle(&Request::post(
            "/chaos",
            Json::obj().set("scenario", "error-burst").set("seed", 7u64),
        ));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("armed").unwrap().as_bool(), Some(true));
        assert_eq!(r.body.get("plan").unwrap().as_str(), Some("error-burst"));
        assert_eq!(r.body.get("seed").unwrap().as_u64(), Some(7));
        // Unknown scenario is a 400 listing the known names.
        let r = s.handle(&Request::post("/chaos", Json::obj().set("scenario", "nope")));
        assert_eq!(r.status, 400);
        assert!(r.body.get("error").unwrap().as_str().unwrap().contains("error-burst"));
        // Empty body is a 400.
        let r = s.handle(&Request::post("/chaos", Json::obj()));
        assert_eq!(r.status, 400);
        // Disarm via DELETE.
        let r = s.handle(&Request {
            method: Method::Delete,
            path: "/chaos".into(),
            body: None,
        });
        assert!(r.is_ok());
        assert_eq!(r.body.get("armed").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn chaos_inline_plan_and_disarm_body() {
        let s = server();
        let plan = Json::obj().set("name", "custom").set("seed", 3u64).set(
            "windows",
            Json::Arr(vec![Json::obj()
                .set("kind", "injected_error")
                .set("intensity", 1.0)]),
        );
        let r = s.handle(&Request::post("/chaos", Json::obj().set("plan", plan)));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("plan").unwrap().as_str(), Some("custom"));
        let r = s.handle(&Request::post("/chaos", Json::obj().set("disarm", true)));
        assert!(r.is_ok());
        assert_eq!(r.body.get("armed").unwrap().as_bool(), Some(false));
        // Malformed inline plan.
        let r = s.handle(&Request::post(
            "/chaos",
            Json::obj().set("plan", Json::obj().set("seed", 1u64)),
        ));
        assert_eq!(r.status, 400);
    }

    #[test]
    fn status_reports_shed_and_breaker() {
        let s = server();
        let r = s.handle(&Request::get("/workloads/demo"));
        assert!(r.is_ok());
        // No breaker configured on this controller.
        assert_eq!(r.body.get("breaker"), Some(&Json::Null));
        assert_eq!(r.body.get("status").unwrap().get("shed").unwrap().as_u64(), Some(0));
    }

    use bp_core::PhaseScript;
    use bp_replay::{ReplayProgress, ARTIFACT_VERSION};

    fn script_only_artifact() -> Artifact {
        Artifact {
            version: ARTIFACT_VERSION,
            workload: "demo".into(),
            personality: "test".into(),
            seed: 42,
            terminals: 2,
            tenant: 0,
            unlimited_rate: 50_000.0,
            types: vec!["Read".into(), "Write".into()],
            script: PhaseScript::new(vec![bp_core::Phase::new(Rate::Limited(100.0), 1.0)]),
            schedule: Vec::new(),
            trace: Vec::new(),
        }
    }

    struct FakeReplayLauncher;
    impl ReplayLauncher for FakeReplayLauncher {
        fn launch(
            &self,
            artifact: &Artifact,
            timing: ReplayTiming,
        ) -> Result<ReplaySession, String> {
            Ok(ReplaySession {
                controller: controller(),
                progress: ReplayProgress::new(artifact.schedule.len() as u64),
                recorded: Arc::new(artifact.recorded_trace()),
                replayed: None,
                workload: artifact.workload.clone(),
                num_types: artifact.types.len(),
                timing,
            })
        }
    }

    #[test]
    fn replay_endpoints_unconfigured() {
        let s = server();
        assert_eq!(s.handle(&Request::post("/replay", Json::obj())).status, 501);
        assert_eq!(s.handle(&Request::get("/replay/status")).status, 404);
        assert_eq!(s.handle(&Request::get("/record")).status, 404);
    }

    #[test]
    fn record_provider_serves_artifact_text() {
        let s = server();
        let text = script_only_artifact().to_text();
        s.set_record_provider(Arc::new(move || Some(text.clone())));
        let r = s.handle(&Request::get("/record"));
        let (ctype, body) = r.raw.expect("raw payload");
        assert!(ctype.starts_with("text/plain"));
        assert!(body.starts_with("#bp-replay v1"), "{body}");
        assert!(Artifact::from_text(&body).is_ok());
    }

    #[test]
    fn replay_start_validates_and_reports_status() {
        let s = ApiServer::new().with_replay_launcher(Arc::new(FakeReplayLauncher));
        // Missing / malformed artifact.
        assert_eq!(s.handle(&Request::post("/replay", Json::obj())).status, 400);
        let r = s.handle(&Request::post("/replay", Json::obj().set("artifact", "not a capture")));
        assert_eq!(r.status, 400);
        // Bad timing combination.
        let text = script_only_artifact().to_text();
        let r = s.handle(&Request::post(
            "/replay",
            Json::obj().set("artifact", text.as_str()).set("warp", -3.0),
        ));
        assert_eq!(r.status, 400);
        // Valid launch.
        let r = s.handle(&Request::post(
            "/replay",
            Json::obj().set("artifact", text.as_str()).set("warp", 4.0),
        ));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("mode").unwrap().as_str(), Some("warp"));
        assert_eq!(r.body.get("warp").unwrap().as_f64(), Some(4.0));
        // Status route mirrors the session; launcher session never
        // completes (controller still running), so a second POST is a 409.
        let r = s.handle(&Request::get("/replay/status"));
        assert!(r.is_ok());
        assert_eq!(r.body.get("complete").unwrap().as_bool(), Some(false));
        let r = s.handle(&Request::post("/replay", Json::obj().set("artifact", text.as_str())));
        assert_eq!(r.status, 409);
    }

    #[test]
    fn trace_endpoints_without_recorder_are_empty() {
        let s = ApiServer::new();
        s.register("demo", controller()); // no span recorder attached
        let r = s.handle(&Request::get("/trace/spans?last=5"));
        assert_eq!(r.raw.unwrap().1, "");
        let r = s.handle(&Request::get("/trace/summary"));
        assert!(r.body.get("workloads").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn events_endpoint_merges_journal() {
        let s = server(); // register() journals a run_start
        let r = s.handle(&Request::get("/events"));
        assert!(r.is_ok(), "{r:?}");
        let events = r.body.get("events").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        assert!(
            events.iter().any(|e| e.get("kind").unwrap().as_str() == Some("run_start")),
            "{events:?}"
        );
        // Severity filter: nothing at error level yet.
        let r = s.handle(&Request::get("/events?severity=error"));
        assert_eq!(r.body.get("count").unwrap().as_u64(), Some(0));
        // Stop journals a run_stop; last=1 keeps only the newest.
        s.handle(&Request::post("/workloads/demo/stop", Json::obj()));
        let r = s.handle(&Request::get("/events?last=1"));
        let events = r.body.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("run_stop"));
    }

    #[test]
    fn malformed_query_params_are_400_not_silent_defaults() {
        let s = server();
        for q in [
            "/events?last=abc",
            "/events?last=-1",
            "/events?last=1e3",
            "/events?last=99999999999999999999999999",
            "/events?severity=loud",
            "/trace/spans?last=half",
            "/trace/spans?outcome=exploded",
            "/trace/spans?tenant=-3",
            "/trace/spans?tenant=70000",
            "/trace/spans?min_us=soon",
        ] {
            let r = s.handle(&Request::get(q));
            assert_eq!(r.status, 400, "{q} -> {r:?}");
            assert!(
                r.body.get("error").unwrap().as_str().unwrap().contains("invalid"),
                "{q} -> {r:?}"
            );
        }
    }

    #[test]
    fn report_and_doctor_endpoints() {
        let s = ApiServer::new();
        let rec = Arc::new(bp_obs::TelemetryRecorder::new(1_000_000));
        for i in 0..5u64 {
            rec.record(bp_obs::TelemetrySample {
                t_us: i * 1_000_000,
                rate: f64::INFINITY,
                throughput: 100.0,
                p50_us: 1_000,
                p99_us: 2_000,
                commits: 100,
                ..Default::default()
            });
        }
        s.register("demo", controller().with_recorder(rec));
        let r = s.handle(&Request::get("/report"));
        let (ctype, text) = r.raw.expect("raw payload");
        assert!(ctype.starts_with("text/plain"));
        assert!(text.starts_with("#bp-report v1"), "{text}");
        let parsed = bp_obs::Report::from_text(&text).expect("report round-trips");
        assert_eq!(parsed.samples.len(), 5);
        assert!(!parsed.events.is_empty(), "run_start is in the report");
        let r = s.handle(&Request::get("/doctor"));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("samples").unwrap().as_u64(), Some(5));
        assert!(r.body.get("findings").unwrap().as_arr().is_some());
        // Controllers without a recorder (and unknown workloads) are 404s.
        let bare = server();
        assert_eq!(bare.handle(&Request::get("/report")).status, 404);
        assert_eq!(bare.handle(&Request::get("/doctor")).status, 404);
        assert_eq!(s.handle(&Request::get("/report?workload=ghost")).status, 404);
    }

    #[test]
    fn slo_arm_status_disarm_roundtrip() {
        let s = server();
        // Status before arming: inactive, no target.
        let r = s.handle(&Request::get("/slo/status"));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("active").unwrap().as_bool(), Some(false));
        assert_eq!(r.body.get("target").unwrap().as_str(), Some("none"));
        // Arm a p99 target.
        let r = s.handle(&Request::post(
            "/slo",
            Json::obj()
                .set("target", "p99")
                .set("limit_ms", 20.0)
                .set("initial_rate", 500.0)
                .set("min_rate", 50.0)
                .set("law", "aimd"),
        ));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("workload").unwrap().as_str(), Some("demo"));
        assert_eq!(r.body.get("active").unwrap().as_bool(), Some(true));
        assert_eq!(r.body.get("target").unwrap().as_str(), Some("p99"));
        assert_eq!(r.body.get("limit_us").unwrap().as_u64(), Some(20_000));
        assert_eq!(r.body.get("law").unwrap().as_str(), Some("aimd"));
        assert_eq!(r.body.get("rate").unwrap().as_f64(), Some(500.0));
        // Status mirrors the armed config; with no traffic the loop holds.
        let r = s.handle(&Request::get("/slo/status?workload=demo"));
        assert!(r.is_ok());
        assert_eq!(r.body.get("active").unwrap().as_bool(), Some(true));
        assert_eq!(r.body.get("rate").unwrap().as_f64(), Some(500.0));
        assert!(r.body.get("adjustments").unwrap().get("increase").is_some());
        // Disarm.
        let r = s.handle(&Request {
            method: Method::Delete,
            path: "/slo".into(),
            body: None,
        });
        assert!(r.is_ok());
        assert_eq!(r.body.get("active").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn slo_validation_and_unknown_workload() {
        let s = server();
        let r = s.handle(&Request::post("/slo", Json::obj().set("target", "p42")));
        assert_eq!(r.status, 400);
        assert!(r.body.get("error").unwrap().as_str().unwrap().contains("p99"));
        let r = s.handle(&Request::post("/slo", Json::obj().set("law", "bang-bang")));
        assert_eq!(r.status, 400);
        let r = s.handle(&Request::post("/slo", Json::obj().set("backoff", 1.5)));
        assert_eq!(r.status, 400);
        let r = s.handle(&Request::post("/slo", Json::obj().set("limit_ms", -3.0)));
        assert_eq!(r.status, 400);
        let r = s.handle(&Request::post(
            "/slo",
            Json::obj().set("min_rate", 100.0).set("max_rate", 10.0),
        ));
        assert_eq!(r.status, 400);
        let r = s.handle(&Request::post("/slo", Json::obj().set("workload", "ghost")));
        assert_eq!(r.status, 404);
        // No workloads registered at all.
        let empty = ApiServer::new();
        assert_eq!(empty.handle(&Request::get("/slo/status")).status, 404);
        assert_eq!(empty.handle(&Request::post("/slo", Json::obj())).status, 404);
    }

    #[test]
    fn slo_arm_registers_metrics_source() {
        let reg = Arc::new(MetricsRegistry::new());
        let s = ApiServer::new().with_registry(reg.clone());
        s.register("demo", controller());
        let base = reg.source_count();
        let r = s.handle(&Request::post("/slo", Json::obj().set("target", "max-throughput")));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(reg.source_count(), base + 1);
        assert!(reg.source_names().iter().any(|n| n == "slo:demo"), "{:?}", reg.source_names());
        // Re-arming reuses the same handle: no duplicate source.
        let r = s.handle(&Request::post("/slo", Json::obj().set("target", "p50")));
        assert!(r.is_ok());
        assert_eq!(reg.source_count(), base + 1);
        let text = reg.render_prometheus();
        assert!(text.contains("bp_slo_active"), "{text}");
        assert!(text.contains("bp_slo_current_rate"), "{text}");
        let r = s.handle(&Request {
            method: Method::Delete,
            path: "/slo".into(),
            body: None,
        });
        assert!(r.is_ok());
    }
}
