//! End-to-end bp-cluster tests: a real in-process fleet over localhost
//! sockets, plus deterministic failure-detector and straggler scenarios
//! driven through the coordinator's route extension directly.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bp_api::router::RouteExtension;
use bp_api::{http_request, http_request_text, ApiServer, Request};
use bp_cluster::{start_agent, AgentConfig, ClusterCoordinator, CoordinatorConfig, NodeState};
use bp_core::{Phase, PhaseScript, Rate, RunConfig, RunHandle};
use bp_obs::{MetricsRegistry, Severity};
use bp_sql::Connection;
use bp_storage::{Database, Personality};
use bp_util::clock::wall_clock;
use bp_util::histogram::Histogram;
use bp_util::json::Json;
use bp_util::rng::Rng;
use bp_workloads::by_name;

/// A coordinator with its `/cluster/*` routes served over a real socket
/// and the failure detector running.
fn coordinator_stack(
    heartbeat: Duration,
) -> (Arc<ClusterCoordinator>, bp_api::http::HttpServerGuard, bp_cluster::DetectorGuard) {
    let coordinator = ClusterCoordinator::new(CoordinatorConfig { heartbeat });
    let registry = Arc::new(MetricsRegistry::new());
    registry.register("cluster", coordinator.clone());
    coordinator.set_registry(registry.clone());
    let api = Arc::new(ApiServer::new().with_registry(registry));
    api.set_extension(coordinator.clone());
    let guard = api.serve_http("127.0.0.1:0").expect("bind coordinator");
    let detector = coordinator.start_detector();
    (coordinator, guard, detector)
}

struct AgentStack {
    handle: RunHandle,
    _api_guard: bp_api::http::HttpServerGuard,
    _agent: bp_cluster::AgentGuard,
    registry: Arc<MetricsRegistry>,
    addr: SocketAddr,
}

/// One full agent node: voter workload on the test engine, API server on a
/// random port, joined to the coordinator.
fn agent_stack(node: &str, coordinator: SocketAddr, heartbeat: Duration) -> AgentStack {
    let db = Database::new(Personality::test());
    let w = by_name("voter").unwrap();
    let mut conn = Connection::open(&db);
    w.setup(&mut conn, 0.2, &mut Rng::new(7)).unwrap();
    let cfg = RunConfig {
        terminals: 2,
        script: PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 60.0)]),
        collect_trace: false,
        node: node.to_string(),
        ..Default::default()
    };
    let handle = bp_core::start(db, w, wall_clock(), cfg);
    let registry = Arc::new(MetricsRegistry::new());
    let api = Arc::new(ApiServer::new().with_registry(registry.clone()));
    api.register(node, handle.controller.clone());
    let api_guard = api.serve_http("127.0.0.1:0").expect("bind agent");
    let addr = api_guard.addr();
    let agent = start_agent(
        AgentConfig::new(node, coordinator, addr).with_heartbeat(heartbeat),
        handle.controller.clone(),
        &api,
        registry.clone(),
    );
    AgentStack { handle, _api_guard: api_guard, _agent: agent, registry, addr }
}

fn wait_until(deadline: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    pred()
}

/// Sum every un-commented line of a metric family in a Prometheus text
/// exposition (e.g. across `type=` label sets).
fn sum_metric(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(name).is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

#[test]
fn three_agent_fleet_merges_telemetry_and_splits_rate() {
    let hb = Duration::from_millis(50);
    let (coordinator, coord_guard, _detector) = coordinator_stack(hb);
    let fleet: Vec<AgentStack> =
        ["n1", "n2", "n3"].iter().map(|n| agent_stack(n, coord_guard.addr(), hb)).collect();

    // All three join and heartbeat.
    assert!(
        wait_until(Duration::from_secs(10), || {
            let (status, body) =
                http_request(coord_guard.addr(), "GET", "/cluster/status", None).unwrap();
            status == 200 && body.get("joined").and_then(Json::as_u64) == Some(3)
        }),
        "fleet never fully joined"
    );

    // Split a fleet-wide rate: equal thirds before capacity history built up
    // is fine; the sum must be exact either way.
    let (status, body) = http_request(
        coord_guard.addr(),
        "POST",
        "/cluster/rate",
        Some(&Json::obj().set("tps", 600.0)),
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let split = body.get("split").and_then(Json::as_arr).unwrap().to_vec();
    assert_eq!(split.len(), 3);
    let total: f64 = split.iter().filter_map(|s| s.get("rate").and_then(Json::as_f64)).sum();
    assert!((total - 600.0).abs() < 1e-6, "split sums to {total}");

    // Agents pick their shares up (heartbeat responses or rate push): each
    // node runs a positive fraction of the global rate and the fractions
    // sum to the whole.
    assert!(
        wait_until(Duration::from_secs(10), || {
            let rates: Vec<f64> = fleet
                .iter()
                .filter_map(|a| match a.handle.controller.current_rate() {
                    Rate::Limited(r) => Some(r),
                    _ => None,
                })
                .collect();
            rates.len() == 3
                && rates.iter().all(|r| *r > 0.0 && *r < 600.0)
                && (rates.iter().sum::<f64>() - 600.0).abs() < 1.0
        }),
        "agents never applied their rate shares"
    );

    // Let traffic flow, then freeze the counters so merged-vs-local sums
    // are comparable.
    assert!(
        wait_until(Duration::from_secs(10), || {
            fleet.iter().all(|a| a.handle.controller.stats().status(60).committed > 0)
        }),
        "no commits on some node"
    );
    for a in &fleet {
        a.handle.controller.stop();
    }
    std::thread::sleep(Duration::from_millis(100));

    let (status, merged) =
        http_request_text(coord_guard.addr(), "GET", "/cluster/metrics", None).unwrap();
    assert_eq!(status, 200);

    // The coordinator's own gauges are in the merged view.
    assert!(
        merged.contains("bp_cluster_nodes{state=\"joined\"} 3"),
        "missing joined-nodes gauge:\n{merged}"
    );
    assert!(merged.contains("bp_cluster_heartbeats_total"));

    // Families are deduped: one HELP/TYPE header per family even though
    // three agents all export it.
    for family in ["bp_client_committed_total", "bp_client_latency_us", "bp_server_commits_total"] {
        let headers =
            merged.lines().filter(|l| l.starts_with("# TYPE") && l.contains(family)).count();
        assert_eq!(headers, 1, "family {family} has {headers} TYPE headers");
    }

    // Counters are summed across the fleet: merged committed equals the
    // sum of each agent's own exposition (counters are frozen post-stop).
    let mut local_sum = 0.0;
    for a in &fleet {
        let (_, text) = http_request_text(a.addr, "GET", "/metrics", None).unwrap();
        local_sum += sum_metric(&text, "bp_client_committed_total");
    }
    let merged_sum = sum_metric(&merged, "bp_client_committed_total");
    assert!(local_sum > 0.0);
    assert!(
        (merged_sum - local_sum).abs() < 1e-6,
        "merged {merged_sum} != sum of locals {local_sum}"
    );

    // The journal recorded the membership story.
    let events = coordinator.journal().recent(usize::MAX, Severity::Debug);
    assert!(events.iter().any(|e| e.kind == "node_join"));
    assert!(events.iter().any(|e| e.kind == "rate_resplit"));

    for a in fleet {
        a.handle.stop_and_join();
        // Registry kept alive past the scrape assertions above.
        drop(a.registry);
    }
}

#[test]
fn missed_heartbeats_mark_suspect_then_dead_and_resplit() {
    // Driven deterministically through the route extension: no sockets, no
    // real agents — "a" heartbeats, "b" goes silent.
    let hb = Duration::from_millis(40);
    let coordinator = ClusterCoordinator::new(CoordinatorConfig { heartbeat: hb });
    let post = |path: &str, body: Json| {
        coordinator.handle(&Request::post(path, body)).expect("cluster route")
    };
    let join = |node: &str| {
        post("/cluster/join", Json::obj().set("node", node).set("addr", "127.0.0.1:9"))
    };
    assert!(join("a").is_ok());
    assert!(join("b").is_ok());
    let r = post("/cluster/rate", Json::obj().set("tps", 100.0));
    assert!(r.is_ok(), "{r:?}");

    // Keep "a" fresh for > 2 intervals while "b" stays silent.
    let end = Instant::now() + 4 * hb;
    while Instant::now() < end {
        post("/cluster/heartbeat", Json::obj().set("node", "a"));
        coordinator.tick();
        std::thread::sleep(Duration::from_millis(10));
    }
    coordinator.tick();

    let status = coordinator.handle(&Request::get("/cluster/status")).unwrap();
    let state_of = |node: &str| {
        status
            .body
            .get("nodes")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|n| n.get("node").and_then(Json::as_str) == Some(node))
            .and_then(|n| n.get("state").and_then(Json::as_str).map(str::to_string))
            .unwrap()
    };
    assert_eq!(state_of("a"), NodeState::Joined.name());
    assert_eq!(state_of("b"), NodeState::Dead.name());

    // The dead node's share moved to the survivor.
    let rate_of = |node: &str| {
        status
            .body
            .get("nodes")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|n| n.get("node").and_then(Json::as_str) == Some(node))
            .and_then(|n| n.get("assigned_rate").and_then(Json::as_f64))
            .unwrap()
    };
    assert!((rate_of("a") - 100.0).abs() < 1e-6, "survivor has the full rate");

    let events = coordinator.journal().recent(usize::MAX, Severity::Debug);
    let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&"node_suspect"), "{kinds:?}");
    assert!(kinds.contains(&"node_dead"), "{kinds:?}");
    let dead = events.iter().find(|e| e.kind == "node_dead").unwrap();
    assert_eq!(dead.fields.iter().find(|(k, _)| *k == "node").unwrap().1, "b");

    // A fresh heartbeat revives the dead node and re-splits again.
    post("/cluster/heartbeat", Json::obj().set("node", "b"));
    let status = coordinator.handle(&Request::get("/cluster/status")).unwrap();
    assert_eq!(status.body.get("dead").and_then(Json::as_u64), Some(0));
}

/// A heartbeat body whose window holds `n` samples at each `(latency_us, n)`
/// pair, written out the way an agent sends it: the node's own count and
/// percentiles plus the histogram's non-empty buckets.
fn window_beat(node: &str, samples: &[(u64, u64)]) -> Json {
    let mut h = Histogram::latency();
    for &(us, n) in samples {
        h.record_n(us, n);
    }
    let buckets =
        h.iter().map(|(low, n)| Json::Arr(vec![Json::from(low), Json::from(n)])).collect();
    Json::obj().set("node", node).set(
        "window",
        Json::obj()
            .set("count", h.count())
            .set("p50_us", h.p50())
            .set("p99_us", h.p99())
            .set("throughput", 100.0)
            .set("buckets", Json::Arr(buckets)),
    )
}

/// A coordinator with nodes `a` and `b` joined and the SLO loop armed with
/// a p99 limit of 10 ms, backoff 0.5, initial rate 1000 and a 1 ms tick.
/// The heartbeat interval is long so nobody dies during the test.
fn armed_two_node_coordinator() -> Arc<ClusterCoordinator> {
    let coordinator =
        ClusterCoordinator::new(CoordinatorConfig { heartbeat: Duration::from_millis(500) });
    for n in ["a", "b"] {
        let join = Json::obj().set("node", n).set("addr", "127.0.0.1:9");
        assert!(coordinator.handle(&Request::post("/cluster/join", join)).unwrap().is_ok());
    }
    let arm = Json::obj()
        .set("target", "p99")
        .set("limit_ms", 10.0)
        .set("backoff", 0.5)
        .set("initial_rate", 1_000.0)
        .set("tick_ms", 1u64);
    let r = coordinator.handle(&Request::post("/cluster/slo", arm)).unwrap();
    assert!(r.is_ok(), "{r:?}");
    coordinator
}

#[test]
fn cluster_slo_decrease_cooldown_holds_while_window_is_stale() {
    let coordinator = armed_two_node_coordinator();
    let mut rates = Vec::new();
    for _ in 0..4 {
        for n in ["a", "b"] {
            let beat = window_beat(n, &[(40_000, 50)]);
            coordinator.handle(&Request::post("/cluster/heartbeat", beat));
        }
        std::thread::sleep(Duration::from_millis(3));
        coordinator.tick();
        rates.push(coordinator.global_rate().unwrap());
    }
    // One proportional decrease (limit/observed = 0.25, floored at the 0.5
    // backoff), then holds: the window still shows the pre-decrease tail.
    assert_eq!(rates[0], 500.0, "{rates:?}");
    assert_eq!(rates[3], 500.0, "{rates:?}");
    let status = coordinator.handle(&Request::get("/cluster/slo")).unwrap();
    let adj = status.body.get("adjustments").unwrap();
    assert_eq!(adj.get("decrease").and_then(Json::as_u64), Some(1));
    assert_eq!(adj.get("hold").and_then(Json::as_u64), Some(3));
}

#[test]
fn cluster_slo_steers_on_merged_histogram_percentile() {
    let coordinator = armed_two_node_coordinator();
    // 95% of the fleet's samples are fast, but the slowest 5% sit on one
    // node: the fleet p99 is that node's 100 ms, not a count-weighted mean.
    let post = |body: Json| coordinator.handle(&Request::post("/cluster/heartbeat", body));
    post(window_beat("a", &[(1_000, 950)]));
    post(window_beat("b", &[(100_000, 50)]));
    std::thread::sleep(Duration::from_millis(3));
    coordinator.tick();
    let rate = coordinator.global_rate().unwrap();
    assert!(rate < 1_000.0, "merged p99 violates the limit, rate must fall: {rate}");
    let status = coordinator.handle(&Request::get("/cluster/slo")).unwrap();
    let observed = status.body.get("observed_us").and_then(Json::as_u64).unwrap();
    assert!(observed >= 90_000, "merged p99 {observed}us");
    let adj = status.body.get("adjustments").unwrap();
    assert_eq!(adj.get("decrease").and_then(Json::as_u64), Some(1));
}

#[test]
fn cluster_slo_loop_steers_global_rate_on_merged_latency() {
    // Long heartbeat interval (nobody dies during the test) but a 1ms SLO
    // tick so the loop acts as soon as we ask it to.
    let coordinator =
        ClusterCoordinator::new(CoordinatorConfig { heartbeat: Duration::from_millis(500) });
    let post = |path: &str, body: Json| coordinator.handle(&Request::post(path, body)).unwrap();
    for n in ["a", "b"] {
        post("/cluster/join", Json::obj().set("node", n).set("addr", "127.0.0.1:9"));
    }
    // Arm: p99 limit 10ms, AIMD step 50, backoff 0.5, tick every ms.
    let r = post(
        "/cluster/slo",
        Json::obj()
            .set("target", "p99")
            .set("limit_ms", 10.0)
            .set("step", 50.0)
            .set("backoff", 0.5)
            .set("initial_rate", 1_000.0)
            .set("tick_ms", 1u64),
    );
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(r.body.get("active").and_then(Json::as_bool), Some(true));

    let beat = |node: &str, p99: u64| {
        post("/cluster/heartbeat", window_beat(node, &[(p99, 50)]));
    };

    // Healthy merged latency: additive increase.
    beat("a", 2_000);
    beat("b", 2_000);
    std::thread::sleep(Duration::from_millis(3));
    coordinator.tick();
    let after_increase = coordinator.global_rate().unwrap();
    assert!((after_increase - 1_050.0).abs() < 1e-6, "{after_increase}");

    // Merged p99 blows the limit: multiplicative backoff.
    beat("a", 40_000);
    beat("b", 35_000);
    std::thread::sleep(Duration::from_millis(3));
    coordinator.tick();
    let after_backoff = coordinator.global_rate().unwrap();
    assert!((after_backoff - after_increase * 0.5).abs() < 1e-6, "{after_backoff}");

    let status = coordinator.handle(&Request::get("/cluster/slo")).unwrap();
    let adj = status.body.get("adjustments").unwrap();
    assert_eq!(adj.get("increase").and_then(Json::as_u64), Some(1));
    assert_eq!(adj.get("decrease").and_then(Json::as_u64), Some(1));

    // Disarm: loop stops, rate stays where the controller left it.
    let r = coordinator
        .handle(&Request { method: bp_api::Method::Delete, path: "/cluster/slo".into(), body: None })
        .unwrap();
    assert_eq!(r.body.get("active").and_then(Json::as_bool), Some(false));
    std::thread::sleep(Duration::from_millis(3));
    coordinator.tick();
    assert_eq!(coordinator.global_rate().unwrap(), after_backoff);
}

#[test]
fn straggler_heartbeats_become_doctor_finding() {
    let coordinator = ClusterCoordinator::new(CoordinatorConfig::default());
    let post = |path: &str, body: Json| coordinator.handle(&Request::post(path, body)).unwrap();
    for n in ["a", "b", "c"] {
        post("/cluster/join", Json::obj().set("node", n).set("addr", "127.0.0.1:9"));
    }
    let beat = |node: &str, p99: u64| {
        post(
            "/cluster/heartbeat",
            Json::obj().set("node", node).set(
                "window",
                Json::obj()
                    .set("count", 100u64)
                    .set("p50_us", 500u64)
                    .set("p99_us", p99)
                    .set("throughput", 100.0),
            ),
        );
    };
    beat("a", 2_000);
    beat("b", 2_200);
    beat("c", 30_000); // 13x the median of its peers
    coordinator.tick();
    coordinator.tick();

    let events = coordinator.journal().recent(usize::MAX, Severity::Debug);
    let straggles: Vec<_> = events.iter().filter(|e| e.kind == "node_straggler").collect();
    assert!(!straggles.is_empty(), "no straggler event emitted");
    for e in &straggles {
        assert_eq!(e.fields.iter().find(|(k, _)| *k == "node").unwrap().1, "c");
    }

    // The doctor turns the event run into a ranked straggler_node finding.
    let report = bp_obs::Report {
        version: 1,
        interval_us: 1_000_000,
        samples: Vec::new(),
        events: events.clone(),
    };
    let findings = bp_obs::diagnose(&report);
    let f = findings
        .iter()
        .find(|f| f.bottleneck == bp_obs::Bottleneck::StragglerNode)
        .expect("straggler finding");
    assert!(f.evidence.contains("node c"), "{}", f.evidence);
    assert_eq!(f.causal_kind, Some("node_straggler"));
}
