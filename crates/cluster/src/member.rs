//! Cluster membership: the coordinator's view of the agent fleet.
//!
//! A deliberately simple heartbeat-driven failure detector (no gossip, no
//! quorum — one coordinator is the membership authority, the same shape as
//! OLTP-Bench's one-driver-per-node deployments):
//!
//! ```text
//!            join / heartbeat            heartbeat
//!   (new) ───────────────────▶ Joined ◀───────────── Suspect
//!                                │   missed > 1 interval │
//!                                └───────────────────────┘
//!                                        │ missed > 2 intervals
//!                                        ▼
//!                                      Dead ── heartbeat ──▶ Joined (rejoin)
//! ```
//!
//! All transitions are computed against caller-supplied timestamps so the
//! state machine is deterministic under test; the coordinator feeds it real
//! monotonic time.

use std::net::SocketAddr;

use bp_util::histogram::Histogram;
use bp_util::json::Json;

/// Failure-detector state of one agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Heartbeating within one interval.
    Joined,
    /// Missed more than one heartbeat interval; still counted live (its
    /// share of the global rate is retained) pending recovery or death.
    Suspect,
    /// Missed more than two intervals; excluded from rate splits and
    /// fan-out until it heartbeats again.
    Dead,
}

impl NodeState {
    pub fn name(&self) -> &'static str {
        match self {
            NodeState::Joined => "joined",
            NodeState::Suspect => "suspect",
            NodeState::Dead => "dead",
        }
    }
}

/// Most samples one heartbeat window may carry: the largest integer a JSON
/// number holds exactly. It keeps the coordinator's merged fleet count far
/// from `u64` overflow.
const MAX_WINDOW_COUNT: u64 = 1 << 53;

/// Latest windowed statistics an agent reported in a heartbeat.
#[derive(Debug, Clone, Default)]
pub struct NodeWindow {
    pub count: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub throughput: f64,
    /// Trace id of the slowest recently retained span on that node (0 when
    /// the agent has no span recorder or nothing retained yet). Lets
    /// straggler findings cite a concrete exemplar request.
    pub slow_trace: u64,
    /// The window's latency histogram. The coordinator merges these across
    /// live nodes, so fleet percentiles are true percentiles of the union.
    pub histogram: Histogram,
}

impl NodeWindow {
    /// Summarise an agent's window histogram.
    pub fn from_histogram(histogram: Histogram, throughput: f64, slow_trace: u64) -> NodeWindow {
        NodeWindow {
            count: histogram.count(),
            p50_us: histogram.p50(),
            p99_us: histogram.p99(),
            throughput,
            slow_trace,
            histogram,
        }
    }

    /// The heartbeat / status wire form: the summary fields, `slow_trace`
    /// as hex when set, and the histogram's non-empty buckets as
    /// `[[bucket_low, count], …]`.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .histogram
            .iter()
            .map(|(low, n)| Json::Arr(vec![Json::from(low), Json::from(n)]))
            .collect();
        let mut j = Json::obj()
            .set("count", self.count)
            .set("p50_us", self.p50_us)
            .set("p99_us", self.p99_us)
            .set("throughput", self.throughput)
            .set("buckets", Json::Arr(buckets));
        if self.slow_trace != 0 {
            j = j.set("slow_trace", bp_obs::format_trace_id(self.slow_trace).as_str());
        }
        j
    }

    /// Inverse of [`NodeWindow::to_json`]; missing fields read as zero and
    /// each bucket is re-recorded at its lower bound, which lands it in the
    /// same bucket. Buckets that would push the count past
    /// `MAX_WINDOW_COUNT` are dropped.
    pub fn from_json(j: &Json) -> NodeWindow {
        let mut histogram = Histogram::latency();
        for bucket in j.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
            if let Some([low, n]) = bucket.as_arr() {
                if let (Some(low), Some(n)) = (low.as_u64(), n.as_u64()) {
                    if n <= MAX_WINDOW_COUNT - histogram.count() {
                        histogram.record_n(low, n);
                    }
                }
            }
        }
        NodeWindow {
            count: j.get("count").and_then(Json::as_u64).unwrap_or(0),
            p50_us: j.get("p50_us").and_then(Json::as_u64).unwrap_or(0),
            p99_us: j.get("p99_us").and_then(Json::as_u64).unwrap_or(0),
            throughput: j.get("throughput").and_then(Json::as_f64).unwrap_or(0.0),
            slow_trace: j
                .get("slow_trace")
                .and_then(Json::as_str)
                .and_then(bp_obs::parse_trace_id)
                .unwrap_or(0),
            histogram,
        }
    }
}

/// One agent as the coordinator sees it.
#[derive(Debug, Clone)]
pub struct Member {
    pub id: String,
    /// The agent's control API address (its own `ApiServer` over HTTP).
    pub addr: SocketAddr,
    pub state: NodeState,
    /// Coordinator-clock timestamp of the last join/heartbeat.
    pub last_seen_us: u64,
    /// This node's share of the global rate (tx/s).
    pub assigned_rate: f64,
    /// Capacity estimate: EMA of reported window throughput. Zero until
    /// the first heartbeat carries completions.
    pub weight: f64,
    pub window: NodeWindow,
    pub heartbeats: u64,
}

/// EMA smoothing for the capacity weight: heavy enough on history to ride
/// out one noisy window, light enough to track a real capacity shift in a
/// few heartbeats.
const WEIGHT_EMA_ALPHA: f64 = 0.3;

/// Outcome of [`MembershipTable::heartbeat`] /
/// [`MembershipTable::join`] — tells the coordinator which journal event
/// to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// First time this node id was seen.
    New,
    /// Already joined; heartbeat refreshed it.
    Refreshed,
    /// Was suspect or dead; back in the live set (rates must re-split).
    Rejoined,
}

/// The coordinator's membership table plus the rate-split policy.
#[derive(Debug)]
pub struct MembershipTable {
    members: Vec<Member>,
    /// Expected heartbeat period; suspect after >1, dead after >2.
    pub heartbeat_interval_us: u64,
}

impl MembershipTable {
    pub fn new(heartbeat_interval_us: u64) -> MembershipTable {
        MembershipTable { members: Vec::new(), heartbeat_interval_us: heartbeat_interval_us.max(1) }
    }

    /// Register (or revive) a node. Keeps members sorted by id so status
    /// output and splits are deterministic.
    pub fn join(&mut self, id: &str, addr: SocketAddr, now_us: u64) -> Admission {
        match self.members.iter_mut().find(|m| m.id == id) {
            Some(m) => {
                let was = m.state;
                m.addr = addr;
                m.state = NodeState::Joined;
                m.last_seen_us = now_us;
                if was == NodeState::Joined {
                    Admission::Refreshed
                } else {
                    Admission::Rejoined
                }
            }
            None => {
                self.members.push(Member {
                    id: id.to_string(),
                    addr,
                    state: NodeState::Joined,
                    last_seen_us: now_us,
                    assigned_rate: 0.0,
                    weight: 0.0,
                    window: NodeWindow::default(),
                    heartbeats: 0,
                });
                self.members.sort_by(|a, b| a.id.cmp(&b.id));
                Admission::New
            }
        }
    }

    /// Record a heartbeat. Unknown nodes are treated as an implicit join
    /// (the coordinator may have restarted and lost the table). Updates the
    /// capacity weight from the reported window throughput.
    pub fn heartbeat(&mut self, id: &str, window: NodeWindow, now_us: u64) -> Admission {
        let admission = match self.members.iter().position(|m| m.id == id) {
            Some(_) => {
                let m = self.members.iter_mut().find(|m| m.id == id).unwrap();
                let was = m.state;
                m.state = NodeState::Joined;
                m.last_seen_us = now_us;
                if was == NodeState::Joined { Admission::Refreshed } else { Admission::Rejoined }
            }
            None => {
                // Placeholder address; the next explicit join fixes it.
                self.join(id, "127.0.0.1:0".parse().unwrap(), now_us)
            }
        };
        let m = self.members.iter_mut().find(|m| m.id == id).unwrap();
        m.heartbeats += 1;
        if window.count > 0 {
            m.weight = if m.weight == 0.0 {
                window.throughput
            } else {
                m.weight * (1.0 - WEIGHT_EMA_ALPHA) + window.throughput * WEIGHT_EMA_ALPHA
            };
        }
        m.window = window;
        admission
    }

    /// Advance the failure detector to `now_us`. Returns the transitions
    /// taken this sweep as `(node id, new state)` pairs, in id order.
    pub fn sweep(&mut self, now_us: u64) -> Vec<(String, NodeState)> {
        let interval = self.heartbeat_interval_us;
        let mut transitions = Vec::new();
        for m in &mut self.members {
            let silent = now_us.saturating_sub(m.last_seen_us);
            let next = if silent >= 2 * interval {
                NodeState::Dead
            } else if silent > interval {
                NodeState::Suspect
            } else {
                NodeState::Joined
            };
            // Only decay here; promotion back to Joined happens on heartbeat.
            if next != m.state && next != NodeState::Joined {
                m.state = next;
                transitions.push((m.id.clone(), next));
            }
        }
        transitions
    }

    /// Members not declared dead (suspects keep their traffic share — a
    /// single delayed heartbeat should not trigger a thundering re-split).
    pub fn live(&self) -> Vec<&Member> {
        self.members.iter().filter(|m| m.state != NodeState::Dead).collect()
    }

    pub fn members(&self) -> &[Member] {
        &self.members
    }

    pub fn get(&self, id: &str) -> Option<&Member> {
        self.members.iter().find(|m| m.id == id)
    }

    /// Count per state, in (joined, suspect, dead) order.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for m in &self.members {
            match m.state {
                NodeState::Joined => c.0 += 1,
                NodeState::Suspect => c.1 += 1,
                NodeState::Dead => c.2 += 1,
            }
        }
        c
    }

    /// Split `global_rate` across live members, weighted by observed
    /// capacity. Nodes with no throughput history yet get an equal share of
    /// whatever the weighted nodes don't claim — in practice: all-equal at
    /// startup, fully proportional once every node has reported.
    ///
    /// Returns `(id, rate)` pairs in id order and stores each share on the
    /// member. Dead nodes keep their stale `assigned_rate` for forensics
    /// but receive nothing.
    pub fn split_rate(&mut self, global_rate: f64) -> Vec<(String, f64)> {
        let live_ids: Vec<String> =
            self.members.iter().filter(|m| m.state != NodeState::Dead).map(|m| m.id.clone()).collect();
        if live_ids.is_empty() {
            return Vec::new();
        }
        let total_weight: f64 = self
            .members
            .iter()
            .filter(|m| m.state != NodeState::Dead)
            .map(|m| m.weight)
            .sum();
        let n = live_ids.len() as f64;
        let mut out = Vec::with_capacity(live_ids.len());
        for m in self.members.iter_mut().filter(|m| m.state != NodeState::Dead) {
            let share = if total_weight > f64::EPSILON {
                global_rate * (m.weight / total_weight)
            } else {
                global_rate / n
            };
            m.assigned_rate = share;
            out.push((m.id.clone(), share));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    const HB: u64 = 100_000; // 100ms heartbeat interval

    #[test]
    fn join_heartbeat_suspect_dead_rejoin() {
        let mut t = MembershipTable::new(HB);
        assert_eq!(t.join("a", addr(1), 0), Admission::New);
        assert_eq!(t.join("a", addr(1), 10), Admission::Refreshed);

        // Within one interval: still joined.
        assert!(t.sweep(HB).is_empty());
        assert_eq!(t.get("a").unwrap().state, NodeState::Joined);

        // >1 interval silent: suspect. Still in the live set.
        let tr = t.sweep(10 + HB + 1);
        assert_eq!(tr, vec![("a".to_string(), NodeState::Suspect)]);
        assert_eq!(t.live().len(), 1);

        // >=2 intervals silent: dead, and out of the live set.
        let tr = t.sweep(10 + 2 * HB);
        assert_eq!(tr, vec![("a".to_string(), NodeState::Dead)]);
        assert!(t.live().is_empty());

        // A heartbeat revives it.
        let adm = t.heartbeat("a", NodeWindow::default(), 3 * HB);
        assert_eq!(adm, Admission::Rejoined);
        assert_eq!(t.get("a").unwrap().state, NodeState::Joined);
        assert_eq!(t.counts(), (1, 0, 0));
    }

    #[test]
    fn sweep_reports_each_transition_once() {
        let mut t = MembershipTable::new(HB);
        t.join("a", addr(1), 0);
        assert_eq!(t.sweep(HB + 1).len(), 1);
        // Same state next sweep: no repeated transition.
        assert!(t.sweep(HB + 2).is_empty());
        assert_eq!(t.sweep(2 * HB).len(), 1);
        assert!(t.sweep(3 * HB).is_empty());
    }

    #[test]
    fn heartbeat_from_unknown_node_is_implicit_join() {
        let mut t = MembershipTable::new(HB);
        assert_eq!(t.heartbeat("ghost", NodeWindow::default(), 5), Admission::New);
        assert_eq!(t.get("ghost").unwrap().heartbeats, 1);
    }

    #[test]
    fn equal_split_without_capacity_history() {
        let mut t = MembershipTable::new(HB);
        t.join("a", addr(1), 0);
        t.join("b", addr(2), 0);
        t.join("c", addr(3), 0);
        let split = t.split_rate(3_000.0);
        assert_eq!(split.len(), 3);
        for (_, r) in &split {
            assert!((r - 1_000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capacity_weighted_split_tracks_observed_throughput() {
        let mut t = MembershipTable::new(HB);
        t.join("a", addr(1), 0);
        t.join("b", addr(2), 0);
        // a reports 3x the throughput of b.
        let wa = NodeWindow { count: 300, throughput: 300.0, ..NodeWindow::default() };
        let wb = NodeWindow { count: 100, throughput: 100.0, ..NodeWindow::default() };
        t.heartbeat("a", wa, 10);
        t.heartbeat("b", wb, 10);
        let split: Vec<f64> = t.split_rate(1_000.0).into_iter().map(|(_, r)| r).collect();
        assert!((split[0] - 750.0).abs() < 1e-6, "{split:?}");
        assert!((split[1] - 250.0).abs() < 1e-6, "{split:?}");
        assert!((split.iter().sum::<f64>() - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn dead_nodes_get_no_share() {
        let mut t = MembershipTable::new(HB);
        t.join("a", addr(1), 0);
        t.join("b", addr(2), 0);
        t.sweep(5 * HB); // both dead
        t.heartbeat("a", NodeWindow::default(), 5 * HB);
        let split = t.split_rate(500.0);
        assert_eq!(split, vec![("a".to_string(), 500.0)]);
        assert_eq!(t.get("b").unwrap().state, NodeState::Dead);
    }

    #[test]
    fn window_json_round_trips_histogram_buckets() {
        let mut h = Histogram::latency();
        h.record_n(900, 40);
        h.record_n(25_000, 3);
        let w = NodeWindow::from_histogram(h, 120.5, 0xabc);
        let back = NodeWindow::from_json(&w.to_json());
        assert_eq!((back.count, back.p50_us, back.p99_us), (43, w.p50_us, w.p99_us));
        assert_eq!(back.throughput, 120.5);
        assert_eq!(back.slow_trace, 0xabc);
        let buckets: Vec<(u64, u64)> = back.histogram.iter().collect();
        assert_eq!(buckets, w.histogram.iter().collect::<Vec<_>>());
        // The rebuilt p99 stays within the histogram's bucket error.
        let p99 = back.histogram.p99();
        assert!(p99.abs_diff(25_000) <= 25_000 / 16, "{p99}");
        // A count no real window reaches is dropped, not summed into overflow.
        let huge = Json::Arr(vec![Json::from(500u64), Json::from(u64::MAX)]);
        let ok = Json::Arr(vec![Json::from(900u64), Json::from(7u64)]);
        let w = NodeWindow::from_json(&Json::obj().set("buckets", Json::Arr(vec![huge, ok])));
        assert_eq!(w.histogram.count(), 7);
    }

    #[test]
    fn weight_ema_smooths_noise() {
        let mut t = MembershipTable::new(HB);
        t.join("a", addr(1), 0);
        let w = |tp: f64| NodeWindow { count: 10, p50_us: 1, p99_us: 1, throughput: tp, ..NodeWindow::default() };
        t.heartbeat("a", w(100.0), 1);
        assert_eq!(t.get("a").unwrap().weight, 100.0);
        t.heartbeat("a", w(200.0), 2);
        let after = t.get("a").unwrap().weight;
        assert!(after > 100.0 && after < 200.0, "{after}");
        // Empty windows don't poison the estimate.
        t.heartbeat("a", NodeWindow::default(), 3);
        assert_eq!(t.get("a").unwrap().weight, after);
    }
}
