//! `bp-cluster`: multi-node coordination for the BenchPress testbed.
//!
//! OLTP-Bench scales out by running one driver process per client machine;
//! the paper's dynamic control story (throttle, mixture, SLO) then has to
//! reach *all* of them. This crate closes that gap over the existing
//! std-only HTTP stack with two roles:
//!
//! * **Agent** ([`start_agent`]) — the familiar single-node stack
//!   (workload + [`bp_core::Controller`] + [`bp_api::ApiServer`]) that
//!   joins a coordinator, heartbeats its windowed latency/throughput, and
//!   applies the rate share it is assigned. It also serves its metrics
//!   registry as structured samples on `GET /cluster/snapshot`.
//! * **Coordinator** ([`ClusterCoordinator`]) — the membership authority.
//!   It tracks agents through a joined → suspect → dead missed-heartbeat
//!   state machine ([`MembershipTable`]), splits the fleet-wide rate by
//!   observed per-node capacity, fans control commands (rate, mixture,
//!   pause/resume/stop, chaos, SLO) out to live agents, folds their
//!   registries into one deduped Prometheus exposition on
//!   `GET /cluster/metrics`, and can run the node SLO control law
//!   ([`bp_core::SloCore`]) on the fleet's merged window histogram.
//!
//! Both roles mount their HTTP surface through
//! [`bp_api::router::RouteExtension`], so bp-api stays ignorant of
//! bp-cluster and either role can share a process with anything else the
//! API server hosts. Everything — transport included — remains std-only.

pub mod agent;
pub mod coordinator;
pub mod member;

pub use agent::{start_agent, AgentConfig, AgentGuard};
pub use coordinator::{ClusterCoordinator, CoordinatorConfig, DetectorGuard, FANOUT_TIMEOUT};
pub use member::{Admission, Member, MembershipTable, NodeState, NodeWindow};
