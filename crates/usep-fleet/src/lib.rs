//! Geo-sharded serve fleet for USEP.
//!
//! One `usep-serve` process survives its own crashes (PR 4's journal),
//! but a planning platform for millions of users needs to survive the
//! *machine*: this crate turns N independent serve processes into a
//! fleet behind a single front door, built from the same
//! zero-dependency substrate (`std::net`, JSON lines) as everything
//! else in the workspace.
//!
//! * **Partitioning** ([`partition`]) — travel budgets make USEP
//!   naturally geo-partitionable: a Vancouver attendee never joins a
//!   Singapore event, so requests labeled with a city go to that city's
//!   shard. Unlabeled requests fall back to rendezvous
//!   (highest-random-weight) hashing on the request id, which moves
//!   only ~K/N keys when a shard leaves the set. Assignment is a pure
//!   function of the table — a restarted router routes identically.
//! * **Health** ([`health`]) — per-shard shared state fed by a probe
//!   loop (TCP connect + `usep-obs` `/healthz` + queue-depth scrape)
//!   and by the router's own forwarding outcomes. One flaky probe makes
//!   a shard `Suspect`; two make it `Down`; a failed forward is direct
//!   evidence and marks it `Down` immediately.
//! * **Routing + failover** ([`router`]) — the front door speaks the
//!   exact `usep-serve` protocol. Failed forwards move down the
//!   deterministic preference order with capped equal-jitter backoff
//!   ([`backoff`]); a fleet-level completion cache answers
//!   duplicate ids and makes first-completion-wins the law across
//!   failover, so no client ever sees two answers for one id.
//! * **Supervision** ([`supervisor`]) — each shard owns a journal
//!   stamped with its shard id. When a shard dies the supervisor
//!   restarts it with `--resume`; the stamp guarantees a shard can
//!   never resume a sibling's journal, and the restarted process
//!   re-solves exactly the requests it had accepted but not completed.
//! * **Fleet metrics** ([`metrics`]) — a `usep-obs` registry over
//!   router counters and per-shard gauges (health, inflight, queue
//!   depth, failovers, restarts), served on the fleet's own
//!   `--metrics-addr` with the reconciliation identity
//!   `requests = replayed + rejected + shed + Σ completed + inflight`.
//! * **Assembly** ([`fleet`]) — [`Fleet::start`] behind
//!   `usep serve fleet`: spawn shards, build the table, start router,
//!   monitor, supervisor and metrics listener; one handle tears it all
//!   down.

#![forbid(unsafe_code)]

pub mod backoff;
pub mod fleet;
pub mod health;
pub mod metrics;
pub mod partition;
pub mod router;
pub mod supervisor;

pub use backoff::RetryPolicy;
pub use fleet::{default_city_map, Fleet, FleetConfig, FleetHandle, DEFAULT_CITIES};
pub use health::{probe, Health, HealthMonitor, ShardState};
pub use metrics::FleetMetrics;
pub use partition::PartitionTable;
pub use router::{Router, RouterConfig, RouterHandle};
pub use supervisor::{spawn_shard, ShardProcessSpec, Supervisor};
