//! Wire types: one JSON object per line, both directions.
//!
//! The framing is deliberately the same JSON-lines shape as the
//! `usep-trace` export and the journal: line-oriented, self-describing,
//! greppable with standard tools. A client sends one [`SolveRequest`]
//! per line and reads one [`SolveResponse`] line back; a connection may
//! carry any number of request/response pairs sequentially.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use usep_core::{Instance, Planning};
use usep_delta::Mutation;

/// A solve request, instance inline.
///
/// The `id` is the idempotence key: the server journals accepted ids
/// and answers a duplicate of an already-completed id from its cache
/// without re-solving. Budget fields are *requests* — the server caps
/// them with its own limits before building the [`usep_guard::SolveBudget`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SolveRequest {
    /// Client-chosen idempotence key.
    pub id: String,
    /// The instance to plan, shared by reference: cloning a request for
    /// a retry tier or a journal replay copies a pointer, not the
    /// matrices, and the one-shot [`Instance::freeze`] lowering is
    /// shared with it.
    pub instance: Arc<Instance>,
    /// Algorithm name (same names as `usep solve --algorithm`);
    /// the server default applies when absent.
    #[serde(default)]
    pub algorithm: Option<String>,
    /// Requested wall-clock budget for the whole solve (all retry
    /// tiers together), capped server-side.
    #[serde(default)]
    pub timeout_ms: Option<u64>,
    /// Requested per-solve memory ceiling, capped server-side.
    #[serde(default)]
    pub mem_budget_mb: Option<u64>,
    /// Routing label for the fleet router: the city whose shard should
    /// own this request (case-insensitive). A bare `usep serve` shard
    /// ignores it; unlabeled requests fall back to consistent hashing
    /// on the id.
    #[serde(default)]
    pub city: Option<String>,
}

/// How a request ended. Every request gets exactly one of these.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Status {
    /// Some tier ran to its natural end; the planning is final.
    Complete,
    /// Every usable tier was cut short; the planning is the best
    /// constraint-valid prefix found. `reason` is the stable
    /// [`usep_guard::TruncationReason`] name of the *last* trip.
    Truncated {
        /// `deadline`, `memory_ceiling` or `cancelled`.
        reason: String,
    },
    /// The solve panicked; the panic was contained at the request
    /// fence and the server kept serving.
    Failed {
        /// Stringified panic payload.
        panic: String,
    },
    /// Shed at admission: the queue or the memory ledger was full.
    Overloaded {
        /// Queue depth observed at the admission decision.
        queue_depth: usize,
        /// Ledger bytes reserved at the admission decision.
        reserved_bytes: usize,
    },
    /// The request never entered the queue: unparseable, failed
    /// instance validation, or named an unknown algorithm.
    Rejected {
        /// Human-readable cause.
        error: String,
    },
}

impl Status {
    /// Stable one-token description for logs and exit-code mapping.
    pub fn describe(&self) -> String {
        match self {
            Status::Complete => "complete".to_string(),
            Status::Truncated { reason } => format!("truncated:{reason}"),
            Status::Failed { .. } => "failed:panic".to_string(),
            Status::Overloaded { .. } => "overloaded".to_string(),
            Status::Rejected { .. } => "rejected".to_string(),
        }
    }
}

/// Per-phase wall-clock breakdown of one request's life inside the
/// server, reported on every reply that went through the queue.
///
/// The phases partition the server-side latency a client observes:
/// `admission_ms` (parse, screen, admit, journal), `queue_wait_ms`
/// (admitted → picked up by a worker), `solve_ms` (all solver tiers
/// together) and `backoff_ms` (sleeps between retry tiers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Parse + screening + admission + journal fsync, before enqueue.
    #[serde(default)]
    pub admission_ms: f64,
    /// Time spent in the bounded queue waiting for a worker.
    #[serde(default)]
    pub queue_wait_ms: f64,
    /// Wall-clock inside the solver tiers (sum over retries).
    #[serde(default)]
    pub solve_ms: f64,
    /// Wall-clock spent sleeping in retry backoff.
    #[serde(default)]
    pub backoff_ms: f64,
}

/// A control-plane request multiplexed on the solve socket: a line
/// that is a JSON object whose first `verb` key holds a string is a
/// control verb instead of a [`SolveRequest`] (solve requests never
/// carry `verb`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ControlRequest {
    /// `"dump"` dumps the flight recorder as one JSON line.
    pub verb: String,
}

/// One `{"verb":"mutate"}` line: the delta-session protocol multiplexed
/// on the solve socket.
///
/// A session is a named warm [`usep_delta::DeltaEngine`] living inside
/// the server. Exactly one of the operation fields is set per line:
///
/// * `open` — cold-solve this instance and keep the warm state under
///   `session`. Idempotent: re-opening an existing session (e.g. after
///   a client retry across a server crash + `--resume`) answers from
///   the live session without re-solving.
/// * `mutation` + `mutation_id` — apply one typed mutation through the
///   bounded-repair path. The `mutation_id` is the exactly-once key:
///   the mutation is journaled *before* it is applied, a duplicate id
///   answers the cached outcome without re-applying, and a resumed
///   server replays the journaled mutations in order to rebuild the
///   warm state.
/// * `query` — report the session's current Ω, drift and repair stats.
/// * `close` — drop the session (journaled, so it stays closed across
///   resume).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MutateRequest {
    /// Always `"mutate"` (the control-plane discriminator).
    pub verb: String,
    /// Client-chosen session name; the scope of all other fields.
    pub session: String,
    /// Open the session over this instance (cold solve + warm state).
    #[serde(default)]
    pub open: Option<Arc<Instance>>,
    /// Drift fraction above which the engine abandons bounded repair
    /// and re-solves cold; only read on `open`. Server default applies
    /// when absent.
    #[serde(default)]
    pub fallback_threshold: Option<f64>,
    /// Exactly-once key for `mutation`; required with it.
    #[serde(default)]
    pub mutation_id: Option<String>,
    /// The typed mutation to apply.
    #[serde(default)]
    pub mutation: Option<Mutation>,
    /// Report the session's current state without mutating it.
    #[serde(default)]
    pub query: bool,
    /// Close the session.
    #[serde(default)]
    pub close: bool,
}

/// The reply to one [`MutateRequest`] line.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MutateResponse {
    /// Echo of the session name.
    pub session: String,
    /// Echo of the mutation's exactly-once key, when one was sent.
    #[serde(default)]
    pub mutation_id: Option<String>,
    /// Whether the operation was accepted. A rejected *mutation*
    /// (unknown entity, bad μ, …) leaves the warm state untouched and
    /// reports its reason in `error`.
    pub ok: bool,
    /// Rejection reason when `ok` is false.
    #[serde(default)]
    pub error: Option<String>,
    /// `"opened"`, `"repaired"`, `"fallback"`, `"replayed"`,
    /// `"queried"` or `"closed"` — how the server satisfied the line.
    #[serde(default)]
    pub outcome: Option<String>,
    /// Session Ω after the operation.
    #[serde(default)]
    pub omega: f64,
    /// Drift fraction accrued since the last full solve.
    #[serde(default)]
    pub drift: f64,
    /// Assignments in the session's current planning.
    #[serde(default)]
    pub assignments: u64,
    /// Assignments released by this mutation.
    #[serde(default)]
    pub evicted: u64,
    /// Assignments added by this mutation's repair pass.
    #[serde(default)]
    pub added: u64,
    /// Entities touched by this mutation's bounded repair.
    #[serde(default)]
    pub touched: u64,
    /// Mutations applied to the session so far (including this one).
    #[serde(default)]
    pub mutations: u64,
    /// Of those, how many stayed on the bounded-repair path.
    #[serde(default)]
    pub repairs: u64,
    /// Of those, how many fell back to a full cold resolve.
    #[serde(default)]
    pub fallbacks: u64,
}

impl MutateResponse {
    /// A minimal accepted reply carrying the session echo and the
    /// outcome tag; callers fill in the state fields.
    pub fn accepted(session: impl Into<String>, outcome: &str) -> MutateResponse {
        MutateResponse {
            session: session.into(),
            mutation_id: None,
            ok: true,
            error: None,
            outcome: Some(outcome.to_string()),
            omega: 0.0,
            drift: 0.0,
            assignments: 0,
            evicted: 0,
            added: 0,
            touched: 0,
            mutations: 0,
            repairs: 0,
            fallbacks: 0,
        }
    }

    /// A rejection carrying only the session echo and the reason.
    pub fn rejected(session: impl Into<String>, error: impl Into<String>) -> MutateResponse {
        MutateResponse {
            session: session.into(),
            mutation_id: None,
            ok: false,
            error: Some(error.into()),
            outcome: None,
            omega: 0.0,
            drift: 0.0,
            assignments: 0,
            evicted: 0,
            added: 0,
            touched: 0,
            mutations: 0,
            repairs: 0,
            fallbacks: 0,
        }
    }
}

/// The reply to one [`SolveRequest`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SolveResponse {
    /// Echo of the request id (empty for unparseable requests).
    pub id: String,
    /// Typed outcome.
    pub status: Status,
    /// Ω of `planning` (0 when there is none).
    #[serde(default)]
    pub omega: f64,
    /// Assignment count of `planning`.
    #[serde(default)]
    pub assignments: u64,
    /// Algorithm that produced `planning` (after degradation).
    #[serde(default)]
    pub executed: Option<String>,
    /// Serve-level retries spent walking down the degradation chain.
    #[serde(default)]
    pub retries: u64,
    /// The planning, for `Complete` and `Truncated` outcomes.
    #[serde(default)]
    pub planning: Option<Planning>,
    /// Server-side per-phase latency breakdown (absent on replies that
    /// never entered the queue: rejected, overloaded, replayed).
    #[serde(default)]
    pub timings: Option<PhaseTimings>,
    /// Name of the shard whose solve produced this response, stamped by
    /// a `--shard-id` worker (and preserved by the fleet router so a
    /// client can see where its request landed after failover). Absent
    /// on unsharded servers and router-synthesized replies.
    #[serde(default)]
    pub shard: Option<String>,
}

impl SolveResponse {
    /// A planning-free response with the given id and status.
    pub fn bare(id: impl Into<String>, status: Status) -> SolveResponse {
        SolveResponse {
            id: id.into(),
            status,
            omega: 0.0,
            assignments: 0,
            executed: None,
            retries: 0,
            planning: None,
            timings: None,
            shard: None,
        }
    }
}

/// Estimated resident footprint of solving `inst`, charged against the
/// admission ledger while the request is queued or in flight. Dominated
/// by the `μ` matrix and the worst-case explicit cost matrices; the
/// per-entity term covers ids, locations and intervals. An estimate —
/// the per-solve `Guard` ceiling, not this, is the hard bound.
pub fn estimate_instance_bytes(inst: &Instance) -> usize {
    let nv = inst.num_events();
    let nu = inst.num_users();
    let mu = nv.saturating_mul(nu).saturating_mul(8);
    let costs = nv.saturating_mul(nu + nv).saturating_mul(4);
    let entities = (nv + nu).saturating_mul(48);
    mu.saturating_add(costs).saturating_add(entities)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_instance() -> Instance {
        let mut b = usep_core::InstanceBuilder::new();
        b.event(
            2,
            usep_core::Point::new(0, 0),
            usep_core::TimeInterval::new(0, 10).unwrap(),
        );
        b.user(usep_core::Point::new(1, 1), usep_core::Cost::new(50));
        b.utility(usep_core::EventId(0), usep_core::UserId(0), 0.5);
        b.build().unwrap()
    }

    #[test]
    fn request_roundtrips_with_and_without_optional_fields() {
        let full = SolveRequest {
            id: "r1".into(),
            instance: Arc::new(tiny_instance()),
            algorithm: Some("dedpo".into()),
            timeout_ms: Some(500),
            mem_budget_mb: Some(64),
            city: Some("vancouver".into()),
        };
        let json = serde_json::to_string(&full).unwrap();
        let back: SolveRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, "r1");
        assert_eq!(back.algorithm.as_deref(), Some("dedpo"));
        assert_eq!(back.timeout_ms, Some(500));
        assert_eq!(back.city.as_deref(), Some("vancouver"));
        assert_eq!(back.instance, full.instance);

        // optional fields may be omitted entirely on the wire
        let sparse = format!(
            r#"{{"id":"r2","instance":{}}}"#,
            serde_json::to_string(&tiny_instance()).unwrap()
        );
        let back: SolveRequest = serde_json::from_str(&sparse).unwrap();
        assert_eq!(back.id, "r2");
        assert!(back.algorithm.is_none());
        assert!(back.timeout_ms.is_none());
        assert!(back.mem_budget_mb.is_none());
        assert!(back.city.is_none());
    }

    #[test]
    fn every_status_roundtrips() {
        let statuses = [
            Status::Complete,
            Status::Truncated { reason: "memory_ceiling".into() },
            Status::Failed { panic: "boom".into() },
            Status::Overloaded { queue_depth: 9, reserved_bytes: 1024 },
            Status::Rejected { error: "bad instance".into() },
        ];
        for status in statuses {
            let resp = SolveResponse::bare("x", status.clone());
            let json = serde_json::to_string(&resp).unwrap();
            let back: SolveResponse = serde_json::from_str(&json).unwrap();
            assert_eq!(back.status, status, "{json}");
        }
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(Status::Complete.describe(), "complete");
        assert_eq!(
            Status::Truncated { reason: "deadline".into() }.describe(),
            "truncated:deadline"
        );
        assert_eq!(Status::Failed { panic: "p".into() }.describe(), "failed:panic");
        assert_eq!(
            Status::Overloaded { queue_depth: 0, reserved_bytes: 0 }.describe(),
            "overloaded"
        );
    }

    #[test]
    fn timings_roundtrip_and_stay_optional_on_the_wire() {
        let mut resp = SolveResponse::bare("t", Status::Complete);
        resp.timings = Some(PhaseTimings {
            admission_ms: 0.5,
            queue_wait_ms: 1.25,
            solve_ms: 10.0,
            backoff_ms: 0.0,
        });
        let json = serde_json::to_string(&resp).unwrap();
        let back: SolveResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.timings.unwrap().queue_wait_ms, 1.25);

        // old-format responses without the field still parse
        let legacy = r#"{"id":"t","status":"Complete"}"#;
        let back: SolveResponse = serde_json::from_str(legacy).unwrap();
        assert!(back.timings.is_none());
        assert!(back.shard.is_none());
    }

    #[test]
    fn shard_stamp_roundtrips() {
        let mut resp = SolveResponse::bare("s", Status::Complete);
        resp.shard = Some("shard-vancouver".into());
        let json = serde_json::to_string(&resp).unwrap();
        let back: SolveResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shard.as_deref(), Some("shard-vancouver"));
    }

    #[test]
    fn control_lines_are_distinguishable_from_solve_requests() {
        let ctl: ControlRequest = serde_json::from_str(r#"{"verb":"dump"}"#).unwrap();
        assert_eq!(ctl.verb, "dump");
        // a control line is not a valid solve request…
        assert!(serde_json::from_str::<SolveRequest>(r#"{"verb":"dump"}"#).is_err());
        // …and a solve request line is not a control line
        let solve = format!(
            r#"{{"id":"r","instance":{}}}"#,
            serde_json::to_string(&tiny_instance()).unwrap()
        );
        assert!(serde_json::from_str::<ControlRequest>(&solve).is_err());
    }

    #[test]
    fn mutate_lines_parse_with_each_operation_shape() {
        let open = format!(
            r#"{{"verb":"mutate","session":"s1","open":{}}}"#,
            serde_json::to_string(&tiny_instance()).unwrap()
        );
        let req: MutateRequest = serde_json::from_str(&open).unwrap();
        assert_eq!(req.session, "s1");
        assert!(req.open.is_some() && req.mutation.is_none() && !req.query && !req.close);

        let mutate = r#"{"verb":"mutate","session":"s1","mutation_id":"m1",
            "mutation":{"CapacityChange":{"event":0,"capacity":3}}}"#;
        let req: MutateRequest = serde_json::from_str(mutate).unwrap();
        assert_eq!(req.mutation_id.as_deref(), Some("m1"));
        assert!(matches!(
            req.mutation,
            Some(Mutation::CapacityChange { event: 0, capacity: 3 })
        ));

        let query: MutateRequest =
            serde_json::from_str(r#"{"verb":"mutate","session":"s1","query":true}"#).unwrap();
        assert!(query.query);
        let close: MutateRequest =
            serde_json::from_str(r#"{"verb":"mutate","session":"s1","close":true}"#).unwrap();
        assert!(close.close);

        // a mutate line is still a ControlRequest (that is how the
        // server routes it off the solve path)
        let ctl: ControlRequest = serde_json::from_str(mutate).unwrap();
        assert_eq!(ctl.verb, "mutate");
    }

    #[test]
    fn mutate_response_roundtrips() {
        let mut resp = MutateResponse::rejected("s1", "unknown session");
        assert!(!resp.ok);
        resp.ok = true;
        resp.error = None;
        resp.outcome = Some("repaired".into());
        resp.omega = 4.25;
        resp.mutation_id = Some("m9".into());
        let json = serde_json::to_string(&resp).unwrap();
        let back: MutateResponse = serde_json::from_str(&json).unwrap();
        assert!(back.ok);
        assert_eq!(back.outcome.as_deref(), Some("repaired"));
        assert_eq!(back.omega, 4.25);
        assert_eq!(back.mutation_id.as_deref(), Some("m9"));
    }

    #[test]
    fn footprint_estimate_scales_with_the_matrix() {
        let small = estimate_instance_bytes(&tiny_instance());
        assert!(small > 0);
        // μ dominates: 100×1000 ≈ 800 KB just for the matrix
        let mut b = usep_core::InstanceBuilder::new();
        for i in 0..100 {
            let s = i64::from(i) * 20;
            b.event(
                5,
                usep_core::Point::new(i, 0),
                usep_core::TimeInterval::new(s, s + 10).unwrap(),
            );
        }
        for j in 0..1000 {
            b.user(usep_core::Point::new(j % 50, 1), usep_core::Cost::new(100));
        }
        let big = b.build().unwrap();
        assert!(estimate_instance_bytes(&big) >= 100 * 1000 * 8);
        assert!(estimate_instance_bytes(&big) > small);
    }
}
