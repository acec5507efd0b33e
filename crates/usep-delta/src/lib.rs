//! Online incremental replanning for USEP — the delta-solve engine.
//!
//! A deployed event-participant planner does not get to re-solve from
//! scratch every time an event is cancelled or a user registers: it
//! keeps **warm state** and repairs. This crate provides that engine
//! and the machinery to trust it:
//!
//! * [`Mutation`] / [`MutationTrace`] — the typed mutation stream
//!   (event add/remove, capacity change, user arrive/depart, μ update),
//!   addressed by stable ids so traces are replayable and journal-able.
//! * [`DeltaEngine`] — warm state (live instance with amended frozen
//!   view, current planning, recency stamps), opened with a cold
//!   DeGreedy+RG solve, absorbing mutations with bounded work: instance
//!   *patch* (`usep-core`'s strided amendments, never a rebuild),
//!   deterministic *release* of invalidated assignments (LIFO on
//!   capacity shrink), then one RatioGreedy augmentation pass over
//!   residual events, seeded only from the events and users the
//!   mutation touched. A drift metric — released-but-surviving utility
//!   over the Ω anchor — triggers fallback to another cold solve when
//!   repairs have churned too much.
//! * [`generate_trace`] — seeded, adversarial trace generator
//!   (remove-then-readd, shrink-below-attendance, μ-zeroing).
//! * [`run_trace`] / [`run_delta_fuzz`] — the differential referee:
//!   after every mutation the incremental planning must be
//!   constraint-valid, the patched instance byte-identical to a
//!   from-scratch rebuild, and Ω within a configured bound of a cold
//!   solve. Failures shrink to minimal repros via [`minimize_trace`].
//!
//! `usep-serve` journals mutations behind a `mutate` verb and replays
//! them on resume; `usep-oracle` layers its constraint checker on the
//! referee's external-check hook; the CLI exposes the fuzz harness as
//! `usep delta`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod gentrace;
pub mod mutation;
pub mod referee;

pub use engine::{
    DeltaConfig, DeltaEngine, DeltaError, DeltaStats, MutationOutcome, RepairKind,
    TOUCHED_HISTOGRAM,
};
pub use gentrace::{generate_trace, TraceGenConfig};
pub use mutation::{MuEntry, Mutation, MutationTrace};
pub use referee::{
    minimize_trace, no_extra, run_delta_fuzz, run_trace, shadow_rebuild, DeltaFuzzConfig,
    DeltaFuzzFinding, DeltaFuzzReport, FailureKind, RefereeConfig, TraceFailure, TraceReport,
};
