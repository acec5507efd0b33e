//! Problem model for **Utility-aware Social Event-participant Planning**
//! (USEP, She/Tong/Chen, SIGMOD 2015).
//!
//! This crate defines the data model shared by every algorithm and
//! generator in the workspace:
//!
//! * [`Event`]s with a capacity, a location and a time interval, and
//!   [`User`]s with a location and a travel budget ([`Cost`]).
//! * An [`Instance`] bundling events, users, the utility matrix
//!   `μ(v, u) ∈ [0, 1]` and a [`TravelCost`] oracle. Instances precompute
//!   the directed event-to-event cost matrix (with [`Cost::INFINITE`] for
//!   spatio-temporally incompatible pairs) and a [`TemporalIndex`] over
//!   events sorted by end time — the order every algorithm in the paper
//!   works in.
//! * [`Schedule`]s — per-user, time-ordered, conflict-free event lists —
//!   including the incremental-cost computation of the paper's Eq. (3),
//!   and [`Planning`]s (one schedule per user) with full validation of the
//!   four USEP constraints (capacity, budget, feasibility, utility).
//!
//! The objective is `Ω(A) = Σ_u Σ_{v ∈ S_u} μ(v, u)`; see
//! [`Planning::omega`].
//!
//! # Example
//!
//! ```
//! use usep_core::{InstanceBuilder, Point, TimeInterval, Cost, Planning};
//!
//! let mut b = InstanceBuilder::new();
//! let run = b.event(2, Point::new(0, 0), TimeInterval::new(9, 11).unwrap());
//! let gig = b.event(1, Point::new(4, 0), TimeInterval::new(14, 15).unwrap());
//! let alice = b.user(Point::new(1, 1), Cost::new(40));
//! b.utility(run, alice, 0.9);
//! b.utility(gig, alice, 0.7);
//! let inst = b.build().unwrap();
//!
//! let mut plan = Planning::empty(&inst);
//! plan.assign(&inst, alice, run).unwrap();
//! plan.assign(&inst, alice, gig).unwrap();
//! assert!(plan.validate(&inst).is_ok());
//! assert!((plan.omega(&inst) - 1.6).abs() < 1e-6); // μ is stored as f32
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod cost;
pub mod error;
pub mod event;
pub mod fairness;
pub mod flat;
pub mod geo;
pub mod ids;
pub mod instance;
pub mod planning;
pub mod schedule;
pub mod stats;
pub mod temporal;
pub mod time;
pub mod user;

pub use codec::CodecError;
pub use cost::Cost;
pub use error::{BuildError, ConstraintViolation, PlanningError, ValidateError};
pub use event::Event;
pub use fairness::FairnessStats;
pub use flat::{normalize_utility, FlatInstance};
pub use geo::Point;
pub use ids::{EventId, UserId};
pub use instance::patch::PatchError;
pub use instance::{Instance, InstanceBuilder, TravelCost};
pub use planning::Planning;
pub use schedule::{InsertError, Schedule};
pub use stats::PlanningStats;
pub use temporal::TemporalIndex;
pub use time::TimeInterval;
pub use user::User;
