//! Per-user schedules and the incremental-cost computation of Eq. (3).

use crate::cost::Cost;
use crate::error::ConstraintViolation;
use crate::flat::FlatInstance;
use crate::ids::{EventId, UserId};
use crate::instance::Instance;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Why an event cannot be inserted into a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertError {
    /// The event is already in the schedule.
    Duplicate,
    /// The event overlaps a scheduled event in time.
    TimeConflict,
    /// The event fits time-wise but a connecting leg is unreachable
    /// (infinite cost).
    Unreachable,
    /// Inserting would push the schedule's travel cost past the budget.
    OverBudget,
}

impl fmt::Display for InsertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InsertError::Duplicate => "event already scheduled",
            InsertError::TimeConflict => "event overlaps the schedule",
            InsertError::Unreachable => "connecting leg is unreachable",
            InsertError::OverBudget => "insertion exceeds the travel budget",
        };
        f.write_str(s)
    }
}

impl Error for InsertError {}

/// A user's schedule `S_u`: arranged events in increasing time order,
/// pairwise non-overlapping.
///
/// The schedule does not store which user it belongs to; methods that need
/// costs take the `(view, user)` pair explicitly, which keeps the type a
/// plain data container the algorithms can shuffle around freely. The
/// Eq.-(3) operations run on the frozen [`FlatInstance`]
/// ([`Instance::freeze`]).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    pub(crate) events: Vec<EventId>,
}

impl Schedule {
    /// The empty schedule.
    pub fn new() -> Schedule {
        Schedule::default()
    }

    /// Builds a schedule from events already in increasing time order.
    ///
    /// Used by the decomposed algorithms, whose DP/greedy subroutines
    /// construct whole feasible schedules at once. Order and
    /// non-overlap are debug-asserted; call [`Schedule::check`] in tests
    /// for a full audit.
    pub fn from_time_ordered(inst: &Instance, events: Vec<EventId>) -> Schedule {
        debug_assert!(
            events.windows(2).all(|w| inst.event(w[0]).time.precedes(inst.event(w[1]).time)),
            "events not in feasible time order"
        );
        let _ = inst;
        Schedule { events }
    }

    /// Builds a schedule from a raw event list with **no invariant
    /// checks** — the events are taken verbatim, whatever their order,
    /// overlaps or duplicates.
    ///
    /// This is an oracle-facing constructor: external validators and
    /// corruption harnesses (see the `usep-oracle` crate) need to
    /// materialize deliberately *broken* schedules to prove that the
    /// auditors catch them. It must never be used by a solver; feasible
    /// construction goes through [`Schedule::try_insert`] or
    /// [`Schedule::from_time_ordered`].
    pub fn from_events_unchecked(events: Vec<EventId>) -> Schedule {
        Schedule { events }
    }

    /// Number of arranged events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The arranged events, in increasing time order.
    #[inline]
    pub fn events(&self) -> &[EventId] {
        &self.events
    }

    /// Whether `v` is arranged.
    #[inline]
    pub fn contains(&self, v: EventId) -> bool {
        self.events.contains(&v)
    }

    /// The position at which `v` would be inserted, or `None` when `v`
    /// conflicts in time with a scheduled event (or is a duplicate).
    ///
    /// Because the schedule is time-ordered and non-overlapping, the
    /// events that precede `v` form a prefix; `v` fits iff no scheduled
    /// event conflicts with it, which the view's conflict bitmask answers
    /// per event (see [`FlatInstance::insertion_point`]).
    #[inline]
    pub fn insertion_point(&self, flat: &FlatInstance, v: EventId) -> Option<usize> {
        flat.insertion_point(&self.events, v)
    }

    /// The incremental travel cost `inc_cost(v, u)` of Eq. (3): the extra
    /// travel incurred if `v` were inserted into this schedule of user
    /// `u`. Returns [`Cost::INFINITE`] when `v` cannot be inserted (time
    /// conflict, duplicate, or an unreachable new leg).
    ///
    /// Under the triangle inequality (validated at instance build) the
    /// increment is non-negative.
    #[inline]
    pub fn inc_cost(&self, flat: &FlatInstance, u: UserId, v: EventId) -> Cost {
        flat.inc_cost(&self.events, u, v)
    }

    /// Eq. (3) with a precomputed insertion point (see
    /// [`Schedule::insertion_point`]).
    #[inline]
    pub fn inc_cost_at(&self, flat: &FlatInstance, u: UserId, v: EventId, pos: usize) -> Cost {
        flat.inc_cost_at(&self.events, u, v, pos)
    }

    /// Total round-trip travel cost of the schedule for user `u`:
    /// `cost(u, v_1) + Σ cost(v_{i-1}, v_i) + cost(v_k, u)`; zero when
    /// empty, infinite when any leg is unreachable.
    #[inline]
    pub fn total_cost(&self, flat: &FlatInstance, u: UserId) -> Cost {
        flat.total_cost(&self.events, u)
    }

    /// Total utility `Ω(S_u) = Σ_{v ∈ S_u} μ(v, u)`, `-0.0`-normalized
    /// through [`normalize_utility`](crate::normalize_utility).
    #[inline]
    pub fn utility(&self, flat: &FlatInstance, u: UserId) -> f64 {
        flat.utility(&self.events, u)
    }

    /// Attempts to insert `v`, enforcing time feasibility, leg
    /// reachability and the budget of `u`. Returns the insertion position.
    #[inline]
    pub fn try_insert(&mut self, flat: &FlatInstance, u: UserId, v: EventId) -> Result<usize, InsertError> {
        if self.contains(v) {
            return Err(InsertError::Duplicate);
        }
        let Some(pos) = self.insertion_point(flat, v) else {
            return Err(InsertError::TimeConflict);
        };
        let inc = self.inc_cost_at(flat, u, v, pos);
        if inc.is_infinite() {
            return Err(InsertError::Unreachable);
        }
        let new_total = self.total_cost(flat, u).add(inc);
        if new_total > flat.budget(u) {
            return Err(InsertError::OverBudget);
        }
        self.events.insert(pos, v);
        Ok(pos)
    }

    /// Whether `v` could be inserted for user `u` without violating
    /// schedule-level constraints (time, reachability, budget). Does not
    /// check capacity or utility — those live on
    /// [`Planning`](crate::Planning).
    #[inline]
    pub fn can_insert(&self, flat: &FlatInstance, u: UserId, v: EventId) -> bool {
        flat.can_insert(&self.events, u, v)
    }

    /// Removes `v` if present, returning whether it was.
    ///
    /// Removal keeps the schedule feasible: the merged leg
    /// `prev → next` exists whenever both neighbor legs did (triangle
    /// inequality + temporal transitivity), and the total cost can only
    /// shrink.
    pub fn remove(&mut self, v: EventId) -> bool {
        if let Some(pos) = self.events.iter().position(|&e| e == v) {
            self.events.remove(pos);
            true
        } else {
            false
        }
    }

    /// Renders the schedule as a human-readable itinerary: one line per
    /// event with its time window, venue, utility and the travel leg
    /// reaching it, plus a footer with the return leg, total cost and
    /// utility. Used by the CLI's `plan-user` and the examples.
    pub fn describe(&self, inst: &Instance, u: UserId) -> String {
        use std::fmt::Write as _;
        let user = inst.user(u);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "itinerary of {u} (home {:?}, budget {}):",
            user.location, user.budget
        );
        if self.is_empty() {
            let _ = writeln!(out, "  (stays home)");
            return out;
        }
        let mut prev: Option<EventId> = None;
        for &v in &self.events {
            let e = inst.event(v);
            let leg = match prev {
                None => inst.cost_to_event(u, v),
                Some(p) => inst.cost_vv(p, v),
            };
            let _ = writeln!(
                out,
                "  [{:>6} – {:<6}] {v} @ {:?}  μ = {:.3}  (leg {leg})",
                e.time.start(),
                e.time.end(),
                e.location,
                inst.mu(v, u)
            );
            prev = Some(v);
        }
        let last = *self.events.last().expect("non-empty");
        let flat = inst.freeze();
        let _ = writeln!(
            out,
            "  return leg {}; total cost {} of budget {}; Ω(S_u) = {:.3}",
            inst.cost_from_event(last, u),
            self.total_cost(&flat, u),
            user.budget,
            self.utility(&flat, u)
        );
        out
    }

    /// Full schedule-level audit for user `u`, read from the instance's
    /// own accessors: no duplicates, consecutive events in time order
    /// with reachable legs, and total travel within the budget
    /// (constraints 2–3). [`Planning::validate`](crate::Planning::validate)
    /// runs it per user and reports the first violation in this order;
    /// like [`Schedule::can_insert`], it leaves utility to the planning.
    pub fn check(&self, inst: &Instance, u: UserId) -> Result<(), ConstraintViolation> {
        for (i, &a) in self.events.iter().enumerate() {
            if self.events[i + 1..].contains(&a) {
                return Err(ConstraintViolation::DuplicateEvent { user: u, event: a });
            }
        }
        let infeasible = |detail| Err(ConstraintViolation::Feasibility { user: u, detail });
        for w in self.events.windows(2) {
            if !inst.event(w[0]).time.precedes(inst.event(w[1]).time) {
                return infeasible(format!("{} does not precede {}", w[0], w[1]));
            }
            if inst.cost_vv(w[0], w[1]).is_infinite() {
                return infeasible(format!("leg {} → {} unreachable", w[0], w[1]));
            }
        }
        let cost = match (self.events.first(), self.events.last()) {
            (Some(&first), Some(&last)) => self
                .events
                .windows(2)
                .fold(inst.cost_to_event(u, first), |c, w| c.add(inst.cost_vv(w[0], w[1])))
                .add(inst.cost_from_event(last, u)),
            _ => Cost::ZERO,
        };
        let budget = inst.user(u).budget;
        if cost > budget {
            return Err(ConstraintViolation::Budget {
                user: u,
                cost: cost.finite_value().map_or(u64::MAX, u64::from),
                budget: u64::from(budget.value()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Point;
    use crate::instance::InstanceBuilder;
    use crate::time::TimeInterval;

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    /// Four events on a line at x = 0, 10, 20, 30 with consecutive time
    /// slots, one user at x = 5.
    fn line_instance(budget: u32) -> Instance {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::new(0, 0), iv(0, 10));
        b.event(1, Point::new(10, 0), iv(10, 20));
        b.event(1, Point::new(20, 0), iv(20, 30));
        b.event(1, Point::new(30, 0), iv(30, 40));
        let u = b.user(Point::new(5, 0), Cost::new(budget));
        for v in 0..4 {
            b.utility(EventId(v), u, 0.5);
        }
        b.build().unwrap()
    }

    const U: UserId = UserId(0);

    #[test]
    fn inc_cost_empty_schedule_is_round_trip() {
        let inst = line_instance(1000);
        let flat = inst.freeze();
        let s = Schedule::new();
        assert_eq!(s.inc_cost(&flat, U, EventId(0)), Cost::new(10));
        assert_eq!(s.inc_cost(&flat, U, EventId(3)), Cost::new(50));
    }

    #[test]
    fn inc_cost_prepend() {
        let inst = line_instance(1000);
        let flat = inst.freeze();
        let mut s = Schedule::new();
        s.try_insert(&flat, U, EventId(1)).unwrap();
        // prepend v0: cost(u,v0) + cost(v0,v1) - cost(u,v1) = 5 + 10 - 5 = 10
        assert_eq!(s.inc_cost(&flat, U, EventId(0)), Cost::new(10));
    }

    #[test]
    fn inc_cost_append() {
        let inst = line_instance(1000);
        let flat = inst.freeze();
        let mut s = Schedule::new();
        s.try_insert(&flat, U, EventId(1)).unwrap();
        // append v2: cost(v1,v2) + cost(v2,u) - cost(v1,u) = 10 + 15 - 5 = 20
        assert_eq!(s.inc_cost(&flat, U, EventId(2)), Cost::new(20));
    }

    #[test]
    fn inc_cost_middle() {
        let inst = line_instance(1000);
        let flat = inst.freeze();
        let mut s = Schedule::new();
        s.try_insert(&flat, U, EventId(0)).unwrap();
        s.try_insert(&flat, U, EventId(2)).unwrap();
        // insert v1 between: cost(v0,v1) + cost(v1,v2) - cost(v0,v2) = 10+10-20 = 0
        assert_eq!(s.inc_cost(&flat, U, EventId(1)), Cost::ZERO);
    }

    #[test]
    fn inc_cost_matches_total_cost_delta() {
        let inst = line_instance(1000);
        let flat = inst.freeze();
        let mut s = Schedule::new();
        for v in [EventId(2), EventId(0), EventId(3), EventId(1)] {
            let before = s.total_cost(&flat, U);
            let inc = s.inc_cost(&flat, U, v);
            s.try_insert(&flat, U, v).unwrap();
            assert_eq!(s.total_cost(&flat, U), before.add(inc));
        }
        assert_eq!(s.events(), &[EventId(0), EventId(1), EventId(2), EventId(3)]);
    }

    #[test]
    fn insertion_point_rejects_conflicts_and_duplicates() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 10));
        b.event(1, Point::ORIGIN, iv(5, 15)); // overlaps v0
        b.event(1, Point::ORIGIN, iv(10, 20));
        let u = b.user(Point::ORIGIN, Cost::new(100));
        for v in 0..3 {
            b.utility(EventId(v), u, 0.5);
        }
        let inst = b.build().unwrap();
        let flat = inst.freeze();
        let mut s = Schedule::new();
        s.try_insert(&flat, U, EventId(0)).unwrap();
        assert_eq!(s.insertion_point(&flat, EventId(1)), None);
        assert_eq!(s.insertion_point(&flat, EventId(2)), Some(1));
        assert_eq!(s.insertion_point(&flat, EventId(0)), None); // duplicate
        assert_eq!(
            s.clone().try_insert(&flat, U, EventId(1)).unwrap_err(),
            InsertError::TimeConflict
        );
        assert_eq!(
            s.clone().try_insert(&flat, U, EventId(0)).unwrap_err(),
            InsertError::Duplicate
        );
    }

    #[test]
    fn budget_enforced() {
        let inst = line_instance(25);
        let flat = inst.freeze();
        let mut s = Schedule::new();
        s.try_insert(&flat, U, EventId(0)).unwrap(); // cost 10
        // adding v1 would make total cost 5 + 10 + 5 = 20 ≤ 25: ok
        s.try_insert(&flat, U, EventId(1)).unwrap();
        // adding v2 would make total 5 + 10 + 10 + 15 = 40 > 25
        assert_eq!(s.try_insert(&flat, U, EventId(2)).unwrap_err(), InsertError::OverBudget);
        assert!(!s.can_insert(&flat, U, EventId(2)));
        assert!(s.check(&inst, U).is_ok());
    }

    #[test]
    fn unreachable_leg_detected() {
        let mut b = InstanceBuilder::new();
        // gap 5, distance 100, travel speed 1 → unreachable in sequence
        b.event(1, Point::new(0, 0), iv(0, 10));
        b.event(1, Point::new(100, 0), iv(15, 25));
        let u = b.user(Point::ORIGIN, Cost::new(10_000));
        b.utility(EventId(0), u, 0.5);
        b.utility(EventId(1), u, 0.5);
        b.travel(crate::instance::TravelCost::Grid { time_per_unit: 1 });
        let inst = b.build().unwrap();
        let flat = inst.freeze();
        let mut s = Schedule::new();
        s.try_insert(&flat, U, EventId(0)).unwrap();
        assert!(s.inc_cost(&flat, U, EventId(1)).is_infinite());
        assert_eq!(s.try_insert(&flat, U, EventId(1)).unwrap_err(), InsertError::Unreachable);
    }

    #[test]
    fn remove_keeps_feasibility_and_reduces_cost() {
        let inst = line_instance(1000);
        let flat = inst.freeze();
        let mut s = Schedule::new();
        for v in 0..4 {
            s.try_insert(&flat, U, EventId(v)).unwrap();
        }
        let before = s.total_cost(&flat, U);
        assert!(s.remove(EventId(1)));
        assert!(!s.remove(EventId(1)));
        assert!(s.check(&inst, U).is_ok());
        assert!(s.total_cost(&flat, U) <= before);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn utility_sums_mu() {
        let inst = line_instance(1000);
        let flat = inst.freeze();
        let mut s = Schedule::new();
        s.try_insert(&flat, U, EventId(0)).unwrap();
        s.try_insert(&flat, U, EventId(2)).unwrap();
        assert!((s.utility(&flat, U) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_schedule_properties() {
        let inst = line_instance(10);
        let flat = inst.freeze();
        let s = Schedule::new();
        assert!(s.is_empty());
        assert_eq!(s.total_cost(&flat, U), Cost::ZERO);
        assert_eq!(s.utility(&flat, U), 0.0);
        assert!(s.check(&inst, U).is_ok());
    }

    #[test]
    fn describe_renders_legs_and_totals() {
        let inst = line_instance(1000);
        let flat = inst.freeze();
        let mut s = Schedule::new();
        s.try_insert(&flat, U, EventId(0)).unwrap();
        s.try_insert(&flat, U, EventId(1)).unwrap();
        let text = s.describe(&inst, U);
        assert!(text.contains("itinerary of u0"));
        assert!(text.contains("v0"));
        assert!(text.contains("v1"));
        assert!(text.contains("total cost 20"));
        assert!(text.contains("Ω(S_u) = 1.000"));
    }

    #[test]
    fn describe_empty_schedule() {
        let inst = line_instance(10);
        let text = Schedule::new().describe(&inst, U);
        assert!(text.contains("stays home"));
    }

    #[test]
    fn from_time_ordered_roundtrip() {
        let inst = line_instance(1000);
        let s = Schedule::from_time_ordered(&inst, vec![EventId(0), EventId(2)]);
        assert_eq!(s.events(), &[EventId(0), EventId(2)]);
        assert!(s.check(&inst, U).is_ok());
    }
}
