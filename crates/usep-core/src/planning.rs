//! Plannings — one schedule per user — and the USEP objective Ω.

use crate::error::{ConstraintViolation, PlanningError};
use crate::flat::normalize_utility;
use crate::ids::{EventId, UserId};
use crate::instance::Instance;
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};

/// A planning `A = ∪_u {S_u}`: one (possibly empty) schedule per user,
/// plus per-event load counters for O(1) capacity checks. The default
/// is the planning of an instance with no users and no events.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Planning {
    schedules: Vec<Schedule>,
    load: Vec<u32>,
}

impl Planning {
    /// The empty planning for an instance (every schedule empty).
    pub fn empty(inst: &Instance) -> Planning {
        Planning {
            schedules: vec![Schedule::new(); inst.num_users()],
            load: vec![0; inst.num_events()],
        }
    }

    /// Builds a planning from per-user schedules (recomputing loads).
    ///
    /// Used by the decomposed algorithms, which construct whole schedules;
    /// call [`Planning::validate`] to audit the result.
    pub fn from_schedules(inst: &Instance, schedules: Vec<Schedule>) -> Planning {
        assert_eq!(schedules.len(), inst.num_users(), "one schedule per user");
        let mut load = vec![0u32; inst.num_events()];
        for s in &schedules {
            for &v in s.events() {
                load[v.index()] += 1;
            }
        }
        Planning { schedules, load }
    }

    /// The schedule of user `u`.
    #[inline]
    pub fn schedule(&self, u: UserId) -> &Schedule {
        &self.schedules[u.index()]
    }

    /// All schedules, indexed by `UserId`.
    #[inline]
    pub fn schedules(&self) -> &[Schedule] {
        &self.schedules
    }

    /// The schedules by value, for a caller that re-keys a planning
    /// through [`Planning::from_schedules`] without cloning them.
    pub fn into_schedules(self) -> Vec<Schedule> {
        self.schedules
    }

    /// Number of users currently attending event `v`.
    #[inline]
    pub fn load(&self, v: EventId) -> u32 {
        self.load[v.index()]
    }

    /// Remaining capacity of event `v`.
    #[inline]
    pub fn remaining_capacity(&self, inst: &Instance, v: EventId) -> u32 {
        inst.event(v).capacity.saturating_sub(self.load[v.index()])
    }

    /// Whether `(v, u)` can be added without violating any of the four
    /// USEP constraints. The schedule-level checks run on the frozen
    /// view ([`Instance::freeze`]).
    pub fn can_assign(&self, inst: &Instance, u: UserId, v: EventId) -> bool {
        self.remaining_capacity(inst, v) > 0
            && inst.mu(v, u) > 0.0
            && self.schedules[u.index()].can_insert(&inst.freeze(), u, v)
    }

    /// Adds event `v` to the schedule of user `u`, enforcing all four
    /// constraints. The schedule-level checks run on the frozen view
    /// ([`Instance::freeze`]).
    pub fn assign(&mut self, inst: &Instance, u: UserId, v: EventId) -> Result<(), PlanningError> {
        if self.remaining_capacity(inst, v) == 0 {
            return Err(PlanningError::EventFull(v));
        }
        if inst.mu(v, u) <= 0.0 {
            return Err(PlanningError::ZeroUtility(v, u));
        }
        match self.schedules[u.index()].try_insert(&inst.freeze(), u, v) {
            Ok(_) => {
                self.load[v.index()] += 1;
                Ok(())
            }
            Err(crate::schedule::InsertError::OverBudget) => Err(PlanningError::OverBudget(v, u)),
            Err(_) => Err(PlanningError::Infeasible(v, u)),
        }
    }

    /// Removes event `v` from the schedule of user `u`, returning whether
    /// it was present. Removal never invalidates a feasible planning.
    pub fn unassign(&mut self, u: UserId, v: EventId) -> bool {
        if self.schedules[u.index()].remove(v) {
            self.load[v.index()] -= 1;
            true
        } else {
            false
        }
    }

    /// The total utility score `Ω(A) = Σ_u Σ_{v ∈ S_u} μ(v, u)` (Eq. 1).
    ///
    /// Sums the instance's stored μ directly, so reporting Ω on an
    /// instance that was never solved does not build its flat view.
    pub fn omega(&self, inst: &Instance) -> f64 {
        normalize_utility(
            self.schedules
                .iter()
                .enumerate()
                .map(|(u, s)| {
                    let u = UserId(u as u32);
                    normalize_utility(s.events().iter().map(|&v| inst.mu(v, u)).sum::<f64>())
                })
                .sum::<f64>(),
        )
    }

    /// Total number of arranged event-user pairs.
    pub fn num_assignments(&self) -> usize {
        self.schedules.iter().map(Schedule::len).sum()
    }

    /// Validates all four USEP constraints, returning the first violation
    /// found.
    pub fn validate(&self, inst: &Instance) -> Result<(), ConstraintViolation> {
        // capacity (constraint 1) — recompute loads from scratch so the
        // audit does not trust the incremental counters
        let mut load = vec![0u32; inst.num_events()];
        for s in &self.schedules {
            for &v in s.events() {
                load[v.index()] += 1;
            }
        }
        debug_assert_eq!(load, self.load, "incremental load counters went stale");
        for (v, &n) in load.iter().enumerate() {
            let cap = inst.event(EventId(v as u32)).capacity;
            if n > cap {
                return Err(ConstraintViolation::Capacity {
                    event: EventId(v as u32),
                    assigned: n,
                    capacity: cap,
                });
            }
        }
        for (ui, s) in self.schedules.iter().enumerate() {
            let u = UserId(ui as u32);
            // duplicates, feasibility (constraint 3) and budget (2)
            s.check(inst, u)?;
            // utility (constraint 4)
            for &v in s.events() {
                if inst.mu(v, u) <= 0.0 {
                    return Err(ConstraintViolation::Utility { user: u, event: v });
                }
            }
        }
        Ok(())
    }

    /// Iterates over all `(user, event)` assignments.
    pub fn assignments(&self) -> impl Iterator<Item = (UserId, EventId)> + '_ {
        self.schedules
            .iter()
            .enumerate()
            .flat_map(|(u, s)| s.events().iter().map(move |&v| (UserId(u as u32), v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use crate::geo::Point;
    use crate::instance::InstanceBuilder;
    use crate::time::TimeInterval;

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    fn two_user_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::new(0, 0), iv(0, 10)); // capacity 1
        b.event(2, Point::new(10, 0), iv(10, 20));
        let u0 = b.user(Point::new(0, 0), Cost::new(100));
        let u1 = b.user(Point::new(10, 0), Cost::new(100));
        for &u in &[u0, u1] {
            b.utility(EventId(0), u, 0.6);
            b.utility(EventId(1), u, 0.4);
        }
        b.build().unwrap()
    }

    #[test]
    fn assign_and_omega() {
        let inst = two_user_instance();
        let mut p = Planning::empty(&inst);
        p.assign(&inst, UserId(0), EventId(0)).unwrap();
        p.assign(&inst, UserId(0), EventId(1)).unwrap();
        p.assign(&inst, UserId(1), EventId(1)).unwrap();
        assert!((p.omega(&inst) - 1.4).abs() < 1e-6);
        assert_eq!(p.num_assignments(), 3);
        assert!(p.validate(&inst).is_ok());
    }

    #[test]
    fn capacity_enforced() {
        let inst = two_user_instance();
        let mut p = Planning::empty(&inst);
        p.assign(&inst, UserId(0), EventId(0)).unwrap();
        assert_eq!(
            p.assign(&inst, UserId(1), EventId(0)).unwrap_err(),
            PlanningError::EventFull(EventId(0))
        );
        assert_eq!(p.load(EventId(0)), 1);
        assert_eq!(p.remaining_capacity(&inst, EventId(0)), 0);
    }

    #[test]
    fn zero_utility_rejected() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 1));
        b.user(Point::ORIGIN, Cost::new(10));
        let inst = b.build().unwrap(); // μ defaults to 0
        let mut p = Planning::empty(&inst);
        assert_eq!(
            p.assign(&inst, UserId(0), EventId(0)).unwrap_err(),
            PlanningError::ZeroUtility(EventId(0), UserId(0))
        );
    }

    #[test]
    fn unassign_frees_capacity() {
        let inst = two_user_instance();
        let mut p = Planning::empty(&inst);
        p.assign(&inst, UserId(0), EventId(0)).unwrap();
        assert!(p.unassign(UserId(0), EventId(0)));
        assert!(!p.unassign(UserId(0), EventId(0)));
        p.assign(&inst, UserId(1), EventId(0)).unwrap();
        assert!(p.validate(&inst).is_ok());
    }

    #[test]
    fn can_assign_mirrors_assign() {
        let inst = two_user_instance();
        let mut p = Planning::empty(&inst);
        assert!(p.can_assign(&inst, UserId(0), EventId(0)));
        p.assign(&inst, UserId(0), EventId(0)).unwrap();
        assert!(!p.can_assign(&inst, UserId(1), EventId(0))); // full
        assert!(!p.can_assign(&inst, UserId(0), EventId(0))); // duplicate
    }

    #[test]
    fn from_schedules_recomputes_load() {
        let inst = two_user_instance();
        let flat = inst.freeze();
        let mut s0 = Schedule::new();
        s0.try_insert(&flat, UserId(0), EventId(0)).unwrap();
        let mut s1 = Schedule::new();
        s1.try_insert(&flat, UserId(1), EventId(1)).unwrap();
        let p = Planning::from_schedules(&inst, vec![s0, s1]);
        assert_eq!(p.load(EventId(0)), 1);
        assert_eq!(p.load(EventId(1)), 1);
        assert!(p.validate(&inst).is_ok());
    }

    #[test]
    fn validate_catches_capacity_violation() {
        let inst = two_user_instance();
        let flat = inst.freeze();
        // force both users onto the capacity-1 event
        let mut s0 = Schedule::new();
        s0.try_insert(&flat, UserId(0), EventId(0)).unwrap();
        let mut s1 = Schedule::new();
        s1.try_insert(&flat, UserId(1), EventId(0)).unwrap();
        let p = Planning::from_schedules(&inst, vec![s0, s1]);
        assert!(matches!(
            p.validate(&inst).unwrap_err(),
            ConstraintViolation::Capacity { .. }
        ));
    }

    #[test]
    fn validate_catches_budget_violation() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::new(50, 0), iv(0, 1));
        let u = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(EventId(0), u, 0.5);
        let inst = b.build().unwrap();
        let s = Schedule::from_time_ordered(&inst, vec![EventId(0)]);
        let p = Planning::from_schedules(&inst, vec![s]);
        assert!(matches!(p.validate(&inst).unwrap_err(), ConstraintViolation::Budget { .. }));
    }

    #[test]
    fn validate_catches_time_conflict() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 10));
        b.event(1, Point::ORIGIN, iv(5, 15));
        let u = b.user(Point::ORIGIN, Cost::new(100));
        b.utility(EventId(0), u, 0.5);
        b.utility(EventId(1), u, 0.5);
        let inst = b.build().unwrap();
        let p = Planning::from_schedules(
            &inst,
            vec![Schedule { events: vec![EventId(0), EventId(1)] }],
        );
        assert!(matches!(
            p.validate(&inst).unwrap_err(),
            ConstraintViolation::Feasibility { .. }
        ));
    }

    #[test]
    fn assignments_iterator() {
        let inst = two_user_instance();
        let mut p = Planning::empty(&inst);
        p.assign(&inst, UserId(0), EventId(0)).unwrap();
        p.assign(&inst, UserId(1), EventId(1)).unwrap();
        let pairs: Vec<_> = p.assignments().collect();
        assert_eq!(pairs, vec![(UserId(0), EventId(0)), (UserId(1), EventId(1))]);
    }

    #[test]
    fn empty_planning_is_valid_with_zero_omega() {
        let inst = two_user_instance();
        let p = Planning::empty(&inst);
        assert_eq!(p.omega(&inst), 0.0);
        assert!(p.validate(&inst).is_ok());
        assert_eq!(p.num_assignments(), 0);
    }
}
