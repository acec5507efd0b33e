//! Descriptive statistics over a planning, for reports and experiments.

use crate::ids::EventId;
use crate::instance::Instance;
use crate::planning::Planning;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Summary statistics of a planning on an instance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanningStats {
    /// Total utility score `Ω(A)`.
    pub omega: f64,
    /// Total number of event-user assignments.
    pub assignments: usize,
    /// Number of users with at least one arranged event.
    pub users_served: usize,
    /// Largest schedule length.
    pub max_schedule_len: usize,
    /// Mean schedule length over *served* users (0 if none).
    pub mean_schedule_len: f64,
    /// Mean event fill rate `load / capacity` over all events.
    pub mean_fill_rate: f64,
    /// Number of events filled to capacity.
    pub events_full: usize,
    /// Mean budget utilization `total_cost / b_u` over served users.
    pub mean_budget_utilization: f64,
}

impl PlanningStats {
    /// Computes statistics for `planning` on `inst`.
    pub fn compute(inst: &Instance, planning: &Planning) -> PlanningStats {
        let omega = planning.omega(inst);
        let mut assignments = 0usize;
        let mut users_served = 0usize;
        let mut max_len = 0usize;
        let mut budget_util_sum = 0.0;
        let flat = inst.freeze();
        for u in inst.user_ids() {
            let s = planning.schedule(u);
            if s.is_empty() {
                continue;
            }
            users_served += 1;
            assignments += s.len();
            max_len = max_len.max(s.len());
            let cost = s.total_cost(&flat, u);
            let budget = inst.user(u).budget;
            if budget > crate::cost::Cost::ZERO {
                budget_util_sum += cost.as_f64() / budget.as_f64();
            }
        }
        let mut fill_sum = 0.0;
        let mut events_full = 0usize;
        for v in inst.event_ids() {
            let cap = effective_capacity(inst, v);
            let load = planning.load(v).min(cap);
            if cap > 0 {
                fill_sum += f64::from(load) / f64::from(cap);
            }
            if load >= cap {
                events_full += 1;
            }
        }
        PlanningStats {
            omega,
            assignments,
            users_served,
            max_schedule_len: max_len,
            mean_schedule_len: if users_served > 0 {
                assignments as f64 / users_served as f64
            } else {
                0.0
            },
            mean_fill_rate: if inst.num_events() > 0 {
                fill_sum / inst.num_events() as f64
            } else {
                0.0
            },
            events_full,
            mean_budget_utilization: if users_served > 0 {
                budget_util_sum / users_served as f64
            } else {
                0.0
            },
        }
    }
}

/// Capacity clamped to `|U|`, the effective bound the algorithms use.
fn effective_capacity(inst: &Instance, v: EventId) -> u32 {
    inst.event(v).capacity.min(inst.num_users() as u32)
}

impl fmt::Display for PlanningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ω(A)                 = {:.4}", self.omega)?;
        writeln!(f, "assignments          = {}", self.assignments)?;
        writeln!(f, "users served         = {}", self.users_served)?;
        writeln!(
            f,
            "schedule length      = mean {:.2}, max {}",
            self.mean_schedule_len, self.max_schedule_len
        )?;
        writeln!(
            f,
            "event fill           = mean {:.1}%, {} events full",
            100.0 * self.mean_fill_rate,
            self.events_full
        )?;
        write!(f, "budget utilization   = mean {:.1}%", 100.0 * self.mean_budget_utilization)
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

    fn make() -> (Instance, Planning) {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::new(0, 0), iv(0, 10));
        b.event(2, Point::new(4, 0), iv(10, 20));
        let u0 = b.user(Point::new(0, 0), Cost::new(40));
        let u1 = b.user(Point::new(4, 0), Cost::new(40));
        for &u in &[u0, u1] {
            b.utility(EventId(0), u, 0.5);
            b.utility(EventId(1), u, 1.0);
        }
        let inst = b.build().unwrap();
        let mut p = Planning::empty(&inst);
        p.assign(&inst, u0, EventId(0)).unwrap();
        p.assign(&inst, u0, EventId(1)).unwrap();
        p.assign(&inst, u1, EventId(1)).unwrap();
        (inst, p)
    }

    #[test]
    fn stats_basic() {
        let (inst, p) = make();
        let s = PlanningStats::compute(&inst, &p);
        assert!((s.omega - 2.5).abs() < 1e-6);
        assert_eq!(s.assignments, 3);
        assert_eq!(s.users_served, 2);
        assert_eq!(s.max_schedule_len, 2);
        assert!((s.mean_schedule_len - 1.5).abs() < 1e-9);
        // both events full: fill = 1.0 each
        assert_eq!(s.events_full, 2);
        assert!((s.mean_fill_rate - 1.0).abs() < 1e-9);
        assert!(s.mean_budget_utilization > 0.0);
    }

    #[test]
    fn stats_on_empty_planning() {
        let (inst, _) = make();
        let p = Planning::empty(&inst);
        let s = PlanningStats::compute(&inst, &p);
        assert_eq!(s.omega, 0.0);
        assert_eq!(s.users_served, 0);
        assert_eq!(s.mean_schedule_len, 0.0);
        assert_eq!(s.events_full, 0);
    }

    #[test]
    fn display_renders() {
        let (inst, p) = make();
        let s = PlanningStats::compute(&inst, &p);
        let text = s.to_string();
        assert!(text.contains("Ω(A)"));
        assert!(text.contains("users served"));
    }

    #[test]
    fn capacity_clamped_to_num_users() {
        let mut b = InstanceBuilder::new();
        b.event(1_000_000, Point::ORIGIN, iv(0, 1));
        let u = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(EventId(0), u, 0.5);
        let inst = b.build().unwrap();
        let mut p = Planning::empty(&inst);
        p.assign(&inst, u, EventId(0)).unwrap();
        let s = PlanningStats::compute(&inst, &p);
        // effective capacity is |U| = 1, so the event counts as full
        assert_eq!(s.events_full, 1);
        assert!((s.mean_fill_rate - 1.0).abs() < 1e-9);
    }
}
